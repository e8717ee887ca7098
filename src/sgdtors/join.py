"""Doubled strings over an enriched groupoid and the prism between
their two halves.

The carrier is the homotopy colimit of the comma construction over the
identity functor.  An n-simplex unpacks to 2n+1 composable n-cells; the
first n are the left half, the last n are the right half (which is also
the translation projection), and the middle cell connects them.  The
ordinal comparison sending (i, eps) to the left or right copy of i
yields a prism from the left restriction to the right one, and every
step of it is a restriction of the doubled string, so simpliciality
comes down to the naturality of the comparison.

``alpha_beta`` materialises the carrier, the diagonal nerve and the
prism's domain carrier x interval; both checks take its result, so a
check of one enriched groupoid builds each of them once.  The prism
runs on the roots of carrier x interval only, and ``sset_map`` fills
the degenerate simplices from the diagonal nerve.  It unpacks each
doubled string once and reuses it for every prism simplex over it; the
cell targets, identities and inverses it reads come from lookups that
the enriched groupoid fills once.
"""

from __future__ import annotations

from dataclasses import replace

from .holim import comma_construction_functor, holim
from .ordinal import h_map
from .report import Check, require
from .sgroupoid import (
    SgdFunctor,
    SimpGroupoid,
    db_map,
    db_sgroupoid,
    identity_functor,
    string_image,
    string_steps,
)
from .sset import SSetMap, delta, sset_map, sset_product, validate_sset_map


def join_object(G: SimpGroupoid):
    """n-simplices: (a0, (b0, g0, (u1..un)), (h1..hn)); all cells level n."""
    return holim(comma_construction_functor(identity_functor(G)))


def join_string(G: SimpGroupoid, n, w):
    """Unpack a simplex into its 2n+2 objects and 2n+1 composable cells.

    The attached cell g0 points from the head of the left half to the
    head of the right half; the middle cell of the string is its
    transport to the tail of the left half.
    """
    a0, x, hs = w
    b0, g0, us = x
    left = [b0] + [b for _, b, _ in string_steps(G, b0, us, n)]
    right = [a0] + [b for _, b, _ in string_steps(G, a0, hs, n)]
    mid = g0
    for i in range(n):
        inv = G.inverse(left[i], left[i + 1], n, us[i])
        mid = G.compose(left[i + 1], left[i], right[0], n, mid, inv)
    return tuple(left + right), tuple(us) + (mid,) + tuple(hs)


def alpha_beta(G: SimpGroupoid):
    """Returns (carrier, left map, right map, prism).

    The prism is a map from carrier x interval to the diagonal nerve
    whose ends are the left and right maps exactly.
    """
    J = join_object(G)
    B = db_sgroupoid(G)
    alpha = sset_map(J, B, lambda n, w: (w[1][0], w[1][2]))
    beta = sset_map(J, B, lambda n, w: (w[0], w[2]))
    P = sset_product(J, delta(1, G.trunc))
    strings = [{w: join_string(G, n, w) for w in J.level(n)} for n in range(J.trunc + 1)]
    h_maps = [h_map(n) for n in range(J.trunc + 1)]

    def prism(n, s):
        w, omega = s
        objs, cells = strings[n][w]
        h = h_maps[n]
        gamma = [h[(i, omega[i])] for i in range(n + 1)]
        out = []
        for i in range(1, n + 1):
            lo, hi = gamma[i - 1], gamma[i]
            out.append(G.compose_path(objs[lo : hi + 1], n, list(cells[lo:hi])))
        return (objs[gamma[0]], tuple(out))

    H = sset_map(P, B, prism)
    return J, alpha, beta, H


def alpha_beta_check(prism) -> Check:
    """alpha_beta(G)'s prism is simplicial and restricts to the two halves on the nose."""
    J, alpha, beta, H = prism
    check = Check(
        "prism between the left and right halves of doubled strings",
        True,
        params={"trunc": J.trunc, "carrier_counts": J.level_counts()},
    )
    for name, f in (("left", alpha), ("right", beta), ("prism", H)):
        check.add(replace(validate_sset_map(f), claim=f"{name} map is simplicial"))
    ends_ok = True
    witness = None
    for n in range(J.trunc + 1):
        zeros = (0,) * (n + 1)
        ones = (1,) * (n + 1)
        for w in J.level(n):
            if H(n, (w, zeros)) != alpha(n, w) or H(n, (w, ones)) != beta(n, w):
                ends_ok = False
                witness = (n, w)
                break
        if not ends_ok:
            break
    check.add(require(ends_ok, "prism ends are the two halves exactly", witness=witness))
    return check


def join_map(F: SgdFunctor, J, J2) -> SSetMap:
    """The carrier map J -> J2 induced by an enriched functor, between the
    join objects of its source and target."""

    def assign(n, w):
        a0, x, hs = w
        b0, g0, us = x
        return (
            F.ob[a0],
            (F.ob[b0], F.on_hom(b0, a0, n, g0), string_image(F, b0, us, n)),
            string_image(F, a0, hs, n),
        )

    return sset_map(J, J2, assign)


def naturality_check(F: SgdFunctor, prism) -> Check:
    """The prism commutes with the maps an enriched functor induces; prism
    is alpha_beta(F.source), reused for F.target when F is an endofunctor."""
    J1, _, _, H1 = prism
    J2, _, _, H2 = prism if F.target is F.source else alpha_beta(F.target)
    jf = join_map(F, J1, J2)
    bf = db_map(F, H1.target, H2.target)
    check = Check("prism is natural in the index", True, params={"trunc": F.source.trunc})
    check.add(replace(validate_sset_map(jf), claim="induced carrier map is simplicial"))
    square_ok = True
    witness = None
    for n in range(F.source.trunc + 1):
        for w, omega in H1.source.level(n):
            lhs = bf(n, H1(n, (w, omega)))
            rhs = H2(n, (jf(n, w), omega))
            if lhs != rhs:
                square_ok = False
                witness = (n, w, omega)
                break
        if not square_ok:
            break
    check.add(require(square_ok, "prism square commutes", witness=witness))
    return check
