"""Sheafification and local notions over a finite site.

Everything is computed against the smallest covering sieves, the fixed
point of refinement that ``site.min_sieves`` works out from the site.
On a finite site the plus construction is just the matching families of
that sieve, and ``PLUS_STEPS`` of them give the associated sheaf.  Local
surjectivity and local weak equivalence quantify over those sieves, so
with no covering data they collapse to their sectionwise versions.

Each sieve is put in ``idkey`` order once per site, by
``site.ordered_sieves``.  Families list their entries in that order,
and the search lists them in ``idkey`` order of their values, so the
plus construction sorts nothing.
"""

from __future__ import annotations

import itertools

from .kan import TruncationError, induced_pi_map, kan_check, pi_n
from .presheaf import (
    SetPresheaf,
    SetPresheafMap,
    SSetPresheaf,
    SSetPresheafMap,
    set_presheaf,
    set_presheaf_map,
    sset_presheaf,
    terminal_presheaf,
    validate_set_presheaf_map,
    validate_sset_presheaf_map,
)
from .report import Check, require
from .search import solve
from .site import FinSite, comma_site, min_sieves, ordered_sieves
from .sset import SSetMap, build_sset, idkey, pi0, pi0_classes

# plus-construction steps from a presheaf to its associated sheaf; the
# local checks built on them report it as their "depth"
PLUS_STEPS = 2


def matching_families(P: SetPresheaf, sieve):
    """All sieve-indexed families compatible under restriction.

    A family assigns m_f over the source of each f in the sieve, with
    m_{f . h} equal to the restriction of m_f along h: it is a natural
    map S -> P, where S is the subpresheaf of the representable whose
    sections over V are the members of the sieve out of V.  Families
    are tuples ((f, m_f), ...) in the order of ``sieve``, listed in
    ``itertools.product`` order of P's values.  For a sieve of
    ``ordered_sieves`` and values in ``idkey`` order, as ``set_presheaf``
    builds them, that is ``idkey`` order of the families.

    One search slot per sieve member ranges over the sections at its
    source, and each h into that source constrains the pair (f, f . h):
    the slots and constraints natural_maps(S, P, ()) would state.  They
    are stated here directly: building S and one presheaf map per family
    added about 2% to the wall time of the circle-homotopy benchmark
    workload.
    """
    C = P.site.cat
    domains = {f: P.values[C.src(f)] for f in sieve}
    constraints = [
        ((f, C.comp[(f, h)]), lambda m, down, r=P.res[h]: r[m] == down)
        for f in domains
        for h in C.into(C.src(f))
        if C.comp[(f, h)] in domains
    ]
    return [tuple(family.items()) for family in solve(domains, constraints)]


def plus_construction(P: SetPresheaf) -> SetPresheaf:
    """Sections over U are matching families for its smallest sieve.

    P's values must be in ``idkey`` order, as ``set_presheaf`` and this
    function build them: then so are the families, and the presheaf is
    built as it stands, with nothing sorted."""
    site = P.site
    sieves = ordered_sieves(site)
    C = site.cat
    values = {U: tuple(matching_families(P, sieves[U])) for U in site.objects}
    res = {}
    for f, (V, U) in C.morphisms.items():
        through = [(g, C.comp[(f, g)]) for g in sieves[V]]
        tab = res[f] = {}
        for m in values[U]:
            lookup = dict(m)
            tab[m] = tuple((g, lookup[fg]) for g, fg in through)
    return SetPresheaf(site, values, res)


def plus_unit(P: SetPresheaf) -> SetPresheafMap:
    """Canonical map into the plus construction: restrict along the sieve."""
    sieves = ordered_sieves(P.site)
    Q = plus_construction(P)
    return set_presheaf_map(
        P, Q, lambda U, s: tuple((f, P.res[f][s]) for f in sieves[U])
    )


def plus_map(phi: SetPresheafMap) -> SetPresheafMap:
    """The plus construction applied to a map, componentwise on families."""
    Pp = plus_construction(phi.source)
    Qp = plus_construction(phi.target)
    C = phi.source.site.cat
    return SetPresheafMap(
        Pp, Qp,
        {
            U: {
                m: tuple((f, phi.components[C.src(f)][v]) for f, v in m)
                for m in Pp.values[U]
            }
            for U in Pp.site.objects
        },
    )


def sheafify(P: SetPresheaf) -> SetPresheaf:
    for _ in range(PLUS_STEPS):
        P = plus_construction(P)
    return P


def sheafify_map(phi: SetPresheafMap) -> SetPresheafMap:
    for _ in range(PLUS_STEPS):
        phi = plus_map(phi)
    return phi


def is_sheaf(P: SetPresheaf):
    return is_componentwise_bijection(plus_unit(P))


def local_epi_check(phi: SetPresheafMap) -> Check:
    """Every section of the target is hit after restricting along a cover."""
    P, Q = phi.source, phi.target
    site = P.site
    sieves = min_sieves(site)
    check = Check("map is a local epimorphism", True)
    if not check.add(validate_set_presheaf_map(phi)):
        return check
    C = site.cat
    for U in site.objects:
        for s in Q.values[U]:
            hit = frozenset(
                f
                for f in C.into(U)
                if Q.res[f][s] in set(phi.components[C.src(f)].values())
            )
            if not sieves[U] <= hit:
                check.add(
                    Check(
                        f"section {s!r} over {U!r} is locally hit",
                        False,
                        witness=sorted(sieves[U] - hit, key=idkey)[:3],
                    )
                )
                return check
    check.add(Check("all sections locally hit", True))
    return check


# ---------------------------------------------------------------------------
# Pieces-of-covers resolution.


def cover_elements(site: FinSite, cover) -> SetPresheaf:
    """Disjoint union of the representables of a cover of the terminal
    presheaf, given as a list of objects."""
    C = site.cat
    return set_presheaf(
        site,
        lambda W: [(i, h) for i, V in enumerate(cover) for h in C.hom(W, V)],
        lambda f, s: (s[0], C.comp[(s[1], f)]),
    )


def cech_resolution(site: FinSite, cover, trunc) -> SSetPresheaf:
    """Levelwise nerve of the chaotic groupoid on the cover's elements.

    n-simplices over W are (n + 1)-tuples of elements; faces drop an
    entry and degeneracies repeat one.
    """
    E = cover_elements(site, cover)

    def value(W):
        elems = E.values[W]
        return build_sset(
            trunc,
            lambda n: list(itertools.product(elems, repeat=n + 1)),
            lambda n, i, t: t[:i] + t[i + 1:],
            lambda n, j, t: t[: j + 1] + t[j:],
        )

    return sset_presheaf(site, value, lambda f, n, t: tuple(E.res[f][e] for e in t))


def cech_local_epi_check(site: FinSite, cover) -> Check:
    """The cover's elements hit the terminal presheaf locally."""
    E = cover_elements(site, cover)
    T = terminal_presheaf(site)
    phi = set_presheaf_map(E, T, lambda U, s: "*")
    check = local_epi_check(phi)
    check.claim = "cover elements surject locally onto the point"
    return check


# ---------------------------------------------------------------------------
# Local weak equivalence of simplicial presheaves.


def pi0_presheaf(Y: SSetPresheaf) -> SetPresheaf:
    """Component classes sectionwise, with induced restrictions."""
    roots = {U: pi0(Y.values[U]) for U in Y.site.objects}

    def value(U):
        return pi0_classes(Y.values[U])

    def restrict(f, r):
        V, U = Y.site.cat.morphisms[f]
        return roots[V][Y.res[f][0][r]]

    return set_presheaf(Y.site, value, restrict)


def pi0_presheaf_map(phi: SSetPresheafMap) -> SetPresheafMap:
    PX = pi0_presheaf(phi.source)
    PY = pi0_presheaf(phi.target)
    roots = {U: pi0(phi.target.values[U]) for U in phi.target.site.objects}
    return set_presheaf_map(
        PX, PY, lambda U, r: roots[U][phi.components[U][0][r]]
    )


def is_componentwise_bijection(phi: SetPresheafMap):
    return all(
        len(set(phi.components[U].values()))
        == len(phi.source.values[U])
        == len(phi.target.values[U])
        for U in phi.source.site.objects
    )


def _comma_pi_presheaves(phi: SSetPresheafMap, comma, v, n, pi):
    """Homotopy presheaves at degree n on the site over U, plus the map.

    ``comma`` is ``comma_site(site, U)``, and v is a vertex of the source
    sections over U; base vertices elsewhere come from restricting it.
    ``pi(section, vertex, n)`` gives each homotopy group.  Class indices
    name the elements.
    """
    X, Y = phi.source, phi.target
    over, forget = comma
    groups_x, groups_y, comps = {}, {}, {}
    for f in over.objects:
        V = forget[f]
        vx = X.res[f][0][v]
        pgx = pi(X.values[V], vx, n)
        pgy = pi(Y.values[V], phi.components[V][0][vx], n)
        groups_x[f] = pgx
        groups_y[f] = pgy
        comps[f] = induced_pi_map(phi.component(V), pgx, pgy)

    def build(Z, groups):
        # each restriction's class map, in the order set_presheaf asks for them
        tables = {
            (h, f1, f2): induced_pi_map(
                SSetMap(Z.values[forget[f2]], Z.values[forget[f1]], Z.res[h]),
                groups[f2], groups[f1],
            )
            for (h, f1, f2) in over.morphisms
        }
        return set_presheaf(
            over, lambda fobj: range(len(groups[fobj].classes)), lambda mor, idx: tables[mor][idx]
        )

    PX = build(X, groups_x)
    PY = build(Y, groups_y)
    themap = set_presheaf_map(PX, PY, lambda fobj, idx: comps[fobj][idx])
    return PX, PY, themap, over


def local_weq_check(phi: SSetPresheafMap) -> Check:
    """Sheafified components and homotopy classes match in degrees up to
    trunc - 2.

    Degree n uses the comma site over each object at every source
    vertex; Kan sections are a stated precondition checked first.  Each
    comma site is built once per object, and each homotopy group once
    per distinct section, base vertex and degree.
    """
    X, Y = phi.source, phi.target
    maxdeg = X.trunc - 2
    check = Check(
        "map is a local weak equivalence", True,
        params={"maxdeg": maxdeg, "depth": PLUS_STEPS},
    )
    if not check.add(validate_sset_presheaf_map(phi)):
        return check
    if maxdeg >= 1:
        # sections are shared by identity: check each where it first appears
        fibrant = set()
        for U in X.site.objects:
            for label, Z in (("source", X), ("target", Y)):
                section = Z.values[U]
                if id(section) in fibrant:
                    continue
                rep = kan_check(section, maxdeg + 1)
                if not rep.ok:
                    check.add(require(False, f"{label} sections over {U!r} are fibrant",
                                      witness=rep.witness))
                    return check
                fibrant.add(id(section))
        check.add(Check("sections are fibrant", True))

    sh = sheafify_map(pi0_presheaf_map(phi))
    ok0 = is_componentwise_bijection(sh)
    check.add(require(ok0, "associated component sheaves agree",
                      witness={U: (len(sh.source.values[U]), len(sh.target.values[U]))
                               for U in X.site.objects}))
    if not ok0 or maxdeg < 1:
        return check

    # sections are shared by identity, and live as long as phi
    groups = {}

    def pi(section, vertex, n):
        key = (id(section), vertex, n)
        if key not in groups:
            groups[key] = pi_n(section, vertex, n)
        return groups[key]

    commas = {U: comma_site(X.site, U) for U in X.site.objects}
    for n in range(1, maxdeg + 1):
        for U in X.site.objects:
            for v in X.values[U].level(0):
                try:
                    PX, PY, themap, over = _comma_pi_presheaves(phi, commas[U], v, n, pi)
                except TruncationError as e:
                    check.add(Check(f"degree {n} classes over {U!r}", False, witness=str(e)))
                    return check
                shn = sheafify_map(themap)
                okn = is_componentwise_bijection(shn)
                check.add(
                    require(
                        okn,
                        f"degree {n} class sheaves agree over {U!r} at {v!r}",
                        witness={
                            f: (len(shn.source.values[f]), len(shn.target.values[f]))
                            for f in over.objects
                        } if not okn else None,
                    )
                )
                if not okn:
                    return check
    return check
