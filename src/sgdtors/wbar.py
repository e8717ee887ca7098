"""Classifying simplicial sets for enriched groupoids.

An n-simplex of the classifying object of an enriched groupoid C is a
cocycle: objects x_0, ..., x_n together with connecting cells
a_i in hom(x_i, x_{i-1}) of simplicial degree n - i.  The ordinal maps
act by reindexing the cells along composites pushed down to the right
degree, so faces generalize the familiar bar-construction shuffles.

The total object pairs every cocycle with one extra leading cell; its
zeroth face forgets that cell, and level n cells act freely on it by
composing into the leading position.
"""

from __future__ import annotations

import itertools

from .ordinal import OrdinalMap, coface, codegeneracy
from .report import Check, invariant, require, unique_hit
from .sgroupoid import SgdFunctor, SimpGroupoid, db_sgroupoid, string_steps
from .sset import SSetMap, TruncSSet, build_sset, idkey, sset_map


def cocycle_gap_composite(C: SimpGroupoid, objs, arrows, n, p, q):
    """The composite cell x_q -> x_p of a cocycle, at degree n - q.

    Cell a_j sits at degree n - j and is pushed down by leading faces
    before composing; requires p < q.
    """
    fs = []
    for j in range(q, p, -1):
        f = arrows[j - 1]
        hom = C.homs[(objs[j], objs[j - 1])]
        for t in range(q - j):
            f = hom.face(n - j - t, 0, f)
        fs.append(f)
    chain = [objs[j] for j in range(q, p - 1, -1)]
    return C.compose_path(chain, n - q, fs)


def wbar_theta(C: SimpGroupoid, theta: OrdinalMap, simplex):
    """Contravariant ordinal action on cocycles."""
    objs, arrows = simplex
    m, n = theta.dom, theta.cod
    new_objs = tuple(objs[theta(i)] for i in range(m + 1))
    new_arrows = []
    for i in range(1, m + 1):
        p, q = theta(i - 1), theta(i)
        if p == q:
            gamma = C.identity_at(objs[p], n - q)
        else:
            gamma = cocycle_gap_composite(C, objs, arrows, n, p, q)
        new_arrows.append(C.homs[(objs[q], objs[p])].apply(theta.restricted(i), gamma))
    return (new_objs, tuple(new_arrows))


def wbar(C: SimpGroupoid, trunc=None) -> TruncSSet:
    """The classifying simplicial set of cocycles.

    Cells of degree n - i never exceed C.trunc for n <= C.trunc + 1, so
    one extra dimension is available on request.
    """
    N = C.trunc if trunc is None else trunc
    invariant(N <= C.trunc + 1, "cocycles only reach one dimension above the enrichment")

    def levels(n):
        out = []

        def extend(objs, arrows, i):
            if i > n:
                out.append((tuple(objs), tuple(arrows)))
                return
            for x in C.objects:
                for a in C.homs[(x, objs[-1])].level(n - i):
                    extend(objs + [x], arrows + [a], i + 1)

        for x0 in C.objects:
            extend([x0], [], 1)
        return out

    def face(n, i, x):
        return wbar_theta(C, coface(n, i), x)

    def degen(n, j, x):
        return wbar_theta(C, codegeneracy(n, j), x)

    return build_sset(N, levels, face, degen)


def cocycle_image(F: SgdFunctor, n, s):
    """The image under F of a level-n cocycle s: F on every object, and
    on every cell at its degree."""
    objs, arrows = s
    return (
        tuple(F.ob[x] for x in objs),
        tuple(
            F.on_hom(objs[i], objs[i - 1], n - i, a)
            for i, a in enumerate(arrows, start=1)
        ),
    )


def wbar_map(F: SgdFunctor) -> SSetMap:
    """Image of an enriched functor between the classifying objects."""
    return sset_map(wbar(F.source), wbar(F.target), lambda n, s: cocycle_image(F, n, s))


def j_map(C: SimpGroupoid) -> SSetMap:
    """Comparison from the diagonal of the enriched nerve to the cocycles.

    A string of n composable n-cells turns into a cocycle by inverting
    each cell and pushing it down to its slot with leading faces.
    """
    X = db_sgroupoid(C)
    Y = wbar(C)

    def assign(n, s):
        x0, gs = s
        steps = string_steps(C, x0, gs, n)
        objs = (x0,) + tuple(b for _, b, _ in steps)
        arrows = []
        for j, (a, b, g) in enumerate(steps, start=1):
            cur = C.inverse(a, b, n, g)
            hom = C.homs[(b, a)]
            for t in range(j):
                cur = hom.face(n - t, 0, cur)
            arrows.append(cur)
        return (objs, tuple(arrows))

    return sset_map(X, Y, assign)


# ---------------------------------------------------------------------------
# The total object: one extra leading cell over each cocycle.


def w_total(C: SimpGroupoid) -> TruncSSet:
    """Shift of the classifying object: level n is its level n + 1."""
    W = wbar(C, C.trunc + 1)
    return build_sset(
        C.trunc,
        lambda n: W.level(n + 1),
        lambda n, i, x: W.face(n + 1, i + 1, x),
        lambda n, j, x: W.degen(n + 1, j + 1, x),
    )


def w_quotient_map(C: SimpGroupoid) -> SSetMap:
    """Forgetting the leading cell of the total object, a level map."""
    W = wbar(C, C.trunc + 1)
    T = w_total(C)
    B = wbar(C)
    return sset_map(T, B, lambda n, x: W.face(n + 1, 0, x))


def w_action(C: SimpGroupoid, n, g, x):
    """Left action of a level n cell g on a total-object n-simplex.

    x has objects (x_0, ..., x_{n+1}) and leading cell a_1: x_1 -> x_0 of
    degree n; g must start at x_0 and composes into the leading slot.
    """
    objs, arrows = x
    src = objs[0]
    hits = [b for b in C.objects if C.homs[(src, b)].has(n, g)]
    dst = unique_hit(hits, "acting cell must start at the leading object")
    a1 = C.compose(objs[1], src, dst, n, g, arrows[0])
    return ((dst,) + objs[1:], (a1,) + arrows[1:])


def w_action_cells(C: SimpGroupoid, n, x):
    """All cells that may act on x: level n cells out of its leading object."""
    src = x[0][0]
    return [
        (b, g) for b in C.objects for g in C.homs[(src, b)].level(n)
    ]


def free_action_check(C: SimpGroupoid) -> Check:
    """The action on the total object is free and its orbits are exactly
    the fibres of the forgetful map to the classifying object."""
    T = w_total(C)
    B = wbar(C)
    q = w_quotient_map(C)
    check = Check("level cells act freely on the total object", True,
                  params={"trunc": C.trunc})
    for n in range(C.trunc + 1):
        stabilized = []
        for x in T.level(n):
            for b, g in w_action_cells(C, n, x):
                y = w_action(C, n, g, x)
                if not T.has(n, y):
                    stabilized.append(("escapes level", n, x, g))
                elif y == x and g != C.identity_at(x[0][0], n):
                    stabilized.append((n, x, g))
        check.add(require(not stabilized, f"free at level {n}",
                          witness=stabilized[:2]))

        orbits = {}
        for x in T.level(n):
            reach = sorted(
                (w_action(C, n, g, x) for _, g in w_action_cells(C, n, x)),
                key=idkey,
            )
            orbits[x] = tuple(reach)
        fibre_of = {x: q(n, x) for x in T.level(n)}
        same = all(
            (orbits[x] == orbits[y]) == (fibre_of[x] == fibre_of[y])
            for x, y in itertools.combinations(T.level(n), 2)
        )
        onto = B.size(n) == len({fibre_of[x] for x in T.level(n)})
        check.add(require(same and onto,
                          f"orbits match forgetful fibres at level {n}",
                          witness={"onto": onto}))
    return check
