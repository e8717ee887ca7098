"""Classifying simplicial sets for enriched groupoids.

An n-simplex of the classifying object of an enriched groupoid C is a
cocycle: objects x_0, ..., x_n together with connecting cells
a_k in hom(x_k, x_{k-1}) of simplicial degree n - k.  Its faces and
degeneracies are the textbook ones (May, *Simplicial Objects in
Algebraic Topology*, 1967, section 21), stated on the string of cells
with ``ordinal.string_face`` and ``ordinal.string_degeneracy``:

- d_i pushes each a_k with k < i down by the face d_{i-k} of its hom,
  then drops a_1 (i = 0) or a_n (i = n), or puts d_0 a_i after a_{i+1}
  in place of the two; x_i drops out.
- s_j pushes each a_k with k <= j up by the degeneracy s_{j-k}, then
  inserts the identity of x_j at degree n - j as cell j + 1; x_j
  repeats.

The total object pairs every cocycle with one extra leading cell; its
zeroth face forgets that cell, and level n cells act freely on it by
composing into the leading position.
"""

from __future__ import annotations

import itertools

from .ordinal import string_degeneracy, string_face, strings
from .report import Check, invariant, require
from .sgroupoid import SgdFunctor, SimpGroupoid, db_sgroupoid, string_steps
from .sset import SSetMap, TruncSSet, build_sset, idkey, sset_map, truncated


def wbar(C: SimpGroupoid, trunc=None) -> TruncSSet:
    """The classifying simplicial set of cocycles.

    Cells of degree n - i never exceed C.trunc for n <= C.trunc + 1, so
    one extra dimension is available on request.
    """
    N = C.trunc if trunc is None else trunc
    invariant(N <= C.trunc + 1, "cocycles only reach one dimension above the enrichment")

    def levels(n):
        def steps(k, x):
            return [(a, y) for y in C.objects for a in C.homs[(y, x)].level(n - k - 1)]

        return strings(C.objects, steps, n)

    # a_k points from x_k back to x_{k-1}, so the composite of a string
    # face reads its three objects in reverse
    def face(n, i, x):
        objs, cells = x
        cells = tuple(
            C.homs[(objs[k], objs[k - 1])].face(n - k, i - k, a) if k < i else a
            for k, a in enumerate(cells, start=1)
        )
        _, cells = string_face(
            objs, cells, i,
            lambda a, b, c, g, f: C.compose(
                c, b, a, n - i - 1, C.homs[(b, a)].face(n - i, 0, f), g
            ),
        )
        return objs[:i] + objs[i + 1:], cells

    def degen(n, j, x):
        objs, cells = x
        cells = tuple(
            C.homs[(objs[k], objs[k - 1])].degen(n - k, j - k, a) if k <= j else a
            for k, a in enumerate(cells, start=1)
        )
        _, cells = string_degeneracy(objs, cells, j, lambda a: C.identity_at(a, n - j))
        return objs[:j + 1] + objs[j:], cells

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


def _shift(W: TruncSSet) -> TruncSSet:
    """W one level down: level n is W's level n + 1, with faces d_{i+1}
    and degeneracies s_{j+1}."""
    return build_sset(
        W.trunc - 1,
        lambda n: W.level(n + 1),
        lambda n, i, x: W.face(n + 1, i + 1, x),
        lambda n, j, x: W.degen(n + 1, j + 1, x),
    )


def w_total(C: SimpGroupoid) -> TruncSSet:
    """Shift of the classifying object: level n is its level n + 1."""
    return _shift(wbar(C, C.trunc + 1))


def w_quotient_map(C: SimpGroupoid) -> SSetMap:
    """Forgetting the leading cell of the total object, a level map.

    The total object and the classifying object are both read off one
    classifying object built a level higher."""
    W = wbar(C, C.trunc + 1)
    return sset_map(_shift(W), truncated(W, C.trunc), lambda n, x: W.face(n + 1, 0, x))


def w_action(C: SimpGroupoid, n, g, x):
    """Left action of a level n cell g on a total-object n-simplex.

    x has objects (x_0, ..., x_{n+1}) and leading cell a_1: x_1 -> x_0 of
    degree n; g must start at x_0 and composes into the leading slot.
    """
    objs, arrows = x
    src = objs[0]
    dst = C.target(src, n, g)
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
    q = w_quotient_map(C)
    T, B = q.source, q.target
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
