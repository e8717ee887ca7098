"""Homotopy colimits of enriched set-valued diagrams.

A diagram assigns a truncated simplicial set to every object of an
enriched groupoid and a levelwise action to every hom cell.  Its total
object is a bisimplicial set whose horizontal strings pair a value
simplex with composable hom cells; the homotopy colimit is the diagonal.
The zeroth horizontal face pushes the value simplex along the first
cell, so the projection to the diagonal nerve forgets exactly the value
coordinate and its fibres recover the values on the nose.

The comma construction for an enriched functor is itself a translation
object: over a target object, take the functor that assigns to each
source object the cells into the target and lets source cells act by
precomposition with inverses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .bisset import BisSSet, build_bisset, diagonal
from .groupoid import FinGroupoid
from .kan import fibration_check, iterated_degeneracy, weq_check
from .ordinal import OrdinalMap, coface, codegeneracy
from .report import Check, invariant, require, validator
from .sgroupoid import (
    SgdFunctor,
    SimpGroupoid,
    _nerve_level_theta,
    b_2groupoid,
    db_sgroupoid,
    nerve_bidegrees,
    string_steps,
)
from .sset import (
    SSetMap,
    TruncSSet,
    build_sset,
    point,
    relabel,
    sset_map,
    sset_product,
    subcomplex,
    validate_sset,
    validate_sset_map,
)
from .wbar import wbar


@dataclass
class SimplicialFunctor:
    """Levelwise action tables over an enriched groupoid.

    values: object -> TruncSSet (same truncation as the source)
    action: (a, b) -> {level: {(hom cell, value simplex): value simplex}}
    """

    source: SimpGroupoid
    values: dict
    action: dict

    def act(self, a, b, n, g, x):
        return self.action[(a, b)][n][(g, x)]


def simplicial_functor(C: SimpGroupoid, value, act) -> SimplicialFunctor:
    """Build from callables value(a) and act(a, b, n, g, x)."""
    values = {a: value(a) for a in C.objects}
    action = {
        (a, b): {
            n: {
                (g, x): act(a, b, n, g, x)
                for g in C.homs[(a, b)].level(n)
                for x in values[a].level(n)
            }
            for n in range(C.trunc + 1)
        }
        for a, b in itertools.product(C.objects, repeat=2)
    }
    return SimplicialFunctor(C, values, action)


@validator("diagram is a valid enriched functor")
def validate_simplicial_functor(X: SimplicialFunctor):
    """Each value is a simplicial set and each action table a simplicial
    map hom(a, b) x X(a) -> X(b), with identities acting trivially and
    composites acting in turn."""
    problems = []
    C = X.source
    N = C.trunc
    for a in C.objects:
        V = X.values.get(a)
        if V is None or V.trunc != N:
            problems.append(f"value at {a!r} missing or mistruncated")
            continue
        value = validate_sset(V)
        if not value:
            problems.append(f"value at {a!r}: {value.witness[0]}")
    if problems:
        return problems
    for a, b in itertools.product(C.objects, repeat=2):
        hom = C.homs[(a, b)]
        if hom.trunc != N:
            problems.append(f"hom({a!r},{b!r}) is truncated at {hom.trunc}, not {N}")
            continue
        product = sset_product(hom, X.values[a])
        action = validate_sset_map(SSetMap(product, X.values[b], X.action.get((a, b), {})))
        if not action:
            problems.append(f"action at {(a, b)}: {action.witness[0]}")
    if problems:
        return problems
    for a in C.objects:
        for n in range(N + 1):
            e = C.identity_at(a, n)
            for x in X.values[a].level(n):
                if X.act(a, a, n, e, x) != x:
                    problems.append(f"identity cell moves {x!r} at {a!r} level {n}")
    for a, b, c in itertools.product(C.objects, repeat=3):
        for n in range(N + 1):
            for g in C.homs[(b, c)].level(n):
                for f in C.homs[(a, b)].level(n):
                    gf = C.compose(a, b, c, n, g, f)
                    for x in X.values[a].level(n):
                        if X.act(a, c, n, gf, x) != X.act(b, c, n, g, X.act(a, b, n, f, x)):
                            problems.append(f"action breaks composition at {(a, b, c)} level {n}")
    return problems


def constant_functor(C: SimpGroupoid, V: TruncSSet) -> SimplicialFunctor:
    invariant(V.trunc == C.trunc, "value and source have different truncations")
    return simplicial_functor(C, lambda a: V, lambda a, b, n, g, x: x)


def point_functor(C: SimpGroupoid) -> SimplicialFunctor:
    return constant_functor(C, point(C.trunc))


def corepresented_functor(C: SimpGroupoid, a) -> SimplicialFunctor:
    """b maps to the cells a -> b, with hom cells acting by composition.

    For a one-object enriched group this is the group acting on itself.
    """
    return simplicial_functor(
        C,
        lambda b: C.homs[(a, b)],
        lambda b, c, n, g, x: C.compose(a, b, c, n, g, x),
    )


# ---------------------------------------------------------------------------
# The translation total object and its diagonal.  translation_total
# materialises every bidegree, for validate_bisset; holim builds only the
# diagonal, from the same bidegree functions.


def translation_theta(X: SimplicialFunctor, theta: OrdinalMap, q, simplex):
    """Horizontal ordinal action on (base object, value simplex, cell string).

    The value rides at position 0; when theta moves position 0 forward the
    composite of the skipped cells acts on it.
    """
    C = X.source
    a0, x, fs = simplex
    objs = [a0] + [b for _, b, _ in string_steps(C, a0, fs, q)]
    k = theta(0)
    if k == 0:
        new_x = x
    else:
        g = C.compose_path(objs[: k + 1], q, list(fs[:k]))
        new_x = X.act(a0, objs[k], q, g, x)
    _, new_fs = _nerve_level_theta(C, theta, q, (a0, fs))
    return (objs[k], new_x, new_fs)


def translation_bidegrees(X: SimplicialFunctor):
    """The build_bisset arguments of the translation total object: at
    bidegree (p, q), a level-q value simplex at the head of a nerve string
    of p composable q-cells; vertical maps act on both."""
    N, strings, _, nerve_vface, _, nerve_vdeg = nerve_bidegrees(X.source)

    def levels(p, q):
        return [(a0, x, fs) for a0, fs in strings(p, q) for x in X.values[a0].level(q)]

    def hface(p, q, i, s):
        return translation_theta(X, coface(p, i), q, s)

    def hdeg(p, q, j, s):
        return translation_theta(X, codegeneracy(p, j), q, s)

    def vface(p, q, i, s):
        a0, x, fs = s
        return (a0, X.values[a0].face(q, i, x), nerve_vface(p, q, i, (a0, fs))[1])

    def vdeg(p, q, j, s):
        a0, x, fs = s
        return (a0, X.values[a0].degen(q, j, x), nerve_vdeg(p, q, j, (a0, fs))[1])

    return N, levels, hface, vface, hdeg, vdeg


def translation_total(X: SimplicialFunctor) -> BisSSet:
    return build_bisset(*translation_bidegrees(X))


def holim(X: SimplicialFunctor) -> TruncSSet:
    return diagonal(*translation_bidegrees(X))


def holim_projection(X: SimplicialFunctor) -> SSetMap:
    """Forget the value coordinate; lands in the diagonal nerve.

    The one place the carrier holim(X) meets db_sgroupoid(X.source):
    callers that need both read them off as the source and the target.
    """
    return sset_map(holim(X), db_sgroupoid(X.source), lambda n, s: (s[0], s[2]))


# ---------------------------------------------------------------------------
# Set-valued translation groupoids: the one-level classical construction.
# torsors.action_to_bundle builds the groupoid-bundle total object from
# it, and holim_2gpd, which does not use it, is checked against it.


def translation_groupoid(G: FinGroupoid, values, act) -> FinGroupoid:
    """Objects are pairs (object, element); arrows follow the action.

    values: object -> iterable; act(f, x) pushes x forward along f.
    """
    from .sset import idkey

    objects = tuple(
        sorted(((a, x) for a in G.objects for x in values[a]), key=idkey)
    )
    morphisms = {}
    for f, (a, b) in G.morphisms.items():
        for x in values[a]:
            morphisms[(f, x)] = ((a, x), (b, act(f, x)))
    comp = {}
    for (g, y), (yb, yc) in morphisms.items():
        for (f, x), (xa, xb) in morphisms.items():
            if xb == yb:
                comp[((g, y), (f, x))] = (G.comp[(g, f)], x)
    identities = {(a, x): (G.identities[a], x) for a, x in objects}
    inverses = {
        (f, x): (G.inverses[f], act(f, x)) for (f, x) in morphisms
    }
    return FinGroupoid(objects, morphisms, comp, identities, inverses)


# ---------------------------------------------------------------------------
# Comma constructions.


def comma_fibre_functor(F: SgdFunctor, a) -> SimplicialFunctor:
    """The diagram on F's source whose translation object is the comma
    construction over a: values are the cells into a, and a source cell
    acts by precomposing with the inverse of its image."""
    U, H = F.source, F.target

    def act(b, c, n, u, g):
        fu = F.on_hom(b, c, n, u)
        inv = H.inverse(F.ob[b], F.ob[c], n, fu)
        return H.compose(F.ob[c], F.ob[b], a, n, g, inv)

    return simplicial_functor(U, lambda b: H.homs[(F.ob[b], a)], act)


def comma_db(F: SgdFunctor, a) -> TruncSSet:
    """Diagonal of the comma construction over a.

    n-simplices are (source object, cell of hom(image, a) at level n,
    string of n source cells at level n).
    """
    return holim(comma_fibre_functor(F, a))


def comma_construction_functor(F: SgdFunctor) -> SimplicialFunctor:
    """The diagram on F's target sending a to the comma diagonal over a;
    target cells act by composing into the attached cell."""
    H = F.target

    def act(a, a2, n, h, s):
        b0, g0, us = s
        return (b0, H.compose(F.ob[b0], a, a2, n, h, g0), us)

    return simplicial_functor(H, lambda a: comma_db(F, a), act)


# ---------------------------------------------------------------------------
# Homotopy colimits over a 2-groupoid.  Simplices pair a value element
# with a classifying-object simplex; the element sits at the last vertex,
# the one whose outgoing connecting cell has simplicial degree zero, and
# only the last face transports it, along that single arrow.


def holim_2gpd(W: TruncSSet, values, act1):
    """W: the classifying object of a 2-groupoid, ``wbar(b_2groupoid(T,
    trunc))``; values: object -> tuple of elements; act1(arrow, x) the
    1-cell action.

    Returns (Y, projection) with the projection landing in W.
    """

    def levels(n):
        return [
            (x, sigma)
            for sigma in W.level(n)
            for x in values[sigma[0][n]]
        ]

    def face(n, i, s):
        x, sigma = s
        new_sigma = W.face(n, i, sigma)
        if i == n:
            arrow = sigma[1][n - 1][0]
            return (act1(arrow, x), new_sigma)
        return (x, new_sigma)

    def degen(n, j, s):
        x, sigma = s
        return (x, W.degen(n, j, sigma))

    Y = build_sset(W.trunc, levels, face, degen)
    proj = sset_map(Y, W, lambda n, s: s[1])
    return Y, proj


def holim_2gpd_oracle_check(G: FinGroupoid, values, act1, trunc) -> Check:
    """For 1-groupoid input the two constructions agree on the nose.

    The identification relabels a simplex by transporting the element to
    the first vertex and reading the connecting arrows forward; it must
    be a simplicial bijection onto the nerve of the translation groupoid.
    """
    from .groupoid import groupoid_as_2groupoid, nerve_groupoid
    from .sset import is_bijective

    T = groupoid_as_2groupoid(G)
    Y, _ = holim_2gpd(wbar(b_2groupoid(T, trunc)), values, act1)
    E = translation_groupoid(G, values, act1)
    B = nerve_groupoid(E, trunc)

    def assign(n, s):
        x, (objs, arrows) = s
        # hom-nerve cells of a discrete-hom 2-groupoid are degenerate
        # strings on a single arrow
        cells = [arrows[i][0] for i in range(n)]
        xs = [None] * (n + 1)
        xs[n] = x
        for i in range(n, 0, -1):
            xs[i - 1] = act1(cells[i - 1], xs[i])
        ms = tuple(
            (G.inverses[cells[i]], xs[i]) for i in range(n)
        )
        return ((objs[0], xs[0]), ms)

    f = sset_map(Y, B, assign)
    check = replace(validate_sset_map(f), params={"trunc": trunc},
                    claim="translation nerve matches the classifying total object")
    check.add(require(is_bijective(f), "identification is a levelwise bijection"))
    return check


# ---------------------------------------------------------------------------
# Homotopy fibres of the projection.


def functor_transport_map(X: SimplicialFunctor, a, b, g) -> SSetMap:
    """The map of values induced by a vertex cell g: a -> b, levelwise via
    its degeneracies."""
    C = X.source
    hom = C.homs[(a, b)]

    def assign(n, x):
        return X.act(a, b, n, iterated_degeneracy(hom, g, n), x)

    return sset_map(X.values[a], X.values[b], assign)


def literal_fibre(p: SSetMap, a) -> TruncSSet:
    """Simplices of a homotopy colimit over the degenerate simplices at
    the vertex a, relabeled to bare value simplices.

    p is a projection holim_projection(X); the fibre is cut out of its
    source, and nothing is rebuilt.
    """
    B = p.target
    base = {
        n: iterated_degeneracy(B, (a, ()), n) for n in range(B.trunc + 1)
    }
    sub = subcomplex(p.source, lambda n, s: p(n, s) == base[n])
    return relabel(sub, lambda n, s: s[1])


def homotopy_fibre_check(X: SimplicialFunctor, maxdim=None) -> Check:
    """The projection lifts horns relative to the base, its fibre over
    every vertex is the assigned value on the nose, and every vertex cell
    transports values by a weak equivalence."""
    C = X.source
    N = C.trunc
    if maxdim is None:
        maxdim = N - 1
    check = Check(
        "homotopy fibres of the translation projection",
        True,
        params={"maxdim": maxdim, "trunc": N},
    )
    if not check.add(validate_simplicial_functor(X)):
        return check
    p = holim_projection(X)
    check.add(fibration_check(p, maxdim))
    for a in C.objects:
        fib = literal_fibre(p, a)
        check.add(
            require(
                fib == X.values[a],
                f"fibre over {a!r} equals the assigned value exactly",
                witness={"fibre_counts": fib.level_counts(),
                         "value_counts": X.values[a].level_counts()},
            )
        )
    for a, b in itertools.product(C.objects, repeat=2):
        for g in C.homs[(a, b)].level(0):
            rep = weq_check(functor_transport_map(X, a, b, g))
            check.add(
                require(
                    rep.ok,
                    f"vertex cell {g!r} transports values by a weak equivalence",
                    witness=(a, b, g),
                )
            )
    return check
