"""Truncated simplicial sets with explicit face/degeneracy tables.

A ``TruncSSet`` stores every simplex up to a truncation dimension N,
including all degenerate ones, together with total face and degeneracy
tables.  Simplex ids are arbitrary hashable values (tuples, strings,
ints); levels keep a deterministic order so searches are reproducible.
``build_sset`` sorts each level by ``idkey``; a product keeps its
factors' order, which is ``idkey`` order again, so it sorts nothing.

By the Eilenberg-Zilber lemma each simplex is a degeneracy of exactly
one nondegenerate root, so a simplicial map is fixed by its values on
the roots.  ``TruncSSet.origins`` works that decomposition out once per
set.  ``sset_map_from_roots`` is the one fill from root values to whole
tables: the map searches and ``sset_map`` go through it, so a closure
given to ``sset_map`` is called on the roots only and need only be
right there.

All structures are treated as immutable once built and validated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .report import InvariantError, invariant, validator
from .search import Partition

DEFAULT_TRUNC = 4


def idkey(x):
    """Deterministic sort key for heterogeneous simplex ids."""
    if isinstance(x, tuple):
        return (2, tuple(idkey(v) for v in x))
    if isinstance(x, bool):
        return (1, (0, str(int(x))))
    if isinstance(x, int):
        return (0, (0, "%020d" % x if x >= 0 else "-%019d" % -x))
    if isinstance(x, frozenset):
        return (3, tuple(sorted(idkey(v) for v in x)))
    return (1, (0, str(x)))


@dataclass
class TruncSSet:
    """Simplicial set truncated at dimension ``trunc``.

    simplices: dim -> tuple of simplex ids (all of them, degenerate included)
    faces: (dim, i) -> {id: id}, for 1 <= dim <= trunc, 0 <= i <= dim
    degeneracies: (dim, j) -> {id: id}, for 0 <= dim < trunc, 0 <= j <= dim
    """

    trunc: int
    simplices: dict
    faces: dict
    degeneracies: dict

    def __eq__(self, other):
        if not isinstance(other, TruncSSet):
            return NotImplemented
        return (
            self.trunc == other.trunc
            and {n: set(v) for n, v in self.simplices.items()}
            == {n: set(v) for n, v in other.simplices.items()}
            and self.faces == other.faces
            and self.degeneracies == other.degeneracies
        )

    def level(self, n):
        if n < 0 or n > self.trunc:
            return ()
        return self.simplices.get(n, ())

    def size(self, n):
        return len(self.level(n))

    def has(self, n, x):
        """Whether x is an n-simplex, read off a table keyed by the level."""
        if 1 <= n <= self.trunc:
            return x in self.faces[(n, 0)]
        if 0 <= n < self.trunc:
            return x in self.degeneracies[(n, 0)]
        return x in self.level(n)

    def level_counts(self):
        return tuple(self.size(n) for n in range(self.trunc + 1))

    def face(self, n, i, x):
        return self.faces[(n, i)][x]

    def degen(self, n, j, x):
        return self.degeneracies[(n, j)][x]

    def vertex(self, n, i, x):
        """The i-th vertex of an n-simplex: d_n, ..., d_{i+1} drop the
        vertices after it, then d_0 drops the i before it."""
        for k in range(n, i, -1):
            x = self.faces[(k, k)][x]
        for k in range(i, 0, -1):
            x = self.faces[(k, 0)][x]
        return x

    def nondegenerate(self, n):
        return self.origins(n)[0]

    def origins(self, n):
        """Where each n-simplex comes from: the nondegenerate ones in level
        order, then for each j ascending a triple (j, xs, ys), where xs are
        the simplices x = s_j y that no s_i with i < j reaches and ys their
        y, in level order."""
        return self._origins[n]

    @cached_property
    def _origins(self):
        # worked out once per set: a set never changes after it is built
        out = []
        for n in range(self.trunc + 1):
            reached, firsts = set(), []
            for j in range(n):
                table, xs, ys = self.degeneracies[(n - 1, j)], [], []
                for y in self.level(n - 1):
                    if table[y] not in reached:
                        reached.add(table[y])
                        xs.append(table[y])
                        ys.append(y)
                firsts.append((j, tuple(xs), tuple(ys)))
            out.append((tuple(x for x in self.level(n) if x not in reached), tuple(firsts)))
        return tuple(out)


def _sorted_ids(ids):
    """The distinct ids in ``idkey`` order; each distinct sub-object is
    keyed once per call.

    The memo is keyed by object identity, which the set being sorted
    keeps alive; equality would merge ``(True,)`` with ``(1,)``, which
    ``idkey`` orders apart.
    """
    memo = {}

    def key(x):
        k = memo.get(id(x))
        if k is None:
            k = memo[id(x)] = (2, tuple(map(key, x))) if isinstance(x, tuple) else idkey(x)
        return k

    return tuple(sorted(set(ids), key=key))


def build_sset(trunc, levels, face, degen):
    """Materialize a TruncSSet from callables.

    levels: dim -> iterable of ids; face(n, i, x); degen(n, j, x).
    """
    simplices = {n: _sorted_ids(levels(n)) for n in range(trunc + 1)}
    return _tabulated(trunc, simplices,
                      lambda n, i: {x: face(n, i, x) for x in simplices[n]},
                      lambda n, j: {x: degen(n, j, x) for x in simplices[n]})


def _tabulated(trunc, simplices, face, degen):
    """The TruncSSet on levels already in order, with tables face(n, i) and degen(n, j)."""
    faces = {(n, i): face(n, i) for n in range(1, trunc + 1) for i in range(n + 1)}
    degeneracies = {(n, j): degen(n, j) for n in range(trunc) for j in range(n + 1)}
    return TruncSSet(trunc, simplices, faces, degeneracies)


def truncated(X: TruncSSet, N) -> TruncSSet:
    """X cut at truncation N <= X.trunc."""
    return build_sset(N, X.level, X.face, X.degen)


@validator("input is a simplicial set")
def validate_sset(X: TruncSSet):
    """Check table totality and the simplicial identities."""
    problems = []
    N = X.trunc
    for n in range(N + 1):
        level = set(X.level(n))
        if len(level) != len(X.level(n)):
            problems.append(f"duplicate ids at dim {n}")
        if n >= 1:
            for i in range(n + 1):
                tab = X.faces.get((n, i))
                if tab is None or set(tab) != level:
                    problems.append(f"face table d_{i} at dim {n} not total")
                    continue
                below = set(X.level(n - 1))
                bad = [x for x in level if tab[x] not in below]
                if bad:
                    problems.append(f"d_{i} at dim {n} leaves the complex at {bad[0]!r}")
        if n < N:
            for j in range(n + 1):
                tab = X.degeneracies.get((n, j))
                if tab is None or set(tab) != level:
                    problems.append(f"degeneracy table s_{j} at dim {n} not total")
                    continue
                above = set(X.level(n + 1))
                bad = [x for x in level if tab[x] not in above]
                if bad:
                    problems.append(f"s_{j} at dim {n} leaves the complex at {bad[0]!r}")
    if problems:
        return problems

    d, s = X.faces, X.degeneracies
    for n in range(2, N + 1):
        for i, j in itertools.combinations(range(n + 1), 2):  # i < j
            di_below, dj1_below = d[(n - 1, i)], d[(n - 1, j - 1)]
            dj, di = d[(n, j)], d[(n, i)]
            for x in X.level(n):
                if di_below[dj[x]] != dj1_below[di[x]]:
                    problems.append(
                        f"d_{i} d_{j} != d_{j-1} d_{i} at dim {n} on {x!r}"
                    )
    for n in range(N):
        for j in range(n + 1):
            sj = s[(n, j)]
            for i in range(n + 2):
                di = d[(n + 1, i)]
                if i < j:
                    down, up = d[(n, i)], s[(n - 1, j - 1)]
                elif i > j + 1:
                    down, up = d[(n, i - 1)], s[(n - 1, j)]
                for x in X.level(n):
                    got = di[sj[x]]
                    want = x if i in (j, j + 1) else up[down[x]]
                    if got != want:
                        problems.append(f"d_{i} s_{j} identity fails at dim {n} on {x!r}")
    for n in range(N - 1):
        for i in range(n + 1):
            for j in range(i, n + 1):
                si_above, sj1_above = s[(n + 1, i)], s[(n + 1, j + 1)]
                sj, si = s[(n, j)], s[(n, i)]
                for x in X.level(n):
                    if si_above[sj[x]] != sj1_above[si[x]]:
                        problems.append(f"s_{i} s_{j} identity fails at dim {n} on {x!r}")
    return problems


# ---------------------------------------------------------------------------
# Standard complexes.


def delta(n, trunc=DEFAULT_TRUNC):
    """The standard n-simplex: k-simplices are monotone tuples in [n]."""

    def levels(k):
        return itertools.combinations_with_replacement(range(n + 1), k + 1)

    def face(k, i, x):
        return x[:i] + x[i + 1 :]

    def degen(k, j, x):
        return x[: j + 1] + x[j:]

    return build_sset(trunc, levels, face, degen)


def subcomplex(X: TruncSSet, keep):
    """The full substructure on the ids selected by keep(dim, id).

    The selection must be closed under faces and degeneracies; validate
    afterwards if unsure.
    """
    simplices = {n: tuple(x for x in X.level(n) if keep(n, x)) for n in range(X.trunc + 1)}
    faces = {
        k: {x: v for x, v in tab.items() if keep(k[0], x)} for k, tab in X.faces.items()
    }
    degeneracies = {
        k: {x: v for x, v in tab.items() if keep(k[0], x)}
        for k, tab in X.degeneracies.items()
    }
    return TruncSSet(X.trunc, simplices, faces, degeneracies)


def boundary(n, trunc=DEFAULT_TRUNC):
    """The boundary of the standard n-simplex."""
    D = delta(n, trunc)
    return subcomplex(D, lambda k, x: set(x) != set(range(n + 1)))


def horn(n, k, trunc=DEFAULT_TRUNC):
    """The horn missing the k-th face: simplices whose image omits some i != k."""
    D = delta(n, trunc)
    full = set(range(n + 1))
    return subcomplex(D, lambda m, x: not (full - set(x) <= {k}))


def relabel(X: TruncSSet, rename):
    """Rename ids by rename(dim, id); must be injective per level."""
    simplices = {n: _sorted_ids(rename(n, x) for x in X.level(n)) for n in range(X.trunc + 1)}
    for n in range(X.trunc + 1):
        if len(simplices[n]) != X.size(n):
            raise InvariantError(f"relabel collision at dim {n}")
    faces = {
        (n, i): {rename(n, x): rename(n - 1, v) for x, v in tab.items()}
        for (n, i), tab in X.faces.items()
    }
    degeneracies = {
        (n, j): {rename(n, x): rename(n + 1, v) for x, v in tab.items()}
        for (n, j), tab in X.degeneracies.items()
    }
    return TruncSSet(X.trunc, simplices, faces, degeneracies)


def sset_product(X: TruncSSet, Y: TruncSSet):
    """Levelwise product; ids are pairs, listed first factor first in the
    factors' level orders: ``idkey`` order when the factors are in it."""
    invariant(X.trunc == Y.trunc, "factors have different truncations")
    simplices = {n: tuple(itertools.product(X.level(n), Y.level(n))) for n in range(X.trunc + 1)}

    # a level lists its pairs as the product of the factors' levels, so the
    # values of d_i on it are the product of the factors' d_i values
    def pairs(x_tables, y_tables):
        def table(n, i):
            x_values = map(x_tables[(n, i)].__getitem__, X.level(n))
            y_values = map(y_tables[(n, i)].__getitem__, Y.level(n))
            return dict(zip(simplices[n], itertools.product(x_values, y_values)))

        return table

    return _tabulated(
        X.trunc, simplices, pairs(X.faces, Y.faces), pairs(X.degeneracies, Y.degeneracies)
    )


def disjoint_union(pieces):
    """Tagged disjoint union of a dict tag -> TruncSSet (same truncation)."""
    pieces = dict(pieces)
    truncs = {X.trunc for X in pieces.values()}
    invariant(len(truncs) == 1, "pieces have different truncations")
    (N,) = truncs

    def levels(n):
        return ((tag, x) for tag, X in pieces.items() for x in X.level(n))

    def face(n, i, tx):
        tag, x = tx
        return (tag, pieces[tag].face(n, i, x))

    def degen(n, j, tx):
        tag, x = tx
        return (tag, pieces[tag].degen(n, j, x))

    return build_sset(N, levels, face, degen)


def collapse_to_point(X: TruncSSet, inside):
    """Collapse the subcomplex selected by inside(dim, id) to the point "*".

    The selection must be a nonempty full subcomplex.
    """

    def name(n, x):
        return "*" if inside(n, x) else x

    def levels(n):
        return [name(n, x) for x in X.level(n)]

    def face(n, i, x):
        if x == "*":
            return "*"
        return name(n - 1, X.face(n, i, x))

    def degen(n, j, x):
        if x == "*":
            return "*"
        return name(n + 1, X.degen(n, j, x))

    return build_sset(X.trunc, levels, face, degen)


def circle(trunc=DEFAULT_TRUNC):
    """The 1-sphere: standard 1-simplex with both endpoints identified."""
    D = delta(1, trunc)
    return collapse_to_point(D, lambda n, x: len(set(x)) == 1)


def point(trunc=DEFAULT_TRUNC):
    return delta(0, trunc)


def pi0(X: TruncSSet):
    """Components of the vertex set under the edge relation.

    Returns a dict vertex -> canonical representative, the least vertex
    of its component by ``idkey``.
    """
    components = Partition(X.level(0))
    for e in X.level(1):
        components.join(X.face(1, 0, e), X.face(1, 1, e))
    least = {}
    for c in components.classes():
        least.update(dict.fromkeys(c, min(c, key=idkey)))
    return {v: least[v] for v in X.level(0)}


def pi0_classes(X: TruncSSet):
    rep = pi0(X)
    return sorted({r for r in rep.values()}, key=idkey)


# ---------------------------------------------------------------------------
# Simplicial maps.


@dataclass
class SSetMap:
    """A simplicial map, stored levelwise; levels: dim -> {id: id}."""

    source: TruncSSet
    target: TruncSSet
    levels: dict = field(default_factory=dict)

    def __call__(self, n, x):
        return self.levels[n][x]

    def __eq__(self, other):
        if not isinstance(other, SSetMap):
            return NotImplemented
        return self.levels == other.levels


@validator("input is a simplicial map")
def validate_sset_map(f: SSetMap):
    X, Y = f.source, f.target
    problems = []
    for n in range(X.trunc + 1):
        tab, target = f.levels.get(n, {}), set(Y.level(n))
        for x in X.level(n):
            if x not in tab:
                problems.append(f"no value at dim {n} for {x!r}")
            elif tab[x] not in target:
                problems.append(f"value at dim {n} for {x!r} not in target")
        if len(tab) != X.size(n):
            stray = [x for x in tab if not X.has(n, x)]
            problems += [f"value at dim {n} for {x!r}, not a simplex" for x in stray]
    if problems:
        return problems
    for n in range(1, X.trunc + 1):
        below, here = f.levels.get(n - 1, {}), f.levels.get(n, {})
        for i in range(n + 1):
            x_face, y_face = X.faces[(n, i)], Y.faces[(n, i)]
            for x in X.level(n):
                if below[x_face[x]] != y_face[here[x]]:
                    problems.append(f"does not commute with d_{i} at dim {n} on {x!r}")
    for n in range(X.trunc):
        here, above = f.levels.get(n, {}), f.levels.get(n + 1, {})
        for j in range(n + 1):
            x_degen, y_degen = X.degeneracies[(n, j)], Y.degeneracies[(n, j)]
            for x in X.level(n):
                if above[x_degen[x]] != y_degen[here[x]]:
                    problems.append(f"does not commute with s_{j} at dim {n} on {x!r}")
    return problems


def sset_map_from_roots(X, Y, values):
    """The SSetMap taking X's roots, level by level in ``X.origins`` order,
    to the successive ``values``, and each other x = s_j y to Y's s_j of
    its value at y.  A root value outside Y sends the simplices over it
    to None, so ``validate_sset_map`` names the root first."""
    invariant(X.trunc == Y.trunc, "a simplicial map needs equal truncations")
    levels, below, values = {}, None, iter(values)
    for n in range(X.trunc + 1):
        here = levels[n] = dict.fromkeys(X.level(n))
        roots, firsts = X.origins(n)
        # zip takes one value per root
        here.update(zip(roots, values))
        for j, xs, ys in firsts:
            image = Y.degeneracies[(n - 1, j)]
            here.update(zip(xs, map(image.get, map(below.__getitem__, ys))))
        below = here
    return SSetMap(X, Y, levels)


def sset_map(X, Y, assign):
    """Build an SSetMap from a callable assign(dim, id), called on X's
    roots only, so it need only be right there."""
    return sset_map_from_roots(
        X, Y, (assign(n, x) for n in range(X.trunc + 1) for x in X.origins(n)[0])
    )


def identity_map(X):
    return sset_map(X, X, lambda n, x: x)


def is_bijective(f: SSetMap):
    return all(
        len(set(f.levels[n].values())) == len(f.levels[n]) == f.target.size(n)
        for n in range(f.source.trunc + 1)
    )
