"""Truncated simplicial sets with explicit face/degeneracy tables.

A ``TruncSSet`` stores every simplex up to a truncation dimension N,
including all degenerate ones, together with total face and degeneracy
tables.  Simplex ids are arbitrary hashable values (tuples, strings,
ints); levels keep a deterministic order so searches are reproducible.

All structures are treated as immutable once built and validated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .ordinal import OrdinalMap, decompose

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

    def level_counts(self):
        return tuple(self.size(n) for n in range(self.trunc + 1))

    def face(self, n, i, x):
        return self.faces[(n, i)][x]

    def degen(self, n, j, x):
        return self.degeneracies[(n, j)][x]

    def has(self, n, x):
        return x in self.faces.get((n, 0), {}) if n >= 1 else x in set(self.level(0))

    def apply(self, theta: OrdinalMap, x):
        """Contravariant action: x an n-simplex, theta: [m] -> [n]; m-simplex out."""
        cur = x
        for kind, dim, idx in decompose(theta):
            cur = self.face(dim, idx, cur) if kind == "d" else self.degen(dim, idx, cur)
        return cur

    def vertex(self, n, i, x):
        """The i-th vertex of an n-simplex."""
        return self.apply(OrdinalMap(0, n, (i,)), x)

    def is_degenerate(self, n, x):
        if n == 0:
            return False
        return any(
            self.degen(n - 1, j, y) == x
            for j in range(n)
            for y in self.level(n - 1)
        )

    def nondegenerate(self, n):
        return tuple(x for x in self.level(n) if not self.is_degenerate(n, x))

    def face_tuple(self, n, x):
        return tuple(self.face(n, i, x) for i in range(n + 1))


def _sorted_ids(ids):
    return tuple(sorted(set(ids), key=idkey))


def build_sset(trunc, levels, face, degen):
    """Materialize a TruncSSet from callables.

    levels: dim -> iterable of ids; face(n, i, x); degen(n, j, x).
    """
    simplices = {n: _sorted_ids(levels(n)) for n in range(trunc + 1)}
    faces = {
        (n, i): {x: face(n, i, x) for x in simplices[n]}
        for n in range(1, trunc + 1)
        for i in range(n + 1)
    }
    degeneracies = {
        (n, j): {x: degen(n, j, x) for x in simplices[n]}
        for n in range(trunc)
        for j in range(n + 1)
    }
    return TruncSSet(trunc, simplices, faces, degeneracies)


def validate_sset(X: TruncSSet):
    """Check table totality and the simplicial identities.

    Returns (ok, problems) where problems is a list of human-readable
    witness strings; empty iff ok.
    """
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
                bad = [x for x in level if tab[x] not in set(X.level(n - 1))]
                if bad:
                    problems.append(f"d_{i} at dim {n} leaves the complex at {bad[0]!r}")
        if n < N:
            for j in range(n + 1):
                tab = X.degeneracies.get((n, j))
                if tab is None or set(tab) != level:
                    problems.append(f"degeneracy table s_{j} at dim {n} not total")
                    continue
                bad = [x for x in level if tab[x] not in set(X.level(n + 1))]
                if bad:
                    problems.append(f"s_{j} at dim {n} leaves the complex at {bad[0]!r}")
    if problems:
        return False, problems

    for n in range(2, N + 1):
        for i, j in itertools.combinations(range(n + 1), 2):  # i < j
            for x in X.level(n):
                if X.face(n - 1, i, X.face(n, j, x)) != X.face(n - 1, j - 1, X.face(n, i, x)):
                    problems.append(
                        f"d_{i} d_{j} != d_{j-1} d_{i} at dim {n} on {x!r}"
                    )
    for n in range(N):
        for j in range(n + 1):
            for i in range(n + 2):
                for x in X.level(n):
                    got = X.face(n + 1, i, X.degen(n, j, x))
                    if i < j:
                        want = X.degen(n - 1, j - 1, X.face(n, i, x))
                    elif i in (j, j + 1):
                        want = x
                    else:
                        want = X.degen(n - 1, j, X.face(n, i - 1, x))
                    if got != want:
                        problems.append(f"d_{i} s_{j} identity fails at dim {n} on {x!r}")
    for n in range(N - 1):
        for i in range(n + 1):
            for j in range(i, n + 1):
                for x in X.level(n):
                    if X.degen(n + 1, i, X.degen(n, j, x)) != X.degen(
                        n + 1, j + 1, X.degen(n, i, x)
                    ):
                        problems.append(f"s_{i} s_{j} identity fails at dim {n} on {x!r}")
    return not problems, problems


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
        assert len(simplices[n]) == X.size(n), f"relabel collision at dim {n}"
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
    """Levelwise product; ids are pairs."""
    assert X.trunc == Y.trunc

    def levels(n):
        return itertools.product(X.level(n), Y.level(n))

    def face(n, i, p):
        return (X.face(n, i, p[0]), Y.face(n, i, p[1]))

    def degen(n, j, p):
        return (X.degen(n, j, p[0]), Y.degen(n, j, p[1]))

    return build_sset(X.trunc, levels, face, degen)


def disjoint_union(pieces):
    """Tagged disjoint union of a dict tag -> TruncSSet (same truncation)."""
    pieces = dict(pieces)
    truncs = {X.trunc for X in pieces.values()}
    assert len(truncs) == 1
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


def collapse_to_point(X: TruncSSet, inside, point="*"):
    """Collapse the subcomplex selected by inside(dim, id) to a single point.

    The selection must be a nonempty full subcomplex.
    """

    def name(n, x):
        return point if inside(n, x) else x

    def levels(n):
        seen = [name(n, x) for x in X.level(n)]
        return seen

    def face(n, i, x):
        if x == point:
            return point
        return name(n - 1, X.face(n, i, x))

    def degen(n, j, x):
        if x == point:
            return point
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

    Returns a dict vertex -> canonical representative.
    """
    parent = {v: v for v in X.level(0)}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            if idkey(rb) < idkey(ra):
                ra, rb = rb, ra
            parent[rb] = ra

    for e in X.level(1):
        union(X.face(1, 0, e), X.face(1, 1, e))
    return {v: find(v) for v in X.level(0)}


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


def validate_sset_map(f: SSetMap):
    X, Y = f.source, f.target
    problems = []
    for n in range(X.trunc + 1):
        tab = f.levels.get(n, {})
        for x in X.level(n):
            if x not in tab:
                problems.append(f"no value at dim {n} for {x!r}")
            elif not (tab[x] in set(Y.level(n))):
                problems.append(f"value at dim {n} for {x!r} not in target")
    if problems:
        return False, problems
    for n in range(1, X.trunc + 1):
        for i in range(n + 1):
            for x in X.level(n):
                if f(n - 1, X.face(n, i, x)) != Y.face(n, i, f(n, x)):
                    problems.append(f"does not commute with d_{i} at dim {n} on {x!r}")
    for n in range(X.trunc):
        for j in range(n + 1):
            for x in X.level(n):
                if f(n + 1, X.degen(n, j, x)) != Y.degen(n, j, f(n, x)):
                    problems.append(f"does not commute with s_{j} at dim {n} on {x!r}")
    return not problems, problems


def sset_map(X, Y, assign):
    """Build an SSetMap from a callable assign(dim, id)."""
    return SSetMap(X, Y, {n: {x: assign(n, x) for x in X.level(n)} for n in range(X.trunc + 1)})


def identity_map(X):
    return sset_map(X, X, lambda n, x: x)


def is_bijective(f: SSetMap):
    return all(
        len(set(f.levels[n].values())) == len(f.levels[n]) == f.target.size(n)
        for n in range(f.source.trunc + 1)
    )
