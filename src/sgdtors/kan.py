"""Horn filling, homotopy groups, and weak-equivalence checks.

Everything is exhaustive over the stored simplices.  Horn enumeration
walks compatible face tuples with backtracking; homotopy groups are
computed from explicit candidate sets and single-simplex homotopies,
closed transitively.  All claims are bounded by the truncation and say
so in the returned ``Check``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .report import Check, invariant, require
from .search import Partition, solve
from .sset import SSetMap, TruncSSet, idkey, pi0, pi0_classes, validate_sset_map


def horn_assignments(X: TruncSSet, n: int, k: int):
    """All compatible families (x_i)_{i != k} of (n-1)-simplices.

    Compatibility is the face matching d_i x_j = d_{j-1} x_i for i < j.
    Returns dicts index -> simplex id.
    """
    positions = [i for i in range(n + 1) if i != k]

    def matching(i, j):
        di, dj = X.faces[(n - 1, i)], X.faces[(n - 1, j - 1)]
        return lambda xi, xj: di[xj] == dj[xi]

    constraints = [
        ((a, b), matching(i, j))
        for b, j in enumerate(positions)
        for a, i in enumerate(positions[:b])
        if n >= 2
    ]
    return [
        dict(zip(positions, values))
        for values in solve([X.level(n - 1)] * len(positions), constraints)
    ]


def horn_fillers(X: TruncSSet, n: int, k: int, assignment):
    return [
        z
        for z in X.level(n)
        if all(X.face(n, i, z) == x for i, x in assignment.items())
    ]


def kan_check(X: TruncSSet, maxdim=None) -> Check:
    """Search a filler for every horn of dimension <= maxdim."""
    if maxdim is None:
        maxdim = X.trunc - 1
    invariant(1 <= maxdim <= X.trunc, "horns need fillers inside the truncation")
    check = Check("every horn has a filler", True, params={"maxdim": maxdim, "trunc": X.trunc})
    horns = 0
    for n in range(1, maxdim + 1):
        for k in range(n + 1):
            for assignment in horn_assignments(X, n, k):
                horns += 1
                if not horn_fillers(X, n, k, assignment):
                    check.ok = False
                    check.witness = ("horn", n, k, tuple(sorted(assignment.items())))
                    check.params["horns_checked"] = horns
                    return check
    check.params["horns_checked"] = horns
    return check


def fibration_check(p: SSetMap, maxdim=None) -> Check:
    """Search a lift for every horn in the source relative to the target.

    For each horn (x_i)_{i != k} upstairs and each n-simplex downstairs
    whose faces away from k match the images, some filler upstairs must
    have those faces and that image.
    """
    X, B = p.source, p.target
    if maxdim is None:
        maxdim = X.trunc - 1
    invariant(1 <= maxdim <= X.trunc, "horns need fillers inside the truncation")
    check = Check(
        "every horn lifts against the base",
        True,
        params={"maxdim": maxdim, "trunc": X.trunc},
    )
    horns = 0
    for n in range(1, maxdim + 1):
        for k in range(n + 1):
            for assignment in horn_assignments(X, n, k):
                images = {i: p(n - 1, x) for i, x in assignment.items()}
                for sigma in B.level(n):
                    if any(B.face(n, i, sigma) != y for i, y in images.items()):
                        continue
                    horns += 1
                    fillers = [
                        z
                        for z in horn_fillers(X, n, k, assignment)
                        if p(n, z) == sigma
                    ]
                    if not fillers:
                        check.ok = False
                        check.witness = (
                            "relative horn",
                            n,
                            k,
                            tuple(sorted(assignment.items())),
                            sigma,
                        )
                        check.params["horns_checked"] = horns
                        return check
    check.params["horns_checked"] = horns
    return check


# ---------------------------------------------------------------------------
# Homotopy groups.


@dataclass
class PiGroup:
    """pi_n at a base vertex: explicit classes and multiplication table."""

    n: int
    base: object
    classes: list          # list of frozensets of n-simplices
    cls_of: dict           # simplex -> index into classes
    mult: dict             # (index, index) -> index
    identity: int

    def order(self):
        return len(self.classes)

    def inverse(self, a):
        for b in range(len(self.classes)):
            if self.mult[(a, b)] == self.identity:
                return b
        raise ValueError("no inverse found")


def iterated_degeneracy(X: TruncSSet, v, n: int):
    """s_0^n of a vertex."""
    cur = v
    for d in range(n):
        cur = X.degen(d, 0, cur)
    return cur


class TruncationError(Exception):
    """A homotopy claim was requested beyond what the truncation supports."""


def pi_n(X: TruncSSet, v, n: int) -> PiGroup:
    """The n-th homotopy group at vertex v, from explicit tables.

    Requires n + 1 <= trunc; the caller is expected to have passed
    kan_check up to dimension n + 1.  Group axioms are verified from the
    computed table; a violation raises, it is never papered over.
    """
    if n + 1 > X.trunc:
        raise TruncationError(f"pi_{n} needs simplices in dimension {n + 1}")
    invariant(n >= 1, f"pi_{n} needs n >= 1")
    base_lo = iterated_degeneracy(X, v, n - 1)
    base = iterated_degeneracy(X, v, n)
    candidates = [
        x for x in X.level(n) if all(X.face(n, i, x) == base_lo for i in range(n + 1))
    ]
    # single-simplex homotopies, then transitive closure
    homotopic = Partition(candidates)
    cand_set = set(candidates)
    for w in X.level(n + 1):
        if all(X.face(n + 1, i, w) == base for i in range(n)):
            a, b = X.face(n + 1, n, w), X.face(n + 1, n + 1, w)
            if a in cand_set and b in cand_set:
                homotopic.join(a, b)

    classes = sorted(
        (frozenset(c) for c in homotopic.classes()), key=lambda c: min(map(idkey, c))
    )
    index = {x: i for i, c in enumerate(classes) for x in c}
    cls_of = {x: index[x] for x in candidates}

    # multiplication via horn fillers: faces (base,...,base, x, -, y)
    mult = {}
    for (a, ca), (b, cb) in itertools.product(enumerate(classes), repeat=2):
        results = set()
        for x, y in itertools.product(ca, cb):
            assignment = {i: base for i in range(n - 1)}
            assignment[n - 1] = x
            assignment[n + 1] = y
            for w in horn_fillers(X, n + 1, n, assignment):
                results.add(cls_of[X.face(n + 1, n, w)])
        if len(results) != 1:
            raise TruncationError(
                f"pi_{n} product of classes {a},{b} not single-valued: {sorted(results)}"
            )
        mult[(a, b)] = results.pop()

    identity = cls_of[base]
    pg = PiGroup(n, v, classes, cls_of, mult, identity)
    _check_group(pg)
    return pg


def _check_group(pg: PiGroup):
    k = len(pg.classes)
    for a in range(k):
        invariant(pg.mult[(a, pg.identity)] == a == pg.mult[(pg.identity, a)],
                  f"pi_{pg.n} identity fails at class {a}")
        pg.inverse(a)
    for a, b, c in itertools.product(range(k), repeat=3):
        invariant(pg.mult[(pg.mult[(a, b)], c)] == pg.mult[(a, pg.mult[(b, c)])],
                  f"pi_{pg.n} associativity fails at classes {a},{b},{c}")


def induced_pi_map(f: SSetMap, pg_x: PiGroup, pg_y: PiGroup):
    """Class map induced by f; checked single-valued and multiplicative."""
    n = pg_x.n
    out = {}
    for i, cls in enumerate(pg_x.classes):
        images = {pg_y.cls_of[f(n, x)] for x in cls}
        if len(images) != 1:
            raise TruncationError(f"induced map on pi_{n} not single-valued on class {i}")
        out[i] = images.pop()
    for a, b in itertools.product(range(len(pg_x.classes)), repeat=2):
        invariant(out[pg_x.mult[(a, b)]] == pg_y.mult[(out[a], out[b])],
                  f"induced map on pi_{n} not multiplicative at classes {a},{b}")
    return out


def weq_check(f: SSetMap) -> Check:
    """Bijective on components and isomorphic on pi_n up to degree
    trunc - 2, the largest degree the truncation supports honestly (pi_n
    consumes simplices of dimension n + 1 and the Kan precondition one
    more); the truncation must be at least 2.
    """
    X, Y = f.source, f.target
    invariant(X.trunc == Y.trunc, "a weak equivalence needs equal truncations")
    invariant(X.trunc >= 2, "weak-equivalence degree exceeds truncation support")
    maxdeg = X.trunc - 2
    check = Check(
        "weak equivalence", True, params={"maxdeg": maxdeg, "trunc": X.trunc}
    )
    if not check.add(validate_sset_map(f)):
        return check
    if maxdeg >= 1:
        check.add(kan_check(X, maxdeg + 1))
        check.add(kan_check(Y, maxdeg + 1))
        if not check.ok:
            return check

    px, py = pi0(X), pi0(Y)
    image = {}
    for v, r in px.items():
        image.setdefault(r, set()).add(py[f(0, v)])
    single = all(len(s) == 1 for s in image.values())
    check.add(require(single, "pi_0 map single-valued", witness=image))
    if not single:
        return check
    cls_map = {r: next(iter(s)) for r, s in image.items()}
    inj = len(set(cls_map.values())) == len(cls_map)
    surj = set(cls_map.values()) == set(pi0_classes(Y))
    check.add(
        require(
            inj and surj,
            "bijective on components",
            witness={"source": len(cls_map), "target": len(pi0_classes(Y))},
        )
    )
    if not check.ok:
        return check

    for v in X.level(0):
        for n in range(1, maxdeg + 1):
            try:
                pgx = pi_n(X, v, n)
                pgy = pi_n(Y, f(0, v), n)
                m = induced_pi_map(f, pgx, pgy)
            except TruncationError as e:
                check.add(Check(f"pi_{n} at {v!r}", False, witness=str(e)))
                return check
            bij = len(set(m.values())) == len(m) == pgy.order()
            check.add(
                require(
                    bij,
                    f"pi_{n} isomorphism at vertex {v!r}",
                    witness={"source_order": pgx.order(), "target_order": pgy.order()},
                )
            )
            if not bij:
                return check
    return check


# ---------------------------------------------------------------------------
# Exhaustive simplicial-map enumeration.


def enumerate_sset_maps(X: TruncSSet, Y: TruncSSet, forced=None):
    """All simplicial maps X -> Y, as SSetMaps.

    There is one slot per nondegenerate simplex, dimension by dimension,
    ranging over the simplices of Y with the faces already chosen;
    degenerate values follow.  ``forced`` is a dict (dim, id) -> id of
    required values, each a constraint on the slot its simplex
    degenerates from.
    """
    invariant(X.trunc == Y.trunc, "a simplicial map needs equal truncations")
    N = X.trunc
    slots, lift = [], {}   # (dim, id) -> (slot, degeneracies applied to its value)
    for n in range(N + 1):
        # x lifts through its first s_j y: j ascending, y in level order, not table order
        for j in range(n):
            table = X.degeneracies[(n - 1, j)]
            for y in X.level(n - 1):
                x = table[y]
                if (n, x) not in lift:
                    root, chain = lift[(n - 1, y)]
                    lift[(n, x)] = (root, chain + ((n - 1, j),))
        for x in X.level(n):
            if (n, x) not in lift:
                lift[(n, x)] = (len(slots), ())
                slots.append((n, x))
    by_faces = {n: {} for n in range(1, N + 1)}
    for n, index in by_faces.items():
        for z in Y.level(n):
            index.setdefault(Y.face_tuple(n, z), []).append(z)

    def lifted(z, chain):
        for m, j in chain:
            z = Y.degen(m, j, z)
        return z

    def value(chosen, n, x):
        root, chain = lift[(n, x)]
        return lifted(chosen[root], chain)

    def with_faces(n, x):
        faces = [X.face(n, i, x) for i in range(n + 1)]
        index = by_faces[n]
        return lambda chosen: index.get(tuple(value(chosen, n - 1, y) for y in faces), ())

    domains = [Y.level(0) if n == 0 else with_faces(n, x) for n, x in slots]
    constraints = [
        ((lift[key][0],), lambda z, chain=lift[key][1], want=want: lifted(z, chain) == want)
        for key, want in (forced or {}).items()
    ]
    return [
        SSetMap(X, Y, {
            m: {x: value(chosen, m, x) for x in X.level(m)} for m in range(N + 1)
        })
        for chosen in solve(domains, constraints)
    ]
