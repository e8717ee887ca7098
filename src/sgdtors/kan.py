"""Horn filling, homotopy groups, and weak-equivalence checks.

Everything is exhaustive over the stored simplices.  Horn enumeration
walks compatible face tuples with backtracking, and a horn's fillers
are looked up in a face index: one pass over level n files each
n-simplex under its faces other than d_k, once per (n, k) and call.  Homotopy groups are
computed from explicit candidate sets and single-simplex homotopies,
closed transitively.  All claims are bounded by the truncation and say
so in the returned ``Check``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .report import Check, invariant, require
from .search import Dependent, Partition, solve
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
        ((i, j), matching(i, j))
        for b, j in enumerate(positions)
        for i in positions[:b]
        if n >= 2
    ]
    return solve({i: X.level(n - 1) for i in positions}, constraints)


def face_index(X: TruncSSet, n: int, k=None):
    """The n-simplices of X in level order, keyed by the tuple of their faces d_i, i != k:
    the fillers of every (n, k)-horn, or with k None the simplices on every boundary."""
    tables = [X.faces[(n, i)] for i in range(n + 1) if i != k]
    index = {}
    for z in X.level(n):
        index.setdefault(tuple(t[z] for t in tables), []).append(z)
    return index


def kan_check(X: TruncSSet, maxdim=None) -> Check:
    """Search a filler for every horn of dimension <= maxdim."""
    if maxdim is None:
        maxdim = X.trunc - 1
    invariant(1 <= maxdim <= X.trunc, "horns need fillers inside the truncation")
    check = Check("every horn has a filler", True, params={"maxdim": maxdim, "trunc": X.trunc})
    horns = 0
    for n in range(1, maxdim + 1):
        for k in range(n + 1):
            fillers = face_index(X, n, k)
            for assignment in horn_assignments(X, n, k):
                horns += 1
                if tuple(assignment.values()) not in fillers:
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
    check = Check("every horn lifts against the base", True,
                  params={"maxdim": maxdim, "trunc": X.trunc})
    horns = 0
    for n in range(1, maxdim + 1):
        for k in range(n + 1):
            upstairs, downstairs = face_index(X, n, k), face_index(B, n, k)
            below, here = p.levels[n - 1], p.levels[n]
            for assignment in horn_assignments(X, n, k):
                fillers = upstairs.get(tuple(assignment.values()), ())
                images = tuple(below[x] for x in assignment.values())
                for sigma in downstairs.get(images, ()):
                    horns += 1
                    if not any(here[z] == sigma for z in fillers):
                        check.ok = False
                        given = tuple(sorted(assignment.items()))
                        check.witness = ("relative horn", n, k, given, sigma)
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
    fillers, product_face = face_index(X, n + 1, n), X.faces[(n + 1, n)]
    mult = {}
    for (a, ca), (b, cb) in itertools.product(enumerate(classes), repeat=2):
        results = set()
        for x, y in itertools.product(ca, cb):
            for w in fillers.get((base,) * (n - 1) + (x, y), ()):
                results.add(cls_of[product_face[w]])
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
    """All simplicial maps X -> Y with the values ``forced``, as SSetMaps:
    ``sset_map_search(X, Y)`` compiled, then run once.

    ``forced`` is a dict (dim, id) -> id of required values.  A forced
    nondegenerate simplex, the root of its own slot, pins that slot: its
    domain is ``(want,)`` where ``want`` is among the slot's face-index
    candidates, and empty where it is not.  A forced degenerate simplex
    stays a constraint on the slot it degenerates from, which replays
    its lift chain on each value the slot takes.  Either way the
    solutions are the unforced ones that have the forced values, in the
    same order.
    """
    return sset_map_search(X, Y)(forced)


def sset_map_search(X: TruncSSet, Y: TruncSSet):
    """The search for simplicial maps X -> Y, compiled once: a function
    from a ``forced`` dict, as ``enumerate_sset_maps`` takes it, to the
    list of maps.  Running it again with other forced values builds no
    face index, lift chain or table plan again.

    There is one slot per nondegenerate simplex, dimension by dimension,
    keyed by its index in that order and ranging over the simplices of Y
    with the faces already chosen; degenerate values follow.

    Each simplex x of X lifts through a chain of Y's degeneracy tables
    from a root slot: x's value is the chain applied to the root's
    value.  A slot's domain looks its faces' values up in Y's face
    index, and skips the chains when all of them are empty.  A
    solution's tables are filled level by level, each in ``X.level(n)``
    order: a root is its slot's value, and x = s_j y, the first
    degeneracy that reaches x, is Y's s_j table at y's value one level
    down, so no chain is replayed.
    """
    invariant(X.trunc == Y.trunc, "a simplicial map needs equal truncations")
    N = X.trunc
    by_faces = {n: face_index(Y, n) for n in range(1, N + 1)}

    def lifted(z, chain):
        for table in chain:
            z = table[z]
        return z

    def with_faces(n, x):
        roots, chains = zip(*[lift[(n - 1, X.face(n, i, x))] for i in range(n + 1)])
        index = by_faces[n].get
        if not any(chains):
            return Dependent(roots, lambda *zs: index(zs, ()))
        return Dependent(roots, lambda *zs: index(tuple(map(lifted, zs, chains)), ()))

    def pinned(domain, want):
        if not isinstance(domain, Dependent):
            return (want,) if want in domain else ()
        choose = domain.choose
        return Dependent(domain.reads, lambda *zs: (want,) if want in choose(*zs) else ())

    # lift: (dim, id) -> (slot, Y's degeneracy tables applied to its value);
    # per level, the roots as (simplices, slots) and the first lifts as
    # (Y's s_j table, simplices, the simplices one level down they lift from)
    domains, lift, roots, lifts = {}, {}, [], []
    for n in range(N + 1):
        level_lifts = []
        # x lifts through its first s_j y: j ascending, y in level order, not table order
        for j in range(n):
            table, image = X.degeneracies[(n - 1, j)], Y.degeneracies[(n - 1, j)]
            xs, ys = [], []
            for y in X.level(n - 1):
                x = table[y]
                if (n, x) not in lift:
                    root, chain = lift[(n - 1, y)]
                    lift[(n, x)] = (root, chain + (image,))
                    xs.append(x)
                    ys.append(y)
            level_lifts.append((image, xs, ys))
        xs, slots = [], []
        for x in X.level(n):
            if (n, x) not in lift:
                root = len(domains)
                lift[(n, x)] = (root, ())
                domains[root] = Y.level(0) if n == 0 else with_faces(n, x)
                xs.append(x)
                slots.append(root)
        roots.append((xs, slots))
        lifts.append(level_lifts)

    def tables(chosen):
        levels, below = {}, None
        for n in range(N + 1):
            here = levels[n] = dict.fromkeys(X.level(n))
            xs, slots = roots[n]
            here.update(zip(xs, map(chosen.__getitem__, slots)))
            for image, xs, ys in lifts[n]:
                here.update(zip(xs, map(image.__getitem__, map(below.__getitem__, ys))))
            below = here
        return SSetMap(X, Y, levels)

    def search(forced=None):
        run, constraints = dict(domains), []
        for key, want in (forced or {}).items():
            root, chain = lift[key]
            if chain:
                constraints.append(
                    ((root,), lambda z, chain=chain, want=want: lifted(z, chain) == want)
                )
            else:
                run[root] = pinned(domains[root], want)
        return [tables(chosen) for chosen in solve(run, constraints)]

    return search
