"""Monotone maps of finite ordinals and their action, as a reference.

An ordinal map is a weakly monotone function [m] -> [n] between the
finite totally ordered sets [m] = {0, ..., m} and [n] = {0, ..., n}.
The library states every face and degeneracy on strings of cells
(``ordinal.string_face`` and ``ordinal.string_degeneracy``); the tests
check those against the action of a general ordinal map, built here:
``apply`` peels a map into faces and degeneracies of a materialised
simplicial set, and ``cocycle_action`` acts on a cocycle of the
classifying object by gap composites.

>>> theta = OrdinalMap(2, 1, (0, 0, 1))
>>> theta(2)
1
>>> theta.is_surjective()
True
"""

import functools
import itertools
from dataclasses import dataclass

from sgdtors.report import InvariantError


@dataclass(frozen=True)
class OrdinalMap:
    """Monotone map [dom] -> [cod], stored by its value tuple."""

    dom: int
    cod: int
    values: tuple

    def __post_init__(self):
        if self.dom < 0 or self.cod < 0:
            raise InvariantError("ordinals must be nonnegative")
        if len(self.values) != self.dom + 1:
            raise InvariantError("one value per element of [dom]")
        for v in self.values:
            if not 0 <= v <= self.cod:
                raise InvariantError("value out of range")
        for a, b in zip(self.values, self.values[1:]):
            if a > b:
                raise InvariantError("not monotone")

    def __call__(self, i):
        return self.values[i]

    def after(self, other: "OrdinalMap") -> "OrdinalMap":
        """Composite self . other, defined when other.cod == self.dom."""
        if other.cod != self.dom:
            raise InvariantError("not composable")
        return OrdinalMap(other.dom, self.cod, tuple(self.values[v] for v in other.values))

    def is_identity(self):
        return self.dom == self.cod and all(self.values[i] == i for i in range(self.dom + 1))

    def is_surjective(self):
        return set(self.values) == set(range(self.cod + 1))

    @functools.lru_cache(maxsize=None)
    def restricted(self, i: int) -> "OrdinalMap":
        """The map [dom - i] -> [cod - theta(i)] sending j to theta(i + j) - theta(i).

        This is the restriction of theta to the interval [i, dom],
        renumbered so both intervals start at 0.  It is the ordinal map
        through which cocycle entries get reindexed.
        """
        if not 0 <= i <= self.dom:
            raise InvariantError("restriction point out of range")
        base = self.values[i]
        return OrdinalMap(
            self.dom - i,
            self.cod - base,
            tuple(self.values[i + j] - base for j in range(self.dom - i + 1)),
        )


def identity(n: int) -> OrdinalMap:
    return OrdinalMap(n, n, tuple(range(n + 1)))


def coface(n: int, i: int) -> OrdinalMap:
    """The injection [n-1] -> [n] missing i."""
    if not (n >= 1 and 0 <= i <= n):
        raise InvariantError("coface index out of range")
    return OrdinalMap(n - 1, n, tuple(j if j < i else j + 1 for j in range(n)))


def codegeneracy(n: int, j: int) -> OrdinalMap:
    """The surjection [n+1] -> [n] repeating j."""
    if not 0 <= j <= n:
        raise InvariantError("codegeneracy index out of range")
    return OrdinalMap(n + 1, n, tuple(k if k <= j else k - 1 for k in range(n + 2)))


def identity(n: int) -> OrdinalMap:
    return OrdinalMap(n, n, tuple(range(n + 1)))


def coface(n: int, i: int) -> OrdinalMap:
    """The injection [n-1] -> [n] missing i."""
    if not (n >= 1 and 0 <= i <= n):
        raise InvariantError("coface index out of range")
    return OrdinalMap(n - 1, n, tuple(j if j < i else j + 1 for j in range(n)))


def codegeneracy(n: int, j: int) -> OrdinalMap:
    """The surjection [n+1] -> [n] repeating j."""
    if not 0 <= j <= n:
        raise InvariantError("codegeneracy index out of range")
    return OrdinalMap(n + 1, n, tuple(k if k <= j else k - 1 for k in range(n + 2)))


def all_maps(m: int, n: int):
    """All monotone maps [m] -> [n], lexicographically ordered."""
    return [
        OrdinalMap(m, n, vals)
        for vals in itertools.combinations_with_replacement(range(n + 1), m + 1)
    ]


@functools.lru_cache(maxsize=None)
def decompose(theta: OrdinalMap):
    """Peel theta into elementary steps, innermost action first.

    Returns a tuple of ("d", n, i) / ("s", n, j) instructions such that
    applying face d_i at dimension n, resp. degeneracy s_j at dimension n,
    in order, realizes the contravariant action of theta on simplices.
    The steps of each map are worked out once.
    """
    steps = ()
    cur = theta
    while True:
        if cur.is_identity():
            return steps
        if not cur.is_surjective():
            # theta = coface(i) . rest: act by d_i first.
            img = set(cur.values)
            i = min(v for v in range(cur.cod + 1) if v not in img)
            steps += (("d", cur.cod, i),)
            cur = OrdinalMap(
                cur.dom, cur.cod - 1, tuple(v if v < i else v - 1 for v in cur.values)
            )
        else:
            # theta = rest . codegeneracy(j): act by s_j last.
            j = next(k for k in range(cur.dom) if cur.values[k] == cur.values[k + 1])
            # record after recursing: s_j applies after the rest of theta
            rest = OrdinalMap(
                cur.dom - 1,
                cur.cod,
                cur.values[: j + 1] + cur.values[j + 2 :],
            )
            return steps + decompose(rest) + (("s", cur.dom - 1, j),)


# Poset joins.  [n] * [n] is [2n+1], totally ordered; the left and right
# copies of [n] include as initial and final segments.


def join_left(n: int) -> OrdinalMap:
    """[n] -> [2n+1]: the initial segment."""
    return OrdinalMap(n, 2 * n + 1, tuple(range(n + 1)))


def join_right(n: int) -> OrdinalMap:
    """[n] -> [2n+1]: the final segment."""
    return OrdinalMap(n, 2 * n + 1, tuple(n + 1 + i for i in range(n + 1)))


def join_of_maps(theta: OrdinalMap) -> OrdinalMap:
    """theta * theta: [2m+1] -> [2n+1], acting as theta on both halves."""
    m, n = theta.dom, theta.cod
    left = tuple(theta.values[i] for i in range(m + 1))
    right = tuple(n + 1 + theta.values[i] for i in range(m + 1))
    return OrdinalMap(2 * m + 1, 2 * n + 1, left + right)


def apply(X, theta: OrdinalMap, x):
    """Contravariant action on a TruncSSet: x an n-simplex, theta: [m] -> [n];
    m-simplex out."""
    cur = x
    for kind, dim, idx in decompose(theta):
        cur = X.face(dim, idx, cur) if kind == "d" else X.degen(dim, idx, cur)
    return cur


def cocycle_gap_composite(C, objs, arrows, n, p, q):
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


def cocycle_action(C, theta, simplex):
    """Reference action of a monotone map theta on a cocycle of C's
    classifying object: cell i of the image is the composite over the
    gap from theta(i - 1) to theta(i), or an identity when the gap is
    empty, reindexed along theta restricted to [i, dom]."""
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
        new_arrows.append(apply(C.homs[(objs[q], objs[p])], theta.restricted(i), gamma))
    return (new_objs, tuple(new_arrows))
