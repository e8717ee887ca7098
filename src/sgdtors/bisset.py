"""Truncated bisimplicial sets and their diagonals."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .report import validator
from .sset import TruncSSet, _sorted_ids


@dataclass
class BisSSet:
    """Bisimplicial set truncated at (trunc, trunc).

    hfaces[(p, q, i)]: (p, q) -> (p-1, q); vfaces[(p, q, i)]: (p, q) -> (p, q-1);
    degeneracies likewise, one dimension up.
    """

    trunc: int
    simplices: dict
    hfaces: dict
    vfaces: dict
    hdegen: dict
    vdegen: dict

    def level(self, p, q):
        return self.simplices.get((p, q), ())

    def size(self, p, q):
        return len(self.level(p, q))


def build_bisset(trunc, levels, hface, vface, hdegen, vdegen):
    N = trunc
    simplices = {(p, q): _sorted_ids(levels(p, q)) for p in range(N + 1) for q in range(N + 1)}
    hfaces = {
        (p, q, i): {x: hface(p, q, i, x) for x in simplices[(p, q)]}
        for p in range(1, N + 1)
        for q in range(N + 1)
        for i in range(p + 1)
    }
    vfaces = {
        (p, q, i): {x: vface(p, q, i, x) for x in simplices[(p, q)]}
        for p in range(N + 1)
        for q in range(1, N + 1)
        for i in range(q + 1)
    }
    hdegens = {
        (p, q, j): {x: hdegen(p, q, j, x) for x in simplices[(p, q)]}
        for p in range(N)
        for q in range(N + 1)
        for j in range(p + 1)
    }
    vdegens = {
        (p, q, j): {x: vdegen(p, q, j, x) for x in simplices[(p, q)]}
        for p in range(N + 1)
        for q in range(N)
        for j in range(q + 1)
    }
    return BisSSet(trunc, simplices, hfaces, vfaces, hdegens, vdegens)


@validator("input is a bisimplicial set")
def validate_bisset(B: BisSSet):
    """Simplicial identities in each direction plus cross-commutation."""
    problems = []
    N = B.trunc

    def hf(p, q, i, x):
        return B.hfaces[(p, q, i)][x]

    def vf(p, q, i, x):
        return B.vfaces[(p, q, i)][x]

    for p in range(2, N + 1):
        for q in range(N + 1):
            for i, j in itertools.combinations(range(p + 1), 2):
                for x in B.level(p, q):
                    if hf(p - 1, q, i, hf(p, q, j, x)) != hf(p - 1, q, j - 1, hf(p, q, i, x)):
                        problems.append(f"horizontal d_{i} d_{j} fails at {(p, q)}")
    for q in range(2, N + 1):
        for p in range(N + 1):
            for i, j in itertools.combinations(range(q + 1), 2):
                for x in B.level(p, q):
                    if vf(p, q - 1, i, vf(p, q, j, x)) != vf(p, q - 1, j - 1, vf(p, q, i, x)):
                        problems.append(f"vertical d_{i} d_{j} fails at {(p, q)}")
    for p in range(1, N + 1):
        for q in range(1, N + 1):
            for i in range(p + 1):
                for j in range(q + 1):
                    for x in B.level(p, q):
                        a = B.vfaces[(p - 1, q, j)][B.hfaces[(p, q, i)][x]]
                        b = B.hfaces[(p, q - 1, i)][B.vfaces[(p, q, j)][x]]
                        if a != b:
                            problems.append(f"h/v faces do not commute at {(p, q)}")
    for p in range(N):
        for q in range(N):
            for i in range(p + 1):
                for j in range(q + 1):
                    for x in B.level(p, q):
                        a = B.vdegen[(p + 1, q, j)][B.hdegen[(p, q, i)][x]]
                        b = B.hdegen[(p, q + 1, i)][B.vdegen[(p, q, j)][x]]
                        if a != b:
                            problems.append(f"h/v degeneracies do not commute at {(p, q)}")
    return problems


def diagonal(B: BisSSet) -> TruncSSet:
    """d(B)_n = B_{n,n} with d_i = d_i^h d_i^v and s_j = s_j^h s_j^v."""
    N = B.trunc
    simplices = {n: B.level(n, n) for n in range(N + 1)}
    faces = {
        (n, i): {
            x: B.vfaces[(n - 1, n, i)][B.hfaces[(n, n, i)][x]] for x in B.level(n, n)
        }
        for n in range(1, N + 1)
        for i in range(n + 1)
    }
    degeneracies = {
        (n, j): {
            x: B.vdegen[(n + 1, n, j)][B.hdegen[(n, n, j)][x]] for x in B.level(n, n)
        }
        for n in range(N)
        for j in range(n + 1)
    }
    return TruncSSet(N, simplices, faces, degeneracies)
