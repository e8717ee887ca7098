"""Truncated bisimplicial sets and their diagonals.

Both builders take the same six arguments: the truncation, the simplices
at each bidegree, and the four face and degeneracy callables.
``build_bisset`` materialises every bidegree and table, as
``validate_bisset`` needs; ``diagonal`` lists only the (n, n) bidegrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .report import validator
from .sset import SSetMap, TruncSSet, _sorted_ids, build_sset, validate_sset, validate_sset_map


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


def _line(B: BisSSet, at, faces, degens) -> TruncSSet:
    """The simplicial set with level n at B's degree at(n): a row or a
    column, with the faces and degeneracies of that direction."""
    N = B.trunc
    return TruncSSet(
        N,
        {n: B.level(*at(n)) for n in range(N + 1)},
        {(n, i): faces.get(at(n) + (i,)) for n in range(1, N + 1) for i in range(n + 1)},
        {(n, j): degens.get(at(n) + (j,)) for n in range(N) for j in range(n + 1)},
    )


@validator("input is a bisimplicial set")
def validate_bisset(B: BisSSet):
    """Every row and column is a simplicial set, and every horizontal
    face and degeneracy is a simplicial map between columns."""
    problems = []
    N = B.trunc
    rows = [_line(B, lambda p, q=q: (p, q), B.hfaces, B.hdegen) for q in range(N + 1)]
    columns = [_line(B, lambda q, p=p: (p, q), B.vfaces, B.vdegen) for p in range(N + 1)]
    for name, lines in (("row", rows), ("column", columns)):
        for k, X in enumerate(lines):
            line = validate_sset(X)
            if not line:
                problems.append(f"{name} {k}: {line.witness[0]}")
    if problems:
        return problems

    def horizontal(name, tables, p, p2, k):
        levels = {q: tables[(p, q, k)] for q in range(N + 1)}
        check = validate_sset_map(SSetMap(columns[p], columns[p2], levels))
        if not check:
            problems.append(f"horizontal {name}_{k} at column {p}: {check.witness[0]}")

    for p in range(1, N + 1):
        for i in range(p + 1):
            horizontal("d", B.hfaces, p, p - 1, i)
    for p in range(N):
        for j in range(p + 1):
            horizontal("s", B.hdegen, p, p + 1, j)
    return problems


def diagonal(trunc, levels, hface, vface, hdegen, vdegen) -> TruncSSet:
    """d(B) for the B that build_bisset builds from the same arguments:
    d(B)_n = B_{n,n}, d_i = d_i^v d_i^h and s_j = s_j^v s_j^h, with no
    off-diagonal level or table."""
    return build_sset(
        trunc,
        lambda n: levels(n, n),
        lambda n, i, x: vface(n - 1, n, i, hface(n, n, i, x)),
        lambda n, j, x: vdegen(n + 1, n, j, hdegen(n, n, j, x)),
    )
