"""Truncated bisimplicial sets and their diagonals."""

from __future__ import annotations

from dataclasses import dataclass

from .report import validator
from .sset import SSetMap, TruncSSet, _sorted_ids, validate_sset, validate_sset_map


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
