"""Transposes for maps into a classifying object.

A simplicial map X -> wbar(C) is determined by two tables: the object
each vertex lands on, and the leading cell of the image of each simplex
of positive dimension.  Conversely such tables rebuild a candidate map,
which is an actual transpose exactly when the rebuilt map is simplicial.
The leading-cell table is forced on degenerate simplices, so searches
only branch over nondegenerate ones.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from .kan import enumerate_sset_maps
from .report import Check, require
from .search import Dependent, solve
from .sgroupoid import SimpGroupoid
from .sset import SSetMap, TruncSSet, validate_sset_map
from .wbar import wbar


def transpose_to_tables(f: SSetMap):
    """Extract (vertex objects, leading cells) from a map into wbar(C)."""
    X = f.source
    v = {x: f(0, x)[0][0] for x in X.level(0)}
    phi = {}
    for n in range(1, X.trunc + 1):
        for x in X.level(n):
            phi[(n, x)] = f(n, x)[1][0]
    return v, phi


def _iterate_d0(X: TruncSSet, n, x, k):
    for t in range(k):
        x = X.face(n - t, 0, x)
    return x


def rebuild_map(X: TruncSSet, C: SimpGroupoid, v, phi, W=None) -> SSetMap:
    """Candidate map X -> wbar(C) from vertex objects and leading cells.

    The formula runs on every simplex, degenerate ones included, so a
    check of the result covers every cell of phi; ``sset_map`` would read
    the roots' cells only.  Not guaranteed simplicial; run
    validate_sset_map (or twisting_check) on the result.
    """
    if W is None:
        W = wbar(C)

    def assign(n, x):
        objs = tuple(v[X.vertex(n, i, x)] for i in range(n + 1))
        arrows = tuple(
            phi[(n - i + 1, _iterate_d0(X, n, x, i - 1))] for i in range(1, n + 1)
        )
        return (objs, arrows)

    return SSetMap(X, W, {n: {x: assign(n, x) for x in X.level(n)} for n in range(X.trunc + 1)})


def fill_degenerate_cells(X: TruncSSet, C: SimpGroupoid, v, phi):
    """Extend a leading-cell table from nondegenerate to all simplices,
    each x = s_j y read off ``X.origins``."""
    full = dict(phi)
    for n in range(1, X.trunc + 1):
        for j, xs, ys in X.origins(n)[1]:
            for x, y in zip(xs, ys):
                if j == 0:
                    full[(n, x)] = C.identity_at(v[X.vertex(n, 0, x)], n - 1)
                else:
                    hom = _leading_hom(X, C, v, n - 1, y)
                    full[(n, x)] = hom.degen(n - 2, j - 1, full[(n - 1, y)])
    return full


def _leading_hom(X: TruncSSet, C: SimpGroupoid, v, n, x):
    """Hom object the leading cell of an n-simplex image lives in."""
    return C.homs[(v[X.vertex(n, 1, x)], v[X.vertex(n, 0, x)])]


def twisting_check(X: TruncSSet, C: SimpGroupoid, v, phi) -> Check:
    """Tables are correctly typed and rebuild to a simplicial map."""
    check = Check("tables transpose to a map", True)
    typed = []
    for x in X.level(0):
        if v.get(x) not in C.objects:
            typed.append(("vertex", x))
    for n in range(1, X.trunc + 1):
        for x in X.level(n):
            cell = phi.get((n, x))
            if cell is None or cell not in set(_leading_hom(X, C, v, n, x).level(n - 1)):
                typed.append((n, x))
    check.add(require(not typed, "tables correctly typed", witness=typed[:3]))
    if not check.ok:
        return check
    f = rebuild_map(X, C, v, phi)
    check.add(replace(validate_sset_map(f), claim="rebuilt map is simplicial"))
    return check


def enumerate_twistings(X: TruncSSet, C: SimpGroupoid):
    """All (v, phi) tables whose rebuilt map is simplicial.

    Slots are the vertex objects, keyed (0, x), then the leading cells of
    nondegenerate simplices, keyed (n, x) and each ranging over the hom
    its two vertex objects pick out; degenerate leading cells are forced.
    One constraint on every slot asks the rebuilt map to be simplicial.
    """
    W = wbar(C)
    domains = {(0, x): C.objects for x in X.level(0)}
    cells = [(n, x) for n in range(1, X.trunc + 1) for x in X.nondegenerate(n)]
    for n, x in cells:
        domains[(n, x)] = Dependent(
            ((0, X.vertex(n, 1, x)), (0, X.vertex(n, 0, x))),
            lambda a, b, n=n: C.homs[(a, b)].level(n - 1),
        )

    def tables(chosen):
        v = {x: chosen[(0, x)] for x in X.level(0)}
        return v, fill_degenerate_cells(X, C, v, {key: chosen[key] for key in cells})

    everything = tuple(domains)

    def simplicial(*values):
        return validate_sset_map(rebuild_map(X, C, *tables(dict(zip(everything, values))), W)).ok

    return [tables(chosen) for chosen in solve(domains, [(everything, simplicial)])]


def transpose_round_trip_check(X: TruncSSet, C: SimpGroupoid) -> Check:
    """Maps X -> wbar(C) correspond exactly to valid tables, both ways."""
    W = wbar(C)
    maps = enumerate_sset_maps(X, W)
    tables = enumerate_twistings(X, C)
    check = Check(
        "transposition is a bijection",
        True,
        params={"maps": len(maps), "tables": len(tables)},
    )
    check.add(require(len(maps) == len(tables), "equal counts",
                      witness={"maps": len(maps), "tables": len(tables)}))
    for f in maps:
        v, phi = transpose_to_tables(f)
        g = rebuild_map(X, C, v, phi, W)
        if g != f:
            check.add(Check("map -> tables -> map is the identity", False,
                            witness=f.levels))
            return check
    check.add(Check("map -> tables -> map is the identity", True))
    seen = []
    for v, phi in tables:
        f = rebuild_map(X, C, v, phi, W)
        v2, phi2 = transpose_to_tables(f)
        if (v2, phi2) != (v, phi):
            check.add(Check("tables -> map -> tables is the identity", False,
                            witness=(v, v2)))
            return check
        seen.append(f)
    check.add(Check("tables -> map -> tables is the identity", True))
    distinct = all(a != b for a, b in itertools.combinations(seen, 2))
    check.add(require(distinct, "distinct tables rebuild distinct maps"))
    return check
