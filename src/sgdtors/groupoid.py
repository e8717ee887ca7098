"""Finite groups, groupoids, strict 2-groupoids, and their nerves.

Composition tables are explicit dicts.  ``comp[(g, f)]`` is "g after f":
defined when f: a -> b and g: b -> c, landing in a -> c.  Nerves use
strings x_0 -> x_1 -> ... -> x_n read left to right; the ordinal action
composes over the gaps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .ordinal import OrdinalMap
from .report import InvariantError, invariant, validator
from .site import FinCat, poset_category, validate_cat
from .sset import build_sset


@dataclass
class FinGroup:
    name: str
    elements: tuple
    mul: dict        # (g, h) -> g * h
    e: object
    inv: dict

    def __iter__(self):
        return iter(self.elements)


def make_group(name, elements, mul):
    elements = tuple(elements)
    table = {(g, h): mul(g, h) for g in elements for h in elements}
    e = next(
        x for x in elements
        if all(table[(x, g)] == g and table[(g, x)] == g for g in elements)
    )
    inv = {g: next(h for h in elements if table[(g, h)] == e) for g in elements}
    for g, h in itertools.product(elements, repeat=2):
        for k in elements:
            invariant(table[(table[(g, h)], k)] == table[(g, table[(h, k)])], "not associative")
    return FinGroup(name, elements, table, e, inv)


def zmod(n):
    return make_group(f"z{n}", range(n), lambda a, b: (a + b) % n)


def symmetric_group(n):
    elements = list(itertools.permutations(range(n)))
    # composition as functions: (g * h)(i) = g(h(i))
    return make_group(f"s{n}", elements, lambda g, h: tuple(g[h[i]] for i in range(n)))


@dataclass
class FinGroupoid(FinCat):
    inverses: dict     # id -> id

    def compose_path(self, fs):
        """Composite of a left-to-right chain f1; f2; ...; fk."""
        cur = fs[0]
        for f in fs[1:]:
            cur = self.comp[(f, cur)]
        return cur


@validator("input is a groupoid")
def validate_groupoid(G: FinGroupoid):
    """The category laws of G as a FinCat, then its inverses."""
    category = validate_cat(G)
    if not category:
        return category.witness
    problems = []
    for f, (a, b) in G.morphisms.items():
        finv = G.inverses.get(f)
        if finv is None or G.morphisms.get(finv) != (b, a):
            problems.append(f"inverse of {f!r} missing or mistyped")
        elif G.comp[(finv, f)] != G.identities[a] or G.comp[(f, finv)] != G.identities[b]:
            problems.append(f"inverse law fails at {f!r}")
    return problems


def groupoid_from(objects, morphisms, comp, identities) -> FinGroupoid:
    """The groupoid with these tables and inverses found by search; an
    arrow with no inverse gets no entry, which validate_groupoid reports."""
    between = {}
    for g, ends in morphisms.items():
        between.setdefault(ends, []).append(g)
    inverses = {}
    for f, (a, b) in morphisms.items():
        for g in between.get((b, a), ()):
            if comp.get((g, f)) == identities.get(a) and comp.get((f, g)) == identities.get(b):
                inverses[f] = g
                break
    return FinGroupoid(tuple(objects), morphisms, comp, identities, inverses)


def group_as_groupoid(F: FinGroup) -> FinGroupoid:
    obj = "*"
    morphisms = {g: (obj, obj) for g in F.elements}
    comp = {(g, f): F.mul[(g, f)] for g in F.elements for f in F.elements}
    return FinGroupoid((obj,), morphisms, comp, {obj: F.e}, dict(F.inv))


def trivial_groupoid(objects) -> FinGroupoid:
    """Exactly one morphism between any two objects (a contractible groupoid)."""
    C = poset_category(objects, lambda a, b: True)
    inverses = {(a, b): (b, a) for a, b in C.morphisms}
    return FinGroupoid(C.objects, C.morphisms, C.comp, C.identities, inverses)


def discrete_groupoid(objects) -> FinGroupoid:
    objects = tuple(objects)
    morphisms = {("id", a): (a, a) for a in objects}
    comp = {(("id", a), ("id", a)): ("id", a) for a in objects}
    identities = {a: ("id", a) for a in objects}
    inverses = {("id", a): ("id", a) for a in objects}
    return FinGroupoid(objects, morphisms, comp, identities, inverses)


def disjoint_union_groupoids(pieces: dict) -> FinGroupoid:
    objects = tuple((t, a) for t, G in pieces.items() for a in G.objects)
    morphisms = {(t, f): ((t, s), (t, d)) for t, G in pieces.items() for f, (s, d) in G.morphisms.items()}
    comp = {
        ((t, g), (t, f)): (t, h)
        for t, G in pieces.items()
        for (g, f), h in G.comp.items()
    }
    identities = {(t, a): (t, e) for t, G in pieces.items() for a, e in G.identities.items()}
    inverses = {(t, f): (t, v) for t, G in pieces.items() for f, v in G.inverses.items()}
    return FinGroupoid(objects, morphisms, comp, identities, inverses)


# ---------------------------------------------------------------------------
# Nerve of a groupoid (or any finite category shaped like the above).


def _string_objects(G: FinGroupoid, x0, fs):
    objs = [x0]
    for f in fs:
        if G.src(f) != objs[-1]:
            raise InvariantError(f"string breaks at {f!r}")
        objs.append(G.dst(f))
    return objs


def nerve_theta(G: FinGroupoid, theta: OrdinalMap, simplex):
    """Ordinal action on a nerve string (x0, (f1, ..., fn))."""
    x0, fs = simplex
    objs = _string_objects(G, x0, fs)
    new_fs = []
    for i in range(1, theta.dom + 1):
        p, q = theta(i - 1), theta(i)
        if p == q:
            new_fs.append(G.identities[objs[p]])
        else:
            new_fs.append(G.compose_path(fs[p:q]))
    return (objs[theta(0)], tuple(new_fs))


def nerve_groupoid(G: FinGroupoid, trunc):
    """The nerve: n-simplices are strings of n composable morphisms."""

    def levels(n):
        out = []
        def extend(x0, fs, k):
            if k == 0:
                out.append((x0, tuple(fs)))
                return
            tail = fs[-1] if fs else None
            start = G.dst(tail) if tail is not None else None
            for f, (s, d) in G.morphisms.items():
                if fs and s != start:
                    continue
                if not fs and s != x0:
                    continue
                extend(x0, fs + [f], k - 1)
        for x0 in G.objects:
            extend(x0, [], n)
        return out

    from .ordinal import coface, codegeneracy

    def face(n, i, x):
        return nerve_theta(G, coface(n, i), x)

    def degen(n, j, x):
        return nerve_theta(G, codegeneracy(n, j), x)

    return build_sset(trunc, levels, face, degen)


# ---------------------------------------------------------------------------
# Strict 2-groupoids: groupoids enriched in groupoids.


@dataclass
class Fin2Groupoid:
    objects: tuple
    homs: dict       # (a, b) -> FinGroupoid (objects 1-cells, morphisms 2-cells)
    hcomp1: dict     # (a, b, c) -> {(q, p): q . p on 1-cells}
    hcomp2: dict     # (a, b, c) -> {(beta, alpha): beta . alpha on 2-cells}
    identities1: dict  # a -> identity 1-cell in homs[(a, a)]


@validator("input is a 2-groupoid")
def validate_2groupoid(T: Fin2Groupoid):
    """Hom groupoids, the 1-cells forming a groupoid under horizontal
    composition, typed 2-cell composition, and interchange."""
    problems = []
    for (a, b), H in T.homs.items():
        hom = validate_groupoid(H)
        if not hom:
            problems.append(f"hom groupoid {(a, b)}: {hom.witness[0]}")
    if problems:
        return problems
    ones = validate_groupoid(groupoid_from(
        T.objects,
        {(a, b, p): (a, b) for (a, b), H in T.homs.items() for p in H.objects},
        {
            ((b, c, q), (a, b, p)): (a, c, h)
            for (a, b, c), table in T.hcomp1.items()
            for (q, p), h in table.items()
        },
        {a: (a, a, T.identities1[a]) for a in T.objects},
    ))
    if not ones:
        return [f"1-cells: {ones.witness[0]}"]
    for a, b, c in itertools.product(T.objects, repeat=3):
        h1 = T.hcomp1[(a, b, c)]
        h2 = T.hcomp2[(a, b, c)]
        AB, BC, AC = T.homs[(a, b)], T.homs[(b, c)], T.homs[(a, c)]
        for beta in BC.morphisms:
            for alpha in AB.morphisms:
                g = h2.get((beta, alpha))
                if g is None:
                    problems.append(f"2-cell composition missing at {(a, b, c)}")
                    return problems
                want_src = h1[(BC.src(beta), AB.src(alpha))]
                want_dst = h1[(BC.dst(beta), AB.dst(alpha))]
                if AC.morphisms[g] != (want_src, want_dst):
                    problems.append(f"2-cell composition mistyped at {(a, b, c)}")
        # functoriality of horizontal composition = strict interchange
        for b2, a2 in itertools.product(BC.morphisms, AB.morphisms):
            for b1, a1 in itertools.product(BC.morphisms, AB.morphisms):
                if BC.src(b2) == BC.dst(b1) and AB.src(a2) == AB.dst(a1):
                    lhs = AC.comp[(h2[(b2, a2)], h2[(b1, a1)])]
                    rhs = h2[(BC.comp[(b2, b1)], AB.comp[(a2, a1)])]
                    if lhs != rhs:
                        problems.append(f"interchange fails at {(a, b, c)}: {(b2, a2, b1, a1)}")
        for q, p in itertools.product(BC.objects, AB.objects):
            if h2[(BC.identities[q], AB.identities[p])] != AC.identities[h1[(q, p)]]:
                problems.append(f"horizontal composition breaks identity 2-cells at {(a, b, c)}")
    return problems


def groupoid_as_2groupoid(G: FinGroupoid) -> Fin2Groupoid:
    """Discrete hom groupoids: 1-cells are G's morphisms, 2-cells identities."""
    homs = {}
    for a, b in itertools.product(G.objects, repeat=2):
        cells = [f for f, (s, d) in G.morphisms.items() if (s, d) == (a, b)]
        homs[(a, b)] = discrete_groupoid(cells)
    hcomp1, hcomp2 = {}, {}
    for a, b, c in itertools.product(G.objects, repeat=3):
        table1, table2 = {}, {}
        for q in homs[(b, c)].objects:
            for p in homs[(a, b)].objects:
                table1[(q, p)] = G.comp[(q, p)]
                table2[(("id", q), ("id", p))] = ("id", G.comp[(q, p)])
        hcomp1[(a, b, c)] = table1
        hcomp2[(a, b, c)] = table2
    return Fin2Groupoid(G.objects, homs, hcomp1, hcomp2, dict(G.identities))


def group_as_2groupoid(F: FinGroup) -> Fin2Groupoid:
    return groupoid_as_2groupoid(group_as_groupoid(F))
