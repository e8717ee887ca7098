"""Groupoids enriched in truncated simplicial sets.

A ``SimpGroupoid`` has a fixed object set and a hom simplicial set per
ordered pair of objects, with levelwise composition tables that the
face and degeneracy maps respect.  Equivalently, one finite groupoid per
level with a constant object set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bisset import BisSSet, build_bisset, diagonal
from .groupoid import (
    Fin2Groupoid,
    FinGroup,
    FinGroupoid,
    groupoid_from,
    nerve_groupoid,
    validate_groupoid,
)
from .kan import iterated_degeneracy
from .ordinal import OrdinalMap, coface, codegeneracy
from .report import InvariantError, invariant, validator
from .sset import (
    SSetMap,
    TruncSSet,
    build_sset,
    relabel,
    sset_map,
    sset_product,
    validate_sset,
    validate_sset_map,
)


@dataclass
class SimpGroupoid:
    trunc: int
    objects: tuple
    homs: dict        # (a, b) -> TruncSSet
    comp: dict        # (a, b, c) -> {level: {(g, f): g . f}}  with f: a->b, g: b->c
    identities: dict  # a -> vertex id of homs[(a, a)]

    def identity_at(self, a, n):
        return iterated_degeneracy(self.homs[(a, a)], self.identities[a], n)

    def compose(self, a, b, c, n, g, f):
        return self.comp[(a, b, c)][n][(g, f)]

    def compose_path(self, objs, n, fs):
        """Composite of f1; ...; fk along the object chain objs (k+1 long)."""
        if len(objs) != len(fs) + 1:
            raise InvariantError("object chain must be one longer than the string")
        cur = fs[0]
        src = objs[0]
        at = objs[1]
        for f, nxt in zip(fs[1:], objs[2:]):
            cur = self.compose(src, at, nxt, n, f, cur)
            at = nxt
        return cur

    def inverse(self, a, b, n, f):
        back = self.homs[(b, a)]
        for g in back.level(n):
            if (
                self.compose(a, b, a, n, g, f) == self.identity_at(a, n)
                and self.compose(b, a, b, n, f, g) == self.identity_at(b, n)
            ):
                return g
        raise ValueError(f"no inverse for {f!r} in hom({a!r},{b!r}) level {n}")


@validator("input is an enriched groupoid")
def validate_sgroupoid(H: SimpGroupoid):
    """Each hom is a simplicial set, each composition table a simplicial
    map hom(b, c) x hom(a, b) -> hom(a, c), and each level a groupoid."""
    problems = []
    N = H.trunc
    for (a, b), hom in H.homs.items():
        if hom.trunc != N:
            problems.append(f"hom({a!r},{b!r}) is truncated at {hom.trunc}, not {N}")
            continue
        cells = validate_sset(hom)
        if not cells:
            problems.append(f"hom({a!r},{b!r}): {cells.witness[0]}")
    if problems:
        return problems
    for a, b, c in itertools.product(H.objects, repeat=3):
        table = H.comp.get((a, b, c))
        if table is None:
            problems.append(f"no composition table for {(a, b, c)}")
            continue
        AB, BC, AC = H.homs[(a, b)], H.homs[(b, c)], H.homs[(a, c)]
        for n in range(N + 1):
            targets = set(AC.level(n))
            for g, f in itertools.product(BC.level(n), AB.level(n)):
                if table.get(n, {}).get((g, f)) not in targets:
                    problems.append(f"composite missing at {(a, b, c)} level {n}")
                    return problems
        composition = validate_sset_map(SSetMap(sset_product(BC, AB), AC, table))
        if not composition:
            problems.append(f"composition at {(a, b, c)}: {composition.witness[0]}")
    if problems:
        return problems
    for a in H.objects:
        if H.identities.get(a) not in set(H.homs[(a, a)].level(0)):
            problems.append(f"identity vertex missing at {a!r}")
    if problems:
        return problems
    for n in range(N + 1):
        level = validate_groupoid(level_groupoid(H, n))
        if not level:
            problems.append(f"level {n}: {level.witness[0]}")
    return problems


def level_groupoid(H: SimpGroupoid, n) -> FinGroupoid:
    """The level-n cells as a plain groupoid.  Arrow ids carry their
    endpoints, (a, b, cell), so cells reused across hom pairs never
    collide."""
    return groupoid_from(
        H.objects,
        {(a, b, f): (a, b) for (a, b), hom in H.homs.items() for f in hom.level(n)},
        {
            ((b, c, g), (a, b, f)): (a, c, h)
            for (a, b, c), levels in H.comp.items()
            for (g, f), h in levels.get(n, {}).items()
        },
        {a: (a, a, H.identity_at(a, n)) for a in H.objects},
    )


# ---------------------------------------------------------------------------
# Constructors.


def constant_sset(elements, trunc) -> TruncSSet:
    """Constant simplicial set: every level is the same finite set."""
    elements = tuple(elements)
    return build_sset(
        trunc,
        lambda n: elements,
        lambda n, i, x: x,
        lambda n, j, x: x,
    )


def constant_sgroupoid(G: FinGroupoid, trunc) -> SimpGroupoid:
    homs = {}
    comp = {}
    for a, b in itertools.product(G.objects, repeat=2):
        cells = [f for f, (s, d) in G.morphisms.items() if (s, d) == (a, b)]
        homs[(a, b)] = constant_sset(cells, trunc)
    for a, b, c in itertools.product(G.objects, repeat=3):
        gs = [g for g, (s, d) in G.morphisms.items() if (s, d) == (b, c)]
        fs = [f for f, (s, d) in G.morphisms.items() if (s, d) == (a, b)]
        table = {(g, f): G.comp[(g, f)] for g in gs for f in fs}
        comp[(a, b, c)] = {n: dict(table) for n in range(trunc + 1)}
    return SimpGroupoid(trunc, G.objects, homs, comp, dict(G.identities))


def constant_sgroup(F: FinGroup, trunc) -> SimpGroupoid:
    from .groupoid import group_as_groupoid

    return constant_sgroupoid(group_as_groupoid(F), trunc)


def b_2groupoid(T: Fin2Groupoid, trunc) -> SimpGroupoid:
    """Hom simplicial sets are the nerves of the hom groupoids."""
    homs = {
        (a, b): nerve_groupoid(T.homs[(a, b)], trunc)
        for a, b in itertools.product(T.objects, repeat=2)
    }
    comp = {}
    for a, b, c in itertools.product(T.objects, repeat=3):
        h1 = T.hcomp1[(a, b, c)]
        h2 = T.hcomp2[(a, b, c)]
        per = {}
        for n in range(trunc + 1):
            table = {}
            for g in homs[(b, c)].level(n):
                for f in homs[(a, b)].level(n):
                    q0, betas = g
                    p0, alphas = f
                    table[(g, f)] = (
                        h1[(q0, p0)],
                        tuple(h2[(b2, a2)] for b2, a2 in zip(betas, alphas)),
                    )
            per[n] = table
        comp[(a, b, c)] = per
    identities = {a: (T.identities1[a], ()) for a in T.objects}
    return SimpGroupoid(trunc, T.objects, homs, comp, identities)


def disjoint_union_sgd(pieces: dict) -> SimpGroupoid:
    truncs = {H.trunc for H in pieces.values()}
    invariant(len(truncs) == 1, "pieces have different truncations")
    (N,) = truncs
    empty = build_sset(N, lambda n: (), None, None)
    objects = tuple((t, a) for t, H in pieces.items() for a in H.objects)
    homs = {}
    comp = {}
    for ta, a in objects:
        for tb, b in objects:
            if ta == tb:
                homs[((ta, a), (tb, b))] = relabel(
                    pieces[ta].homs[(a, b)], lambda n, x: (ta, x)
                )
            else:
                homs[((ta, a), (tb, b))] = empty
    for ta, a in objects:
        for tb, b in objects:
            for tc, c in objects:
                key = ((ta, a), (tb, b), (tc, c))
                if ta == tb == tc:
                    src = pieces[ta].comp[(a, b, c)]
                    comp[key] = {
                        n: {((ta, g), (ta, f)): (ta, h) for (g, f), h in tab.items()}
                        for n, tab in src.items()
                    }
                else:
                    comp[key] = {n: {} for n in range(N + 1)}
    identities = {(t, a): (t, pieces[t].identities[a]) for t, H in pieces.items() for a in H.objects}
    return SimpGroupoid(N, objects, homs, comp, identities)


def product_sgd(G: SimpGroupoid, H: SimpGroupoid) -> SimpGroupoid:
    invariant(G.trunc == H.trunc, "factors have different truncations")
    N = G.trunc
    objects = tuple(itertools.product(G.objects, H.objects))
    homs = {
        ((a1, a2), (b1, b2)): sset_product(G.homs[(a1, b1)], H.homs[(a2, b2)])
        for (a1, a2), (b1, b2) in itertools.product(objects, repeat=2)
    }
    comp = {}
    for (a1, a2), (b1, b2), (c1, c2) in itertools.product(objects, repeat=3):
        per = {}
        for n in range(N + 1):
            t1 = G.comp[(a1, b1, c1)][n]
            t2 = H.comp[(a2, b2, c2)][n]
            per[n] = {
                ((g1, g2), (f1, f2)): (t1[(g1, f1)], t2[(g2, f2)])
                for (g1, f1) in t1
                for (g2, f2) in t2
            }
        comp[((a1, a2), (b1, b2), (c1, c2))] = per
    identities = {
        (a1, a2): (G.identities[a1], H.identities[a2]) for (a1, a2) in objects
    }
    return SimpGroupoid(N, objects, homs, comp, identities)


# ---------------------------------------------------------------------------
# Enriched functors.


@dataclass
class SgdFunctor:
    source: SimpGroupoid
    target: SimpGroupoid
    ob: dict      # object -> object
    maps: dict    # (a, b) -> {level: {hom simplex -> hom simplex}}

    def on_hom(self, a, b, n, f):
        return self.maps[(a, b)][n][f]


def sgd_functor(source, target, ob, on_hom):
    """Build from callables ob(a) and on_hom(a, b, n, f)."""
    obd = {a: ob(a) for a in source.objects}
    maps = {
        (a, b): {
            n: {f: on_hom(a, b, n, f) for f in source.homs[(a, b)].level(n)}
            for n in range(source.trunc + 1)
        }
        for a, b in itertools.product(source.objects, repeat=2)
    }
    return SgdFunctor(source, target, obd, maps)


@validator("input is an enriched functor")
def validate_sgd_functor(F: SgdFunctor):
    """Each hom map is a simplicial map; identities and composition are
    preserved."""
    problems = []
    G, H = F.source, F.target
    N = G.trunc
    for a in G.objects:
        if F.ob.get(a) not in H.objects:
            return [f"object map misses or mistypes {a!r}"]
    for a, b in itertools.product(G.objects, repeat=2):
        hom_t = H.homs[(F.ob[a], F.ob[b])]
        hom = validate_sset_map(SSetMap(G.homs[(a, b)], hom_t, F.maps.get((a, b), {})))
        if not hom:
            return [f"hom map at {(a, b)}: {hom.witness[0]}"]
    for a in G.objects:
        if F.on_hom(a, a, 0, G.identities[a]) != H.identities[F.ob[a]]:
            problems.append(f"does not preserve identity at {a!r}")
    for a, b, c in itertools.product(G.objects, repeat=3):
        for n in range(N + 1):
            for g in G.homs[(b, c)].level(n):
                for f in G.homs[(a, b)].level(n):
                    lhs = F.on_hom(a, c, n, G.compose(a, b, c, n, g, f))
                    rhs = H.compose(
                        F.ob[a], F.ob[b], F.ob[c], n,
                        F.on_hom(b, c, n, g), F.on_hom(a, b, n, f),
                    )
                    if lhs != rhs:
                        problems.append(f"does not preserve composition at {(a, b, c)} level {n}")
    return problems


# ---------------------------------------------------------------------------
# Nerve: a bisimplicial set, horizontally the levelwise nerve.


def _nerve_level_theta(H: SimpGroupoid, theta: OrdinalMap, q, simplex):
    """Horizontal ordinal action on a string of q-cells (x0, (f1, ..., fp))."""
    x0, fs = simplex
    objs = [x0]
    for a, b, f in string_steps(H, x0, fs, q):
        objs.append(b)
    new_fs = []
    for i in range(1, theta.dom + 1):
        p0, q0 = theta(i - 1), theta(i)
        if p0 == q0:
            new_fs.append(H.identity_at(objs[p0], q))
        else:
            new_fs.append(H.compose_path(objs[p0 : q0 + 1], q, list(fs[p0:q0])))
    return (objs[theta(0)], tuple(new_fs))


def string_steps(H: SimpGroupoid, x0, fs, q):
    """Recover the object chain of a string of q-cells by matching hom levels.

    Requires hom cell ids to be distinct across hom pairs with a common
    source object; every constructor here arranges that.
    """
    steps = []
    at = x0
    for f in fs:
        hits = [b for b in H.objects if H.homs[(at, b)].has(q, f)]
        if len(hits) != 1:
            raise InvariantError(f"cell {f!r} from {at!r} matches {len(hits)} targets")
        steps.append((at, hits[0], f))
        at = hits[0]
    return steps


def string_image(F: SgdFunctor, x0, fs, n):
    """The image under F of a string of n-cells starting at x0."""
    return tuple(F.on_hom(a, b, n, f) for a, b, f in string_steps(F.source, x0, fs, n))


def nerve_bidegrees(H: SimpGroupoid):
    """The build_bisset arguments of the nerve: at horizontal degree p and
    vertical degree q, strings of p composable q-cells."""
    N = H.trunc

    def levels(p, q):
        out = []

        def extend(x0, at, fs, k):
            if k == 0:
                out.append((x0, tuple(fs)))
                return
            for b in H.objects:
                for f in H.homs[(at, b)].level(q):
                    extend(x0, b, fs + [f], k - 1)

        for x0 in H.objects:
            extend(x0, x0, [], p)
        return out

    def hface(p, q, i, x):
        return _nerve_level_theta(H, coface(p, i), q, x)

    def hdeg(p, q, j, x):
        return _nerve_level_theta(H, codegeneracy(p, j), q, x)

    def vface(p, q, i, x):
        x0, fs = x
        steps = string_steps(H, x0, fs, q)
        return (x0, tuple(H.homs[(a, b)].face(q, i, f) for a, b, f in steps))

    def vdeg(p, q, j, x):
        x0, fs = x
        steps = string_steps(H, x0, fs, q)
        return (x0, tuple(H.homs[(a, b)].degen(q, j, f) for a, b, f in steps))

    return N, levels, hface, vface, hdeg, vdeg


def nerve_sgroupoid(H: SimpGroupoid) -> BisSSet:
    return build_bisset(*nerve_bidegrees(H))


def db_sgroupoid(H: SimpGroupoid) -> TruncSSet:
    """Diagonal of the nerve: n-simplices are strings of n composable n-cells."""
    return diagonal(*nerve_bidegrees(H))


def identity_functor(H: SimpGroupoid) -> SgdFunctor:
    return sgd_functor(H, H, lambda a: a, lambda a, b, n, f: f)


def db_map(F: SgdFunctor, B, B2):
    """The map B -> B2 induced by an enriched functor, between the
    diagonal nerves of its source and target."""

    def assign(n, s):
        x0, fs = s
        return (F.ob[x0], string_image(F, x0, fs, n))

    return sset_map(B, B2, assign)
