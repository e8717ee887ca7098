"""Presheaves on a finite site, stored as explicit tables.

Four value kinds cover everything downstream: plain sets, finite
groups, truncated simplicial sets, and enriched groupoids.  Restriction
tables are indexed by the morphism being restricted along: res[f] for
f: V -> U carries sections over U to sections over V.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .groupoid import FinGroup
from .report import validator
from .search import solve
from .sgroupoid import (
    SimpGroupoid,
    constant_sset,
    sgd_functor,
    validate_sgd_functor,
    validate_sgroupoid,
)
from .site import FinSite
from .sset import SSetMap, TruncSSet, idkey, point, sset_map, validate_sset, validate_sset_map


@dataclass
class SetPresheaf:
    site: FinSite
    values: dict   # object -> tuple
    res: dict      # morphism -> {section over dst -> section over src}


def set_presheaf(site, value, restrict):
    """Build from callables value(U) and restrict(f, s)."""
    values = {U: tuple(sorted(value(U), key=idkey)) for U in site.objects}
    res = {
        f: {s: restrict(f, s) for s in values[site.cat.dst(f)]}
        for f in site.morphisms
    }
    return SetPresheaf(site, values, res)


@validator("input is a presheaf of sets")
def validate_set_presheaf(P: SetPresheaf):
    problems = []
    C = P.site.cat
    for f, (V, U) in C.morphisms.items():
        tab, below = P.res.get(f), set(P.values[V])
        if tab is None:
            problems.append(f"no restriction along {f!r}")
            continue
        for s in P.values[U]:
            if s not in tab or tab[s] not in below:
                problems.append(f"restriction along {f!r} mistyped at {s!r}")
    if problems:
        return problems
    for U in C.objects:
        e = C.identities[U]
        for s in P.values[U]:
            if P.res[e][s] != s:
                problems.append(f"identity restriction moves {s!r} at {U!r}")
    for f, (V, U) in C.morphisms.items():
        for g, (W, V2) in C.morphisms.items():
            if V2 != V:
                continue
            fg = C.comp[(f, g)]
            for s in P.values[U]:
                if P.res[fg][s] != P.res[g][P.res[f][s]]:
                    problems.append(f"restrictions break composition {f!r},{g!r}")
    return problems


def terminal_presheaf(site) -> SetPresheaf:
    return set_presheaf(site, lambda U: ("*",), lambda f, s: "*")


def yoneda(site, U) -> SetPresheaf:
    """Sections over V are the morphisms V -> U."""
    C = site.cat
    return set_presheaf(
        site, lambda V: C.hom(V, U), lambda f, h: C.comp[(h, f)]
    )


def product_set_presheaf(P: SetPresheaf, Q: SetPresheaf) -> SetPresheaf:
    return set_presheaf(
        P.site,
        lambda U: itertools.product(P.values[U], Q.values[U]),
        lambda f, s: (P.res[f][s[0]], Q.res[f][s[1]]),
    )


@dataclass
class SetPresheafMap:
    source: SetPresheaf
    target: SetPresheaf
    components: dict   # object -> {section -> section}


def set_presheaf_map(P, Q, component):
    return SetPresheafMap(
        P, Q,
        {U: {s: component(U, s) for s in P.values[U]} for U in P.site.objects},
    )


@validator("input is a presheaf map")
def validate_set_presheaf_map(phi: SetPresheafMap):
    P, Q = phi.source, phi.target
    problems = []
    for U in P.site.objects:
        tab, sections = phi.components.get(U), set(Q.values[U])
        if tab is None:
            problems.append(f"no component at {U!r}")
            continue
        for s in P.values[U]:
            if s not in tab or tab[s] not in sections:
                problems.append(f"component at {U!r} mistyped at {s!r}")
    if problems:
        return problems
    for f, (V, U) in P.site.cat.morphisms.items():
        for s in P.values[U]:
            if phi.components[V][P.res[f][s]] != Q.res[f][phi.components[U][s]]:
                problems.append(f"naturality fails along {f!r} at {s!r}")
    return problems


def natural_maps(P: SetPresheaf, Q: SetPresheaf, constraints):
    """Natural maps P -> Q that also satisfy ``constraints``, each a
    (scope, pred) pair whose scope lists sections (U, s) of P.

    One slot per section (U, s) of P ranges over Q(U), and every
    restriction adds the naturality constraint between a section and its
    restriction.
    """
    domains = {
        (U, s): Q.values[U] for U in sorted(P.site.objects, key=idkey) for s in P.values[U]
    }
    natural = [
        (((U, s), (V, P.res[f][s])), lambda t, down, r=Q.res[f]: down == r[t])
        for f, (V, U) in P.site.cat.morphisms.items()
        for s in P.values[U]
    ]
    return [
        SetPresheafMap(P, Q, {
            U: {s: values[(U, s)] for s in P.values[U]} for U in P.site.objects
        })
        for values in solve(domains, natural + list(constraints))
    ]


def enumerate_presheaf_maps(P: SetPresheaf, Q: SetPresheaf):
    """All natural maps P -> Q."""
    return natural_maps(P, Q, ())


# ---------------------------------------------------------------------------
# Group-valued presheaves.


@dataclass
class GroupPresheaf:
    site: FinSite
    values: dict   # object -> FinGroup
    res: dict      # morphism -> {element -> element}

    def underlying(self) -> SetPresheaf:
        return SetPresheaf(
            self.site,
            {U: tuple(F.elements) for U, F in self.values.items()},
            self.res,
        )


@validator("input is a presheaf of groups")
def validate_group_presheaf(G: GroupPresheaf):
    sets = validate_set_presheaf(G.underlying())
    if not sets:
        return sets.witness
    problems = []
    C = G.site.cat
    for f, (V, U) in C.morphisms.items():
        FU, FV = G.values[U], G.values[V]
        for a, b in itertools.product(FU.elements, repeat=2):
            if G.res[f][FU.mul[(a, b)]] != FV.mul[(G.res[f][a], G.res[f][b])]:
                problems.append(f"restriction along {f!r} is not a homomorphism")
    return problems


def constant_group_presheaf(site, F: FinGroup) -> GroupPresheaf:
    return GroupPresheaf(
        site,
        {U: F for U in site.objects},
        {f: {g: g for g in F.elements} for f in site.morphisms},
    )


# ---------------------------------------------------------------------------
# Simplicial-set-valued presheaves.


@dataclass
class SSetPresheaf:
    site: FinSite
    values: dict   # object -> TruncSSet
    res: dict      # morphism -> {dim: {id: id}}

    @property
    def trunc(self):
        return next(iter(self.values.values())).trunc

    def res_map(self, f) -> SSetMap:
        V, U = self.site.cat.morphisms[f]
        return SSetMap(self.values[U], self.values[V], self.res[f])


def sset_presheaf(site, value, restrict):
    """Build from callables value(U) -> TruncSSet, restrict(f, n, x); each
    restriction is ``sset_map``'s, so restrict runs on roots only."""
    values = {U: value(U) for U in site.objects}
    res = {
        f: sset_map(values[U], values[V], lambda n, x, f=f: restrict(f, n, x)).levels
        for f, (V, U) in site.cat.morphisms.items()
    }
    return SSetPresheaf(site, values, res)


@validator("input is a simplicial presheaf")
def validate_sset_presheaf(Y: SSetPresheaf):
    """Sections are simplicial sets, restrictions simplicial maps, and
    each level is a presheaf of sets."""
    problems = []
    truncs = {X.trunc for X in Y.values.values()}
    if len(truncs) != 1:
        return ["sections have mixed truncations"]
    for U, X in Y.values.items():
        sections = validate_sset(X)
        if not sections:
            problems.append(f"sections over {U!r}: {sections.witness[0]}")
    if problems:
        return problems
    for f in Y.site.cat.morphisms:
        restriction = validate_sset_map(Y.res_map(f))
        if not restriction:
            problems.append(f"restriction along {f!r}: {restriction.witness[0]}")
    if problems:
        return problems
    for n in range(Y.trunc + 1):
        level = validate_set_presheaf(_level_presheaf(Y, n))
        if not level:
            problems.append(f"level {n}: {level.witness[0]}")
    return problems


def _level_presheaf(Y: SSetPresheaf, n) -> SetPresheaf:
    """The presheaf of level-n simplices."""
    return SetPresheaf(
        Y.site,
        {U: X.level(n) for U, X in Y.values.items()},
        {f: tab.get(n, {}) for f, tab in Y.res.items()},
    )


def constant_sset_presheaf(site, X: TruncSSet) -> SSetPresheaf:
    return sset_presheaf(site, lambda U: X, lambda f, n, x: x)


def terminal_sset_presheaf(site, trunc) -> SSetPresheaf:
    return constant_sset_presheaf(site, point(trunc))


def yoneda_sset_presheaf(site, U, trunc) -> SSetPresheaf:
    """The represented presheaf viewed as discrete simplicial sets."""
    P = yoneda(site, U)
    return sset_presheaf(
        site, lambda V: constant_sset(P.values[V], trunc), lambda f, n, x: P.res[f][x]
    )


@dataclass
class SSetPresheafMap:
    source: SSetPresheaf
    target: SSetPresheaf
    components: dict   # object -> {dim: {id: id}}

    def component(self, U) -> SSetMap:
        return SSetMap(self.source.values[U], self.target.values[U], self.components[U])


def sset_presheaf_map(Y, Z, component):
    """Build from a callable component(U, n, x); each component is
    ``sset_map``'s, so component runs on roots only."""
    comps = {
        U: sset_map(Y.values[U], Z.values[U], lambda n, x, U=U: component(U, n, x)).levels
        for U in Y.site.objects
    }
    return SSetPresheafMap(Y, Z, comps)


@validator("input is a presheaf map")
def validate_sset_presheaf_map(phi: SSetPresheafMap):
    Y, Z = phi.source, phi.target
    problems = []
    for U in Y.site.objects:
        component = validate_sset_map(phi.component(U))
        if not component:
            problems.append(f"component at {U!r}: {component.witness[0]}")
    if problems:
        return problems
    for n in range(Y.trunc + 1):
        level = validate_set_presheaf_map(SetPresheafMap(
            _level_presheaf(Y, n), _level_presheaf(Z, n),
            {U: tab.get(n, {}) for U, tab in phi.components.items()},
        ))
        if not level:
            problems.append(f"level {n}: {level.witness[0]}")
    return problems


def natural_square(X: TruncSSet, r_src, r_dst):
    """The predicate on simplicial maps (m_src, m_dst) that m_dst r_src =
    r_dst m_src on X, the source of m_src; r_src and r_dst are the
    restriction tables along one arrow.  Both sides are simplicial maps,
    so they agree exactly when they agree on X's roots, and only roots
    are compared: as whole levels, level 0 first, so a mismatch low down
    still ends the comparison early."""
    plan = [
        (n, X.nondegenerate(n), [r_src[n][x] for x in X.nondegenerate(n)], r_dst[n].__getitem__)
        for n in range(X.trunc + 1)
    ]

    def square(m_src, m_dst):
        for n, xs, restricted, down in plan:
            if list(map(m_dst.levels[n].__getitem__, restricted)) != list(
                map(down, map(m_src.levels[n].__getitem__, xs))
            ):
                return False
        return True

    return square


# ---------------------------------------------------------------------------
# Enriched-groupoid-valued presheaves.


@dataclass
class SgdPresheaf:
    site: FinSite
    values: dict   # object -> SimpGroupoid
    res: dict      # morphism -> SgdFunctor

    @property
    def trunc(self):
        return next(iter(self.values.values())).trunc


@validator("input is a presheaf of enriched groupoids")
def validate_sgd_presheaf(Q: SgdPresheaf):
    """Sections are enriched groupoids, restrictions enriched functors
    between them, and the restrictions satisfy the presheaf laws."""
    problems = []
    for U, H in Q.values.items():
        sections = validate_sgroupoid(H)
        if not sections:
            problems.append(f"sections over {U!r}: {sections.witness[0]}")
    if problems:
        return problems
    for f, (V, U) in Q.site.cat.morphisms.items():
        F = Q.res[f]
        if F.source is not Q.values[U] or F.target is not Q.values[V]:
            problems.append(f"restriction along {f!r} connects the wrong sections")
            continue
        restriction = validate_sgd_functor(F)
        if not restriction:
            problems.append(f"restriction along {f!r}: {restriction.witness[0]}")
    if problems:
        return problems
    laws = validate_sgd_presheaf_laws(Q)
    return [] if laws else laws.witness


@validator("restrictions satisfy the presheaf laws")
def validate_sgd_presheaf_laws(Q: SgdPresheaf):
    """The identity and composition laws of restrictions that are
    already enriched functors: the objects, and the level-n cells
    (a, b, c) with c in hom(a, b), are presheaves of sets."""
    problems = []
    objects = set_presheaf(Q.site, lambda U: Q.values[U].objects, lambda f, a: Q.res[f].ob[a])
    laws = validate_set_presheaf(objects)
    if not laws:
        return [f"objects: {laws.witness[0]}"]
    for n in range(max(H.trunc for H in Q.values.values()) + 1):
        cells = set_presheaf(
            Q.site,
            lambda U: [(a, b, c) for (a, b), hom in Q.values[U].homs.items() for c in hom.level(n)],
            lambda f, s: (Q.res[f].ob[s[0]], Q.res[f].ob[s[1]], Q.res[f].on_hom(*s[:2], n, s[2])),
        )
        laws = validate_set_presheaf(cells)
        if not laws:
            problems.append(f"cells at level {n}: {laws.witness[0]}")
    return problems


def constant_sgd_presheaf(site, H: SimpGroupoid) -> SgdPresheaf:
    ident = sgd_functor(H, H, lambda a: a, lambda a, b, n, c: c)
    return SgdPresheaf(site, {U: H for U in site.objects}, {f: ident for f in site.morphisms})


def fixed_objects(sections, object_maps):
    """The objects that every section has and every restriction's
    object map fixes, sorted by id: where a constant choice of object
    is natural."""
    shared = set.intersection(*(set(H.objects) for H in sections))
    return sorted((a for a in shared if all(ob.get(a) == a for ob in object_maps)), key=idkey)
