"""Torsors with simplicial coefficients.

Three flavours, in increasing generality of the coefficients: an
enriched group presheaf acting on a simplicial presheaf, a diagram of
simplicial presheaves over an enriched groupoid presheaf, and an action
of a 2-groupoid on anchored element families.  In each case the torsor
verdict is the same: the assembled total object (homotopy colimit, or
display) must be locally trivial over the site.  An enriched group is a
one-object enriched groupoid, so an enriched group action is the
one-object SgdDiagram: the first two flavours share one type, one
validator and one assembler, ``holim_presheaf``, whose value on an
action is its Borel construction.  A 2-groupoid acts on anchored
elements through its 1-cells alone, so a 2-groupoid action is the
1-cell ActionTorsor of torsors.py plus the cocycle object of the
2-groupoid its display is built over.

The conversions between torsors and maps into the classifying presheaf
run through pullbacks of the total-object quotient and through comma
constructions; both directions are kept exact so the classification
counts can be matched class by class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .groupoid import make_group, trivial_groupoid
from .holim import (
    SimplicialFunctor,
    comma_construction_functor,
    comma_db,
    corepresented_functor,
    holim,
    holim_2gpd,
    simplicial_functor,
    validate_simplicial_functor,
)
from .kan import enumerate_sset_maps, fibration_check, iterated_degeneracy
from .presheaf import (
    GroupPresheaf,
    SetPresheaf,
    SgdPresheaf,
    SSetPresheaf,
    SSetPresheafMap,
    constant_sgd_presheaf,
    constant_sset_presheaf,
    natural_maps,
    natural_square,
    set_presheaf,
    sset_presheaf,
    sset_presheaf_map,
    validate_set_presheaf,
)
from .report import Check, invariant, require, validator
from .search import Dependent, require_bound, solve
from .sgroupoid import (
    SimpGroupoid,
    constant_sgroupoid,
    level_groupoid,
    sgd_functor,
    string_image,
)
from .sheaf import PLUS_STEPS, cover_elements
from .sset import SSetMap, TruncSSet, build_sset, idkey, sset_map, subcomplex, validate_sset_map
from .torsors import (
    ActionTorsor,
    GroupoidPresheaf,
    _cocycle_presheaf,
    _equivariance,
    _shared_values,
    display_torsor_check,
    group_action_torsor,
    locally_trivial_check,
    w_total_presheaf,
)
from .wbar import w_action, w_quotient_map


def _one_object(H):
    (a,) = H.objects
    return a


# ---------------------------------------------------------------------------
# Actions of an enriched group presheaf on a simplicial presheaf.  An
# enriched group is a one-object enriched groupoid, so an action is the
# one-object SgdDiagram below: its value at the object of each section
# is the space, and its restriction there is the space's.


def sgroup_action(Q: SgdPresheaf, space: SSetPresheaf, act) -> SgdDiagram:
    """The one-object diagram of Q acting on space by the callable
    act(U, n, g, x)."""
    site = Q.site
    functors = {
        U: simplicial_functor(
            Q.values[U],
            lambda _, U=U: space.values[U],
            lambda a, b, n, g, x, U=U: act(U, n, g, x),
        )
        for U in site.objects
    }
    res = {
        f: {_one_object(Q.values[U]): space.res[f]}
        for f, (V, U) in site.cat.morphisms.items()
    }
    return SgdDiagram(Q, functors, res)


def _space(D: SgdDiagram) -> SSetPresheaf:
    """The simplicial presheaf a one-object diagram acts on."""
    Q = D.coeff
    point = {U: _one_object(H) for U, H in Q.values.items()}
    return SSetPresheaf(
        Q.site,
        {U: D.functors[U].values[point[U]] for U in Q.site.objects},
        {f: D.res[f][point[U]] for f, (V, U) in Q.site.cat.morphisms.items()},
    )


@validator("action tables are simplicial and natural")
def validate_sgroup_action(D: SgdDiagram):
    """Every section of the coefficients has one object, and the diagram
    is valid."""
    for U in D.coeff.site.objects:
        if len(D.coeff.values[U].objects) != 1:
            return [f"coefficients over {U!r} have several objects"]
    diagram = validate_sgd_diagram(D)
    return [] if diagram else diagram.witness


def sgroup_free_action_check(D: SgdDiagram) -> Check:
    hits = []
    for U in D.coeff.site.objects:
        H = D.coeff.values[U]
        a = _one_object(H)
        for n, tab in D.functors[U].action[(a, a)].items():
            e = H.identity_at(a, n)
            hits.extend(
                (U, n, g, x) for (g, x), y in tab.items() if y == x and g != e
            )
    return require(not hits, "cells act freely in every section and level",
                   witness=hits[:3])


def wg_action(Q: SgdPresheaf) -> SgdDiagram:
    """The universal free action on the total object."""
    space = w_total_presheaf(Q)
    return sgroup_action(Q, space, lambda U, n, g, x: w_action(Q.values[U], n, g, x))


def twisted_sgroup_action(Q: SgdPresheaf, cochain) -> SgdDiagram:
    """The group of each section acting on itself contravariantly, with
    restriction twisted on the left by a vertex cell per site morphism;
    the two sides commute without any commutativity of the group."""
    point = {U: _one_object(H) for U, H in Q.values.items()}
    cells = _shared_values(Q.values, lambda H: H.homs[(_one_object(H), _one_object(H))])

    def restrict(f, n, x):
        V, U = Q.site.cat.morphisms[f]
        HV, aU, aV = Q.values[V], point[U], point[V]
        return HV.compose(
            aV, aV, aV, n,
            iterated_degeneracy(HV.homs[(aV, aV)], cochain[f], n),
            Q.res[f].on_hom(aU, aU, n, x),
        )

    def act(U, n, g, x):
        H, a = Q.values[U], point[U]
        return H.compose(a, a, a, n, x, H.inverse(a, a, n, g))

    return sgroup_action(Q, sset_presheaf(Q.site, cells.__getitem__, restrict), act)


def vertex_group_presheaf(Q: SgdPresheaf):
    """Level-zero cells of a one-object enriched group presheaf, as a
    plain group presheaf."""
    site = Q.site
    groups = _shared_values(
        Q.values,
        lambda H: make_group(
            "vertex cells",
            tuple(sorted(H.homs[(_one_object(H), _one_object(H))].level(0), key=idkey)),
            lambda g, h: H.compose(
                _one_object(H), _one_object(H), _one_object(H), 0, g, h
            ),
        ),
    )
    gres = {
        f: {
            g: Q.res[f].on_hom(_one_object(Q.values[U]), _one_object(Q.values[U]), 0, g)
            for g in groups[U].elements
        }
        for f, (V, U) in site.cat.morphisms.items()
    }
    return GroupPresheaf(site, groups, gres)


def vertex_groupoid_presheaf(Q: SgdPresheaf):
    """Level-zero cells of an enriched presheaf, as a plain groupoid
    presheaf."""
    site = Q.site
    values = _shared_values(Q.values, lambda H: level_groupoid(H, 0))
    res = {}
    for f, (V, U) in site.cat.morphisms.items():
        F = Q.res[f]
        obmap = {a: F.ob[a] for a in values[U].objects}
        mormap = {
            (a, b, c): (F.ob[a], F.ob[b], F.on_hom(a, b, 0, c))
            for (a, b, c) in values[U].morphisms
        }
        res[f] = (obmap, mormap)
    return GroupoidPresheaf(site, values, res)


def level0_group_torsor(D: SgdDiagram):
    """The vertex-level set torsor of an action: level-zero cells acting
    on level-zero simplices on the right, anchored at "*"."""
    G, X = vertex_group_presheaf(D.coeff), _space(D)
    total = set_presheaf(G.site, lambda U: X.values[U].level(0), lambda f, e: X.res[f][0][e])

    def act(U, e, g):
        a = _one_object(D.coeff.values[U])
        return D.functors[U].act(a, a, 0, G.values[U].inv[g], e)

    return group_action_torsor(G, total, act)


def orbit_tables(D: SgdDiagram, U):
    """Orbit representative of every simplex, by least id."""
    H = D.coeff.values[U]
    a = _one_object(H)
    X = D.functors[U]
    rep = {}
    for n in range(H.trunc + 1):
        cells = H.homs[(a, a)].level(n)
        for x in X.values[a].level(n):
            orbit = {X.act(a, a, n, g, x) for g in cells}
            rep[(n, x)] = min(orbit, key=idkey)
    return rep


def sgroup_quotient(D: SgdDiagram, maxdim=None):
    """The levelwise orbit presheaf, the projection onto it, and a check
    that the projection is a sectionwise fibration."""
    site, Y = D.coeff.site, _space(D)
    reps = {U: orbit_tables(D, U) for U in site.objects}

    def value(U):
        X, rep = Y.values[U], reps[U]
        return build_sset(
            X.trunc,
            lambda n: (rep[(n, x)] for x in X.level(n)),
            lambda n, i, r: rep[(n - 1, X.face(n, i, r))],
            lambda n, j, r: rep[(n + 1, X.degen(n, j, r))],
        )

    space = sset_presheaf(
        site, value, lambda f, n, x: reps[site.cat.src(f)][(n, Y.res[f][n][x])]
    )
    q = sset_presheaf_map(Y, space, lambda U, n, x: reps[U][(n, x)])
    check = Check("orbit projection is a sectionwise fibration", True,
                  params={"maxdim": maxdim})
    for U in site.objects:
        part = fibration_check(q.component(U), maxdim)
        part.claim = f"horns over {U!r} lift"
        check.add(part)
    return space, q, check


def borel_to_quotient(D: SgdDiagram) -> SSetPresheafMap:
    """Forget the cell string and project the space coordinate to orbits;
    a sectionwise equivalence whenever the action is free."""
    space, q, _ = sgroup_quotient(D)
    return sset_presheaf_map(
        holim_presheaf(D), space, lambda U, n, s: q.components[U][n][s[1]]
    )


def sgroup_torsor_check(D: SgdDiagram) -> Check:
    return _holim_torsor_check(
        "action presents a torsor for the enriched group",
        "quotient by the action is locally trivial",
        validate_sgroup_action(D), D,
    )


# ---------------------------------------------------------------------------
# From maps into the cocycle object back to actions: pull the total
# object along the map.  The orbit space of the result is the source of
# the map on the nose.


def w_quotient_presheaf_map(Q: SgdPresheaf) -> SSetPresheafMap:
    """The forgetful map from the total object to the cocycle object."""
    quotients = _shared_values(Q.values, w_quotient_map)
    WT = _cocycle_presheaf(Q, {U: q.source for U, q in quotients.items()}, 1)
    WB = _cocycle_presheaf(Q, {U: q.target for U, q in quotients.items()}, 0)
    return SSetPresheafMap(WT, WB, {U: q.levels for U, q in quotients.items()})


def psi_sgroup(u: SSetPresheafMap, Q: SgdPresheaf):
    """Pull the total object back along u; returns the action and the
    projection identifying the orbit presheaf with u's source."""
    C = u.source
    quot = w_quotient_presheaf_map(Q)
    WT = quot.source

    def value(U):
        X, W = C.values[U], WT.values[U]
        over, under = u.components[U], quot.components[U]
        return build_sset(
            X.trunc,
            lambda n: (
                (c, w) for c in X.level(n) for w in W.level(n) if over[n][c] == under[n][w]
            ),
            lambda n, i, s: (X.face(n, i, s[0]), W.face(n, i, s[1])),
            lambda n, j, s: (X.degen(n, j, s[0]), W.degen(n, j, s[1])),
        )

    space = sset_presheaf(
        Q.site, value, lambda f, n, s: (C.res[f][n][s[0]], WT.res[f][n][s[1]])
    )
    D = sgroup_action(
        Q, space, lambda U, n, g, x: (x[0], w_action(Q.values[U], n, g, x[1]))
    )
    return D, sset_presheaf_map(space, C, lambda U, n, s: s[0])


# ---------------------------------------------------------------------------
# Diagrams of simplicial presheaves over an enriched groupoid presheaf.
# The torsor condition asks the assembled homotopy colimit to be locally
# trivial.


@dataclass
class SgdDiagram:
    coeff: SgdPresheaf
    functors: dict   # object -> SimplicialFunctor on coeff.values[U]
    res: dict        # morphism -> {object a: {level: {simplex: simplex}}}


@validator("diagram is functorial and natural")
def validate_sgd_diagram(D: SgdDiagram):
    """Each section is a valid simplicial functor, each restriction
    component a simplicial map, the value cells (a, x) of each level
    form a presheaf of sets, and restriction commutes with the
    actions."""
    problems = []
    for U in D.coeff.site.objects:
        functor = validate_simplicial_functor(D.functors[U])
        if not functor:
            problems.append(f"diagram over {U!r}: {functor.witness[0]}")
    if problems:
        return problems
    for f, (V, U) in D.coeff.site.cat.morphisms.items():
        F, XU, XV = D.coeff.res[f], D.functors[U], D.functors[V]
        for a in D.coeff.values[U].objects:
            tab = D.res.get(f, {}).get(a, {})
            restriction = validate_sset_map(SSetMap(XU.values[a], XV.values[F.ob[a]], tab))
            if not restriction:
                problems.append(f"restriction along {f!r} at {a!r}: {restriction.witness[0]}")
    if problems:
        return problems
    site = D.coeff.site
    for n in range(D.coeff.trunc + 1):
        cells = {
            U: [(a, x) for a, X in D.functors[U].values.items() for x in X.level(n)]
            for U in site.objects
        }
        res = {
            f: {(a, x): (D.coeff.res[f].ob[a], D.res[f][a][n][x]) for a, x in cells[U]}
            for f, (V, U) in site.cat.morphisms.items()
        }
        laws = validate_set_presheaf(SetPresheaf(site, cells, res))
        if not laws:
            problems.append(f"value cells at level {n}: {laws.witness[0]}")
    if problems:
        return problems
    for f, (V, U) in D.coeff.site.cat.morphisms.items():
        F, XU, XV = D.coeff.res[f], D.functors[U], D.functors[V]
        for (a, b), levels in XU.action.items():
            for n, cells in levels.items():
                for (g, x), y in cells.items():
                    lhs = D.res[f][b][n][y]
                    rhs = XV.act(
                        F.ob[a], F.ob[b], n, F.on_hom(a, b, n, g), D.res[f][a][n][x]
                    )
                    if lhs != rhs:
                        problems.append(
                            f"restriction along {f!r} not equivariant at {(a, b)!r}"
                        )
    return problems


def holim_presheaf(D: SgdDiagram) -> SSetPresheaf:
    """The homotopy colimit of each section, restricted along the site."""
    Q = D.coeff

    def restrict(f, n, s):
        F = Q.res[f]
        a0, x, fs = s
        return (F.ob[a0], D.res[f][a0][n][x], string_image(F, a0, fs, n))

    carriers = _shared_values(D.functors, holim)
    return sset_presheaf(Q.site, carriers.__getitem__, restrict)


def _holim_torsor_check(claim, local_claim, valid: Check, D: SgdDiagram) -> Check:
    """A diagram D presents a torsor when it is valid and its homotopy
    colimit is locally trivial; D is read only once ``valid`` holds."""
    check = Check(claim, True, params={"depth": PLUS_STEPS})
    if check.add(valid):
        check.add(locally_trivial_check(holim_presheaf(D), local_claim))
    return check


def sgd_torsor_check(D: SgdDiagram) -> Check:
    return _holim_torsor_check(
        "diagram presents a torsor for the enriched groupoid",
        "homotopy colimit is locally trivial",
        validate_sgd_diagram(D), D,
    )


def corepresented_diagram(Q: SgdPresheaf, at) -> SgdDiagram:
    """The diagram of cells out of a chosen object; at maps site objects
    to groupoid objects, a plain object meaning the same choice
    everywhere."""
    if not isinstance(at, dict):
        at = {U: at for U in Q.site.objects}
    built = {}
    functors = {}
    for U in Q.site.objects:
        key = (id(Q.values[U]), at[U])
        if key not in built:
            built[key] = corepresented_functor(Q.values[U], at[U])
        functors[U] = built[key]
    res = {}
    for f, (V, U) in Q.site.cat.morphisms.items():
        F = Q.res[f]
        invariant(F.ob[at[U]] == at[V], "chosen objects are not natural")
        # copied, so a change to the diagram cannot reach Q's functor
        res[f] = {
            a: {n: dict(tab) for n, tab in F.maps[(at[U], a)].items()}
            for a in Q.values[U].objects
        }
    return SgdDiagram(Q, functors, res)


def equivariant_square(F1: SimplicialFunctor, F2: SimplicialFunctor, a, b):
    """The predicate on simplicial maps (m_b, m_a), from F1's values at b
    and at a to F2's, that m_b(g x) = g m_a(x) for every cell g of
    hom(a, b) and simplex x; both sides are compared as whole levels,
    level 0 first, so a mismatch low down still ends the comparison
    early."""
    acts = F2.action[(a, b)]
    plan = [
        (n, list(cells.values()), [g for g, _ in cells], [x for _, x in cells],
         acts[n].__getitem__)
        for n, cells in F1.action[(a, b)].items()
    ]

    def square(m_b, m_a):
        for n, moved, cells, xs, act in plan:
            if list(map(m_b.levels[n].__getitem__, moved)) != list(
                map(act, zip(cells, map(m_a.levels[n].__getitem__, xs)))
            ):
                return False
        return True

    return square


def sgd_diagram_search(bound=None):
    """The map search between the diagrams of one grouping, compiled
    once: a function (D1, D2) -> the families of levelwise tables
    commuting with the actions and the restrictions, as dicts keyed
    (U, a).  There is one slot per site object U and groupoid object a,
    ranging over the simplicial maps between the two values there that
    commute with the action of hom(a, a); ``bound`` caps the product of
    the numbers of simplicial maps before that filter.

    The maps between the values at a of two functors are enumerated and
    filtered once for every run of the search, in a memo keyed by the
    functors' ids that holds the functors, so no id is reused while the
    search lives.  Runs share the kept maps, which are read-only."""
    memo = {}

    def slot(F1, F2, a):
        """The number of simplicial maps F1(a) -> F2(a), and the list of
        those that commute with the action of hom(a, a)."""
        key = (id(F1), id(F2), a)
        if key not in memo:
            square = equivariant_square(F1, F2, a, a)
            maps = enumerate_sset_maps(F1.values[a], F2.values[a])
            memo[key] = (F1, F2, len(maps), [m for m in maps if square(m, m)])
        return memo[key][2:]

    def search(D1: SgdDiagram, D2: SgdDiagram):
        site = D1.coeff.site
        sizes, domains = [], {}
        for U in site.objects:
            for a in D1.coeff.values[U].objects:
                size, domains[(U, a)] = slot(D1.functors[U], D2.functors[U], a)
                if not size:
                    return []
                sizes.append(size)
        require_bound(sizes, bound)

        constraints = [
            (((U, b), (U, a)), equivariant_square(D1.functors[U], D2.functors[U], a, b))
            for U in site.objects
            for a, b in D1.functors[U].action
            if a != b
        ] + [
            (
                ((U, a), (V, D1.coeff.res[f].ob[a])),
                natural_square(D1.functors[U].values[a], D1.res[f][a], D2.res[f][a]),
            )
            for f, (V, U) in site.cat.morphisms.items()
            for a in D1.coeff.values[U].objects
        ]
        return solve(domains, constraints)

    return search


def sgd_diagram_maps(D1: SgdDiagram, D2: SgdDiagram, bound=None, search=None):
    """The maps of ``sgd_diagram_search(bound)`` from D1 to D2: that
    search compiled, then run once.  A caller asking many questions of
    one grouping passes its compiled ``search`` instead, which carries
    its own bound; every diagram-map question runs through here."""
    return (search or sgd_diagram_search(bound))(D1, D2)


# ---------------------------------------------------------------------------
# Maps of enriched groupoid presheaves, their Cech resolutions, and the
# comma construction sending a map to a diagram.


@dataclass
class SgdPresheafMap:
    source: SgdPresheaf
    target: SgdPresheaf
    components: dict   # object -> SgdFunctor


def unit_sgd_presheaf(site, trunc) -> SgdPresheaf:
    return constant_sgd_presheaf(site, constant_sgroupoid(trivial_groupoid(("*",)), trunc))


def cech_sgd_presheaf(site, cover, trunc) -> SgdPresheaf:
    """Sectionwise chaotic enriched groupoids on the elements of a cover
    family, restricting by composition.  Its diagonal nerve is the
    usual resolution of the cover and is locally trivial."""
    E = cover_elements(site, cover)
    values = {
        U: constant_sgroupoid(trivial_groupoid(E.values[U]), trunc)
        for U in site.objects
    }
    res = {}
    for f, (V, U) in site.cat.morphisms.items():
        tab = E.res[f]
        # the one cell of hom(x, y) in a chaotic groupoid is the pair (x, y)
        res[f] = sgd_functor(
            values[U], values[V], tab.__getitem__, lambda a, b, n, c: (tab[a], tab[b])
        )
    return SgdPresheaf(site, values, res)


def constant_enrichment(H) -> bool:
    """Every hom has the ids of its vertex level at every level.  Then
    every simplex above level 0 is degenerate, though the degeneracies
    may relabel it, so a map out of the hom is filled from its values
    on vertices by the target's degeneracies, never copied by id."""
    base = {pair: set(hom.level(0)) for pair, hom in H.homs.items()}
    return all(
        set(hom.level(n)) == base[pair]
        for pair, hom in H.homs.items()
        for n in range(H.trunc + 1)
    )


def require_constant_enrichment(*presheaves):
    """Raise ValueError unless every section of every presheaf has
    constant hom enrichments, the only ones the enumerations handle."""
    if not all(constant_enrichment(H) for R in presheaves for H in R.values.values()):
        raise ValueError("enumeration needs constant hom enrichments")


def enumerate_sgd_presheaf_maps(P: SgdPresheaf, Q: SgdPresheaf, bound=None):
    """All presheaf maps, for constant-enrichment sections: a component
    is fixed by its object map and its vertex-level cell map, from which
    ``sgd_functor`` fills the levels above.

    One slot (U, a) per source object ranges over the target objects,
    then one slot (U, a, b, c) per vertex-level source cell over the
    vertex-level cells of the hom that slots (U, a) and (U, b) pick out.
    Each law is one constraint at level 0: per identity, per composite
    of vertex-level cells, and, along each site morphism, per object and
    per vertex-level cell restricted.  Composition and restriction are
    simplicial, so the laws at level 0 give them at every level.

    Charts that give U's slots the same values share one component
    object at U, built once, so components are read-only."""
    require_constant_enrichment(P, Q)
    site = P.site
    domains = {
        (U, a): tuple(Q.values[U].objects) for U in site.objects for a in P.values[U].objects
    }
    constraints = []
    for U in site.objects:
        H, K = P.values[U], Q.values[U]
        for (a, b), hom in H.homs.items():
            for c in hom.level(0):
                domains[(U, a, b, c)] = Dependent(
                    ((U, a), (U, b)), lambda x, y, homs=K.homs: homs[(x, y)].level(0)
                )
        constraints += [
            (((U, a), (U, a, a, e)), lambda x, ex, ids=K.identities: ex == ids[x])
            for a, e in H.identities.items()
        ] + [
            (
                ((U, a), (U, b), (U, c), (U, b, c, g), (U, a, b, f), (U, a, c, gf)),
                lambda x, y, z, gx, fx, gfx, comp=K.comp: comp[(x, y, z)][0][(gx, fx)] == gfx,
            )
            for (a, b, c), levels in H.comp.items()
            for (g, f), gf in levels[0].items()
        ]
    for m, (V, U) in site.cat.morphisms.items():
        FP, FQ = P.res[m], Q.res[m]
        constraints += [
            (((U, a), (V, FP.ob[a])), lambda x, y, ob=FQ.ob: y == ob[x])
            for a in P.values[U].objects
        ] + [
            (
                ((U, a), (U, b), (U, a, b, c), (V, FP.ob[a], FP.ob[b], FP.on_hom(a, b, 0, c))),
                lambda x, y, cx, dy, FQ=FQ: dy == FQ.on_hom(x, y, 0, cx),
            )
            for (a, b), hom in P.values[U].homs.items()
            for c in hom.level(0)
        ]

    slots = {U: [s for s in domains if s[0] == U] for U in site.objects}
    built = {}

    def component(U, v):
        """The functor at U read off the values v of its slots, by key,
        built once per distinct tuple of those values."""
        key = (U, *map(v.__getitem__, slots[U]))
        if key not in built:
            built[key] = sgd_functor(
                P.values[U], Q.values[U],
                lambda a: v[(U, a)], lambda a, b, n, c: v[(U, a, b, c)],
            )
        return built[key]

    return [
        SgdPresheafMap(P, Q, {U: component(U, chosen) for U in site.objects})
        for chosen in solve(domains, constraints, bound=bound)
    ]


def psi_sgd(u: SgdPresheafMap) -> SgdDiagram:
    """The comma diagram of a map: over each base object, the cells from
    the image into it, together with the resolving string.  Each
    restriction table is an ``sset_map`` between comma values.  Charts
    of one enumeration share component objects, and the diagrams that
    ``psi_sgd_family`` builds for them share comma functors and
    restriction tables, so family diagrams are read-only."""
    return psi_sgd_family([u])[0]


def psi_sgd_family(charts) -> list:
    """``psi_sgd`` of each of the charts, which share one source and one
    target: one ``comma_construction_functor`` per distinct component
    object, and one restriction table per site morphism and pair of
    component objects at its ends, keyed by identity while the
    components are held.  The diagrams share these, so are read-only."""
    commas, tables, diagrams = {}, {}, []
    for u in charts:
        Q = u.target
        invariant(
            u.source is charts[0].source and Q is charts[0].target,
            "a chart family shares its source and target",
        )
        functors = _shared_values(u.components, comma_construction_functor, commas)
        res = {}
        for f, (V, U) in Q.site.cat.morphisms.items():
            key = (f, id(u.components[U]), id(u.components[V]))
            if key not in tables:
                tables[key] = _comma_restriction(u, f, U, functors[U], functors[V])
            res[f] = tables[key]
        diagrams.append(SgdDiagram(Q, functors, res))
    return diagrams


def _comma_restriction(u: SgdPresheafMap, f, U, XU: SimplicialFunctor, XV: SimplicialFunctor):
    """The restriction tables of u's comma diagram along the site
    morphism f: V -> U, from the comma functor XU over U to XV over V."""
    FP, FQ, ob = u.source.res[f], u.target.res[f], u.components[U].ob

    def restrict(n, s, a):
        b0, g0, us = s
        return FP.ob[b0], FQ.on_hom(ob[b0], a, n, g0), string_image(FP, b0, us, n)

    return {
        a: sset_map(X, XV.values[FQ.ob[a]], partial(restrict, a=a)).levels
        for a, X in XU.values.items()
    }


# ---------------------------------------------------------------------------
# Discrete diagrams as enriched translation groupoids, and the
# comparison identifying comma fibres with values.


def translation_sgd(X: SimplicialFunctor):
    """The enriched groupoid of elements of a diagram with discrete
    values; returns it with the forgetful functor to the source."""
    C = X.source
    for a in C.objects:
        V = X.values[a]
        base = set(V.level(0))
        invariant(all(set(V.level(n)) == base for n in range(V.trunc + 1)),
                  "translation needs discrete values")
    objects = tuple(
        sorted(((a, s) for a in C.objects for s in X.values[a].level(0)), key=idkey)
    )
    homs = {}
    for (a, s) in objects:
        for (b, t) in objects:
            homs[((a, s), (b, t))] = subcomplex(
                C.homs[(a, b)],
                lambda n, g, a=a, b=b, s=s, t=t: X.act(a, b, n, g, s) == t,
            )
    comp = {}
    for (a, s) in objects:
        for (b, t) in objects:
            for (c, r) in objects:
                comp[((a, s), (b, t), (c, r))] = {
                    n: {
                        (g, f): C.compose(a, b, c, n, g, f)
                        for f in homs[((a, s), (b, t))].level(n)
                        for g in homs[((b, t), (c, r))].level(n)
                    }
                    for n in range(C.trunc + 1)
                }
    identities = {(a, s): C.identities[a] for (a, s) in objects}
    E = SimpGroupoid(C.trunc, objects, homs, comp, identities)
    forget = sgd_functor(E, C, lambda o: o[0], lambda o1, o2, n, g: g)
    return E, forget


def comma_value_comparison(X: SimplicialFunctor, a):
    """The map from the comma diagonal of the forgetful functor over a
    to the value at a; an equivalence exactly when the diagram is a
    torsor shape."""
    E, forget = translation_sgd(X)
    source = comma_db(forget, a)

    def assign(n, s):
        (c, x), g0, us = s
        return X.act(c, a, n, g0, x)

    return sset_map(source, X.values[a], assign)


# ---------------------------------------------------------------------------
# Actions of a 2-groupoid on anchored families of elements.  The 2-cells
# act trivially on anchored elements, so the action is the ActionTorsor
# of its 1-cell groupoid, an arrow g acting as the 1-cell g^-1, plus the
# 2-groupoid whose cocycle object the display is built over.  The
# display couples an element with a cocycle simplex whose last vertex
# carries its anchor; the torsor conditions are the pullback shape of
# the display plus local triviality.


def two_gpd_display(W: TruncSSet, A: ActionTorsor):
    """Assemble the sectionwise total objects of A over the constant
    presheaf on W, the cocycle object of a 2-groupoid whose objects are
    those of A.gpd and whose 1-cells are its arrows."""
    site = A.total.site

    def display(U):
        anchor, tab, G = A.anchor[U], A.action[U], A.gpd.values[U]
        elements = {p: tuple(x for x in A.total.values[U] if anchor[x] == p) for p in G.objects}
        return holim_2gpd(W, elements, lambda arrow, x: tab[(x, G.inverses[arrow])])

    displays = {U: display(U) for U in site.objects}
    total = sset_presheaf(
        site, lambda U: displays[U][0], lambda f, n, s: (A.total.res[f][s[0]], s[1])
    )
    base = constant_sset_presheaf(site, W)
    return total, sset_presheaf_map(total, base, lambda U, n, s: displays[U][1](n, s))


def two_gpd_torsor_check(total: SSetPresheaf, pi: SSetPresheafMap) -> Check:
    return display_torsor_check(
        "display presents a torsor for the 2-groupoid", "display",
        total, pi, "display levels pull back from level zero",
    )


def two_gpd_action_maps(A1: ActionTorsor, A2: ActionTorsor):
    """Equivariant natural maps between the totals; equivariance along
    the identity at each element's anchor keeps the anchors."""
    return natural_maps(A1.total, A2.total, _equivariance(A1, A2))
