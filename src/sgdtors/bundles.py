"""Torsors with simplicial coefficients.

Three flavours, in increasing generality of the coefficients: an
enriched group presheaf acting on a simplicial presheaf, a diagram of
simplicial presheaves over an enriched groupoid presheaf, and an action
of a 2-groupoid on anchored element families.  In each case the torsor
verdict is the same: the assembled total object (Borel construction,
homotopy colimit, or display) must be locally trivial over the site.

The conversions between torsors and maps into the classifying presheaf
run through pullbacks of the total-object quotient and through comma
constructions; both directions are kept exact so the classification
counts can be matched class by class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .groupoid import Fin2Groupoid, FinGroup, group_as_2groupoid, trivial_groupoid
from .holim import (
    SimplicialFunctor,
    comma_construction_functor,
    corepresented_functor,
    holim,
    holim_2gpd,
    simplicial_functor,
    validate_simplicial_functor,
)
from .kan import fibration_check
from .presheaf import (
    SgdPresheaf,
    SSetPresheaf,
    SSetPresheafMap,
    constant_sgd_presheaf,
    validate_sset_presheaf,
    validate_sset_presheaf_map,
)
from .report import Check, require
from .sgroupoid import SgdFunctor, constant_sgroupoid, validate_sgd_functor
from .sheaf import cover_elements, local_weq_check
from .sset import idkey, sset_map
from .torsors import (
    _shared_values,
    db_presheaf,
    to_point_map,
    w_total_presheaf,
    wbar_presheaf,
)
from .wbar import j_map, w_action


def _one_object(H):
    (a,) = H.objects
    return a


# ---------------------------------------------------------------------------
# Actions of an enriched group presheaf on a simplicial presheaf.  Every
# section of the coefficient presheaf must have a single object; the
# action tables are levelwise, covariant, and natural in the site.


@dataclass
class SGroupAction:
    group: SgdPresheaf
    space: SSetPresheaf
    action: dict   # object -> {level: {(hom cell, simplex): simplex}}

    def act(self, U, n, g, x):
        return self.action[U][n][(g, x)]


def sgroup_action(Q: SgdPresheaf, space: SSetPresheaf, act) -> SGroupAction:
    """Build from a callable act(U, n, g, x)."""
    action = {}
    for U in Q.site.objects:
        H, X = Q.values[U], space.values[U]
        a = _one_object(H)
        action[U] = {
            n: {
                (g, x): act(U, n, g, x)
                for g in H.homs[(a, a)].level(n)
                for x in X.level(n)
            }
            for n in range(X.trunc + 1)
        }
    return SGroupAction(Q, space, action)


def section_functor(A: SGroupAction, U) -> SimplicialFunctor:
    H = A.group.values[U]
    return simplicial_functor(
        H, lambda _: A.space.values[U], lambda a, b, n, g, x: A.action[U][n][(g, x)]
    )


def validate_sgroup_action(A: SGroupAction):
    problems = []
    ok, probs = validate_sset_presheaf(A.space)
    if not ok:
        return False, [f"space: {probs[0]}"]
    for U in A.group.site.objects:
        if len(A.group.values[U].objects) != 1:
            return False, [f"coefficients over {U!r} have several objects"]
        ok, probs = validate_simplicial_functor(section_functor(A, U))
        if not ok:
            problems.append(f"action over {U!r}: {probs[0]}")
    if problems:
        return False, problems
    for f, (V, U) in A.group.site.cat.morphisms.items():
        F = A.group.res[f]
        aU = _one_object(A.group.values[U])
        for n, tab in A.action[U].items():
            for (g, x), y in tab.items():
                lhs = A.space.res[f][n][y]
                rhs = A.action[V][n][
                    (F.on_hom(aU, aU, n, g), A.space.res[f][n][x])
                ]
                if lhs != rhs:
                    problems.append(
                        f"action not natural along {f!r} at level {n} on {(g, x)!r}"
                    )
    return not problems, problems


def sgroup_free_action_check(A: SGroupAction) -> Check:
    hits = []
    for U in A.group.site.objects:
        H = A.group.values[U]
        a = _one_object(H)
        for n, tab in A.action[U].items():
            e = H.identity_at(a, n)
            hits.extend(
                (U, n, g, x) for (g, x), y in tab.items() if y == x and g != e
            )
    return require(not hits, "cells act freely in every section and level",
                   witness=hits[:3])


def wg_action(Q: SgdPresheaf) -> SGroupAction:
    """The universal free action on the total object."""
    space = w_total_presheaf(Q)
    return sgroup_action(Q, space, lambda U, n, g, x: w_action(Q.values[U], n, g, x))


def translation_action(Q: SgdPresheaf) -> SGroupAction:
    """The group of each section acting on itself by composition."""
    values = _shared_values(Q.values, lambda H: H.homs[(_one_object(H), _one_object(H))])
    res = {}
    for f, (V, U) in Q.site.cat.morphisms.items():
        F = Q.res[f]
        a = _one_object(Q.values[U])
        X = values[U]
        res[f] = {
            n: {x: F.on_hom(a, a, n, x) for x in X.level(n)}
            for n in range(X.trunc + 1)
        }
    space = SSetPresheaf(Q.site, values, res)

    def act(U, n, g, x):
        H = Q.values[U]
        a = _one_object(H)
        return H.compose(a, a, a, n, g, x)

    return sgroup_action(Q, space, act)


def twisted_sgroup_action(Q: SgdPresheaf, cochain) -> SGroupAction:
    """The group of each section acting on itself contravariantly, with
    restriction twisted on the left by a vertex cell per site morphism;
    the two sides commute without any commutativity of the group."""
    values = _shared_values(Q.values, lambda H: H.homs[(_one_object(H), _one_object(H))])
    res = {}
    for f, (V, U) in Q.site.cat.morphisms.items():
        F = Q.res[f]
        HV = Q.values[V]
        aU, aV = _one_object(Q.values[U]), _one_object(HV)
        X = values[U]
        res[f] = {
            n: {
                x: HV.compose(
                    aV, aV, aV, n,
                    _degen_lift(HV, aV, cochain[f], n),
                    F.on_hom(aU, aU, n, x),
                )
                for x in X.level(n)
            }
            for n in range(X.trunc + 1)
        }
    space = SSetPresheaf(Q.site, values, res)

    def act(U, n, g, x):
        H = Q.values[U]
        a = _one_object(H)
        return H.compose(a, a, a, n, x, H.inverse(a, a, n, g))

    return sgroup_action(Q, space, act)


def _degen_lift(H, a, vertex_cell, n):
    cur = vertex_cell
    for d in range(n):
        cur = H.homs[(a, a)].degen(d, 0, cur)
    return cur


def vertex_group_presheaf(Q: SgdPresheaf):
    """Level-zero cells of a one-object enriched group presheaf, as a
    plain group presheaf."""
    from .groupoid import make_group
    from .presheaf import GroupPresheaf

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
    presheaf.  Arrow ids carry their endpoints so cells reused across
    hom pairs never collide."""
    from .groupoid import FinGroupoid
    from .torsors import GroupoidPresheaf

    site = Q.site

    def build(H):
        morphisms = {}
        comp = {}
        for (a, b), hom in H.homs.items():
            for f in hom.level(0):
                morphisms[(a, b, f)] = (a, b)
        for (a, b, c), levels in H.comp.items():
            for (g, f), h in levels[0].items():
                comp[((b, c, g), (a, b, f))] = (a, c, h)
        identities = {a: (a, a, H.identities[a]) for a in H.objects}
        inverses = {
            (a, b, f): (b, a, H.inverse(a, b, 0, f)) for (a, b, f) in morphisms
        }
        return FinGroupoid(H.objects, morphisms, comp, identities, inverses)

    values = _shared_values(Q.values, build)
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


def level0_group_torsor(A: SGroupAction):
    """The vertex-level set torsor of an action: level-zero cells acting
    on level-zero simplices on the right."""
    from .presheaf import SetPresheaf
    from .torsors import GroupTorsor

    Q = A.group
    site = Q.site
    G = vertex_group_presheaf(Q)
    groups = G.values
    total = SetPresheaf(
        site,
        {U: tuple(A.space.values[U].level(0)) for U in site.objects},
        {f: dict(A.space.res[f][0]) for f in site.morphisms},
    )
    action = {
        U: {
            (e, g): A.act(U, 0, groups[U].inv[g], e)
            for e in total.values[U]
            for g in groups[U].elements
        }
        for U in site.objects
    }
    return GroupTorsor(G, total, action)


def orbit_tables(A: SGroupAction, U):
    """Orbit representative of every simplex, by least id."""
    H = A.group.values[U]
    a = _one_object(H)
    X = A.space.values[U]
    rep = {}
    for n in range(X.trunc + 1):
        cells = H.homs[(a, a)].level(n)
        for x in X.level(n):
            orbit = {A.action[U][n][(g, x)] for g in cells}
            rep[(n, x)] = min(orbit, key=idkey)
    return rep


def sgroup_quotient(A: SGroupAction, maxdim=None):
    """The levelwise orbit presheaf, the projection onto it, and a check
    that the projection is a sectionwise fibration."""
    from .sset import TruncSSet, _sorted_ids

    site = A.group.site
    reps = {U: orbit_tables(A, U) for U in site.objects}
    values, comps = {}, {}
    for U in site.objects:
        X = A.space.values[U]
        rep = reps[U]
        simplices = {
            n: _sorted_ids({rep[(n, x)] for x in X.level(n)})
            for n in range(X.trunc + 1)
        }
        faces = {
            (n, i): {
                rep[(n, x)]: rep[(n - 1, X.face(n, i, rep[(n, x)]))]
                for x in X.level(n)
            }
            for n in range(1, X.trunc + 1)
            for i in range(n + 1)
        }
        degeneracies = {
            (n, j): {
                rep[(n, x)]: rep[(n + 1, X.degen(n, j, rep[(n, x)]))]
                for x in X.level(n)
            }
            for n in range(X.trunc)
            for j in range(n + 1)
        }
        values[U] = TruncSSet(X.trunc, simplices, faces, degeneracies)
        comps[U] = {
            n: {x: rep[(n, x)] for x in X.level(n)} for n in range(X.trunc + 1)
        }
    res = {
        f: {
            n: {
                x: reps[V][(n, A.space.res[f][n][x])]
                for x in values[U].level(n)
            }
            for n in range(values[U].trunc + 1)
        }
        for f, (V, U) in site.cat.morphisms.items()
    }
    space = SSetPresheaf(site, values, res)
    q = SSetPresheafMap(A.space, space, comps)
    check = Check("orbit projection is a sectionwise fibration", True,
                  params={"maxdim": maxdim})
    for U in site.objects:
        qU = sset_map(A.space.values[U], values[U], lambda n, x: comps[U][n][x])
        part = fibration_check(qU, maxdim)
        part.claim = f"horns over {U!r} lift"
        check.add(part)
    return space, q, check


def borel(A: SGroupAction) -> SSetPresheaf:
    """Diagonal bar construction: level n couples a level-n simplex with
    a string of n cells acting on it."""
    site = A.group.site
    values = {U: holim(section_functor(A, U)) for U in site.objects}
    res = {}
    for f, (V, U) in site.cat.morphisms.items():
        F = A.group.res[f]
        aU = _one_object(A.group.values[U])
        X = values[U]
        res[f] = {
            n: {
                (a0, x, fs): (
                    F.ob[a0],
                    A.space.res[f][n][x],
                    tuple(F.on_hom(aU, aU, n, g) for g in fs),
                )
                for (a0, x, fs) in X.level(n)
            }
            for n in range(X.trunc + 1)
        }
    return SSetPresheaf(site, values, res)


def borel_projection(A: SGroupAction, E: SSetPresheaf = None) -> SSetPresheafMap:
    """Forget the space coordinate, landing in the diagonal nerve."""
    if E is None:
        E = borel(A)
    D = db_presheaf(A.group)
    comps = {
        U: {
            n: {s: (s[0], s[2]) for s in E.values[U].level(n)}
            for n in range(E.values[U].trunc + 1)
        }
        for U in E.site.objects
    }
    return SSetPresheafMap(E, D, comps)


def borel_to_quotient(A: SGroupAction, E: SSetPresheaf = None) -> SSetPresheafMap:
    """Forget the cell string and project the space coordinate to orbits;
    a sectionwise equivalence whenever the action is free."""
    if E is None:
        E = borel(A)
    space, q, _ = sgroup_quotient(A)
    comps = {
        U: {
            n: {s: q.components[U][n][s[1]] for s in E.values[U].level(n)}
            for n in range(E.values[U].trunc + 1)
        }
        for U in E.site.objects
    }
    return SSetPresheafMap(E, space, comps)


def sgroup_torsor_check(A: SGroupAction, depth=2) -> Check:
    check = Check("action presents a torsor for the enriched group", True,
                  params={"depth": depth})
    ok, problems = validate_sgroup_action(A)
    check.add(require(ok, "action tables are simplicial and natural",
                      witness=problems[:3]))
    if not ok:
        return check
    weq = local_weq_check(to_point_map(borel(A)), depth=depth)
    weq.claim = "quotient by the action is locally trivial"
    check.add(weq)
    return check


# ---------------------------------------------------------------------------
# From maps into the cocycle object back to actions: pull the total
# object along the map.  The orbit space of the result is the source of
# the map on the nose.


def w_quotient_presheaf_map(Q: SgdPresheaf) -> SSetPresheafMap:
    from .wbar import w_quotient_map

    WT = w_total_presheaf(Q)
    WB = wbar_presheaf(Q)
    tables = _shared_values(Q.values, lambda H: dict(w_quotient_map(H).levels))
    return SSetPresheafMap(WT, WB, {U: tables[U] for U in Q.site.objects})


def j_presheaf(Q: SgdPresheaf) -> SSetPresheafMap:
    """The comparison from the diagonal nerve to the cocycle object,
    assembled over the site."""
    D = db_presheaf(Q)
    W = wbar_presheaf(Q)
    tables = _shared_values(Q.values, lambda H: _j_tables(H))
    comps = {U: tables[U] for U in Q.site.objects}
    return SSetPresheafMap(D, W, comps)


def _j_tables(H):
    j = j_map(H)
    X = j.source
    return {
        n: {x: j(n, x) for x in X.level(n)} for n in range(X.trunc + 1)
    }


def psi_sgroup(u: SSetPresheafMap, Q: SgdPresheaf):
    """Pull the total object back along u; returns the action and the
    projection identifying the orbit presheaf with u's source."""
    C = u.source
    WT = w_total_presheaf(Q)
    quot = w_quotient_presheaf_map(Q)
    site = Q.site
    values, comps = {}, {}
    for U in site.objects:
        X, W = C.values[U], WT.values[U]
        trunc = X.trunc
        from .sset import TruncSSet, _sorted_ids

        simplices = {
            n: _sorted_ids(
                (c, w)
                for c in X.level(n)
                for w in W.level(n)
                if u.components[U][n][c] == quot.components[U][n][w]
            )
            for n in range(trunc + 1)
        }
        faces = {
            (n, i): {
                (c, w): (X.face(n, i, c), W.face(n, i, w))
                for (c, w) in simplices[n]
            }
            for n in range(1, trunc + 1)
            for i in range(n + 1)
        }
        degeneracies = {
            (n, j): {
                (c, w): (X.degen(n, j, c), W.degen(n, j, w))
                for (c, w) in simplices[n]
            }
            for n in range(trunc)
            for j in range(n + 1)
        }
        values[U] = TruncSSet(trunc, simplices, faces, degeneracies)
        comps[U] = {
            n: {(c, w): c for (c, w) in simplices[n]} for n in range(trunc + 1)
        }
    res = {
        f: {
            n: {
                (c, w): (C.res[f][n][c], WT.res[f][n][w])
                for (c, w) in values[U].level(n)
            }
            for n in range(values[U].trunc + 1)
        }
        for f, (V, U) in site.cat.morphisms.items()
    }
    space = SSetPresheaf(site, values, res)
    A = sgroup_action(
        Q, space, lambda U, n, g, x: (x[0], w_action(Q.values[U], n, g, x[1]))
    )
    return A, SSetPresheafMap(space, C, comps)


# ---------------------------------------------------------------------------
# Diagrams of simplicial presheaves over an enriched groupoid presheaf.
# The torsor condition asks the assembled homotopy colimit to be locally
# trivial.


@dataclass
class SgdDiagram:
    coeff: SgdPresheaf
    functors: dict   # object -> SimplicialFunctor on coeff.values[U]
    res: dict        # morphism -> {object a: {level: {simplex: simplex}}}


def validate_sgd_diagram(D: SgdDiagram):
    problems = []
    for U in D.coeff.site.objects:
        ok, probs = validate_simplicial_functor(D.functors[U])
        if not ok:
            problems.append(f"diagram over {U!r}: {probs[0]}")
    if problems:
        return False, problems
    for f, (V, U) in D.coeff.site.cat.morphisms.items():
        F = D.coeff.res[f]
        XU, XV = D.functors[U], D.functors[V]
        H = D.coeff.values[U]
        for a in H.objects:
            src, dst = XU.values[a], XV.values[F.ob[a]]
            tab = D.res[f][a]
            for n in range(src.trunc + 1):
                for x in src.level(n):
                    if not dst.has(n, tab[n][x]):
                        problems.append(f"restriction along {f!r} escapes at {a!r}")
                        break
            for n in range(1, src.trunc + 1):
                for i in range(n + 1):
                    for x in src.level(n):
                        if tab[n - 1][src.face(n, i, x)] != dst.face(n, i, tab[n][x]):
                            problems.append(
                                f"restriction along {f!r} not simplicial at {a!r}"
                            )
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
    return not problems, problems


def holim_presheaf(D: SgdDiagram):
    """The assembled homotopy colimit with its projection to the
    diagonal nerve."""
    site = D.coeff.site
    values = {U: holim(D.functors[U]) for U in site.objects}
    res = {}
    for f, (V, U) in site.cat.morphisms.items():
        F = D.coeff.res[f]
        H = D.coeff.values[U]
        X = values[U]
        tab = {}
        for n in range(X.trunc + 1):
            level = {}
            for (a0, x, fs) in X.level(n):
                from .sgroupoid import string_steps

                steps = string_steps(H, a0, fs, n)
                level[(a0, x, fs)] = (
                    F.ob[a0],
                    D.res[f][a0][n][x],
                    tuple(F.on_hom(a, b, n, g) for a, b, g in steps),
                )
            tab[n] = level
        res[f] = tab
    E = SSetPresheaf(site, values, res)
    Dnerve = db_presheaf(D.coeff)
    comps = {
        U: {
            n: {s: (s[0], s[2]) for s in values[U].level(n)}
            for n in range(values[U].trunc + 1)
        }
        for U in site.objects
    }
    return E, SSetPresheafMap(E, Dnerve, comps)


def sgd_torsor_check(D: SgdDiagram, depth=2) -> Check:
    check = Check("diagram presents a torsor for the enriched groupoid", True,
                  params={"depth": depth})
    ok, problems = validate_sgd_diagram(D)
    check.add(require(ok, "diagram is functorial and natural", witness=problems[:3]))
    if not ok:
        return check
    E, _ = holim_presheaf(D)
    weq = local_weq_check(to_point_map(E), depth=depth)
    weq.claim = "homotopy colimit is locally trivial"
    check.add(weq)
    return check


def corepresented_diagram(Q: SgdPresheaf, at) -> SgdDiagram:
    """The diagram of cells out of a chosen object; at maps site objects
    to groupoid objects, a plain object meaning the same choice
    everywhere."""
    if not isinstance(at, dict):
        at = {U: at for U in Q.site.objects}
    functors = {U: corepresented_functor(Q.values[U], at[U]) for U in Q.site.objects}
    res = {}
    for f, (V, U) in Q.site.cat.morphisms.items():
        F = Q.res[f]
        H = Q.values[U]
        assert F.ob[at[U]] == at[V], "chosen objects are not natural"
        res[f] = {
            a: {
                n: {
                    x: F.on_hom(at[U], a, n, x)
                    for x in H.homs[(at[U], a)].level(n)
                }
                for n in range(H.trunc + 1)
            }
            for a in H.objects
        }
    return SgdDiagram(Q, functors, res)


def sgd_diagram_maps(D1: SgdDiagram, D2: SgdDiagram, bound=None):
    """Families of levelwise tables commuting with the actions and the
    restrictions; enumerated exhaustively from vertex choices since the
    fixture values are discrete."""
    from .kan import enumerate_sset_maps

    site = D1.coeff.site
    slots = []
    for U in site.objects:
        H = D1.coeff.values[U]
        for a in H.objects:
            maps = enumerate_sset_maps(D1.functors[U].values[a],
                                       D2.functors[U].values[a])
            if not maps:
                return []
            slots.append(((U, a), maps))
    total = 1
    for _, maps in slots:
        total *= len(maps)
    if bound is not None and total > bound:
        raise ValueError(f"diagram map search needs {total} candidates, bound is {bound}")
    out = []
    for combo in itertools.product(*[maps for _, maps in slots]):
        family = {key: m for (key, _), m in zip(slots, combo)}
        good = True
        for U in site.objects:
            H = D1.coeff.values[U]
            for (a, b), levels in D1.functors[U].action.items():
                for n, cells in levels.items():
                    for (g, x), y in cells.items():
                        if family[(U, b)](n, y) != D2.functors[U].act(
                            a, b, n, g, family[(U, a)](n, x)
                        ):
                            good = False
                            break
                    if not good:
                        break
                if not good:
                    break
            if not good:
                break
        if good:
            for f, (V, U) in site.cat.morphisms.items():
                F = D1.coeff.res[f]
                for a in D1.coeff.values[U].objects:
                    src = D1.functors[U].values[a]
                    for n in range(src.trunc + 1):
                        for x in src.level(n):
                            if family[(V, F.ob[a])](n, D1.res[f][a][n][x]) != D2.res[
                                f
                            ][a][n][family[(U, a)](n, x)]:
                                good = False
                                break
                        if not good:
                            break
                    if not good:
                        break
                if not good:
                    break
        if good:
            out.append(family)
    return out


# ---------------------------------------------------------------------------
# Maps of enriched groupoid presheaves, their Cech resolutions, and the
# comma construction sending a map to a diagram.


@dataclass
class SgdPresheafMap:
    source: SgdPresheaf
    target: SgdPresheaf
    components: dict   # object -> SgdFunctor


def validate_sgd_presheaf_map(u: SgdPresheafMap):
    problems = []
    for U in u.source.site.objects:
        ok, probs = validate_sgd_functor(u.components[U])
        if not ok:
            problems.append(f"component over {U!r}: {probs[0]}")
    if problems:
        return False, problems
    for f, (V, U) in u.source.site.cat.morphisms.items():
        FP, FQ = u.source.res[f], u.target.res[f]
        cU, cV = u.components[U], u.components[V]
        H = u.source.values[U]
        for a in H.objects:
            if cV.ob[FP.ob[a]] != FQ.ob[cU.ob[a]]:
                problems.append(f"object maps not natural along {f!r} at {a!r}")
        for (a, b), hom in H.homs.items():
            for n in range(H.trunc + 1):
                for c in hom.level(n):
                    lhs = cV.on_hom(FP.ob[a], FP.ob[b], n, FP.on_hom(a, b, n, c))
                    rhs = FQ.on_hom(cU.ob[a], cU.ob[b], n, cU.on_hom(a, b, n, c))
                    if lhs != rhs:
                        problems.append(f"cells not natural along {f!r} at {(a, b)!r}")
    return not problems, problems


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
        res[f] = _chaotic_sgd_functor(values[U], values[V], lambda e, tab=tab: tab[e])
    return SgdPresheaf(site, values, res)


def _chaotic_sgd_functor(HU, HV, ob) -> SgdFunctor:
    """A functor between constant chaotic enrichments is fixed by its
    object map: every hom level has exactly one cell."""
    maps = {}
    for (a, b), hom in HU.homs.items():
        target = HV.homs[(ob(a), ob(b))]
        maps[(a, b)] = {}
        for n in range(HU.trunc + 1):
            (cell,) = target.level(n)
            maps[(a, b)][n] = {c: cell for c in hom.level(n)}
    return SgdFunctor(HU, HV, {a: ob(a) for a in HU.objects}, maps)


def constant_enrichment(H) -> bool:
    """Every hom is constant: each level has the vertex-level cells."""
    base = {pair: set(hom.level(0)) for pair, hom in H.homs.items()}
    return all(
        set(hom.level(n)) == base[pair]
        for pair, hom in H.homs.items()
        for n in range(H.trunc + 1)
    )


def enumerate_sgd_presheaf_maps(P: SgdPresheaf, Q: SgdPresheaf, bound=None):
    """All presheaf maps, for constant-enrichment sections: a component
    is fixed by its object map and its vertex-level cell maps."""
    for R in (P, Q):
        for H in R.values.values():
            if not constant_enrichment(H):
                raise ValueError("enumeration needs constant hom enrichments")
    site = P.site
    ob_slots = [
        (U, a, tuple(Q.values[U].objects))
        for U in site.objects
        for a in P.values[U].objects
    ]
    total = 1
    for _, _, choices in ob_slots:
        total *= len(choices)
    if bound is not None and total > bound:
        raise ValueError(f"map enumeration needs {total} object choices, bound is {bound}")

    out = []
    for ob_combo in itertools.product(*[c for _, _, c in ob_slots]):
        ob = {}
        for (U, a, _), b in zip(ob_slots, ob_combo):
            ob.setdefault(U, {})[a] = b
        cell_slots = []
        feasible = True
        for U in site.objects:
            H, K = P.values[U], Q.values[U]
            for (a, b), hom in H.homs.items():
                src_cells = tuple(hom.level(0))
                dst_cells = tuple(K.homs[(ob[U][a], ob[U][b])].level(0))
                if src_cells and not dst_cells:
                    feasible = False
                    break
                options = tuple(itertools.product(dst_cells, repeat=len(src_cells)))
                cell_slots.append(((U, a, b, src_cells), options))
            if not feasible:
                break
        if not feasible:
            continue
        cell_total = 1
        for _, options in cell_slots:
            cell_total *= max(len(options), 1)
        if bound is not None and cell_total > bound:
            raise ValueError(
                f"map enumeration needs {cell_total} cell choices, bound is {bound}"
            )
        for combo in itertools.product(*[opts for _, opts in cell_slots]):
            components = {}
            good = True
            for U in site.objects:
                H, K = P.values[U], Q.values[U]
                assign = {}
                for (key, _), choice in zip(cell_slots, combo):
                    U2, a, b, src_cells = key
                    if U2 == U:
                        assign[(a, b)] = dict(zip(src_cells, choice))
                maps = {
                    (a, b): {
                        n: {c: assign[(a, b)][c] for c in H.homs[(a, b)].level(n)}
                        for n in range(H.trunc + 1)
                    }
                    for (a, b) in H.homs
                }
                F = SgdFunctor(H, K, dict(ob[U]), maps)
                ok, _ = validate_sgd_functor(F)
                if not ok:
                    good = False
                    break
                components[U] = F
            if not good:
                continue
            u = SgdPresheafMap(P, Q, components)
            ok, _ = validate_sgd_presheaf_map(u)
            if ok:
                out.append(u)
    return out


def psi_sgd(u: SgdPresheafMap) -> SgdDiagram:
    """The comma diagram of a map: over each base object, the cells from
    the image into it, together with the resolving string."""
    Q = u.target
    functors = {U: comma_construction_functor(u.components[U]) for U in Q.site.objects}
    res = {}
    for f, (V, U) in Q.site.cat.morphisms.items():
        FP, FQ = u.source.res[f], Q.res[f]
        H = Q.values[U]
        I = u.source.values[U]
        tab = {}
        for a in H.objects:
            X = functors[U].values[a]
            level = {}
            for n in range(H.trunc + 1):
                inner = {}
                for (b0, g0, us) in X.level(n):
                    from .sgroupoid import string_steps

                    steps = string_steps(I, b0, us, n)
                    inner[(b0, g0, us)] = (
                        FP.ob[b0],
                        FQ.on_hom(u.components[U].ob[b0], a, n, g0),
                        tuple(FP.on_hom(p, q, n, c) for p, q, c in steps),
                    )
                level[n] = inner
            tab[a] = level
        res[f] = tab
    return SgdDiagram(Q, functors, res)


# ---------------------------------------------------------------------------
# Discrete diagrams as enriched translation groupoids, and the
# comparison identifying comma fibres with values.


def translation_sgd(X: SimplicialFunctor):
    """The enriched groupoid of elements of a diagram with discrete
    values; returns it with the forgetful functor to the source."""
    from .sgroupoid import SimpGroupoid, sgd_functor
    from .sset import subcomplex

    C = X.source
    for a in C.objects:
        V = X.values[a]
        base = set(V.level(0))
        assert all(set(V.level(n)) == base for n in range(V.trunc + 1)), (
            "translation needs discrete values"
        )
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
    from .holim import comma_db

    E, forget = translation_sgd(X)
    source = comma_db(forget, a)

    def assign(n, s):
        (c, x), g0, us = s
        return X.act(c, a, n, g0, x)

    return sset_map(source, X.values[a], assign)


# ---------------------------------------------------------------------------
# Actions of a 2-groupoid on anchored families of elements.  The display
# couples an element with a cocycle simplex whose last vertex carries
# its anchor; the torsor conditions are the pullback shape of the
# display plus local triviality.


@dataclass
class TwoGpdAction:
    gpd2: Fin2Groupoid
    site: object
    elements: dict   # site object -> {gpd object: tuple of elements}
    act1: dict       # site object -> {(arrow, element): element}
    res: dict        # site morphism -> {element: element}


def validate_two_gpd_action(A: TwoGpdAction):
    problems = []
    T = A.gpd2
    for U in A.site.objects:
        owner = {}
        for p, xs in A.elements[U].items():
            for x in xs:
                if x in owner:
                    problems.append(f"element {x!r} anchored twice over {U!r}")
                owner[x] = p
        tab = A.act1[U]
        for p in T.objects:
            for q in T.objects:
                for arrow in T.homs[(p, q)].objects:
                    for x in A.elements[U].get(p, ()):
                        y = tab.get((arrow, x))
                        if y is None or owner.get(y) != q:
                            problems.append(
                                f"arrow {arrow!r} mistypes {x!r} over {U!r}"
                            )
        for p in T.objects:
            e = T.identities1[p]
            for x in A.elements[U].get(p, ()):
                if tab[(e, x)] != x:
                    problems.append(f"identity arrow moves {x!r} over {U!r}")
        for p in T.objects:
            for q in T.objects:
                for r in T.objects:
                    for g in T.homs[(q, r)].objects:
                        for h in T.homs[(p, q)].objects:
                            gh = T.hcomp1[(p, q, r)][(g, h)]
                            for x in A.elements[U].get(p, ()):
                                if tab[(gh, x)] != tab[(g, tab[(h, x)])]:
                                    problems.append(
                                        f"composition breaks on {x!r} over {U!r}"
                                    )
    if problems:
        return False, problems[:6]
    for f, (V, U) in A.site.cat.morphisms.items():
        r = A.res[f]
        for p, xs in A.elements[U].items():
            for x in xs:
                if r[x] not in set(A.elements[V].get(p, ())):
                    problems.append(f"restriction along {f!r} moves the anchor of {x!r}")
        for (arrow, x), y in A.act1[U].items():
            if r[y] != A.act1[V][(arrow, r[x])]:
                problems.append(f"restriction along {f!r} is not equivariant")
    return not problems, problems[:6]


def two_gpd_display(A: TwoGpdAction, trunc):
    """Assemble the sectionwise total objects over the constant cocycle
    presheaf of the 2-groupoid."""
    site = A.site
    values, comps = {}, {}
    W = None
    for U in site.objects:
        act = A.act1[U]
        Y, proj = holim_2gpd(
            A.gpd2, A.elements[U], lambda arrow, x: act[(arrow, x)], trunc
        )
        values[U] = Y
        comps[U] = {
            n: {s: proj(n, s) for s in Y.level(n)} for n in range(trunc + 1)
        }
        W = proj.target
    res = {
        f: {
            n: {
                (x, sigma): (A.res[f][x], sigma)
                for (x, sigma) in values[U].level(n)
            }
            for n in range(trunc + 1)
        }
        for f, (V, U) in site.cat.morphisms.items()
    }
    total = SSetPresheaf(site, values, res)
    base = SSetPresheaf(
        site,
        {U: W for U in site.objects},
        {
            f: {n: {s: s for s in W.level(n)} for n in range(trunc + 1)}
            for f in site.morphisms
        },
    )
    return total, SSetPresheafMap(total, base, comps)


def two_gpd_shape_check(total: SSetPresheaf, pi: SSetPresheafMap) -> Check:
    """Every display level is the pullback of level zero along the
    last-vertex map of the base."""
    trunc = next(iter(total.values.values())).trunc
    check = Check("display levels pull back from level zero", True,
                  params={"trunc": trunc})
    for U in total.site.objects:
        X = total.values[U]
        N = pi.target.values[U]
        comp = pi.components[U]
        for n in range(1, trunc + 1):
            pairs = {(X.vertex(n, n, s), comp[n][s]) for s in X.level(n)}
            wanted = {
                (y, w)
                for y in X.level(0)
                for w in N.level(n)
                if N.vertex(n, n, w) == comp[0][y]
            }
            ok = len(pairs) == X.size(n) and pairs == wanted
            check.add(require(ok, f"level {n} over {U!r} is the pullback",
                              witness={"have": len(pairs), "want": len(wanted)}))
            if not ok:
                return check
    return check


def two_gpd_torsor_check(total: SSetPresheaf, pi: SSetPresheafMap, depth=2) -> Check:
    check = Check("display presents a torsor for the 2-groupoid", True,
                  params={"depth": depth})
    ok, problems = validate_sset_presheaf(total)
    check.add(require(ok, "display is a simplicial presheaf", witness=problems[:3]))
    okm, problems = validate_sset_presheaf_map(pi)
    check.add(require(okm, "projection is a presheaf map", witness=problems[:3]))
    if not (ok and okm):
        return check
    check.add(two_gpd_shape_check(total, pi))
    if not check.ok:
        return check
    weq = local_weq_check(to_point_map(total), depth=depth)
    weq.claim = "display is locally trivial"
    check.add(weq)
    return check


def twisted_two_gpd_action(site, F: FinGroup, cochain) -> TwoGpdAction:
    """The group of 1-cells acting on itself, with restriction twisted
    by a group element per site morphism; arrows act contravariantly so
    the left twisting stays equivariant."""
    T = group_as_2groupoid(F)
    elements = {U: {"*": tuple(F.elements)} for U in site.objects}
    act1 = {
        U: {
            (g, x): F.mul[(x, F.inv[g])]
            for g in F.elements
            for x in F.elements
        }
        for U in site.objects
    }
    res = {
        f: {x: F.mul[(cochain[f], x)] for x in F.elements}
        for f in site.morphisms
    }
    return TwoGpdAction(T, site, elements, act1, res)


def two_gpd_action_maps(A1: TwoGpdAction, A2: TwoGpdAction):
    """Anchor-preserving equivariant natural families between the
    element presheaves."""
    site = A1.site
    per_object = {}
    for U in site.objects:
        xs = [x for xs in A1.elements[U].values() for x in xs]
        anchors1 = {x: p for p, v in A1.elements[U].items() for x in v}
        anchors2 = {x: p for p, v in A2.elements[U].items() for x in v}
        options = []
        for x in xs:
            options.append(
                [y for y in anchors2 if anchors2[y] == anchors1[x]]
            )
        per_object[U] = (xs, options)
    out = []
    keys = sorted(site.objects, key=idkey)
    all_choices = [
        itertools.product(*per_object[U][1]) if per_object[U][1] else [()]
        for U in keys
    ]
    for combos in itertools.product(*all_choices):
        family = {
            U: dict(zip(per_object[U][0], combo)) for U, combo in zip(keys, combos)
        }
        if any(
            family[U][A1.act1[U][(arrow, x)]] != A2.act1[U][(arrow, family[U][x])]
            for U in keys
            for (arrow, x) in A1.act1[U]
        ):
            continue
        if any(
            family[V][A1.res[f][x]] != A2.res[f][family[U][x]]
            for f, (V, U) in site.cat.morphisms.items()
            for x in per_object[U][0]
        ):
            continue
        out.append(family)
    return out
