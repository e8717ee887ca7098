"""Torsors over a finite site, in the set-level flavours.

One torsor type serves both shapes of coefficients here: a presheaf
of groupoids acting on an anchored set presheaf (ActionTorsor).  A
presheaf of groups is the one-object case: its torsors are anchored
actions of group_presheaf_as_groupoid(G), every element anchored at
"*", with the group elements as the arrows.  Anchored actions have an
equivalent bundle picture, a simplicial presheaf over the nerve whose
higher levels are recovered from level zero by pullback; the
conversions run in both directions and are mutually inverse on the
nose.  An independent cocycle count over a fixed cover family
cross-checks every classification number.

Every action table is built by one function, anchored_action: an arrow
g: a -> b acts on the elements anchored at b, elements listed in the
total object's order and arrows in the coefficients' order.  Every
torsor is trivialised by local_sections, the first listed element over
each cover member, and transition reads the one arrow between two such
sections; the cocycle count here and the classifying maps in
classify.py both read them.

The 2-groupoid flavour in bundles.py uses ActionTorsor too: the
2-cells act trivially on anchored elements, so a 2-groupoid action is
the ActionTorsor of its 1-cells plus the cocycle object of the
2-groupoid its display is built over.  The simplicial coefficient
flavours live in bundles.py, where an enriched group action is the
one-object SgdDiagram, just as a group torsor here is the one-object
ActionTorsor; the component counting lives in classify.py.  This module
also builds the classifying presheaves (cocycle object, total object,
diagonal nerve) that all of them map into.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .groupoid import FinGroupoid, group_as_groupoid, make_group, nerve_groupoid
from .holim import translation_groupoid
from .presheaf import (
    GroupPresheaf,
    SetPresheaf,
    SetPresheafMap,
    SgdPresheaf,
    SSetPresheaf,
    SSetPresheafMap,
    enumerate_presheaf_maps,
    fixed_objects,
    natural_maps,
    product_set_presheaf,
    set_presheaf,
    set_presheaf_map,
    sset_presheaf,
    sset_presheaf_map,
    terminal_presheaf,
    terminal_sset_presheaf,
    validate_set_presheaf,
    validate_sset_presheaf,
    validate_sset_presheaf_map,
    yoneda,
)
from .report import Check, InvariantError, require, unique_hit, validator
from .search import solve
from .sgroupoid import db_sgroupoid, string_image
from .sheaf import PLUS_STEPS, is_sheaf, local_epi_check, local_weq_check, plus_construction
from .site import star_cover
from .sset import idkey, relabel
from .wbar import cocycle_image, wbar, w_total


# ---------------------------------------------------------------------------
# Groupoid-valued presheaves.


@dataclass
class GroupoidPresheaf:
    site: object
    values: dict   # object -> FinGroupoid
    res: dict      # morphism -> (object table, arrow table)


def _shared_values(values, build, built=None):
    """Build per section, reusing the result for identical sections and
    for the sections already in ``built``: a dict from a section's id to
    the section and its result, which a caller passes to share results
    across calls."""
    built = {} if built is None else built
    for H in values.values():
        if id(H) not in built:
            built[id(H)] = (H, build(H))
    return {U: built[id(H)][1] for U, H in values.items()}


def constant_groupoid_presheaf(site, G: FinGroupoid) -> GroupoidPresheaf:
    ob = {a: a for a in G.objects}
    mor = {m: m for m in G.morphisms}
    return GroupoidPresheaf(
        site, {U: G for U in site.objects}, {f: (ob, mor) for f in site.morphisms}
    )


def group_presheaf_as_groupoid(G: GroupPresheaf) -> GroupoidPresheaf:
    values = _shared_values(G.values, group_as_groupoid)
    res = {f: ({"*": "*"}, dict(G.res[f])) for f in G.site.morphisms}
    return GroupoidPresheaf(G.site, values, res)


def objects_presheaf(GP: GroupoidPresheaf) -> SetPresheaf:
    return SetPresheaf(
        GP.site,
        {U: tuple(sorted(G.objects, key=idkey)) for U, G in GP.values.items()},
        {f: dict(GP.res[f][0]) for f in GP.site.morphisms},
    )


def arrows_presheaf(GP: GroupoidPresheaf) -> SetPresheaf:
    return SetPresheaf(
        GP.site,
        {U: tuple(sorted(G.morphisms, key=idkey)) for U, G in GP.values.items()},
        {f: dict(GP.res[f][1]) for f in GP.site.morphisms},
    )


@validator("input is a presheaf of groupoids")
def validate_groupoid_presheaf(GP: GroupoidPresheaf):
    problems = []
    for name, P in (("objects", objects_presheaf(GP)), ("arrows", arrows_presheaf(GP))):
        sets = validate_set_presheaf(P)
        if not sets:
            problems.append(f"{name}: {sets.witness[0]}")
    if problems:
        return problems
    for f, (V, U) in GP.site.cat.morphisms.items():
        obmap, mormap = GP.res[f]
        GU, GV = GP.values[U], GP.values[V]
        for m, (a, b) in GU.morphisms.items():
            if GV.morphisms.get(mormap[m]) != (obmap[a], obmap[b]):
                problems.append(f"restriction along {f!r} mistypes arrow {m!r}")
        for a in GU.objects:
            if mormap[GU.identities[a]] != GV.identities[obmap[a]]:
                problems.append(f"restriction along {f!r} breaks identities")
        for (g, h), k in GU.comp.items():
            if mormap[k] != GV.comp[(mormap[g], mormap[h])]:
                problems.append(f"restriction along {f!r} breaks composition")
    return problems


# ---------------------------------------------------------------------------
# Classifying presheaves.  Sectionwise constructions with the induced
# restriction tables; identical sections share one table.


def _cocycle_presheaf(Q: SgdPresheaf, values, shift) -> SSetPresheaf:
    """Sections values[U]; a level-n simplex restricts as a cocycle of
    level n + shift."""
    return sset_presheaf(
        Q.site, values.__getitem__, lambda f, n, s: cocycle_image(Q.res[f], n + shift, s)
    )


def wbar_presheaf(Q: SgdPresheaf) -> SSetPresheaf:
    """The cocycle classifying object of each section."""
    return _cocycle_presheaf(Q, _shared_values(Q.values, wbar), 0)


def w_total_presheaf(Q: SgdPresheaf) -> SSetPresheaf:
    """The total object of each section; level n holds shifted cocycles."""
    return _cocycle_presheaf(Q, _shared_values(Q.values, w_total), 1)


def db_presheaf(Q: SgdPresheaf) -> SSetPresheaf:
    """Diagonal nerve of each section."""
    values = _shared_values(Q.values, db_sgroupoid)

    def restrict(f, n, s):
        F = Q.res[f]
        x0, gs = s
        return (F.ob[x0], string_image(F, x0, gs, n))

    return sset_presheaf(Q.site, values.__getitem__, restrict)


def bg_presheaf(GP: GroupoidPresheaf, trunc) -> SSetPresheaf:
    """Nerve of each section of a groupoid presheaf."""
    values = _shared_values(GP.values, lambda G: nerve_groupoid(G, trunc))

    def restrict(f, n, s):
        obmap, mormap = GP.res[f]
        x0, fs = s
        return (obmap[x0], tuple(mormap[g] for g in fs))

    return sset_presheaf(GP.site, values.__getitem__, restrict)


def to_point_map(Y: SSetPresheaf) -> SSetPresheafMap:
    T = terminal_sset_presheaf(Y.site, Y.trunc)
    return sset_presheaf_map(Y, T, lambda U, n, x: (0,) * (n + 1))


# ---------------------------------------------------------------------------
# Torsors for presheaves of groups.  A group is a one-object groupoid, so
# a group torsor is an ActionTorsor (below) over
# group_presheaf_as_groupoid(G) with every element anchored at "*": the
# group elements are the arrows of T.gpd, and the action laws are those
# of validate_action_torsor.  The check asks for a set presheaf that is
# locally nonempty, and free and transitive after sheafification.


def group_action_torsor(G: GroupPresheaf, total: SetPresheaf, act) -> ActionTorsor:
    """The right action e.g = act(U, e, g) of G on total, as the
    one-object case of the anchored action."""
    return anchored_action(group_presheaf_as_groupoid(G), total, lambda U, e: "*", act)


def trivial_group_torsor(G: GroupPresheaf) -> ActionTorsor:
    """The group acting on itself by right translation: the torsor of
    the unit cochain."""
    return cochain_torsor(G, {f: G.values[G.site.cat.src(f)].e for f in G.site.morphisms})


def group_torsor_check(T: ActionTorsor) -> Check:
    """Locally nonempty, and free and transitive on sheafified sections."""
    return _sheafified_torsor_check(
        T, [arrows_presheaf], "total object is a torsor for the group presheaf",
        "action tables form a presheaf action", "coefficients form a sheaf",
        "action is transitive on sheafified sections",
    )


# ---------------------------------------------------------------------------
# Enumeration of group torsors by twisting tables: one group element per
# morphism of the site, compatible with identities and composition.  The
# carrier of the resulting torsor is the group itself, so this lists the
# torsors that are trivial over every object, which on the bundled sites
# is all of them.


def _composable_pairs(C):
    """The pairs (f, g) of morphisms whose composite f g is defined."""
    return [
        (f, g)
        for f, (V, _) in C.morphisms.items()
        for g, (_, V2) in C.morphisms.items()
        if V2 == V
    ]


def enumerate_group_cochains(G: GroupPresheaf, bound=None):
    C = G.site.cat
    idset = set(C.identities.values())
    domains = {
        f: G.values[C.src(f)].elements for f in sorted(C.morphisms, key=idkey) if f not in idset
    }
    units = {e: G.values[U].e for U, e in C.identities.items()}

    def cocycle(f, g):
        """c(fg) = c(g) res_g(c(f)), on the slots of the non-identities."""
        fg = C.comp[(f, g)]
        W = C.src(g)
        free = tuple(h for h in (f, g, fg) if h in domains)

        def pred(*values):
            c = {**units, **dict(zip(free, values))}
            return c[fg] == G.values[W].mul[(c[g], G.res[g][c[f]])]

        return free, pred

    constraints = [cocycle(f, g) for f, g in _composable_pairs(C)]
    return [{**choice, **units} for choice in solve(domains, constraints, bound=bound)]


def cochain_torsor(G: GroupPresheaf, c) -> ActionTorsor:
    """Carrier G with right translation, restriction twisted by c."""
    site = G.site

    def restrict(f, e):
        W = site.cat.src(f)
        return G.values[W].mul[(c[f], G.res[f][e])]

    total = set_presheaf(site, lambda U: G.values[U].elements, restrict)
    return group_action_torsor(G, total, lambda U, e, g: G.values[U].mul[(e, g)])


def enumerate_group_torsors(G: GroupPresheaf, bound=None):
    return [cochain_torsor(G, c) for c in enumerate_group_cochains(G, bound)]


def _equivariance(T1: ActionTorsor, T2: ActionTorsor):
    """Constraints phi(e.g) = phi(e).g, one for each action entry of T1.

    T2 acts by g only on elements anchored at g's target, and a pair off
    its table looks up None.  So the constraint along the identity at
    e's anchor holds exactly when phi(e) has e's anchor: anchors need no
    constraint of their own, and no lookup raises.
    """
    return [
        (
            ((U, out), (U, e)),
            lambda y, x, tab=T2.action[U], g=g: y == tab.get((x, g)),
        )
        for U in T1.total.site.objects
        for (e, g), out in T1.action[U].items()
    ]


def group_torsor_maps(T1: ActionTorsor, T2: ActionTorsor):
    """All equivariant presheaf maps between the totals of two group
    torsors; every element is anchored at the one object, so anchors
    need no constraint."""
    return natural_maps(T1.total, T2.total, _equivariance(T1, T2))


# ---------------------------------------------------------------------------
# The cocycle oracle.  Degree-one cocycles over a fixed family of
# objects covering the terminal presheaf, counted modulo coboundaries.
# Pairwise and triple intersections are modelled by products of
# representables, and sections over them by exhaustively enumerated
# presheaf maps into the group, so no torsor machinery is involved.


def _section_key(phi: SetPresheafMap):
    F = phi.source
    return tuple(
        (U, s, phi.components[U][s])
        for U in sorted(F.site.objects, key=idkey)
        for s in F.values[U]
    )


def _key_mul(G: GroupPresheaf, k1, k2):
    return tuple(
        (U, s, G.values[U].mul[(v1, v2)])
        for (U, s, v1), (_, _, v2) in zip(k1, k2)
    )


def _key_inv(G: GroupPresheaf, k):
    return tuple((U, s, G.values[U].inv[v]) for (U, s, v) in k)


def _key_along(k, p: SetPresheafMap):
    """Precompose a section key with a presheaf map into its index object."""
    lut = {(U, s): v for (U, s, v) in k}
    F2 = p.source
    return tuple(
        (U, x, lut[(U, p.components[U][x])])
        for U in sorted(F2.site.objects, key=idkey)
        for x in F2.values[U]
    )


def h1_cech_classes(G: GroupPresheaf, cover=None):
    """Cocycle classes over the cover family; returns the full bookkeeping.

    The result carries the pair presheaves and trivialisation data that
    classify() uses to place an enumerated torsor in its class, and the
    gauge group with its action on cocycles, which gauge_orbit_count reads.
    """
    site = G.site
    if cover is None:
        cover = star_cover(site)
    k = len(cover)
    ys = {i: yoneda(site, cover[i]) for i in range(k)}
    # the ordered Cech nerve, i <= j <= l; the self-overlap y(Ui) x y(Ui)
    # is y(Ui), with a trivial cocycle, unless some object maps into Ui twice
    twice = {i for i in range(k) if any(len(hs) > 1 for hs in ys[i].values.values())}
    pairs = [(i, j) for i in range(k) for j in range(i, k) if i < j or i in twice]
    pair_ps = {(i, j): product_set_presheaf(ys[i], ys[j]) for (i, j) in pairs}
    pair_secs = {
        ij: [_section_key(phi) for phi in enumerate_presheaf_maps(pair_ps[ij], G.underlying())]
        for ij in pairs
    }

    triples = [
        (i, j, l) for i, j in pairs for l in range(j, k) if (j, l) in pair_ps and (i, l) in pair_ps
    ]
    allowed = {}
    for (i, j, l) in triples:
        P3 = product_set_presheaf(pair_ps[(i, j)], ys[l])
        pij = set_presheaf_map(P3, pair_ps[(i, j)], lambda U, s: s[0])
        pjl = set_presheaf_map(P3, pair_ps[(j, l)], lambda U, s: (s[0][1], s[1]))
        pil = set_presheaf_map(P3, pair_ps[(i, l)], lambda U, s: (s[0][0], s[1]))
        rij = {c: _key_along(c, pij) for c in pair_secs[(i, j)]}
        rjl = {c: _key_along(c, pjl) for c in pair_secs[(j, l)]}
        ril = {c: _key_along(c, pil) for c in pair_secs[(i, l)]}
        table = {}
        for cij in pair_secs[(i, j)]:
            for cjl in pair_secs[(j, l)]:
                prod = _key_mul(G, rij[cij], rjl[cjl])
                table[(cij, cjl)] = frozenset(
                    cil for cil in pair_secs[(i, l)] if ril[cil] == prod
                )
        allowed[(i, j, l)] = table

    cocycles = []
    for choice in itertools.product(*[pair_secs[ij] for ij in pairs]):
        c = dict(zip(pairs, choice))
        if all(
            c[(i, l)] in allowed[(i, j, l)][(c[(i, j)], c[(j, l)])]
            for (i, j, l) in triples
        ):
            cocycles.append(tuple(c[ij] for ij in pairs))

    zero_secs = {
        i: [_section_key(phi) for phi in enumerate_presheaf_maps(ys[i], G.underlying())]
        for i in range(k)
    }

    def pulled(ij, end):
        """Each section over the cover object at one end of the pair ij,
        pulled back to the pair product."""
        proj = set_presheaf_map(pair_ps[ij], ys[ij[end]], lambda U, s: s[end])
        return {b: _key_along(b, proj) for b in zero_secs[ij[end]]}

    left = {ij: pulled(ij, 0) for ij in pairs}
    right_inv = {ij: {b: _key_inv(G, v) for b, v in pulled(ij, 1).items()} for ij in pairs}

    # the gauge group: a 0-cochain, one section over each cover object
    gauge = list(itertools.product(*[zero_secs[i] for i in range(k)]))

    def act(b, z):
        """The gauge b acting on the cocycle z: z_ij becomes b_i z_ij b_j^-1."""
        return tuple(
            _key_mul(G, _key_mul(G, left[ij][b[ij[0]]], z[t]), right_inv[ij][b[ij[1]]])
            for t, ij in enumerate(pairs)
        )

    orbit_of = {}
    reps = []
    for z in cocycles:
        if z in orbit_of:
            continue
        label = len(reps)
        reps.append(z)
        stack = [z]
        orbit_of[z] = label
        while stack:
            cur = stack.pop()
            for b in gauge:
                moved = act(b, cur)
                if moved not in orbit_of:
                    orbit_of[moved] = label
                    stack.append(moved)
    return {
        "cover": list(cover),
        "pairs": pairs,
        "pair_presheaves": pair_ps,
        "cocycles": cocycles,
        "orbit_of": orbit_of,
        "reps": reps,
        "gauge": gauge,
        "act": act,
    }


def gauge_orbit_count(data) -> int:
    """The number of gauge orbits on the cocycles of h1_cech_classes, by
    Burnside's lemma: the average over the gauge group of the number of
    cocycles each of its elements fixes.  No orbit is walked."""
    act = data["act"]
    fixed = sum(act(b, z) == z for b in data["gauge"] for z in data["cocycles"])
    return fixed // len(data["gauge"])


def h1_cech_oracle(G: GroupPresheaf) -> int:
    return gauge_orbit_count(h1_cech_classes(G))


def torsor_cech_class(T: ActionTorsor, data):
    """Place a group torsor with globally nonempty sections in its
    cocycle class: None when its transitions are no cocycle, as for a
    family that skips the cocycle condition.

    Trivialises over each cover object by its local section; the
    transition section over a pair product sends (h_i, h_j) to the
    transition from the first trivialisation to the second.
    """
    chosen = local_sections(T, data["cover"])
    res = T.total.res
    key = []
    for (i, j) in data["pairs"]:
        P = data["pair_presheaves"][(i, j)]
        key.append(tuple(
            (W, s, transition(T, W, res[s[0]][chosen[i]], res[s[1]][chosen[j]]))
            for W in sorted(P.site.objects, key=idkey)
            for s in P.values[W]
        ))
    return data["orbit_of"].get(tuple(key))


# ---------------------------------------------------------------------------
# Torsors for presheaves of groupoids, action picture: a set presheaf
# anchored over the objects, acted on along arrows.  An arrow g: a -> b
# moves an element anchored at b to one anchored at a, and the anchor,
# the action, and the restrictions all commute.  anchored_action builds
# every such table, local_sections picks the sections a torsor is
# trivialised by, and transition reads the arrow between two sections.


@dataclass
class ActionTorsor:
    gpd: GroupoidPresheaf
    total: SetPresheaf
    anchor: dict   # object -> {element -> groupoid object}
    action: dict   # object -> {(element, arrow): element}


@validator("anchored action tables are natural")
def validate_action_torsor(T: ActionTorsor):
    problems = []
    total = validate_set_presheaf(T.total)
    if not total:
        return [f"total object: {total.witness[0]}"]
    for U in T.total.site.objects:
        G = T.gpd.values[U]
        anchor, carrier = T.anchor[U], set(T.total.values[U])
        unanchored = [e for e in T.total.values[U] if e not in anchor]
        if unanchored:
            problems.append(f"anchor missing over {U!r} for {unanchored[0]!r}")
            continue
        tab = T.action.get(U, {})
        want = {
            (e, g)
            for e in T.total.values[U]
            for g, (a, b) in G.morphisms.items()
            if anchor[e] == b
        }
        if set(tab) != want:
            missing = sorted(want - set(tab), key=idkey)[:1]
            stray = sorted(set(tab) - want, key=idkey)[:1]
            spots = [f"missing {k!r}" for k in missing] + [f"stray {k!r}" for k in stray]
            problems.append(
                f"action table over {U!r} has the wrong anchored domain: {', '.join(spots)}"
            )
            continue
        mistyped = [
            f"action mistyped over {U!r} at {(e, g)!r}"
            for (e, g), out in tab.items()
            if out not in carrier or anchor[out] != G.src(g)
        ]
        if mistyped:
            problems.extend(mistyped)
            continue
        for e in T.total.values[U]:
            unit = (e, G.identities[anchor[e]])
            if tab[unit] != e:
                problems.append(f"unit law fails over {U!r} at {unit!r}")
        for (e, g), out in tab.items():
            for h, (c, a2) in G.morphisms.items():
                if a2 == G.src(g) and tab[(out, h)] != tab[(e, G.comp[(g, h)])]:
                    problems.append(f"associativity fails over {U!r} at {(e, g, h)!r}")
    if problems:
        return problems
    for f, (V, U) in T.total.site.cat.morphisms.items():
        obmap, mormap = T.gpd.res[f]
        for e in T.total.values[U]:
            if T.anchor[V][T.total.res[f][e]] != obmap[T.anchor[U][e]]:
                problems.append(f"anchor not natural along {f!r} at {e!r}")
        for (e, g) in T.action[U]:
            lhs = T.total.res[f][T.action[U][(e, g)]]
            rhs = T.action[V].get((T.total.res[f][e], mormap[g]))
            if lhs != rhs:
                problems.append(f"action not natural along {f!r} at {(e, g)!r}")
    return problems


def anchored_action(gpd: GroupoidPresheaf, total: SetPresheaf, anchor, act) -> ActionTorsor:
    """The anchored action of gpd on total: over each object U, the
    element e is anchored at anchor(U, e), and each arrow g of gpd's
    section that ends at e's anchor acts, e.g = act(U, e, g).  Each
    table lists elements in total's order, then arrows in gpd's order;
    whether the tables obey the laws is validate_action_torsor's
    question."""
    anchors, action = {}, {}
    for U in total.site.objects:
        arrows = gpd.values[U].morphisms.items()
        at = anchors[U] = {e: anchor(U, e) for e in total.values[U]}
        action[U] = {
            (e, g): act(U, e, g) for e in total.values[U] for g, (_, b) in arrows if b == at[e]
        }
    return ActionTorsor(gpd, total, anchors, action)


def local_sections(T: ActionTorsor, cover):
    """The first listed element over each cover member, by index: the
    local sections that trivialise T."""
    chosen = {}
    for i, member in enumerate(cover):
        found = T.total.values[member]
        if not found:
            raise InvariantError(f"no section over {member!r} to trivialise with")
        chosen[i] = found[0]
    return chosen


def transition(T: ActionTorsor, W, x, y):
    """The one arrow g of T's coefficients over W with x.g = y; an
    InvariantError when there is none or more than one."""
    tab = T.action[W]
    return unique_hit(
        [g for g in T.gpd.values[W].morphisms if tab.get((x, g)) == y],
        "torsor sections are not free and transitive",
    )


def arrows_action_torsor(GP: GroupoidPresheaf) -> ActionTorsor:
    """All arrows, anchored by target, acted on by inverse postcomposition."""
    return anchored_action(
        GP, arrows_presheaf(GP), lambda U, m: GP.values[U].dst(m),
        lambda U, m, g: GP.values[U].comp[(GP.values[U].inverses[g], m)],
    )


def representable_action_torsor(T_gpd: GroupoidPresheaf, anchor_at) -> ActionTorsor:
    """Arrows into the object anchor_at of every section, anchored by
    source, acted on by precomposition; restrictions must fix anchor_at."""

    def arrows_into_anchor(U):
        G = T_gpd.values[U]
        return [m for m in G.morphisms if G.dst(m) == anchor_at]

    total = set_presheaf(T_gpd.site, arrows_into_anchor, lambda f, m: T_gpd.res[f][1][m])
    return anchored_action(
        T_gpd, total, lambda U, m: T_gpd.values[U].src(m),
        lambda U, m, g: T_gpd.values[U].comp[(m, g)],
    )


def one_object_group(G: FinGroupoid):
    """The arrows of a one-object groupoid as a group."""
    (obj,) = G.objects
    elements = tuple(sorted(G.morphisms, key=idkey))
    return make_group("arrows", elements, lambda g, h: G.comp[(g, h)])


def groupoid_presheaf_as_group(GP: GroupoidPresheaf) -> GroupPresheaf:
    values = _shared_values(GP.values, one_object_group)
    return GroupPresheaf(GP.site, values, {f: dict(GP.res[f][1]) for f in GP.site.morphisms})


def enumerate_action_torsors(GP: GroupoidPresheaf, bound=None):
    """Anchored torsors up to the reachable stock: cochain twists of the
    arrow group when every section has one object, otherwise the
    representable torsors at globally constant objects."""
    if all(len(G.objects) == 1 for G in GP.values.values()):
        return [
            anchored_action(
                GP, T.total, lambda U, e: next(iter(GP.values[U].objects)),
                lambda U, e, g: T.action[U][(e, g)],
            )
            for T in enumerate_group_torsors(groupoid_presheaf_as_group(GP), bound)
        ]
    return [representable_action_torsor(GP, a) for a in constant_objects(GP)]


def constant_objects(GP: GroupoidPresheaf):
    """The objects, by id, that every section has and every restriction
    fixes."""
    return fixed_objects(GP.values.values(), [ob for ob, _ in GP.res.values()])


def action_torsor_maps(T1: ActionTorsor, T2: ActionTorsor):
    """Equivariant presheaf maps between the totals; equivariance along
    the identity at each element's anchor keeps the anchors."""
    return natural_maps(T1.total, T2.total, _equivariance(T1, T2))


def _plus_action(A: ActionTorsor) -> ActionTorsor:
    """One plus-construction step of the anchored action: a matching
    family is anchored at the one object that restricts to each member's
    anchor, and an arrow acts on it member by member."""
    C, GP = A.total.site.cat, A.gpd

    def anchor(U, m):
        heads = [(f, A.anchor[C.src(f)][v]) for f, v in m]
        return unique_hit(
            [a for a in GP.values[U].objects if all(GP.res[f][0][a] == h for f, h in heads)],
            "anchors of a matching family do not glue",
        )

    def act(U, m, g):
        return tuple((f, A.action[C.src(f)][(v, GP.res[f][1][g])]) for f, v in m)

    return anchored_action(GP, plus_construction(A.total), anchor, act)


def action_torsor_check(T: ActionTorsor) -> Check:
    """Locally nonempty, free, and connected by arrows after sheafification."""
    return _sheafified_torsor_check(
        T, [objects_presheaf, arrows_presheaf],
        "anchored action is a torsor for the groupoid presheaf",
        "anchored action tables are natural", "coefficients form a sheaf of groupoids",
        "any two sheafified sections are joined by an arrow",
    )


def _sheafified_torsor_check(T: ActionTorsor, sheaf_parts, claim, valid_claim, sheaf_claim,
                             joined_claim) -> Check:
    """The action tables are valid and each coefficient part in
    ``sheaf_parts`` is a sheaf; then the total object covers the point
    locally, and the action is free and joins any two sections after
    PLUS_STEPS plus-construction steps."""
    check = Check(claim, True, params={"depth": PLUS_STEPS})
    if not check.add(replace(validate_action_torsor(T), claim=valid_claim)):
        return check
    if not check.add(require(all(is_sheaf(part(T.gpd)) for part in sheaf_parts), sheaf_claim)):
        return check
    to_pt = set_presheaf_map(T.total, terminal_presheaf(T.total.site), lambda U, s: "*")
    epi = local_epi_check(to_pt)
    epi.claim = "total object covers the point locally"
    check.add(epi)
    A = T
    for _ in range(PLUS_STEPS):
        A = _plus_action(A)
    stabilized = [
        (U, e, g)
        for U in A.total.site.objects
        for (e, g), out in A.action[U].items()
        if out == e and g != T.gpd.values[U].identities[A.anchor[U][e]]
    ]
    untied = [
        (U, e, e2)
        for U in A.total.site.objects
        for e in A.total.values[U]
        for e2 in A.total.values[U]
        if not any(A.action[U].get((e, g)) == e2 for g in T.gpd.values[U].morphisms)
    ]
    check.add(
        require(not stabilized, "action is free on sheafified sections", witness=stabilized[:2])
    )
    check.add(require(not untied, joined_claim, witness=untied[:2]))
    return check


# ---------------------------------------------------------------------------
# The bundle picture: the nerve of holim.translation_groupoid of an
# anchored action, projected to the nerve of the coefficients.  An arrow
# g: a -> b carries an element x anchored at a to x . g^-1, so an
# n-simplex is a string ((a_0, x_0), ((g_1, x_0), ..., (g_n, x_(n-1))))
# over (a_0, (g_1, ..., g_n)).  Level zero is relabelled to the total
# object on the nose, and every higher level is the pullback of the
# level-zero square along the last vertex.  A section over U reads only
# the groupoid over U, the carrier in its order, and the anchor and
# action tables over U; _bundle_section_key holds exactly these, so the
# section is a function of its key.


@dataclass
class BundleTorsor:
    gpd: GroupoidPresheaf
    nerve: SSetPresheaf
    total: SSetPresheaf
    projection: SSetPresheafMap


def _bundle_section_key(G: FinGroupoid, carrier, anchor, act):
    """The groupoid by identity, the carrier in order, the anchor and
    action tables."""
    return (id(G), tuple(carrier), frozenset(anchor.items()), frozenset(act.items()))


def action_bundles(torsors, trunc) -> list[BundleTorsor]:
    """The bundle of each anchored action, in one pass over the family.

    Sections with equal ``_bundle_section_key`` are one shared
    TruncSSet, over every site object and every member, and each
    coefficient presheaf's nerve is built once, as the base of all its
    members.  Sharing is sound because a section is built from its key
    alone and no section is changed after it is built."""
    bases, sections = {}, {}

    def section(G, carrier, anchor, act):
        key = _bundle_section_key(G, carrier, anchor, act)
        if key not in sections:
            over = {a: [e for e in carrier if anchor[e] == a] for a in G.objects}
            E = translation_groupoid(G, over, lambda g, x: act[(x, G.inverses[g])])
            N = nerve_groupoid(E, trunc)
            sections[key] = relabel(N, lambda n, s: s[0][1] if n == 0 else s)
        return sections[key]

    out = []
    for T in torsors:
        if id(T.gpd) not in bases:
            bases[id(T.gpd)] = bg_presheaf(T.gpd, trunc)
        out.append(_bundle(T, bases[id(T.gpd)], section))
    return out


def _bundle(T: ActionTorsor, BG: SSetPresheaf, section) -> BundleTorsor:
    def value(U):
        return section(T.gpd.values[U], T.total.values[U], T.anchor[U], T.action[U])

    def restrict(f, n, s):
        r = T.total.res[f]
        if n == 0:
            return r[s]
        obmap, mormap = T.gpd.res[f]
        (a0, x0), ms = s
        return ((obmap[a0], r[x0]), tuple((mormap[g], r[x]) for g, x in ms))

    def project(U, n, s):
        if n == 0:
            return (T.anchor[U][s], ())
        (a0, _), ms = s
        return (a0, tuple(g for g, _ in ms))

    Y = sset_presheaf(T.total.site, value, restrict)
    return BundleTorsor(T.gpd, BG, Y, sset_presheaf_map(Y, BG, project))


def pullback_shape_check(total: SSetPresheaf, pi: SSetPresheafMap, claim) -> Check:
    """Every level of the total object is recovered from level zero by
    pullback along the last-vertex map of the base."""
    check = Check(claim, True, params={"trunc": total.trunc})
    for U in total.site.objects:
        X, N, comp = total.values[U], pi.target.values[U], pi.components[U]
        for n in range(1, total.trunc + 1):
            pairs = {(X.vertex(n, n, x), comp[n][x]) for x in X.level(n)}
            over = {}
            for w in N.level(n):
                over.setdefault(N.vertex(n, n, w), []).append(w)
            wanted = {(y, w) for y in X.level(0) for w in over.get(comp[0][y], ())}
            ok = len(pairs) == X.size(n) and pairs == wanted
            check.add(
                require(
                    ok,
                    f"level {n} over {U!r} is the pullback",
                    witness={"have": len(pairs), "want": len(wanted), "size": X.size(n)},
                )
            )
            if not ok:
                return check
    return check


def locally_trivial_check(total: SSetPresheaf, claim) -> Check:
    """The map from ``total`` to the point is a local weak equivalence:
    the last step of every torsor check on an assembled total object."""
    weq = local_weq_check(to_point_map(total))
    weq.claim = claim
    return weq


def display_torsor_check(claim, noun, total, pi, shape_claim) -> Check:
    """A simplicial presheaf over a nerve is a torsor when it and its
    projection are valid, its higher levels pull back from level zero
    (the part ``shape_claim``), and it is locally trivial; ``noun``
    names it in the claims."""
    check = Check(claim, True, params={"depth": PLUS_STEPS})
    check.add(replace(validate_sset_presheaf(total), claim=f"{noun} is a simplicial presheaf"))
    check.add(replace(validate_sset_presheaf_map(pi), claim="projection is a presheaf map"))
    if check.ok:
        check.add(pullback_shape_check(total, pi, shape_claim))
    if check.ok:
        check.add(locally_trivial_check(total, f"{noun} is locally trivial"))
    return check


_BUNDLE_SHAPE = "higher levels pull back from level zero"


def bundle_torsor_check(T5: BundleTorsor) -> Check:
    return display_torsor_check(
        "simplicial bundle over the nerve is a torsor", "total object",
        T5.total, T5.projection, _BUNDLE_SHAPE,
    )


def bundle_to_action(T5: BundleTorsor) -> ActionTorsor:
    """Extract the level-zero action; the value on an arrow is the first
    face of the unique filler over its nerve string."""
    shape = pullback_shape_check(T5.total, T5.projection, _BUNDLE_SHAPE)
    if not shape.ok:
        raise ValueError("bundle does not pull back from level zero: "
                         + shape.render().splitlines()[-1])
    site = T5.total.site
    total = set_presheaf(
        site, lambda U: T5.total.values[U].level(0), lambda f, e: T5.total.res[f][0][e]
    )
    fillers = {}
    for U in site.objects:
        X, pi = T5.total.values[U], T5.projection.components[U]
        over = fillers[U] = {}
        for s in X.level(1):
            over.setdefault((pi[1][s], X.vertex(1, 1, s)), []).append(s)

    def act(U, e, g):
        a, _ = T5.gpd.values[U].morphisms[g]
        hits = fillers[U].get(((a, (g,)), e), [])
        return T5.total.values[U].face(1, 1, unique_hit(hits, "filler over an arrow is not unique"))

    return anchored_action(T5.gpd, total, lambda U, e: T5.projection.components[U][0][e][0], act)
