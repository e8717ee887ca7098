"""Torsors over a finite site, in the set-level flavours.

Coefficients come in two shapes here: presheaves of groups acting on
set presheaves, and presheaves of groupoids acting on anchored set
presheaves.  Both have an equivalent bundle picture, a simplicial
presheaf over the nerve whose higher levels are recovered from level
zero by pullback; the conversions run in both directions and are
mutually inverse on the nose.  An independent cocycle count over a
fixed cover family cross-checks every classification number.

The simplicial coefficient flavours live in bundles.py and the
component counting in classify.py; this module also builds the
classifying presheaves (cocycle object, total object, diagonal nerve)
that all of them map into.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .groupoid import FinGroupoid, group_as_groupoid, nerve_groupoid
from .presheaf import (
    GroupPresheaf,
    SetPresheaf,
    SetPresheafMap,
    SgdPresheaf,
    SSetPresheaf,
    SSetPresheafMap,
    enumerate_presheaf_maps,
    product_set_presheaf,
    set_presheaf,
    set_presheaf_map,
    sset_presheaf_map,
    terminal_presheaf,
    terminal_sset_presheaf,
    validate_set_presheaf,
    validate_sset_presheaf,
    validate_sset_presheaf_map,
    yoneda,
)
from .report import Check, InvariantError, require, unique_hit
from .sgroupoid import db_sgroupoid, string_steps
from .sheaf import is_sheaf, local_epi_check, local_weq_check, plus_construction
from .sset import idkey, relabel
from .wbar import wbar, w_total


# ---------------------------------------------------------------------------
# Groupoid-valued presheaves.


@dataclass
class GroupoidPresheaf:
    site: object
    values: dict   # object -> FinGroupoid
    res: dict      # morphism -> (object table, arrow table)

    def restrict_ob(self, f, a):
        return self.res[f][0][a]

    def restrict_arrow(self, f, m):
        return self.res[f][1][m]


def _shared_values(values, build):
    """Build per section, reusing the result for identical sections."""
    cache, out = {}, {}
    for U, H in values.items():
        key = id(H)
        if key not in cache:
            cache[key] = build(H)
        out[U] = cache[key]
    return out


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


def validate_groupoid_presheaf(GP: GroupoidPresheaf):
    problems = []
    ok, probs = validate_set_presheaf(objects_presheaf(GP))
    if not ok:
        problems.append(f"objects: {probs[0]}")
    ok, probs = validate_set_presheaf(arrows_presheaf(GP))
    if not ok:
        problems.append(f"arrows: {probs[0]}")
    if problems:
        return False, problems
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
    return not problems, problems


# ---------------------------------------------------------------------------
# Classifying presheaves.  Sectionwise constructions with the induced
# restriction tables; identical sections share one table.


def _cocycle_image(F, n, s):
    objs, arrows = s
    return (
        tuple(F.ob[x] for x in objs),
        tuple(
            F.on_hom(objs[i], objs[i - 1], n - i, a)
            for i, a in enumerate(arrows, start=1)
        ),
    )


def wbar_presheaf(Q: SgdPresheaf, trunc=None) -> SSetPresheaf:
    """The cocycle classifying object of each section."""
    values = _shared_values(Q.values, lambda H: wbar(H, trunc))
    res = {}
    for f, (V, U) in Q.site.cat.morphisms.items():
        F = Q.res[f]
        X = values[U]
        res[f] = {
            n: {s: _cocycle_image(F, n, s) for s in X.level(n)}
            for n in range(X.trunc + 1)
        }
    return SSetPresheaf(Q.site, values, res)


def w_total_presheaf(Q: SgdPresheaf) -> SSetPresheaf:
    """The total object of each section; level n holds shifted cocycles."""
    values = _shared_values(Q.values, w_total)
    res = {}
    for f, (V, U) in Q.site.cat.morphisms.items():
        F = Q.res[f]
        X = values[U]
        res[f] = {
            n: {s: _cocycle_image(F, n + 1, s) for s in X.level(n)}
            for n in range(X.trunc + 1)
        }
    return SSetPresheaf(Q.site, values, res)


def db_presheaf(Q: SgdPresheaf) -> SSetPresheaf:
    """Diagonal nerve of each section."""
    values = _shared_values(Q.values, db_sgroupoid)
    res = {}
    for f, (V, U) in Q.site.cat.morphisms.items():
        F = Q.res[f]
        H = Q.values[U]
        X = values[U]

        def image(n, s, F=F, H=H):
            x0, gs = s
            steps = string_steps(H, x0, gs, n)
            return (F.ob[x0], tuple(F.on_hom(a, b, n, g) for a, b, g in steps))

        res[f] = {
            n: {s: image(n, s) for s in X.level(n)} for n in range(X.trunc + 1)
        }
    return SSetPresheaf(Q.site, values, res)


def bg_presheaf(GP: GroupoidPresheaf, trunc) -> SSetPresheaf:
    """Nerve of each section of a groupoid presheaf."""
    values = _shared_values(GP.values, lambda G: nerve_groupoid(G, trunc))
    res = {}
    for f, (V, U) in GP.site.cat.morphisms.items():
        obmap, mormap = GP.res[f]
        X = values[U]
        res[f] = {
            n: {
                (x0, fs): (obmap[x0], tuple(mormap[g] for g in fs))
                for (x0, fs) in X.level(n)
            }
            for n in range(X.trunc + 1)
        }
    return SSetPresheaf(GP.site, values, res)


def to_point_map(Y: SSetPresheaf) -> SSetPresheafMap:
    trunc = next(iter(Y.values.values())).trunc
    T = terminal_sset_presheaf(Y.site, trunc)
    return sset_presheaf_map(Y, T, lambda U, n, x: (0,) * (n + 1))


# ---------------------------------------------------------------------------
# Torsors for presheaves of groups: a set presheaf with a right action,
# checked to be locally nonempty, free, and transitive after
# sheafification.


@dataclass
class GroupTorsor:
    group: GroupPresheaf
    total: SetPresheaf
    action: dict   # object -> {(element, group element): element}


def validate_group_action(T: GroupTorsor):
    problems = []
    ok, probs = validate_set_presheaf(T.total)
    if not ok:
        return False, [f"total object: {probs[0]}"]
    for U in T.total.site.objects:
        F = T.group.values[U]
        tab = T.action.get(U, {})
        want = {(e, g) for e in T.total.values[U] for g in F.elements}
        if set(tab) != want:
            problems.append(f"action table over {U!r} has the wrong domain")
            continue
        carrier = set(T.total.values[U])
        for e in T.total.values[U]:
            if tab[(e, F.e)] != e:
                problems.append(f"unit law fails over {U!r} at {e!r}")
            for g, h in itertools.product(F.elements, repeat=2):
                if tab[(e, g)] not in carrier:
                    problems.append(f"action escapes the carrier over {U!r}")
                elif tab[(tab[(e, g)], h)] != tab[(e, F.mul[(g, h)])]:
                    problems.append(f"associativity fails over {U!r} at {(e, g, h)!r}")
    if problems:
        return False, problems
    for f, (V, U) in T.total.site.cat.morphisms.items():
        for e in T.total.values[U]:
            for g in T.group.values[U].elements:
                lhs = T.total.res[f][T.action[U][(e, g)]]
                rhs = T.action[V][(T.total.res[f][e], T.group.res[f][g])]
                if lhs != rhs:
                    problems.append(f"action not natural along {f!r} at {(e, g)!r}")
    return not problems, problems


def trivial_group_torsor(G: GroupPresheaf) -> GroupTorsor:
    """The group acting on itself by right translation."""
    total = G.underlying()
    action = {
        U: {
            (e, g): G.values[U].mul[(e, g)]
            for e in total.values[U]
            for g in G.values[U].elements
        }
        for U in G.site.objects
    }
    return GroupTorsor(G, total, action)


def group_torsor_check(T: GroupTorsor, depth=2) -> Check:
    """Locally nonempty, and free and transitive on sheafified sections."""
    check = Check(
        "total object is a torsor for the group presheaf",
        True,
        params={"depth": depth},
    )
    ok, problems = validate_group_action(T)
    check.add(require(ok, "action tables form a presheaf action", witness=problems[:3]))
    if not ok:
        return check
    check.add(require(is_sheaf(T.group.underlying(), depth), "coefficients form a sheaf"))
    if not check.ok:
        return check
    for part in _sheafified_checks(
        group_torsor_to_action(T), depth, "action is transitive on sheafified sections"
    ):
        check.add(part)
    return check


# ---------------------------------------------------------------------------
# Enumeration of group torsors by twisting tables: one group element per
# morphism of the site, compatible with identities and composition.  The
# carrier of the resulting torsor is the group itself, so this lists the
# torsors that are trivial over every object, which on the bundled sites
# is all of them.


def enumerate_group_cochains(G: GroupPresheaf, bound=None):
    C = G.site.cat
    idset = set(C.identities.values())
    order = [f for f in sorted(C.morphisms, key=idkey) if f not in idset]
    total = 1
    for f in order:
        total *= len(G.values[C.src(f)].elements)
    if bound is not None and total > bound:
        raise ValueError(
            f"cochain enumeration needs {total} candidates, bound is {bound}"
        )

    def consistent(c):
        full = dict(c)
        for U, e in C.identities.items():
            full[e] = G.values[U].e
        for f, (V, U) in C.morphisms.items():
            for g, (W, V2) in C.morphisms.items():
                if V2 != V:
                    continue
                fg = C.comp[(f, g)]
                want = G.values[W].mul[(full[g], G.res[g][full[f]])]
                if full[fg] != want:
                    return False
        return True

    out = []
    for choice in itertools.product(*[G.values[C.src(f)].elements for f in order]):
        c = dict(zip(order, choice))
        if consistent(c):
            for U, e in C.identities.items():
                c[e] = G.values[U].e
            out.append(c)
    return out


def cochain_torsor(G: GroupPresheaf, c) -> GroupTorsor:
    """Carrier G with right translation, restriction twisted by c."""
    site = G.site

    def restrict(f, e):
        W = site.cat.src(f)
        return G.values[W].mul[(c[f], G.res[f][e])]

    total = set_presheaf(site, lambda U: G.values[U].elements, restrict)
    action = {
        U: {
            (e, g): G.values[U].mul[(e, g)]
            for e in total.values[U]
            for g in G.values[U].elements
        }
        for U in site.objects
    }
    return GroupTorsor(G, total, action)


def enumerate_group_torsors(G: GroupPresheaf, bound=None):
    return [cochain_torsor(G, c) for c in enumerate_group_cochains(G, bound)]


def group_torsor_maps(T1: GroupTorsor, T2: GroupTorsor):
    """All equivariant presheaf maps between the total objects."""
    out = []
    for phi in enumerate_presheaf_maps(T1.total, T2.total):
        if all(
            phi.components[U][T1.action[U][(e, g)]]
            == T2.action[U][(phi.components[U][e], g)]
            for U in T1.total.site.objects
            for e in T1.total.values[U]
            for g in T1.group.values[U].elements
        ):
            out.append(phi)
    return out


def is_componentwise_bijection(phi: SetPresheafMap):
    return all(
        len(set(phi.components[U].values()))
        == len(phi.source.values[U])
        == len(phi.target.values[U])
        for U in phi.source.site.objects
    )


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

    The result carries the pair presheaves and trivialization data that
    classify() uses to place an enumerated torsor in its class.
    """
    site = G.site
    if cover is None:
        cover = list(site.star_covers[0])
    k = len(cover)
    ys = {i: yoneda(site, cover[i]) for i in range(k)}
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    pair_ps = {(i, j): product_set_presheaf(ys[i], ys[j]) for (i, j) in pairs}
    pair_secs = {
        ij: [_section_key(phi) for phi in enumerate_presheaf_maps(pair_ps[ij], G.underlying())]
        for ij in pairs
    }

    triples = [
        (i, j, l) for i in range(k) for j in range(i + 1, k) for l in range(j + 1, k)
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
    left = {
        (i, j): {
            b: _key_along(b, set_presheaf_map(pair_ps[(i, j)], ys[i], lambda U, s: s[0]))
            for b in zero_secs[i]
        }
        for (i, j) in pairs
    }
    right = {
        (i, j): {
            b: _key_along(b, set_presheaf_map(pair_ps[(i, j)], ys[j], lambda U, s: s[1]))
            for b in zero_secs[j]
        }
        for (i, j) in pairs
    }

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
            for b in itertools.product(*[zero_secs[i] for i in range(k)]):
                moved = tuple(
                    _key_mul(
                        G,
                        _key_mul(G, left[ij][b[ij[0]]], cur[t]),
                        _key_inv(G, right[ij][b[ij[1]]]),
                    )
                    for t, ij in enumerate(pairs)
                )
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
    }


def h1_cech_oracle(G: GroupPresheaf, cover=None) -> int:
    return len(h1_cech_classes(G, cover)["reps"])


def torsor_cech_class(T: GroupTorsor, data) -> int:
    """Place a torsor with globally nonempty sections in its cocycle class.

    Trivializes over each cover object by the first listed element; the
    transition section over a pair product sends (h_i, h_j) to the
    unique g carrying the first trivialization to the second.
    """
    site = T.total.site
    cover = data["cover"]
    G = T.group
    base = {}
    for i, Ui in enumerate(cover):
        if not T.total.values[Ui]:
            raise InvariantError(f"no section over {Ui!r} to trivialize with")
        base[i] = T.total.values[Ui][0]

    def transition(W, hi, hj, i, j):
        ei = T.total.res[hi][base[i]]
        ej = T.total.res[hj][base[j]]
        return unique_hit(
            [g for g in G.values[W].elements if T.action[W][(ei, g)] == ej],
            "torsor sections are not free and transitive",
        )

    key = []
    for (i, j) in data["pairs"]:
        P = data["pair_presheaves"][(i, j)]
        sec = tuple(
            (W, s, transition(W, s[0], s[1], i, j))
            for W in sorted(P.site.objects, key=idkey)
            for s in P.values[W]
        )
        key.append(sec)
    return data["orbit_of"][tuple(key)]


# ---------------------------------------------------------------------------
# Torsors for presheaves of groupoids, action picture: a set presheaf
# anchored over the objects, acted on along arrows.  An arrow g: a -> b
# moves an element anchored at b to one anchored at a, and the anchor,
# the action, and the restrictions all commute.


@dataclass
class ActionTorsor:
    gpd: GroupoidPresheaf
    total: SetPresheaf
    anchor: dict   # object -> {element -> groupoid object}
    action: dict   # object -> {(element, arrow): element}


def validate_action_torsor(T: ActionTorsor):
    problems = []
    ok, probs = validate_set_presheaf(T.total)
    if not ok:
        return False, [f"total object: {probs[0]}"]
    for U in T.total.site.objects:
        G = T.gpd.values[U]
        anchor = T.anchor[U]
        tab = T.action.get(U, {})
        want = {
            (e, g)
            for e in T.total.values[U]
            for g, (a, b) in G.morphisms.items()
            if anchor[e] == b
        }
        if set(tab) != want:
            problems.append(f"action table over {U!r} has the wrong anchored domain")
            continue
        for (e, g) in want:
            out = tab[(e, g)]
            if out not in set(T.total.values[U]) or anchor[out] != G.src(g):
                problems.append(f"action mistyped over {U!r} at {(e, g)!r}")
        for e in T.total.values[U]:
            if tab[(e, G.identities[anchor[e]])] != e:
                problems.append(f"unit law fails over {U!r} at {e!r}")
        for (e, g) in want:
            for h, (c, a2) in G.morphisms.items():
                if a2 != G.src(g):
                    continue
                if tab[(tab[(e, g)], h)] != tab[(e, G.comp[(g, h)])]:
                    problems.append(f"associativity fails over {U!r}")
    if problems:
        return False, problems
    for f, (V, U) in T.total.site.cat.morphisms.items():
        obmap, mormap = T.gpd.res[f]
        for e in T.total.values[U]:
            if T.anchor[V][T.total.res[f][e]] != obmap[T.anchor[U][e]]:
                problems.append(f"anchor not natural along {f!r} at {e!r}")
        for (e, g) in T.action[U]:
            lhs = T.total.res[f][T.action[U][(e, g)]]
            rhs = T.action[V][(T.total.res[f][e], mormap[g])]
            if lhs != rhs:
                problems.append(f"action not natural along {f!r} at {(e, g)!r}")
    return not problems, problems


def group_torsor_to_action(T: GroupTorsor) -> ActionTorsor:
    GP = group_presheaf_as_groupoid(T.group)
    anchor = {U: {e: "*" for e in T.total.values[U]} for U in T.total.site.objects}
    return ActionTorsor(GP, T.total, anchor, T.action)


def arrows_action_torsor(GP: GroupoidPresheaf) -> ActionTorsor:
    """All arrows, anchored by target, acted on by inverse postcomposition."""
    total = arrows_presheaf(GP)
    anchor = {
        U: {m: GP.values[U].dst(m) for m in total.values[U]}
        for U in GP.site.objects
    }
    action = {}
    for U in GP.site.objects:
        G = GP.values[U]
        tab = {}
        for m in total.values[U]:
            for g, (a, b) in G.morphisms.items():
                if b == G.dst(m):
                    tab[(m, g)] = G.comp[(G.inverses[g], m)]
        action[U] = tab
    return ActionTorsor(GP, total, anchor, action)


def representable_action_torsor(T_gpd: GroupoidPresheaf, anchor_at) -> ActionTorsor:
    """Arrows into a chosen object, anchored by source, acted on by
    precomposition.  anchor_at maps each site object to a groupoid
    object, naturally in restrictions; a plain object means the same
    choice everywhere."""
    if not isinstance(anchor_at, dict):
        anchor_at = {U: anchor_at for U in T_gpd.site.objects}
    values, anchor, action = {}, {}, {}
    for U in T_gpd.site.objects:
        G = T_gpd.values[U]
        arrows = tuple(
            sorted((m for m in G.morphisms if G.dst(m) == anchor_at[U]), key=idkey)
        )
        values[U] = arrows
        anchor[U] = {m: G.src(m) for m in arrows}
        tab = {}
        for m in arrows:
            for g, (a, b) in G.morphisms.items():
                if b == G.src(m):
                    tab[(m, g)] = G.comp[(m, g)]
        action[U] = tab
    res = {
        f: {m: T_gpd.res[f][1][m] for m in values[U]}
        for f, (V, U) in T_gpd.site.cat.morphisms.items()
    }
    total = SetPresheaf(T_gpd.site, values, res)
    return ActionTorsor(T_gpd, total, anchor, action)


def one_object_group(G: FinGroupoid, U_label=""):
    """The arrows of a one-object groupoid as a group."""
    from .groupoid import make_group

    (obj,) = G.objects
    elements = tuple(sorted(G.morphisms, key=idkey))
    return make_group(f"arrows{U_label}", elements, lambda g, h: G.comp[(g, h)])


def groupoid_presheaf_as_group(GP: GroupoidPresheaf) -> GroupPresheaf:
    values = _shared_values(GP.values, one_object_group)
    return GroupPresheaf(GP.site, values, {f: dict(GP.res[f][1]) for f in GP.site.morphisms})


def enumerate_action_torsors(GP: GroupoidPresheaf, bound=None):
    """Anchored torsors up to the reachable stock: cochain twists of the
    arrow group when every section has one object, otherwise the
    representable torsors at globally constant objects."""
    if all(len(G.objects) == 1 for G in GP.values.values()):
        out = []
        for T in enumerate_group_torsors(groupoid_presheaf_as_group(GP), bound):
            anchor = {
                U: {e: next(iter(GP.values[U].objects)) for e in T.total.values[U]}
                for U in GP.site.objects
            }
            out.append(ActionTorsor(GP, T.total, anchor, T.action))
        return out
    constant = [
        a
        for a in sorted(
            set.intersection(*[set(G.objects) for G in GP.values.values()]), key=idkey
        )
        if all(GP.res[f][0].get(a) == a for f in GP.site.morphisms)
    ]
    return [representable_action_torsor(GP, a) for a in constant]


def action_torsor_maps(T1: ActionTorsor, T2: ActionTorsor):
    """Equivariant, anchor-preserving presheaf maps between the totals."""
    out = []
    for phi in enumerate_presheaf_maps(T1.total, T2.total):
        anchored = all(
            T2.anchor[U][phi.components[U][e]] == T1.anchor[U][e]
            for U in T1.total.site.objects
            for e in T1.total.values[U]
        )
        if anchored and all(
            phi.components[U][T1.action[U][(e, g)]]
            == T2.action[U][(phi.components[U][e], g)]
            for U in T1.total.site.objects
            for (e, g) in T1.action[U]
        ):
            out.append(phi)
    return out


def _plus_action_anchored(T: ActionTorsor, E, anchor, action, depth=2):
    """One plus-construction step of the anchored action."""
    C = E.site.cat
    Ep = plus_construction(E, depth)
    new_anchor, new_action = {}, {}
    for U in E.site.objects:
        atab, tab = {}, {}
        for m in Ep.values[U]:
            heads = [anchor[C.src(f)][v] for f, v in m]
            lifted = [
                a
                for a in T.gpd.values[U].objects
                if all(
                    T.gpd.res[f][0][a] == h for (f, _), h in zip(m, heads)
                )
            ]
            atab[m] = unique_hit(lifted, "anchors of a matching family do not glue")
            for g, (a, b) in T.gpd.values[U].morphisms.items():
                if b != atab[m]:
                    continue
                tab[(m, g)] = tuple(
                    (f, action[C.src(f)][(v, T.gpd.res[f][1][g])]) for f, v in m
                )
        new_anchor[U] = atab
        new_action[U] = tab
    return Ep, new_anchor, new_action


def action_torsor_check(T: ActionTorsor, depth=2) -> Check:
    """Locally nonempty, free, and connected by arrows after sheafification."""
    check = Check(
        "anchored action is a torsor for the groupoid presheaf",
        True,
        params={"depth": depth},
    )
    ok, problems = validate_action_torsor(T)
    check.add(require(ok, "anchored action tables are natural", witness=problems[:3]))
    if not ok:
        return check
    sheaves = is_sheaf(objects_presheaf(T.gpd), depth) and is_sheaf(
        arrows_presheaf(T.gpd), depth
    )
    check.add(require(sheaves, "coefficients form a sheaf of groupoids"))
    if not check.ok:
        return check
    for part in _sheafified_checks(
        T, depth, "any two sheafified sections are joined by an arrow"
    ):
        check.add(part)
    return check


def _sheafified_checks(T: ActionTorsor, depth, joined_claim):
    """The total object covers the point locally, and the action is free
    and joins any two sections after two plus-construction steps."""
    to_pt = set_presheaf_map(T.total, terminal_presheaf(T.total.site), lambda U, s: "*")
    epi = local_epi_check(to_pt, depth)
    epi.claim = "total object covers the point locally"
    E1, an1, a1 = _plus_action_anchored(T, T.total, T.anchor, T.action, depth)
    E2, an2, a2 = _plus_action_anchored(T, E1, an1, a1, depth)
    stabilized = [
        (U, e, g)
        for U in E2.site.objects
        for (e, g) in a2[U]
        if a2[U][(e, g)] == e and g != T.gpd.values[U].identities[an2[U][e]]
    ]
    untied = [
        (U, e, e2)
        for U in E2.site.objects
        for e in E2.values[U]
        for e2 in E2.values[U]
        if not any(a2[U].get((e, g)) == e2 for g in T.gpd.values[U].morphisms)
    ]
    return [
        epi,
        require(not stabilized, "action is free on sheafified sections", witness=stabilized[:2]),
        require(not untied, joined_claim, witness=untied[:2]),
    ]


# ---------------------------------------------------------------------------
# The bundle picture: the nerve of the translation groupoid of an
# anchored action, projected to the nerve of the coefficients.  Level
# zero is the total object on the nose, and every higher level is the
# pullback of the level-zero square, with the element coordinate riding
# at the last vertex.


@dataclass
class BundleTorsor:
    gpd: GroupoidPresheaf
    nerve: SSetPresheaf
    total: SSetPresheaf
    projection: SSetPresheafMap


def translation_groupoid_anchored(T: ActionTorsor, U) -> FinGroupoid:
    G = T.gpd.values[U]
    anchor = T.anchor[U]
    morphisms = {}
    for e in T.total.values[U]:
        for g, (a, b) in G.morphisms.items():
            if anchor[e] == b:
                morphisms[(e, g)] = (T.action[U][(e, g)], e)
    comp = {}
    for (e2, g2), (s2, d2) in morphisms.items():
        for (e1, g1), (s1, d1) in morphisms.items():
            if d1 == s2:
                comp[((e2, g2), (e1, g1))] = (e2, G.comp[(g2, g1)])
    identities = {e: (e, G.identities[anchor[e]]) for e in T.total.values[U]}
    inverses = {
        (e, g): (T.action[U][(e, g)], G.inverses[g]) for (e, g) in morphisms
    }
    return FinGroupoid(tuple(T.total.values[U]), morphisms, comp, identities, inverses)


def action_to_bundle(T: ActionTorsor, trunc) -> BundleTorsor:
    site = T.total.site
    BG = bg_presheaf(T.gpd, trunc)
    values, res, comps = {}, {}, {}
    for U in site.objects:
        E = translation_groupoid_anchored(T, U)
        values[U] = relabel(
            nerve_groupoid(E, trunc), lambda n, s: s[0] if n == 0 else s
        )

    def restrict_arrow(f, m):
        e, g = m
        return (T.total.res[f][e], T.gpd.res[f][1][g])

    for f, (V, U) in site.cat.morphisms.items():
        X = values[U]
        tab = {0: {e: T.total.res[f][e] for e in X.level(0)}}
        for n in range(1, trunc + 1):
            tab[n] = {
                (e0, ms): (
                    T.total.res[f][e0],
                    tuple(restrict_arrow(f, m) for m in ms),
                )
                for (e0, ms) in X.level(n)
            }
        res[f] = tab

    for U in site.objects:
        X = values[U]
        comp = {0: {e: (T.anchor[U][e], ()) for e in X.level(0)}}
        for n in range(1, trunc + 1):
            comp[n] = {
                (e0, ms): (T.anchor[U][e0], tuple(m[1] for m in ms))
                for (e0, ms) in X.level(n)
            }
        comps[U] = comp

    Y = SSetPresheaf(site, values, res)
    proj = SSetPresheafMap(Y, BG, comps)
    return BundleTorsor(T.gpd, BG, Y, proj)


def bundle_shape_check(T5: BundleTorsor) -> Check:
    """Every level is recovered from level zero by pullback along the
    last-vertex map."""
    Y, BG = T5.total, T5.nerve
    trunc = next(iter(Y.values.values())).trunc
    check = Check("higher levels pull back from level zero", True,
                  params={"trunc": trunc})
    for U in Y.site.objects:
        X, N = Y.values[U], BG.values[U]
        pi = T5.projection.components[U]
        for n in range(1, trunc + 1):
            pairs = {
                (X.vertex(n, n, x), pi[n][x]) for x in X.level(n)
            }
            wanted = {
                (y, w)
                for y in X.level(0)
                for w in N.level(n)
                if N.vertex(n, n, w) == pi[0][y]
            }
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


def bundle_torsor_check(T5: BundleTorsor, depth=2) -> Check:
    check = Check(
        "simplicial bundle over the nerve is a torsor",
        True,
        params={"depth": depth},
    )
    ok, problems = validate_sset_presheaf(T5.total)
    check.add(require(ok, "total object is a simplicial presheaf", witness=problems[:3]))
    okm, problems = validate_sset_presheaf_map(T5.projection)
    check.add(require(okm, "projection is a presheaf map", witness=problems[:3]))
    if not (ok and okm):
        return check
    check.add(bundle_shape_check(T5))
    if not check.ok:
        return check
    weq = local_weq_check(to_point_map(T5.total), depth=depth)
    weq.claim = "total object is locally trivial"
    check.add(weq)
    return check


def bundle_to_action(T5: BundleTorsor) -> ActionTorsor:
    """Extract the level-zero action; the value on an arrow is the first
    face of the unique filler over its nerve string."""
    shape = bundle_shape_check(T5)
    if not shape.ok:
        raise ValueError("bundle does not pull back from level zero: "
                         + shape.render().splitlines()[-1])
    site = T5.total.site
    total = SetPresheaf(
        site,
        {U: tuple(T5.total.values[U].level(0)) for U in site.objects},
        {f: dict(T5.total.res[f][0]) for f in site.morphisms},
    )
    anchor, action = {}, {}
    for U in site.objects:
        X = T5.total.values[U]
        pi = T5.projection.components[U]
        anchor[U] = {e: pi[0][e][0] for e in total.values[U]}
        G = T5.gpd.values[U]
        tab = {}
        for e in total.values[U]:
            for g, (a, b) in G.morphisms.items():
                if anchor[U][e] != b:
                    continue
                fillers = [
                    s
                    for s in X.level(1)
                    if pi[1][s] == (a, (g,)) and X.vertex(1, 1, s) == e
                ]
                filler = unique_hit(fillers, "filler over an arrow is not unique")
                tab[(e, g)] = X.face(1, 1, filler)
        action[U] = tab
    return ActionTorsor(T5.gpd, total, anchor, action)
