"""Reference test for the one builder of anchored action tables and the
one pair of trivialisation readers.

The builders and readers below state the anchored-domain rule and the
transition lookup by hand, one copy per construction, as the library
did before ``torsors.anchored_action``, ``torsors.local_sections`` and
``torsors.transition`` took them over.  Every flavour family that holds
action tables is rebuilt by them on six sites, and the tables must
agree with the library's entry for entry and in key order, and so must
the sheafified tables of the torsor checks, the classifying maps and
the cocycle classes.  ``sgpd`` is left out: its torsors are diagrams,
with no action table.
"""

import pytest
from gpd_fixtures import bz_site, cone_site, flip_site

from sgdtors import classify as classify_module
from sgdtors import torsors
from sgdtors.bundles import vertex_group_presheaf, vertex_groupoid_presheaf
from sgdtors.classify import FLAVOURS, classify_torsors
from sgdtors.fixtures import pt_site, s1_site, twocomp_presheaf
from sgdtors.groupoid import zmod
from sgdtors.presheaf import (
    constant_group_presheaf,
    constant_sgd_presheaf,
    set_presheaf,
    sset_presheaf_map,
)
from sgdtors.report import InvariantError, unique_hit
from sgdtors.sgroupoid import constant_sgroup
from sgdtors.sheaf import PLUS_STEPS, cech_resolution, cover_elements, plus_construction
from sgdtors.sset import idkey
from sgdtors.torsors import (
    ActionTorsor,
    arrows_action_torsor,
    constant_objects,
    enumerate_group_cochains,
    groupoid_presheaf_as_group,
    group_presheaf_as_groupoid,
    h1_cech_classes,
    pullback_shape_check,
    representable_action_torsor,
    torsor_cech_class,
)

# ---------------------------------------------------------------------------
# the hand-written builders


def ref_group_action_torsor(G, total, act):
    objects = G.site.objects
    anchor = {U: {e: "*" for e in total.values[U]} for U in objects}
    action = {
        U: {(e, g): act(U, e, g) for e in total.values[U] for g in G.values[U].elements}
        for U in objects
    }
    return ActionTorsor(group_presheaf_as_groupoid(G), total, anchor, action)


def ref_cochain_torsor(G, c):
    def restrict(f, e):
        return G.values[G.site.cat.src(f)].mul[(c[f], G.res[f][e])]

    total = set_presheaf(G.site, lambda U: G.values[U].elements, restrict)
    return ref_group_action_torsor(G, total, lambda U, e, g: G.values[U].mul[(e, g)])


def ref_arrows_action_torsor(GP):
    total = torsors.arrows_presheaf(GP)
    anchor = {U: {m: GP.values[U].dst(m) for m in total.values[U]} for U in GP.site.objects}
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


def ref_representable_action_torsor(T_gpd, anchor_at):
    def arrows_into_anchor(U):
        G = T_gpd.values[U]
        return [m for m in G.morphisms if G.dst(m) == anchor_at]

    total = set_presheaf(T_gpd.site, arrows_into_anchor, lambda f, m: T_gpd.res[f][1][m])
    anchor, action = {}, {}
    for U in T_gpd.site.objects:
        G = T_gpd.values[U]
        anchor[U] = {m: G.src(m) for m in total.values[U]}
        action[U] = {
            (m, g): G.comp[(m, g)]
            for m in total.values[U]
            for g, (a, b) in G.morphisms.items()
            if b == G.src(m)
        }
    return ActionTorsor(T_gpd, total, anchor, action)


def ref_enumerate_action_torsors(GP):
    if all(len(G.objects) == 1 for G in GP.values.values()):
        group = groupoid_presheaf_as_group(GP)
        out = []
        for c in enumerate_group_cochains(group):
            T = ref_cochain_torsor(group, c)
            anchor = {
                U: {e: next(iter(GP.values[U].objects)) for e in T.total.values[U]}
                for U in GP.site.objects
            }
            out.append(ActionTorsor(GP, T.total, anchor, T.action))
        return out
    return [ref_representable_action_torsor(GP, a) for a in constant_objects(GP)]


def ref_bundle_to_action(T5):
    assert pullback_shape_check(T5.total, T5.projection, "shape").ok
    site = T5.total.site
    total = set_presheaf(
        site, lambda U: T5.total.values[U].level(0), lambda f, e: T5.total.res[f][0][e]
    )
    anchor, action = {}, {}
    for U in site.objects:
        X = T5.total.values[U]
        pi = T5.projection.components[U]
        anchor[U] = {e: pi[0][e][0] for e in total.values[U]}
        fillers = {}
        for s in X.level(1):
            fillers.setdefault((pi[1][s], X.vertex(1, 1, s)), []).append(s)
        G = T5.gpd.values[U]
        tab = {}
        for e in total.values[U]:
            for g, (a, b) in G.morphisms.items():
                if anchor[U][e] != b:
                    continue
                hits = fillers.get(((a, (g,)), e), [])
                tab[(e, g)] = X.face(1, 1, unique_hit(hits, "filler over an arrow is not unique"))
        action[U] = tab
    return ActionTorsor(T5.gpd, total, anchor, action)


def ref_sgroup_vertex_torsor(D, total):
    """The vertex-level torsor of an enriched group action D, on the
    carrier ``total``."""
    G = vertex_group_presheaf(D.coeff)

    def act(U, e, g):
        a = next(iter(D.coeff.values[U].objects))
        return D.functors[U].act(a, a, 0, G.values[U].inv[g], e)

    return ref_group_action_torsor(G, total, act)


def ref_plus_action_anchored(T, E, anchor, action):
    C = E.site.cat
    Ep = plus_construction(E)
    new_anchor, new_action = {}, {}
    for U in E.site.objects:
        atab, tab = {}, {}
        for m in Ep.values[U]:
            heads = [anchor[C.src(f)][v] for f, v in m]
            lifted = [
                a
                for a in T.gpd.values[U].objects
                if all(T.gpd.res[f][0][a] == h for (f, _), h in zip(m, heads))
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


# ---------------------------------------------------------------------------
# the hand-written transition readers


def ref_chosen(cover, pool):
    chosen = {}
    for i, member in enumerate(cover):
        found = pool(member)
        if not found:
            raise InvariantError(f"no section over {member!r} to trivialise with")
        chosen[i] = found[0]
    return chosen


def ref_transition_cocycle(T, cover, source, target, value):
    chosen = ref_chosen(cover, lambda member: T.total.values[member])
    E = cover_elements(T.total.site, cover)

    def entry(W):
        G, anchor, tab = T.gpd.values[W], T.anchor[W], T.action[W]
        local = {(i, h): T.total.res[h][chosen[i]] for (i, h) in E.values[W]}

        def transition(prev, nxt):
            x, y = local[nxt], local[prev]
            return unique_hit(
                [g for g, (a, b) in G.morphisms.items() if b == anchor[x] and tab[(x, g)] == y],
                "transitions must be unique to classify",
            )

        return lambda n, cell: value(
            W,
            G,
            n,
            [anchor[local[e]] for e in cell],
            [transition(cell[m - 1], cell[m]) for m in range(1, n + 1)],
        )

    per_section = {W: entry(W) for W in source.site.objects}
    return sset_presheaf_map(source, target, lambda W, n, cell: per_section[W](n, cell))


def ref_torsor_cech_class(T, data):
    cover = data["cover"]
    base = {}
    for i, Ui in enumerate(cover):
        if not T.total.values[Ui]:
            raise InvariantError(f"no section over {Ui!r} to trivialize with")
        base[i] = T.total.values[Ui][0]

    def transition(W, hi, hj, i, j):
        ei = T.total.res[hi][base[i]]
        ej = T.total.res[hj][base[j]]
        return unique_hit(
            [g for g in T.gpd.values[W].morphisms if T.action[W][(ei, g)] == ej],
            "torsor sections are not free and transitive",
        )

    key = []
    for (i, j) in data["pairs"]:
        P = data["pair_presheaves"][(i, j)]
        key.append(tuple(
            (W, s, transition(W, s[0], s[1], i, j))
            for W in sorted(P.site.objects, key=idkey)
            for s in P.values[W]
        ))
    return data["orbit_of"].get(tuple(key))


# ---------------------------------------------------------------------------
# the comparison


def assert_same_tables(new, ref):
    """Equal coefficients and carriers, and equal anchor and action
    tables with their keys in the same order."""
    assert (new.gpd, new.total) == (ref.gpd, ref.total)
    for new_tables, ref_tables in ((new.anchor, ref.anchor), (new.action, ref.action)):
        assert list(new_tables) == list(ref_tables)
        for U, tab in ref_tables.items():
            assert list(new_tables[U].items()) == list(tab.items()), U


def assert_same_sheafified_tables(T):
    A, (E, anchor, action) = T, (T.total, T.anchor, T.action)
    for _ in range(PLUS_STEPS):
        A = torsors._plus_action(A)
        E, anchor, action = ref_plus_action_anchored(T, E, anchor, action)
        assert A.total.values == E.values
        assert_same_tables(A, ActionTorsor(T.gpd, E, anchor, action))


SITES = {
    "pt": pt_site,
    "s1": s1_site,
    "cone-P": lambda: cone_site("P"),
    "cone-0": lambda: cone_site("0"),
    "bz2": lambda: bz_site(2),
    "flip": flip_site,
}


def _coefficients(kind, site, shape):
    """Coefficients of the kind: Z/2 or Z/3, constant over the site, or
    two components for the groupoid kinds."""
    if shape == "twocomp":
        return vertex_groupoid_presheaf(twocomp_presheaf(site, 2))
    n = {"z2": 2, "z3": 3}[shape]
    G = constant_group_presheaf(site, zmod(n))
    return {
        "group": G,
        "groupoid-action": group_presheaf_as_groupoid(G),
        "groupoid-bundle": group_presheaf_as_groupoid(G),
        "2gpd": zmod(n),
        "sgroup": constant_sgd_presheaf(site, constant_sgroup(zmod(n), 2)),
    }[kind]


def _reference_family(kind, run):
    """The hand-built action tables of the run's searched family."""
    if kind in ("group", "2gpd"):
        G = run.coeff if kind == "group" else constant_group_presheaf(run.site, run.coeff)
        return [ref_cochain_torsor(G, c) for c in enumerate_group_cochains(G)]
    if kind == "groupoid-action":
        return ref_enumerate_action_torsors(run.coeff)
    if kind == "groupoid-bundle":
        for new, ref in zip(run.actions, ref_enumerate_action_torsors(run.coeff)):
            assert_same_tables(new, ref)
        return [ref_bundle_to_action(B) for B in run.family]
    return [ref_sgroup_vertex_torsor(D, T.total) for D, T in zip(run.family, run.searched)]


# Z/3 tells a transition from its inverse, which Z/2 cannot
CASES = [
    (kind, site, shape)
    for kind in ("group", "groupoid-action", "groupoid-bundle", "2gpd", "sgroup")
    for site in SITES
    for shape in ("z2", "z3")
] + [(kind, site, "twocomp") for kind in ("groupoid-action", "groupoid-bundle") for site in SITES]


@pytest.mark.parametrize("kind, site_name, shape", CASES)
def test_every_family_matches_the_hand_built_tables(monkeypatch, kind, site_name, shape):
    site = SITES[site_name]()
    run = classify_torsors(kind, site, _coefficients(kind, site, shape), trunc=2)
    reference = _reference_family(kind, run)
    assert len(reference) == len(run.searched) > 0
    for new, ref in zip(run.searched, reference):
        assert_same_tables(new, ref)

    # the torsor checks sheafify the class representatives
    for members in run.torsor_classes:
        assert_same_sheafified_tables(run.searched[members[0]])

    # every member's classifying map, through the one cocycle builder
    built = classify_module._transition_cocycle
    compared = []

    def both(T, cover, source, target, value):
        u = built(T, cover, source, target, value)
        assert u.components == ref_transition_cocycle(T, cover, source, target, value).components
        compared.append(T)
        return u

    monkeypatch.setattr(classify_module, "_transition_cocycle", both)
    run.target = FLAVOURS[kind].target(run)
    run.source = cech_resolution(site, run.cover, run.trunc)
    for i in range(len(run.family)):
        FLAVOURS[kind].classifying_map(run, i)
    assert len(compared) == len(run.family)

    if kind in ("group", "sgroup"):
        G = run.coeff if kind == "group" else vertex_group_presheaf(run.coeff)
        data = h1_cech_classes(G, run.cover)
        for T in run.searched:
            assert torsor_cech_class(T, data) == ref_torsor_cech_class(T, data)


@pytest.mark.parametrize("site_name", SITES)
@pytest.mark.parametrize("shape", ["z2", "twocomp"])
def test_canonical_torsors_match_the_hand_built_tables(site_name, shape):
    site = SITES[site_name]()
    GP = _coefficients("groupoid-action", site, shape)
    assert_same_tables(arrows_action_torsor(GP), ref_arrows_action_torsor(GP))
    for a in constant_objects(GP):
        new = representable_action_torsor(GP, a)
        assert_same_tables(new, ref_representable_action_torsor(GP, a))
        assert_same_sheafified_tables(new)
