import itertools

import dataclasses

import pytest
from call_counts import count_calls
from gpd_fixtures import arrows_bundle, bz_site, collapsed_bundle, cone_site, flip_site

from sgdtors.classify import classify
from sgdtors.fixtures import pt_site, s1_site, torus_site, z2_presheaf
from sgdtors.groupoid import (
    disjoint_union_groupoids,
    group_as_groupoid,
    nerve_groupoid,
    trivial_groupoid,
    zmod,
)
from sgdtors.holim import translation_groupoid
from sgdtors.presheaf import (
    SSetPresheaf,
    SSetPresheafMap,
    constant_group_presheaf,
    natural_maps,
    set_presheaf,
    sset_presheaf,
    sset_presheaf_map,
    validate_sset_presheaf,
    validate_sset_presheaf_map,
)
from sgdtors.report import InvariantError
from sgdtors.sheaf import is_componentwise_bijection
from sgdtors.sset import relabel
from sgdtors.torsors import (
    BundleTorsor,
    action_bundles,
    action_torsor_check,
    action_torsor_maps,
    arrows_action_torsor,
    bg_presheaf,
    bundle_to_action,
    bundle_torsor_check,
    constant_groupoid_presheaf,
    db_presheaf,
    enumerate_action_torsors,
    enumerate_group_cochains,
    enumerate_group_torsors,
    group_action_torsor,
    group_presheaf_as_groupoid,
    group_torsor_check,
    group_torsor_maps,
    h1_cech_classes,
    h1_cech_oracle,
    pullback_shape_check,
    representable_action_torsor,
    to_point_map,
    torsor_cech_class,
    trivial_group_torsor,
    validate_action_torsor,
    validate_groupoid_presheaf,
    w_total_presheaf,
    wbar_presheaf,
)

Z2 = zmod(2)


def twocomp_groupoid():
    return disjoint_union_groupoids(
        {"l": group_as_groupoid(zmod(1)), "r": group_as_groupoid(zmod(1))}
    )


# ---------------------------------------------------------------------------
# Degree-one cocycle counts.  The circle count is rechecked by hand
# first: over the cover (U, V) the only overlap sections live on A and
# B, a cocycle is a pair of group elements there, and coboundaries
# shift both coordinates by the same amount.


def test_circle_cocycle_count_by_hand():
    # Z1 = maps {A, B} -> Z2, giving 4; the two generators of maps out
    # of y(U) and y(V) act by a simultaneous shift, leaving 2 orbits.
    cocycles = list(itertools.product(Z2.elements, repeat=2))
    assert len(cocycles) == 4
    orbits = set()
    for cA, cB in cocycles:
        orbit = frozenset(
            (Z2.mul[(bU, Z2.mul[(cA, Z2.inv[bV])])], Z2.mul[(bU, Z2.mul[(cB, Z2.inv[bV])])])
            for bU in Z2.elements
            for bV in Z2.elements
        )
        orbits.add(orbit)
    assert len(orbits) == 2

    data = h1_cech_classes(constant_group_presheaf(s1_site(), Z2))
    assert len(data["cocycles"]) == 4
    assert len(data["reps"]) == 2


def test_h1_counts_point_circle_torus():
    assert h1_cech_oracle(constant_group_presheaf(pt_site(), Z2)) == 1
    assert h1_cech_oracle(constant_group_presheaf(s1_site(), Z2)) == 2
    assert h1_cech_oracle(constant_group_presheaf(torus_site(), Z2)) == 4


def test_cech_pairs_overlap_a_cover_object_with_itself_only_off_a_poset():
    # on a poset y(U) x y(U) is y(U), so its cocycle is trivial; on B(Z/2)
    # the one object maps into itself twice and the self-overlap is kept
    assert h1_cech_classes(constant_group_presheaf(s1_site(), Z2))["pairs"] == [(0, 1)]
    torus = h1_cech_classes(constant_group_presheaf(torus_site(), Z2))
    assert torus["pairs"] == list(itertools.combinations(range(4), 2))
    data = h1_cech_classes(constant_group_presheaf(bz_site(2), Z2))
    assert data["pairs"] == [(0, 0)]
    assert len(data["cocycles"]) == len(data["reps"]) == 2


# ---------------------------------------------------------------------------
# Group torsors by twisted restriction tables.


def test_circle_cochain_enumeration():
    G = constant_group_presheaf(s1_site(), Z2)
    cochains = enumerate_group_cochains(G, bound=10**6)
    # Four non-identity poset arrows, no composable pairs among them.
    assert len(cochains) == 16
    for c in cochains:
        for U, e in G.site.cat.identities.items():
            assert c[e] == Z2.e


def test_cochain_bound_guard():
    G = constant_group_presheaf(torus_site(), Z2)
    with pytest.raises(ValueError, match="bound"):
        enumerate_group_cochains(G, bound=1000)


def test_trivial_group_torsor_passes():
    for site in (pt_site(), s1_site()):
        T = trivial_group_torsor(constant_group_presheaf(site, Z2))
        check = group_torsor_check(T)
        assert check.ok, check.render()


def test_all_circle_cochain_torsors_pass():
    G = constant_group_presheaf(s1_site(), Z2)
    for T in enumerate_group_torsors(G, bound=10**6):
        assert group_torsor_check(T).ok


def test_group_torsor_check_failures():
    site = pt_site()
    G = constant_group_presheaf(site, Z2)

    # Two disjoint orbits: free but not transitive.
    two = set_presheaf(site, lambda U: tuple(itertools.product((0, 1), Z2.elements)), lambda f, s: s)
    check = group_torsor_check(
        group_action_torsor(G, two, lambda U, s, g: (s[0], Z2.mul[(s[1], g)]))
    )
    assert not check.ok
    lines = check.render()
    assert "transitive" in lines and "FAIL" in lines

    # A fixed point: transitive but not free.
    pt = set_presheaf(site, lambda U: ("*",), lambda f, s: s)
    check = group_torsor_check(group_action_torsor(G, pt, lambda U, s, g: "*"))
    assert not check.ok
    assert "free" in check.render()

    # Nothing there at all: fails to cover the point.
    empty = set_presheaf(site, lambda U: (), lambda f, s: s)
    check = group_torsor_check(group_action_torsor(G, empty, lambda U, s, g: s))
    assert not check.ok
    assert "covers the point" in check.render()


def test_cech_class_of_a_non_free_action_raises():
    # both elements fix the one section, so no transition is unique; the
    # check is an exception, not an assert that python -O would drop
    site = s1_site()
    G = constant_group_presheaf(site, Z2)
    pt = set_presheaf(site, lambda U: ("*",), lambda f, s: s)
    fixed = group_action_torsor(G, pt, lambda U, s, g: "*")
    with pytest.raises(InvariantError, match="not free and transitive"):
        torsor_cech_class(fixed, h1_cech_classes(G))


def test_circle_torsor_classes_match_cocycle_classes():
    G = constant_group_presheaf(s1_site(), Z2)
    torsors = enumerate_group_torsors(G, bound=10**6)
    data = h1_cech_classes(G)
    labels = [torsor_cech_class(T, data) for T in torsors]
    assert sorted(labels.count(i) for i in set(labels)) == [8, 8]

    # Equivariant maps exist exactly within a class, and are bijections.
    by_label = {}
    for T, l in zip(torsors, labels):
        by_label.setdefault(l, []).append(T)
    reps = {l: ts[0] for l, ts in by_label.items()}
    for l1, T1 in reps.items():
        for l2, T2 in reps.items():
            maps = group_torsor_maps(T1, T2)
            if l1 == l2:
                assert len(maps) == 2
                assert all(is_componentwise_bijection(m) for m in maps)
            else:
                assert maps == []
    for l, ts in by_label.items():
        for T in ts[1:]:
            assert group_torsor_maps(reps[l], T)


# ---------------------------------------------------------------------------
# Groupoid coefficients: anchored actions.


def test_groupoid_presheaf_validation():
    GP = constant_groupoid_presheaf(s1_site(), twocomp_groupoid())
    valid = validate_groupoid_presheaf(GP)
    assert valid, valid.render()

    broken = constant_groupoid_presheaf(s1_site(), twocomp_groupoid())
    obmap, mormap = broken.res[("A", "U")]
    swapped = {("l", "*"): ("r", "*"), ("r", "*"): ("l", "*")}
    broken.res[("A", "U")] = (swapped, mormap)
    valid = validate_groupoid_presheaf(broken)
    assert not valid


def test_group_torsor_as_anchored_action():
    G = constant_group_presheaf(s1_site(), Z2)
    for A in enumerate_group_torsors(G, bound=10**6)[:4]:
        assert A.gpd == group_presheaf_as_groupoid(G)
        valid = validate_action_torsor(A)
        assert valid, valid.render()
        assert action_torsor_check(A).ok


def test_representable_torsors_on_two_components():
    GP = constant_groupoid_presheaf(pt_site(), twocomp_groupoid())
    torsors = enumerate_action_torsors(GP)
    assert len(torsors) == 2
    for T in torsors:
        check = action_torsor_check(T)
        assert check.ok, check.render()
    assert action_torsor_maps(torsors[0], torsors[1]) == []
    assert action_torsor_maps(torsors[1], torsors[0]) == []
    assert len(action_torsor_maps(torsors[0], torsors[0])) == 1


def test_one_object_enumeration_matches_group_case():
    GP = constant_groupoid_presheaf(s1_site(), group_as_groupoid(Z2))
    torsors = enumerate_action_torsors(GP, bound=10**6)
    assert len(torsors) == 16
    classes = []
    for T in torsors:
        hit = next((c for c in classes if action_torsor_maps(T, c[0])), None)
        (hit.append(T) if hit is not None else classes.append([T]))
    assert sorted(len(c) for c in classes) == [8, 8]


def anchored_torsor_maps(T1, T2):
    """The isomorphism search with an anchor constraint on every element
    of T1, placed before the equivariance constraints so that their
    lookups only see elements with the right anchor."""
    anchored = [
        (((U, e),), lambda t, tab=T2.anchor[U], a=T1.anchor[U][e]: tab[t] == a)
        for U in T1.total.site.objects
        for e in T1.total.values[U]
    ]
    equivariant = [
        (((U, out), (U, e)), lambda y, x, tab=T2.action[U], g=g: y == tab[(x, g)])
        for U in T1.total.site.objects
        for (e, g), out in T1.action[U].items()
    ]
    return natural_maps(T1.total, T2.total, anchored + equivariant)


def test_equivariance_alone_keeps_anchors():
    # the stock of each coefficient groupoid, with the arrows action,
    # which is not a torsor off one object; equivariance along identities
    # finds the same maps, in the same order, as explicit anchor constraints
    found = []
    for site in (pt_site(), s1_site(), cone_site(), flip_site(), bz_site(2)):
        for G in (twocomp_groupoid(), trivial_groupoid((0, 1)), group_as_groupoid(Z2)):
            GP = constant_groupoid_presheaf(site, G)
            stock = enumerate_action_torsors(GP, bound=10**6) + [arrows_action_torsor(GP)]
            for T1, T2 in itertools.product(stock, repeat=2):
                maps = action_torsor_maps(T1, T2)
                assert maps == anchored_torsor_maps(T1, T2)
                for phi in maps:
                    for U, component in phi.components.items():
                        for e, t in component.items():
                            assert T2.anchor[U][t] == T1.anchor[U][e]
                found.append(bool(maps))
    assert len(found) == 706
    assert any(found) and not all(found)


def test_arrows_torsor_on_connected_one_object():
    # Over one object the arrows with inverse postcomposition form the
    # trivial torsor.
    GP = constant_groupoid_presheaf(s1_site(), group_as_groupoid(Z2))
    E = arrows_action_torsor(GP)
    valid = validate_action_torsor(E)
    assert valid, valid.render()
    assert action_torsor_check(E).ok


def test_arrows_of_interval_are_not_transitive():
    # The chaotic groupoid on two objects has four arrows; the orbits of
    # inverse postcomposition are indexed by sources, so the action part
    # validates but connectivity fails.
    GP = constant_groupoid_presheaf(pt_site(), trivial_groupoid((0, 1)))
    E = arrows_action_torsor(GP)
    valid = validate_action_torsor(E)
    assert valid, valid.render()
    check = action_torsor_check(E)
    assert not check.ok
    assert "joined by an arrow" in check.render()


# ---------------------------------------------------------------------------
# The bundle picture and the two conversions.


def test_action_to_bundle_round_trips():
    G = constant_group_presheaf(s1_site(), Z2)
    torsors = enumerate_group_torsors(G, bound=10**6)
    for A in (torsors[0], torsors[5]):
        (T5,) = action_bundles([A], trunc=3)
        check = bundle_torsor_check(T5)
        assert check.ok, check.render()
        assert bundle_to_action(T5) == A
        assert action_bundles([bundle_to_action(T5)], trunc=3) == [T5]


def test_bundle_levels_are_translation_strings():
    GP = constant_groupoid_presheaf(pt_site(), group_as_groupoid(Z2))
    A = enumerate_action_torsors(GP)[0]
    (T5,) = action_bundles([A], trunc=3)
    Y = T5.total.values["pt"]
    assert [Y.size(n) for n in range(4)] == [2, 4, 8, 16]
    assert validate_sset_presheaf(T5.total).ok
    assert validate_sset_presheaf_map(T5.projection).ok


def test_point_over_nerve_is_not_a_bundle_torsor():
    # Collapsing the total object to the base vertex keeps a valid
    # simplicial map but breaks the pullback shape in level one.
    collapsed = collapsed_bundle()
    shape = pullback_shape_check(
        collapsed.total, collapsed.projection, "higher levels pull back from level zero"
    )
    assert not shape.ok
    with pytest.raises(ValueError, match="pull back"):
        bundle_to_action(collapsed)


def test_arrows_bundle_has_pullback_shape_but_is_not_locally_trivial():
    T5 = arrows_bundle()
    assert pullback_shape_check(T5.total, T5.projection, "higher levels pull back from level zero")
    check = bundle_torsor_check(T5)
    assert not check.ok


def test_a_duplicated_filler_is_rejected():
    # a second level-one simplex with the faces and the projection of a
    # filler makes the filler over its arrow ambiguous; the pullback check
    # sees the surplus simplex before the filler lookup does
    GP = constant_groupoid_presheaf(pt_site(), group_as_groupoid(Z2))
    (T5,) = action_bundles(enumerate_action_torsors(GP)[:1], trunc=2)
    X, pi = T5.total.values["pt"], T5.projection.components["pt"]
    s = X.level(1)[0]
    copy = ("copy", s)
    faces = {k: {**tab, copy: tab[s]} if k[0] == 1 else tab for k, tab in X.faces.items()}
    Y = dataclasses.replace(X, simplices={**X.simplices, 1: X.level(1) + (copy,)}, faces=faces)
    comps = {"pt": {**pi, 1: {**pi[1], copy: pi[1][s]}}}
    total = SSetPresheaf(GP.site, {"pt": Y}, T5.total.res)
    duplicated = BundleTorsor(GP, T5.nerve, total, SSetPresheafMap(total, T5.nerve, comps))
    with pytest.raises(ValueError, match="pull back"):
        bundle_to_action(duplicated)


# ---------------------------------------------------------------------------
# A family's bundles share every section with an equal key.  The
# reference builds one torsor at a time, every section afresh.


def reference_bundle(T, trunc) -> BundleTorsor:
    BG = bg_presheaf(T.gpd, trunc)

    def value(U):
        G, anchor, act = T.gpd.values[U], T.anchor[U], T.action[U]
        over = {a: [e for e in T.total.values[U] if anchor[e] == a] for a in G.objects}
        E = translation_groupoid(G, over, lambda g, x: act[(x, G.inverses[g])])
        return relabel(nerve_groupoid(E, trunc), lambda n, s: s[0][1] if n == 0 else s)

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


def _group_torsors(n):
    GP = group_presheaf_as_groupoid(constant_group_presheaf(s1_site(), zmod(n)))
    return enumerate_action_torsors(GP, bound=10**6)


def _representable_torsors(site, G):
    GP = constant_groupoid_presheaf(site, G)
    return [representable_action_torsor(GP, a) for a in G.objects]


def mixed_torsors():
    """One coefficient presheaf, with sections that differ between the
    two members in carrier, anchor and action."""
    GP = constant_groupoid_presheaf(s1_site(), trivial_groupoid((0, 1)))
    return [representable_action_torsor(GP, 0), arrows_action_torsor(GP)]


BUNDLE_FAMILIES = {
    "z2-s1": lambda: _group_torsors(2),
    "z3-s1": lambda: _group_torsors(3),
    "interval-pt": lambda: _representable_torsors(pt_site(), trivial_groupoid((0, 1))),
    "interval-s1": lambda: _representable_torsors(s1_site(), trivial_groupoid((0, 1))),
    "twocomp-pt": lambda: _representable_torsors(pt_site(), twocomp_groupoid()),
    "twocomp-s1": lambda: _representable_torsors(s1_site(), twocomp_groupoid()),
    "mixed": mixed_torsors,
}


@pytest.mark.parametrize("family", sorted(BUNDLE_FAMILIES))
def test_family_bundles_equal_bundles_built_one_at_a_time(family):
    torsors = BUNDLE_FAMILIES[family]()
    assert len(torsors) > 1
    assert action_bundles(torsors, 3) == [reference_bundle(T, 3) for T in torsors]


def test_the_circle_bundles_build_one_section_and_one_base(monkeypatch):
    # the parent built every section of every torsor, and the base once
    # per torsor: 81 nerve_groupoid and 17 bg_presheaf calls, counting the
    # target's base
    site = s1_site()
    GP = group_presheaf_as_groupoid(constant_group_presheaf(site, Z2))
    calls = count_calls(monkeypatch, (nerve_groupoid, bg_presheaf))
    result = classify("groupoid-bundle", site, GP, trunc=4)
    assert result["check"].ok and result["classes"] == 2
    assert calls == {"nerve_groupoid": 2, "bg_presheaf": 1}
    family = action_bundles(enumerate_action_torsors(GP), 4)
    assert len(family) == 16
    assert len({id(X) for B in family for X in B.total.values.values()}) == 1


# ---------------------------------------------------------------------------
# Classifying presheaves.


def test_wbar_presheaf_levels_and_validity():
    Q = z2_presheaf(s1_site(), trunc=4)
    W = wbar_presheaf(Q)
    for U in Q.site.objects:
        assert [W.values[U].size(n) for n in range(5)] == [1, 2, 4, 8, 16]
    valid = validate_sset_presheaf(W)
    assert valid, valid.render()


def test_w_total_presheaf_levels_and_validity():
    Q = z2_presheaf(s1_site(), trunc=4)
    W = w_total_presheaf(Q)
    for U in Q.site.objects:
        assert [W.values[U].size(n) for n in range(4)] == [2, 4, 8, 16]
    valid = validate_sset_presheaf(W)
    assert valid, valid.render()


def test_db_presheaf_validity():
    Q = z2_presheaf(s1_site(), trunc=3)
    D = db_presheaf(Q)
    valid = validate_sset_presheaf(D)
    assert valid, valid.render()
    assert validate_sset_presheaf_map(to_point_map(D)).ok


def test_nerve_presheaf_of_two_components():
    GP = constant_groupoid_presheaf(pt_site(), twocomp_groupoid())
    N = bg_presheaf(GP, trunc=3)
    valid = validate_sset_presheaf(N)
    assert valid, valid.render()
    assert [N.values["pt"].size(n) for n in range(4)] == [2, 2, 2, 2]


def test_group_presheaf_as_groupoid_shares_sections():
    G = constant_group_presheaf(s1_site(), Z2)
    GP = group_presheaf_as_groupoid(G)
    vals = {id(v) for v in GP.values.values()}
    assert len(vals) == 1
    assert validate_groupoid_presheaf(GP).ok


def test_classifying_presheaves_share_identical_sections():
    site = s1_site()
    Q = z2_presheaf(site, trunc=3)
    GP = constant_groupoid_presheaf(site, group_as_groupoid(Z2))
    for Y in (wbar_presheaf(Q), w_total_presheaf(Q), db_presheaf(Q), bg_presheaf(GP, 3)):
        first = Y.values[site.objects[0]]
        assert all(Y.values[U] is first for U in site.objects)


def test_representable_torsor_carrier():
    GP = constant_groupoid_presheaf(pt_site(), twocomp_groupoid())
    T = representable_action_torsor(GP, ("l", "*"))
    assert T.total.values["pt"] == (("l", 0),)
    assert T.anchor["pt"][("l", 0)] == ("l", "*")
