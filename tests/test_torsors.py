import itertools

import pytest

from sgdtors.fixtures import pt_site, s1_site, torus_site, z2_presheaf
from sgdtors.groupoid import (
    disjoint_union_groupoids,
    group_as_groupoid,
    trivial_groupoid,
    zmod,
)
from sgdtors.presheaf import (
    constant_group_presheaf,
    set_presheaf,
    validate_sset_presheaf,
    validate_sset_presheaf_map,
)
from sgdtors.report import InvariantError
from sgdtors.torsors import (
    ActionTorsor,
    BundleTorsor,
    GroupTorsor,
    action_to_bundle,
    action_torsor_check,
    action_torsor_maps,
    arrows_action_torsor,
    bg_presheaf,
    bundle_shape_check,
    bundle_to_action,
    bundle_torsor_check,
    cochain_torsor,
    constant_groupoid_presheaf,
    db_presheaf,
    enumerate_action_torsors,
    enumerate_group_cochains,
    enumerate_group_torsors,
    group_presheaf_as_groupoid,
    group_torsor_check,
    group_torsor_maps,
    group_torsor_to_action,
    h1_cech_classes,
    h1_cech_oracle,
    is_componentwise_bijection,
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
    action = {
        "pt": {
            ((i, e), g): (i, Z2.mul[(e, g)])
            for i in (0, 1)
            for e in Z2.elements
            for g in Z2.elements
        }
    }
    check = group_torsor_check(GroupTorsor(G, two, action))
    assert not check.ok
    lines = check.render()
    assert "transitive" in lines and "FAIL" in lines

    # A fixed point: transitive but not free.
    pt = set_presheaf(site, lambda U: ("*",), lambda f, s: s)
    fixed = {"pt": {("*", g): "*" for g in Z2.elements}}
    check = group_torsor_check(GroupTorsor(G, pt, fixed))
    assert not check.ok
    assert "free" in check.render()

    # Nothing there at all: fails to cover the point.
    empty = set_presheaf(site, lambda U: (), lambda f, s: s)
    check = group_torsor_check(GroupTorsor(G, empty, {"pt": {}}))
    assert not check.ok
    assert "covers the point" in check.render()


def test_cech_class_of_a_non_free_action_raises():
    # both elements fix the one section, so no transition is unique; the
    # check is an exception, not an assert that python -O would drop
    site = s1_site()
    G = constant_group_presheaf(site, Z2)
    pt = set_presheaf(site, lambda U: ("*",), lambda f, s: s)
    fixed = {U: {("*", g): "*" for g in Z2.elements} for U in site.objects}
    with pytest.raises(InvariantError, match="not free and transitive"):
        torsor_cech_class(GroupTorsor(G, pt, fixed), h1_cech_classes(G))


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
    ok, problems = validate_groupoid_presheaf(GP)
    assert ok, problems

    broken = constant_groupoid_presheaf(s1_site(), twocomp_groupoid())
    obmap, mormap = broken.res[("A", "U")]
    swapped = {("l", "*"): ("r", "*"), ("r", "*"): ("l", "*")}
    broken.res[("A", "U")] = (swapped, mormap)
    ok, problems = validate_groupoid_presheaf(broken)
    assert not ok


def test_group_torsor_as_anchored_action():
    G = constant_group_presheaf(s1_site(), Z2)
    for T in enumerate_group_torsors(G, bound=10**6)[:4]:
        A = group_torsor_to_action(T)
        ok, problems = validate_action_torsor(A)
        assert ok, problems
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


def test_arrows_torsor_on_connected_one_object():
    # Over one object the arrows with inverse postcomposition form the
    # trivial torsor.
    GP = constant_groupoid_presheaf(s1_site(), group_as_groupoid(Z2))
    E = arrows_action_torsor(GP)
    ok, problems = validate_action_torsor(E)
    assert ok, problems
    assert action_torsor_check(E).ok


def test_arrows_of_interval_are_not_transitive():
    # The chaotic groupoid on two objects has four arrows; the orbits of
    # inverse postcomposition are indexed by sources, so the action part
    # validates but connectivity fails.
    GP = constant_groupoid_presheaf(pt_site(), trivial_groupoid((0, 1)))
    E = arrows_action_torsor(GP)
    ok, problems = validate_action_torsor(E)
    assert ok, problems
    check = action_torsor_check(E)
    assert not check.ok
    assert "joined by an arrow" in check.render()


# ---------------------------------------------------------------------------
# The bundle picture and the two conversions.


def test_action_to_bundle_round_trips():
    G = constant_group_presheaf(s1_site(), Z2)
    torsors = enumerate_group_torsors(G, bound=10**6)
    for T in (torsors[0], torsors[5]):
        A = group_torsor_to_action(T)
        T5 = action_to_bundle(A, trunc=3)
        check = bundle_torsor_check(T5)
        assert check.ok, check.render()
        assert bundle_to_action(T5) == A
        assert action_to_bundle(bundle_to_action(T5), trunc=3) == T5


def test_bundle_levels_are_translation_strings():
    GP = constant_groupoid_presheaf(pt_site(), group_as_groupoid(Z2))
    A = enumerate_action_torsors(GP)[0]
    T5 = action_to_bundle(A, trunc=3)
    Y = T5.total.values["pt"]
    assert [Y.size(n) for n in range(4)] == [2, 4, 8, 16]
    assert validate_sset_presheaf(T5.total)[0]
    assert validate_sset_presheaf_map(T5.projection)[0]


def test_point_over_nerve_is_not_a_bundle_torsor():
    # Collapsing the total object to the base vertex keeps a valid
    # simplicial map but breaks the pullback shape in level one.
    GP = constant_groupoid_presheaf(pt_site(), group_as_groupoid(Z2))
    A = enumerate_action_torsors(GP)[0]
    T5 = action_to_bundle(A, trunc=3)
    BG = T5.nerve
    site = GP.site
    from sgdtors.presheaf import SSetPresheafMap, terminal_sset_presheaf

    pt = terminal_sset_presheaf(site, 3)
    e = Z2.e
    comps = {
        U: {n: {x: ("*", (e,) * n) for x in pt.values[U].level(n)} for n in range(4)}
        for U in site.objects
    }
    collapsed = BundleTorsor(GP, BG, pt, SSetPresheafMap(pt, BG, comps))
    shape = bundle_shape_check(collapsed)
    assert not shape.ok
    with pytest.raises(ValueError, match="pull back"):
        bundle_to_action(collapsed)


def test_arrows_bundle_has_pullback_shape_but_is_not_locally_trivial():
    GP = constant_groupoid_presheaf(pt_site(), trivial_groupoid((0, 1)))
    E = arrows_action_torsor(GP)
    T5 = action_to_bundle(E, trunc=2)
    assert bundle_shape_check(T5).ok
    check = bundle_torsor_check(T5)
    assert not check.ok


# ---------------------------------------------------------------------------
# Classifying presheaves.


def test_wbar_presheaf_levels_and_validity():
    Q = z2_presheaf(s1_site(), trunc=4)
    W = wbar_presheaf(Q)
    for U in Q.site.objects:
        assert [W.values[U].size(n) for n in range(5)] == [1, 2, 4, 8, 16]
    ok, problems = validate_sset_presheaf(W)
    assert ok, problems


def test_w_total_presheaf_levels_and_validity():
    Q = z2_presheaf(s1_site(), trunc=4)
    W = w_total_presheaf(Q)
    for U in Q.site.objects:
        assert [W.values[U].size(n) for n in range(4)] == [2, 4, 8, 16]
    ok, problems = validate_sset_presheaf(W)
    assert ok, problems


def test_db_presheaf_validity():
    Q = z2_presheaf(s1_site(), trunc=3)
    D = db_presheaf(Q)
    ok, problems = validate_sset_presheaf(D)
    assert ok, problems
    assert validate_sset_presheaf_map(to_point_map(D))[0]


def test_nerve_presheaf_of_two_components():
    GP = constant_groupoid_presheaf(pt_site(), twocomp_groupoid())
    N = bg_presheaf(GP, trunc=3)
    ok, problems = validate_sset_presheaf(N)
    assert ok, problems
    assert [N.values["pt"].size(n) for n in range(4)] == [2, 2, 2, 2]


def test_group_presheaf_as_groupoid_shares_sections():
    G = constant_group_presheaf(s1_site(), Z2)
    GP = group_presheaf_as_groupoid(G)
    vals = {id(v) for v in GP.values.values()}
    assert len(vals) == 1
    assert validate_groupoid_presheaf(GP)[0]


def test_representable_torsor_carrier():
    GP = constant_groupoid_presheaf(pt_site(), twocomp_groupoid())
    T = representable_action_torsor(GP, ("l", "*"))
    assert T.total.values["pt"] == (("l", 0),)
    assert T.anchor["pt"][("l", 0)] == ("l", "*")
