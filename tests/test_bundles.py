"""Torsors with simplicial coefficients.

Covers the three flavours in bundles.py: an enriched group presheaf
acting on a simplicial presheaf, diagrams over an enriched groupoid
presheaf, and 2-groupoid actions on anchored elements.  Counting
oracles come first; the torsor verdicts and the conversions to and
from classifying maps are frozen against them.
"""

import pytest

from sgdtors.bundles import (
    SgdDiagram,
    TwoGpdAction,
    borel,
    borel_projection,
    borel_to_quotient,
    cech_sgd_presheaf,
    comma_value_comparison,
    corepresented_diagram,
    enumerate_sgd_presheaf_maps,
    j_presheaf,
    level0_group_torsor,
    psi_sgd,
    psi_sgroup,
    sgd_diagram_maps,
    sgd_torsor_check,
    sgroup_action,
    sgroup_free_action_check,
    sgroup_quotient,
    sgroup_torsor_check,
    translation_action,
    translation_sgd,
    twisted_sgroup_action,
    twisted_two_gpd_action,
    two_gpd_action_maps,
    two_gpd_display,
    two_gpd_shape_check,
    two_gpd_torsor_check,
    unit_sgd_presheaf,
    validate_sgd_diagram,
    validate_sgroup_action,
    validate_two_gpd_action,
    w_quotient_presheaf_map,
    wg_action,
)
from sgdtors.fixtures import pt_site, s1_site, twocomp_presheaf, z2_presheaf
from sgdtors.groupoid import group_as_2groupoid, trivial_groupoid, zmod
from sgdtors.holim import corepresented_functor
from sgdtors.kan import weq_check
from sgdtors.presheaf import (
    SSetPresheafMap,
    terminal_sset_presheaf,
    validate_sgd_presheaf,
    validate_sset_presheaf,
    validate_sset_presheaf_map,
)
from sgdtors.sgroupoid import constant_sgroup, constant_sgroupoid, validate_sgd_functor
from sgdtors.sset import sset_map, validate_sset_map
from sgdtors.torsors import (
    group_torsor_check,
    group_torsor_maps,
    h1_cech_classes,
    torsor_cech_class,
    trivial_group_torsor,
    wbar_presheaf,
)


# ---------------------------------------------------------------------------
# counting oracles


def test_contractible_total_object_orbit_counts_by_hand():
    # the total object over the constant two-element group has 2^(n+1)
    # strings at level n; the free action leaves 2^n orbits, which is
    # the cocycle object's level count
    site = s1_site()
    Q = z2_presheaf(site, 3)
    A = wg_action(Q)
    H = Q.values["U"]
    X = A.space.values["U"]
    assert [X.size(n) for n in range(4)] == [2, 4, 8, 16]
    for n in range(4):
        cells = H.homs[("*", "*")].level(n)
        orbits = {
            frozenset(A.act("U", n, g, x) for g in cells) for x in X.level(n)
        }
        assert len(orbits) == 2 ** n
        assert all(len(orbit) == len(cells) for orbit in orbits)
    space, _, _ = sgroup_quotient(A)
    assert [space.values["U"].size(n) for n in range(4)] == [1, 2, 4, 8]


def test_bar_object_level_counts_by_hand():
    # level n of the bar object pairs a level-n simplex with a string of
    # n acting cells: |X_n| * |G_n|^n
    site = s1_site()
    Q = z2_presheaf(site, 3)
    for A, expected in (
        (translation_action(Q), [2, 4, 8, 16]),
        (wg_action(Q), [2, 8, 32, 128]),
    ):
        B = borel(A)
        assert validate_sset_presheaf(B)[0]
        for U in site.objects:
            sizes = [B.values[U].size(n) for n in range(4)]
            assert sizes == expected
            for n in range(4):
                x_count = A.space.values[U].size(n)
                g_count = Q.values[U].homs[("*", "*")].size(n)
                assert sizes[n] == x_count * g_count ** n


# ---------------------------------------------------------------------------
# the contractible total object and its quotient


def test_wg_action_is_free_and_quotient_is_the_cocycle_object():
    site = s1_site()
    Q = z2_presheaf(site, 3)
    A = wg_action(Q)
    ok, problems = validate_sgroup_action(A)
    assert ok and not problems
    assert sgroup_free_action_check(A)
    space, q, fib = sgroup_quotient(A, maxdim=3)
    assert validate_sset_presheaf(space)[0]
    assert validate_sset_presheaf_map(q)[0]
    assert fib
    wq = w_quotient_presheaf_map(Q)
    assert validate_sset_presheaf_map(wq)[0]
    W = wbar_presheaf(Q)
    for U in site.objects:
        for n in range(4):
            reps = list(space.values[U].level(n))
            images = {wq.components[U][n][r] for r in reps}
            assert len(images) == len(reps)
            assert images == set(W.values[U].level(n))


def test_bar_object_of_a_free_action_matches_the_orbit_space():
    site = s1_site()
    Q = z2_presheaf(site, 3)
    A = wg_action(Q)
    m = borel_to_quotient(A)
    assert validate_sset_presheaf_map(m)[0]
    for U in site.objects:
        f = sset_map(
            m.source.values[U],
            m.target.values[U],
            lambda n, x: m.components[U][n][x],
        )
        assert weq_check(f)


def test_bar_object_of_the_point_action_is_the_diagonal_nerve():
    site = s1_site()
    Q = z2_presheaf(site, 3)
    A = sgroup_action(Q, terminal_sset_presheaf(site, 3), lambda U, n, g, x: x)
    B = borel(A)
    p = borel_projection(A, B)
    assert validate_sset_presheaf_map(p)[0]
    for U in site.objects:
        for n in range(4):
            images = [p.components[U][n][s] for s in B.values[U].level(n)]
            assert len(set(images)) == len(images)
            assert len(images) == p.target.values[U].size(n)


def test_sgroup_torsor_verdicts():
    site = s1_site()
    Q = z2_presheaf(site, 3)
    assert sgroup_torsor_check(translation_action(Q))
    contractible_total = sgroup_torsor_check(wg_action(Q))
    assert not contractible_total
    assert "locally trivial" in contractible_total.render()
    point_action = sgroup_action(
        Q, terminal_sset_presheaf(site, 3), lambda U, n, g, x: x
    )
    assert not sgroup_torsor_check(point_action)


# ---------------------------------------------------------------------------
# twisted actions and the vertex-level set torsor


def test_twisted_actions_are_torsors_in_distinct_classes():
    site = s1_site()
    Q = z2_presheaf(site, 3)
    plain = {f: 0 for f in site.morphisms}
    twisted = dict(plain)
    twisted[("A", "U")] = 1
    torsors = []
    for cochain in (plain, twisted):
        A = twisted_sgroup_action(Q, cochain)
        ok, problems = validate_sgroup_action(A)
        assert ok and not problems
        assert sgroup_torsor_check(A)
        T = level0_group_torsor(A)
        assert group_torsor_check(T)
        torsors.append(T)
    T0, T1 = torsors
    data = h1_cech_classes(T0.group)
    assert len(data["reps"]) == 2
    assert torsor_cech_class(T0, data) != torsor_cech_class(T1, data)
    assert group_torsor_maps(T0, T1) == []
    assert len(group_torsor_maps(T0, T0)) == 2


def test_level0_of_the_translation_action_is_trivial():
    site = s1_site()
    Q = z2_presheaf(site, 3)
    T = level0_group_torsor(translation_action(Q))
    assert group_torsor_check(T)
    data = h1_cech_classes(T.group)
    reference = trivial_group_torsor(T.group)
    assert torsor_cech_class(T, data) == torsor_cech_class(reference, data)


def test_pullback_along_the_base_point_is_the_trivial_torsor():
    site = s1_site()
    Q = z2_presheaf(site, 3)
    W = wbar_presheaf(Q)
    C = terminal_sset_presheaf(site, 3)
    components = {
        U: {
            n: {x: (("*",) * (n + 1), (0,) * n) for x in C.values[U].level(n)}
            for n in range(4)
        }
        for U in site.objects
    }
    u = SSetPresheafMap(C, W, components)
    assert validate_sset_presheaf_map(u)[0]
    A, proj = psi_sgroup(u, Q)
    ok, problems = validate_sgroup_action(A)
    assert ok and not problems
    assert validate_sset_presheaf_map(proj)[0]
    assert sgroup_torsor_check(A)
    space, _, _ = sgroup_quotient(A)
    for U in site.objects:
        assert [space.values[U].size(n) for n in range(4)] == [1, 1, 1, 1]
    T = level0_group_torsor(A)
    data = h1_cech_classes(T.group)
    reference = trivial_group_torsor(T.group)
    assert torsor_cech_class(T, data) == torsor_cech_class(reference, data)


# ---------------------------------------------------------------------------
# diagrams over an enriched groupoid presheaf


def test_corepresented_diagrams_are_torsors():
    for site in (pt_site(), s1_site()):
        Q = twocomp_presheaf(site, 3)
        for a in Q.values[site.objects[0]].objects:
            D = corepresented_diagram(Q, {U: a for U in site.objects})
            ok, problems = validate_sgd_diagram(D)
            assert ok and not problems
            assert sgd_torsor_check(D)


def test_diagram_maps_distinguish_the_two_components():
    site = pt_site()
    Q = twocomp_presheaf(site, 3)
    left = corepresented_diagram(Q, {"pt": ("l", "*")})
    right = corepresented_diagram(Q, {"pt": ("r", "*")})
    assert sgd_diagram_maps(left, right) == []
    assert len(sgd_diagram_maps(left, left)) == 1


def test_presheaf_maps_from_the_unit_pick_a_component():
    site = pt_site()
    Q = twocomp_presheaf(site, 3)
    P = unit_sgd_presheaf(site, 3)
    maps = enumerate_sgd_presheaf_maps(P, Q)
    assert len(maps) == 2
    picked = sorted(u.components["pt"].ob["*"] for u in maps)
    assert picked == [("l", "*"), ("r", "*")]


def test_pullback_diagrams_match_corepresented_ones():
    site = pt_site()
    Q = twocomp_presheaf(site, 3)
    P = unit_sgd_presheaf(site, 3)
    maps = enumerate_sgd_presheaf_maps(P, Q)
    pulled = []
    for u in maps:
        D = psi_sgd(u)
        ok, problems = validate_sgd_diagram(D)
        assert ok and not problems
        assert sgd_torsor_check(D)
        picked = u.components["pt"].ob["*"]
        C = corepresented_diagram(Q, {"pt": picked})
        assert len(sgd_diagram_maps(D, C)) == 1
        assert len(sgd_diagram_maps(C, D)) == 1
        pulled.append(D)
    assert sgd_diagram_maps(pulled[0], pulled[1]) == []


def test_cover_coefficients_validate():
    site = s1_site()
    cover = {"object": None, "family": site.star_covers[0]}
    C = cech_sgd_presheaf(site, cover, 2)
    assert validate_sgd_presheaf(C)[0]


def test_enumeration_bound_guards():
    site = s1_site()
    Q = twocomp_presheaf(site, 2)
    P = unit_sgd_presheaf(site, 2)
    with pytest.raises(ValueError, match="bound"):
        enumerate_sgd_presheaf_maps(P, Q, bound=1)
    ptQ = twocomp_presheaf(pt_site(), 2)
    left = corepresented_diagram(ptQ, {"pt": ("l", "*")})
    with pytest.raises(ValueError, match="bound"):
        sgd_diagram_maps(left, left, bound=0)


def test_element_groupoid_comparison_is_an_equivalence():
    # self-action of the constant two-element group: two objects, the
    # comparison onto the value is an equivalence at the lone object
    C = constant_sgroup(zmod(2), 3)
    X = corepresented_functor(C, "*")
    E, forget = translation_sgd(X)
    assert validate_sgd_functor(forget)[0]
    assert sorted(E.objects) == [("*", 0), ("*", 1)]
    m = comma_value_comparison(X, "*")
    assert validate_sset_map(m)[0]
    assert weq_check(m)
    # two-object contractible coefficients, represented elements
    D = constant_sgroupoid(trivial_groupoid(("p", "q")), 3)
    Y = corepresented_functor(D, "p")
    _, forget2 = translation_sgd(Y)
    assert validate_sgd_functor(forget2)[0]
    for a in ("p", "q"):
        comparison = comma_value_comparison(Y, a)
        assert validate_sset_map(comparison)[0]
        assert weq_check(comparison)


# ---------------------------------------------------------------------------
# 2-groupoid actions and their displays


def test_display_levels_pair_elements_with_nerve_strings():
    site = s1_site()
    A = twisted_two_gpd_action(site, zmod(2), {f: 0 for f in site.morphisms})
    total, pi = two_gpd_display(A, 3)
    assert validate_sset_presheaf(total)[0]
    assert validate_sset_presheaf_map(pi)[0]
    for U in site.objects:
        assert [total.values[U].size(n) for n in range(4)] == [2, 4, 8, 16]
        assert [pi.target.values[U].size(n) for n in range(4)] == [1, 2, 4, 8]


def test_twisted_two_gpd_displays_are_torsors():
    site = s1_site()
    plain = {f: 0 for f in site.morphisms}
    twisted = dict(plain)
    twisted[("A", "U")] = 1
    actions = []
    for cochain in (plain, twisted):
        A = twisted_two_gpd_action(site, zmod(2), cochain)
        ok, problems = validate_two_gpd_action(A)
        assert ok and not problems
        total, pi = two_gpd_display(A, 3)
        assert two_gpd_shape_check(total, pi)
        assert two_gpd_torsor_check(total, pi)
        actions.append(A)
    assert two_gpd_action_maps(actions[0], actions[1]) == []
    assert len(two_gpd_action_maps(actions[0], actions[0])) == 2


def test_two_orbit_action_has_the_shape_but_is_not_locally_trivial():
    site = s1_site()
    T = group_as_2groupoid(zmod(2))
    swap = {0: 1, 1: 0, 2: 3, 3: 2}
    elements = {U: {"*": (0, 1, 2, 3)} for U in site.objects}
    act1 = {
        U: {
            (g, x): x if g == 0 else swap[x]
            for g in (0, 1)
            for x in (0, 1, 2, 3)
        }
        for U in site.objects
    }
    res = {f: {x: x for x in (0, 1, 2, 3)} for f in site.morphisms}
    A = TwoGpdAction(T, site, elements, act1, res)
    ok, problems = validate_two_gpd_action(A)
    assert ok and not problems
    total, pi = two_gpd_display(A, 3)
    assert two_gpd_shape_check(total, pi)
    verdict = two_gpd_torsor_check(total, pi)
    assert not verdict
    assert "locally trivial" in verdict.render()
