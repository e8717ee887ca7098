"""Torsors with simplicial coefficients.

Covers the three flavours in bundles.py: an enriched group presheaf
acting on a simplicial presheaf, which is the one-object diagram over
it, diagrams over an enriched groupoid presheaf, and 2-groupoid
actions on anchored elements.  Counting oracles come first; the torsor
verdicts and the conversions to and from classifying maps are frozen
against them.
"""

import copy
import itertools

import pytest
from call_counts import count_calls

from sgdtors.bundles import (
    borel_to_quotient,
    cech_sgd_presheaf,
    comma_value_comparison,
    corepresented_diagram,
    enumerate_sgd_presheaf_maps,
    equivariant_square,
    holim_presheaf,
    level0_group_torsor,
    psi_sgd,
    psi_sgroup,
    sgd_diagram_maps,
    sgd_torsor_check,
    sgroup_action,
    sgroup_free_action_check,
    sgroup_quotient,
    sgroup_torsor_check,
    translation_sgd,
    twisted_sgroup_action,
    two_gpd_action_maps,
    two_gpd_display,
    two_gpd_shape_check,
    two_gpd_torsor_check,
    unit_sgd_presheaf,
    validate_sgd_diagram,
    validate_sgroup_action,
    vertex_group_presheaf,
    w_quotient_presheaf_map,
    wg_action,
)
from sgdtors.classify import star_cover
from sgdtors.fixtures import interval_presheaf, pt_site, s1_site, twocomp_presheaf, z2_presheaf
from sgdtors.groupoid import group_as_2groupoid, trivial_groupoid, zmod
from sgdtors.holim import corepresented_functor, simplicial_functor
from sgdtors.kan import enumerate_sset_maps, weq_check
from sgdtors.presheaf import (
    constant_group_presheaf,
    natural_square,
    set_presheaf,
    SSetPresheafMap,
    sset_presheaf_map,
    terminal_sset_presheaf,
    validate_sgd_presheaf,
    validate_sset_presheaf,
    validate_sset_presheaf_map,
)
from sgdtors.sgroupoid import (
    b_2groupoid,
    constant_sgroup,
    constant_sgroupoid,
    validate_sgd_functor,
)
from sgdtors.sheaf import cech_resolution
from sgdtors.sset import sset_map, validate_sset_map
from sgdtors.torsors import (
    bg_presheaf,
    cochain_torsor,
    db_presheaf,
    group_action_torsor,
    group_presheaf_as_groupoid,
    group_torsor_check,
    group_torsor_maps,
    h1_cech_classes,
    torsor_cech_class,
    trivial_group_torsor,
    validate_action_torsor,
    w_total_presheaf,
    wbar_presheaf,
)
from sgdtors.wbar import wbar


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
    F = A.functors["U"]
    X = F.values["*"]
    assert [X.size(n) for n in range(4)] == [2, 4, 8, 16]
    for n in range(4):
        cells = H.homs[("*", "*")].level(n)
        orbits = {
            frozenset(F.act("*", "*", n, g, x) for g in cells) for x in X.level(n)
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
        (corepresented_diagram(Q, "*"), [2, 4, 8, 16]),
        (wg_action(Q), [2, 8, 32, 128]),
    ):
        B = holim_presheaf(A)
        assert validate_sset_presheaf(B).ok
        for U in site.objects:
            sizes = [B.values[U].size(n) for n in range(4)]
            assert sizes == expected
            for n in range(4):
                x_count = A.functors[U].values["*"].size(n)
                g_count = Q.values[U].homs[("*", "*")].size(n)
                assert sizes[n] == x_count * g_count ** n


# ---------------------------------------------------------------------------
# the contractible total object and its quotient


def test_wg_action_is_free_and_quotient_is_the_cocycle_object():
    site = s1_site()
    Q = z2_presheaf(site, 3)
    A = wg_action(Q)
    valid = validate_sgroup_action(A)
    assert valid, valid.render()
    assert sgroup_free_action_check(A)
    space, q, fib = sgroup_quotient(A, maxdim=3)
    assert validate_sset_presheaf(space).ok
    assert validate_sset_presheaf_map(q).ok
    assert fib
    wq = w_quotient_presheaf_map(Q)
    assert validate_sset_presheaf_map(wq).ok
    W = wbar_presheaf(Q)
    for U in site.objects:
        for n in range(4):
            reps = list(space.values[U].level(n))
            images = {wq.components[U][n][r] for r in reps}
            assert len(images) == len(reps)
            assert images == set(W.values[U].level(n))


def test_the_quotient_map_and_the_pullback_build_the_cocycle_object_once(monkeypatch):
    # the sections of z2_presheaf are one shared object, so one build of
    # the cocycle object a level higher gives the total object, the
    # cocycle object and the map between them
    Q = z2_presheaf(s1_site(), 2)
    u = _base_point_map(Q)
    calls = count_calls(monkeypatch, (wbar,))
    quot = w_quotient_presheaf_map(Q)
    assert calls == {"wbar": 1}
    assert quot.source == w_total_presheaf(Q)
    assert quot.target == wbar_presheaf(Q)
    calls.clear()
    psi_sgroup(u, Q)
    assert calls == {"wbar": 1}


def test_bar_object_of_a_free_action_matches_the_orbit_space():
    site = s1_site()
    Q = z2_presheaf(site, 3)
    A = wg_action(Q)
    m = borel_to_quotient(A)
    assert validate_sset_presheaf_map(m).ok
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
    # forget the value coordinate of each simplex of the bar object
    B = holim_presheaf(A)
    p = sset_presheaf_map(B, db_presheaf(Q), lambda U, n, s: (s[0], s[2]))
    assert validate_sset_presheaf_map(p).ok
    for U in site.objects:
        for n in range(4):
            images = [p.components[U][n][s] for s in B.values[U].level(n)]
            assert len(set(images)) == len(images)
            assert len(images) == p.target.values[U].size(n)


def test_sgroup_torsor_verdicts():
    site = s1_site()
    Q = z2_presheaf(site, 3)
    assert sgroup_torsor_check(corepresented_diagram(Q, "*"))
    contractible_total = sgroup_torsor_check(wg_action(Q))
    assert not contractible_total
    assert "locally trivial" in contractible_total.render()
    point_action = sgroup_action(
        Q, terminal_sset_presheaf(site, 3), lambda U, n, g, x: x
    )
    assert not sgroup_torsor_check(point_action)
    # an enriched group is a one-object enriched groupoid: both checks
    # read the same homotopy colimit
    plain = {f: 0 for f in site.morphisms}
    twisted = {**plain, ("A", "U"): 1}
    for A in (
        corepresented_diagram(Q, "*"),
        wg_action(Q),
        point_action,
        twisted_sgroup_action(Q, plain),
        twisted_sgroup_action(Q, twisted),
    ):
        assert bool(sgroup_torsor_check(A)) == bool(sgd_torsor_check(A))


def test_sgroup_torsor_check_builds_no_simplicial_functor(monkeypatch):
    # the action is its diagram: the check reads the sections it holds
    A = corepresented_diagram(z2_presheaf(s1_site(), 3), "*")
    calls = count_calls(monkeypatch, (simplicial_functor,))
    assert sgroup_torsor_check(A)
    assert calls == {}


def test_sgroup_torsor_check_reports_the_action_verdict():
    site = s1_site()
    A = corepresented_diagram(z2_presheaf(site, 3), "*")
    U = site.objects[0]
    # a broken action table, then a broken space: both belong to the
    # diagram's section over U
    bad_action = copy.deepcopy(A)
    bad_action.functors[U].action[("*", "*")][1][(0, 0)] = 1
    bad_space = copy.deepcopy(A)
    X = bad_space.functors[U].values["*"]
    X.faces[(1, 0)][X.level(1)[0]] = "zz"
    for B, where in ((bad_action, "diagram over"), (bad_space, "diagram over")):
        valid = validate_sgroup_action(B)
        assert not valid and valid.witness[0].startswith(where)
        check = sgroup_torsor_check(B)
        assert not check
        assert check.parts[0].to_obj() == valid.to_obj()


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
        valid = validate_sgroup_action(A)
        assert valid, valid.render()
        assert sgroup_torsor_check(A)
        T = level0_group_torsor(A)
        assert group_torsor_check(T)
        torsors.append(T)
    T0, T1 = torsors
    data = h1_cech_classes(vertex_group_presheaf(Q))
    assert len(data["reps"]) == 2
    assert torsor_cech_class(T0, data) != torsor_cech_class(T1, data)
    assert group_torsor_maps(T0, T1) == []
    assert len(group_torsor_maps(T0, T0)) == 2


def test_level0_of_the_corepresented_action_is_trivial():
    site = s1_site()
    Q = z2_presheaf(site, 3)
    T = level0_group_torsor(corepresented_diagram(Q, "*"))
    assert group_torsor_check(T)
    G = vertex_group_presheaf(Q)
    data = h1_cech_classes(G)
    reference = trivial_group_torsor(G)
    assert torsor_cech_class(T, data) == torsor_cech_class(reference, data)


def _base_point_map(Q):
    """The map from the terminal presheaf to the cocycle object at the
    cocycle of identities on the object "*"."""
    site, trunc = Q.site, Q.trunc
    W = wbar_presheaf(Q)
    C = terminal_sset_presheaf(site, trunc)
    components = {
        U: {
            n: {x: (("*",) * (n + 1), (0,) * n) for x in C.values[U].level(n)}
            for n in range(trunc + 1)
        }
        for U in site.objects
    }
    return SSetPresheafMap(C, W, components)


def test_pullback_along_the_base_point_is_the_trivial_torsor():
    site = s1_site()
    Q = z2_presheaf(site, 3)
    u = _base_point_map(Q)
    assert validate_sset_presheaf_map(u).ok
    A, proj = psi_sgroup(u, Q)
    valid = validate_sgroup_action(A)
    assert valid, valid.render()
    assert validate_sset_presheaf_map(proj).ok
    assert sgroup_torsor_check(A)
    space, _, _ = sgroup_quotient(A)
    for U in site.objects:
        assert [space.values[U].size(n) for n in range(4)] == [1, 1, 1, 1]
    T = level0_group_torsor(A)
    G = vertex_group_presheaf(Q)
    data = h1_cech_classes(G)
    reference = trivial_group_torsor(G)
    assert torsor_cech_class(T, data) == torsor_cech_class(reference, data)


# ---------------------------------------------------------------------------
# diagrams over an enriched groupoid presheaf


def test_corepresented_diagrams_are_torsors():
    for site in (pt_site(), s1_site()):
        Q = twocomp_presheaf(site, 3)
        for a in Q.values[site.objects[0]].objects:
            D = corepresented_diagram(Q, {U: a for U in site.objects})
            valid = validate_sgd_diagram(D)
            assert valid, valid.render()
            assert sgd_torsor_check(D)


def test_diagram_maps_distinguish_the_two_components():
    site = pt_site()
    Q = twocomp_presheaf(site, 3)
    left = corepresented_diagram(Q, {"pt": ("l", "*")})
    right = corepresented_diagram(Q, {"pt": ("r", "*")})
    assert sgd_diagram_maps(left, right) == []
    assert len(sgd_diagram_maps(left, left)) == 1


def test_natural_square_agrees_with_its_per_simplex_definition():
    site = s1_site()
    Y = cech_resolution(site, star_cover(site), 2)
    Z = bg_presheaf(group_presheaf_as_groupoid(constant_group_presheaf(site, zmod(2))), 2)
    verdicts = set()
    for f, (V, U) in site.cat.morphisms.items():
        X, r_src, r_dst = Y.values[U], Y.res[f], Z.res[f]
        square = natural_square(X, r_src, r_dst)
        for m_src in enumerate_sset_maps(X, Z.values[U]):
            for m_dst in enumerate_sset_maps(Y.values[V], Z.values[V]):
                simplexwise = all(
                    m_dst(n, r_src[n][x]) == r_dst[n][m_src(n, x)]
                    for n in range(X.trunc + 1)
                    for x in X.level(n)
                )
                assert square(m_src, m_dst) == simplexwise, (f, m_src.levels, m_dst.levels)
                verdicts.add(simplexwise)
    assert verdicts == {True, False}


def test_equivariant_square_agrees_with_its_per_simplex_definition():
    # Z/2 over the point acts on one object, the interval's homs join
    # two objects, and the two components have empty homs between them
    verdicts = set()
    for coefficients in (z2_presheaf, interval_presheaf, twocomp_presheaf):
        site = pt_site()
        P = cech_sgd_presheaf(site, star_cover(site), 2)
        family = [psi_sgd(u) for u in enumerate_sgd_presheaf_maps(P, coefficients(site, 2))]
        for D1, D2, U in itertools.product(family, family, site.objects):
            F1, F2 = D1.functors[U], D2.functors[U]
            for a, b in F1.action:
                square = equivariant_square(F1, F2, a, b)
                for m_b in enumerate_sset_maps(F1.values[b], F2.values[b]):
                    for m_a in enumerate_sset_maps(F1.values[a], F2.values[a]):
                        simplexwise = all(
                            m_b(n, y) == F2.act(a, b, n, g, m_a(n, x))
                            for n, cells in F1.action[(a, b)].items()
                            for (g, x), y in cells.items()
                        )
                        assert square(m_b, m_a) == simplexwise, (a, b, m_b.levels, m_a.levels)
                        verdicts.add(simplexwise)
    assert verdicts == {True, False}


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
        valid = validate_sgd_diagram(D)
        assert valid, valid.render()
        assert sgd_torsor_check(D)
        picked = u.components["pt"].ob["*"]
        C = corepresented_diagram(Q, {"pt": picked})
        assert len(sgd_diagram_maps(D, C)) == 1
        assert len(sgd_diagram_maps(C, D)) == 1
        pulled.append(D)
    assert sgd_diagram_maps(pulled[0], pulled[1]) == []


def test_cover_coefficients_validate():
    site = s1_site()
    C = cech_sgd_presheaf(site, star_cover(site), 2)
    assert validate_sgd_presheaf(C).ok


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
    assert validate_sgd_functor(forget).ok
    assert sorted(E.objects) == [("*", 0), ("*", 1)]
    m = comma_value_comparison(X, "*")
    assert validate_sset_map(m).ok
    assert weq_check(m)
    # two-object contractible coefficients, represented elements
    D = constant_sgroupoid(trivial_groupoid(("p", "q")), 3)
    Y = corepresented_functor(D, "p")
    _, forget2 = translation_sgd(Y)
    assert validate_sgd_functor(forget2).ok
    for a in ("p", "q"):
        comparison = comma_value_comparison(Y, a)
        assert validate_sset_map(comparison).ok
        assert weq_check(comparison)


# ---------------------------------------------------------------------------
# 2-groupoid actions and their displays


def test_display_levels_pair_elements_with_nerve_strings():
    site = s1_site()
    A = trivial_group_torsor(constant_group_presheaf(site, zmod(2)))
    total, pi = two_gpd_display(wbar(b_2groupoid(group_as_2groupoid(zmod(2)), 3)), A)
    assert validate_sset_presheaf(total).ok
    assert validate_sset_presheaf_map(pi).ok
    for U in site.objects:
        assert [total.values[U].size(n) for n in range(4)] == [2, 4, 8, 16]
        assert [pi.target.values[U].size(n) for n in range(4)] == [1, 2, 4, 8]


def test_twisted_two_gpd_displays_are_torsors():
    site = s1_site()
    plain = {f: 0 for f in site.morphisms}
    twisted = dict(plain)
    twisted[("A", "U")] = 1
    G = constant_group_presheaf(site, zmod(2))
    W = wbar(b_2groupoid(group_as_2groupoid(zmod(2)), 3))
    actions = []
    for cochain in (plain, twisted):
        A = cochain_torsor(G, cochain)
        valid = validate_action_torsor(A)
        assert valid, valid.render()
        total, pi = two_gpd_display(W, A)
        assert two_gpd_shape_check(total, pi)
        assert two_gpd_torsor_check(total, pi)
        actions.append(A)
    assert two_gpd_action_maps(actions[0], actions[1]) == []
    assert len(two_gpd_action_maps(actions[0], actions[0])) == 2


def test_two_orbit_action_has_the_shape_but_is_not_locally_trivial():
    site = s1_site()
    W = wbar(b_2groupoid(group_as_2groupoid(zmod(2)), 3))
    swap = {0: 1, 1: 0, 2: 3, 3: 2}
    elements = set_presheaf(site, lambda U: (0, 1, 2, 3), lambda f, x: x)
    A = group_action_torsor(
        constant_group_presheaf(site, zmod(2)), elements,
        lambda U, x, g: x if g == 0 else swap[x],
    )
    valid = validate_action_torsor(A)
    assert valid, valid.render()
    total, pi = two_gpd_display(W, A)
    assert two_gpd_shape_check(total, pi)
    verdict = two_gpd_torsor_check(total, pi)
    assert not verdict
    assert "locally trivial" in verdict.render()
