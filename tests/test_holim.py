import pytest
from gpd_fixtures import relabelled_z2_sgroup

from sgdtors.bisset import diagonal, validate_bisset
from sgdtors.bundles import cech_sgd_presheaf, enumerate_sgd_presheaf_maps, psi_sgd_family
from sgdtors.groupoid import group_as_groupoid, trivial_groupoid, zmod
from sgdtors.holim import (
    SimplicialFunctor,
    comma_construction_functor,
    comma_db,
    constant_functor,
    corepresented_functor,
    functor_transport_map,
    holim,
    holim_2gpd,
    holim_2gpd_oracle_check,
    holim_projection,
    homotopy_fibre_check,
    literal_fibre,
    point_functor,
    simplicial_functor,
    translation_bidegrees,
    translation_groupoid,
    translation_total,
    validate_simplicial_functor,
)
from sgdtors.fixtures import interval_sgd, s1_site, twocomp_sgd, z2_presheaf, z2_sgroup
from sgdtors.groupoid import (
    group_as_2groupoid,
    nerve_groupoid,
    validate_groupoid,
)
from sgdtors.kan import fibration_check, weq_check
from sgdtors.sgroupoid import (
    SimpGroupoid,
    constant_sgroup,
    constant_sset,
    db_sgroupoid,
    sgd_functor,
)
from sgdtors.site import star_cover
from sgdtors.sset import (
    TruncSSet,
    delta,
    disjoint_union,
    idkey,
    is_bijective,
    pi0_classes,
    point,
    relabel,
    sset_map,
    validate_sset,
    validate_sset_map,
)
from sgdtors.wbar import wbar
from sgdtors.sgroupoid import b_2groupoid

TR = 3


def identity_functor(C):
    return sgd_functor(C, C, lambda a: a, lambda a, b, n, f: f)


def collapse(X):
    return sset_map(X, point(X.trunc), lambda n, s: (0,) * (n + 1))


def swap_diagram(trunc):
    """The contractible two-object index moving a two-element set by the
    flip: values are not points but every transport is invertible."""
    C = interval_sgd(trunc)
    V = constant_sset((0, 1), trunc)

    def act(a, b, n, g, x):
        return x if a == b else 1 - x

    return simplicial_functor(C, lambda a: V, act)


def test_point_values_give_back_the_diagonal_nerve():
    for C in (z2_sgroup(TR), interval_sgd(TR), twocomp_sgd(TR)):
        X = point_functor(C)
        valid = validate_simplicial_functor(X)
        assert valid, valid.render()
        E = holim(X)
        assert validate_sset(E).ok
        assert relabel(E, lambda n, s: (s[0], s[2])) == db_sgroupoid(C)


def test_group_acting_on_itself_is_contractible():
    C = z2_sgroup(TR)
    X = corepresented_functor(C, "*")
    assert validate_simplicial_functor(X).ok
    E = holim(X)
    # raw string count: a value n-simplex and n composable n-cells
    expected = []
    for n in range(TR + 1):
        cells = C.homs[("*", "*")].size(n)
        expected.append(cells * cells**n)
    assert E.level_counts() == tuple(expected) == (2, 4, 8, 16)
    rep = weq_check(collapse(E))
    assert rep.ok


def test_disjoint_points_have_the_components_of_the_index():
    C = twocomp_sgd(TR)
    E = holim(point_functor(C))
    assert len(pi0_classes(E)) == 2


def test_validation_rejects_an_action_that_skips_a_level():
    C = z2_sgroup(TR)
    V = constant_sset((0, 1), TR)

    def act(a, b, n, g, x):
        if n == 0 and g == 1:
            return 1 - x
        return x

    bad = simplicial_functor(C, lambda a: V, act)
    valid = validate_simplicial_functor(bad)
    assert not valid
    assert any("s_" in p or "d_" in p for p in valid.witness)


def test_projection_forgets_the_value_coordinate():
    C = z2_sgroup(TR)
    X = corepresented_functor(C, "*")
    p = holim_projection(X)
    assert validate_sset_map(p).ok
    assert p.target == db_sgroupoid(C)


def test_fibre_of_the_free_transitive_action_is_the_group():
    C = z2_sgroup(TR)
    X = corepresented_functor(C, "*")
    fib = literal_fibre(holim_projection(X), "*")
    assert fib == X.values["*"]
    assert fib.level_counts() == (2, 2, 2, 2)
    check = homotopy_fibre_check(X)
    assert check.ok, check.render()


def test_fibres_over_a_two_object_index_with_non_point_values():
    X = swap_diagram(TR)
    assert validate_simplicial_functor(X).ok
    p = holim_projection(X)
    for a in (0, 1):
        assert literal_fibre(p, a) == X.values[a]
    check = homotopy_fibre_check(X)
    assert check.ok, check.render()
    t = functor_transport_map(X, 0, 1, (0, 1))
    assert is_bijective(t)
    assert weq_check(t).ok


def test_fibre_check_covers_the_disjoint_index():
    check = homotopy_fibre_check(point_functor(twocomp_sgd(TR)))
    assert check.ok, check.render()


def test_fibration_check_flags_a_double_cover_with_no_lift():
    two = disjoint_union({"a": point(TR), "b": point(TR)})
    B = delta(1, TR)

    def assign(n, s):
        return (0,) * (n + 1) if s[0] == "a" else (1,) * (n + 1)

    p = sset_map(two, B, assign)
    assert validate_sset_map(p).ok
    rep = fibration_check(p, 1)
    assert not rep.ok
    assert rep.witness[0] == "relative horn"


def test_comma_over_a_one_object_group_is_contractible():
    C = z2_sgroup(TR)
    D = comma_db(identity_functor(C), "*")
    assert validate_sset(D).ok
    assert D.level_counts() == (2, 4, 8, 16)
    assert weq_check(collapse(D)).ok


def test_comma_with_no_cells_into_the_target_is_empty():
    C = twocomp_sgd(TR)
    pt = constant_sgroup(zmod(1), TR)
    F = sgd_functor(pt, C, lambda a: ("l", "*"), lambda a, b, n, f: ("l", 0))
    assert comma_db(F, ("r", "*")).level_counts() == (0, 0, 0, 0)
    assert comma_db(F, ("l", "*")).level_counts() == (1, 1, 1, 1)


def test_comma_construction_functor_validates_and_acts_by_composition():
    C = z2_sgroup(2)
    X = comma_construction_functor(identity_functor(C))
    valid = validate_simplicial_functor(X)
    assert valid, valid.render()
    # the nontrivial vertex cell permutes the attached cell freely
    s = X.values["*"].level(0)[0]
    moved = X.act("*", "*", 0, 1, s)
    assert moved != s and X.act("*", "*", 0, 1, moved) == s


def test_2gpd_holim_of_a_point_matches_the_classifying_object():
    T = group_as_2groupoid(zmod(2))
    values = {"*": ("x",)}
    W = wbar(b_2groupoid(T, TR))
    Y, proj = holim_2gpd(W, values, lambda arrow, x: x)
    assert validate_sset(Y).ok
    assert Y.level_counts() == W.level_counts() == (1, 2, 4, 8)
    assert validate_sset_map(proj).ok
    assert is_bijective(proj)


def test_2gpd_holim_with_trivial_index_is_the_discrete_value():
    T = group_as_2groupoid(zmod(1))
    values = {"*": (0, 1)}
    Y, _ = holim_2gpd(wbar(b_2groupoid(T, TR)), values, lambda arrow, x: x)
    assert validate_sset(Y).ok
    assert relabel(Y, lambda n, s: s[0]) == constant_sset((0, 1), TR)


def test_2gpd_holim_matches_the_translation_nerve_for_plain_groupoids():
    z2 = group_as_groupoid(zmod(2))
    check = holim_2gpd_oracle_check(
        z2, {"*": (0, 1)}, lambda g, x: (x + g) % 2, TR
    )
    assert check.ok, check.render()

    iv = trivial_groupoid(("u", "v"))
    values = {"u": ("p", "q"), "v": ("p", "q")}

    def act1(arrow, x):
        a, b = arrow
        if a == b:
            return x
        return "q" if x == "p" else "p"

    check = holim_2gpd_oracle_check(iv, values, act1, TR)
    assert check.ok, check.render()


def test_translation_groupoid_of_a_free_action_is_contractible_like():
    G = group_as_groupoid(zmod(2))
    E = translation_groupoid(G, {"*": (0, 1)}, lambda g, x: (x + g) % 2)
    assert validate_groupoid(E).ok
    assert len(E.objects) == 2 and len(E.morphisms) == 4
    N = nerve_groupoid(E, TR)
    assert weq_check(collapse(N)).ok


def test_constant_non_point_values_multiply_the_nerve():
    C = z2_sgroup(2)
    X = constant_functor(C, constant_sset(("a", "b"), 2))
    E = holim(X)
    B = db_sgroupoid(C)
    assert E.level_counts() == tuple(2 * B.size(n) for n in range(3))
    assert len(pi0_classes(E)) == 2


# ---------------------------------------------------------------------------
# holim builds the diagonal of the translation object directly.  Its
# reference is bisset.diagonal of translation_bidegrees' callables, and on
# one diagram the diagonal read off the materialised total object.

GROUPOIDS = {
    "z2": z2_sgroup,
    "z3": lambda trunc: constant_sgroup(zmod(3), trunc),
    "interval": interval_sgd,
    "twocomp": twocomp_sgd,
    "relabelled-z2": relabelled_z2_sgroup,
}


def reference_holim(X):
    return diagonal(*translation_bidegrees(X))


def assert_same_sset(A, B):
    """The same level tuples in the same order, and equal tables."""
    assert A.trunc == B.trunc
    assert A.simplices == B.simplices
    assert A.faces == B.faces
    assert A.degeneracies == B.degeneracies


def reversed_levels(V):
    """V with each level stored back to front: the same simplicial set."""
    return TruncSSet(V.trunc, {n: level[::-1] for n, level in V.simplices.items()},
                     V.faces, V.degeneracies)


@pytest.mark.parametrize("trunc", [1, 2, 3, 4])
@pytest.mark.parametrize("name", GROUPOIDS)
def test_holim_is_the_diagonal_of_the_bidegree_callables(name, trunc):
    H = GROUPOIDS[name](trunc)
    diagrams = [corepresented_functor(H, a) for a in H.objects]
    diagrams.append(comma_construction_functor(identity_functor(H)))
    for X in diagrams:
        assert_same_sset(holim(X), reference_holim(X))


def test_holim_of_the_circle_chart_commas_is_the_diagonal():
    site = s1_site()
    P = cech_sgd_presheaf(site, star_cover(site), TR)
    charts = enumerate_sgd_presheaf_maps(P, z2_presheaf(site, TR))
    functors = {id(X): X for D in psi_sgd_family(charts) for X in D.functors.values()}
    assert len(functors) > 1
    for X in functors.values():
        assert_same_sset(holim(X), reference_holim(X))


def test_holim_is_the_diagonal_of_the_materialised_total_object():
    X = comma_construction_functor(identity_functor(interval_sgd(TR)))
    B = translation_total(X)
    assert validate_bisset(B).ok
    N = B.trunc
    D = TruncSSet(
        N,
        {n: B.level(n, n) for n in range(N + 1)},
        {
            (n, i): {x: B.vfaces[(n - 1, n, i)][y] for x, y in B.hfaces[(n, n, i)].items()}
            for n in range(1, N + 1)
            for i in range(n + 1)
        },
        {
            (n, j): {x: B.vdegen[(n + 1, n, j)][y] for x, y in B.hdegen[(n, n, j)].items()}
            for n in range(N)
            for j in range(n + 1)
        },
    )
    assert_same_sset(holim(X), D)


def test_holim_lists_levels_in_idkey_order_whatever_order_they_are_stored_in():
    # the interval's comma values, and its objects and homs, stored back to front
    X = comma_construction_functor(identity_functor(interval_sgd(TR)))
    C = X.source
    flipped_source = SimpGroupoid(
        C.trunc, C.objects[::-1], {ab: reversed_levels(hom) for ab, hom in C.homs.items()},
        C.comp, C.identities,
    )
    flipped = SimplicialFunctor(
        flipped_source, {a: reversed_levels(V) for a, V in X.values.items()}, X.action
    )
    for V in flipped.values.values():
        for n in range(TR + 1):
            assert list(V.level(n)) == sorted(V.level(n), key=idkey, reverse=True)
            assert V.size(n) > 1
    E = holim(flipped)
    assert_same_sset(E, reference_holim(flipped))
    assert_same_sset(E, holim(X))
