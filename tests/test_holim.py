from sgdtors.groupoid import group_as_groupoid, trivial_groupoid, zmod
from sgdtors.holim import (
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
    translation_groupoid,
    validate_simplicial_functor,
)
from sgdtors.fixtures import interval_sgd, twocomp_sgd, z2_sgroup
from sgdtors.groupoid import (
    group_as_2groupoid,
    nerve_groupoid,
    validate_groupoid,
)
from sgdtors.kan import fibration_check, weq_check
from sgdtors.sgroupoid import constant_sgroup, constant_sset, db_sgroupoid, sgd_functor
from sgdtors.sset import (
    delta,
    disjoint_union,
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
