import itertools

import pytest
from gpd_fixtures import ez2_sgroup, one_object_one_cell_2groupoid
from ordinals import all_maps, apply, cocycle_action, codegeneracy, coface

from sgdtors.fixtures import interval_sgd
from sgdtors.groupoid import (
    disjoint_union_groupoids,
    group_as_2groupoid,
    group_as_groupoid,
    nerve_groupoid,
    symmetric_group,
    trivial_groupoid,
    zmod,
)
from sgdtors.kan import enumerate_sset_maps, kan_check, pi_n, weq_check
from sgdtors.sgroupoid import (
    b_2groupoid,
    constant_sgroup,
    constant_sgroupoid,
    product_sgd,
    sgd_functor,
)
from sgdtors.sset import (
    is_bijective,
    pi0_classes,
    point,
    sset_map,
    sset_product,
    validate_sset,
    validate_sset_map,
)
from sgdtors.wbar import (
    free_action_check,
    j_map,
    w_quotient_map,
    w_total,
    wbar,
    wbar_map,
)


def cocycle_count(C, n):
    """Count cocycles directly: object chains weighted by hom level sizes."""
    total = 0
    for objs in itertools.product(C.objects, repeat=n + 1):
        k = 1
        for i in range(1, n + 1):
            k *= C.homs[(objs[i], objs[i - 1])].size(n - i)
        total += k
    return total


def test_level_counts_for_a_constant_group():
    C = constant_sgroup(zmod(2), trunc=4)
    W = wbar(C)
    for n in range(5):
        assert W.size(n) == 2**n == cocycle_count(C, n)
    valid = validate_sset(W)
    assert valid, valid.render()


def test_level_counts_for_ascending_degrees():
    # one object, one 1-cell, 2-cells a group: level n cells number 2^n,
    # so the classifying object grows as 2^(n(n-1)/2)
    C = b_2groupoid(one_object_one_cell_2groupoid(zmod(2)), trunc=3)
    W = wbar(C, trunc=4)
    for n in range(5):
        assert W.size(n) == 2 ** (n * (n - 1) // 2)
    valid = validate_sset(W)
    assert valid, valid.render()


@pytest.mark.parametrize(
    "C",
    [
        constant_sgroup(zmod(2), trunc=3),
        b_2groupoid(one_object_one_cell_2groupoid(zmod(2)), trunc=3),
        # S_3 and the enriched Z/3 do not commute, and EZ/2 has cells at
        # every level, so a composite in the wrong order or a cell pushed
        # by the wrong face differs from the reference
        constant_sgroup(symmetric_group(3), trunc=3),
        ez2_sgroup(3),
        b_2groupoid(group_as_2groupoid(zmod(3)), trunc=3),
        product_sgd(interval_sgd(2), constant_sgroup(symmetric_group(3), trunc=2)),
    ],
    ids=["z2", "one-cell-2groupoid-z2", "s3", "ez2", "2groupoid-z3", "interval-x-s3"],
)
def test_ordinal_action_agrees_with_elementary_decomposition(C):
    W = wbar(C)
    top = min(C.trunc, 3)
    for n, m in itertools.product(range(top + 1), repeat=2):
        for theta in all_maps(m, n):
            for x in W.level(n):
                assert cocycle_action(C, theta, x) == apply(W, theta, x)
    # one level up, each face and degeneracy is the reference's action of
    # the coface and codegeneracy
    W = wbar(C, C.trunc + 1)
    for tables, elementary in ((W.faces, coface), (W.degeneracies, codegeneracy)):
        for (n, i), table in tables.items():
            action = elementary(n, i)
            assert table == {x: cocycle_action(C, action, x) for x in table}


def test_constant_group_classifier_is_isomorphic_to_the_nerve():
    C = constant_sgroup(zmod(2), trunc=3)
    W = wbar(C)
    X = nerve_groupoid(group_as_groupoid(zmod(2)), trunc=3)
    maps = enumerate_sset_maps(X, W)
    assert any(is_bijective(f) for f in maps)


def test_classifier_is_kan_and_has_the_group_as_loops():
    F = symmetric_group(3)
    C = constant_sgroup(F, trunc=3)
    W = wbar(C)
    assert kan_check(W).ok
    base = W.level(0)[0]
    pg = pi_n(W, base, 1)
    assert pg.order() == 6
    assert any(
        pg.mult[(a, b)] != pg.mult[(b, a)] for a in range(6) for b in range(6)
    )


def test_second_loops_from_ascending_degrees():
    C = b_2groupoid(one_object_one_cell_2groupoid(zmod(2)), trunc=3)
    W = wbar(C, trunc=4)
    assert kan_check(W, maxdim=3).ok
    base = W.level(0)[0]
    assert pi_n(W, base, 1).order() == 1
    assert pi_n(W, base, 2).order() == 2


def test_components_split_over_disjoint_union():
    C = constant_sgroupoid(
        disjoint_union_groupoids(
            {"l": group_as_groupoid(zmod(2)), "r": group_as_groupoid(zmod(3))}
        ),
        trunc=3,
    )
    W = wbar(C)
    valid = validate_sset(W)
    assert valid, valid.render()
    assert len(pi0_classes(W)) == 2
    for n in range(4):
        assert W.size(n) == 2**n + 3**n


def test_classifier_preserves_products():
    A = constant_sgroup(zmod(2), trunc=2)
    B = constant_sgroup(zmod(3), trunc=2)
    P = product_sgd(A, B)
    pr1 = sgd_functor(P, A, lambda o: o[0], lambda a, b, n, f: f[0])
    pr2 = sgd_functor(P, B, lambda o: o[1], lambda a, b, n, f: f[1])
    f1, f2 = wbar_map(pr1), wbar_map(pr2)
    WP = f1.source
    target = sset_product(f1.target, f2.target)
    paired = sset_map(WP, target, lambda n, x: (f1(n, x), f2(n, x)))
    valid = validate_sset_map(paired)
    assert valid, valid.render()
    assert is_bijective(paired)


def test_functor_images_are_simplicial():
    C = constant_sgroup(symmetric_group(3), trunc=2)
    D = constant_sgroup(zmod(2), trunc=2)
    sign = {g: 0 for g in symmetric_group(3).elements}
    for g in symmetric_group(3).elements:
        inversions = sum(
            1 for i in range(3) for j in range(i + 1, 3) if g[i] > g[j]
        )
        sign[g] = inversions % 2
    F = sgd_functor(C, D, lambda a: "*", lambda a, b, n, f: sign[f])
    f = wbar_map(F)
    valid = validate_sset_map(f)
    assert valid, valid.render()


def test_comparison_map_is_a_bijection_for_constant_inputs():
    for C in (
        constant_sgroup(symmetric_group(3), trunc=2),
        constant_sgroupoid(trivial_groupoid((0, 1)), trunc=3),
    ):
        j = j_map(C)
        valid = validate_sset_map(j)
        assert valid, valid.render()
        assert is_bijective(j)


def test_comparison_map_is_a_weak_equivalence():
    C = constant_sgroup(zmod(2), trunc=4)
    assert weq_check(j_map(C)).ok


def test_comparison_map_is_simplicial_for_ascending_degrees():
    C = b_2groupoid(one_object_one_cell_2groupoid(zmod(2)), trunc=3)
    j = j_map(C)
    valid = validate_sset_map(j)
    assert valid, valid.render()
    # sizes differ, so this comparison is not a bijection
    assert not is_bijective(j)
    assert weq_check(j).ok


def test_total_object_level_counts_and_validity():
    C = constant_sgroup(zmod(2), trunc=3)
    T = w_total(C)
    for n in range(4):
        assert T.size(n) == 2 ** (n + 1)
    valid = validate_sset(T)
    assert valid, valid.render()


def test_forgetting_the_leading_cell_is_simplicial():
    C = constant_sgroup(zmod(2), trunc=3)
    q = w_quotient_map(C)
    valid = validate_sset_map(q)
    assert valid, valid.render()


def test_total_object_is_contractible():
    C = constant_sgroup(zmod(2), trunc=4)
    T = w_total(C)
    P = point(trunc=4)
    f = sset_map(T, P, lambda n, x: P.level(n)[0])
    assert weq_check(f).ok


def test_action_on_total_object_is_free_with_fibre_orbits():
    for C in (
        constant_sgroup(zmod(2), trunc=3),
        constant_sgroupoid(trivial_groupoid((0, 1)), trunc=2),
    ):
        report = free_action_check(C)
        assert report.ok, report.render()
