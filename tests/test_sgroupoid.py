import itertools

import pytest

from sgdtors.bisset import validate_bisset
from sgdtors.fixtures import interval_sgd, twocomp_sgd, z2_sgroup
from sgdtors.groupoid import (
    disjoint_union_groupoids,
    group_as_groupoid,
    groupoid_as_2groupoid,
    nerve_groupoid,
    symmetric_group,
    trivial_groupoid,
    zmod,
)
from sgdtors.sgroupoid import (
    b_2groupoid,
    constant_sgroup,
    constant_sgroupoid,
    db_sgroupoid,
    nerve_sgroupoid,
    product_sgd,
    sgd_functor,
    string_steps,
    validate_sgd_functor,
    validate_sgroupoid,
)
from sgdtors.report import InvariantError
from sgdtors.sset import TruncSSet
from gpd_fixtures import one_cell_sgroupoid, one_object_one_cell_2groupoid, string_action
from ordinals import all_maps, apply


def test_constant_enrichment_is_valid():
    H = constant_sgroupoid(trivial_groupoid((0, 1)), trunc=2)
    valid = validate_sgroupoid(H)
    assert valid, valid.render()
    for a, b in itertools.product(H.objects, repeat=2):
        for n in range(3):
            assert H.homs[(a, b)].size(n) == 1


def test_validator_catches_broken_level_composition():
    H = constant_sgroup(zmod(2), trunc=2)
    H.comp[("*", "*", "*")][1][(1, 1)] = 1  # should be 0
    valid = validate_sgroupoid(H)
    assert not valid


def test_nerve_of_constant_enrichment_matches_plain_nerve():
    G = group_as_groupoid(symmetric_group(3))
    H = constant_sgroupoid(G, trunc=3)
    D = db_sgroupoid(H)
    X = nerve_groupoid(G, trunc=3)
    assert D.simplices == X.simplices
    assert D.faces == X.faces
    assert D.degeneracies == X.degeneracies


def test_two_groupoid_enrichment_counts():
    T = one_object_one_cell_2groupoid(zmod(2))
    H = b_2groupoid(T, trunc=3)
    valid = validate_sgroupoid(H)
    assert valid, valid.render()
    hom = H.homs[("x", "x")]
    for n in range(4):
        assert hom.size(n) == 2**n
    D = db_sgroupoid(H)
    for n in range(4):
        assert D.size(n) == 2 ** (n * n)


def test_two_groupoid_nerve_is_bisimplicial():
    T = one_object_one_cell_2groupoid(zmod(2))
    H = b_2groupoid(T, trunc=2)
    valid = validate_bisset(nerve_sgroupoid(H))
    assert valid, valid.render()


def test_nerve_rows_act_by_composing_over_gaps():
    # two objects whose cells carry S_3, which does not commute, so a
    # row composed in the wrong order differs from the reference
    H = product_sgd(
        constant_sgroupoid(trivial_groupoid((0, 1)), trunc=2),
        constant_sgroup(symmetric_group(3), trunc=2),
    )
    B = nerve_sgroupoid(H)
    N, q = H.trunc, 1
    row = TruncSSet(
        N,
        {p: B.level(p, q) for p in range(N + 1)},
        {(p, i): B.hfaces[(p, q, i)] for p in range(1, N + 1) for i in range(p + 1)},
        {(p, j): B.hdegen[(p, q, j)] for p in range(N) for j in range(p + 1)},
    )
    for n in range(N + 1):
        for m in range(N + 1):
            for theta in all_maps(m, n):
                for x0, fs in row.level(n):
                    objs = (x0,) + tuple(b for _, b, _ in string_steps(H, x0, fs, q))
                    want = string_action(
                        theta, objs, fs,
                        lambda a, b, c, g, f: H.compose(a, b, c, q, g, f),
                        lambda a: H.identity_at(a, q),
                    )
                    assert apply(row, theta, (x0, fs)) == want


def test_discrete_two_groupoid_enrichment_is_constant():
    G = trivial_groupoid((0, 1))
    H1 = b_2groupoid(groupoid_as_2groupoid(G), trunc=2)
    H2 = constant_sgroupoid(G, trunc=2)
    valid = validate_sgroupoid(H1)
    assert valid, valid.render()
    for a, b in itertools.product(G.objects, repeat=2):
        for n in range(3):
            assert H1.homs[(a, b)].size(n) == H2.homs[(a, b)].size(n)


def test_disjoint_union_has_empty_cross_homs():
    H = constant_sgroupoid(
        disjoint_union_groupoids(
            {"l": group_as_groupoid(zmod(2)), "r": trivial_groupoid((0, 1))}
        ),
        trunc=2,
    )
    valid = validate_sgroupoid(H)
    assert valid, valid.render()
    assert H.homs[(("l", "*"), ("r", 0))].size(0) == 0


def test_product_multiplies_hom_sizes():
    A = constant_sgroup(zmod(2), trunc=2)
    B = constant_sgroup(zmod(3), trunc=2)
    P = product_sgd(A, B)
    valid = validate_sgroupoid(P)
    assert valid, valid.render()
    assert P.homs[(("*", "*"), ("*", "*"))].size(1) == 6


def test_identity_functor_is_valid():
    H = constant_sgroup(zmod(2), trunc=2)
    F = sgd_functor(H, H, lambda a: a, lambda a, b, n, f: f)
    valid = validate_sgd_functor(F)
    assert valid, valid.render()


def test_inversion_is_not_a_functor_on_a_nonabelian_group():
    H = constant_sgroup(symmetric_group(3), trunc=1)
    F = sgd_functor(
        H, H, lambda a: a,
        lambda a, b, n, f: next(g for g in H.homs[(a, b)].level(n)
                                if H.compose(a, b, a, n, g, f) == H.identity_at(a, n)),
    )
    valid = validate_sgd_functor(F)
    assert not valid
    assert any("composition" in p for p in valid.witness)


def test_levelwise_inverses_are_found():
    H = constant_sgroup(zmod(4), trunc=2)
    assert H.inverse("*", "*", 1, 3) == 1
    assert H.inverse("*", "*", 2, 0) == 0


LOOKUP_FIXTURES = {
    "z2const": lambda: z2_sgroup(3),
    "interval": lambda: interval_sgd(3),
    "twocomp": lambda: twocomp_sgd(3),
    "b_2groupoid": lambda: b_2groupoid(one_object_one_cell_2groupoid(zmod(2)), trunc=3),
    "interval x S3": lambda: product_sgd(
        interval_sgd(3), constant_sgroup(symmetric_group(3), trunc=3)
    ),
}


@pytest.mark.parametrize("name", LOOKUP_FIXTURES)
def test_cell_lookups_equal_a_scan_of_the_tables(name):
    H = LOOKUP_FIXTURES[name]()
    for n in range(H.trunc + 1):
        cells = {
            (a, b): H.homs[(a, b)].level(n) for a, b in itertools.product(H.objects, repeat=2)
        }
        # the identity is the one loop cell that every composite through it fixes
        identity = {}
        for a in H.objects:
            (identity[a],) = [
                e for e in cells[(a, a)]
                if all(H.compose(b, a, a, n, e, f) == f for b in H.objects for f in cells[(b, a)])
                and all(H.compose(a, a, c, n, g, e) == g for c in H.objects for g in cells[(a, c)])
            ]
            assert H.identity_at(a, n) == identity[a]
        for (a, b), fs in cells.items():
            for f in fs:
                assert [c for c in H.objects if f in cells[(a, c)]] == [b]
                assert H.target(a, n, f) == b
                inverses = [
                    g for g in cells[(b, a)]
                    if H.compose(a, b, a, n, g, f) == identity[a]
                    and H.compose(b, a, b, n, f, g) == identity[b]
                ]
                assert len(inverses) == 1
                assert H.inverse(a, b, n, f) == inverses[0]


def test_string_steps_reject_a_cell_in_two_homs_without_validation():
    H = one_cell_sgroupoid(2)
    with pytest.raises(InvariantError, match=r"cell 'c' at level 0 lies in hom\(0,0\) and hom\(0,1\)"):
        string_steps(H, 0, ("c",), 0)


def test_string_steps_name_a_cell_in_no_hom():
    H = interval_sgd(2)
    with pytest.raises(InvariantError, match=r"cell 'x' at level 1 lies in no hom out of 1"):
        string_steps(H, 0, ((0, 1), "x"), 1)
