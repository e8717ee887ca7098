from gpd_fixtures import one_object_one_cell_2groupoid, string_action
from ordinals import all_maps, apply, coface
from sgdtors.groupoid import (
    disjoint_union_groupoids,
    discrete_groupoid,
    group_as_2groupoid,
    group_as_groupoid,
    groupoid_as_2groupoid,
    nerve_groupoid,
    symmetric_group,
    trivial_groupoid,
    validate_2groupoid,
    validate_groupoid,
    zmod,
)
from sgdtors.kan import kan_check
from sgdtors.sset import validate_sset


def test_symmetric_group_composes_right_to_left():
    F = symmetric_group(3)
    swap01 = (1, 0, 2)
    swap12 = (0, 2, 1)
    # apply swap12 first, then swap01
    assert F.mul[(swap01, swap12)] == (1, 2, 0)
    assert F.mul[(swap12, swap01)] == (2, 0, 1)


def test_group_axioms_derived_by_make_group():
    F = zmod(4)
    assert F.e == 0
    assert F.inv[3] == 1
    assert len(F.elements) == 4


def test_groupoid_validators_accept_standard_examples():
    for G in (
        group_as_groupoid(symmetric_group(3)),
        trivial_groupoid((0, 1, 2)),
        discrete_groupoid("ab"),
        disjoint_union_groupoids(
            {"l": group_as_groupoid(zmod(2)), "r": discrete_groupoid((0,))}
        ),
    ):
        valid = validate_groupoid(G)
        assert valid, valid.render()


def test_groupoid_validator_catches_a_broken_composite():
    G = group_as_groupoid(zmod(2))
    G.comp[(1, 1)] = 1  # should be 0
    valid = validate_groupoid(G)
    assert not valid
    assert any("fails" in p or "associativity" in p for p in valid.witness)


def test_group_nerve_level_counts():
    for k in (2, 3):
        X = nerve_groupoid(group_as_groupoid(zmod(k)), trunc=4)
        valid = validate_sset(X)
        assert valid, valid.render()
        for n in range(5):
            assert X.size(n) == k**n


def test_contractible_groupoid_nerve_level_counts():
    X = nerve_groupoid(trivial_groupoid((0, 1)), trunc=3)
    valid = validate_sset(X)
    assert valid, valid.render()
    for n in range(4):
        assert X.size(n) == 2 ** (n + 1)
    assert kan_check(X).ok


def test_nerve_faces_of_an_edge_are_its_endpoints():
    G = trivial_groupoid((0, 1))
    X = nerve_groupoid(G, trunc=2)
    edge = (0, ((0, 1),))
    assert X.face(1, 0, edge) == (1, ())
    assert X.face(1, 1, edge) == (0, ())


def test_nerve_action_composes_over_gaps():
    F = symmetric_group(3)
    G = group_as_groupoid(F)
    X = nerve_groupoid(G, trunc=3)
    a, b = (1, 0, 2), (0, 2, 1)
    string = ("*", (a, b))
    # 0 -> 2 collapses the string to its full composite, b after a
    collapsed = apply(X, coface(2, 1), string)
    assert collapsed == ("*", (F.mul[(b, a)],))
    # S_3 does not commute, so a nerve composed in the wrong order, which
    # validate_sset still accepts, differs from the reference
    for n in range(4):
        for m in range(4):
            for theta in all_maps(m, n):
                for x0, fs in X.level(n):
                    want = string_action(
                        theta, (x0,) * (n + 1), fs,
                        lambda x, y, z, g, f: F.mul[(g, f)], lambda x: F.e,
                    )
                    assert apply(X, theta, (x0, fs)) == want


def test_two_groupoid_validators_accept_discrete_examples():
    for T in (
        group_as_2groupoid(zmod(2)),
        groupoid_as_2groupoid(trivial_groupoid((0, 1))),
    ):
        valid = validate_2groupoid(T)
        assert valid, valid.render()


def test_interchange_holds_for_abelian_2_cell_group():
    T = one_object_one_cell_2groupoid(zmod(3))
    valid = validate_2groupoid(T)
    assert valid, valid.render()


def test_interchange_fails_for_nonabelian_2_cell_group():
    # horizontal composition by group multiplication breaks interchange
    # unless the group is abelian
    T = one_object_one_cell_2groupoid(symmetric_group(3))
    valid = validate_2groupoid(T)
    assert not valid
    assert any("interchange" in p for p in valid.witness)
