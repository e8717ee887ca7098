import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ordinals import OrdinalMap, all_maps, apply

from sgdtors.cli import decode_sset, dumps, encode_sset
from sgdtors.fixtures import interval_sgd, twocomp_sgd, z2_sgroup
from sgdtors.groupoid import group_as_2groupoid, group_as_groupoid, nerve_groupoid, symmetric_group
from sgdtors.report import InvariantError
from sgdtors.sgroupoid import b_2groupoid, constant_sset
from sgdtors.sset import (
    _sorted_ids,
    boundary,
    build_sset,
    circle,
    collapse_to_point,
    delta,
    disjoint_union,
    horn,
    identity_map,
    idkey,
    is_bijective,
    pi0_classes,
    point,
    relabel,
    sset_map,
    sset_product,
    validate_sset,
    validate_sset_map,
)
from sgdtors.join import join_object
from sgdtors.wbar import wbar


def binom(a, b):
    return math.comb(a, b)


# --- independent counting oracles (written before the implementations were
# --- trusted; frozen values asserted below) ------------------------------


def delta_level_oracle(n, k):
    """|Delta^n_k| = number of monotone maps [k] -> [n]."""
    return binom(n + k + 1, k + 1)


def shuffle_oracle(p, q):
    """Nondegenerate (p+q)-simplices of Delta^p x Delta^q: (p,q)-shuffles."""
    return binom(p + q, p)


def test_delta_counts_and_validity():
    for n in range(3):
        D = delta(n, trunc=4)
        valid = validate_sset(D)
        assert valid, valid.render()
        for k in range(5):
            assert D.size(k) == delta_level_oracle(n, k)


def test_validate_catches_swapped_faces():
    D = delta(2, trunc=3)
    bad = build_sset(
        3,
        lambda n: D.level(n),
        lambda n, i, x: D.face(n, (i + 1) % (n + 1), x),  # rotate the face indices
        lambda n, j, x: D.degen(n, j, x),
    )
    valid = validate_sset(bad)
    assert not valid
    assert any("d_" in p for p in valid.witness)


def test_ordinal_action_matches_tuple_composition():
    D = delta(3, trunc=4)
    for m in range(4):
        for theta in all_maps(m, 3):
            for x in D.level(3):
                got = apply(D, theta, x)
                assert got == tuple(x[v] for v in theta.values)


def test_ordinal_action_functorial_on_delta():
    D = delta(2, trunc=4)
    for n in range(4):
        for m in range(4):
            for theta in all_maps(m, n):
                for k in range(4):
                    for tau in all_maps(k, m):
                        for x in D.level(n):
                            assert apply(D, theta.after(tau), x) == apply(D, tau, apply(D, theta, x))


def test_boundary_and_horn():
    B = boundary(2, trunc=3)
    valid = validate_sset(B)
    assert valid, valid.render()
    assert B.size(0) == 3
    # three nondegenerate edges, no nondegenerate 2-simplex
    assert len(B.nondegenerate(1)) == 3
    assert len(B.nondegenerate(2)) == 0

    H = horn(2, 0, trunc=3)
    valid = validate_sset(H)
    assert valid, valid.render()
    assert len(H.nondegenerate(1)) == 2  # the two edges through vertex 0
    assert (0, 1) in set(H.level(1)) and (0, 2) in set(H.level(1))
    assert (1, 2) not in set(H.level(1))


def test_product_counts_and_shuffles():
    D1 = delta(1, trunc=4)
    P = sset_product(D1, D1)
    valid = validate_sset(P)
    assert valid, valid.render()
    for k in range(5):
        assert P.size(k) == D1.size(k) ** 2
    assert len(P.nondegenerate(2)) == shuffle_oracle(1, 1) == 2
    assert len(P.nondegenerate(3)) == 0


def test_product_unit():
    D1 = delta(1, trunc=3)
    P = sset_product(D1, point(trunc=3))
    proj = sset_map(P, D1, lambda n, x: x[0])
    valid = validate_sset_map(proj)
    assert valid, valid.render()
    assert is_bijective(proj)


def test_relabel_and_identity_map():
    D = delta(1, trunc=3)
    R = relabel(D, lambda n, x: ("r", x))
    valid = validate_sset(R)
    assert valid, valid.render()
    f = identity_map(D)
    valid = validate_sset_map(f)
    assert valid, valid.render()


def test_an_off_target_root_value_fails_validation_at_that_root():
    # the simplices over the root are filled with None, so the check
    # fails rather than the build, and the root is the first witness
    D = delta(1, trunc=3)
    f = sset_map(D, D, lambda n, x: "junk" if x == (0, 1) else x)
    valid = validate_sset_map(f)
    assert not valid
    assert valid.witness[0] == "value at dim 1 for (0, 1) not in target"


def test_a_map_between_unequal_truncations_is_refused():
    with pytest.raises(InvariantError, match="equal truncations"):
        sset_map(delta(1, trunc=3), delta(1, trunc=2), lambda n, x: x)


def test_disjoint_union_and_pi0():
    D = delta(0, trunc=3)
    U = disjoint_union({"a": D, "b": D})
    valid = validate_sset(U)
    assert valid, valid.render()
    assert len(pi0_classes(U)) == 2
    assert len(pi0_classes(delta(2, trunc=3))) == 1


def test_circle():
    S = circle(trunc=4)
    valid = validate_sset(S)
    assert valid, valid.render()
    assert S.size(0) == 1
    # level n: the point's degeneracy plus n nondegenerate-edge degeneracies
    for n in range(5):
        assert S.size(n) == n + 1
    assert len(S.nondegenerate(1)) == 1
    assert len(pi0_classes(S)) == 1


def test_collapse_boundary_of_delta2():
    D = delta(2, trunc=3)
    C = collapse_to_point(D, lambda n, x: set(x) != {0, 1, 2})
    valid = validate_sset(C)
    assert valid, valid.render()
    assert C.size(0) == 1
    assert len(C.nondegenerate(2)) == 1


def test_json_round_trip():
    for X in (delta(2, trunc=3), circle(trunc=3), sset_product(delta(1, trunc=2), delta(1, trunc=2))):
        text = dumps(encode_sset(X))
        Y = decode_sset(json.loads(text))
        valid = validate_sset(Y)
        assert valid, valid.render()
        assert Y.level_counts() == X.level_counts()
        # canonical round trip is bit-exact from the first emission on
        assert dumps(encode_sset(Y)) == text
        assert decode_sset(json.loads(dumps(encode_sset(Y)))) == Y


def test_degenerate_detection():
    D = delta(1, trunc=3)
    assert D.nondegenerate(1) == ((0, 1),)
    assert D.origins(1) == (((0, 1),), ((0, ((0, 0), (1, 1)), ((0,), (1,))),))
    assert D.nondegenerate(2) == ()


def scanned_origins(X, n):
    """``X.origins(n)`` by a scan of the level below for every n-simplex:
    the least j, and the y, with x = s_j y; each j's simplices listed in
    the level order of their y."""
    below = X.level(n - 1) if n else ()
    roots, firsts = [], [[] for _ in range(n)]
    for x in X.level(n):
        found = [(j, y) for j in range(n) for y in below if X.degen(n - 1, j, y) == x]
        if found:
            j, y = found[0]
            firsts[j].append((below.index(y), x, y))
        else:
            roots.append(x)
    return tuple(roots), tuple(
        (j, tuple(x for _, x, _ in sorted(pairs)), tuple(y for _, _, y in sorted(pairs)))
        for j, pairs in enumerate(firsts)
    )


def _relabelled_square():
    # relabel reverses each level, so the degeneracy tables keep the old order
    X = sset_product(delta(1, trunc=2), delta(1, trunc=2))
    R = relabel(X, lambda n, x: X.size(n) - X.level(n).index(x))
    assert list(R.degeneracies[(1, 1)]) != list(R.level(1))
    return R


@pytest.mark.parametrize("build", [
    lambda: delta(2, trunc=3),
    lambda: boundary(3, trunc=3),
    lambda: horn(2, 1, trunc=3),
    lambda: sset_product(delta(1, trunc=3), delta(1, trunc=3)),
    _relabelled_square,
    lambda: constant_sset((0, 1, "a"), 3),  # the same ids on every level
    lambda: wbar(b_2groupoid(group_as_2groupoid(symmetric_group(3)), 3)),
], ids=["delta2", "boundary3", "horn21", "square", "relabelled-square", "constant", "wbar-bS3"])
def test_origins_are_the_first_degeneracies_a_scan_finds(build):
    X = build()
    for n in range(X.trunc + 1):
        assert X.origins(n) == scanned_origins(X, n)
        assert X.nondegenerate(n) == X.origins(n)[0]
    assert X.origins(X.trunc) is X.origins(X.trunc)  # worked out once


def test_has_agrees_with_level_membership():
    strangers = [(5,), (0, 0, 0, 0, 0, 0), ((0,), (1,)), ((0, 9), (0, 1)), "zz", 0, True]
    for X in [
        delta(2, trunc=3),
        sset_product(delta(1, trunc=2), delta(1, trunc=2)),
        delta(1, trunc=0),
        boundary(0, trunc=2),  # every level empty
    ]:
        ids = {x for n in range(X.trunc + 1) for x in X.level(n)}
        for n in range(-1, X.trunc + 2):
            for x in sorted(ids, key=idkey) + strangers:
                assert X.has(n, x) == (x in X.level(n)), (X.trunc, n, x)


_leaves = (
    st.integers(-2, 2)
    | st.booleans()
    | st.text("ab1", max_size=2)
    | st.frozensets(st.integers(0, 2) | st.booleans(), max_size=2)
)
_nested = st.recursive(_leaves, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)


def _as_ints(x):
    if isinstance(x, tuple):
        return tuple(map(_as_ints, x))
    return int(x) if isinstance(x, bool) else x


@st.composite
def shared_ids(draw):
    """Ids built from a small pool, so that sub-objects repeat; the pool
    holds each member's twin with bools as ints, equal but keyed apart."""
    pool = draw(st.lists(_nested, min_size=1, max_size=4))
    picks = st.sampled_from(pool + [_as_ints(x) for x in pool])
    return draw(st.lists(picks | st.lists(picks, max_size=3).map(tuple), max_size=12))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(shared_ids())
def test_sorted_ids_is_idkey_order(ids):
    got = _sorted_ids(ids)
    want = tuple(sorted(set(ids), key=idkey))
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]
    assert repr(got) == repr(want)


def test_sorted_ids_keys_equal_but_differently_typed_sub_ids_apart():
    # (True,) == (1,), but idkey puts ints before bools
    assert _sorted_ids({((True,), "a"), ((1,), "b")}) == (((1,), "b"), ((True,), "a"))


def test_vertex_is_the_action_of_a_point():
    for X in (
        delta(2, trunc=3),
        circle(trunc=3),
        nerve_groupoid(group_as_groupoid(symmetric_group(3)), trunc=3),
        wbar(z2_sgroup(3)),
    ):
        for n in range(X.trunc + 1):
            for x in X.level(n):
                for i in range(n + 1):
                    assert X.vertex(n, i, x) == apply(X, OrdinalMap(0, n, (i,)), x)


def reference_product(X, Y):
    """The product through build_sset, which sorts every level: the
    reference for sset_product."""
    return build_sset(
        X.trunc,
        lambda n: itertools.product(X.level(n), Y.level(n)),
        lambda n, i, p: (X.face(n, i, p[0]), Y.face(n, i, p[1])),
        lambda n, j, p: (X.degen(n, j, p[0]), Y.degen(n, j, p[1])),
    )


def assert_product_keeps_idkey_order(X, Y):
    P, want = sset_product(X, Y), reference_product(X, Y)
    for n in range(P.trunc + 1):
        assert P.level(n) == _sorted_ids(P.level(n)) == want.level(n)
    for got_tables, want_tables in ((P.faces, want.faces), (P.degeneracies, want.degeneracies)):
        assert got_tables == want_tables
        # the tables are listed in the same order too, as encode_sset writes them
        assert [list(t.items()) for t in got_tables.values()] == [
            list(t.items()) for t in want_tables.values()
        ]


def test_product_of_fixture_complexes_keeps_idkey_order():
    I = delta(1, trunc=3)
    complexes = [nerve_groupoid(group_as_groupoid(symmetric_group(3)), 3)]
    for G in (z2_sgroup(3), interval_sgd(3), twocomp_sgd(3)):
        for X, Y in itertools.product(G.homs.values(), repeat=2):
            assert_product_keeps_idkey_order(X, Y)
        complexes += [wbar(G), join_object(G)]
    for X in complexes:
        assert_product_keeps_idkey_order(X, I)
        assert_product_keeps_idkey_order(I, X)


# ids whose idkey tells apart any two that differ: no digit strings,
# which idkey would key with the bools
_plain_ids = st.recursive(
    st.integers(-2, 2) | st.booleans() | st.text("ab", max_size=2),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=4,
)


@st.composite
def renamed_complexes(draw):
    """A small complex at truncation 2 with its ids renamed per level."""
    X = draw(st.sampled_from([
        lambda: point(trunc=2),
        lambda: delta(1, trunc=2),
        lambda: delta(2, trunc=2),
        lambda: circle(trunc=2),
        lambda: boundary(2, trunc=2),
    ]))()
    names = {
        n: draw(st.lists(_plain_ids, min_size=X.size(n), max_size=X.size(n), unique=True))
        for n in range(X.trunc + 1)
    }
    position = {n: {x: i for i, x in enumerate(X.level(n))} for n in range(X.trunc + 1)}
    return relabel(X, lambda n, x: names[n][position[n][x]])


@settings(derandomize=True, max_examples=50, deadline=None)
@given(renamed_complexes(), renamed_complexes())
def test_product_of_renamed_complexes_keeps_idkey_order(X, Y):
    assert_product_keeps_idkey_order(X, Y)
