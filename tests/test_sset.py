import itertools
import json
import math

import pytest

from sgdtors.cli import decode_sset, dumps, encode_sset
from sgdtors.ordinal import OrdinalMap, all_maps
from sgdtors.sset import (
    boundary,
    build_sset,
    circle,
    collapse_to_point,
    delta,
    disjoint_union,
    horn,
    identity_map,
    is_bijective,
    pi0_classes,
    point,
    relabel,
    sset_map,
    sset_product,
    subcomplex,
    validate_sset,
    validate_sset_map,
)


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
        ok, problems = validate_sset(D)
        assert ok, problems
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
    ok, problems = validate_sset(bad)
    assert not ok
    assert any("d_" in p for p in problems)


def test_ordinal_action_matches_tuple_composition():
    D = delta(3, trunc=4)
    for m in range(4):
        for theta in all_maps(m, 3):
            for x in D.level(3):
                got = D.apply(theta, x)
                assert got == tuple(x[v] for v in theta.values)


def test_ordinal_action_functorial_on_delta():
    D = delta(2, trunc=4)
    for n in range(4):
        for m in range(4):
            for theta in all_maps(m, n):
                for k in range(4):
                    for tau in all_maps(k, m):
                        for x in D.level(n):
                            assert D.apply(theta.after(tau), x) == D.apply(tau, D.apply(theta, x))


def test_boundary_and_horn():
    B = boundary(2, trunc=3)
    ok, problems = validate_sset(B)
    assert ok, problems
    assert B.size(0) == 3
    # three nondegenerate edges, no nondegenerate 2-simplex
    assert len(B.nondegenerate(1)) == 3
    assert len(B.nondegenerate(2)) == 0

    H = horn(2, 0, trunc=3)
    ok, problems = validate_sset(H)
    assert ok, problems
    assert len(H.nondegenerate(1)) == 2  # the two edges through vertex 0
    assert (0, 1) in set(H.level(1)) and (0, 2) in set(H.level(1))
    assert (1, 2) not in set(H.level(1))


def test_product_counts_and_shuffles():
    D1 = delta(1, trunc=4)
    P = sset_product(D1, D1)
    ok, problems = validate_sset(P)
    assert ok, problems
    for k in range(5):
        assert P.size(k) == D1.size(k) ** 2
    assert len(P.nondegenerate(2)) == shuffle_oracle(1, 1) == 2
    assert len(P.nondegenerate(3)) == 0


def test_product_unit():
    D1 = delta(1, trunc=3)
    P = sset_product(D1, point(trunc=3))
    proj = sset_map(P, D1, lambda n, x: x[0])
    ok, problems = validate_sset_map(proj)
    assert ok, problems
    assert is_bijective(proj)


def test_relabel_and_identity_map():
    D = delta(1, trunc=3)
    R = relabel(D, lambda n, x: ("r", x))
    ok, problems = validate_sset(R)
    assert ok, problems
    f = identity_map(D)
    ok, _ = validate_sset_map(f)
    assert ok


def test_disjoint_union_and_pi0():
    D = delta(0, trunc=3)
    U = disjoint_union({"a": D, "b": D})
    ok, problems = validate_sset(U)
    assert ok, problems
    assert len(pi0_classes(U)) == 2
    assert len(pi0_classes(delta(2, trunc=3))) == 1


def test_circle():
    S = circle(trunc=4)
    ok, problems = validate_sset(S)
    assert ok, problems
    assert S.size(0) == 1
    # level n: the point's degeneracy plus n nondegenerate-edge degeneracies
    for n in range(5):
        assert S.size(n) == n + 1
    assert len(S.nondegenerate(1)) == 1
    assert len(pi0_classes(S)) == 1


def test_collapse_boundary_of_delta2():
    D = delta(2, trunc=3)
    C = collapse_to_point(D, lambda n, x: set(x) != {0, 1, 2})
    ok, problems = validate_sset(C)
    assert ok, problems
    assert C.size(0) == 1
    assert len(C.nondegenerate(2)) == 1


def test_json_round_trip():
    for X in (delta(2, trunc=3), circle(trunc=3), sset_product(delta(1, trunc=2), delta(1, trunc=2))):
        text = dumps(encode_sset(X))
        Y = decode_sset(json.loads(text))
        ok, problems = validate_sset(Y)
        assert ok, problems
        assert Y.level_counts() == X.level_counts()
        # canonical round trip is bit-exact from the first emission on
        assert dumps(encode_sset(Y)) == text
        assert decode_sset(json.loads(dumps(encode_sset(Y)))) == Y


def test_degenerate_detection():
    D = delta(1, trunc=3)
    assert not D.is_degenerate(1, (0, 1))
    assert D.is_degenerate(1, (0, 0))
    assert D.nondegenerate(2) == ()
