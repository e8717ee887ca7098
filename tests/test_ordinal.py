import itertools

import pytest

from ordinals import (
    all_maps,
    codegeneracy,
    coface,
    decompose,
    identity,
    join_left,
    join_of_maps,
    join_right,
)

from sgdtors.fixtures import interval_sgd, twocomp_sgd
from sgdtors.groupoid import group_as_2groupoid, group_as_groupoid, nerve_groupoid, symmetric_group
from sgdtors.ordinal import h_map, strings
from sgdtors.sgroupoid import b_2groupoid, nerve_bidegrees
from sgdtors.sset import idkey
from sgdtors.wbar import wbar


def test_composition_and_identity():
    for m, n, k in itertools.product(range(3), repeat=3):
        for theta in all_maps(m, n):
            assert theta.after(identity(m)).values == theta.values
            assert identity(n).after(theta).values == theta.values
            for tau in all_maps(k, m):
                comp = theta.after(tau)
                assert comp.values == tuple(theta(tau(i)) for i in range(k + 1))


def test_decompose_realizes_map():
    # Reassemble theta from its instruction list acting on vertex tuples of
    # the standard simplex: tuples compose by index selection.
    for m in range(4):
        for n in range(4):
            for theta in all_maps(m, n):
                # act on the generic n-simplex (0, 1, ..., n) of delta(n)
                cur = tuple(range(n + 1))
                for kind, dim, idx in decompose(theta):
                    if kind == "d":
                        assert len(cur) == dim + 1
                        cur = cur[:idx] + cur[idx + 1 :]
                    else:
                        assert len(cur) == dim + 1
                        cur = cur[: idx + 1] + cur[idx:]
                assert cur == theta.values


def test_elementary_maps():
    assert coface(2, 1).values == (0, 2)
    assert codegeneracy(2, 0).values == (0, 0, 1, 2)
    assert not coface(3, 0).is_surjective()
    assert codegeneracy(3, 1).is_surjective()


def test_restricted_maps_compose():
    # The interval restrictions satisfy theta_{tau(i)} . tau_i = (theta tau)_i.
    # (The two-row reindexing diagrams commute; checked exhaustively.)
    for m, k, n in itertools.product(range(4), repeat=3):
        for theta in all_maps(m, n):
            for tau in all_maps(k, m):
                comp = theta.after(tau)
                for i in range(k + 1):
                    lhs = theta.restricted(tau(i)).after(tau.restricted(i))
                    assert lhs.values == comp.restricted(i).values


def test_join_inclusions():
    for n in range(4):
        left, right = join_left(n), join_right(n)
        assert left.values == tuple(range(n + 1))
        assert right.values == tuple(n + 1 + i for i in range(n + 1))
        assert set(left.values) | set(right.values) == set(range(2 * n + 2))


def test_join_of_maps_functorial():
    for m, k, n in itertools.product(range(3), repeat=3):
        for theta in all_maps(m, n):
            assert join_of_maps(theta).after(join_left(m)).values == join_left(n).after(theta).values
            assert join_of_maps(theta).after(join_right(m)).values == join_right(n).after(theta).values
            for tau in all_maps(k, m):
                assert (
                    join_of_maps(theta).after(join_of_maps(tau)).values
                    == join_of_maps(theta.after(tau)).values
                )


def test_h_map_is_monotone_and_natural():
    # h_1 lands onto the whole 4-chain.
    h1 = h_map(1)
    assert sorted(h1.values()) == [0, 1, 2, 3]
    for n in range(4):
        h = h_map(n)
        pts = sorted(h)
        for (i, e), (j, f) in itertools.product(pts, pts):
            if i <= j and e <= f:
                assert h[(i, e)] <= h[(j, f)]
    # naturality: join_of_maps(theta) . h_m = h_n . (theta x 1)
    for m in range(3):
        for n in range(3):
            for theta in all_maps(m, n):
                hm, hn = h_map(m), h_map(n)
                jt = join_of_maps(theta)
                for i in range(m + 1):
                    for e in (0, 1):
                        assert jt(hm[(i, e)]) == hn[(theta(i), e)]


def brute_strings(objects, arrows, n):
    """Strings of n cells by product, then filter, in idkey order:
    arrows(k) lists the (object k, object k + 1, cell) triples that cell
    k + 1 may be."""
    picks = itertools.product(*(arrows(k) for k in range(n)))
    return sorted(
        (
            (objs, tuple(c for _, _, c in picked))
            for picked in picks
            for objs in itertools.product(objects, repeat=n + 1)
            if all(picked[k][:2] == objs[k : k + 2] for k in range(n))
        ),
        key=idkey,
    )


def heads(listing):
    """(first object, cells), the ids the nerves keep, in idkey order."""
    return sorted(((objs[0], cells) for objs, cells in listing), key=idkey)


def test_strings_lists_each_string_once():
    steps = {0: [("f", 1), ("1", 0)], 1: [("g", 0)]}
    arrows = [(a, b, c) for a in steps for c, b in steps[a]]
    for n in range(4):
        listing = strings((0, 1), lambda k, at: steps[at], n)
        assert len(set(listing)) == len(listing)
        assert sorted(listing, key=idkey) == brute_strings((0, 1), lambda k: arrows, n)
    assert strings((), lambda k, at: steps[at], 2) == []


def test_the_nerve_of_s3_lists_every_composable_string():
    G = group_as_groupoid(symmetric_group(3))
    N = nerve_groupoid(G, 3)
    arrows = [(s, d, f) for f, (s, d) in G.morphisms.items()]
    for n in range(4):
        assert list(N.level(n)) == heads(brute_strings(G.objects, lambda k: arrows, n))


@pytest.mark.parametrize("H", [interval_sgd(3), twocomp_sgd(3)], ids=["interval", "twocomp"])
def test_the_enriched_nerve_lists_every_string_of_q_cells(H):
    _, levels, *_ = nerve_bidegrees(H)
    for p, q in itertools.product(range(4), repeat=2):
        arrows = [(a, b, c) for (a, b), hom in H.homs.items() for c in hom.level(q)]
        assert sorted(levels(p, q), key=idkey) == heads(
            brute_strings(H.objects, lambda k: arrows, p)
        )


def test_wbar_of_the_s3_2groupoid_lists_every_cocycle():
    # cell k + 1 of a cocycle lies in hom(x_(k+1), x_k), at degree n - k - 1
    C = b_2groupoid(group_as_2groupoid(symmetric_group(3)), 2)
    W = wbar(C, 3)
    for n in range(4):
        def arrows(k):
            return [(b, a, c) for (a, b), hom in C.homs.items() for c in hom.level(n - k - 1)]

        assert list(W.level(n)) == brute_strings(C.objects, arrows, n)
