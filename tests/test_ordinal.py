import itertools

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

from sgdtors.ordinal import h_map


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
