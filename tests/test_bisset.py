from sgdtors.bisset import build_bisset, diagonal, validate_bisset
from sgdtors.fixtures import interval_sgd, z2_sgroup
from sgdtors.holim import comma_construction_functor, corepresented_functor, translation_bidegrees
from sgdtors.sgroupoid import identity_functor, nerve_bidegrees
from sgdtors.sset import TruncSSet, delta, sset_product


def external_product_bidegrees(X, Y):
    """The build_bisset arguments of the bisimplicial set with
    (p, q)-simplices X_p x Y_q."""
    N = X.trunc

    def levels(p, q):
        return [(x, y) for x in X.level(p) for y in Y.level(q)]

    return (
        N,
        levels,
        lambda p, q, i, s: (X.face(p, i, s[0]), s[1]),
        lambda p, q, i, s: (s[0], Y.face(q, i, s[1])),
        lambda p, q, j, s: (X.degen(p, j, s[0]), s[1]),
        lambda p, q, j, s: (s[0], Y.degen(q, j, s[1])),
    )


def external_product(X, Y):
    return build_bisset(*external_product_bidegrees(X, Y))


def diagonal_of_tables(B):
    """The diagonal read off a fully materialised bisimplicial set."""
    N = B.trunc
    return TruncSSet(
        N,
        {n: B.level(n, n) for n in range(N + 1)},
        {
            (n, i): {x: B.vfaces[(n - 1, n, i)][B.hfaces[(n, n, i)][x]] for x in B.level(n, n)}
            for n in range(1, N + 1)
            for i in range(n + 1)
        },
        {
            (n, j): {x: B.vdegen[(n + 1, n, j)][B.hdegen[(n, n, j)][x]] for x in B.level(n, n)}
            for n in range(N)
            for j in range(n + 1)
        },
    )


def test_external_product_is_bisimplicial():
    B = external_product(delta(1, trunc=2), delta(2, trunc=2))
    valid = validate_bisset(B)
    assert valid, valid.render()


def test_diagonal_of_external_product_is_the_product():
    X, Y = delta(1, trunc=3), delta(2, trunc=3)
    D = diagonal(*external_product_bidegrees(X, Y))
    P = sset_product(X, Y)
    assert D.simplices == P.simplices
    assert D.faces == P.faces
    assert D.degeneracies == P.degeneracies


def test_validator_catches_broken_commutation():
    B = external_product(delta(1, trunc=2), delta(1, trunc=2))
    (p, q, i) = (1, 1, 0)
    key = next(iter(B.hfaces[(p, q, i)]))
    cur = B.hfaces[(p, q, i)][key]
    # swap in a value whose first coordinate disagrees, so some vertical
    # face of the corrupted horizontal face must differ
    B.hfaces[(p, q, i)][key] = next(x for x in B.level(0, 1) if x[0] != cur[0])
    valid = validate_bisset(B)
    assert not valid


def test_direct_diagonal_equals_the_diagonal_of_the_full_tables():
    G = z2_sgroup(2)
    cases = [
        nerve_bidegrees(interval_sgd(2)),
        nerve_bidegrees(G),
        translation_bidegrees(corepresented_functor(interval_sgd(2), 0)),
        translation_bidegrees(comma_construction_functor(identity_functor(G))),
    ]
    for args in cases:
        D, R = diagonal(*args), diagonal_of_tables(build_bisset(*args))
        assert D.trunc == R.trunc
        assert list(D.simplices.items()) == list(R.simplices.items())
        for mine, theirs in ((D.faces, R.faces), (D.degeneracies, R.degeneracies)):
            assert list(mine) == list(theirs)
            for key in theirs:
                assert list(mine[key].items()) == list(theirs[key].items())
