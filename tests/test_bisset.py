from sgdtors.bisset import build_bisset, diagonal, validate_bisset
from sgdtors.sset import delta, sset_product


def external_product(X, Y):
    """Bisimplicial set with (p, q)-simplices X_p x Y_q."""
    N = X.trunc

    def levels(p, q):
        return [(x, y) for x in X.level(p) for y in Y.level(q)]

    return build_bisset(
        N,
        levels,
        lambda p, q, i, s: (X.face(p, i, s[0]), s[1]),
        lambda p, q, i, s: (s[0], Y.face(q, i, s[1])),
        lambda p, q, j, s: (X.degen(p, j, s[0]), s[1]),
        lambda p, q, j, s: (s[0], Y.degen(q, j, s[1])),
    )


def test_external_product_is_bisimplicial():
    B = external_product(delta(1, trunc=2), delta(2, trunc=2))
    valid = validate_bisset(B)
    assert valid, valid.render()


def test_diagonal_of_external_product_is_the_product():
    X, Y = delta(1, trunc=3), delta(2, trunc=3)
    D = diagonal(external_product(X, Y))
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
