from call_counts import count_calls

from sgdtors import join
from sgdtors.fixtures import interval_sgd, z2_sgroup
from sgdtors.kan import iterated_degeneracy
from sgdtors.join import (
    alpha_beta,
    alpha_beta_check,
    join_map,
    join_object,
    join_string,
    naturality_check,
)
from sgdtors.sgroupoid import sgd_functor, validate_sgd_functor
from sgdtors.sset import sset_map, validate_sset

TR = 3


def interval_collapse():
    return sgd_functor(
        interval_sgd(TR),
        z2_sgroup(TR),
        lambda a: "*",
        lambda a, b, n, f: 0 if a == b else 1,
    )


def test_carrier_counts_for_the_cyclic_group():
    # one object: a level-n simplex is 2n+1 free cell choices
    J = join_object(z2_sgroup(TR))
    assert validate_sset(J).ok
    assert J.level_counts() == tuple(2 ** (2 * n + 1) for n in range(TR + 1))
    assert J.level_counts() == (2, 8, 32, 128)


def test_middle_cell_recomposes_the_attached_cell():
    G = z2_sgroup(TR)
    J = join_object(G)
    for w in J.level(1):
        a0, (b0, g0, us), hs = w
        objs, cells = join_string(G, 1, w)
        assert objs == (b0, b0, a0, a0)
        mid = cells[1]
        assert G.compose(b0, b0, a0, 1, mid, us[0]) == g0


def test_prism_validates_and_has_the_right_ends():
    for G in (z2_sgroup(TR), interval_sgd(TR)):
        check = alpha_beta_check(alpha_beta(G))
        assert check.ok, check.render()


def test_the_two_halves_differ_before_the_prism_connects_them():
    G = z2_sgroup(TR)
    J, alpha, beta, _ = alpha_beta(G)
    seen = [w for w in J.level(1) if alpha(1, w) != beta(1, w)]
    assert seen


def test_prism_is_natural_for_the_interval_collapse():
    F = interval_collapse()
    assert validate_sgd_functor(F).ok
    check = naturality_check(F, alpha_beta(F.source))
    assert check.ok, check.render()


def test_join_map_of_the_collapse_hits_every_simplex():
    F = interval_collapse()
    J2 = join_object(F.target)
    jf = join_map(F, join_object(F.source), J2)
    for n in range(TR + 1):
        hit = {jf(n, w) for w in jf.source.level(n)}
        assert hit == set(J2.level(n))


def test_alpha_beta_runs_the_prism_once_per_root(monkeypatch):
    # the prism's degenerate simplices are filled from the diagonal
    # nerve's degeneracies: its closure runs once per root of J x Delta[1]
    built = []

    def recorded(X, Y, assign):
        seen = []
        f = sset_map(X, Y, lambda n, x: seen.append((n, x)) or assign(n, x))
        built.append((f, seen))
        return f

    monkeypatch.setattr(join, "sset_map", recorded)
    _, _, _, H = alpha_beta(interval_sgd(4))
    P = H.source
    (seen,) = [seen for f, seen in built if f is H]
    roots = [(n, x) for n in range(P.trunc + 1) for x in P.nondegenerate(n)]
    assert seen == roots
    assert len(roots) == 3240


def test_alpha_beta_unpacks_each_doubled_string_once(monkeypatch):
    # one unpacking per carrier simplex, not one per prism simplex over
    # it, and one identity per object and level
    calls = count_calls(monkeypatch, (join_string, iterated_degeneracy))
    G = interval_sgd(4)
    J, _, _, _ = alpha_beta(G)
    assert calls["join_string"] == sum(J.level_counts()) == 1364
    assert calls["iterated_degeneracy"] == len(G.objects) * (G.trunc + 1)
