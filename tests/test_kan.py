import itertools

import pytest

from sgdtors import kan
from sgdtors.classify import (
    cylinder_presheaf,
    enumerate_sset_presheaf_maps,
    presheaf_homotopies,
    presheaf_map_classes,
)
from sgdtors.fixtures import pt_site, s1_site
from sgdtors.groupoid import (
    group_as_groupoid,
    nerve_groupoid,
    symmetric_group,
    trivial_groupoid,
    zmod,
)
from sgdtors.kan import (
    TruncationError,
    enumerate_sset_maps,
    fibration_check,
    horn_assignments,
    kan_check,
    pi_n,
    weq_check,
)
from sgdtors.presheaf import constant_group_presheaf, constant_sset_presheaf
from sgdtors.sheaf import cech_resolution
from sgdtors.site import star_cover
from sgdtors.sset import (
    boundary,
    delta,
    disjoint_union,
    identity_map,
    point,
    relabel,
    sset_map,
    sset_product,
)
from sgdtors.torsors import bg_presheaf, group_presheaf_as_groupoid


def horn_fillers(X, n, k, assignment):
    """The fillers of one horn by a scan of level n, kept as the
    reference for ``kan.face_index``."""
    return [
        z
        for z in X.level(n)
        if all(X.face(n, i, z) == x for i, x in assignment.items())
    ]


class ScannedFillers:
    """Stands in for ``kan.face_index(X, n, k)``: every lookup scans
    level n with ``horn_fillers``."""

    def __init__(self, X, n, k=None):
        self.X, self.n, self.k = X, n, k
        self.positions = [i for i in range(n + 1) if i != k]

    def get(self, faces, default=None):
        found = horn_fillers(self.X, self.n, self.k, dict(zip(self.positions, faces)))
        return found or default

    def __contains__(self, faces):
        return self.get(faces) is not None


def indexed_and_scanned(monkeypatch, check, *args):
    """check(*args) with fillers looked up in the face index, then with
    every horn's fillers found by a scan."""
    indexed = check(*args)
    with monkeypatch.context() as m:
        m.setattr(kan, "face_index", ScannedFillers)
        scanned = check(*args)
    return indexed, scanned


def test_interval_is_not_kan():
    X = delta(1, trunc=2)
    # the left horn built from the 01 edge and the degenerate edge at 0
    # asks for a reversal of 01, which the interval does not contain
    bad = {1: (0, 0), 2: (0, 1)}
    assert bad in list(horn_assignments(X, 2, 0))
    assert horn_fillers(X, 2, 0, bad) == []
    report = kan_check(X, maxdim=2)
    assert not report.ok
    assert report.params["horns_checked"] > 0


def test_standard_simplex_inner_horns_fill():
    X = delta(2, trunc=3)
    for assignment in horn_assignments(X, 2, 1):
        assert horn_fillers(X, 2, 1, assignment)


def _corrupted_delta2():
    # the face that tests/test_mutations.py corrupts in its sset_face case
    X = delta(2, trunc=3)
    X.faces[(2, 0)][(0, 1, 2)] = (0, 1)
    return X


def _z2_nerve():
    return nerve_groupoid(group_as_groupoid(zmod(2)), trunc=4)


@pytest.mark.parametrize(
    "build, maxdim",
    [
        (lambda: delta(1, trunc=2), 2),
        (lambda: delta(2, trunc=3), 2),
        (_corrupted_delta2, 2),
        (_z2_nerve, None),
        (lambda: nerve_groupoid(group_as_groupoid(symmetric_group(3)), trunc=3), None),
        (lambda: nerve_groupoid(trivial_groupoid((0, 1)), trunc=3), None),
        (lambda: sset_product(_z2_nerve(), delta(1, trunc=4)), 2),
    ],
)
def test_kan_check_finds_the_fillers_the_scan_finds(monkeypatch, build, maxdim):
    indexed, scanned = indexed_and_scanned(monkeypatch, kan_check, build(), maxdim)
    assert indexed == scanned
    assert indexed.params["horns_checked"] > 0


def _projection(X, Y):
    P = sset_product(X, Y)
    return sset_map(P, Y, lambda n, p: p[1])


@pytest.mark.parametrize(
    "build, ok, horns",
    [
        (lambda: _projection(_z2_nerve(), delta(1, trunc=4)), True, 54),
        (lambda: _projection(delta(1, trunc=4), _z2_nerve()), False, 11),
        (lambda: sset_map(delta(1, trunc=3), point(trunc=3), lambda n, x: (0,) * (n + 1)), False, 6),
        (lambda: sset_map(_corrupted_delta2(), point(trunc=3), lambda n, x: (0,) * (n + 1)),
         False, 8),
    ],
)
def test_fibration_check_lifts_what_the_scan_lifts(monkeypatch, build, ok, horns):
    p = build()
    indexed, scanned = indexed_and_scanned(monkeypatch, fibration_check, p, 2)
    assert indexed == scanned
    assert (indexed.ok, indexed.params["horns_checked"]) == (ok, horns)


@pytest.mark.parametrize(
    "X, v, n",
    [
        (nerve_groupoid(group_as_groupoid(symmetric_group(3)), trunc=3), ("*", ()), 1),
        (_z2_nerve(), ("*", ()), 1),
        (_z2_nerve(), ("*", ()), 2),
        (nerve_groupoid(trivial_groupoid((0, 1)), trunc=3), (1, ()), 1),
    ],
)
def test_pi_n_multiplies_as_the_scan_does(monkeypatch, X, v, n):
    indexed, scanned = indexed_and_scanned(monkeypatch, pi_n, X, v, n)
    assert indexed == scanned


def test_group_nerve_is_kan():
    X = nerve_groupoid(group_as_groupoid(zmod(2)), trunc=4)
    assert kan_check(X).ok


def test_pi1_of_group_nerve_recovers_the_group():
    F = symmetric_group(3)
    X = nerve_groupoid(group_as_groupoid(F), trunc=3)
    pg = pi_n(X, ("*", ()), 1)
    assert pg.order() == 6
    # every class is a single loop ("*", (g,))
    rep = {}
    for cls in pg.classes:
        assert len(cls) == 1
        (x,) = cls
        rep[pg.cls_of[x]] = x[1][0]
    for a in range(6):
        for b in range(6):
            assert rep[pg.mult[(a, b)]] == F.mul[(rep[a], rep[b])]
    assert any(
        pg.mult[(a, b)] != pg.mult[(b, a)] for a in range(6) for b in range(6)
    ), "pi_1 of this nerve must be non-abelian"


def test_pi2_of_group_nerve_is_trivial():
    X = nerve_groupoid(group_as_groupoid(zmod(2)), trunc=4)
    assert pi_n(X, ("*", ()), 2).order() == 1


def test_pi_respects_truncation_bound():
    X = nerve_groupoid(group_as_groupoid(zmod(2)), trunc=2)
    with pytest.raises(TruncationError):
        pi_n(X, ("*", ()), 2)


def test_identity_is_a_weak_equivalence():
    X = nerve_groupoid(group_as_groupoid(zmod(2)), trunc=4)
    assert weq_check(identity_map(X)).ok


def test_contractible_groupoid_nerve_is_equivalent_to_a_point():
    X = nerve_groupoid(trivial_groupoid((0, 1)), trunc=4)
    P = point(trunc=4)
    f = sset_map(X, P, lambda n, x: P.level(n)[0])
    assert weq_check(f).ok


def test_collapsing_a_group_nerve_is_not_a_weak_equivalence():
    X = nerve_groupoid(group_as_groupoid(zmod(2)), trunc=4)
    P = point(trunc=4)
    f = sset_map(X, P, lambda n, x: P.level(n)[0])
    report = weq_check(f)
    assert not report.ok
    text = report.render()
    assert "pi_1" in text


def test_map_enumeration_counts_poset_maps():
    X = delta(1, trunc=2)
    maps = enumerate_sset_maps(X, X)
    images = sorted((f(0, (0,)), f(0, (1,))) for f in maps)
    assert images == [((0,), (0,)), ((0,), (1,)), ((1,), (1,))]


def test_map_enumeration_respects_forced_values():
    X = delta(1, trunc=2)
    maps = enumerate_sset_maps(X, X, forced={(0, (0,)): (1,)})
    assert len(maps) == 1
    assert maps[0](0, (1,)) == (1,)


def test_a_forced_value_outside_its_face_candidates_gives_no_map():
    # vertex 0 goes to 1, so the edge 01 has d_1 = 1 and cannot go to 01
    X = delta(1, trunc=2)
    assert enumerate_sset_maps(X, X, forced={(0, (0,)): (1,), (1, (0, 1)): (0, 1)}) == []
    assert enumerate_sset_maps(X, X, forced={(1, (0, 1)): (0, 1)}) != []


def test_a_forced_vertex_outside_the_target_gives_no_map():
    # one vertex and its degeneracies: no face lookup can reject the value
    X, Y = delta(0, trunc=2), delta(1, trunc=2)
    assert enumerate_sset_maps(X, Y, forced={(0, (0,)): (2,)}) == []
    assert len(enumerate_sset_maps(X, Y, forced={(0, (0,)): (1,)})) == 1


def test_a_forced_degenerate_simplex_that_disagrees_with_its_root_gives_no_map():
    # s_0 of vertex 0 lifts from the slot of vertex 0, pinned to 0
    X = delta(1, trunc=2)
    forced = {(0, (0,)): (0,), (1, (0, 0)): (1, 1)}
    assert enumerate_sset_maps(X, X, forced) == []
    forced[(1, (0, 0))] = (0, 0)
    assert len(enumerate_sset_maps(X, X, forced)) == 2


def test_one_compiled_search_runs_every_pair_of_ends_on_the_circle():
    site = s1_site()
    source = cech_resolution(site, star_cover(site), 2)
    C = cylinder_presheaf(source)
    target = bg_presheaf(group_presheaf_as_groupoid(constant_group_presheaf(site, zmod(2))), 2)
    runs = 0
    for U in site.objects:
        X, Y = C.values[U], target.values[U]
        search = kan.sset_map_search(X, Y)
        ends = enumerate_sset_maps(source.values[U], Y)
        for f, g in itertools.product(ends, repeat=2):
            forced = {
                (n, (x, (k,) * (n + 1))): h(n, x)
                for k, h in ((0, f), (1, g))
                for n in range(3)
                for x in source.values[U].level(n)
            }
            assert search(forced) == enumerate_sset_maps(X, Y, forced)
            runs += 1
    assert runs == 1 + 1 + 4 + 4


def assert_forced_is_filtered(X, Y, keys):
    """Forcing the values of some simplices lists the unforced maps with
    those values, in the same order, for the values of each map."""
    every = enumerate_sset_maps(X, Y)
    assert every
    for f in every:
        forced = {(n, x): f(n, x) for n, x in keys}
        kept = [g for g in every if all(g(n, x) == v for (n, x), v in forced.items())]
        assert enumerate_sset_maps(X, Y, forced) == kept


def test_forced_maps_off_the_cylinder_are_the_filtered_maps():
    site = s1_site()
    source = cech_resolution(site, star_cover(site), 2)
    C = cylinder_presheaf(source)
    G = constant_group_presheaf(site, zmod(2))
    target = bg_presheaf(group_presheaf_as_groupoid(G), 2)
    for U in site.objects:
        X = C.values[U]
        end0 = [(n, s) for n in range(3) for s in X.level(n) if set(s[1]) == {0}]
        assert_forced_is_filtered(X, target.values[U], end0)


def test_forced_maps_of_a_relabelled_set_are_the_filtered_maps():
    # relabel reverses each level, so the tables keep the old order
    X = sset_product(delta(1, trunc=2), delta(1, trunc=2))
    R = relabel(X, lambda n, x: X.size(n) - X.level(n).index(x))
    assert list(R.degeneracies[(0, 0)]) != list(R.level(0))
    assert list(R.degeneracies[(1, 1)]) != list(R.level(1))
    Y = nerve_groupoid(group_as_groupoid(zmod(2)), trunc=2)
    degenerate = R.degen(0, 0, R.level(0)[0])
    assert_forced_is_filtered(R, Y, [(0, R.level(0)[-1]), (1, degenerate)])
    assert_forced_is_filtered(R, Y, [(1, x) for x in R.nondegenerate(1)[:2]])


def test_enumeration_covers_degenerate_simplices_consistently():
    X = delta(1, trunc=2)
    Y = nerve_groupoid(group_as_groupoid(zmod(2)), trunc=2)
    for f in enumerate_sset_maps(X, Y):
        for n in range(1, 3):
            for x in X.level(n):
                for i in range(n + 1):
                    assert f(n - 1, X.face(n, i, x)) == Y.face(n, i, f(n, x))


def _chain_replayed(X, Y, f):
    """f's tables rebuilt the way the enumeration once read them off a
    solution: each simplex lifts from the root of its first s_j y (j
    ascending, y in level order) through a chain of (dim, j) pairs, which
    Y.degen replays on the root's value."""
    lift = {}
    for n in range(X.trunc + 1):
        for j in range(n):
            for y in X.level(n - 1):
                x = X.degen(n - 1, j, y)
                if (n, x) not in lift:
                    root, chain = lift[(n - 1, y)]
                    lift[(n, x)] = (root, chain + ((n - 1, j),))
        for x in X.level(n):
            lift.setdefault((n, x), ((n, x), ()))

    def value(n, x):
        root, chain = lift[(n, x)]
        z = f(*root)
        for m, j in chain:
            z = Y.degen(m, j, z)
        return z

    return {n: {x: value(n, x) for x in X.level(n)} for n in range(X.trunc + 1)}


def _sphere_into_s3():
    X = boundary(3, trunc=4)
    return [(X, nerve_groupoid(group_as_groupoid(symmetric_group(3)), trunc=4), None)]


def _cylinders_with_forced_ends():
    # each section of the circle's cylinder, both ends forced to one map
    # of the section below, or to its first and last maps
    site = s1_site()
    source = cech_resolution(site, star_cover(site), 2)
    C = cylinder_presheaf(source)
    target = bg_presheaf(group_presheaf_as_groupoid(constant_group_presheaf(site, zmod(2))), 2)
    cases = []
    for U in site.objects:
        ends = enumerate_sset_maps(source.values[U], target.values[U])
        for f, g in ((ends[0], ends[0]), (ends[0], ends[-1])):
            forced = {
                (n, (x, (k,) * (n + 1))): h(n, x)
                for k, h in ((0, f), (1, g))
                for n in range(3)
                for x in source.values[U].level(n)
            }
            cases.append((C.values[U], target.values[U], forced))
    return cases


@pytest.mark.parametrize(
    "cases, count",
    [(_sphere_into_s3, 6**3), (_cylinders_with_forced_ends, 16)],
    ids=["sphere-into-S3", "circle-cylinders"],
)
def test_enumerated_tables_follow_level_order_and_the_chain_replay(cases, count):
    # certificates (cli.encode_sset_map) write each table in its key
    # order, so every table must be built in X.level(n) order
    found = 0
    for X, Y, forced in cases():
        for f in enumerate_sset_maps(X, Y, forced):
            found += 1
            assert list(f.levels) == list(range(X.trunc + 1))
            assert all(list(f.levels[n]) == list(X.level(n)) for n in f.levels)
            assert f.levels == _chain_replayed(X, Y, f)
    assert found == count


def on_the_point(X):
    return constant_sset_presheaf(pt_site(), X)


def test_one_step_homotopies_connect_all_interval_endomaps():
    X = on_the_point(delta(1, trunc=2))
    maps = enumerate_sset_presheaf_maps(X, X)
    assert len(maps) == 3
    classes = presheaf_map_classes(cylinder_presheaf(X), maps)
    assert len(classes) == 1


def test_no_homotopy_between_distinct_constants_into_two_points():
    X = on_the_point(delta(0, trunc=2))
    Y = nerve_groupoid(trivial_groupoid((0,)), trunc=2)
    Y2 = on_the_point(disjoint_union({"l": Y, "r": Y}))
    maps = enumerate_sset_presheaf_maps(X, Y2)
    assert len(maps) == 2
    C = cylinder_presheaf(X)
    assert presheaf_homotopies(C, maps[0], maps[1]) == []
    assert len(presheaf_map_classes(C, maps)) == 2


def test_product_with_interval_supports_projection_homotopy():
    X = on_the_point(delta(1, trunc=2))
    maps = enumerate_sset_presheaf_maps(X, X)
    by_image = {(f.components["pt"][0][(0,)], f.components["pt"][0][(1,)]): f for f in maps}
    c0 = by_image[((0,), (0,))]
    c1 = by_image[((1,), (1,))]
    assert presheaf_homotopies(cylinder_presheaf(X), c0, c1) != []
