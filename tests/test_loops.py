from gpd_fixtures import one_object_one_cell_2groupoid
from sgdtors.groupoid import symmetric_group, trivial_groupoid, zmod
from sgdtors.kan import enumerate_sset_maps
from sgdtors.loops import (
    enumerate_twistings,
    rebuild_map,
    transpose_round_trip_check,
    transpose_to_tables,
    twisting_check,
)
from sgdtors.sgroupoid import b_2groupoid, constant_sgroup, constant_sgroupoid
from sgdtors.sset import boundary, delta
from sgdtors.wbar import wbar


def test_point_maps_correspond_to_objects():
    C = constant_sgroupoid(trivial_groupoid((0, 1, 2)), trunc=2)
    tables = enumerate_twistings(delta(0, trunc=2), C)
    assert len(tables) == 3


def test_edge_maps_correspond_to_degree_zero_cells():
    C = constant_sgroup(zmod(2), trunc=2)
    tables = enumerate_twistings(delta(1, trunc=2), C)
    assert len(tables) == 2
    C2 = constant_sgroupoid(trivial_groupoid((0, 1)), trunc=2)
    assert len(enumerate_twistings(delta(1, trunc=2), C2)) == 4


def test_two_point_maps_correspond_to_object_pairs():
    C = constant_sgroupoid(trivial_groupoid((0, 1)), trunc=2)
    tables = enumerate_twistings(boundary(1, trunc=2), C)
    assert len(tables) == 4


def test_validity_prunes_triangle_tables():
    C = constant_sgroup(symmetric_group(3), trunc=2)
    X = delta(2, trunc=2)
    tables = enumerate_twistings(X, C)
    # candidate tables: 6 per edge and 6 for the triangle; only strings
    # of two composable cells survive
    assert len(tables) == 36
    maps = enumerate_sset_maps(X, wbar(C))
    assert len(maps) == 36


def test_round_trips_are_mutually_inverse():
    fixtures = [
        (delta(0, trunc=2), constant_sgroupoid(trivial_groupoid((0, 1)), trunc=2)),
        (delta(1, trunc=2), constant_sgroup(zmod(2), trunc=2)),
        (boundary(1, trunc=2), constant_sgroupoid(trivial_groupoid((0, 1)), trunc=2)),
        (delta(1, trunc=2), b_2groupoid(one_object_one_cell_2groupoid(zmod(2)), trunc=2)),
    ]
    for X, C in fixtures:
        report = transpose_round_trip_check(X, C)
        assert report.ok, report.render()


def test_rejected_tables_are_reported():
    C = constant_sgroup(symmetric_group(3), trunc=2)
    X = delta(2, trunc=2)
    v = {x: "*" for x in X.level(0)}
    a, b = (1, 0, 2), (0, 2, 1)
    phi = {
        (1, (0, 1)): a,
        (1, (1, 2)): b,
        (1, (0, 2)): a,  # not the composite of the other two
        (2, (0, 1, 2)): C.identity_at("*", 1),
    }
    from sgdtors.loops import fill_degenerate_cells

    report = twisting_check(X, C, v, fill_degenerate_cells(X, C, v, phi))
    assert not report.ok


def test_a_corrupted_degenerate_leading_cell_fails_the_twisting_check():
    # rebuild_map runs its formula on every simplex, so the check covers
    # every cell of phi: here the cell at s_0 of the edge 01, swapped for
    # another cell of the same hom, so the tables stay correctly typed
    C = constant_sgroup(symmetric_group(3), trunc=2)
    X = delta(2, trunc=2)
    v, phi = transpose_to_tables(enumerate_sset_maps(X, wbar(C))[0])
    assert twisting_check(X, C, v, phi)
    key = (2, X.degen(1, 0, (0, 1)))
    phi[key] = next(c for c in C.homs[("*", "*")].level(1) if c != phi[key])
    report = twisting_check(X, C, v, phi)
    assert [part.claim for part in report.parts if not part] == ["rebuilt map is simplicial"]


def test_tables_recover_known_maps():
    C = constant_sgroup(zmod(2), trunc=2)
    W = wbar(C)
    for f in enumerate_sset_maps(delta(1, trunc=2), W):
        v, phi = transpose_to_tables(f)
        assert rebuild_map(f.source, C, v, phi, W) == f
