"""Homotopies into groupoid nerves are natural transformations.

Every classifying object that ``classify`` builds is sectionwise a
groupoid nerve, where a map off the cylinder is a natural
transformation: one edge h(x): f(x) -> g(x) per source vertex.  The
cylinder search stays the reference: over every flavour's target, on
every fixture site, the vertex search finds as many transformations as
there are cylinder maps with the same ends, and each transformation
extends, in test code, to one of those cylinder maps.
"""

import itertools

import pytest
from gpd_fixtures import bz_site, cone_site, flip_site

from sgdtors.bundles import vertex_groupoid_presheaf
from sgdtors.classify import (
    FLAVOURS,
    _run,
    cylinder_presheaf,
    cylinder_search,
    enumerate_sset_presheaf_maps,
    presheaf_map_classes,
    transformation_search,
)
from sgdtors.fixtures import (
    interval_presheaf,
    pt_site,
    s1_site,
    torus_site,
    twocomp_presheaf,
    z2_presheaf,
)
from sgdtors.groupoid import symmetric_group, zmod
from sgdtors.kan import hypergroupoid_check
from sgdtors.presheaf import (
    constant_group_presheaf,
    constant_sgd_presheaf,
    sset_presheaf_map,
    validate_sset_presheaf_map,
)
from sgdtors.sgroupoid import constant_sgroup
from sgdtors.sheaf import cech_resolution
from sgdtors.site import star_cover
from sgdtors.torsors import (
    bg_presheaf,
    group_presheaf_as_groupoid,
    h1_cech_oracle,
    wbar_presheaf,
)

SITES = {
    "pt": pt_site,
    "s1": s1_site,
    "cone-P": lambda: cone_site("P"),
    "cone-0": lambda: cone_site("0"),
    "bz2": lambda: bz_site(2),
    "bz3": lambda: bz_site(3),
    "flip": flip_site,
}


def flavour_target(kind, site, F, trunc):
    """The classifying object that ``classify`` builds for the kind, with
    the constant group F as coefficients, read off the flavour table."""
    G = constant_group_presheaf(site, F)
    coefficients = {
        "group": G,
        "groupoid-action": group_presheaf_as_groupoid(G),
        "groupoid-bundle": group_presheaf_as_groupoid(G),
        "2gpd": F,
        "sgroup": constant_sgd_presheaf(site, constant_sgroup(F, trunc)),
        "sgpd": constant_sgd_presheaf(site, constant_sgroup(F, trunc)),
    }[kind]
    run = _run(kind, site, coefficients, trunc)
    run.family = [run.flavour.canonical(run)]
    return run.flavour.target(run)


def edge(X, n, x, i, j):
    """The edge of the n-simplex x from its vertex i to its vertex j."""
    for k in range(n, -1, -1):
        if k not in (i, j):
            x = X.faces[(n, k)][x]
            n -= 1
    return x


def spine(X, n, x):
    """Every edge of x, or x itself for a vertex: in a groupoid nerve a
    simplex is the string of its arrows, so its edges name it."""
    if n == 0:
        return (x,)
    return tuple(edge(X, n, x, i, j) for i, j in itertools.combinations(range(n + 1), 2))


def cylinder_map(f, g, h):
    """The map off ``cylinder_presheaf(f.source)`` that the transformation
    h gives: the simplex (x, t) goes to the target simplex whose edge from
    vertex i to vertex j is f's or g's on the edge of x between them when
    t_i = t_j, and h(x_j) f(e) when the edge crosses from end 0 to end 1."""
    Y, Z = f.source, f.target
    named = {
        id(T): [{spine(T, n, z): z for z in T.level(n)} for n in range(T.trunc + 1)]
        for T in Z.values.values()
    }
    composite = {
        id(T): {(T.faces[(2, 0)][z], T.faces[(2, 2)][z]): T.faces[(2, 1)][z] for z in T.level(2)}
        for T in Z.values.values()
    }

    def value(U, n, cell):
        x, t = cell
        X, T = Y.values[U], Z.values[U]
        fU, gU = f.components[U], g.components[U]
        if n == 0:
            return (fU if t == (0,) else gU)[0][x]
        edges = []
        for i, j in itertools.combinations(range(n + 1), 2):
            e = edge(X, n, x, i, j)
            if t[i] == t[j]:
                edges.append((fU if t[i] == 0 else gU)[1][e])
            else:
                edges.append(composite[id(T)][(h[(U, X.vertex(n, j, x))], fU[1][e])])
        return named[id(T)][n][tuple(edges)]

    return sset_presheaf_map(cylinder_presheaf(Y), Z, value)


def assert_transformations_are_the_cylinder_maps(Y, Z):
    """On every ordered pair of maps Y -> Z, the vertex search and the
    cylinder search agree, count alike, and each transformation extends
    to a cylinder map with ends f and g."""
    assert all(hypergroupoid_check(T, 1) for T in Z.values.values())
    maps = enumerate_sset_presheaf_maps(Y, Z)
    assert maps
    vertices, cylinder = transformation_search(Y, Z), cylinder_search(Y, Z)
    for f, g in itertools.product(maps, repeat=2):
        assert bool(vertices(f, g, 1)) == bool(cylinder(f, g, 1))
        transformations = vertices(f, g, None)
        assert len(transformations) == len(cylinder(f, g, None))
        for h in transformations:
            H = cylinder_map(f, g, h)
            checked = validate_sset_presheaf_map(H)
            assert checked, checked.render()
            for U, X in Y.values.items():
                for n in range(Y.trunc + 1):
                    for x in X.level(n):
                        assert H.components[U][n][(x, (0,) * (n + 1))] == f.components[U][n][x]
                        assert H.components[U][n][(x, (1,) * (n + 1))] == g.components[U][n][x]


@pytest.mark.parametrize("trunc", [2, 3])
@pytest.mark.parametrize("site_name", list(SITES))
@pytest.mark.parametrize("kind", list(FLAVOURS))
def test_transformations_are_the_cylinder_maps_over_every_fixture_site(kind, site_name, trunc):
    site = SITES[site_name]()
    Y = cech_resolution(site, star_cover(site), trunc)
    assert_transformations_are_the_cylinder_maps(Y, flavour_target(kind, site, zmod(2), trunc))


@pytest.mark.parametrize("kind", ["group", "2gpd", "sgpd"])
@pytest.mark.parametrize(
    "n, F", [(3, zmod(3)), (2, symmetric_group(3))], ids=["Z3-over-BZ3", "S3-over-BZ2"]
)
def test_transformations_are_the_cylinder_maps_over_bz(n, F, kind):
    # Hom(Z/3, Z/3) has three elements, so the pairs of maps differ; S3 is
    # not abelian, so only it tells h(y) f(e) from f(e) h(y)
    site = bz_site(n)
    Y = cech_resolution(site, star_cover(site), 2)
    assert_transformations_are_the_cylinder_maps(Y, flavour_target(kind, site, F, 2))


@pytest.mark.parametrize(
    "make_coefficients", [z2_presheaf, interval_presheaf, twocomp_presheaf],
    ids=["z2", "interval", "twocomp"],
)
@pytest.mark.parametrize("site_name", list(SITES))
def test_every_fixture_target_section_is_a_1_hypergroupoid(site_name, make_coefficients):
    site = SITES[site_name]()
    Q = make_coefficients(site, 3)
    for Z in (wbar_presheaf(Q), bg_presheaf(vertex_groupoid_presheaf(Q), 3)):
        for T in Z.values.values():
            check = hypergroupoid_check(T, 1)
            assert check, check.render()


def test_the_z2_torus_map_side_has_four_classes_of_eight():
    # the cylinder search took minutes here; the vertex search, well
    # under a second
    site = torus_site()
    G = constant_group_presheaf(site, zmod(2))
    Y = cech_resolution(site, star_cover(site), 2)
    maps = enumerate_sset_presheaf_maps(Y, bg_presheaf(group_presheaf_as_groupoid(G), 2))
    assert len(maps) == 32
    classes = presheaf_map_classes(maps)
    assert [len(members) for members in classes] == [8, 8, 8, 8]
    assert len(classes) == h1_cech_oracle(G) == 4
