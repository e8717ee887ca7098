"""Mutation tests: corrupting one table entry makes the matching
validator fail, and its witness names the corrupted spot."""

import pytest

from sgdtors.bundles import twisted_two_gpd_action, validate_two_gpd_action
from sgdtors.fixtures import interval_sgd, s1_site
from sgdtors.groupoid import trivial_groupoid, validate_groupoid, zmod
from sgdtors.presheaf import (
    constant_group_presheaf,
    constant_sset_presheaf,
    set_presheaf,
    validate_set_presheaf,
    validate_sset_presheaf,
)
from sgdtors.sgroupoid import validate_sgroupoid
from sgdtors.sset import delta, identity_map, validate_sset, validate_sset_map
from sgdtors.torsors import enumerate_group_cochains


def sset_face():
    X = delta(2, trunc=3)
    X.faces[(2, 0)][(0, 1, 2)] = (0, 1)
    return validate_sset(X), "at dim 2 on (0, 1, 2)"


def sset_map_entry():
    f = identity_map(delta(1, trunc=2))
    f.levels[1][(0, 1)] = (0, 0)
    return validate_sset_map(f), "at dim 1 on (0, 1)"


def groupoid_composite():
    G = trivial_groupoid((0, 1))
    G.comp[((1, 0), (0, 1))] = (1, 1)
    return validate_groupoid(G), "composite of (1, 0) after (0, 1)"


def sgroupoid_composite():
    H = interval_sgd(2)
    H.comp[(0, 1, 0)][0][((1, 0), (0, 1))] = (1, 1)
    return validate_sgroupoid(H), "composite missing at (0, 1, 0) level 0"


def set_presheaf_restriction():
    site = s1_site()
    P = set_presheaf(site, lambda U: (0, 1), lambda f, s: s)
    P.res[site.cat.identities["U"]][0] = 1
    return validate_set_presheaf(P), "moves 0 at 'U'"


def sset_presheaf_restriction():
    Y = constant_sset_presheaf(s1_site(), delta(1, trunc=2))
    Y.res[("A", "U")][1][(0, 1)] = (0, 0)
    spot = "along ('A', 'U'): does not commute with d_0 at dim 1 on (0, 1)"
    return validate_sset_presheaf(Y), spot


def two_gpd_action_entry():
    site, F = s1_site(), zmod(2)
    (cochain, *_) = enumerate_group_cochains(constant_group_presheaf(site, F))
    A = twisted_two_gpd_action(site, F, cochain)
    del A.act1["U"][(1, 0)]
    return validate_two_gpd_action(A), "arrow 1 mistypes 0 over 'U'"


def two_gpd_restriction_missing():
    site = s1_site()
    A = twisted_two_gpd_action(site, zmod(2), {f: 0 for f in site.morphisms})
    del A.res[("U", "U")][0]
    return validate_two_gpd_action(A), "along ('U', 'U') misses 0"


def two_gpd_restriction_out_of_range():
    site = s1_site()
    A = twisted_two_gpd_action(site, zmod(2), {f: 0 for f in site.morphisms})
    A.res[("A", "U")][0] = "zz"
    return validate_two_gpd_action(A), "along ('A', 'U') moves the anchor of 0"


@pytest.mark.parametrize(
    "corrupt",
    [
        sset_face,
        sset_map_entry,
        groupoid_composite,
        sgroupoid_composite,
        set_presheaf_restriction,
        sset_presheaf_restriction,
        two_gpd_action_entry,
        two_gpd_restriction_missing,
        two_gpd_restriction_out_of_range,
    ],
    ids=lambda corrupt: corrupt.__name__,
)
def test_corrupted_entry_is_named_in_the_witness(corrupt):
    valid, spot = corrupt()
    assert not valid
    assert spot in valid.witness[0], valid.render()
