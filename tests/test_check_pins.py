"""The certificates of torsor checks that fail: one input for each step
at which a check stops, each pinned by the sha256 of its canonical
JSON, so a refactor of the checks keeps every failing verdict byte for
byte, as CHECK_PINS in test_cli.py does for passing ones."""

import hashlib

import pytest
from gpd_fixtures import (
    arrows_bundle,
    collapsed_bundle,
    swapped_identity_restriction,
    two_orbit_display,
)

from sgdtors.bundles import sgd_torsor_check, two_gpd_torsor_check
from sgdtors.cli import dumps
from sgdtors.fixtures import pt_site, s1_site
from sgdtors.groupoid import zmod
from sgdtors.presheaf import constant_group_presheaf, set_presheaf
from sgdtors.torsors import (
    action_torsor_check,
    bundle_torsor_check,
    group_action_torsor,
    group_torsor_check,
    trivial_group_torsor,
)


def _not_a_sheaf():
    # constant Z/2 over the circle whose U and V are covered by A and B,
    # which do not meet: different sections over A and B glue to none
    # over U
    return trivial_group_torsor(constant_group_presheaf(s1_site(object_covers=True), zmod(2)))


def _carrier(elements):
    return set_presheaf(pt_site(), lambda U: elements, lambda f, s: s)


def _point_group():
    return constant_group_presheaf(pt_site(), zmod(2))


INPUTS = {
    "group/not-a-sheaf": lambda: group_torsor_check(_not_a_sheaf()),
    "action/not-a-sheaf": lambda: action_torsor_check(_not_a_sheaf()),
    "group/not-free": lambda: group_torsor_check(
        group_action_torsor(_point_group(), _carrier(("*",)), lambda U, s, g: "*")
    ),
    "group/empty": lambda: group_torsor_check(
        group_action_torsor(_point_group(), _carrier(()), lambda U, s, g: s)
    ),
    "bundle/collapsed": lambda: bundle_torsor_check(collapsed_bundle()),
    "bundle/arrows": lambda: bundle_torsor_check(arrows_bundle()),
    "2gpd/two-orbits": lambda: two_gpd_torsor_check(*two_orbit_display()[1]),
    "sgpd/swapped-identity": lambda: sgd_torsor_check(swapped_identity_restriction()),
}

PINS = {
    "2gpd/two-orbits": "20f871eba86682af26eec55267514c4534b0d6acc037f312fc0e1121f397065e",
    "action/not-a-sheaf": "ae92c47e9ba53730496ff526e894bc6431c242efda95a9fe7071f5d41ea42226",
    "bundle/arrows": "b4d3ea491fcbd498f8c0f821873d6eadf6dd416ac90329cdff1c8abf2081bde3",
    "bundle/collapsed": "2126f51f49a1b5b58e1a341361732c4d3fcfabd2d26641df161e785656605c0e",
    "group/empty": "1d1af3d29741de5cc78440da2829a0e617d9c5f7e735721c1b57943dd3069f8b",
    "group/not-a-sheaf": "384c98512b5e2579ec77a3abd7a4fee0856965ad21f41cc82c10460f4a789728",
    "group/not-free": "a5689364e91f8bf387b4549ff8d0e8f0c2f74932e631ad39b024ddf844960e22",
    "sgpd/swapped-identity": "e8708d0bbb3067e11ae689b81d4babfb7819a9b0297a208dc66e907afb5c2f1b",
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_failing_torsor_check_is_pinned(name):
    check = INPUTS[name]()
    assert not check.ok
    assert hashlib.sha256(dumps(check.to_obj()).encode()).hexdigest() == PINS[name]
