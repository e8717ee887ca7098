import json

import pytest
from gpd_fixtures import chain_site, cone_site

from sgdtors.cli import decode_site, dumps, encode_site
from sgdtors.fixtures import cover_site, pt_site, s1_site, torus_site
from sgdtors.report import InvariantError
from sgdtors.sset import idkey
from sgdtors.site import (
    FinCat,
    FinSite,
    comma_site,
    generated_sieve,
    maximal_sieve,
    min_sieves,
    pullback_sieve,
    validate_cat,
    validate_site,
)


def test_fixture_sites_are_coherent():
    for site in (pt_site(), s1_site(), s1_site(object_covers=True), cover_site(), torus_site()):
        report = validate_site(site)
        assert report.ok, report.render()


def test_hom_and_into_list_the_morphisms_in_idkey_order():
    # the scans over every morphism that the site's index replaced
    for site in (pt_site(), s1_site(), cover_site(), torus_site(), cone_site(), chain_site()):
        C = site.cat
        for b in C.objects:
            into = [f for f, (_, d) in C.morphisms.items() if d == b]
            assert C.into(b) == tuple(sorted(into, key=idkey))
            for a in C.objects:
                hom = [f for f, ends in C.morphisms.items() if ends == (a, b)]
                assert C.hom(a, b) == tuple(sorted(hom, key=idkey))
        assert C.into("no such object") == C.hom("no such object", C.objects[0]) == ()


def test_trivial_topology_has_maximal_sieves():
    site = s1_site()
    sieves = min_sieves(site)
    for U in site.objects:
        assert sieves[U] == maximal_sieve(site, U)
    assert sieves["U"] == frozenset({("U", "U"), ("A", "U"), ("B", "U")})


def test_listed_covers_generate_smaller_sieves():
    site = cover_site()
    sieves = min_sieves(site)
    assert sieves["T"] == frozenset({("W", "T")})
    assert sieves["W"] == frozenset({("W", "W")})


def test_object_covers_refine_the_circle_site():
    site = s1_site(object_covers=True)
    sieves = min_sieves(site)
    assert sieves["U"] == frozenset({("A", "U"), ("B", "U")})
    assert sieves["A"] == frozenset({("A", "A")})


def test_several_cover_families_of_one_object_meet():
    # the smallest covering sieve of U lies in the sieve of every family
    # listed for it: here it is neither the first family's nor the last's
    base = s1_site()
    families = [[("A", "U"), ("B", "U")], [("A", "U")], [("U", "U")]]
    site = FinSite(base.cat, {"U": families}, base.star_covers)
    sieves = min_sieves(site)
    assert sieves["U"] == frozenset({("A", "U")})
    assert sieves["V"] == maximal_sieve(site, "V")


def test_pullback_of_a_sieve():
    site = cover_site()
    sieve = min_sieves(site)["T"]
    assert pullback_sieve(site, sieve, ("W", "T")) == frozenset({("W", "W")})


def test_generated_sieve_is_closed_under_precomposition():
    site = s1_site(object_covers=True)
    sieve = generated_sieve(site, "U", [("A", "U")])
    assert sieve == frozenset({("A", "U")})


def test_comma_site_over_an_object():
    site = s1_site()
    over, forget = comma_site(site, "U")
    valid = validate_cat(over.cat)
    assert valid, valid.render()
    assert set(over.objects) == {("U", "U"), ("A", "U"), ("B", "U")}
    assert forget[("A", "U")] == "A"
    # the only maps over U go from the small objects into the identity
    assert len(over.cat.morphisms) == 5


def test_comma_site_inherits_covers():
    site = cover_site()
    over, forget = comma_site(site, "T")
    report = validate_site(over)
    assert report.ok, report.render()
    idT = ("T", "T")
    assert idT in over.covers
    sieves = min_sieves(over)
    assert len(sieves[idT]) == 1


def test_site_json_round_trip_is_stable():
    site = s1_site(object_covers=True)
    text = dumps(encode_site(site))
    again = dumps(encode_site(decode_site(json.loads(text))))
    assert again == text
    report = validate_site(decode_site(json.loads(text)))
    assert report.ok, report.render()


def test_deep_cover_chain_reaches_its_fixed_point():
    # each round of refinement moves the sieve of C0 one link down the
    # chain, so no fixed round count would reach the bottom of a longer one
    site = chain_site(6)
    assert min_sieves(site)["C0"] == {("C5", "C0")}
    assert min_sieves(site)["C3"] == {("C5", "C3")}
    report = validate_site(site)
    assert report.ok, report.render()


def test_refinement_that_cycles_is_a_broken_category():
    # composites that leave their sieve make refinement swing between
    # {x, y} and {y, z}, which no category can do
    morphisms = {m: ("a", "a") for m in "exyz"}
    comp = {
        ("x", "e"): "x", ("x", "x"): "y", ("x", "y"): "y", ("x", "z"): "x",
        ("y", "x"): "z", ("y", "y"): "y", ("y", "z"): "x",
        ("z", "y"): "x", ("z", "z"): "x",
    }
    site = FinSite(FinCat(("a",), morphisms, comp, {"a": "e"}), {"a": [["x"]]})
    with pytest.raises(InvariantError, match="fixed point"):
        min_sieves(site)
