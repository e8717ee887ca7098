import json

from sgdtors.cli import decode_site, dumps, encode_site
from sgdtors.fixtures import cover_site, pt_site, s1_site, torus_site
from sgdtors.site import (
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
    ok, problems = validate_cat(over.cat)
    assert ok, problems
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
