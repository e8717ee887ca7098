import itertools

import pytest
from call_counts import count_calls
from gpd_fixtures import chain_site, cone_site

from sgdtors.bundles import vertex_groupoid_presheaf
from sgdtors.fixtures import cover_site, pt_site, s1_site, torus_site, twocomp_presheaf
from sgdtors.groupoid import group_as_groupoid, nerve_groupoid, zmod
from sgdtors.kan import kan_check
from sgdtors.presheaf import (
    constant_sset_presheaf,
    set_presheaf,
    set_presheaf_map,
    sset_presheaf_map,
    terminal_presheaf,
    terminal_sset_presheaf,
    validate_set_presheaf,
    validate_sset_presheaf,
    yoneda,
    yoneda_sset_presheaf,
)
from sgdtors.sheaf import (
    cech_local_epi_check,
    cech_resolution,
    is_sheaf,
    local_epi_check,
    local_weq_check,
    matching_families,
    pi0_presheaf,
    plus_unit,
    sheafify,
)
from sgdtors.site import min_sieves
from sgdtors.sset import delta, idkey
from sgdtors.torsors import arrows_presheaf, objects_presheaf


def constant_set_presheaf(site, elems):
    return set_presheaf(site, lambda U: elems, lambda f, s: s)


def test_trivial_topology_plus_changes_nothing():
    site = s1_site()
    P = yoneda(site, "U")
    unit = plus_unit(P)
    for U in site.objects:
        vals = unit.components[U]
        assert len(set(vals.values())) == len(P.values[U]) == len(unit.target.values[U])


def test_representables_of_small_objects_are_sheaves():
    # y(A) and y(B) glue: over U or V both the hom set and the matching
    # families are empty.  y(U) fails over V: the family (A -> U, B -> U)
    # has no amalgamation in the empty hom(V, U).
    site = s1_site(object_covers=True)
    for X in ("A", "B"):
        assert is_sheaf(yoneda(site, X))
    for X in ("U", "V"):
        assert not is_sheaf(yoneda(site, X))


def test_constant_presheaf_is_separated_but_not_a_sheaf():
    site = s1_site(object_covers=True)
    P = constant_set_presheaf(site, (0, 1))
    unit = plus_unit(P)
    assert all(len(set(unit.components[U].values())) == len(P.values[U]) for U in site.objects)
    assert not is_sheaf(P)
    S = sheafify(P)
    assert len(S.values["U"]) == 4
    assert len(S.values["A"]) == 2
    valid = validate_set_presheaf(S)
    assert valid, valid.render()
    SS = plus_unit(S)
    assert all(
        len(set(SS.components[U].values())) == len(S.values[U]) == len(SS.target.values[U])
        for U in site.objects
    )


def test_matching_families_respect_compatibility():
    site = cover_site()
    P = yoneda(site, "W")
    sieves = min_sieves(site)
    fams = matching_families(P, sieves["T"])
    assert len(fams) == 1
    assert len(P.values["T"]) == 0


SIEVE_SITES = {
    "pt": pt_site,
    "s1": s1_site,
    "s1-object-covers": lambda: s1_site(object_covers=True),
    "cover": cover_site,
    "torus": torus_site,
    "chain": lambda: chain_site(6),
    "cone": cone_site,
}


def filtered_product_families(P, sieve):
    """Reference: every choice of a section over each sieve member's
    source, kept when m_{f . h} is the restriction of m_f along each h."""
    C = P.site.cat
    order = sorted(sieve, key=idkey)
    families = []
    for values in itertools.product(*(P.values[C.src(f)] for f in order)):
        m = dict(zip(order, values))
        if all(P.res[h][m[f]] == m[C.comp[(f, h)]] for f in order for h in C.into(C.src(f))):
            families.append(tuple(zip(order, values)))
    return families


@pytest.mark.parametrize("name", sorted(SIEVE_SITES))
def test_matching_families_equal_the_filtered_product(name):
    site = SIEVE_SITES[name]()
    GP = vertex_groupoid_presheaf(twocomp_presheaf(site, 2))
    presheaves = [terminal_presheaf(site), objects_presheaf(GP), arrows_presheaf(GP)]
    presheaves += [yoneda(site, X) for X in site.objects]
    for P in presheaves:
        for U, sieve in min_sieves(site).items():
            families = matching_families(P, sieve)
            assert len(set(families)) == len(families)
            assert set(families) == set(filtered_product_families(P, sieve)), (U, P.values)


def test_sheafifying_a_representable_fills_in_covered_sections():
    site = cover_site()
    P = yoneda(site, "W")
    S = sheafify(P)
    assert len(S.values["T"]) == 1
    assert len(S.values["W"]) == 1


def test_local_epi_onto_the_point_is_weaker_than_surjective():
    site = cover_site()
    P = yoneda(site, "W")
    T = terminal_presheaf(site)
    phi = set_presheaf_map(P, T, lambda U, s: "*")
    assert len(P.values["T"]) == 0  # not sectionwise surjective
    report = local_epi_check(phi)
    assert report.ok, report.render()


def test_local_epi_fails_without_a_cover():
    site = s1_site()
    P = yoneda(site, "U")
    T = terminal_presheaf(site)
    phi = set_presheaf_map(P, T, lambda U, s: "*")
    report = local_epi_check(phi)
    assert not report.ok


def test_cech_sections_count_cover_elements():
    site = s1_site()
    C = cech_resolution(site, {"object": None, "family": ["U", "V"]}, trunc=3)
    valid = validate_sset_presheaf(C)
    assert valid, valid.render()
    assert C.values["U"].size(0) == 1
    assert C.values["A"].size(0) == 2
    assert C.values["A"].size(1) == 4
    for U in site.objects:
        assert len(pi0_presheaf(C).values[U]) == 1
    report = cech_local_epi_check(site, {"object": None, "family": ["U", "V"]})
    assert report.ok, report.render()


def test_based_cech_sections_over_the_base_can_be_empty():
    site = cover_site()
    C = cech_resolution(site, {"object": "T", "family": [("W", "T")]}, trunc=2)
    valid = validate_sset_presheaf(C)
    assert valid, valid.render()
    assert C.values["T"].size(0) == 0
    assert C.values["W"].size(0) == 1


def test_identity_is_a_local_weak_equivalence():
    site = s1_site()
    X = constant_sset_presheaf(site, nerve_groupoid(group_as_groupoid(zmod(2)), 4))
    phi = sset_presheaf_map(X, X, lambda U, n, x: x)
    report = local_weq_check(phi)
    assert report.ok, report.render()


def test_collapsing_loops_is_not_a_local_weak_equivalence():
    site = s1_site()
    X = constant_sset_presheaf(site, nerve_groupoid(group_as_groupoid(zmod(2)), 4))
    T = terminal_sset_presheaf(site, 4)
    phi = sset_presheaf_map(
        X, T, lambda U, n, x: T.values[U].level(n)[0]
    )
    report = local_weq_check(phi)
    assert not report.ok


def test_local_weq_checks_each_distinct_section_for_horns_once(monkeypatch):
    site = s1_site()
    X = constant_sset_presheaf(site, nerve_groupoid(group_as_groupoid(zmod(2)), 4))
    T = terminal_sset_presheaf(site, 4)
    calls = count_calls(monkeypatch, (kan_check,))
    assert local_weq_check(sset_presheaf_map(X, X, lambda U, n, x: x))
    assert calls == {"kan_check": 1}
    calls.clear()
    assert not local_weq_check(
        sset_presheaf_map(X, T, lambda U, n, x: T.values[U].level(n)[0])
    )
    assert calls == {"kan_check": 2}


def test_local_weq_names_the_first_object_whose_sections_are_not_fibrant():
    site = s1_site()
    I = constant_sset_presheaf(site, delta(1, trunc=4))
    T = terminal_sset_presheaf(site, 4)
    report = local_weq_check(sset_presheaf_map(T, I, lambda U, n, x: (0,) * (n + 1)))
    assert not report.ok
    assert report.parts[-1].claim == f"target sections over {site.objects[0]!r} are fibrant"
    assert report.parts[-1].witness == kan_check(delta(1, trunc=4), 3).witness


def test_cech_augmentation_is_local_but_not_sectionwise_trivial():
    site = cover_site()
    cover = {"object": "T", "family": [("W", "T")]}
    C = cech_resolution(site, cover, trunc=4)
    Y = yoneda_sset_presheaf(site, "T", trunc=4)
    phi = sset_presheaf_map(C, Y, lambda U, n, t: ("W", "T") if U == "W" else None)
    report = local_weq_check(phi)
    assert report.ok, report.render()
    # sectionwise it fails: no sections over the base at all
    assert C.values["T"].size(0) != Y.values["T"].size(0)
