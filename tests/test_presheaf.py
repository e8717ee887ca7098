from sgdtors.fixtures import (
    interval_presheaf,
    s1_site,
    twocomp_presheaf,
    z2_presheaf,
)
from sgdtors.groupoid import zmod
from sgdtors.presheaf import (
    constant_group_presheaf,
    enumerate_presheaf_maps,
    product_set_presheaf,
    set_presheaf_map,
    terminal_presheaf,
    validate_group_presheaf,
    validate_set_presheaf,
    validate_set_presheaf_map,
    validate_sgd_presheaf,
    yoneda,
)


def test_standard_set_presheaves_validate():
    site = s1_site()
    for P in (
        terminal_presheaf(site),
        yoneda(site, "U"),
        product_set_presheaf(yoneda(site, "U"), yoneda(site, "V")),
    ):
        valid = validate_set_presheaf(P)
        assert valid, valid.render()


def test_represented_sections_are_morphisms():
    site = s1_site()
    P = yoneda(site, "U")
    assert P.values["U"] == (("U", "U"),)
    assert P.values["A"] == (("A", "U"),)
    assert P.values["V"] == ()


def test_natural_maps_between_representables_follow_morphisms():
    site = s1_site()
    maps = enumerate_presheaf_maps(yoneda(site, "A"), yoneda(site, "U"))
    assert len(maps) == 1
    assert len(enumerate_presheaf_maps(yoneda(site, "U"), yoneda(site, "A"))) == 0
    assert len(enumerate_presheaf_maps(yoneda(site, "U"), terminal_presheaf(site))) == 1


def test_presheaf_map_validation_sees_naturality():
    site = s1_site()
    P = yoneda(site, "U")
    T = terminal_presheaf(site)
    phi = set_presheaf_map(P, T, lambda U, s: "*")
    valid = validate_set_presheaf_map(phi)
    assert valid, valid.render()


def test_constant_group_presheaf_validates():
    site = s1_site()
    G = constant_group_presheaf(site, zmod(2))
    valid = validate_group_presheaf(G)
    assert valid, valid.render()


def test_sections_over_terminal_are_one_copy_of_the_group():
    site = s1_site()
    G = constant_group_presheaf(site, zmod(2))
    assert len(enumerate_presheaf_maps(terminal_presheaf(site), G.underlying())) == 2


def test_sections_over_overlap_split_into_components():
    # the product of the two big representables has two disconnected
    # pieces of elements, one per small object
    site = s1_site()
    G = constant_group_presheaf(site, zmod(2))
    overlap = product_set_presheaf(yoneda(site, "U"), yoneda(site, "V"))
    assert len(enumerate_presheaf_maps(overlap, G.underlying())) == 4


def test_constant_enriched_presheaves_validate():
    site = s1_site()
    for Q in (
        z2_presheaf(site, 2),
        interval_presheaf(site, 2),
        twocomp_presheaf(site, 2),
    ):
        valid = validate_sgd_presheaf(Q)
        assert valid, valid.render()
