"""The chart search of the ``sgpd`` flavour against a whole-section
reference, and on a hom whose degeneracies relabel its cells.

``enumerate_sgd_presheaf_maps`` states each functor and naturality law
as one constraint per vertex-level cell.  The reference below is the
product-then-filter search it replaced: one constraint per section runs
``validate_sgd_functor`` on the whole component, and one per site
morphism checks naturality at every level.  Its components copy the
vertex-level values by id, so it agrees only where the degeneracies of
each hom keep the ids.
"""

import itertools

import pytest
from gpd_fixtures import bz_site, cone_site, flip_site, relabelled_z2_sgroup

from sgdtors.bundles import (
    SgdPresheafMap,
    cech_sgd_presheaf,
    enumerate_sgd_presheaf_maps,
    require_constant_enrichment,
    unit_sgd_presheaf,
)
from sgdtors.classify import classify
from sgdtors.fixtures import (
    cover_site,
    interval_presheaf,
    pt_site,
    s1_site,
    twocomp_presheaf,
    twocomp_sgd,
    z2_presheaf,
)
from sgdtors.groupoid import zmod
from sgdtors.presheaf import constant_sgd_presheaf
from sgdtors.search import Dependent, solve
from sgdtors.sgroupoid import SgdFunctor, constant_sgroup, sgd_functor, validate_sgd_functor
from sgdtors.site import star_cover


def _unnatural(P, Q, f, cU, cV):
    """Where the components cU, cV of a map P -> Q break naturality
    along f: V -> U, at every level."""
    problems = []
    FP, FQ, H = P.res[f], Q.res[f], P.values[P.site.cat.morphisms[f][1]]
    for a in H.objects:
        if cV.ob[FP.ob[a]] != FQ.ob[cU.ob[a]]:
            problems.append(f"object maps not natural along {f!r} at {a!r}")
    for (a, b), hom in H.homs.items():
        for n in range(H.trunc + 1):
            for c in hom.level(n):
                lhs = cV.on_hom(FP.ob[a], FP.ob[b], n, FP.on_hom(a, b, n, c))
                rhs = FQ.on_hom(cU.ob[a], cU.ob[b], n, cU.on_hom(a, b, n, c))
                if lhs != rhs:
                    problems.append(f"cells not natural along {f!r} at {(a, b)!r}")
    return problems


def reference_sgd_presheaf_maps(P, Q, bound=None):
    """The whole-section search: the same slots and domains, one
    ``validate_sgd_functor`` constraint per section and one
    ``_unnatural`` constraint per site morphism."""
    require_constant_enrichment(P, Q)
    site = P.site
    domains = {
        (U, a): tuple(Q.values[U].objects) for U in site.objects for a in P.values[U].objects
    }
    for U in site.objects:
        homs = Q.values[U].homs
        for (a, b), hom in P.values[U].homs.items():
            for c in hom.level(0):
                domains[(U, a, b, c)] = Dependent(
                    ((U, a), (U, b)), lambda x, y, homs=homs: homs[(x, y)].level(0)
                )
    scope = {U: tuple(key for key in domains if key[0] == U) for U in site.objects}

    def component(U, v):
        H = P.values[U]
        maps = {
            (a, b): {n: {c: v[(U, a, b, c)] for c in hom.level(n)} for n in range(H.trunc + 1)}
            for (a, b), hom in H.homs.items()
        }
        return SgdFunctor(H, Q.values[U], {a: v[(U, a)] for a in H.objects}, maps)

    def keyed(keys, pred):
        return keys, lambda *values: pred(dict(zip(keys, values)))

    constraints = [
        keyed(scope[U], lambda v, U=U: validate_sgd_functor(component(U, v)).ok)
        for U in site.objects
    ] + [
        keyed(
            scope[U] + scope[V],
            lambda v, f=f, U=U, V=V: not _unnatural(P, Q, f, component(U, v), component(V, v)),
        )
        for f, (V, U) in site.cat.morphisms.items()
    ]
    return [
        SgdPresheafMap(P, Q, {U: component(U, chosen) for U in site.objects})
        for chosen in solve(domains, constraints, bound=bound)
    ]


def _swapped_twocomp(trunc):
    """Two trivial components over the circle, swapped by the restriction
    along ('A', 'U'): a coefficient with no charts at all."""
    H = twocomp_sgd(trunc)
    Q = constant_sgd_presheaf(s1_site(), H)
    move = {"l": "r", "r": "l"}
    Q.res[("A", "U")] = sgd_functor(
        H, H, lambda a: (move[a[0]], a[1]), lambda a, b, n, c: (move[c[0]], c[1])
    )
    return Q


def _inverted_z3(trunc):
    """Constant Z/3 over B(Z/2), whose nontrivial endomorphism g1
    restricts by inversion."""
    H = constant_sgroup(zmod(3), trunc)
    Q = constant_sgd_presheaf(bz_site(2), H)
    Q.res["g1"] = sgd_functor(H, H, lambda a: a, lambda a, b, n, c: -c % 3)
    return Q


SITES = {
    "pt": pt_site,
    "s1": s1_site,
    "cover": cover_site,
    "cone": cone_site,
    "bz2": lambda: bz_site(2),
    "flip": flip_site,
}
COEFFICIENTS = {
    "z2": z2_presheaf,
    "interval": interval_presheaf,
    "twocomp": twocomp_presheaf,
    "z3": lambda site, trunc: constant_sgd_presheaf(site, constant_sgroup(zmod(3), trunc)),
}
SOURCES = {
    "cech": lambda site, trunc: cech_sgd_presheaf(site, star_cover(site), trunc),
    "unit": unit_sgd_presheaf,
}


def _tables(maps):
    """Each chart as its object maps and hom tables, section by section."""
    return [
        {U: (F.ob, F.maps) for U, F in u.components.items()} for u in maps
    ]


def _grid():
    """Coefficients by truncation: every site with every constant
    coefficient but Z/3 on the cone, where the reference alone takes
    half a second, and two coefficients whose restrictions are not
    identities."""
    for site, coeff in itertools.product(SITES, COEFFICIENTS):
        if (site, coeff) != ("cone", "z3"):
            yield lambda trunc, site=site, coeff=coeff: COEFFICIENTS[coeff](SITES[site](), trunc)
    yield _swapped_twocomp
    yield _inverted_z3


def test_charts_are_the_whole_section_reference_charts_in_order():
    counts = set()
    for coefficients, source, trunc in itertools.product(_grid(), SOURCES.values(), (2, 3)):
        Q = coefficients(trunc)
        P = source(Q.site, trunc)
        charts = enumerate_sgd_presheaf_maps(P, Q)
        assert _tables(charts) == _tables(reference_sgd_presheaf_maps(P, Q))
        counts.add(len(charts))
    assert {0, 1, 2, 3, 4} <= counts


def test_bound_stops_both_searches_at_one_product_with_one_message():
    # four object slots, one per circle object, over two components
    site = s1_site()
    P, Q = unit_sgd_presheaf(site, 2), twocomp_presheaf(site, 2)
    messages = []
    for search in (enumerate_sgd_presheaf_maps, reference_sgd_presheaf_maps):
        with pytest.raises(ValueError) as stopped:
            search(P, Q, bound=15)
        messages.append(str(stopped.value))
        assert len(search(P, Q, bound=16)) == 2
    assert messages == ["search needs 16 candidates, bound is 15"] * 2


# ---------------------------------------------------------------------------
# Constant Z/2 with its cells swapped at odd levels.


@pytest.mark.parametrize(
    "site_name, counts",
    [("pt", (1, 1, 1)), ("s1", (4, 2, 4)), ("cone", (2, 1, 2)), ("bz2", (2, 2, 2))],
)
def test_relabelled_z2_classifies_like_z2(site_name, counts):
    site = SITES[site_name]()
    relabelled = classify("sgpd", site, constant_sgd_presheaf(site, relabelled_z2_sgroup(3)), trunc=3)
    plain = classify("sgpd", site, z2_presheaf(site, 3), trunc=3)
    for result in (relabelled, plain):
        assert result["check"], result["check"].render()
        assert (result["family"], result["classes"], result["map_count"]) == counts
    assert relabelled["torsor_classes"] == plain["torsor_classes"]


@pytest.mark.parametrize("site_name", ["pt", "s1", "cone", "bz2"])
def test_relabelled_z2_charts_are_enriched_functors(site_name):
    site = SITES[site_name]()
    Q = constant_sgd_presheaf(site, relabelled_z2_sgroup(3))
    charts = enumerate_sgd_presheaf_maps(cech_sgd_presheaf(site, star_cover(site), 3), Q)
    assert charts
    for u in charts:
        for U, F in u.components.items():
            valid = validate_sgd_functor(F)
            assert valid, (U, valid.render())
