"""The ``sgpd`` flavour builds what its charts share once per run.

Charts from ``enumerate_sgd_presheaf_maps`` that agree at a site object
hold one component object there.  ``psi_sgd_family`` builds one comma
functor per component object and one restriction table per site
morphism and pair of components, and one ``sgd_diagram_search`` answers
every diagram-map question of a classification.  Each is checked here
against what a chart built alone, or a search compiled for one
question, gives; the references below are the per-chart construction and
the product search that the shared ones replaced.
"""

import itertools
import json
from functools import partial

import pytest
from call_counts import count_calls
from fresh_cli import run_fresh_cli
from gpd_fixtures import bz_site, cone_site, flip_site, relabelled_z2_sgroup

from sgdtors import cli
from sgdtors.bundles import (
    SgdDiagram,
    cech_sgd_presheaf,
    corepresented_diagram,
    enumerate_sgd_presheaf_maps,
    equivariant_square,
    psi_sgd,
    psi_sgd_family,
    sgd_diagram_maps,
    sgd_diagram_search,
)
from sgdtors.classify import classify
from sgdtors.fixtures import interval_presheaf, s1_site, z2_presheaf
from sgdtors.groupoid import zmod
from sgdtors.holim import comma_construction_functor, holim
from sgdtors.kan import enumerate_sset_maps
from sgdtors.presheaf import constant_sgd_presheaf, fixed_objects, natural_square
from sgdtors.search import solve
from sgdtors.sgroupoid import constant_sgroup, string_image
from sgdtors.site import star_cover
from sgdtors.sset import sset_map

SITES = {"circle": s1_site, "cone": cone_site, "bz2": lambda: bz_site(2), "flip": flip_site}
COEFFICIENTS = {
    "z2": z2_presheaf,
    "z3": lambda site, trunc: constant_sgd_presheaf(site, constant_sgroup(zmod(3), trunc)),
    "interval": interval_presheaf,
    "relabelled-z2": lambda site, trunc: constant_sgd_presheaf(site, relabelled_z2_sgroup(trunc)),
}
CASES = list(itertools.product(SITES, COEFFICIENTS))


def _charts(site_name, coefficients, trunc):
    site = SITES[site_name]()
    P = cech_sgd_presheaf(site, star_cover(site), trunc)
    return enumerate_sgd_presheaf_maps(P, COEFFICIENTS[coefficients](site, trunc))


def reference_psi_sgd(u):
    """The comma diagram of one chart, built alone: a comma functor per
    site object and a restriction table per site morphism."""
    Q = u.target
    functors = {U: comma_construction_functor(u.components[U]) for U in Q.site.objects}
    res = {}
    for f, (V, U) in Q.site.cat.morphisms.items():
        FP, FQ, ob = u.source.res[f], Q.res[f], u.components[U].ob

        def restrict(n, s, a, FP=FP, FQ=FQ, ob=ob):
            b0, g0, us = s
            return FP.ob[b0], FQ.on_hom(ob[b0], a, n, g0), string_image(FP, b0, us, n)

        res[f] = {
            a: sset_map(X, functors[V].values[FQ.ob[a]], partial(restrict, a=a)).levels
            for a, X in functors[U].values.items()
        }
    return SgdDiagram(Q, functors, res)


def reference_sgd_diagram_maps(D1, D2):
    """The product search over every simplicial map at each slot, with
    every equivariance and naturality square a constraint."""
    site = D1.coeff.site
    domains = {}
    for U in site.objects:
        for a in D1.coeff.values[U].objects:
            maps = enumerate_sset_maps(D1.functors[U].values[a], D2.functors[U].values[a])
            if not maps:
                return []
            domains[(U, a)] = maps
    constraints = [
        (((U, b), (U, a)), equivariant_square(D1.functors[U], D2.functors[U], a, b))
        for U in site.objects
        for a, b in D1.functors[U].action
    ] + [
        (
            ((U, a), (V, D1.coeff.res[f].ob[a])),
            natural_square(D1.functors[U].values[a], D1.res[f][a], D2.res[f][a]),
        )
        for f, (V, U) in site.cat.morphisms.items()
        for a in D1.coeff.values[U].objects
    ]
    return solve(domains, constraints)


@pytest.mark.parametrize("site_name, coefficients", CASES)
def test_charts_that_agree_at_an_object_hold_one_component(site_name, coefficients):
    charts = _charts(site_name, coefficients, 2)
    for u, v in itertools.product(charts, repeat=2):
        for U, F in u.components.items():
            assert (F is v.components[U]) == (F == v.components[U]), U


@pytest.mark.parametrize("site_name, coefficients", CASES)
def test_the_family_build_matches_each_chart_built_alone(site_name, coefficients):
    charts = _charts(site_name, coefficients, 2)
    family = psi_sgd_family(charts)
    assert len(family) == len(charts)
    for u, D in zip(charts, family):
        alone = reference_psi_sgd(u)
        assert D.coeff is u.target
        assert list(D.functors) == list(alone.functors)
        for U, X in D.functors.items():
            assert X.values == alone.functors[U].values, U
            assert X.action == alone.functors[U].action, U
        assert D.res == alone.res
        built = psi_sgd(u)
        assert built.functors == alone.functors and built.res == alone.res
    # one comma functor per component object, and one table per site
    # morphism and pair of components at its ends
    for (u, D), (v, E) in itertools.product(zip(charts, family), repeat=2):
        for U in D.functors:
            assert (D.functors[U] is E.functors[U]) == (u.components[U] is v.components[U])
        for f, (V, U) in u.target.site.cat.morphisms.items():
            same = u.components[U] is v.components[U] and u.components[V] is v.components[V]
            assert (D.res[f] is E.res[f]) == same, f


def _questions(site_name, coefficients, trunc):
    """The diagrams of a family and the corepresented diagram at each
    constant object, and the ordered pairs of them to ask about.  Over
    the circle and the cone, Z/3 has 9 and 3 charts whose comma values
    take about a quarter and a half of a second to search each, so there
    the pairs are those among the first two charts and the corepresented
    diagrams."""
    charts = _charts(site_name, coefficients, trunc)
    Q = charts[0].target
    fixed = fixed_objects(Q.values.values(), [F.ob for F in Q.res.values()])
    family = psi_sgd_family(charts)
    corepresented = [corepresented_diagram(Q, a) for a in fixed]
    diagrams = family + corepresented
    asked = family[:2] + corepresented if coefficients == "z3" and len(family) > 2 else diagrams
    return diagrams, list(itertools.product(asked, repeat=2))


@pytest.mark.parametrize("site_name, coefficients", CASES)
def test_the_compiled_search_answers_as_a_fresh_one(site_name, coefficients):
    diagrams, pairs = _questions(site_name, coefficients, 1)
    search = sgd_diagram_search()
    # every ordered pair runs through one search first, so its memos hold
    # every pair of values before the answers are compared
    answers = {(id(D1), id(D2)): search(D1, D2) for D1, D2 in itertools.product(diagrams, repeat=2)}
    for D1, D2 in pairs:
        fresh = sgd_diagram_maps(D1, D2)
        assert answers[(id(D1), id(D2))] == fresh
        assert search(D1, D2) == fresh
        if coefficients != "z3":
            assert reference_sgd_diagram_maps(D1, D2) == fresh


def test_the_compiled_search_keeps_the_bound_of_the_product_search():
    # the bound counts every simplicial map at each slot, before the
    # equivariance filter, as the product search counted them
    site = s1_site()
    Q = z2_presheaf(site, 2)
    P = cech_sgd_presheaf(site, star_cover(site), 2)
    D = psi_sgd_family(enumerate_sgd_presheaf_maps(P, Q))[0]
    sizes = [
        len(enumerate_sset_maps(X, X)) for U in site.objects for X in D.functors[U].values.values()
    ]
    total = 1
    for size in sizes:
        total *= size
    assert sgd_diagram_search(total)(D, D)
    with pytest.raises(ValueError, match=f"search needs {total} candidates, bound is {total - 1}"):
        sgd_diagram_search(total - 1)(D, D)
    with pytest.raises(ValueError, match=f"search needs {total} candidates, bound is {total - 1}"):
        sgd_diagram_maps(D, D, bound=total - 1)


def test_sgpd_z2_over_the_circle_builds_each_shared_part_once(monkeypatch):
    # 4 charts of 4 components each have 6 distinct components, and a
    # comma functor is one homotopy colimit per object; each class check
    # builds the 4 carriers of its representative.  Each pair of section
    # values is searched once for the whole run, 12 pairs where a search
    # per question made 24, and the map side enumerates 4 sections more
    calls = count_calls(monkeypatch, (comma_construction_functor, enumerate_sset_maps, holim))
    site = s1_site()
    report = classify("sgpd", site, z2_presheaf(site, 3))
    assert report["classes"] == 2 and report["check"]
    assert calls == {"comma_construction_functor": 6, "enumerate_sset_maps": 16, "holim": 14}


def _classify_argv(site, coefficients):
    return ["torsor", "classify", "--kind", "sgpd", "--bound", "2176782336", "--format", "json",
            "--site", site, coefficients]


def test_classifying_twice_in_one_process_gives_the_certificates_of_fresh_runs(
    tmp_path, capsys
):
    # Z/3 first, then Z/2: nothing built for the first run reaches the second
    paths = {}
    for name, H in (("z3", constant_sgroup(zmod(3), 2)), ("z2", constant_sgroup(zmod(2), 3))):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            fh.write(cli.dumps(cli.encode_sgd(H)) + "\n")
    site = str(tmp_path / "s1.json")
    with open(site, "w") as fh:
        fh.write(cli.dumps(cli.encode_site(s1_site())) + "\n")
    in_process = []
    for name in ("z3", "z2"):
        assert cli.main(_classify_argv(site, paths[name])) == 0
        in_process.append(capsys.readouterr().out)
    fresh = [
        run_fresh_cli(_classify_argv(site, paths[name]), capture_output=True, text=True).stdout
        for name in ("z3", "z2")
    ]
    assert in_process == fresh
    classes = [json.loads(out)["certificates"][0]["parameters"]["classes"] for out in fresh]
    assert classes == [3, 2]
