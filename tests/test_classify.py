"""Classification runs: torsor classes against homotopy classes of
maps out of the covering resolution.

The by-hand oracle for the circle site splits the four strict cocycle
maps into two coboundary orbits; every flavour must reproduce that
two-class answer with an explicit bijective matching.
"""

import ast
import importlib
import os
import pkgutil

import pytest
from call_counts import count_calls
from gpd_fixtures import bz_site, cone_site, ez2_sgroup, flip_site, k2_maps
from hypothesis import given, settings
from hypothesis import strategies as st

import sgdtors

from sgdtors.classify import (
    _grouped,
    _strict_maps,
    action_classifying_map,
    classify,
    constant_cocycle_map,
    cylinder_presheaf,
    cylinder_search,
    enumerate_sset_presheaf_maps,
    homotopy_search,
    presheaf_homotopic,
    presheaf_homotopies,
    presheaf_map_classes,
    sgd_classifying_map,
)
from sgdtors.bundles import (
    cech_sgd_presheaf,
    enumerate_sgd_presheaf_maps,
    validate_sgd_diagram,
    vertex_groupoid_presheaf,
)
from sgdtors.fixtures import (
    interval_presheaf,
    pt_site,
    s1_site,
    twocomp_presheaf,
    z2_presheaf,
    z2_sgroup,
)
from sgdtors.groupoid import symmetric_group, zmod
from sgdtors.kan import enumerate_sset_maps
from sgdtors.presheaf import (
    constant_group_presheaf,
    constant_sgd_presheaf,
    sset_presheaf,
    terminal_sset_presheaf,
    validate_sset_presheaf,
    validate_sset_presheaf_map,
)
from sgdtors.search import Partition
from sgdtors.sgroupoid import constant_sgroup
from sgdtors.sheaf import cech_resolution
from sgdtors.site import star_cover, validate_site
from sgdtors.sset import build_sset, point
from sgdtors.torsors import (
    bg_presheaf,
    enumerate_group_torsors,
    group_presheaf_as_groupoid,
    group_torsor_maps,
    h1_cech_oracle,
    wbar_presheaf,
)
from sgdtors.wbar import wbar


def circle_setup(trunc=3):
    site = s1_site()
    G = constant_group_presheaf(site, zmod(2))
    cover = star_cover(site)
    source = cech_resolution(site, cover, trunc)
    target = bg_presheaf(group_presheaf_as_groupoid(G), trunc)
    return site, G, cover, source, target


def test_strict_maps_are_the_cocycle_pairs():
    # over the circle the two one-chart sections force their components,
    # so a strict map is a pair of transition choices; the four pairs
    # split into coboundary orbits {00, 11} and {01, 10} by hand
    site, G, cover, source, target = circle_setup()
    maps = enumerate_sset_presheaf_maps(source, target)
    assert len(maps) == 4

    def pair(u):
        out = []
        for U in ("A", "B"):
            cell = None
            for c in source.values[U].level(1):
                if c[0] != c[1]:
                    cell = c
                    break
            out.append(u.components[U][1][cell][1][0])
        return tuple(out)

    pairs = {pair(u) for u in maps}
    assert pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}
    classes = presheaf_map_classes(maps)
    split = sorted(sorted(pair(maps[i]) for i in members) for members in classes)
    assert split == [[(0, 0), (1, 1)], [(0, 1), (1, 0)]]


def test_homotopy_placement_is_consistent():
    site, G, cover, source, target = circle_setup()
    maps = enumerate_sset_presheaf_maps(source, target)
    search = homotopy_search(source, target)
    classes = presheaf_map_classes(maps)
    assert [len(c) for c in classes] == [2, 2]
    for members in classes:
        assert presheaf_homotopic(maps[members[0]], maps[members[1]], search)
    assert not presheaf_homotopic(maps[classes[0][0]], maps[classes[1][0]], search)
    assert presheaf_homotopic(maps[0], maps[0], search)


def test_classify_builds_one_cylinder_for_every_homotopy_search(monkeypatch):
    # into a groupoid nerve the homotopies are natural transformations,
    # so no cylinder is built; into K(Z/2, 2) one cylinder serves the
    # grouping, whose 4 maps over the circle form one class (H^2 = 0)
    calls = count_calls(monkeypatch, (cylinder_presheaf, presheaf_homotopies))
    site = s1_site()
    classify("group", site, constant_group_presheaf(site, zmod(2)), trunc=3)
    assert calls == {"presheaf_homotopies": 6}
    maps = k2_maps(zmod(2), site)
    assert len(maps) == 4
    assert presheaf_map_classes(maps) == [[0, 1, 2, 3]]
    assert calls == {"cylinder_presheaf": 1, "presheaf_homotopies": 9}


@pytest.mark.parametrize("F, trunc, searches", [(zmod(2), 3, 6), (zmod(3), 2, 24)],
                         ids=["Z2", "Z3"])
def test_classify_compiles_one_section_search_per_site_object(monkeypatch, F, trunc, searches):
    # into a groupoid nerve no section search is compiled; into K(F, 2)
    # the homotopy searches of one grouping share their compiled searches
    compiled = []
    real = sgdtors.classify.sset_map_search

    def counted(X, Y):
        compiled.append((X, Y))
        return real(X, Y)

    monkeypatch.setattr(sgdtors.classify, "sset_map_search", counted)
    calls = count_calls(monkeypatch, (presheaf_homotopies,))
    site = s1_site()
    classify("group", site, constant_group_presheaf(site, F), trunc=trunc)
    assert calls == {"presheaf_homotopies": searches}
    assert compiled == []
    maps = k2_maps(F, site)
    assert len(presheaf_map_classes(maps)) == 1
    assert calls == {"presheaf_homotopies": searches + len(maps) - 1}
    assert len(compiled) == len(site.objects) == 4


@pytest.mark.parametrize("site_of", [s1_site, flip_site], ids=["s1", "flip"])
@pytest.mark.parametrize("n", [2, 3])
def test_shared_section_searches_give_the_classes_of_fresh_ones(site_of, n):
    site = site_of()
    G = constant_group_presheaf(site, zmod(n))
    source = cech_resolution(site, star_cover(site), 2)
    target = bg_presheaf(group_presheaf_as_groupoid(G), 2)
    maps = enumerate_sset_presheaf_maps(source, target)
    # every homotopy search below the shared ones compiles its own
    # cylinder and section searches
    fresh = _grouped(len(maps), lambda i, j: presheaf_homotopic(
        maps[i], maps[j], cylinder_search(source, target)))
    assert presheaf_map_classes(maps) == fresh
    assert len(fresh) == h1_cech_oracle(G)
    shared = cylinder_search(source, target)
    for g in maps:
        assert presheaf_homotopies(maps[0], g, shared) == presheaf_homotopies(
            maps[0], g, cylinder_search(source, target))


def test_classify_asks_each_torsor_about_one_member_of_each_class(monkeypatch):
    # 81 torsors in three classes; asking every pair not yet in one class
    # made 2265 isomorphism searches
    calls = count_calls(monkeypatch, (group_torsor_maps,))
    site = s1_site()
    result = classify("group", site, constant_group_presheaf(site, zmod(3)), trunc=2)
    assert calls == {"group_torsor_maps": 159}
    assert [len(members) for members in result["torsor_classes"]] == [27, 27, 27]


def test_classify_builds_the_2gpd_cocycle_object_once(monkeypatch):
    calls = count_calls(monkeypatch, (wbar,))
    classify("2gpd", s1_site(), zmod(2), trunc=3)
    assert calls == {"wbar": 1}


def test_classify_validates_each_sgpd_representative_once(monkeypatch):
    calls = count_calls(monkeypatch, (validate_sgd_diagram,))
    site = s1_site()
    classify("sgpd", site, z2_presheaf(site, 3), trunc=3)
    assert calls == {"validate_sgd_diagram": 2}


def test_sgroup_classification_needs_a_constant_enrichment():
    # the vertex-level torsors stand for the actions only when every
    # level has the vertex cells
    site = s1_site()
    with pytest.raises(ValueError, match="constant hom enrichments"):
        classify("sgroup", site, constant_sgd_presheaf(site, ez2_sgroup(2)))


def test_cylinder_levels_count():
    site, G, cover, source, target = circle_setup()
    P = cylinder_presheaf(source)
    assert validate_sset_presheaf(P).ok
    for U in site.objects:
        for n in range(4):
            assert P.values[U].size(n) == source.values[U].size(n) * (n + 2)


def test_classifying_maps_land_among_the_enumerated_ones():
    site, G, cover, source, target = circle_setup()
    maps = enumerate_sset_presheaf_maps(source, target)
    tables = [u.components for u in maps]
    for T in enumerate_group_torsors(G):
        u = action_classifying_map(T, cover, source, target)
        assert u.components in tables


def test_classify_group_on_the_circle():
    site, G, _, _, _ = circle_setup()
    r = classify("group", site, G, trunc=3)
    assert r["classes"] == 2
    assert [len(c) for c in r["torsor_classes"]] == [8, 8]
    assert r["map_count"] == 4
    assert [len(c) for c in r["map_classes"]] == [2, 2]
    assert sorted(j for _, j in r["matching"]) == [0, 1]
    assert r["cocycle_classes"] == 2
    assert r["check"]


def test_classify_group_over_the_point():
    site = pt_site()
    G = constant_group_presheaf(site, zmod(2))
    r = classify("group", site, G, trunc=3)
    assert r["classes"] == 1
    assert r["map_count"] == 1
    assert r["matching"] == [(0, 0)]
    assert r["check"]


def test_all_six_kinds_give_the_same_two_classes():
    site = s1_site()
    G = constant_group_presheaf(site, zmod(2))
    GP = group_presheaf_as_groupoid(G)
    Q = z2_presheaf(site, 3)
    runs = [
        classify("group", site, G, trunc=3),
        classify("groupoid-action", site, GP, trunc=3),
        classify("groupoid-bundle", site, GP, trunc=3),
        classify("2gpd", site, zmod(2), trunc=3),
        classify("sgroup", site, Q),
        classify("sgpd", site, Q),
    ]
    for r in runs:
        assert r["classes"] == 2, r["kind"]
        assert len(r["map_classes"]) == 2, r["kind"]
        assert sorted(j for _, j in r["matching"]) == [0, 1], r["kind"]
        assert r["check"], r["kind"]
    assert [r["kind"] for r in runs] == [
        "group", "groupoid-action", "groupoid-bundle", "2gpd", "sgroup", "sgpd",
    ]


def _conjugacy_classes_of_homomorphisms(n, F):
    """|Hom(Z/n, F)/conjugation|: the classes of the elements x of F with
    x^n = e, each the image of the generator."""
    def power(x):
        y = F.e
        for _ in range(n):
            y = F.mul[(y, x)]
        return y

    roots = {x for x in F.elements if power(x) == F.e}
    return len({frozenset(F.mul[(F.mul[(g, x)], F.inv[g])] for g in F.elements) for x in roots})


@pytest.mark.parametrize(
    "n, F, classes",
    [(2, zmod(2), 2), (3, zmod(3), 3), (2, symmetric_group(3), 2)],
    ids=["Z2-over-BZ2", "Z3-over-BZ3", "S3-over-BZ2"],
)
def test_group_torsors_over_bz_are_homomorphisms_up_to_conjugacy(n, F, classes):
    # B(Z/n) has one object, whose endomorphisms form Z/n, and the trivial
    # topology, so a torsor is a homomorphism Z/n -> F up to conjugation
    # (Serre, Galois Cohomology, I 5); the oracle finds the class on the
    # self-overlap of the one cover object
    assert _conjugacy_classes_of_homomorphisms(n, F) == classes
    site = bz_site(n)
    G = constant_group_presheaf(site, F)
    assert h1_cech_oracle(G) == classes
    r = classify("group", site, G, trunc=2)
    assert r["classes"] == len(r["map_classes"]) == classes
    assert r["check"], r["check"].render()


def test_all_six_kinds_classify_bz2_as_the_oracle_does():
    # B(Z/2) is not a poset: its one object has the endomorphisms Z/2, so
    # each flavour meets the self-overlap of the one cover object, where
    # the oracle finds the nontrivial homomorphism Z/2 -> Z/2
    site = bz_site(2)
    G = constant_group_presheaf(site, zmod(2))
    GP = group_presheaf_as_groupoid(G)
    Q = constant_sgd_presheaf(site, z2_sgroup(3))
    oracle = h1_cech_oracle(G)
    assert oracle == 2
    for kind, coeff in (
        ("group", G),
        ("groupoid-action", GP),
        ("groupoid-bundle", GP),
        ("2gpd", zmod(2)),
        ("sgroup", Q),
        ("sgpd", Q),
    ):
        r = classify(kind, site, coeff, trunc=3)
        assert r["classes"] == len(r["map_classes"]) == oracle, kind
        assert sorted(j for _, j in r["matching"]) == [0, 1], kind
        assert r["check"], (kind, r["check"].render())


@pytest.mark.parametrize("n, classes", [(2, 2), (3, 1)])
def test_all_six_kinds_classify_a_two_object_non_poset_as_the_oracle_does(n, classes):
    # p maps into o twice, by a and by t a, so the loop t survives in the
    # groupoid completion and the count is Hom(Z/2, Z/n)
    site = flip_site()
    assert validate_site(site), validate_site(site).render()
    G = constant_group_presheaf(site, zmod(n))
    GP = group_presheaf_as_groupoid(G)
    Q = constant_sgd_presheaf(site, constant_sgroup(zmod(n), 3))
    assert h1_cech_oracle(G) == classes
    for kind, coeff in (
        ("group", G),
        ("groupoid-action", GP),
        ("groupoid-bundle", GP),
        ("2gpd", zmod(n)),
        ("sgroup", Q),
        ("sgpd", Q),
    ):
        r = classify(kind, site, coeff, trunc=3)
        assert r["classes"] == len(r["map_classes"]) == classes, kind
        assert r["check"], (kind, r["check"].render())


def test_all_six_kinds_classify_the_cone_as_the_oracle_does():
    # apex -> A -> U composes two non-identity morphisms, so of the 2^8
    # cochains only the 16 cocycles survive; the apex "0" sorts before
    # the circle's objects and "P" after them, so a family that keeps the
    # cocycle constraints of only one idkey order fails on one of them
    for apex in ("P", "0"):
        site = cone_site(apex)
        G = constant_group_presheaf(site, zmod(2))
        GP = group_presheaf_as_groupoid(G)
        Q = constant_sgd_presheaf(site, z2_sgroup(3))
        oracle = h1_cech_oracle(G)
        assert oracle == 1
        for kind, coeff in (
            ("group", G),
            ("groupoid-action", GP),
            ("groupoid-bundle", GP),
            ("2gpd", zmod(2)),
            ("sgroup", Q),
            ("sgpd", Q),
        ):
            r = classify(kind, site, coeff, trunc=3)
            assert r["classes"] == len(r["map_classes"]) == oracle, (apex, kind)
            assert r["family"] == (2 if kind == "sgpd" else 16), (apex, kind)
            assert r["check"], (apex, kind)


def test_classify_sgd_over_the_point_with_two_components():
    site = pt_site()
    r = classify("sgpd", site, twocomp_presheaf(site, 3))
    assert r["classes"] == 2
    assert r["family"] == 2
    assert [len(c) for c in r["map_classes"]] == [1, 1]
    assert sorted(j for _, j in r["matching"]) == [0, 1]
    assert r["check"]
    rendered = r["check"].render()
    assert "lands in its classified class" in rendered


@pytest.mark.parametrize("kind", ["groupoid-action", "groupoid-bundle", "sgpd"])
@pytest.mark.parametrize("make_site", [pt_site, s1_site], ids=["pt", "s1"])
@pytest.mark.parametrize(
    "make_coefficients, classes",
    [(twocomp_presheaf, 2), (interval_presheaf, 1)],
    ids=["twocomp", "interval"],
)
def test_two_object_coefficients_classify_by_their_components(
    make_coefficients, classes, make_site, kind
):
    # two objects per section: the anchor constraints of the isomorphism
    # search bind, and the count is the number of components
    site = make_site()
    Q = make_coefficients(site, 3)
    coefficients = Q if kind == "sgpd" else vertex_groupoid_presheaf(Q)
    r = classify(kind, site, coefficients, trunc=3)
    assert r["classes"] == len(r["map_classes"]) == classes
    assert sorted(j for _, j in r["matching"]) == list(range(classes))
    assert r["check"], r["check"].render()


def test_unknown_kind_is_rejected():
    site = pt_site()
    with pytest.raises(ValueError, match="kind"):
        classify("mystery", site, None)


def test_diagonal_nerve_of_an_enriched_map_validates():
    site = pt_site()
    Q = twocomp_presheaf(site, 3)
    cover = star_cover(site)
    P = cech_sgd_presheaf(site, cover, 3)
    us = enumerate_sgd_presheaf_maps(P, Q)
    assert len(us) == 2
    source, target = cech_resolution(site, cover, 3), wbar_presheaf(Q)
    for u in us:
        kappa = sgd_classifying_map(u, cover, source, target)
        assert validate_sset_presheaf_map(kappa).ok


def test_strict_maps_stop_at_the_first_section_without_maps():
    # the point has no map into the empty set over U and V, so there is
    # no presheaf map, and no section after U is enumerated
    site = s1_site()
    empty = build_sset(2, lambda n: (), lambda n, i, x: x, lambda n, j, x: x)
    Y = terminal_sset_presheaf(site, 2)
    Z = sset_presheaf(site, lambda U: empty if U in ("U", "V") else point(2), lambda f, n, x: x)
    assert validate_sset_presheaf(Z)
    asked = []

    def sections(U):
        asked.append(U)
        return enumerate_sset_maps(Y.values[U], Z.values[U])

    assert _strict_maps(Y, Z, sections) == []
    assert asked == ["U"]
    assert enumerate_sset_presheaf_maps(Y, Z) == []


def test_trivial_cocycle_map_sits_in_the_trivial_class():
    site = s1_site()
    Q = z2_presheaf(site, 3)
    cover = star_cover(site)
    source = cech_resolution(site, cover, 3)
    target = wbar_presheaf(Q)
    maps = enumerate_sset_presheaf_maps(source, target)
    assert len(maps) == 4
    triv = constant_cocycle_map(source, target, Q, "*")
    assert triv.components in [u.components for u in maps]
    P = cech_sgd_presheaf(site, cover, 3)
    us = enumerate_sgd_presheaf_maps(P, Q)
    kappas = [sgd_classifying_map(u, cover, source, target) for u in us]
    hits = [k for k in kappas if k.components == triv.components]
    assert len(hits) == 1


MODULES = [m.name for m in pkgutil.iter_modules(sgdtors.__path__)]


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def _module_tree(name):
    return _parse(importlib.import_module(f"sgdtors.{name}").__file__)


@pytest.mark.parametrize("name", MODULES)
def test_module_has_no_asserts(name):
    # python -O strips asserts, so runtime invariants here raise instead
    tree = _module_tree(name)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


def _unused_imports(tree):
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_import(name):
    assert _unused_imports(_module_tree(name)) == []


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_only_at_module_level(name):
    # no import cycle needs deferring, so every import is stated once, at the top
    lines = [
        node.lineno
        for function in ast.walk(_module_tree(name))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert lines == []


TESTS = os.path.dirname(os.path.abspath(__file__))
TEST_FILES = sorted(name for name in os.listdir(TESTS) if name.endswith(".py"))


@pytest.mark.parametrize("name", TEST_FILES)
def test_test_file_uses_every_import(name):
    assert _unused_imports(_parse(os.path.join(TESTS, name))) == []


# Top-level functions of src/ that no run of the command line, of
# classify or of a benchmark stage reaches, each with why it stays.
BUILDER = "builds or inspects test input"
VALIDATOR = "checks the laws of a structure built by hand in tests"
ORACLE = "independent reference that a test compares against"

KEPT = {
    "bisset._line": "used only by bisset.validate_bisset",
    "bisset.validate_bisset": VALIDATOR,
    "bundles.borel_to_quotient": "only check: a free action's Borel construction is its orbits",
    "bundles.comma_value_comparison": "only check: a torsor diagram's comma diagonal is its value",
    "bundles.orbit_tables": "used only by bundles.borel_to_quotient",
    "bundles.psi_sgroup": "only check of the map-to-torsor direction",
    "bundles.sgroup_free_action_check": "only check: translation and universal actions are free",
    "bundles.sgroup_quotient": "used only by bundles.borel_to_quotient",
    "bundles.translation_sgd": "used only by bundles.comma_value_comparison",
    "bundles.unit_sgd_presheaf": BUILDER,
    "bundles.w_quotient_presheaf_map": "used only by bundles.psi_sgroup",
    "bundles.wg_action": "only check: W over W-bar is the universal free action",
    "fixtures.cover_site": BUILDER,
    "fixtures.interval_presheaf": BUILDER,
    "fixtures.torus_site": BUILDER,
    "fixtures.twocomp_presheaf": BUILDER,
    "fixtures.z2_presheaf": BUILDER,
    "groupoid.symmetric_group": BUILDER,
    "groupoid.validate_2groupoid": VALIDATOR,
    "holim.constant_functor": BUILDER,
    "holim.holim_2gpd_oracle_check": ORACLE,
    "holim.point_functor": BUILDER,
    "loops._iterate_d0": ORACLE,
    "loops._leading_hom": ORACLE,
    "loops.enumerate_twistings": ORACLE,
    "loops.fill_degenerate_cells": ORACLE,
    "loops.rebuild_map": ORACLE,
    "loops.transpose_round_trip_check": ORACLE,
    "loops.transpose_to_tables": ORACLE,
    "loops.twisting_check": ORACLE,
    "presheaf.validate_group_presheaf": VALIDATOR,
    "presheaf.validate_sgd_presheaf": VALIDATOR,
    "presheaf.yoneda_sset_presheaf": BUILDER,
    "sgroupoid.nerve_sgroupoid": "only check: an enriched groupoid's nerve is bisimplicial",
    "sgroupoid.product_sgd": "only check: W-bar preserves products, with wbar.wbar_map",
    "sheaf.sheafify": BUILDER,
    "sset.boundary": BUILDER,
    "sset.circle": BUILDER,
    "sset.collapse_to_point": BUILDER,
    "sset.disjoint_union": BUILDER,
    "sset.horn": BUILDER,
    "sset.identity_map": BUILDER,
    "sset.is_bijective": BUILDER,
    "torsors.arrows_action_torsor": "only non-torsor input of the action and bundle torsor checks",
    "torsors.constant_groupoid_presheaf": BUILDER,
    "torsors.validate_groupoid_presheaf": VALIDATOR,
    "torsors.w_total_presheaf": "used only by bundles.wg_action",
    "wbar.wbar_map": "only check: W-bar preserves products, with sgroupoid.product_sgd",
}


def _stage_functions():
    """The "module.function" names that perfbench/tracing.py's STAGES wrap,
    read from its source: the third argument of every Stage."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tree = _parse(os.path.join(root, "perfbench", "tracing.py"))
    (stages,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["STAGES"]
    ]
    return [name.value for stage in stages.elts for name in stage.args[2].elts]


def test_every_function_is_reached_or_kept():
    # a top-level definition reaches every definition whose name it reads
    reads, functions, owners = {}, set(), {}
    for module in MODULES:
        for node in _module_tree(module).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                functions.add(f"{module}.{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            read = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            for name in names:
                reads[f"{module}.{name}"] = read
                owners.setdefault(name, []).append(f"{module}.{name}")
    todo = ["cli.main", "cli.HANDLERS", "classify.classify", "classify.FLAVOURS"]
    todo += _stage_functions()
    reached = set()
    while todo:
        qualified = todo.pop()
        if qualified not in reached:
            reached.add(qualified)
            todo.extend(q for name in reads[qualified] for q in owners.get(name, ()))
    assert sorted(functions - reached) == sorted(KEPT)


def test_every_method_is_used():
    # a method is used when its name is read as an attribute somewhere
    # in src/ or tests/
    sources = [_module_tree(name) for name in MODULES]
    trees = sources + [_parse(os.path.join(TESTS, name)) for name in TEST_FILES]
    read = {
        node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    defined = {
        f"{cls.name}.{fn.name}"
        for tree in sources
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")
    }
    assert sorted(m for m in defined if m.split(".")[1] not in read) == []


def _pairwise_closure(count, related):
    """The grouping asked of every pair i < j that union-find has not
    yet joined, kept as the reference for ``_grouped``."""
    classes = Partition(range(count))
    for i in range(count):
        for j in range(i + 1, count):
            if classes.find(i) != classes.find(j) and related(i, j):
                classes.join(i, j)
    return sorted(classes.classes(), key=lambda members: classes.find(members[0]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.lists(st.integers(0, n), min_size=n, max_size=n)))
def test_grouping_asks_one_member_of_each_class(labels):
    # an equivalence relation given by a labelling: i and j relate when
    # their labels agree
    count, asked = len(labels), []

    def related(i, j):
        asked.append((i, j))
        return labels[i] == labels[j]

    classes = _grouped(count, related)
    assert classes == _pairwise_closure(count, lambda i, j: labels[i] == labels[j])
    assert len(asked) <= count * len(classes)
    firsts = {members[0] for members in classes}
    assert all(i in firsts and i < j for i, j in asked)
