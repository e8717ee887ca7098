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

import sgdtors

from sgdtors.classify import (
    _grouped,
    action_classifying_map,
    classify,
    constant_cocycle_map,
    cylinder_presheaf,
    db_presheaf_map,
    enumerate_sset_presheaf_maps,
    presheaf_homotopic,
    presheaf_homotopies,
    presheaf_map_classes,
    sgd_classifying_map,
    star_cover,
)
from sgdtors.bundles import cech_sgd_presheaf, enumerate_sgd_presheaf_maps
from sgdtors.fixtures import pt_site, s1_site, twocomp_presheaf, z2_presheaf
from sgdtors.groupoid import zmod
from sgdtors.presheaf import (
    constant_group_presheaf,
    validate_sset_presheaf,
    validate_sset_presheaf_map,
)
from sgdtors.sheaf import cech_resolution
from sgdtors.torsors import (
    bg_presheaf,
    enumerate_group_torsors,
    group_presheaf_as_groupoid,
    group_torsor_to_action,
    wbar_presheaf,
)


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
    classes = presheaf_map_classes(cylinder_presheaf(source), maps)
    split = sorted(sorted(pair(maps[i]) for i in members) for members in classes)
    assert split == [[(0, 0), (1, 1)], [(0, 1), (1, 0)]]


def test_homotopy_placement_is_consistent():
    site, G, cover, source, target = circle_setup()
    maps = enumerate_sset_presheaf_maps(source, target)
    C = cylinder_presheaf(source)
    classes = presheaf_map_classes(C, maps)
    assert [len(c) for c in classes] == [2, 2]
    for members in classes:
        assert presheaf_homotopic(C, maps[members[0]], maps[members[1]])
    assert not presheaf_homotopic(C, maps[classes[0][0]], maps[classes[1][0]])
    assert presheaf_homotopic(C, maps[0], maps[0])


def test_classify_builds_one_cylinder_for_every_homotopy_search(monkeypatch):
    calls = count_calls(monkeypatch, (cylinder_presheaf, presheaf_homotopies))
    site = s1_site()
    classify("group", site, constant_group_presheaf(site, zmod(2)), trunc=3)
    assert calls == {"cylinder_presheaf": 1, "presheaf_homotopies": 10}


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
        u = action_classifying_map(
            group_torsor_to_action(T), cover, 3, target=target
        )
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
    for u in us:
        m = db_presheaf_map(u)
        assert validate_sset_presheaf_map(m).ok
        kappa = sgd_classifying_map(u, cover)
        assert validate_sset_presheaf_map(kappa).ok


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
    kappas = [sgd_classifying_map(u, cover, target=target) for u in us]
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


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_import(name):
    tree = _module_tree(name)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_every_method_is_used():
    # a method is used when its name is read as an attribute somewhere
    # in src/ or tests/
    sources = [_module_tree(name) for name in MODULES]
    tests = os.path.dirname(os.path.abspath(__file__))
    trees = sources + [
        _parse(os.path.join(tests, name)) for name in os.listdir(tests) if name.endswith(".py")
    ]
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


def test_classes_come_in_root_order_not_least_member_order():
    # (0, 3) joins 3 under root 0, then (2, 3) hangs that class under
    # root 2, which sorts after the singleton {1}
    pairs = {(0, 3), (2, 3)}
    assert _grouped(4, lambda i, j: (i, j) in pairs) == [[1], [0, 2, 3]]

