"""Mutation tests: corrupting one table entry makes the matching
validator fail, and its witness names the corrupted spot; dropping the
constraints of a shared search or a map from the enumeration,
splitting the classes of the grouping, forcing homotopy ends on the
vertices alone, or dropping a natural transformation's squares or its
naturality makes a classification fail; sharing bundle sections by
a key that holds too little makes the family's bundles differ from the
reference."""

import dataclasses
import operator

import pytest
import test_torsors
from gpd_fixtures import bz_site, cone_site, k2_maps, swapped_identity_restriction
from ordinals import cocycle_action, coface

from sgdtors import classify as classify_module
from sgdtors import cli, torsors
from sgdtors.bisset import validate_bisset
from sgdtors.bundles import (
    corepresented_diagram,
    sgd_torsor_check,
    validate_sgd_diagram,
    validate_sgroup_action,
    vertex_groupoid_presheaf,
)
from sgdtors.classify import classify
from sgdtors.fixtures import (
    interval_presheaf,
    interval_sgd,
    pt_site,
    s1_site,
    twocomp_presheaf,
    z2_presheaf,
    z2_sgroup,
)
from sgdtors.groupoid import symmetric_group, trivial_groupoid, validate_groupoid, zmod
from sgdtors.holim import corepresented_functor, validate_simplicial_functor
from sgdtors.join import alpha_beta, alpha_beta_check
from sgdtors.kan import kan_check
from sgdtors.presheaf import (
    constant_group_presheaf,
    constant_sgd_presheaf,
    constant_sset_presheaf,
    set_presheaf,
    validate_set_presheaf,
    validate_sgd_presheaf,
    validate_sset_presheaf,
)
from sgdtors.sgroupoid import (
    constant_sgroup,
    identity_functor,
    nerve_sgroupoid,
    validate_sgd_functor,
    validate_sgroupoid,
)
from sgdtors.search import solve
from sgdtors.site import validate_cat
from sgdtors.sset import delta, identity_map, idkey, validate_sset, validate_sset_map
from sgdtors.torsors import (
    arrows_action_torsor,
    cochain_torsor,
    constant_groupoid_presheaf,
    enumerate_group_cochains,
    trivial_group_torsor,
    validate_action_torsor,
)
from sgdtors.wbar import wbar


def sset_face():
    X = delta(2, trunc=3)
    X.faces[(2, 0)][(0, 1, 2)] = (0, 1)
    return validate_sset(X), "at dim 2 on (0, 1, 2)"


def sset_map_entry():
    f = identity_map(delta(1, trunc=2))
    f.levels[1][(0, 1)] = (0, 0)
    return validate_sset_map(f), "at dim 1 on (0, 1)"


def sset_map_stray_entry():
    f = identity_map(delta(1, trunc=2))
    f.levels[0]["stray"] = "stray"
    return validate_sset_map(f), "value at dim 0 for 'stray', not a simplex"


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


def _z2_circle_torsor():
    return trivial_group_torsor(constant_group_presheaf(s1_site(), zmod(2)))


def two_gpd_action_entry():
    G = constant_group_presheaf(s1_site(), zmod(2))
    (cochain, *_) = enumerate_group_cochains(G)
    T = cochain_torsor(G, cochain)
    del T.action["U"][(0, 1)]
    return validate_action_torsor(T), "over 'U' has the wrong anchored domain: missing (0, 1)"


def group_action_unit_entry():
    G = constant_group_presheaf(s1_site(), zmod(2))
    (cochain, *_) = enumerate_group_cochains(G)
    T = cochain_torsor(G, cochain)
    T.action["U"][(1, 0)] = 0
    return validate_action_torsor(T), "unit law fails over 'U' at (1, 0)"


def group_action_value_off_the_carrier():
    # the law loops look up the action on an action value, so this one
    # must be reported before they run
    G = constant_group_presheaf(s1_site(), zmod(2))
    (cochain, *_) = enumerate_group_cochains(G)
    T = cochain_torsor(G, cochain)
    T.action["U"][(0, 1)] = "zz"
    return validate_action_torsor(T), "action mistyped over 'U' at (0, 1)"


def group_action_anchor_missing():
    T = _z2_circle_torsor()
    del T.anchor["U"][1]
    return validate_action_torsor(T), "anchor missing over 'U' for 1"


def two_gpd_restriction_missing():
    T = _z2_circle_torsor()
    del T.total.res[("U", "U")][0]
    return validate_action_torsor(T), "restriction along ('U', 'U') mistyped at 0"


def two_gpd_restriction_out_of_range():
    T = _z2_circle_torsor()
    T.total.res[("A", "U")][0] = "zz"
    return validate_action_torsor(T), "restriction along ('A', 'U') mistyped at 0"


def action_anchor_not_natural():
    # over the circle no two non-identity morphisms compose, so moving one
    # restriction entry to an arrow with the other end keeps the total a
    # presheaf and every section's tables valid
    T = arrows_action_torsor(constant_groupoid_presheaf(s1_site(), trivial_groupoid((0, 1))))
    T.total.res[("A", "U")][(0, 0)] = (0, 1)
    return validate_action_torsor(T), "anchor not natural along ('A', 'U') at (0, 0)"


def action_not_natural():
    # every element is anchored at the one object, so the anchors stay
    # natural when a restriction collapses both elements
    T = _z2_circle_torsor()
    T.total.res[("A", "U")] = {0: 0, 1: 0}
    return validate_action_torsor(T), "action not natural along ('A', 'U') at (0, 1)"


def two_gpd_action_stray_entry():
    T = _z2_circle_torsor()
    T.action["U"][("zz", 1)] = 0
    return validate_action_torsor(T), "over 'U' has the wrong anchored domain: stray ('zz', 1)"


def sgroupoid_level_one_composite():
    H = interval_sgd(2)
    H.comp[(0, 1, 0)][1][((1, 0), (0, 1))] = (1, 1)
    return validate_sgroupoid(H), "composite missing at (0, 1, 0) level 1"


def sgroupoid_composition_breaks_a_face():
    H = z2_sgroup(2)
    H.comp[("*", "*", "*")][1][(1, 1)] = 1
    spot = "composition at ('*', '*', '*'): does not commute with d_0 at dim 1 on (1, 1)"
    return validate_sgroupoid(H), spot


def sgroupoid_cell_in_two_homs_out_of_one_object():
    H = interval_sgd(2)
    H.homs[(0, 1)] = H.homs[(0, 0)]
    return validate_sgroupoid(H), "cell (0, 0) at level 0 lies in hom(0,0) and hom(0,1)"


def sgroupoid_hom_truncation():
    H = interval_sgd(2)
    H.homs[(0, 1)] = interval_sgd(1).homs[(0, 1)]
    return validate_sgroupoid(H), "hom(0,1) is truncated at 1, not 2"


def simplicial_functor_action():
    X = corepresented_functor(interval_sgd(2), 0)
    X.action[(0, 1)][1][((0, 1), (0, 0))] = (0, 0)
    return validate_simplicial_functor(X), "action at (0, 1): value at dim 1 for ((0, 1), (0, 0))"


def sgd_functor_hom_map():
    F = identity_functor(z2_sgroup(2))
    F.maps[("*", "*")][1][1] = 0
    spot = "hom map at ('*', '*'): does not commute with d_0 at dim 1 on 1"
    return validate_sgd_functor(F), spot


def sgd_diagram_restriction():
    D = corepresented_diagram(z2_presheaf(s1_site(), 2), "*")
    D.res[("A", "U")]["*"][1][1] = 0
    spot = "along ('A', 'U') at '*': does not commute with d_0 at dim 1 on 1"
    return validate_sgd_diagram(D), spot


def sgd_diagram_not_equivariant():
    # a constant restriction of the discrete hom is simplicial and, with
    # no composable pair on the circle, natural; only the action breaks
    D = corepresented_diagram(z2_presheaf(s1_site(), 2), "*")
    D.res[("A", "U")]["*"] = {n: dict.fromkeys(tab, 0) for n, tab in D.res[("A", "U")]["*"].items()}
    return validate_sgd_diagram(D), "restriction along ('A', 'U') not equivariant at ('*', '*')"


def sgroup_action_on_several_objects():
    D = corepresented_diagram(interval_presheaf(s1_site(), 2), 0)
    return validate_sgroup_action(D), "coefficients over 'U' have several objects"


def sgd_diagram_identity_restriction():
    D = swapped_identity_restriction()
    return validate_sgd_diagram(D), "identity restriction moves ('*', 0) at 'U'"


def sgd_presheaf_identity_restriction():
    H = constant_sgroup(zmod(3), 1)
    Q = constant_sgd_presheaf(s1_site(), H)
    F = identity_functor(H)
    for cells in F.maps[("*", "*")].values():
        cells[1], cells[2] = 2, 1
    Q.res[Q.site.cat.identities["U"]] = F
    return validate_sgd_presheaf(Q), "identity restriction moves ('*', '*', 1) at 'U'"


def site_repeated_object():
    cat = pt_site().cat
    cat.objects = ("pt", "pt")
    return validate_cat(cat), "object 'pt' is repeated"


def sgroupoid_repeated_object():
    H = z2_sgroup(2)
    H.objects = ("*", "*")
    return validate_sgroupoid(H), "level 0: object '*' is repeated"


def groupoid_inverse_missing():
    G = trivial_groupoid((0, 1))
    del G.inverses[(0, 1)]
    return validate_groupoid(G), "inverse of (0, 1) missing"


def bisset_horizontal_face():
    B = nerve_sgroupoid(interval_sgd(1))
    B.hfaces[(1, 1, 0)][(0, ((0, 1),))] = (0, ())
    spot = "horizontal d_0 at column 1: does not commute with d_0 at dim 1 on (0, ((0, 1),))"
    return validate_bisset(B), spot


@pytest.mark.parametrize(
    "corrupt",
    [
        sset_face,
        sset_map_entry,
        sset_map_stray_entry,
        groupoid_composite,
        sgroupoid_composite,
        set_presheaf_restriction,
        sset_presheaf_restriction,
        two_gpd_action_entry,
        group_action_unit_entry,
        group_action_value_off_the_carrier,
        group_action_anchor_missing,
        two_gpd_restriction_missing,
        two_gpd_restriction_out_of_range,
        two_gpd_action_stray_entry,
        action_anchor_not_natural,
        action_not_natural,
        sgroupoid_level_one_composite,
        sgroupoid_composition_breaks_a_face,
        sgroupoid_cell_in_two_homs_out_of_one_object,
        sgroupoid_hom_truncation,
        simplicial_functor_action,
        sgd_functor_hom_map,
        sgd_diagram_restriction,
        sgd_diagram_identity_restriction,
        sgd_diagram_not_equivariant,
        sgroup_action_on_several_objects,
        sgd_presheaf_identity_restriction,
        groupoid_inverse_missing,
        bisset_horizontal_face,
        site_repeated_object,
        sgroupoid_repeated_object,
    ],
    ids=lambda corrupt: corrupt.__name__,
)
def test_corrupted_entry_is_named_in_the_witness(corrupt):
    valid, spot = corrupt()
    assert not valid
    assert spot in valid.witness[0], valid.render()


def test_a_prism_with_its_halves_swapped_fails_at_a_vertex_they_tell_apart():
    J, alpha, beta, H = alpha_beta(interval_sgd(2))
    assert alpha_beta_check((J, alpha, beta, H))
    swapped = alpha_beta_check((J, beta, alpha, H))
    assert not swapped
    (ends,) = [part for part in swapped.parts if not part]
    assert ends.claim == "prism ends are the two halves exactly"
    n, w = ends.witness
    assert n == 0 and alpha(0, w) != beta(0, w)


def test_2gpd_classification_rejects_z3_restricting_by_inversion(tmp_path, capsys):
    # inversion is an automorphism of Z/3, so the presheaf is valid, but
    # its group is not constant, and a 2-groupoid needs one
    H = constant_sgroup(zmod(3), 2)
    Q = constant_sgd_presheaf(s1_site(), H)
    F = identity_functor(H)
    for cells in F.maps[("*", "*")].values():
        cells[1], cells[2] = 2, 1
    Q.res[("A", "U")] = F
    path = tmp_path / "z3-inverted.json"
    path.write_text(cli.dumps(cli.encode_sgd_presheaf(Q)) + "\n")
    assert cli.main(["torsor", "classify", "--kind", "2gpd", str(path)]) == 2
    out = capsys.readouterr().out
    assert "invalid input at /kind: kind '2gpd' needs a constant group coefficient" in out
    assert cli.main(["torsor", "classify", "--kind", "group", str(path)]) == 0
    capsys.readouterr()


def test_torsor_check_rejects_restrictions_that_break_the_presheaf_laws():
    check = sgd_torsor_check(swapped_identity_restriction())
    assert not check
    assert "identity restriction moves ('*', 0) at 'U'" in check.parts[0].witness[0]


def test_classifying_the_cone_needs_the_cocycle_constraints(monkeypatch):
    # the circle has no composable pair of non-identity morphisms, so
    # only a site like the cone sees a cochain family that skips the
    # cocycle condition; drop every constraint, not just some, since
    # which ones bind depends on how the morphisms sort
    monkeypatch.setattr(
        torsors, "solve", lambda domains, constraints, bound=None: solve(domains, [], bound=bound)
    )
    site = cone_site()
    result = classify("group", site, constant_group_presheaf(site, zmod(2)), trunc=3)
    assert not result["check"]
    _assert_an_unnatural_classifying_map_is_witnessed(result)


def _assert_an_unnatural_classifying_map_is_witnessed(result):
    # a non-cocycle's transitions are no presheaf map: a failing part
    # names the naturality witness, the class is unmatched, and the Cech
    # part names a torsor class with no cocycle class
    unnatural = [
        part for part in result["check"].parts
        if part.claim.startswith("classifying map of torsor class ")
    ]
    assert unnatural and not any(part.ok for part in unnatural)
    for part in unnatural:
        ci = int(part.claim.split()[5])
        assert "naturality fails along" in part.witness[0], part.witness
        assert result["matching"][ci] == (ci, None)
    cech = next(p for p in result["check"].parts if p.claim.startswith("torsor classes match"))
    assert not cech.ok and cech.witness["cocycle_class"] is None


@pytest.mark.parametrize("keep", [operator.lt, operator.gt], ids=["f_before_g", "f_after_g"])
def test_classifying_the_cones_needs_the_cocycle_constraints_in_both_orders(monkeypatch, keep):
    # keeping only the composable pairs (f, g) of one idkey order drops
    # the constraints that bind on one cone or the other: which ones
    # bind depends on whether the apex sorts before or after the
    # circle's objects, so both cones are classified
    pairs = torsors._composable_pairs
    monkeypatch.setattr(
        torsors,
        "_composable_pairs",
        lambda C: [(f, g) for f, g in pairs(C) if keep(idkey(f), idkey(g))],
    )
    caught = 0
    for apex in ("P", "0"):
        site = cone_site(apex)
        result = classify("group", site, constant_group_presheaf(site, zmod(2)), trunc=3)
        if not result["check"]:
            _assert_an_unnatural_classifying_map_is_witnessed(result)
            caught += 1
    assert caught >= 1


@pytest.mark.parametrize("dropped", [0, 1])
def test_a_classifying_map_missing_from_the_enumeration_fails(monkeypatch, dropped):
    # a torsor's classifying map is looked up among the enumerated maps,
    # so an enumeration that misses it leaves the torsor class unmatched
    enumerate_maps = classify_module.enumerate_sset_presheaf_maps
    monkeypatch.setattr(
        classify_module,
        "enumerate_sset_presheaf_maps",
        lambda *args, **kwargs: [
            u for k, u in enumerate(enumerate_maps(*args, **kwargs)) if k != dropped
        ],
    )
    site = s1_site()
    result = classify("group", site, constant_group_presheaf(site, zmod(2)), trunc=3)
    assert not result["check"]
    assert None in [j for _, j in result["matching"]]


def test_grouping_against_the_newest_class_alone_fails(monkeypatch):
    # a candidate asked only about the newest class opens a new class
    # whenever it belongs to an older one; the cross-checks against the
    # cocycle classes and the map classes catch the split
    def newest_only(count, related):
        classes = []
        for j in range(count):
            if classes and related(classes[-1][0], j):
                classes[-1].append(j)
            else:
                classes.append([j])
        return classes

    monkeypatch.setattr(classify_module, "_grouped", newest_only)
    site = s1_site()
    result = classify("group", site, constant_group_presheaf(site, zmod(3)), trunc=2)
    assert not result["check"]
    assert result["classes"] > 3
    assert {part.claim for part in result["check"].parts if not part} == {
        "torsor classes match cocycle classes exactly",
        "both sides have the same number of classes",
        "classifying maps hit every homotopy class exactly once",
    }


def test_classifying_two_components_needs_the_anchor_constraints(monkeypatch):
    # with one object per section every element has the same anchor, so
    # only coefficients with two objects see an isomorphism search that
    # moves anchors.  Equivariance along the identity at each element's
    # anchor is what keeps them; the two components have no other arrow,
    # so without those constraints their torsors fall into one class
    equivariance = torsors._equivariance

    def without_identities(T1, T2):
        action = {
            U: {
                (e, g): out
                for (e, g), out in tab.items()
                if g != T1.gpd.values[U].identities[T1.anchor[U][e]]
            }
            for U, tab in T1.action.items()
        }
        return equivariance(dataclasses.replace(T1, action=action), T2)

    monkeypatch.setattr(torsors, "_equivariance", without_identities)
    site = s1_site()
    coefficients = vertex_groupoid_presheaf(twocomp_presheaf(site, 3))
    for kind in ("groupoid-action", "groupoid-bundle"):
        result = classify(kind, site, coefficients, trunc=3)
        assert result["classes"] == 1, kind
        assert {part.claim for part in result["check"].parts if not part} == {
            "both sides have the same number of classes",
            "classifying maps hit every homotopy class exactly once",
        }, kind


def test_a_cocycle_face_composed_in_the_wrong_order_differs_from_the_reference(monkeypatch):
    # an inner face of the cocycle object composes d_0 a_i after a_(i+1);
    # on the constant S_3 the reversed composite still gives a Kan
    # simplicial set, so only the reference action tells the two apart
    C = constant_sgroup(symmetric_group(3), trunc=2)
    compose = C.compose
    with monkeypatch.context() as m:
        m.setattr(C, "compose", lambda a, b, c, n, g, f: compose(a, b, c, n, f, g))
        W = wbar(C)
    assert validate_sset(W) and kan_check(W).ok
    wrong = {
        (n, i)
        for (n, i), table in W.faces.items()
        for x, y in table.items()
        if y != cocycle_action(C, coface(n, i), x)
    }
    assert wrong == {(2, 1)}


def test_h1_checks_its_classes_against_an_independent_count(monkeypatch, tmp_path, capsys):
    # a duplicated class representative is one class too many for the
    # Burnside count of gauge orbits, which walks no orbit
    h1_cech_classes = torsors.h1_cech_classes

    def duplicated(G, cover=None):
        data = h1_cech_classes(G, cover)
        return {**data, "reps": data["reps"] + data["reps"][:1]}

    monkeypatch.setattr(torsors, "h1_cech_classes", duplicated)
    monkeypatch.setattr(cli, "h1_cech_classes", duplicated)
    site, coeff = tmp_path / "s1.json", tmp_path / "z2const.json"
    site.write_text(cli.dumps(cli.encode_site(s1_site())))
    coeff.write_text(cli.dumps(cli.encode_sgd(z2_sgroup(2))))
    assert cli.main(["h1", "--site", str(site), str(coeff)]) == 1
    out = capsys.readouterr().out
    assert "FAIL h1/classes [classes=3" in out
    assert "'independent': 2" in out


def test_bundle_sections_keyed_by_the_groupoid_alone_fail_the_soundness_test(monkeypatch):
    # without the carrier, anchor and action tables in the key, the
    # arrows torsor of the mixed list takes the sections of the
    # representable torsor before it
    monkeypatch.setattr(torsors, "_bundle_section_key", lambda G, carrier, anchor, act: id(G))
    with pytest.raises(AssertionError):
        test_torsors.test_family_bundles_equal_bundles_built_one_at_a_time("mixed")


def test_homotopy_ends_forced_on_vertices_alone_fail(monkeypatch):
    # a homotopy off the cylinder has its ends forced on the nondegenerate
    # simplices of its source; forced on the vertices alone, any two maps
    # that agree there are homotopic.  K(Z/2, 2) is no groupoid nerve, so
    # its homotopies are searched off the cylinder, and over B(Z/2) its
    # two classes, H^2(Z/2; Z/2), fall into one
    maps = k2_maps(zmod(2), bz_site(2))
    assert classify_module.presheaf_map_classes(maps) == [[0], [1]]
    forced_ends = classify_module.forced_ends
    monkeypatch.setattr(classify_module, "forced_ends", lambda X, f, g: {
        key: value for key, value in forced_ends(X, f, g).items() if key[0] == 0
    })
    assert classify_module.presheaf_map_classes(maps) == [[0, 1]]


@pytest.mark.parametrize("constraints", ["square_constraints", "restriction_constraints"])
def test_transformations_without_their_squares_or_restrictions_fail(monkeypatch, constraints):
    # into a groupoid nerve a homotopy is a natural transformation, one
    # edge per source vertex; without the square over each edge, or
    # without naturality in the site's restrictions, the two classes
    # over the circle fall into one
    monkeypatch.setattr(classify_module, constraints, lambda *args: [])
    site = s1_site()
    result = classify("group", site, constant_group_presheaf(site, zmod(2)), trunc=3)
    assert {part.claim for part in result["check"].parts if not part} == {
        "both sides have the same number of classes",
        "classifying maps hit every homotopy class exactly once",
    }
