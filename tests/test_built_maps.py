"""Built maps against the every-simplex reference builder.

``sset.sset_map`` calls its closure on the roots of the source only and
fills the degenerate simplices from the target's degeneracies.  The
reference below calls the closure on every simplex.  Where both
builders give the same tables, the closure is right on degenerate
simplices too, and the fill loses nothing.
"""

import sys

import pytest
from gpd_fixtures import one_object_one_cell_2groupoid
from test_holim import swap_diagram
from test_join import interval_collapse

from sgdtors import sset
from sgdtors.bundles import (
    cech_sgd_presheaf,
    comma_value_comparison,
    enumerate_sgd_presheaf_maps,
    psi_sgd,
)
from sgdtors.classify import classify, cylinder_presheaf
from sgdtors.fixtures import interval_presheaf, interval_sgd, s1_site, z2_presheaf, z2_sgroup
from sgdtors.groupoid import symmetric_group, zmod
from sgdtors.holim import corepresented_functor, functor_transport_map, holim_projection
from sgdtors.join import alpha_beta, join_map, join_object
from sgdtors.kan import enumerate_sset_maps
from sgdtors.presheaf import constant_group_presheaf, constant_sgd_presheaf, natural_square
from sgdtors.sgroupoid import (
    b_2groupoid,
    constant_sgroup,
    db_map,
    db_sgroupoid,
    identity_functor,
    sgd_functor,
)
from sgdtors.sheaf import cech_resolution
from sgdtors.site import star_cover
from sgdtors.sset import SSetMap
from sgdtors.torsors import bg_presheaf, group_presheaf_as_groupoid
from sgdtors.wbar import j_map, wbar_map


def every_simplex_map(X, Y, assign):
    """The reference builder: assign(dim, id) on every simplex of X."""
    return SSetMap(X, Y, {n: {x: assign(n, x) for x in X.level(n)} for n in range(X.trunc + 1)})


def built_tables(monkeypatch, builder, build):
    """Runs build() with ``builder`` in place of ``sset_map`` in every
    sgdtors module that binds it; the tables of each map built, in order,
    each level as its list of items."""
    built = []

    def recorded(X, Y, assign):
        f = builder(X, Y, assign)
        built.append({n: list(table.items()) for n, table in f.levels.items()})
        return f

    original = sset.sset_map
    with monkeypatch.context() as m:
        for module in list(sys.modules.values()):
            if module.__name__.startswith("sgdtors") and vars(module).get("sset_map") is original:
                m.setattr(module, "sset_map", recorded)
        build()
    return built


def assert_both_builders_agree(monkeypatch, build):
    root_only = built_tables(monkeypatch, sset.sset_map, build)
    reference = built_tables(monkeypatch, every_simplex_map, build)
    assert root_only
    assert root_only == reference


def _sign_functor():
    S3 = symmetric_group(3)
    sign = {g: sum(g[i] > g[j] for i in range(3) for j in range(i + 1, 3)) % 2 for g in S3.elements}
    return sgd_functor(
        constant_sgroup(S3, trunc=2), constant_sgroup(zmod(2), trunc=2),
        lambda a: "*", lambda a, b, n, f: sign[f],
    )


def _between_join_objects(F):
    return join_map(F, join_object(F.source), join_object(F.target))


def _circle_cech_sgd(trunc=3):
    site = s1_site()
    return cech_sgd_presheaf(site, star_cover(site), trunc)


def _comma_diagrams():
    # the charts of the interval over the circle, each sent to its comma
    # diagram, whose restriction tables psi_sgd builds
    P = _circle_cech_sgd()
    return [psi_sgd(u) for u in enumerate_sgd_presheaf_maps(P, interval_presheaf(P.site, 3))]


BUILDERS = {
    "j_map": lambda: j_map(constant_sgroup(symmetric_group(3), trunc=2)),
    "j_map-2gpd": lambda: j_map(b_2groupoid(one_object_one_cell_2groupoid(zmod(2)), trunc=3)),
    "wbar_map": lambda: wbar_map(_sign_functor()),
    "db_map": lambda: db_map(
        interval_collapse(), db_sgroupoid(interval_sgd(3)), db_sgroupoid(z2_sgroup(3))
    ),
    "holim_projection": lambda: holim_projection(corepresented_functor(z2_sgroup(3), "*")),
    "functor_transport_map": lambda: functor_transport_map(swap_diagram(3), 0, 1, (0, 1)),
    "join_map": lambda: _between_join_objects(interval_collapse()),
    "comma_value_comparison": lambda: comma_value_comparison(
        corepresented_functor(constant_sgroup(zmod(2), 3), "*"), "*"
    ),
    "alpha_beta-z2const": lambda: alpha_beta(z2_sgroup(4)),
    "alpha_beta-interval": lambda: alpha_beta(interval_sgd(4)),
    "sgd_functor-cech": _circle_cech_sgd,
    "sgd_functor-constant": lambda: constant_sgd_presheaf(s1_site(), constant_sgroup(symmetric_group(3), trunc=2)),
    "sgd_functor-identity": lambda: identity_functor(b_2groupoid(
        one_object_one_cell_2groupoid(zmod(2)), trunc=3
    )),
    "psi_sgd": _comma_diagrams,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_built_maps_equal_the_every_simplex_reference(monkeypatch, name):
    assert_both_builders_agree(monkeypatch, BUILDERS[name])


def _coefficients(kind, site):
    G = constant_group_presheaf(site, zmod(2))
    return {
        "group": G,
        "groupoid-action": group_presheaf_as_groupoid(G),
        "groupoid-bundle": group_presheaf_as_groupoid(G),
        "2gpd": zmod(2),
        "sgroup": z2_presheaf(site, 3),
        "sgpd": z2_presheaf(site, 3),
    }[kind]


@pytest.mark.parametrize(
    "kind", ["group", "groupoid-action", "groupoid-bundle", "2gpd", "sgroup", "sgpd"]
)
def test_classify_builds_the_every_simplex_reference_maps(monkeypatch, kind):
    # the cylinder, the Cech resolution, W-bar, the bundles and the
    # classifying maps: every restriction table and map the run builds
    site = s1_site()
    coefficients = _coefficients(kind, site)
    assert_both_builders_agree(monkeypatch, lambda: classify(kind, site, coefficients, trunc=3))


def every_simplex_square(X, r_src, r_dst):
    """The reference of ``natural_square``: compares every simplex."""

    def square(m_src, m_dst):
        return all(
            m_dst.levels[n][r_src[n][x]] == r_dst[n][m_src.levels[n][x]]
            for n in range(X.trunc + 1)
            for x in X.level(n)
        )

    return square


def test_natural_square_on_roots_gives_the_every_simplex_verdicts():
    # the section maps of the cylinder over the circle, whose homotopy
    # search reads the square on every restriction
    site = s1_site()
    source = cylinder_presheaf(cech_resolution(site, star_cover(site), 2))
    target = bg_presheaf(group_presheaf_as_groupoid(constant_group_presheaf(site, zmod(2))), 2)
    sections = {U: enumerate_sset_maps(source.values[U], target.values[U]) for U in site.objects}
    verdicts = set()
    for f, (V, U) in site.cat.morphisms.items():
        args = (source.values[U], source.res[f], target.res[f])
        on_roots, everywhere = natural_square(*args), every_simplex_square(*args)
        for m_src in sections[U]:
            for m_dst in sections[V]:
                verdict = on_roots(m_src, m_dst)
                assert verdict == everywhere(m_src, m_dst)
                verdicts.add(verdict)
    assert verdicts == {True, False}
