"""Small handmade groupoid-flavored inputs shared between test modules."""

import itertools

from sgdtors.bundles import corepresented_diagram, two_gpd_display
from sgdtors.classify import enumerate_sset_presheaf_maps
from sgdtors.fixtures import pt_site, s1_site, z2_presheaf
from sgdtors.groupoid import (
    Fin2Groupoid,
    group_as_2groupoid,
    group_as_groupoid,
    trivial_groupoid,
    zmod,
)
from sgdtors.presheaf import (
    SSetPresheafMap,
    constant_group_presheaf,
    constant_sset_presheaf,
    set_presheaf,
    terminal_sset_presheaf,
)
from sgdtors.sgroupoid import SimpGroupoid, b_2groupoid, constant_sgroup, constant_sset
from sgdtors.sheaf import cech_resolution
from sgdtors.site import FinCat, FinSite, poset_category, star_cover
from sgdtors.sset import build_sset, relabel
from sgdtors.torsors import (
    BundleTorsor,
    action_bundles,
    arrows_action_torsor,
    constant_groupoid_presheaf,
    enumerate_action_torsors,
    group_action_torsor,
)
from sgdtors.wbar import wbar


def one_object_one_cell_2groupoid(F):
    """2-cells form the group F over a single identity 1-cell."""
    hom = group_as_groupoid(F)  # object "*" is the lone 1-cell
    homs = {("x", "x"): hom}
    hcomp1 = {("x", "x", "x"): {("*", "*"): "*"}}
    hcomp2 = {
        ("x", "x", "x"): {
            (b, a): F.mul[(b, a)] for b in F.elements for a in F.elements
        }
    }
    return Fin2Groupoid(("x",), homs, hcomp1, hcomp2, {"x": "*"})


def ez2_sgroup(trunc):
    """EZ/2: the n-cells are the (n+1)-tuples over Z/2, faces delete and
    degeneracies repeat an entry, and cells compose by pointwise
    addition.  Its hom gains cells at every level, so the enrichment is
    not constant."""
    hom = build_sset(
        trunc,
        lambda n: itertools.product((0, 1), repeat=n + 1),
        lambda n, i, x: x[:i] + x[i + 1:],
        lambda n, j, x: x[:j + 1] + x[j:],
    )
    comp = {
        n: {
            (g, f): tuple((a + b) % 2 for a, b in zip(g, f))
            for g in hom.level(n)
            for f in hom.level(n)
        }
        for n in range(trunc + 1)
    }
    return SimpGroupoid(trunc, ("*",), {("*", "*"): hom}, {("*", "*", "*"): comp}, {"*": (0,)})


def relabelled_z2_sgroup(trunc):
    """Constant Z/2 with its two cells swapped at odd levels: the hom by
    ``relabel`` and the composition tables the same way.  Each level has
    the ids of the vertex level, so the enrichment is constant, but the
    degeneracies out of even levels swap the cells, so a map out of the
    hom cannot copy its vertex values by id."""
    H = constant_sgroup(zmod(2), trunc)

    def swap(n, c):
        return 1 - c if n % 2 else c

    comp = {
        n: {(swap(n, g), swap(n, f)): swap(n, h) for (g, f), h in table.items()}
        for n, table in H.comp[("*", "*", "*")].items()
    }
    hom = relabel(H.homs[("*", "*")], swap)
    return SimpGroupoid(trunc, ("*",), {("*", "*"): hom}, {("*", "*", "*"): comp}, {"*": 0})


def nerve_sgroup(A, trunc):
    """K(A, 1) for a finite abelian group A: its nerve as a one-object
    simplicial group.  The n-cells are the n-tuples over A, d_0 and d_n
    drop an end, d_i adds entries i and i + 1, s_j inserts the unit, and
    cells compose entrywise.  Its W-bar is K(A, 2), a 2-hypergroupoid."""
    hom = build_sset(
        trunc,
        lambda n: itertools.product(A.elements, repeat=n),
        lambda n, i, x: x[1:] if i == 0 else x[:-1] if i == n
        else x[:i - 1] + (A.mul[(x[i - 1], x[i])],) + x[i + 1:],
        lambda n, j, x: x[:j] + (A.e,) + x[j:],
    )
    comp = {
        n: {
            (g, f): tuple(A.mul[pair] for pair in zip(g, f))
            for g in hom.level(n)
            for f in hom.level(n)
        }
        for n in range(trunc + 1)
    }
    return SimpGroupoid(trunc, ("*",), {("*", "*"): hom}, {("*", "*", "*"): comp}, {"*": ()})


def k2_maps(A, site, trunc=3):
    """The strict maps from the site's covering resolution into K(A, 2),
    constant over the site: a 2-hypergroupoid, not a groupoid nerve, so
    homotopies into it are searched off the cylinder."""
    source = cech_resolution(site, star_cover(site), trunc)
    target = constant_sset_presheaf(site, wbar(nerve_sgroup(A, trunc)))
    return enumerate_sset_presheaf_maps(source, target)


def one_cell_sgroupoid(trunc):
    """Objects 0 and 1 and the one cell "c" in every hom: chaotic, but the
    homs out of each object share their cell, so a string of cells cannot
    tell where it goes."""
    objects = (0, 1)
    homs = {ab: constant_sset(["c"], trunc) for ab in itertools.product(objects, repeat=2)}
    comp = {
        abc: {n: {("c", "c"): "c"} for n in range(trunc + 1)}
        for abc in itertools.product(objects, repeat=3)
    }
    return SimpGroupoid(trunc, objects, homs, comp, {0: "c", 1: "c"})


def cone_site(apex="P"):
    """The cone over the circle: s1_site() with an apex below every
    object, covered by [U, V].  Its composable pairs of non-identity
    morphisms, such as apex -> A -> U, make the cocycle condition bind.
    The default apex sorts after the circle's objects, and "0" sorts
    before them, so the two cones order their composable pairs apart."""
    base = s1_site()
    cat = poset_category(
        base.objects + (apex,), lambda a, b: a == apex or (a, b) in base.cat.morphisms
    )
    return FinSite(cat, {}, [["U", "V"]])


def string_action(theta, objs, cells, compose, identity):
    """Reference action of a monotone map theta on a string of cells,
    cells[k]: objs[k] -> objs[k + 1]: the string starts at objs[theta(0)],
    and its cell i is the composite of the cells over the gap from
    theta(i - 1) to theta(i), or identity(objs[theta(i)]) when the gap is
    empty.  compose(a, b, c, g, f) is g after f, for f: a -> b, g: b -> c."""
    out = []
    for i in range(1, theta.dom + 1):
        p, q = theta(i - 1), theta(i)
        cell = identity(objs[p]) if p == q else cells[p]
        for k in range(p + 1, q):
            cell = compose(objs[p], objs[k], objs[k + 1], cells[k], cell)
        out.append(cell)
    return objs[theta(0)], tuple(out)


def bz_site(n):
    """B(Z/n): one object o whose endomorphisms g0, ..., g(n-1) compose
    as Z/n, with the trivial topology.  It is not a poset: o maps into
    itself n times."""
    arrows = [f"g{k}" for k in range(n)]
    cat = FinCat(
        ("o",),
        {g: ("o", "o") for g in arrows},
        {(arrows[a], arrows[b]): arrows[(a + b) % n] for a in range(n) for b in range(n)},
        {"o": "g0"},
    )
    return FinSite(cat, {}, [["o"]])


def flip_site():
    """Two objects o and p, not a poset: o has the endomorphisms 1o and
    t, with t t = 1o, and p maps into o twice, by a and by b = t a.  The
    topology is trivial and o covers the point; the fundamental group of
    the category's groupoid completion is Z/2, generated by t = b a^-1."""
    cat = FinCat(
        ("o", "p"),
        {"1o": ("o", "o"), "t": ("o", "o"), "1p": ("p", "p"), "a": ("p", "o"), "b": ("p", "o")},
        {
            ("1o", "1o"): "1o", ("1o", "t"): "t", ("t", "1o"): "t", ("t", "t"): "1o",
            ("1p", "1p"): "1p", ("a", "1p"): "a", ("b", "1p"): "b",
            ("1o", "a"): "a", ("1o", "b"): "b", ("t", "a"): "b", ("t", "b"): "a",
        },
        {"o": "1o", "p": "1p"},
    )
    return FinSite(cat, {}, [["o"]])


def chain_site(length=6):
    """The poset chain C0 <- C1 <- ... in which each object is covered by
    the next one down, and C0 covers the point.  Refining the sieve of
    C0 takes one round per link, so its smallest covering sieve is the
    one morphism from the bottom of the chain."""
    objects = tuple(f"C{i}" for i in range(length))
    cat = poset_category(objects, lambda a, b: int(a[1:]) >= int(b[1:]))
    covers = {objects[i]: [[(objects[i + 1], objects[i])]] for i in range(length - 1)}
    return FinSite(cat, covers, [[objects[0]]])


# ---------------------------------------------------------------------------
# Torsor-check inputs that fail, each at its own step.


def collapsed_bundle():
    """The bundle of Z/2 acting on itself over the point, with its total
    object collapsed to the base vertex: a valid simplicial map that
    breaks the pullback shape in level one."""
    GP = constant_groupoid_presheaf(pt_site(), group_as_groupoid(zmod(2)))
    (T5,) = action_bundles(enumerate_action_torsors(GP)[:1], trunc=3)
    pt = terminal_sset_presheaf(GP.site, 3)
    e = zmod(2).e
    comps = {
        U: {n: {x: ("*", (e,) * n) for x in pt.values[U].level(n)} for n in range(4)}
        for U in GP.site.objects
    }
    return BundleTorsor(GP, T5.nerve, pt, SSetPresheafMap(pt, T5.nerve, comps))


def arrows_bundle():
    """The arrows of the chaotic groupoid on two objects, as a bundle over
    the point: it has the pullback shape, but its orbits are indexed by
    sources, so it is not locally trivial."""
    GP = constant_groupoid_presheaf(pt_site(), trivial_groupoid((0, 1)))
    (T5,) = action_bundles([arrows_action_torsor(GP)], trunc=2)
    return T5


def two_orbit_display():
    """Z/2 over the circle swapping 0 with 1 and 2 with 3, displayed over
    the cocycle object of its 2-groupoid: the display has the pullback
    shape, but two orbits are not locally trivial."""
    site = s1_site()
    W = wbar(b_2groupoid(group_as_2groupoid(zmod(2)), 3))
    swap = {0: 1, 1: 0, 2: 3, 3: 2}
    elements = set_presheaf(site, lambda U: (0, 1, 2, 3), lambda f, x: x)
    A = group_action_torsor(
        constant_group_presheaf(site, zmod(2)), elements,
        lambda U, x, g: x if g == 0 else swap[x],
    )
    return A, two_gpd_display(W, A)


def swapped_identity_restriction():
    """The Z/2 diagram over the circle corepresented at its object, whose
    identity restriction at U swaps the two cells: simplicial and
    equivariant, so only the presheaf laws of the restrictions see it."""
    D = corepresented_diagram(z2_presheaf(s1_site(), 2), "*")
    for cells in D.res[("U", "U")]["*"].values():
        cells[0], cells[1] = cells[1], cells[0]
    return D


def s1_point_cover(family):
    """The circle site with the point covered by ``family``, a list of
    its objects."""
    site = s1_site()
    site.star_covers = [list(family)]
    return site
