"""Small handmade groupoid-flavored inputs shared between test modules."""

import itertools

from sgdtors.fixtures import s1_site
from sgdtors.groupoid import Fin2Groupoid, group_as_groupoid
from sgdtors.sgroupoid import SimpGroupoid, constant_sset
from sgdtors.site import FinCat, FinSite, poset_category
from sgdtors.sset import build_sset


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


def chain_site(length=6):
    """The poset chain C0 <- C1 <- ... in which each object is covered by
    the next one down, and C0 covers the point.  Refining the sieve of
    C0 takes one round per link, so its smallest covering sieve is the
    one morphism from the bottom of the chain."""
    objects = tuple(f"C{i}" for i in range(length))
    cat = poset_category(objects, lambda a, b: int(a[1:]) >= int(b[1:]))
    covers = {objects[i]: [[(objects[i + 1], objects[i])]] for i in range(length - 1)}
    return FinSite(cat, covers, [[objects[0]]])
