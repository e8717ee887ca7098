"""Ready-made sites and coefficient presheaves used across tests and demos.

The circle-like site has two big objects U, V and two small ones A, B
sitting under both, mirroring two arcs whose intersection has two
components; the poset has no meets, which is exactly why covers of the
terminal presheaf are recorded as object families.  The torus-like site
is its square.
"""

from __future__ import annotations

import itertools

from .groupoid import disjoint_union_groupoids, group_as_groupoid, trivial_groupoid, zmod
from .presheaf import SgdPresheaf, constant_sgd_presheaf
from .sgroupoid import SimpGroupoid, constant_sgroup, constant_sgroupoid
from .site import FinSite, poset_category


def pt_site() -> FinSite:
    cat = poset_category(("pt",), lambda a, b: a == b)
    return FinSite(cat, {}, [["pt"]])


def s1_site(object_covers=False) -> FinSite:
    big = ("U", "V")
    small = ("A", "B")

    def below(a, b):
        return a == b or (a in small and b in big)

    cat = poset_category(big + small, below)
    covers = {}
    if object_covers:
        covers = {
            "U": [[("A", "U"), ("B", "U")]],
            "V": [[("A", "V"), ("B", "V")]],
        }
    return FinSite(cat, covers, [["U", "V"]])


def cover_site() -> FinSite:
    cat = poset_category(("T", "W"), lambda a, b: a == b or (a, b) == ("W", "T"))
    return FinSite(cat, {"T": [[("W", "T")]]}, [["T"]])


def torus_site() -> FinSite:
    base = s1_site()
    pairs = tuple(itertools.product(base.objects, repeat=2))

    def below(p, q):
        return (
            (p[0], q[0]) in base.cat.morphisms and (p[1], q[1]) in base.cat.morphisms
        )

    cat = poset_category(pairs, below)
    star = [[(a, b) for a in ("U", "V") for b in ("U", "V")]]
    return FinSite(cat, {}, star)


def z2_sgroup(trunc) -> SimpGroupoid:
    return constant_sgroup(zmod(2), trunc)


def interval_sgd(trunc) -> SimpGroupoid:
    """Two objects, exactly one cell between any two: contractible."""
    return constant_sgroupoid(trivial_groupoid((0, 1)), trunc)


def twocomp_sgd(trunc) -> SimpGroupoid:
    """Two components with trivial cells: two classes and nothing else."""
    trivial = group_as_groupoid(zmod(1))
    return constant_sgroupoid(disjoint_union_groupoids({"l": trivial, "r": trivial}), trunc)


def z2_presheaf(site, trunc) -> SgdPresheaf:
    return constant_sgd_presheaf(site, z2_sgroup(trunc))


def interval_presheaf(site, trunc) -> SgdPresheaf:
    return constant_sgd_presheaf(site, interval_sgd(trunc))


def twocomp_presheaf(site, trunc) -> SgdPresheaf:
    return constant_sgd_presheaf(site, twocomp_sgd(trunc))
