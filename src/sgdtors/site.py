"""Finite categories with covering data.

A site here is a finite category plus, per object, a list of covering
families (lists of morphisms into that object).  The covering sieve
actually used everywhere is the smallest one compatible with the listed
families: the intersection of the sieves they generate, refined by
composition to its fixed point, which the site alone determines.
Objects with no listed family get the maximal sieve, so an empty covers
table gives the trivial topology and every construction downstream
collapses to its sectionwise version.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property

from .report import Check, InvariantError, require, validator
from .sset import idkey


@dataclass
class FinCat:
    objects: tuple
    morphisms: dict    # id -> (src, dst)
    comp: dict         # (g, f) -> g . f, for f: a->b, g: b->c
    identities: dict   # object -> identity morphism id

    def src(self, f):
        return self.morphisms[f][0]

    def dst(self, f):
        return self.morphisms[f][1]

    def hom(self, a, b):
        return tuple(f for f in self.into(b) if self.morphisms[f][0] == a)

    def into(self, b):
        return self._into.get(b, ())

    @cached_property
    def _into(self):
        """Morphisms by target in ``idkey`` order: a category never changes."""
        into = {}
        for f in sorted(self.morphisms, key=idkey):
            into.setdefault(self.dst(f), []).append(f)
        return {b: tuple(fs) for b, fs in into.items()}


@validator("input is a category")
def validate_cat(C: FinCat):
    problems = [f"object {a!r} is repeated" for a, k in Counter(C.objects).items() if k > 1]
    for f, (a, b) in C.morphisms.items():
        if a not in C.objects or b not in C.objects:
            problems.append(f"morphism {f!r} has unknown endpoints")
    for a in C.objects:
        e = C.identities.get(a)
        if e is None or C.morphisms.get(e) != (a, a):
            problems.append(f"identity at {a!r} missing or mistyped")
    if problems:
        return problems
    for g, (b1, c) in C.morphisms.items():
        for f, (a, b2) in C.morphisms.items():
            if b1 == b2:
                h = C.comp.get((g, f))
                if h is None or C.morphisms.get(h) != (a, c):
                    problems.append(f"composite of {g!r} after {f!r} missing or mistyped")
    if problems:
        return problems
    for f, (a, b) in C.morphisms.items():
        if C.comp[(f, C.identities[a])] != f or C.comp[(C.identities[b], f)] != f:
            problems.append(f"identity law fails at {f!r}")
    into = {}
    for f, (a, b) in C.morphisms.items():
        into.setdefault(b, []).append(f)
    for h, (c, d) in C.morphisms.items():
        for g in into.get(c, ()):
            for f in into.get(C.morphisms[g][0], ()):
                if C.comp[(h, C.comp[(g, f)])] != C.comp[(C.comp[(h, g)], f)]:
                    problems.append(f"associativity fails at {h!r},{g!r},{f!r}")
    return problems


def poset_category(objects, below):
    """Category of a finite poset: one morphism a -> b whenever below(a, b).

    Morphism ids are the pairs (a, b); below must be reflexive and
    transitive on the given objects.
    """
    objects = tuple(objects)
    morphisms = {}
    for a, b in itertools.product(objects, repeat=2):
        if below(a, b):
            morphisms[(a, b)] = (a, b)
    comp = {
        ((b, c), (a, b2)): (a, c)
        for (a, b2) in morphisms
        for (b, c) in morphisms
        if b == b2
    }
    identities = {a: (a, a) for a in objects}
    return FinCat(objects, morphisms, comp, identities)


@dataclass
class FinSite:
    cat: FinCat
    covers: dict = field(default_factory=dict)   # object -> list of families
    star_covers: list = field(default_factory=list)  # families of objects covering the terminal presheaf

    @property
    def objects(self):
        return self.cat.objects

    @property
    def morphisms(self):
        return self.cat.morphisms

    # min_sieves(site) and ordered_sieves(site), worked out once: a site
    # is never changed once built
    _min_sieves = cached_property(lambda site: _refined_sieves(site))
    _ordered_sieves = cached_property(
        lambda site: {U: tuple(sorted(s, key=idkey)) for U, s in site._min_sieves.items()}
    )


def star_cover(site: FinSite):
    """The designated cover of the terminal presheaf: a list of objects."""
    return list(site.star_covers[0])


def generated_sieve(site: FinSite, U, family):
    """All morphisms into U that factor through a family member."""
    C = site.cat
    out = set()
    for m in family:
        if C.dst(m) != U:
            raise InvariantError(f"cover member {m!r} does not land in {U!r}")
        for h in C.into(C.src(m)):
            out.add(C.comp[(m, h)])
    return frozenset(out)


def maximal_sieve(site: FinSite, U):
    return frozenset(site.cat.into(U))


def min_sieves(site: FinSite):
    """Smallest covering sieve per object: the fixed point of refinement.

    Start from the intersection of the listed families' sieves (maximal
    when none are listed) and refine by composing covers of covers.  A
    round keeps a subset of each sieve, so unless the category is broken
    the fixed point comes within one round per morphism.  It is worked
    out once per site.
    """
    return site._min_sieves


def ordered_sieves(site: FinSite):
    """Each object's smallest covering sieve as a tuple in ``idkey``
    order, worked out once per site: the slot order of its matching
    families and the order of their entries."""
    return site._ordered_sieves


def _refined_sieves(site: FinSite):
    C = site.cat
    current = {}
    for U in C.objects:
        families = site.covers.get(U, [])
        sieves = [generated_sieve(site, U, fam) for fam in families]
        if sieves:
            s = set(sieves[0])
            for extra in sieves[1:]:
                s &= extra
            current[U] = frozenset(s)
        else:
            current[U] = maximal_sieve(site, U)
    for _ in range(len(C.morphisms) + 1):
        refined = {
            U: frozenset(
                C.comp[(f, g)] for f in current[U] for g in current[C.src(f)]
            )
            for U in C.objects
        }
        if refined == current:
            return current
        current = refined
    raise InvariantError("sieve refinement does not reach a fixed point")


def pullback_sieve(site: FinSite, sieve, h):
    """Morphisms whose composite with h lies in the sieve."""
    C = site.cat
    return frozenset(g for g in C.into(C.src(h)) if C.comp[(h, g)] in sieve)


def validate_site(site: FinSite) -> Check:
    check = Check("covering data is coherent", True)
    if not check.add(replace(validate_cat(site.cat), claim="underlying category is valid")):
        return check
    typed = []
    for U, families in site.covers.items():
        for fam in families:
            for m in fam:
                if m not in site.cat.morphisms or site.cat.dst(m) != U:
                    typed.append((U, m))
    for fam in site.star_covers:
        for V in fam:
            if V not in site.cat.objects:
                typed.append(("*", V))
    check.add(require(not typed, "cover families correctly typed", witness=typed[:3]))
    if not check.ok:
        return check
    sieves = min_sieves(site)
    unstable = [
        (U, h)
        for U in site.objects
        for h in sieves[U]
        if not sieves[site.cat.src(h)] <= pullback_sieve(site, sieves[U], h)
    ]
    check.add(
        require(not unstable, "smallest sieves are pullback stable", witness=unstable[:3])
    )
    empty = [U for U in site.objects if not sieves[U]]
    check.add(require(not empty, "no object has an empty covering sieve", witness=empty))
    return check


def comma_site(site: FinSite, U) -> tuple:
    """The site of objects over U; returns (site, forgetful object map).

    Objects are morphisms into U; a morphism f -> g over U is a morphism
    h with g . h = f, recorded as (h, f, g).  A family covers f exactly
    when its underlying morphisms cover the source of f.
    """
    C = site.cat
    objects = tuple(C.into(U))
    morphisms = {}
    for f in objects:
        for g in objects:
            for h in C.hom(C.src(f), C.src(g)):
                if C.comp[(g, h)] == f:
                    morphisms[(h, f, g)] = (f, g)
    comp = {}
    for (h2, f2, g2), (s2, d2) in morphisms.items():
        for (h1, f1, g1), (s1, d1) in morphisms.items():
            if d1 == s2:
                comp[((h2, f2, g2), (h1, f1, g1))] = (C.comp[(h2, h1)], f1, g2)
    identities = {f: (C.identities[C.src(f)], f, f) for f in objects}
    cat = FinCat(objects, morphisms, comp, identities)

    covers = {}
    for f in objects:
        V = C.src(f)
        fams = []
        for fam in site.covers.get(V, []):
            fams.append([(m, C.comp[(f, m)], f) for m in fam])
        if fams:
            covers[f] = fams
    over = FinSite(cat, covers)
    forget = {f: C.src(f) for f in objects}
    return over, forget
