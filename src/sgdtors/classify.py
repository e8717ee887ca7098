"""Classification runs for every torsor flavour.

Each run computes two sides and matches them class by class:

* the torsor side enumerates a family of representatives and groups
  them into isomorphism classes by searching for equivariant maps;
* the maps side enumerates strict presheaf maps from the covering
  resolution of the point into the flavour's classifying object and
  groups them into homotopy classes.  Every flavour's classifying object
  is sectionwise a groupoid nerve, where a homotopy is a natural
  transformation, one edge per source vertex, found by a search over
  vertices; into any other target, homotopies are searched off the
  cylinder.

The bridge in both directions is the transition cocycle of a chosen
local section: a torsor yields a classifying map on the nose, which is
looked up among the enumerated ones to read its homotopy class; a map
missing from them fails the matching.  The report fails loudly whenever
the two sides disagree.

One driver, ``classify``, runs every flavour, ``classify_torsors``
runs its torsor side alone, and ``canonical_check`` runs the torsor
check of one translation-style torsor.  ``FLAVOURS`` holds one entry per
flavour, and is the one place that names a kind, so the `torsor` command
dispatches through it too: how to read the coefficients off an enriched
presheaf, how to build the torsor family, the translation-style torsor
and the objects the isomorphism search compares, that search, the
classifying target, the checks on each class representative, the
classifying map, and any extra checks and report keys (the
cocycle-class count for the group flavours, the bundle round trip, the
represented torsors for ``sgpd``).  A ``2gpd`` torsor is the
1-cell ActionTorsor of a cochain of the constant group presheaf; its
display is built over the cocycle object of the group's 2-groupoid,
``run.wbar``, built once per run and also the classifying target.  An
``sgroup`` torsor is an enriched group action, the one-object SgdDiagram
of a twisted cochain; its isomorphism search and its classifying map
read its vertex-level ActionTorsor, ``run.searched``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

from .bundles import (
    SgdPresheafMap,
    cech_sgd_presheaf,
    corepresented_diagram,
    enumerate_sgd_presheaf_maps,
    level0_group_torsor,
    psi_sgd,
    require_constant_enrichment,
    sgd_diagram_maps,
    sgd_torsor_check,
    sgroup_torsor_check,
    twisted_sgroup_action,
    two_gpd_action_maps,
    two_gpd_display,
    two_gpd_torsor_check,
    vertex_group_presheaf,
    vertex_groupoid_presheaf,
)
from .groupoid import group_as_2groupoid
from .kan import (
    enumerate_sset_maps,
    face_index,
    hypergroupoid_check,
    iterated_degeneracy,
    sset_map_search,
)
from .presheaf import (
    SgdPresheaf,
    SSetPresheaf,
    SSetPresheafMap,
    constant_group_presheaf,
    constant_sset_presheaf,
    fixed_objects,
    natural_square,
    sset_presheaf,
    sset_presheaf_map,
    validate_sset_presheaf_map,
)
from .report import Check, InvariantError, invariant, require, unique_hit
from .search import solve
from .sgroupoid import b_2groupoid
from .sheaf import PLUS_STEPS, cech_resolution, cover_elements
from .site import star_cover
from .sset import delta, sset_product
from .torsors import (
    ActionTorsor,
    _shared_values,
    action_bundles,
    action_torsor_check,
    action_torsor_maps,
    bg_presheaf,
    bundle_to_action,
    bundle_torsor_check,
    constant_objects,
    enumerate_action_torsors,
    enumerate_group_cochains,
    enumerate_group_torsors,
    group_presheaf_as_groupoid,
    group_torsor_check,
    group_torsor_maps,
    h1_cech_classes,
    representable_action_torsor,
    torsor_cech_class,
    trivial_group_torsor,
    wbar_presheaf,
)
from .wbar import wbar


# ---------------------------------------------------------------------------
# strict presheaf maps and homotopy classes of them


def _strict_maps(Y: SSetPresheaf, Z: SSetPresheaf, sections, limit=None, bound=None):
    """Strict presheaf maps Y -> Z: one slot per section U, ranging over
    the simplicial maps sections(U), and a naturality constraint for
    every site morphism."""
    domains = {}
    for U in Y.site.objects:
        domains[U] = sections(U)
        if not domains[U]:
            return []
    constraints = [
        ((U, V), natural_square(Y.values[U], Y.res[f], Z.res[f]))
        for f, (V, U) in Y.site.cat.morphisms.items()
    ]
    return [
        SSetPresheafMap(Y, Z, {U: m.levels for U, m in combo.items()})
        for combo in solve(domains, constraints, limit, bound)
    ]


def enumerate_sset_presheaf_maps(Y: SSetPresheaf, Z: SSetPresheaf, bound=None):
    """All strict presheaf maps: sectionwise simplicial maps that are
    natural along every site morphism."""
    return _strict_maps(
        Y, Z, lambda U: enumerate_sset_maps(Y.values[U], Z.values[U]), bound=bound
    )


def cylinder_presheaf(Y: SSetPresheaf) -> SSetPresheaf:
    """Sectionwise product with the interval, restricting the first
    coordinate only."""
    I = delta(1, Y.trunc)
    return sset_presheaf(
        Y.site,
        lambda U: sset_product(Y.values[U], I),
        lambda f, n, s: (Y.res[f][n][s[0]], s[1]),
    )


def forced_ends(X, f, g):
    """The values that a homotopy off the cylinder of X must take at its
    ends, keyed as ``sset_map_search`` takes them: f's tables at end 0
    and g's at end 1.  The ends are forced on nondegenerate simplices only:
    (x, 0...0) is nondegenerate exactly when x is, and as f and g are
    simplicial, their values on the roots fix the rest."""
    return {
        (n, (x, (k,) * (n + 1))): end[n][x]
        for k, end in ((0, f), (1, g))
        for n in range(X.trunc + 1)
        for x in X.nondegenerate(n)
    }


def cylinder_search(Y: SSetPresheaf, Z: SSetPresheaf):
    """The homotopy search of maps Y -> Z off the cylinder, compiled once:
    a function (f, g, limit) to the strict maps off
    ``cylinder_presheaf(Y)`` with end 0 forced to f and end 1 to g, each
    section's maps found by one map search C(U) -> Z(U), compiled once
    for every pair of ends."""
    C = cylinder_presheaf(Y)
    searches = {U: sset_map_search(C.values[U], Z.values[U]) for U in C.site.objects}

    def homotopies(f, g, limit):
        def ends(U):
            return searches[U](forced_ends(Y.values[U], f.components[U], g.components[U]))

        return _strict_maps(C, Z, ends, limit)

    return homotopies


def square_constraints(Y: SSetPresheaf, f, g, composite):
    """For each nondegenerate edge e: x -> y of each section U, the
    constraint on the slots (U, x) and (U, y) that h(y) f(e) = g(e) h(x),
    with ``composite[U]`` taking (later, first) to their composite."""
    constraints = []
    for U, X in Y.values.items():
        fe, ge, after = f.components[U][1], g.components[U][1], composite[U]
        for e in X.nondegenerate(1):
            x, y = X.faces[(1, 1)][e], X.faces[(1, 0)][e]
            constraints.append((
                ((U, x), (U, y)),
                lambda hx, hy, fe=fe[e], ge=ge[e], after=after: after[(hy, fe)] == after[(ge, hx)],
            ))
    return constraints


def restriction_constraints(Y: SSetPresheaf, Z: SSetPresheaf):
    """For each site arrow V -> U and vertex x over U, the constraint on
    the slots (U, x) and (V, x restricted) that h commutes with
    restriction."""
    return [
        (((U, x), (V, Y.res[a][0][x])), lambda hU, hV, down=Z.res[a][1]: down[hU] == hV)
        for a, (V, U) in Y.site.cat.morphisms.items()
        for x in Y.values[U].level(0)
    ]


def transformation_search(Y: SSetPresheaf, Z: SSetPresheaf):
    """The homotopy search of maps Y -> Z into sectionwise groupoid
    nerves, compiled once: a function (f, g, limit) to the natural
    transformations from f to g, as dicts from slot (U, x) to an edge
    h(x): f(x) -> g(x) of Z(U).  A map off the cylinder into a nerve is
    a functor out of the product of the source's fundamental category
    with [1], that is a natural transformation (Gabriel and Zisman,
    *Calculus of Fractions and Homotopy Theory*, 1967), and h is one.
    It must make a commuting square over every nondegenerate edge of each
    section (``square_constraints``), and commute with the site's
    restrictions (``restriction_constraints``).  Composites are read off
    the unique filler of each inner 2-horn, from one ``face_index`` per
    distinct target section."""

    def edge_tables(T):
        d1, fill = T.faces[(2, 1)], face_index(T, 2, 1)
        return face_index(T, 1), {key: d1[z] for key, (z,) in fill.items()}

    tables = _shared_values(Z.values, edge_tables)
    # edges[U] lists the edges of Z(U) by their ends (d_0, d_1) = (to, from)
    edges = {U: tables[U][0] for U in Z.values}
    composite = {U: tables[U][1] for U in Z.values}
    natural = restriction_constraints(Y, Z)

    def homotopies(f, g, limit):
        domains = {
            (U, x): edges[U].get((g.components[U][0][x], f.components[U][0][x]), ())
            for U, X in Y.values.items()
            for x in X.level(0)
        }
        return solve(domains, square_constraints(Y, f, g, composite) + natural, limit)

    return homotopies


def homotopy_search(Y: SSetPresheaf, Z: SSetPresheaf):
    """The homotopy search of one grouping of maps Y -> Z, compiled once:
    ``transformation_search`` when, at trunc 2 or more, every section of
    Z passes ``hypergroupoid_check(·, 1)``, so is a groupoid nerve up to
    isomorphism, and ``cylinder_search`` for any other target, such as
    K(A, 2).  A section shared by several objects is checked once."""
    sections = {id(T): T for T in Z.values.values()}
    nerves = Z.trunc >= 2 and all(hypergroupoid_check(T, 1) for T in sections.values())
    return (transformation_search if nerves else cylinder_search)(Y, Z)


def presheaf_homotopies(f: SSetPresheafMap, g: SSetPresheafMap, search):
    """A homotopy from f to g, as a one-element list, or an empty list:
    the first that ``search``, the ``homotopy_search`` of a grouping of
    maps between their source and target, finds.  Every homotopy
    question runs through here."""
    return search(f, g, 1)


def presheaf_homotopic(f: SSetPresheafMap, g: SSetPresheafMap, search) -> bool:
    """Equal, or homotopic either way: an equivalence relation when the
    target is sectionwise Kan.  Both homotopy searches run ``search``, as
    ``presheaf_homotopies`` does."""
    if f.components == g.components:
        return True
    return bool(presheaf_homotopies(f, g, search) or presheaf_homotopies(g, f, search))


def _grouped(count, related):
    """Classes of range(count) under the equivalence ``related``, asked
    only ``related(first, j)`` for the first member of each class so far:
    j joins the first class that relates, so classes come in order of least
    member.  Torsor isomorphism is an equivalence, as equivariant maps of
    torsors are invertible, and so is homotopy into a sectionwise Kan
    classifying object, which ``presheaf_homotopic`` tries both ways."""
    classes = []
    for j in range(count):
        home = next((members for members in classes if related(members[0], j)), [])
        if not home:
            classes.append(home)
        home.append(j)
    return classes


def presheaf_map_classes(maps):
    """Homotopy classes, as index lists, of strict presheaf maps into a
    sectionwise Kan presheaf, where homotopy is an equivalence.  One
    ``homotopy_search`` is compiled for the grouping, and every homotopy
    question in it runs that search: a vertex search for natural
    transformations into groupoid nerves, which builds no cylinder, and
    the cylinder search otherwise."""
    search = homotopy_search(maps[0].source, maps[0].target) if len(maps) > 1 else None
    return _grouped(len(maps), lambda i, j: presheaf_homotopic(maps[i], maps[j], search))


# ---------------------------------------------------------------------------
# classifying maps from torsors


def _cocycle_map(source: SSetPresheaf, target: SSetPresheaf, entry) -> SSetPresheafMap:
    """The map sending a cell of section W at level n to
    entry(W)(n, cell); whether it is a strict presheaf map is left to
    the caller."""
    per_section = {W: entry(W) for W in source.site.objects}
    return sset_presheaf_map(source, target, lambda W, n, cell: per_section[W](n, cell))


def _chosen(cover, pool):
    """The first entry of pool(member) for each cover member, by index."""
    chosen = {}
    for i, member in enumerate(cover):
        found = pool(member)
        if not found:
            raise InvariantError(f"no section over {member!r} to trivialise with")
        chosen[i] = found[0]
    return chosen


def _transition(hits):
    return unique_hit(hits, "transitions must be unique to classify")


def _transition_cocycle(T: ActionTorsor, cover, source, target, value) -> SSetPresheafMap:
    """The map sending a level-n cell of the covering resolution
    ``source`` over the section W to value(W, G, n, anchors, arrows) in
    ``target``: the anchor of one chosen section over each vertex, and
    the arrow of G = T.gpd.values[W] carrying each vertex's section to
    the one before it."""
    chosen = _chosen(cover, lambda member: T.total.values[member])
    E = cover_elements(T.total.site, cover)

    def entry(W):
        G, anchor, tab = T.gpd.values[W], T.anchor[W], T.action[W]
        local = {(i, h): T.total.res[h][chosen[i]] for (i, h) in E.values[W]}

        def transition(prev, nxt):
            x, y = local[nxt], local[prev]
            return _transition(
                [
                    g
                    for g, (a, b) in G.morphisms.items()
                    if b == anchor[x] and tab[(x, g)] == y
                ]
            )

        return lambda n, cell: value(
            W,
            G,
            n,
            [anchor[local[e]] for e in cell],
            [transition(cell[m - 1], cell[m]) for m in range(1, n + 1)],
        )

    return _cocycle_map(source, target, entry)


def action_classifying_map(
    T: ActionTorsor, cover, source: SSetPresheaf, target: SSetPresheaf
) -> SSetPresheafMap:
    """The transition cocycle of one chosen section over each cover
    member, as a map from the covering resolution ``source`` into the
    nerve ``target``."""
    return _transition_cocycle(
        T, cover, source, target, lambda W, G, n, anchors, arrows: (anchors[0], tuple(arrows))
    )


def sgroup_classifying_map(
    Q: SgdPresheaf, T: ActionTorsor, cover, source: SSetPresheaf, target: SSetPresheaf
) -> SSetPresheafMap:
    """Transition cocycle of an enriched group action with a discrete
    total space, read off its vertex-level torsor T, from the covering
    resolution ``source`` into the cocycle object ``target`` of Q: a
    transition arrow g is the vertex cell g^-1, degenerated to its
    level."""

    def value(W, G, n, anchors, arrows):
        H = Q.values[W]
        a = next(iter(H.objects))
        return (
            (a,) * (n + 1),
            tuple(
                iterated_degeneracy(H.homs[(a, a)], G.inverses[g], n - m)
                for m, g in enumerate(arrows, 1)
            ),
        )

    return _transition_cocycle(T, cover, source, target, value)


def two_gpd_classifying_map(
    A: ActionTorsor, cover, source: SSetPresheaf, target: SSetPresheaf
) -> SSetPresheafMap:
    """Transition cocycle of a 2-groupoid action, given as its 1-cell
    ActionTorsor, for discrete hom 2-cells: a transition arrow g is the
    1-cell g^-1, and entries are degenerate strings on it."""

    def value(W, G, n, anchors, arrows):
        cells = [G.inverses[g] for g in arrows]
        return (
            tuple(anchors),
            tuple((t, (("id", t),) * (n - m)) for m, t in enumerate(cells, 1)),
        )

    return _transition_cocycle(A, cover, source, target, value)


def sgd_classifying_map(
    u: SgdPresheafMap, cover, source: SSetPresheaf, target: SSetPresheaf
) -> SSetPresheafMap:
    """For a map off the covering coefficients, the induced cocycle map
    from the covering resolution ``source`` into ``target``: entries are
    the images of the unique connecting cells, read backwards along each
    string."""
    P = u.source

    def entry(W):
        F, HP = u.components[W], P.values[W]
        return lambda n, cell: (
            tuple(F.ob[e] for e in cell),
            tuple(
                F.on_hom(
                    cell[m],
                    cell[m - 1],
                    n - m,
                    HP.homs[(cell[m], cell[m - 1])].level(n - m)[0],
                )
                for m in range(1, n + 1)
            ),
        )

    return _cocycle_map(source, target, entry)


def constant_cocycle_map(
    source: SSetPresheaf, target: SSetPresheaf, Q: SgdPresheaf, a
) -> SSetPresheafMap:
    """The trivial cocycle at a constant object: every resolution cell
    goes to the identity string."""

    def entry(W):
        H = Q.values[W]
        return lambda n, cell: (
            (a,) * (n + 1),
            tuple(H.identity_at(a, n - m) for m in range(1, n + 1)),
        )

    u = _cocycle_map(source, target, entry)
    checked = validate_sset_presheaf_map(u)
    invariant(checked.ok, f"cocycle tables are not a presheaf map: {checked.witness}")
    return u


# ---------------------------------------------------------------------------
# the flavour table


@dataclass(frozen=True)
class Flavour:
    """What one torsor flavour gives the classification run.

    ``reads`` takes an enriched presheaf; the other functions take the
    run, a namespace holding classify()'s arguments and what the run has
    built so far.  They name the searches and checks through module
    globals, looked up at call time, so that a wrapper rebound over a
    global after import (as perfbench/tracing.py installs) sees every
    call.  The last entry of ``checks`` is the verdict that the member is
    a torsor, the one ``canonical_check`` reports.
    """

    claim: str
    enriched: bool         # truncation is the coefficients', not an argument
    reads: object          # enriched presheaf -> the coefficients; ValueError if unfit
    family: object         # run -> the torsor family
    canonical: object      # run -> the translation-style torsor, a family member
    iso: object            # (run, x, y) -> isomorphisms of searched objects
    target: object         # run -> the classifying presheaf
    checks: object         # (run, i) -> checks on family member i
    classifying_map: object  # (run, i) -> the cocycle map of member i
    searched: object = None  # run -> what the isomorphism search compares
    extra: object = None   # (run, check) -> report keys, after the matching


def _needs_one_object(kind, read):
    """``reads`` for a kind whose coefficients have one object in every
    section."""

    def reads(Q):
        if not all(len(H.objects) == 1 for H in Q.values.values()):
            raise ValueError(f"kind {kind!r} needs one-object coefficients")
        return read(Q)

    return reads


def _constant_group(Q):
    """The vertex group of every section, when the sections share it and
    every restriction fixes it."""
    G = vertex_group_presheaf(Q)
    first = next(iter(G.values.values()))
    if not all(
        H.elements == first.elements and H.mul == first.mul for H in G.values.values()
    ) or any(G.res[f][g] != g for f in G.res for g in first.elements):
        raise ValueError("kind '2gpd' needs a constant group coefficient")
    return first


def _constant_objects(Q):
    """The objects, by id, that every section has and every restriction
    fixes."""
    return fixed_objects(Q.values.values(), [F.ob for F in Q.res.values()])


def _shared_object(fixed, missing):
    """The least of the constant objects ``fixed``."""
    if not fixed:
        raise ValueError(missing)
    return fixed[0]


def _representable(run):
    """Arrows into the least constant object, anchored by source."""
    at = _shared_object(constant_objects(run.coeff), "no shared object to anchor the torsor at")
    return representable_action_torsor(run.coeff, at)


def _bundle_family(run):
    run.actions = enumerate_action_torsors(run.coeff, run.bound)
    return action_bundles(run.actions, run.trunc)


def _two_gpd_torsors(run, build):
    """build(constant group presheaf), with ``run.wbar`` built first."""
    run.wbar = wbar(b_2groupoid(group_as_2groupoid(run.coeff), run.trunc))
    return build(constant_group_presheaf(run.site, run.coeff))


def _sgroup_family(run):
    require_constant_enrichment(run.coeff)
    run.vertex_group = vertex_group_presheaf(run.coeff)
    cochains = enumerate_group_cochains(run.vertex_group, run.bound)
    return [twisted_sgroup_action(run.coeff, c) for c in cochains]


def _sgd_family(run):
    P = cech_sgd_presheaf(run.site, run.cover, run.trunc)
    run.charts = enumerate_sgd_presheaf_maps(P, run.coeff, bound=run.bound)
    return [psi_sgd(u) for u in run.charts]


def _cech_classes(run, G):
    """The cocycle class of each torsor class's representative, sorted,
    the number of cocycle classes, and what a mismatch would name: the
    first torsor class whose transitions are no cocycle (class None) or
    repeat an earlier class's, else the first cocycle class no torsor
    class reaches."""
    data = h1_cech_classes(G, run.cover)
    found = [torsor_cech_class(run.searched[members[0]], data) for members in run.torsor_classes]
    count, first = len(data["reps"]), {}
    for ci, c in enumerate(found):
        if c is None or c in first:
            witness = {"torsor_class": ci, "cocycle_class": c, "shared_with": first.get(c)}
            break
        first[c] = ci
    else:
        witness = {"unreached_cocycle_class": next((c for c in range(count) if c not in first), None)}
    return sorted(found, key=lambda c: -1 if c is None else c), count, witness


def _group_cech(run, check):
    found, count, witness = _cech_classes(run, run.coeff)
    check.add(
        require(
            found == list(range(count)),
            "torsor classes match cocycle classes exactly",
            witness,
            classes=found,
            cocycle_classes=count,
        )
    )
    return {"cocycle_classes": count}


def _sgroup_cech(run, check):
    found, count, witness = _cech_classes(run, run.vertex_group)
    check.add(
        require(
            found == list(range(count)),
            "vertex-level classes match cocycle classes exactly",
            witness,
            classes=found,
        )
    )
    return {"cocycle_classes": count}


def _bundle_round_trip(run, check):
    check.add(
        require(run.searched == run.actions, "bundle round trip recovers every action")
    )
    return {}


def _sgd_checks(run, i):
    """The verdict's first part, renamed "pullback is a valid diagram",
    then the torsor verdict itself."""
    check = sgd_torsor_check(run.family[i])
    return [replace(check.parts[0], claim="pullback is a valid diagram"), check]


def _represented_torsors(run, check):
    """The represented torsor at each constant object classifies by the
    constant cocycle; a strict comparison with its class exists only
    when no section carries more than one chart."""
    Q = run.coeff
    for a in _constant_objects(Q):
        triv = constant_cocycle_map(run.source, run.target, Q, a)
        located = _locate(triv, run.maps, run.map_classes)
        partners = [ci for ci, mj in run.matching if mj == located]
        D = corepresented_diagram(Q, a)
        hits = [
            ci
            for ci, members in enumerate(run.torsor_classes)
            if sgd_diagram_maps(D, run.family[members[0]], bound=run.bound)
            and sgd_diagram_maps(run.family[members[0]], D, bound=run.bound)
        ]
        if hits:
            check.add(
                require(
                    hits == partners,
                    f"the represented torsor at {a!r} lands in its classified class",
                    hits=hits,
                    partners=partners,
                )
            )
        else:
            check.add(
                require(
                    len(partners) == 1,
                    f"the represented torsor at {a!r} classifies into exactly one class",
                    partners=partners,
                )
            )
    return {}


FLAVOURS = {
    "group": Flavour(
        "group torsors match classifying maps",
        enriched=False,
        reads=_needs_one_object("group", vertex_group_presheaf),
        family=lambda run: enumerate_group_torsors(run.coeff, run.bound),
        canonical=lambda run: trivial_group_torsor(run.coeff),
        iso=lambda run, x, y: group_torsor_maps(x, y),
        target=lambda run: bg_presheaf(group_presheaf_as_groupoid(run.coeff), run.trunc),
        checks=lambda run, i: [group_torsor_check(run.family[i])],
        classifying_map=lambda run, i: action_classifying_map(
            run.family[i], run.cover, run.source, run.target
        ),
        extra=_group_cech,
    ),
    "groupoid-action": Flavour(
        "anchored torsors match classifying maps",
        enriched=False,
        reads=vertex_groupoid_presheaf,
        family=lambda run: enumerate_action_torsors(run.coeff, run.bound),
        canonical=_representable,
        iso=lambda run, x, y: action_torsor_maps(x, y),
        target=lambda run: bg_presheaf(run.coeff, run.trunc),
        checks=lambda run, i: [action_torsor_check(run.family[i])],
        classifying_map=lambda run, i: action_classifying_map(
            run.family[i], run.cover, run.source, run.target
        ),
    ),
    "groupoid-bundle": Flavour(
        "pulled-back bundles match classifying maps",
        enriched=False,
        reads=vertex_groupoid_presheaf,
        family=_bundle_family,
        canonical=lambda run: action_bundles([_representable(run)], run.trunc)[0],
        searched=lambda run: [bundle_to_action(B) for B in run.family],
        iso=lambda run, x, y: action_torsor_maps(x, y),
        target=lambda run: (
            run.family[0].nerve if run.family else bg_presheaf(run.coeff, run.trunc)
        ),
        checks=lambda run, i: [bundle_torsor_check(run.family[i])],
        classifying_map=lambda run, i: action_classifying_map(
            run.searched[i], run.cover, run.source, run.target
        ),
        extra=_bundle_round_trip,
    ),
    "2gpd": Flavour(
        "2-groupoid actions match classifying maps",
        enriched=False,
        reads=_needs_one_object("2gpd", _constant_group),
        family=lambda run: _two_gpd_torsors(
            run, lambda G: enumerate_group_torsors(G, run.bound)
        ),
        canonical=lambda run: _two_gpd_torsors(run, trivial_group_torsor),
        iso=lambda run, x, y: two_gpd_action_maps(x, y),
        target=lambda run: constant_sset_presheaf(run.site, run.wbar),
        checks=lambda run, i: [
            two_gpd_torsor_check(*two_gpd_display(run.wbar, run.family[i]))
        ],
        classifying_map=lambda run, i: two_gpd_classifying_map(
            run.family[i], run.cover, run.source, run.target
        ),
    ),
    "sgroup": Flavour(
        "enriched group actions match classifying maps",
        enriched=True,
        reads=_needs_one_object("sgroup", lambda Q: Q),
        family=_sgroup_family,
        canonical=lambda run: corepresented_diagram(
            run.coeff, {U: next(iter(H.objects)) for U, H in run.coeff.values.items()}
        ),
        searched=lambda run: [level0_group_torsor(A) for A in run.family],
        iso=lambda run, x, y: group_torsor_maps(x, y),
        target=lambda run: wbar_presheaf(run.coeff),
        checks=lambda run, i: [sgroup_torsor_check(run.family[i])],
        classifying_map=lambda run, i: sgroup_classifying_map(
            run.coeff, run.searched[i], run.cover, run.source, run.target
        ),
        extra=_sgroup_cech,
    ),
    "sgpd": Flavour(
        "pulled-back diagrams match classifying maps",
        enriched=True,
        reads=lambda Q: Q,
        family=_sgd_family,
        canonical=lambda run: corepresented_diagram(
            run.coeff,
            _shared_object(_constant_objects(run.coeff), "no shared object to corepresent at"),
        ),
        iso=lambda run, x, y: sgd_diagram_maps(x, y, bound=run.bound),
        target=lambda run: wbar_presheaf(run.coeff),
        checks=_sgd_checks,
        classifying_map=lambda run, i: sgd_classifying_map(
            run.charts[i], run.cover, run.source, run.target
        ),
        extra=_represented_torsors,
    ),
}

KINDS = tuple(FLAVOURS)


# ---------------------------------------------------------------------------
# the classification run


def _locate(u: SSetPresheafMap, maps, classes):
    """The class in ``classes`` of the member of ``maps`` with u's
    components, or None when u is not among ``maps``."""
    index = next((k for k, m in enumerate(maps) if m.components == u.components), None)
    return next((ci for ci, members in enumerate(classes) if index in members), None)


def _match(run, ci, check):
    """The homotopy class of torsor class ci's classifying map, or None
    when that map is not among ``run.maps``.  A classifying map that is
    not a strict presheaf map is a wrong classification, not a malformed
    input: it adds a failing part to ``check`` with the naturality
    witness."""
    u = run.flavour.classifying_map(run, run.torsor_classes[ci][0])
    natural = validate_sset_presheaf_map(u)
    if not natural:
        check.add(replace(natural, claim=f"classifying map of torsor class {ci} is a presheaf map"))
        return None
    return _locate(u, run.maps, run.map_classes)


def _run(kind, site, coefficients, trunc, bound=None, cover=None):
    """A run of the kind's flavour, holding the arguments of ``classify``."""
    if kind not in FLAVOURS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    flavour = FLAVOURS[kind]
    return SimpleNamespace(
        flavour=flavour, site=site, coeff=coefficients, bound=bound,
        trunc=coefficients.trunc if flavour.enriched else trunc,
        cover=cover or star_cover(site),
    )


def canonical_check(kind, site, coefficients, trunc):
    """The torsor verdict on the kind's translation-style torsor: the
    last check that classification runs on a class representative, run
    on a family of that one torsor."""
    run = _run(kind, site, coefficients, trunc)
    run.family = [run.flavour.canonical(run)]
    return run.flavour.checks(run, 0)[-1]


def classify_torsors(kind, site, coefficients, trunc=None, bound=None, cover=None):
    """The torsor half of a classification run: the family, its
    isomorphism classes, and the checks on each class representative.
    Takes the arguments of ``classify`` and returns the run, with the
    verdict so far in ``run.check``."""
    run = _run(kind, site, coefficients, trunc, bound, cover)
    flavour = run.flavour
    run.family = flavour.family(run)
    run.searched = searched = flavour.searched(run) if flavour.searched else run.family
    run.torsor_classes = _grouped(
        len(searched), lambda i, j: bool(flavour.iso(run, searched[i], searched[j]))
    )
    run.check = Check(flavour.claim, True, params={"trunc": run.trunc, "depth": PLUS_STEPS})
    for members in run.torsor_classes:
        for part in flavour.checks(run, members[0]):
            run.check.add(part)
    return run


def classify(kind, site, coefficients, trunc=None, bound=None, cover=None):
    """Classify the torsors of one flavour over the site.

    coefficients: a GroupPresheaf for "group", a GroupoidPresheaf for
    the two groupoid flavours, a FinGroup for "2gpd", and an
    SgdPresheaf for "sgroup" and "sgpd", which take their truncation
    from it.
    """
    run = classify_torsors(kind, site, coefficients, trunc, bound, cover)
    flavour, check, torsor_classes = run.flavour, run.check, run.torsor_classes
    run.target = flavour.target(run)
    run.source = cech_resolution(site, run.cover, run.trunc)
    run.maps = maps = enumerate_sset_presheaf_maps(run.source, run.target, bound=bound)
    run.map_classes = map_classes = presheaf_map_classes(maps)
    run.matching = matching = [(ci, _match(run, ci, check)) for ci in range(len(torsor_classes))]
    keys = flavour.extra(run, check) if flavour.extra else {}
    assignment = [j for _, j in matching]
    check.add(
        require(
            len(torsor_classes) == len(map_classes),
            "both sides have the same number of classes",
            torsor_classes=len(torsor_classes),
            map_classes=len(map_classes),
        )
    )
    check.add(
        require(
            None not in assignment
            and sorted(assignment) == list(range(len(map_classes))),
            "classifying maps hit every homotopy class exactly once",
            assignment=matching,
        )
    )
    return {
        "kind": kind,
        "family": len(run.family),
        "torsor_classes": torsor_classes,
        "map_count": len(maps),
        "map_classes": map_classes,
        "matching": matching,
        "classes": len(torsor_classes),
        "check": check,
        **keys,
    }
