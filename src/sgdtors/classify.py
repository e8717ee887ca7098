"""Classification runs for every torsor flavour.

Each run computes two sides and matches them class by class:

* the torsor side enumerates a family of representatives and groups
  them into isomorphism classes by searching for equivariant maps;
* the maps side enumerates strict presheaf maps from the covering
  resolution of the point into the flavour's classifying object and
  groups them into homotopy classes over the cylinder.

The bridge in both directions is the transition cocycle of a chosen
local section: a torsor yields a classifying map on the nose, and the
map's homotopy class is located among the enumerated ones.  The report
fails loudly whenever the two sides disagree.

One driver, ``classify``, runs every flavour.  ``FLAVOURS`` holds one
entry per flavour: how to build the torsor family and the objects the
isomorphism search compares, that search, the classifying target, the
checks on each class representative, the classifying map, and any
extra checks and report keys (the cocycle-class count for the group
flavours, the bundle round trip, the represented torsors for ``sgpd``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace

from .bundles import (
    SgdPresheafMap,
    cech_sgd_presheaf,
    corepresented_diagram,
    enumerate_sgd_presheaf_maps,
    level0_group_torsor,
    psi_sgd,
    sgd_diagram_maps,
    sgd_torsor_check,
    sgroup_torsor_check,
    twisted_sgroup_action,
    twisted_two_gpd_action,
    two_gpd_action_maps,
    two_gpd_display,
    two_gpd_torsor_check,
    validate_sgd_diagram,
    vertex_group_presheaf,
)
from .groupoid import group_as_2groupoid
from .holim import holim_2gpd
from .kan import enumerate_sset_maps
from .presheaf import (
    SgdPresheaf,
    SSetPresheaf,
    SSetPresheafMap,
    constant_group_presheaf,
    validate_sset_presheaf_map,
)
from .report import Check, InvariantError, require, unique_hit
from .sgroupoid import string_steps
from .sheaf import cech_resolution, cover_elements
from .sset import delta, sset_product
from .torsors import (
    ActionTorsor,
    action_to_bundle,
    action_torsor_check,
    action_torsor_maps,
    bg_presheaf,
    bundle_to_action,
    bundle_torsor_check,
    db_presheaf,
    enumerate_action_torsors,
    enumerate_group_cochains,
    enumerate_group_torsors,
    group_presheaf_as_groupoid,
    group_torsor_check,
    group_torsor_maps,
    group_torsor_to_action,
    h1_cech_classes,
    torsor_cech_class,
    wbar_presheaf,
)

def star_cover(site):
    """The designated covering family of the terminal presheaf."""
    return {"object": None, "family": list(site.star_covers[0])}


# ---------------------------------------------------------------------------
# strict presheaf maps and homotopy classes of them


def _natural_components(Y: SSetPresheaf, Z: SSetPresheaf, comps) -> bool:
    for f, (V, U) in Y.site.cat.morphisms.items():
        X = Y.values[U]
        for n in range(X.trunc + 1):
            for x in X.level(n):
                if Z.res[f][n][comps[U][n][x]] != comps[V][n][Y.res[f][n][x]]:
                    return False
    return True


def _components_of(Y: SSetPresheaf, per_section) -> dict:
    return {
        U: {
            n: {x: per_section[U](n, x) for x in Y.values[U].level(n)}
            for n in range(Y.values[U].trunc + 1)
        }
        for U in Y.site.objects
    }


def enumerate_sset_presheaf_maps(Y: SSetPresheaf, Z: SSetPresheaf, bound=None):
    """All strict presheaf maps: sectionwise simplicial maps that are
    natural along every site morphism."""
    site = Y.site
    slots = []
    total = 1
    for U in site.objects:
        maps_U = enumerate_sset_maps(Y.values[U], Z.values[U])
        if not maps_U:
            return []
        slots.append(maps_U)
        total *= len(maps_U)
        if bound is not None and total > bound:
            raise ValueError(
                f"presheaf map enumeration needs {total} candidates, bound is {bound}"
            )
    out = []
    for combo in itertools.product(*slots):
        per = dict(zip(site.objects, combo))
        comps = _components_of(Y, per)
        if _natural_components(Y, Z, comps):
            out.append(SSetPresheafMap(Y, Z, comps))
    return out


def cylinder_presheaf(Y: SSetPresheaf) -> SSetPresheaf:
    """Sectionwise product with the interval, restricting the first
    coordinate only."""
    site = Y.site
    trunc = Y.values[site.objects[0]].trunc
    I = delta(1, trunc)
    values = {U: sset_product(Y.values[U], I) for U in site.objects}
    res = {
        f: {
            n: {
                (x, t): (Y.res[f][n][x], t)
                for (x, t) in values[U].level(n)
            }
            for n in range(trunc + 1)
        }
        for f, (V, U) in site.cat.morphisms.items()
    }
    return SSetPresheaf(site, values, res)


def presheaf_homotopies(f: SSetPresheafMap, g: SSetPresheafMap, limit=1):
    """Natural cylinder homotopies from f to g, found sectionwise with
    both ends forced and then filtered for naturality."""
    Y, Z = f.source, f.target
    P = cylinder_presheaf(Y)
    site = Y.site
    slots = []
    for U in site.objects:
        X = Y.values[U]
        forced = {}
        for n in range(X.trunc + 1):
            for x in X.level(n):
                forced[(n, (x, (0,) * (n + 1)))] = f.components[U][n][x]
                forced[(n, (x, (1,) * (n + 1)))] = g.components[U][n][x]
        maps_U = enumerate_sset_maps(P.values[U], Z.values[U], forced=forced)
        if not maps_U:
            return []
        slots.append(maps_U)
    out = []
    for combo in itertools.product(*slots):
        per = dict(zip(site.objects, combo))
        comps = _components_of(P, per)
        if _natural_components(P, Z, comps):
            out.append(SSetPresheafMap(P, Z, comps))
            if limit is not None and len(out) >= limit:
                break
    return out


def presheaf_homotopic(f: SSetPresheafMap, g: SSetPresheafMap) -> bool:
    if f.components == g.components:
        return True
    return bool(presheaf_homotopies(f, g) or presheaf_homotopies(g, f))


def _grouped(count, related):
    parent = list(range(count))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(count):
        for j in range(i + 1, count):
            if find(i) != find(j) and related(i, j):
                parent[find(j)] = find(i)
    classes = {}
    for i in range(count):
        classes.setdefault(find(i), []).append(i)
    return [sorted(members) for _, members in sorted(classes.items())]


def presheaf_map_classes(maps):
    """Homotopy classes of strict presheaf maps, as index lists."""
    return _grouped(len(maps), lambda i, j: presheaf_homotopic(maps[i], maps[j]))


# ---------------------------------------------------------------------------
# classifying maps from torsors


def _cocycle_map(source: SSetPresheaf, target: SSetPresheaf, entry) -> SSetPresheafMap:
    """The map sending a cell of section W at level n to
    entry(W)(n, cell), checked to be a strict presheaf map."""
    per_section = {W: entry(W) for W in source.site.objects}
    u = SSetPresheafMap(source, target, _components_of(source, per_section))
    ok, problems = validate_sset_presheaf_map(u)
    if not ok:
        raise InvariantError(f"cocycle tables are not a presheaf map: {problems[:3]}")
    return u


def _chosen(cover, pool):
    """The first entry of pool(member) for each cover member, by index."""
    chosen = {}
    for i, member in enumerate(cover["family"]):
        found = pool(member)
        if not found:
            raise InvariantError(f"no section over {member!r} to trivialise with")
        chosen[i] = found[0]
    return chosen


def _transition(hits):
    return unique_hit(hits, "transitions must be unique to classify")


def action_classifying_map(
    T: ActionTorsor, cover, trunc, target: SSetPresheaf = None
) -> SSetPresheafMap:
    """The transition cocycle of one chosen section over each cover
    member, as a map from the covering resolution into the nerve."""
    site = T.total.site
    if target is None:
        target = bg_presheaf(T.gpd, trunc)
    chosen = _chosen(cover, lambda member: T.total.values[member])
    E = cover_elements(site, cover)

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

        return lambda n, cell: (
            anchor[local[cell[0]]],
            tuple(transition(cell[m - 1], cell[m]) for m in range(1, n + 1)),
        )

    return _cocycle_map(cech_resolution(site, cover, trunc), target, entry)


def sgroup_classifying_map(
    A, cover, target: SSetPresheaf = None
) -> SSetPresheafMap:
    """Transition cocycle of an enriched group action with a discrete
    total space, into the cocycle object."""
    Q = A.group
    site = Q.site
    trunc = next(iter(Q.values.values())).trunc
    if target is None:
        target = wbar_presheaf(Q)
    chosen = _chosen(cover, lambda member: A.space.values[member].level(0))
    E = cover_elements(site, cover)

    def entry(W):
        H = Q.values[W]
        a = next(iter(H.objects))
        local = {(i, h): A.space.res[h][0][chosen[i]] for (i, h) in E.values[W]}

        def transition(prev, nxt, k):
            x, y = local[nxt], local[prev]
            return _transition(
                [g for g in H.homs[(a, a)].level(k) if A.act(W, k, g, x) == y]
            )

        return lambda n, cell: (
            (a,) * (n + 1),
            tuple(transition(cell[m - 1], cell[m], n - m) for m in range(1, n + 1)),
        )

    return _cocycle_map(cech_resolution(site, cover, trunc), target, entry)


def two_gpd_base_presheaf(site, T, trunc) -> SSetPresheaf:
    """The constant presheaf on the 2-groupoid's cocycle object."""
    _, proj = holim_2gpd(
        T,
        {p: () for p in T.objects},
        lambda arrow, x: x,
        trunc,
    )
    W = proj.target
    return SSetPresheaf(
        site,
        {U: W for U in site.objects},
        {
            f: {n: {s: s for s in W.level(n)} for n in range(trunc + 1)}
            for f in site.morphisms
        },
    )


def two_gpd_classifying_map(
    A, cover, trunc, target: SSetPresheaf = None
) -> SSetPresheafMap:
    """Transition cocycle of a 2-groupoid action, for discrete hom
    2-cells; entries are degenerate strings on the transition arrow."""
    site = A.site
    T = A.gpd2
    if target is None:
        target = two_gpd_base_presheaf(site, T, trunc)
    chosen = _chosen(
        cover,
        lambda member: [
            x for p in sorted(A.elements[member]) for x in A.elements[member][p]
        ],
    )
    E = cover_elements(site, cover)

    def entry(W):
        owner = {x: p for p, xs in A.elements[W].items() for x in xs}
        local = {(i, h): A.res[h][chosen[i]] for (i, h) in E.values[W]}
        anchors = {e: owner[local[e]] for e in local}
        act = A.act1[W]

        def transition(prev, nxt):
            x, y = local[nxt], local[prev]
            arrows = T.homs[(anchors[nxt], anchors[prev])].objects
            return _transition([arrow for arrow in arrows if act[(arrow, x)] == y])

        def cell_value(n, cell):
            steps = [transition(cell[m - 1], cell[m]) for m in range(1, n + 1)]
            return (
                tuple(anchors[e] for e in cell),
                tuple((t, (("id", t),) * (n - m)) for m, t in enumerate(steps, 1)),
            )

        return cell_value

    return _cocycle_map(cech_resolution(site, cover, trunc), target, entry)


def db_presheaf_map(u: SgdPresheafMap) -> SSetPresheafMap:
    """Diagonal nerve of a map of enriched groupoid presheaves."""
    DP = db_presheaf(u.source)
    DQ = db_presheaf(u.target)

    def entry(U):
        F, H = u.components[U], u.source.values[U]
        return lambda n, cell: (
            F.ob[cell[0]],
            tuple(F.on_hom(a, b, n, g) for (a, b, g) in string_steps(H, *cell, n)),
        )

    per_section = {U: entry(U) for U in DP.site.objects}
    return SSetPresheafMap(DP, DQ, _components_of(DP, per_section))


def sgd_classifying_map(
    u: SgdPresheafMap, cover, target: SSetPresheaf = None
) -> SSetPresheafMap:
    """For a map off the covering coefficients, the induced cocycle map
    on resolutions: entries are the images of the unique connecting
    cells, read backwards along each string."""
    P, Q = u.source, u.target
    trunc = next(iter(P.values.values())).trunc
    if target is None:
        target = wbar_presheaf(Q)

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

    return _cocycle_map(cech_resolution(P.site, cover, trunc), target, entry)


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

    return _cocycle_map(source, target, entry)


# ---------------------------------------------------------------------------
# the flavour table


@dataclass(frozen=True)
class Flavour:
    """What one torsor flavour gives the classification run.

    The functions take the run, a namespace holding classify()'s
    arguments and what the run has built so far.  They name the
    searches and checks through module globals, looked up at call time,
    so that a wrapper rebound over a global after import (as
    perfbench/tracing.py installs) sees every call.
    """

    claim: str
    enriched: bool         # truncation is the coefficients', not an argument
    family: object         # run -> the torsor family
    iso: object            # (run, x, y) -> isomorphisms of searched objects
    target: object         # run -> the classifying presheaf
    checks: object         # (run, i) -> checks on family member i
    classifying_map: object  # (run, i) -> the cocycle map of member i
    searched: object = None  # run -> what the isomorphism search compares
    extra: object = None   # (run, check) -> report keys, after the matching


def _bundle_family(run):
    run.actions = enumerate_action_torsors(run.coeff, run.bound)
    return [action_to_bundle(T, run.trunc) for T in run.actions]


def _two_gpd_family(run):
    G = constant_group_presheaf(run.site, run.coeff)
    cochains = enumerate_group_cochains(G, run.bound)
    return [twisted_two_gpd_action(run.site, run.coeff, c) for c in cochains]


def _sgroup_family(run):
    run.vertex_group = vertex_group_presheaf(run.coeff)
    cochains = enumerate_group_cochains(run.vertex_group, run.bound)
    return [twisted_sgroup_action(run.coeff, c) for c in cochains]


def _sgd_family(run):
    P = cech_sgd_presheaf(run.site, run.cover, run.trunc)
    run.charts = enumerate_sgd_presheaf_maps(P, run.coeff, bound=run.bound)
    return [psi_sgd(u) for u in run.charts]


def _cech_classes(run, G):
    """The cocycle class of each torsor class's representative, sorted,
    and the number of cocycle classes."""
    data = h1_cech_classes(G, run.cover["family"])
    found = sorted(
        torsor_cech_class(run.searched[members[0]], data)
        for members in run.torsor_classes
    )
    return found, len(data["reps"])


def _group_cech(run, check):
    found, count = _cech_classes(run, run.coeff)
    check.add(
        require(
            found == list(range(count)),
            "torsor classes match cocycle classes exactly",
            classes=found,
            cocycle_classes=count,
        )
    )
    return {"cocycle_classes": count}


def _sgroup_cech(run, check):
    found, count = _cech_classes(run, run.vertex_group)
    check.add(
        require(
            found == list(range(count)),
            "vertex-level classes match cocycle classes exactly",
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
    ok, problems = validate_sgd_diagram(run.family[i])
    return [
        require(ok, "pullback is a valid diagram", witness=problems[:3]),
        sgd_torsor_check(run.family[i], depth=run.depth),
    ]


def _represented_torsors(run, check):
    """The represented torsor at each constant object classifies by the
    constant cocycle; a strict comparison with its class exists only
    when no section carries more than one chart."""
    Q, site = run.coeff, run.site
    constant_objects = [
        a
        for a in sorted(
            set.intersection(*[set(H.objects) for H in Q.values.values()]),
            key=repr,
        )
        if all(Q.res[f].ob.get(a) == a for f in site.morphisms)
    ]
    for a in constant_objects:
        triv = constant_cocycle_map(run.source, run.target, Q, a)
        partners = [
            ci
            for ci, mj in run.matching
            if mj == _locate(triv, run.maps, run.map_classes)
        ]
        D = corepresented_diagram(Q, {U: a for U in site.objects})
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
        family=lambda run: enumerate_group_torsors(run.coeff, run.bound),
        iso=lambda run, x, y: group_torsor_maps(x, y),
        target=lambda run: bg_presheaf(group_presheaf_as_groupoid(run.coeff), run.trunc),
        checks=lambda run, i: [group_torsor_check(run.family[i], depth=run.depth)],
        classifying_map=lambda run, i: action_classifying_map(
            group_torsor_to_action(run.family[i]), run.cover, run.trunc,
            target=run.target,
        ),
        extra=_group_cech,
    ),
    "groupoid-action": Flavour(
        "anchored torsors match classifying maps",
        enriched=False,
        family=lambda run: enumerate_action_torsors(run.coeff, run.bound),
        iso=lambda run, x, y: action_torsor_maps(x, y),
        target=lambda run: bg_presheaf(run.coeff, run.trunc),
        checks=lambda run, i: [action_torsor_check(run.family[i], depth=run.depth)],
        classifying_map=lambda run, i: action_classifying_map(
            run.family[i], run.cover, run.trunc, target=run.target
        ),
    ),
    "groupoid-bundle": Flavour(
        "pulled-back bundles match classifying maps",
        enriched=False,
        family=_bundle_family,
        searched=lambda run: [bundle_to_action(B) for B in run.family],
        iso=lambda run, x, y: action_torsor_maps(x, y),
        target=lambda run: bg_presheaf(run.coeff, run.trunc),
        checks=lambda run, i: [bundle_torsor_check(run.family[i], depth=run.depth)],
        classifying_map=lambda run, i: action_classifying_map(
            run.searched[i], run.cover, run.trunc, target=run.target
        ),
        extra=_bundle_round_trip,
    ),
    "2gpd": Flavour(
        "2-groupoid actions match classifying maps",
        enriched=False,
        family=_two_gpd_family,
        iso=lambda run, x, y: two_gpd_action_maps(x, y),
        target=lambda run: two_gpd_base_presheaf(
            run.site, group_as_2groupoid(run.coeff), run.trunc
        ),
        checks=lambda run, i: [
            two_gpd_torsor_check(
                *two_gpd_display(run.family[i], run.trunc), depth=run.depth
            )
        ],
        classifying_map=lambda run, i: two_gpd_classifying_map(
            run.family[i], run.cover, run.trunc, target=run.target
        ),
    ),
    "sgroup": Flavour(
        "enriched group actions match classifying maps",
        enriched=True,
        family=_sgroup_family,
        searched=lambda run: [level0_group_torsor(A) for A in run.family],
        iso=lambda run, x, y: group_torsor_maps(x, y),
        target=lambda run: wbar_presheaf(run.coeff),
        checks=lambda run, i: [sgroup_torsor_check(run.family[i], depth=run.depth)],
        classifying_map=lambda run, i: sgroup_classifying_map(
            run.family[i], run.cover, target=run.target
        ),
        extra=_sgroup_cech,
    ),
    "sgpd": Flavour(
        "pulled-back diagrams match classifying maps",
        enriched=True,
        family=_sgd_family,
        iso=lambda run, x, y: sgd_diagram_maps(x, y, bound=run.bound),
        target=lambda run: wbar_presheaf(run.coeff),
        checks=_sgd_checks,
        classifying_map=lambda run, i: sgd_classifying_map(
            run.charts[i], run.cover, target=run.target
        ),
        extra=_represented_torsors,
    ),
}

KINDS = tuple(FLAVOURS)


# ---------------------------------------------------------------------------
# the classification run


def _locate(u: SSetPresheafMap, maps, classes):
    for index, candidate in enumerate(maps):
        if candidate.components == u.components:
            for ci, members in enumerate(classes):
                if index in members:
                    return ci
    for ci, members in enumerate(classes):
        if any(presheaf_homotopic(u, maps[k]) for k in members):
            return ci
    return None


def classify(kind, site, coefficients, trunc=None, depth=2, bound=None,
             cover=None):
    """Classify the torsors of one flavour over the site.

    coefficients: a GroupPresheaf for "group", a GroupoidPresheaf for
    the two groupoid flavours, a FinGroup for "2gpd", and an
    SgdPresheaf for "sgroup" and "sgpd", which take their truncation
    from it.
    """
    if kind not in FLAVOURS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    flavour = FLAVOURS[kind]
    if flavour.enriched:
        trunc = next(iter(coefficients.values.values())).trunc
    run = SimpleNamespace(
        site=site, coeff=coefficients, trunc=trunc, depth=depth, bound=bound,
        cover=cover or star_cover(site),
    )
    run.family = flavour.family(run)
    run.searched = searched = flavour.searched(run) if flavour.searched else run.family
    run.torsor_classes = torsor_classes = _grouped(
        len(searched), lambda i, j: bool(flavour.iso(run, searched[i], searched[j]))
    )
    run.target = flavour.target(run)
    run.source = cech_resolution(site, run.cover, trunc)
    run.maps = maps = enumerate_sset_presheaf_maps(run.source, run.target, bound=bound)
    run.map_classes = map_classes = presheaf_map_classes(maps)
    check = Check(flavour.claim, True, params={"trunc": trunc, "depth": depth})
    representatives = [members[0] for members in torsor_classes]
    for i in representatives:
        for part in flavour.checks(run, i):
            check.add(part)
    run.matching = matching = [
        (ci, _locate(flavour.classifying_map(run, i), maps, map_classes))
        for ci, i in enumerate(representatives)
    ]
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
