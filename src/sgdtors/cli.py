"""Command-line front door: schema-checked JSON in, certificates out.

Each subcommand wraps one library construction: `wbar`, `w-total`, and
`j-map` emit cocycle objects with level tables; `check` runs named
verdicts; `holim`, `comma`, `alpha-beta`, and `fibre-check` cover the
diagram side; `torsor` and `h1` run the classification machinery; and
`fixtures` writes the built-in corpus.  Emitted JSON is canonical, so
emit, parse, emit again is byte-identical and certificates can be
diffed.  Exit codes: 0 when every certificate passes, 1 when any
fails, 2 for invalid input, reported with JSON pointers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass, field

from .bundles import (
    constant_enrichment,
    corepresented_diagram,
    sgd_torsor_check,
    sgroup_torsor_check,
    translation_action,
    twisted_two_gpd_action,
    two_gpd_display,
    two_gpd_torsor_check,
    vertex_group_presheaf,
    vertex_groupoid_presheaf,
)
from .classify import KINDS, classify, star_cover
from .fixtures import interval_sgd, pt_site, s1_site, twocomp_sgd, z2_sgroup
from .holim import corepresented_functor, holim, holim_projection, homotopy_fibre_check
from .join import alpha_beta_check, naturality_check
from .kan import kan_check, weq_check
from .presheaf import SgdPresheaf, constant_sgd_presheaf, validate_sgd_presheaf
from .report import Check, require
from .sgroupoid import (
    SgdFunctor,
    SimpGroupoid,
    db_sgroupoid,
    identity_functor,
    validate_sgroupoid,
)
from .site import FinCat, FinSite, validate_cat
from .sset import (
    DEFAULT_TRUNC,
    TruncSSet,
    build_sset,
    idkey,
    validate_sset,
    validate_sset_map,
)
from .torsors import (
    group_torsor_check,
    group_torsor_to_action,
    h1_cech_classes,
    h1_cech_oracle,
    representable_action_torsor,
    trivial_group_torsor,
)
from .wbar import free_action_check, j_map, w_total, wbar


class SchemaError(Exception):
    """Invalid input, located by a JSON pointer into the offending file."""

    def __init__(self, pointer, message):
        self.pointer = pointer
        self.message = message
        super().__init__(f"invalid input at {pointer or 'document root'}: {message}")


# ---------------------------------------------------------------------------
# Canonical JSON.  Simplex ids and site names are nested tuples, strings,
# and integers; JSON carries tuples as arrays and table keys as the
# compact JSON encoding of the id, so parsing is exact and re-emitting
# is byte-identical.


def as_data(x):
    if isinstance(x, tuple):
        return [as_data(v) for v in x]
    return x


def as_key(x):
    if isinstance(x, list):
        return tuple(as_key(v) for v in x)
    return x


def kenc(x):
    return json.dumps(as_data(x), sort_keys=True, separators=(",", ":"))


def kdec(s, where):
    try:
        return as_key(json.loads(s))
    except json.JSONDecodeError:
        raise SchemaError(where, f"table key {s!r} is not canonical JSON")


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=1)


def _get(obj, key, where, typ=None, required=True, default=None):
    if not isinstance(obj, dict):
        raise SchemaError(where, "expected an object")
    if key not in obj:
        if required:
            raise SchemaError(where, f"missing key {key!r}")
        return default
    val = obj[key]
    if typ is not None and not isinstance(val, typ):
        raise SchemaError(f"{where}/{key}", f"expected {typ.__name__}")
    return val


def _int_key(s, where):
    try:
        return int(s)
    except (TypeError, ValueError):
        raise SchemaError(where, f"expected an integer key, got {s!r}")


def _triple(row, where):
    if not isinstance(row, list) or len(row) != 3:
        raise SchemaError(where, "expected a three-entry array")
    return tuple(as_key(v) for v in row)


def _pair(row, where):
    if not isinstance(row, list) or len(row) != 2:
        raise SchemaError(where, "expected a two-entry array")
    return as_key(row[0]), as_key(row[1])


# ---------------------------------------------------------------------------
# Simplicial set files.


def encode_sset(X: TruncSSet) -> dict:
    return {
        "trunc": X.trunc,
        "simplices": {
            str(n): [as_data(x) for x in X.level(n)] for n in range(X.trunc + 1)
        },
        "faces": {
            str(n): {
                str(i): {kenc(x): as_data(y) for x, y in X.faces[(n, i)].items()}
                for i in range(n + 1)
            }
            for n in range(1, X.trunc + 1)
        },
        "degeneracies": {
            str(n): {
                str(j): {kenc(x): as_data(y) for x, y in X.degeneracies[(n, j)].items()}
                for j in range(n + 1)
            }
            for n in range(X.trunc)
        },
    }


def decode_sset(obj, where="") -> TruncSSet:
    trunc = _get(obj, "trunc", where, int)
    if trunc < 0:
        raise SchemaError(f"{where}/trunc", "truncation must be nonnegative")
    raw = _get(obj, "simplices", where, dict)
    simplices = {}
    for n in range(trunc + 1):
        cells = _get(raw, str(n), f"{where}/simplices", list)
        simplices[n] = tuple(as_key(x) for x in cells)

    def tables(key, dims):
        src = _get(obj, key, where, dict)
        out = {}
        for n in dims:
            level = _get(src, str(n), f"{where}/{key}", dict)
            for i in range(n + 1):
                tab = _get(level, str(i), f"{where}/{key}/{n}", dict)
                out[(n, i)] = {
                    kdec(k, f"{where}/{key}/{n}/{i}"): as_key(v)
                    for k, v in tab.items()
                }
        return out

    X = TruncSSet(
        trunc,
        simplices,
        tables("faces", range(1, trunc + 1)),
        tables("degeneracies", range(trunc)),
    )
    ok, problems = validate_sset(X)
    if not ok:
        raise SchemaError(where, f"not a simplicial set: {problems[0]}")
    return X


def encode_sset_map(f) -> dict:
    return {
        "source": encode_sset(f.source),
        "target": encode_sset(f.target),
        "assignments": {
            str(n): {kenc(x): as_data(y) for x, y in f.levels[n].items()}
            for n in sorted(f.levels)
        },
    }


# ---------------------------------------------------------------------------
# Site files.


def encode_site(S: FinSite) -> dict:
    cat = S.cat
    composition = sorted(
        ([as_data(g), as_data(f), as_data(h)] for (g, f), h in cat.comp.items()),
        key=lambda row: json.dumps(row, sort_keys=True),
    )
    covers = [
        {"object": None, "family": [as_data(u) for u in fam]} for fam in S.star_covers
    ]
    for U in sorted(S.covers, key=idkey):
        for fam in S.covers[U]:
            covers.append({"object": as_data(U), "family": [as_data(f) for f in fam]})
    return {
        "objects": [as_data(a) for a in cat.objects],
        "morphisms": [
            {"id": as_data(f), "src": as_data(s), "dst": as_data(d)}
            for f, (s, d) in sorted(cat.morphisms.items(), key=lambda kv: idkey(kv[0]))
        ],
        "composition": composition,
        "covers": covers,
    }


def decode_site(obj, where="") -> FinSite:
    objects = tuple(as_key(a) for a in _get(obj, "objects", where, list))
    morphisms = {}
    for k, m in enumerate(_get(obj, "morphisms", where, list)):
        mw = f"{where}/morphisms/{k}"
        f = as_key(_get(m, "id", mw))
        s, d = as_key(_get(m, "src", mw)), as_key(_get(m, "dst", mw))
        if s not in objects or d not in objects:
            raise SchemaError(mw, "endpoints are not listed objects")
        if f in morphisms:
            raise SchemaError(f"{mw}/id", f"duplicate morphism id {f!r}")
        morphisms[f] = (s, d)
    comp = {}
    for k, row in enumerate(_get(obj, "composition", where, list)):
        cw = f"{where}/composition/{k}"
        g, f, h = _triple(row, cw)
        for m in (g, f, h):
            if m not in morphisms:
                raise SchemaError(cw, f"unknown morphism {m!r}")
        comp[(g, f)] = h
    identities = {}
    for a in objects:
        found = [
            e
            for e, (s, d) in morphisms.items()
            if s == d == a
            and all(
                comp.get((f, e)) == f
                for f, (s2, _) in morphisms.items()
                if s2 == a
            )
            and all(
                comp.get((e, g)) == g
                for g, (_, d2) in morphisms.items()
                if d2 == a
            )
        ]
        if len(found) != 1:
            raise SchemaError(
                f"{where}/composition", f"no unique identity at {a!r}"
            )
        identities[a] = found[0]
    cat = FinCat(objects, morphisms, comp, identities)
    ok, problems = validate_cat(cat)
    if not ok:
        raise SchemaError(where, f"not a category: {problems[0]}")
    star, covers = [], {}
    for k, c in enumerate(_get(obj, "covers", where, list, required=False, default=[])):
        cw = f"{where}/covers/{k}"
        base = as_key(_get(c, "object", cw))
        fam = [as_key(u) for u in _get(c, "family", cw, list)]
        if base is None:
            for u in fam:
                if u not in objects:
                    raise SchemaError(f"{cw}/family", f"{u!r} is not an object")
            star.append(fam)
        else:
            if base not in objects:
                raise SchemaError(f"{cw}/object", f"{base!r} is not an object")
            for f in fam:
                if f not in morphisms or morphisms[f][1] != base:
                    raise SchemaError(
                        f"{cw}/family", f"{f!r} does not map into {base!r}"
                    )
            covers.setdefault(base, []).append(fam)
    return FinSite(cat, covers, star)


# ---------------------------------------------------------------------------
# Enriched groupoid files, and presheaves of them keyed by site object.


def encode_sgd(H: SimpGroupoid) -> dict:
    composition = []
    for (a, b, c) in sorted(H.comp, key=lambda t: tuple(idkey(x) for x in t)):
        levels = {
            str(n): sorted(
                ([as_data(g), as_data(f), as_data(h)] for (g, f), h in tab.items()),
                key=lambda row: json.dumps(row, sort_keys=True),
            )
            for n, tab in H.comp[(a, b, c)].items()
        }
        composition.append(
            {"src": as_data(a), "mid": as_data(b), "dst": as_data(c), "levels": levels}
        )
    pairs = sorted(H.homs, key=lambda ab: (idkey(ab[0]), idkey(ab[1])))
    return {
        "trunc": H.trunc,
        "objects": [as_data(a) for a in H.objects],
        "homs": [
            {"src": as_data(a), "dst": as_data(b), "cells": encode_sset(H.homs[(a, b)])}
            for (a, b) in pairs
        ],
        "composition": composition,
        "identities": [[as_data(a), as_data(H.identities[a])] for a in H.objects],
    }


def decode_sgd(obj, where="") -> SimpGroupoid:
    trunc = _get(obj, "trunc", where, int)
    objects = tuple(as_key(a) for a in _get(obj, "objects", where, list))
    homs = {}
    for k, h in enumerate(_get(obj, "homs", where, list)):
        hw = f"{where}/homs/{k}"
        a, b = as_key(_get(h, "src", hw)), as_key(_get(h, "dst", hw))
        cells = decode_sset(_get(h, "cells", hw, dict), f"{hw}/cells")
        if cells.trunc != trunc:
            raise SchemaError(f"{hw}/cells/trunc", "hom truncation differs")
        homs[(a, b)] = cells
    missing = set(itertools.product(objects, repeat=2)) - set(homs)
    if missing:
        raise SchemaError(
            f"{where}/homs", f"missing hom entry for {sorted(missing, key=idkey)[0]!r}"
        )
    comp = {}
    for k, c in enumerate(_get(obj, "composition", where, list)):
        cw = f"{where}/composition/{k}"
        a = as_key(_get(c, "src", cw))
        b = as_key(_get(c, "mid", cw))
        d = as_key(_get(c, "dst", cw))
        levels = {}
        for ns, rows in _get(c, "levels", cw, dict).items():
            n = _int_key(ns, f"{cw}/levels")
            tab = {}
            for r, row in enumerate(rows):
                g, f, gf = _triple(row, f"{cw}/levels/{ns}/{r}")
                tab[(g, f)] = gf
            levels[n] = tab
        comp[(a, b, d)] = levels
    identities = {}
    for k, row in enumerate(_get(obj, "identities", where, list)):
        a, e = _pair(row, f"{where}/identities/{k}")
        identities[a] = e
    H = SimpGroupoid(trunc, objects, homs, comp, identities)
    ok, problems = validate_sgroupoid(H)
    if not ok:
        raise SchemaError(where, f"not an enriched groupoid: {problems[0]}")
    return H


def encode_sgd_presheaf(Q: SgdPresheaf) -> dict:
    site = Q.site
    restrictions = []
    for f in sorted(site.cat.morphisms, key=idkey):
        F = Q.res[f]
        V, U = site.cat.morphisms[f]
        maps = []
        for (a, b) in sorted(F.maps, key=lambda ab: (idkey(ab[0]), idkey(ab[1]))):
            levels = {
                str(n): sorted(
                    ([as_data(c), as_data(y)] for c, y in tab.items()),
                    key=lambda row: json.dumps(row, sort_keys=True),
                )
                for n, tab in F.maps[(a, b)].items()
            }
            maps.append({"src": as_data(a), "dst": as_data(b), "levels": levels})
        restrictions.append(
            {
                "morphism": as_data(f),
                "ob": [
                    [as_data(a), as_data(F.ob[a])] for a in Q.values[U].objects
                ],
                "maps": maps,
            }
        )
    return {
        "site": encode_site(site),
        "values": [[as_data(U), encode_sgd(Q.values[U])] for U in site.objects],
        "restrictions": restrictions,
    }


def decode_sgd_presheaf(obj, where="") -> SgdPresheaf:
    site = decode_site(_get(obj, "site", where, dict), f"{where}/site")
    values = {}
    for k, row in enumerate(_get(obj, "values", where, list)):
        vw = f"{where}/values/{k}"
        if not isinstance(row, list) or len(row) != 2:
            raise SchemaError(vw, "expected [object, groupoid]")
        U = as_key(row[0])
        if U not in site.objects:
            raise SchemaError(f"{vw}/0", f"{U!r} is not a site object")
        values[U] = decode_sgd(row[1], f"{vw}/1")
    if set(values) != set(site.objects):
        raise SchemaError(f"{where}/values", "need one groupoid per site object")
    res = {}
    for k, r in enumerate(_get(obj, "restrictions", where, list)):
        rw = f"{where}/restrictions/{k}"
        f = as_key(_get(r, "morphism", rw))
        if f not in site.cat.morphisms:
            raise SchemaError(f"{rw}/morphism", f"unknown morphism {f!r}")
        V, U = site.cat.morphisms[f]
        ob = {}
        for j, row in enumerate(_get(r, "ob", rw, list)):
            a, y = _pair(row, f"{rw}/ob/{j}")
            ob[a] = y
        maps = {}
        for j, m in enumerate(_get(r, "maps", rw, list)):
            mw = f"{rw}/maps/{j}"
            a, b = as_key(_get(m, "src", mw)), as_key(_get(m, "dst", mw))
            levels = {}
            for ns, rows in _get(m, "levels", mw, dict).items():
                n = _int_key(ns, f"{mw}/levels")
                levels[n] = dict(
                    _pair(row, f"{mw}/levels/{ns}/{i}") for i, row in enumerate(rows)
                )
            maps[(a, b)] = levels
        res[f] = SgdFunctor(values[U], values[V], ob, maps)
    if set(res) != set(site.cat.morphisms):
        raise SchemaError(
            f"{where}/restrictions", "need one restriction per site morphism"
        )
    Q = SgdPresheaf(site, values, res)
    ok, problems = validate_sgd_presheaf(Q)
    if not ok:
        raise SchemaError(where, f"not an enriched presheaf: {problems[0]}")
    return Q


# ---------------------------------------------------------------------------
# Run configuration and certificates.


# candidate budget for the enumeration guards; carriers themselves are
# group-section sized, so this caps the cochain and map product spaces
DEFAULT_BOUND = 65536


@dataclass
class RunConfig:
    trunc: int = None
    depth: int = 2
    bound: int = DEFAULT_BOUND
    inputs: tuple = ()
    site: str = None
    kind: str = None
    at: str = None
    target: str = None
    out: str = None
    format: str = "text"


def config_problems(cfg: RunConfig):
    problems = []
    if cfg.trunc is not None and cfg.trunc < 2:
        problems.append(("/trunc", "truncation must be at least 2"))
    if cfg.depth < 1:
        problems.append(("/depth", "refinement depth must be positive"))
    if cfg.bound < 1:
        problems.append(("/bound", "enumeration bound must be positive"))
    if cfg.format not in ("json", "text"):
        problems.append(("/format", "format must be json or text"))
    return problems


def _plain(v):
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return repr(v)


@dataclass
class Certificate:
    claim: str
    verdict: str
    parameters: dict
    witnesses: list
    detail: dict = None

    def to_obj(self):
        obj = {
            "claim": self.claim,
            "verdict": self.verdict,
            "parameters": self.parameters,
            "witnesses": self.witnesses,
        }
        if self.detail is not None:
            obj["detail"] = self.detail
        return obj


def _failing_leaves(check: Check, acc):
    if check.ok:
        return
    bad = [p for p in check.parts if not p.ok]
    if not bad:
        acc.append(
            {
                "claim": check.claim,
                "witness": _plain(check.witness),
                "params": _plain(check.params),
            }
        )
    for p in bad:
        _failing_leaves(p, acc)


def certificate(claim, check: Check, **parameters) -> Certificate:
    params = dict(parameters)
    for k, v in check.params.items():
        params.setdefault(k, v)
    witnesses = []
    _failing_leaves(check, witnesses)
    return Certificate(
        claim,
        "PASS" if check.ok else "FAIL",
        _plain(params),
        witnesses,
        check.to_obj(),
    )


# ---------------------------------------------------------------------------
# Input plumbing shared by the handlers.


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError("", f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"{path} is not JSON: {exc}")


def load_sgd(path) -> SimpGroupoid:
    obj = load_json(path)
    if "homs" not in obj:
        raise SchemaError("", f"{path} does not look like an enriched groupoid file")
    return decode_sgd(obj)


def load_site(path) -> FinSite:
    obj = load_json(path)
    if "covers" not in obj:
        raise SchemaError("", f"{path} does not look like a site file")
    return decode_site(obj)


def load_coefficient(path, site: FinSite) -> SgdPresheaf:
    """A coefficient file is either an enriched groupoid, spread out as a
    constant presheaf over --site, or a full presheaf with its own site."""
    obj = load_json(path)
    if "values" in obj:
        Q = decode_sgd_presheaf(obj)
        if site is not None and encode_site(Q.site) != encode_site(site):
            raise SchemaError("/site", "--site disagrees with the coefficient's site")
        return Q
    if "homs" in obj:
        if site is None:
            raise SchemaError("/site", "a bare coefficient needs --site")
        return constant_sgd_presheaf(site, decode_sgd(obj))
    raise SchemaError("", f"{path} is neither a groupoid nor a presheaf file")


def truncate_sset(X: TruncSSet, N) -> TruncSSet:
    return build_sset(N, X.level, X.face, X.degen)


def truncate_sgd(H: SimpGroupoid, N) -> SimpGroupoid:
    if N == H.trunc:
        return H
    homs = {ab: truncate_sset(hom, N) for ab, hom in H.homs.items()}
    comp = {
        abc: {n: tab for n, tab in levels.items() if n <= N}
        for abc, levels in H.comp.items()
    }
    return SimpGroupoid(N, H.objects, homs, comp, dict(H.identities))


def truncate_sgd_presheaf(Q: SgdPresheaf, N) -> SgdPresheaf:
    if N == presheaf_trunc(Q):
        return Q
    values = {U: truncate_sgd(H, N) for U, H in Q.values.items()}
    res = {}
    for f, (V, U) in Q.site.cat.morphisms.items():
        F = Q.res[f]
        maps = {
            ab: {n: tab for n, tab in m.items() if n <= N} for ab, m in F.maps.items()
        }
        res[f] = SgdFunctor(values[U], values[V], dict(F.ob), maps)
    return SgdPresheaf(Q.site, values, res)


def presheaf_trunc(Q: SgdPresheaf):
    return next(iter(Q.values.values())).trunc


def resolve_trunc(cfg: RunConfig, available):
    N = cfg.trunc if cfg.trunc is not None else available
    if N < 2:
        raise SchemaError("/trunc", "truncation must be at least 2")
    if N > available:
        raise SchemaError(
            "/trunc", f"requested truncation {N} exceeds the file's {available}"
        )
    return N


def parse_object(text, objects, pointer="/object"):
    if text is None:
        return sorted(objects, key=idkey)[0]
    try:
        a = as_key(json.loads(text))
    except json.JSONDecodeError:
        a = text
    if a not in objects:
        raise SchemaError(pointer, f"{a!r} is not one of the objects")
    return a


def levels_line(counts):
    return " ".join(str(c) for c in counts)


# ---------------------------------------------------------------------------
# Handlers.  Each returns (certificates, artifacts).


def cmd_wbar(cfg: RunConfig):
    H = load_sgd(cfg.inputs[0])
    N = resolve_trunc(cfg, H.trunc)
    W = wbar(truncate_sgd(H, N))
    ok, problems = validate_sset(W)
    check = require(
        ok,
        "cocycle object is a simplicial set",
        witness=problems[:3],
        trunc=N,
        levels=W.level_counts(),
    )
    return [certificate("wbar/levels", check, input=cfg.inputs[0])], {
        "wbar": encode_sset(W)
    }


def cmd_w_total(cfg: RunConfig):
    H = load_sgd(cfg.inputs[0])
    N = resolve_trunc(cfg, H.trunc)
    T = w_total(truncate_sgd(H, N))
    ok, problems = validate_sset(T)
    check = require(
        ok,
        "total object is a simplicial set",
        witness=problems[:3],
        trunc=N,
        levels=T.level_counts(),
    )
    return [certificate("w-total/levels", check, input=cfg.inputs[0])], {
        "w-total": encode_sset(T)
    }


def cmd_j_map(cfg: RunConfig):
    H = load_sgd(cfg.inputs[0])
    N = resolve_trunc(cfg, H.trunc)
    j = j_map(truncate_sgd(H, N))
    ok, problems = validate_sset_map(j)
    check = require(
        ok,
        "diagonal-to-cocycle comparison is simplicial",
        witness=problems[:3],
        trunc=N,
        source_levels=j.source.level_counts(),
        target_levels=j.target.level_counts(),
    )
    return [certificate("j-map/simplicial", check, input=cfg.inputs[0])], {
        "j-map": encode_sset_map(j)
    }


def cmd_check(cfg: RunConfig):
    H = load_sgd(cfg.inputs[0])
    N = resolve_trunc(cfg, H.trunc)
    H = truncate_sgd(H, N)
    if cfg.target == "j-weq":
        check = weq_check(j_map(H))
    elif cfg.target == "kan":
        maxdim = min(3, N - 1)
        check = Check(
            "diagonal and cocycle objects lift all inner and outer horns",
            True,
            params={"trunc": N, "maxdim": maxdim},
        )
        check.add(kan_check(db_sgroupoid(H), maxdim))
        check.add(kan_check(wbar(H), maxdim))
    else:
        check = free_action_check(H)
    return [
        certificate(f"check/{cfg.target}", check, input=cfg.inputs[0], trunc=N)
    ], {}


def cmd_holim(cfg: RunConfig):
    H = load_sgd(cfg.inputs[0])
    N = resolve_trunc(cfg, H.trunc)
    H = truncate_sgd(H, N)
    a = parse_object(cfg.at, H.objects)
    X = corepresented_functor(H, a)
    Y = holim(X)
    p = holim_projection(X)
    check = Check(
        "homotopy colimit of the corepresented diagram",
        True,
        params={"trunc": N, "at": repr(a), "levels": Y.level_counts()},
    )
    ok, problems = validate_sset(Y)
    check.add(require(ok, "carrier is a simplicial set", witness=problems[:3]))
    ok, problems = validate_sset_map(p)
    check.add(require(ok, "projection is simplicial", witness=problems[:3]))
    return [certificate("holim/corepresented", check, input=cfg.inputs[0])], {
        "holim": encode_sset(Y)
    }


def cmd_comma(cfg: RunConfig):
    from .holim import comma_db

    H = load_sgd(cfg.inputs[0])
    N = resolve_trunc(cfg, H.trunc)
    H = truncate_sgd(H, N)
    a = parse_object(cfg.at, H.objects)
    D = comma_db(identity_functor(H), a)
    ok, problems = validate_sset(D)
    check = require(
        ok,
        "comma object is a simplicial set",
        witness=problems[:3],
        trunc=N,
        at=repr(a),
        levels=D.level_counts(),
    )
    return [certificate("comma/levels", check, input=cfg.inputs[0])], {
        "comma": encode_sset(D)
    }


def cmd_alpha_beta(cfg: RunConfig):
    H = load_sgd(cfg.inputs[0])
    N = resolve_trunc(cfg, H.trunc)
    H = truncate_sgd(H, N)
    check = Check("interval prism on doubled strings", True, params={"trunc": N})
    check.add(alpha_beta_check(H))
    check.add(naturality_check(identity_functor(H)))
    return [certificate("alpha-beta/prism", check, input=cfg.inputs[0])], {}


def cmd_fibre_check(cfg: RunConfig):
    H = load_sgd(cfg.inputs[0])
    N = resolve_trunc(cfg, H.trunc)
    H = truncate_sgd(H, N)
    a = parse_object(cfg.at, H.objects)
    check = homotopy_fibre_check(corepresented_functor(H, a), maxdim=min(3, N - 1))
    return [
        certificate("fibre-check/corepresented", check, input=cfg.inputs[0], at=repr(a))
    ], {}


def _kind_coefficients(kind, site, Q: SgdPresheaf):
    """Extract what a classification kind consumes from an enriched
    presheaf, guarding the shapes that only make sense one-object."""
    one_object = all(len(H.objects) == 1 for H in Q.values.values())
    if kind in ("group", "2gpd", "sgroup") and not one_object:
        raise SchemaError("/kind", f"kind {kind!r} needs one-object coefficients")
    if kind == "group":
        return vertex_group_presheaf(Q)
    if kind in ("groupoid-action", "groupoid-bundle"):
        return vertex_groupoid_presheaf(Q)
    if kind == "2gpd":
        G = vertex_group_presheaf(Q)
        groups = list(G.values.values())
        same = all(
            H.elements == groups[0].elements and H.mul == groups[0].mul
            for H in groups
        ) and all(
            G.res[f][g] == g for f in site.cat.morphisms for g in groups[0].elements
        )
        if not same:
            raise SchemaError("/kind", "kind '2gpd' needs a constant group coefficient")
        return groups[0]
    return Q


def cmd_torsor(cfg: RunConfig):
    site = load_site(cfg.site) if cfg.site else None
    Q = load_coefficient(cfg.inputs[0], site)
    site = Q.site
    N = resolve_trunc(cfg, presheaf_trunc(Q))
    Q = truncate_sgd_presheaf(Q, N)
    coeff = _kind_coefficients(cfg.kind, site, Q)
    family = star_cover(site)["family"]

    if cfg.target == "check":
        check = _canonical_torsor_check(cfg.kind, site, Q, coeff, N, cfg.depth)
        cert = certificate(
            f"torsor/check/{cfg.kind}",
            check,
            kind=cfg.kind,
            trunc=N,
            depth=cfg.depth,
            cover=family,
            input=cfg.inputs[0],
        )
        return [cert], {}

    if cfg.kind == "sgpd" and not all(constant_enrichment(H) for H in Q.values.values()):
        raise SchemaError("/kind", "kind 'sgpd' enumerates only constant hom enrichments")
    try:
        result = classify(
            cfg.kind, site, coeff, trunc=N, depth=cfg.depth, bound=cfg.bound
        )
    except ValueError as exc:
        raise SchemaError("/bound", str(exc))
    params = {
        "kind": cfg.kind,
        "trunc": N,
        "depth": cfg.depth,
        "bound": cfg.bound,
        "cover": family,
        "input": cfg.inputs[0],
        "family": result["family"],
        "torsor_classes": result["torsor_classes"],
        "classes": result["classes"],
    }
    if cfg.target == "enumerate":
        cert = certificate(f"torsor/enumerate/{cfg.kind}", result["check"], **params)
        return [cert], {}
    params.update(
        map_count=result["map_count"],
        map_classes=result["map_classes"],
        matching=result["matching"],
    )
    if "cocycle_classes" in result:
        params["cocycle_classes"] = result["cocycle_classes"]
    cert = certificate(f"torsor/classify/{cfg.kind}", result["check"], **params)
    return [cert], {}


def _canonical_torsor_check(kind, site, Q, coeff, N, depth) -> Check:
    """Verdict for the translation-style torsor each kind owns."""
    if kind == "group":
        return group_torsor_check(trivial_group_torsor(coeff), depth)
    if kind in ("groupoid-action", "groupoid-bundle"):
        common = set(next(iter(coeff.values.values())).objects)
        for gpd in coeff.values.values():
            common &= set(gpd.objects)
        if not common:
            raise SchemaError("/kind", "no shared object to anchor the torsor at")
        T = representable_action_torsor(coeff, sorted(common, key=idkey)[0])
        if kind == "groupoid-action":
            from .torsors import action_torsor_check

            return action_torsor_check(T, depth)
        from .torsors import action_to_bundle, bundle_torsor_check

        return bundle_torsor_check(action_to_bundle(T, N), depth)
    if kind == "2gpd":
        zero = {f: coeff.e for f in site.cat.morphisms}
        total, pi = two_gpd_display(twisted_two_gpd_action(site, coeff, zero), N)
        return two_gpd_torsor_check(total, pi, depth)
    if kind == "sgroup":
        return sgroup_torsor_check(translation_action(Q), depth)
    common = set(next(iter(Q.values.values())).objects)
    for H in Q.values.values():
        common &= set(H.objects)
    if not common:
        raise SchemaError("/kind", "no shared object to corepresent at")
    D = corepresented_diagram(Q, sorted(common, key=idkey)[0])
    return sgd_torsor_check(D, depth)


def cmd_h1(cfg: RunConfig):
    site = load_site(cfg.site) if cfg.site else None
    Q = load_coefficient(cfg.inputs[0], site)
    if any(len(H.objects) != 1 for H in Q.values.values()):
        raise SchemaError("/kind", "first-cohomology counts need one-object coefficients")
    G = vertex_group_presheaf(Q)
    data = h1_cech_classes(G)
    oracle = h1_cech_oracle(G)
    check = require(
        len(data["reps"]) == oracle,
        "orbit count matches the independent cocycle count",
        witness={"orbits": len(data["reps"]), "independent": oracle},
        classes=len(data["reps"]),
        cover=list(data["cover"]),
    )
    return [certificate("h1/classes", check, input=cfg.inputs[0])], {}


def fixture_corpus():
    """The built-in corpus: two sites (one with a covered variant) and
    three coefficient groupoids, all at the default truncation."""
    return {
        "pt.json": encode_site(pt_site()),
        "s1.json": encode_site(s1_site()),
        "s1cov.json": encode_site(s1_site(object_covers=True)),
        "z2const.json": encode_sgd(z2_sgroup(DEFAULT_TRUNC)),
        "interval.json": encode_sgd(interval_sgd(DEFAULT_TRUNC)),
        "twocomp.json": encode_sgd(twocomp_sgd(DEFAULT_TRUNC)),
    }


def cmd_fixtures(cfg: RunConfig):
    outdir = cfg.out or "fixtures"
    os.makedirs(outdir, exist_ok=True)
    certs = []
    for name, obj in sorted(fixture_corpus().items()):
        text = dumps(obj)
        path = os.path.join(outdir, name)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        decoded = decode_site(obj) if "covers" in obj else decode_sgd(obj)
        back = encode_site(decoded) if "covers" in obj else encode_sgd(decoded)
        check = require(
            dumps(back) == text,
            "file validates and round-trips byte-exactly",
            witness={"path": path},
            path=path,
        )
        certs.append(certificate(f"fixtures/{name}", check))
    return certs, {}


HANDLERS = {
    "wbar": cmd_wbar,
    "w-total": cmd_w_total,
    "j-map": cmd_j_map,
    "check": cmd_check,
    "holim": cmd_holim,
    "comma": cmd_comma,
    "alpha-beta": cmd_alpha_beta,
    "fibre-check": cmd_fibre_check,
    "torsor": cmd_torsor,
    "h1": cmd_h1,
    "fixtures": cmd_fixtures,
}


def run(command, config: RunConfig):
    """Execute one subcommand.

    Returns (exit_code, certificates, artifacts); exit 0 when every
    certificate passes, 1 when any fails, 2 for invalid input, with the
    problems listed under artifacts["invalid"] as pointer/message pairs.
    """
    problems = config_problems(config)
    if problems:
        return 2, [], {"invalid": [{"pointer": p, "message": m} for p, m in problems]}
    handler = HANDLERS.get(command)
    if handler is None:
        return 2, [], {
            "invalid": [{"pointer": "/command", "message": f"unknown command {command!r}"}]
        }
    try:
        certs, artifacts = handler(config)
    except SchemaError as exc:
        return 2, [], {
            "invalid": [{"pointer": exc.pointer, "message": exc.message}]
        }
    code = 0 if all(c.verdict == "PASS" for c in certs) else 1
    return code, certs, artifacts


# ---------------------------------------------------------------------------
# Rendering and argument plumbing.


def _level_table(counts):
    lines = ["  dim | cells"]
    for n, c in enumerate(counts):
        lines.append(f"  {n:>3} | {c}")
    return lines


def render_text(certs, artifacts):
    lines = []
    for inv in artifacts.get("invalid", []):
        lines.append(
            f"invalid input at {inv['pointer'] or 'document root'}: {inv['message']}"
        )
    for c in certs:
        shown = {
            k: v
            for k, v in sorted(c.parameters.items())
            if k not in ("levels", "matching", "torsor_classes", "map_classes")
        }
        extra = (
            " [" + ", ".join(f"{k}={v}" for k, v in shown.items()) + "]" if shown else ""
        )
        lines.append(f"{c.verdict} {c.claim}{extra}")
        if "levels" in c.parameters:
            lines.extend(_level_table(c.parameters["levels"]))
        for key in ("source_levels", "target_levels"):
            if key in c.parameters:
                lines.append(f"  {key.split('_')[0]}: {levels_line(c.parameters[key])}")
        if "torsor_classes" in c.parameters:
            sizes = [len(members) for members in c.parameters["torsor_classes"]]
            lines.append(
                f"  torsor classes: {len(sizes)} (sizes {levels_line(sizes)})"
            )
        if "map_classes" in c.parameters:
            sizes = [len(members) for members in c.parameters["map_classes"]]
            lines.append(f"  map classes: {len(sizes)} (sizes {levels_line(sizes)})")
        if "matching" in c.parameters:
            pairs = ", ".join(
                f"torsor {i} ~ map {j}" for i, j in c.parameters["matching"]
            )
            lines.append(f"  matching: {pairs}")
        for w in c.witnesses:
            lines.append(f"  witness: {w['claim']}: {w['witness']}")
    return "\n".join(lines)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sgdtors",
        description="Cocycle constructions, homotopy colimits, and torsor "
        "classification over finite sites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, inputs=1):
        if inputs:
            p.add_argument("inputs", nargs=inputs, metavar="FILE")
        p.add_argument("--trunc", type=int, default=None)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--bound", type=int, default=None)
        p.add_argument("--site", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "text"), default=None)
        p.add_argument("--config", default=None, help="JSON file of default flags")

    for name in ("wbar", "w-total", "j-map", "alpha-beta"):
        common(sub.add_parser(name))
    p = sub.add_parser("check")
    p.add_argument("target", choices=("j-weq", "kan", "free-action"))
    common(p)
    for name in ("holim", "comma", "fibre-check"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--object", dest="at", default=None)
    p = sub.add_parser("torsor")
    p.add_argument("target", choices=("check", "enumerate", "classify"))
    p.add_argument("--kind", choices=KINDS, required=True)
    common(p)
    common(sub.add_parser("h1"))
    common(sub.add_parser("fixtures"), inputs=0)
    return parser


def config_from_args(ns):
    defaults = {"trunc": None, "depth": 2, "bound": DEFAULT_BOUND, "format": "text"}
    fromfile = {}
    if getattr(ns, "config", None):
        obj = load_json(ns.config)
        if not isinstance(obj, dict):
            raise SchemaError("", "config file must be a JSON object")
        for key in defaults:
            if key in obj:
                want = str if key == "format" else int
                if not isinstance(obj[key], want):
                    raise SchemaError(f"/{key}", f"expected {want.__name__}")
                fromfile[key] = obj[key]

    def pick(key):
        flag = getattr(ns, key, None)
        if flag is not None:
            return flag
        return fromfile.get(key, defaults[key])

    return RunConfig(
        trunc=pick("trunc"),
        depth=pick("depth"),
        bound=pick("bound"),
        inputs=tuple(getattr(ns, "inputs", ()) or ()),
        site=getattr(ns, "site", None),
        kind=getattr(ns, "kind", None),
        at=getattr(ns, "at", None),
        target=getattr(ns, "target", None),
        out=getattr(ns, "out", None),
        format=pick("format"),
    )


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = config_from_args(ns)
    except SchemaError as exc:
        print(f"invalid input at {exc.pointer or 'document root'}: {exc.message}")
        return 2
    code, certs, artifacts = run(ns.command, cfg)
    doc = {
        "command": ns.command,
        "certificates": [c.to_obj() for c in certs],
        "artifacts": artifacts,
    }
    if cfg.format == "json":
        print(dumps(doc))
    else:
        print(render_text(certs, artifacts))
    if cfg.out and ns.command != "fixtures":
        with open(cfg.out, "w") as fh:
            fh.write(dumps(doc) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
