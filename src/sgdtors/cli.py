"""Command-line front door: schema-checked JSON in, certificates out.

Each subcommand wraps one library construction: `wbar`, `w-total`, and
`j-map` emit cocycle objects with level tables; `check` runs named
verdicts; `holim`, `comma`, `alpha-beta`, and `fibre-check` cover the
diagram side; `torsor` and `h1` run the classification machinery; and
`fixtures` writes the built-in corpus.  `torsor` keeps no per-kind code:
it dispatches through ``classify.FLAVOURS``, whose entry for ``--kind``
reads the coefficients off the input presheaf and, for `torsor check`,
builds the translation-style torsor and runs classification's own
torsor check on it.

Settings come only from flags, and a subcommand takes only those its
handler reads (``FLAGS``): each takes ``--out`` and ``--format``; `wbar`,
`w-total`, `j-map`, `alpha-beta` and `check` add ``--trunc``; `holim`,
`comma` and `fibre-check` add ``--trunc`` and ``--object``; `torsor`
adds ``--kind``, ``--trunc``, ``--bound`` and ``--site``; `h1` adds
``--site``; `fixtures` adds nothing.  Any other flag is a usage error.

Every verdict is a ``Check``; a certificate is its JSON object
(``Check.to_obj``, under ``detail``) inside a parameter envelope, with
the verdict and the failing leaves as witnesses.  Emitted JSON is
canonical, so emit, parse, emit again is byte-identical and
certificates can be diffed.  Exit codes: 0 when every certificate
passes, 1 when any fails, 2 for invalid input (an unwritable ``--out``
included), reported with JSON pointers, and for a usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass, replace

from .bundles import constant_enrichment, vertex_group_presheaf
from .classify import FLAVOURS, KINDS, canonical_check, classify, classify_torsors
from .fixtures import interval_sgd, pt_site, s1_site, twocomp_sgd, z2_sgroup
from .holim import comma_db, corepresented_functor, holim_projection, homotopy_fibre_check
from .join import alpha_beta, alpha_beta_check, naturality_check
from .kan import kan_check, weq_check
from .presheaf import (
    SgdPresheaf,
    constant_sgd_presheaf,
    validate_sgd_presheaf_laws,
)
from .report import Check, require
from .sgroupoid import (
    SgdFunctor,
    SimpGroupoid,
    db_sgroupoid,
    identity_functor,
    validate_sgd_functor,
    validate_sgroupoid,
)
from .sheaf import PLUS_STEPS, cech_local_epi_check
from .site import FinCat, FinSite, star_cover, validate_site
from .sset import (
    DEFAULT_TRUNC,
    TruncSSet,
    idkey,
    truncated,
    validate_sset,
    validate_sset_map,
)
from .torsors import _shared_values, gauge_orbit_count, h1_cech_classes
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
# is byte-identical.  A table keyed by pairs (composition, a restriction
# level) travels as rows, arrays of ids with the value last, sorted by
# their JSON text (``_rows``); ``_row`` reads one row back and
# ``_level_tables`` a ``levels`` object of them, pointing at the row.


def as_data(x):
    if isinstance(x, tuple):
        return [as_data(v) for v in x]
    return x


def as_key(x, where):
    if isinstance(x, list):
        return tuple(as_key(v, f"{where}/{i}") for i, v in enumerate(x))
    if isinstance(x, dict):
        raise SchemaError(where, "an id cannot be an object")
    return x


def kenc(x):
    return json.dumps(as_data(x), sort_keys=True, separators=(",", ":"))


def kdec(s, where):
    """The id a table key names.  Only ``kenc``'s text of that id is a
    key, so no two keys of one table name one id."""
    try:
        key = as_key(json.loads(s), where)
    except json.JSONDecodeError:
        pass
    else:
        if kenc(key) == s:
            return key
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


def _id(obj, key, where, typ=None):
    """The id at obj[key]; with typ=list, the tuple of ids there."""
    return as_key(_get(obj, key, where, typ), f"{where}/{key}")


def _int_key(s, where):
    try:
        return int(s)
    except (TypeError, ValueError):
        raise SchemaError(where, f"expected an integer key, got {s!r}")


def _rows(rows):
    """Table rows, each a tuple of ids, as JSON arrays in the order of
    their JSON text."""
    encoded = (as_data(row) for row in rows)
    return sorted(encoded, key=lambda row: json.dumps(row, sort_keys=True))


def _row(row, where, width):
    if not isinstance(row, list) or len(row) != width:
        raise SchemaError(where, f"expected a {['two', 'three'][width - 2]}-entry array")
    return as_key(row, where)


def _put(table, key, value, where, what):
    """table[key] = value, for a key that no earlier entry of the file
    gave: a repeated one is invalid input at ``where``, even when it
    repeats the value."""
    if key in table:
        raise SchemaError(where, f"{what} {key!r} is repeated")
    table[key] = value
    return value


def _level_tables(obj, where, width):
    """The ``levels`` of obj: for each level, rows whose last entry is
    the value at the key the others make (one entry is its own key)."""
    tables = {}
    for ns, rows in _get(obj, "levels", where, dict).items():
        n = _int_key(ns, f"{where}/levels")
        if not isinstance(rows, list):
            raise SchemaError(f"{where}/levels/{ns}", "expected an array of rows")
        table = _put(tables, n, {}, f"{where}/levels/{ns}", "level")
        for i, row in enumerate(rows):
            rw = f"{where}/levels/{ns}/{i}"
            row = _row(row, rw, width)
            _put(table, row[0] if width == 2 else row[:-1], row[-1], rw, "row for")
    return tables


# ---------------------------------------------------------------------------
# Simplicial set files.


def encode_sset(X: TruncSSet) -> dict:
    def tables(tabs, dims):
        return {
            str(n): {
                str(i): {kenc(x): as_data(y) for x, y in tabs[(n, i)].items()}
                for i in range(n + 1)
            }
            for n in dims
        }

    return {
        "trunc": X.trunc,
        "simplices": {
            str(n): [as_data(x) for x in X.level(n)] for n in range(X.trunc + 1)
        },
        "faces": tables(X.faces, range(1, X.trunc + 1)),
        "degeneracies": tables(X.degeneracies, range(X.trunc)),
    }


def decode_sset(obj, where="") -> TruncSSet:
    trunc = _get(obj, "trunc", where, int)
    if trunc < 0:
        raise SchemaError(f"{where}/trunc", "truncation must be nonnegative")
    raw = _get(obj, "simplices", where, dict)
    simplices = {}
    for n in range(trunc + 1):
        cells = _get(raw, str(n), f"{where}/simplices", list)
        simplices[n] = as_key(cells, f"{where}/simplices/{n}")

    def tables(key, dims):
        src = _get(obj, key, where, dict)
        out = {}
        for n in dims:
            level = _get(src, str(n), f"{where}/{key}", dict)
            for i in range(n + 1):
                tab = _get(level, str(i), f"{where}/{key}/{n}", dict)
                tw = f"{where}/{key}/{n}/{i}"
                out[(n, i)] = {kdec(k, tw): as_key(v, f"{tw}/{k}") for k, v in tab.items()}
        return out

    X = TruncSSet(
        trunc,
        simplices,
        tables("faces", range(1, trunc + 1)),
        tables("degeneracies", range(trunc)),
    )
    checked = validate_sset(X)
    if not checked:
        raise SchemaError(where, f"not a simplicial set: {checked.witness[0]}")
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
        "composition": _rows((g, f, h) for (g, f), h in cat.comp.items()),
        "covers": covers,
    }


def decode_site(obj, where="") -> FinSite:
    objects = _id(obj, "objects", where, list)
    if not objects:
        raise SchemaError(f"{where}/objects", "a site needs at least one object")
    seen = set()
    for a in objects:
        if a in seen:
            raise SchemaError(f"{where}/objects", f"object {a!r} is repeated")
        seen.add(a)
    morphisms = {}
    for k, m in enumerate(_get(obj, "morphisms", where, list)):
        mw = f"{where}/morphisms/{k}"
        f, s, d = _id(m, "id", mw), _id(m, "src", mw), _id(m, "dst", mw)
        if s not in objects or d not in objects:
            raise SchemaError(mw, "endpoints are not listed objects")
        if f in morphisms:
            raise SchemaError(f"{mw}/id", f"duplicate morphism id {f!r}")
        morphisms[f] = (s, d)
    comp = {}
    for k, row in enumerate(_get(obj, "composition", where, list)):
        cw = f"{where}/composition/{k}"
        g, f, h = _row(row, cw, 3)
        for m in (g, f, h):
            if m not in morphisms:
                raise SchemaError(cw, f"unknown morphism {m!r}")
        _put(comp, (g, f), h, cw, "composite of")
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
    star, covers = {}, {}
    for k, c in enumerate(_get(obj, "covers", where, list, required=False, default=[])):
        cw = f"{where}/covers/{k}"
        base = _id(c, "object", cw)
        fam = list(_id(c, "family", cw, list))
        if base is None:
            for u in fam:
                if u not in objects:
                    raise SchemaError(f"{cw}/family", f"{u!r} is not an object")
            star[f"{cw}/family"] = fam
        else:
            if base not in objects:
                raise SchemaError(f"{cw}/object", f"{base!r} is not an object")
            for f in fam:
                if f not in morphisms or morphisms[f][1] != base:
                    raise SchemaError(
                        f"{cw}/family", f"{f!r} does not map into {base!r}"
                    )
            covers.setdefault(base, []).append(fam)
    if not star:
        raise SchemaError(f"{where}/covers", "no cover of the terminal presheaf")
    site = FinSite(cat, covers, list(star.values()))
    category, *parts = validate_site(site).parts
    if not category:
        raise SchemaError(where, f"not a category: {category.witness[0]}")
    for part in parts:
        if not part:
            raise SchemaError(f"{where}/covers", f"{part.claim} fails: {part.witness!r}")
    for pointer, fam in star.items():
        hit = cech_local_epi_check(site, fam)
        if not hit:
            miss = hit.parts[-1]
            raise SchemaError(pointer, f"family does not cover the point: {miss.claim} "
                                       f"fails at {miss.witness!r}")
    return site


# ---------------------------------------------------------------------------
# Enriched groupoid files, and presheaves of them keyed by site object.


def encode_sgd(H: SimpGroupoid) -> dict:
    composition = []
    for (a, b, c) in sorted(H.comp, key=lambda t: tuple(idkey(x) for x in t)):
        levels = {
            str(n): _rows((g, f, h) for (g, f), h in tab.items())
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
    objects = _id(obj, "objects", where, list)
    homs = {}
    for k, h in enumerate(_get(obj, "homs", where, list)):
        hw = f"{where}/homs/{k}"
        a, b = _id(h, "src", hw), _id(h, "dst", hw)
        cells = decode_sset(_get(h, "cells", hw, dict), f"{hw}/cells")
        if cells.trunc != trunc:
            raise SchemaError(f"{hw}/cells/trunc", "hom truncation differs")
        _put(homs, (a, b), cells, hw, "hom")
    missing = set(itertools.product(objects, repeat=2)) - set(homs)
    if missing:
        raise SchemaError(
            f"{where}/homs", f"missing hom entry for {sorted(missing, key=idkey)[0]!r}"
        )
    comp = {}
    for k, c in enumerate(_get(obj, "composition", where, list)):
        cw = f"{where}/composition/{k}"
        a, b, d = _id(c, "src", cw), _id(c, "mid", cw), _id(c, "dst", cw)
        _put(comp, (a, b, d), _level_tables(c, cw, 3), cw, "composition of")
    identities = {}
    for k, row in enumerate(_get(obj, "identities", where, list)):
        iw = f"{where}/identities/{k}"
        a, e = _row(row, iw, 2)
        _put(identities, a, e, iw, "identity at")
    H = SimpGroupoid(trunc, objects, homs, comp, identities)
    checked = validate_sgroupoid(H)
    if not checked:
        raise SchemaError(where, f"not an enriched groupoid: {checked.witness[0]}")
    return H


def encode_sgd_presheaf(Q: SgdPresheaf) -> dict:
    site = Q.site
    restrictions = []
    for f in sorted(site.cat.morphisms, key=idkey):
        F = Q.res[f]
        V, U = site.cat.morphisms[f]
        maps = []
        for (a, b) in sorted(F.maps, key=lambda ab: (idkey(ab[0]), idkey(ab[1]))):
            levels = {str(n): _rows(tab.items()) for n, tab in F.maps[(a, b)].items()}
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
    # equal sections decode to one groupoid, keyed by canonical JSON text,
    # so whatever is built once per distinct section is shared
    values, decoded = {}, {}
    for k, row in enumerate(_get(obj, "values", where, list)):
        vw = f"{where}/values/{k}"
        if not isinstance(row, list) or len(row) != 2:
            raise SchemaError(vw, "expected [object, groupoid]")
        U = as_key(row[0], f"{vw}/0")
        if U not in site.objects:
            raise SchemaError(f"{vw}/0", f"{U!r} is not a site object")
        text = dumps(row[1])
        if text not in decoded:
            decoded[text] = decode_sgd(row[1], f"{vw}/1")
        _put(values, U, decoded[text], f"{vw}/0", "section over")
    if set(values) != set(site.objects):
        raise SchemaError(f"{where}/values", "need one groupoid per site object")
    res = {}
    for k, r in enumerate(_get(obj, "restrictions", where, list)):
        rw = f"{where}/restrictions/{k}"
        f = _id(r, "morphism", rw)
        if f not in site.cat.morphisms:
            raise SchemaError(f"{rw}/morphism", f"unknown morphism {f!r}")
        V, U = site.cat.morphisms[f]
        ob = {}
        for j, row in enumerate(_get(r, "ob", rw, list)):
            a, y = _row(row, f"{rw}/ob/{j}", 2)
            _put(ob, a, y, f"{rw}/ob/{j}", "object map entry for")
        maps = {}
        for j, m in enumerate(_get(r, "maps", rw, list)):
            mw = f"{rw}/maps/{j}"
            a, b = _id(m, "src", mw), _id(m, "dst", mw)
            _put(maps, (a, b), _level_tables(m, mw, 2), mw, "hom map")
        F = SgdFunctor(values[U], values[V], ob, maps)
        _put(res, f, F, f"{rw}/morphism", "restriction along")
        checked = validate_sgd_functor(F)
        if not checked:
            raise SchemaError(rw, f"not an enriched functor: {checked.witness[0]}")
    if set(res) != set(site.cat.morphisms):
        raise SchemaError(
            f"{where}/restrictions", "need one restriction per site morphism"
        )
    # sections and restrictions are checked above, entry by entry
    Q = SgdPresheaf(site, values, res)
    checked = validate_sgd_presheaf_laws(Q)
    if not checked:
        raise SchemaError(where, f"not an enriched presheaf: {checked.witness[0]}")
    return Q


# ---------------------------------------------------------------------------
# Run configuration and certificates.


# candidate budget for the enumeration guards; carriers themselves are
# group-section sized, so this caps the cochain and map product spaces
DEFAULT_BOUND = 65536


@dataclass
class RunConfig:
    """One run's settings.  The command line gives only the flags its
    subcommand reads; every other field keeps the default here."""

    trunc: int = None
    bound: int = DEFAULT_BOUND
    inputs: tuple = ()
    site: str = None
    kind: str = None
    at: str = None
    target: str = None
    out: str = None
    format: str = "text"


def _plain(v):
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return repr(v)


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


def certificate(claim, check: Check, **parameters) -> dict:
    """The certificate of a check, as its JSON object: the verdict, the
    parameter envelope (the given parameters over the check's own), the
    failing leaves as witnesses, and the check itself as ``detail``."""
    witnesses = []
    _failing_leaves(check, witnesses)
    return {
        "claim": claim,
        "verdict": "PASS" if check.ok else "FAIL",
        "parameters": _plain({**check.params, **parameters}),
        "witnesses": witnesses,
        "detail": check.to_obj(),
    }


# ---------------------------------------------------------------------------
# Input plumbing shared by the handlers.


def _unrepeated(pairs):
    """A JSON object's members as a dict; ``json`` would keep the last of
    a repeated key, so a repeat is invalid input."""
    obj = {}
    for key, value in pairs:
        _put(obj, key, value, "", "key")
    return obj


def load_json(path):
    """The JSON object in the file at path, in which no object repeats a
    key."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_unrepeated)
    except FileNotFoundError:
        raise SchemaError("", f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"{path} is not JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError("", f"cannot read {path}: {exc}")
    if not isinstance(obj, dict):
        raise SchemaError("", f"{path} does not hold a JSON object")
    return obj


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


def load_coefficient(cfg: RunConfig) -> SgdPresheaf:
    """The first input: an enriched groupoid, spread out as a constant
    presheaf over --site, or a full presheaf with its own site."""
    site = load_site(cfg.site) if cfg.site else None
    path = cfg.inputs[0]
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


def truncate_sgd(H: SimpGroupoid, N) -> SimpGroupoid:
    if N == H.trunc:
        return H
    homs = {ab: truncated(X, N) for ab, X in H.homs.items()}
    comp = {
        abc: {n: tab for n, tab in levels.items() if n <= N}
        for abc, levels in H.comp.items()
    }
    return SimpGroupoid(N, H.objects, homs, comp, dict(H.identities))


def truncate_sgd_presheaf(Q: SgdPresheaf, N) -> SgdPresheaf:
    if N == Q.trunc:
        return Q
    values = _shared_values(Q.values, lambda H: truncate_sgd(H, N))
    res = {}
    for f, (V, U) in Q.site.cat.morphisms.items():
        F = Q.res[f]
        maps = {
            ab: {n: tab for n, tab in m.items() if n <= N} for ab, m in F.maps.items()
        }
        res[f] = SgdFunctor(values[U], values[V], dict(F.ob), maps)
    return SgdPresheaf(Q.site, values, res)


def resolve_trunc(cfg: RunConfig, available):
    N = cfg.trunc if cfg.trunc is not None else available
    if N < 2:
        raise SchemaError("/trunc", "truncation must be at least 2")
    if N > available:
        raise SchemaError(
            "/trunc", f"requested truncation {N} exceeds the file's {available}"
        )
    return N


def load_truncated_sgd(cfg: RunConfig):
    """The enriched groupoid of the first input, cut at the requested
    truncation, and that truncation."""
    H = load_sgd(cfg.inputs[0])
    N = resolve_trunc(cfg, H.trunc)
    return truncate_sgd(H, N), N


def parse_object(text, objects):
    if text is None:
        if not objects:
            raise SchemaError("/object", "the groupoid has no object to choose")
        return sorted(objects, key=idkey)[0]
    try:
        a = as_key(json.loads(text), "/object")
    except json.JSONDecodeError:
        a = text
    if a not in objects:
        raise SchemaError("/object", f"{a!r} is not one of the objects")
    return a


def levels_line(counts):
    return " ".join(str(c) for c in counts)


# ---------------------------------------------------------------------------
# Handlers.  Each returns (certificates, artifacts).


def _levels_result(cfg: RunConfig, name, claim, X: TruncSSet, **params):
    """Certify that X is a simplicial set and return it as the artifact
    ``name``; the handlers that build one simplicial set end here."""
    check = replace(validate_sset(X), claim=claim,
                    params={**params, "levels": X.level_counts()})
    return [certificate(f"{name}/levels", check, input=cfg.inputs[0])], {
        name: encode_sset(X)
    }


def cmd_wbar(cfg: RunConfig):
    H, N = load_truncated_sgd(cfg)
    return _levels_result(cfg, "wbar", "cocycle object is a simplicial set", wbar(H), trunc=N)


def cmd_w_total(cfg: RunConfig):
    H, N = load_truncated_sgd(cfg)
    return _levels_result(cfg, "w-total", "total object is a simplicial set", w_total(H),
                          trunc=N)


def cmd_j_map(cfg: RunConfig):
    H, N = load_truncated_sgd(cfg)
    j = j_map(H)
    check = replace(
        validate_sset_map(j),
        claim="diagonal-to-cocycle comparison is simplicial",
        params={
            "trunc": N,
            "source_levels": j.source.level_counts(),
            "target_levels": j.target.level_counts(),
        },
    )
    return [certificate("j-map/simplicial", check, input=cfg.inputs[0])], {
        "j-map": encode_sset_map(j)
    }


def cmd_check(cfg: RunConfig):
    H, N = load_truncated_sgd(cfg)
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
    H, N = load_truncated_sgd(cfg)
    a = parse_object(cfg.at, H.objects)
    p = holim_projection(corepresented_functor(H, a))
    Y = p.source
    check = Check(
        "homotopy colimit of the corepresented diagram",
        True,
        params={"trunc": N, "at": repr(a), "levels": Y.level_counts()},
    )
    check.add(replace(validate_sset(Y), claim="carrier is a simplicial set"))
    check.add(replace(validate_sset_map(p), claim="projection is simplicial"))
    return [certificate("holim/corepresented", check, input=cfg.inputs[0])], {
        "holim": encode_sset(Y)
    }


def cmd_comma(cfg: RunConfig):
    H, N = load_truncated_sgd(cfg)
    a = parse_object(cfg.at, H.objects)
    return _levels_result(cfg, "comma", "comma object is a simplicial set",
                          comma_db(identity_functor(H), a), trunc=N, at=repr(a))


def cmd_alpha_beta(cfg: RunConfig):
    H, N = load_truncated_sgd(cfg)
    check = Check("interval prism on doubled strings", True, params={"trunc": N})
    prism = alpha_beta(H)
    check.add(alpha_beta_check(prism))
    check.add(naturality_check(identity_functor(H), prism))
    return [certificate("alpha-beta/prism", check, input=cfg.inputs[0])], {}


def cmd_fibre_check(cfg: RunConfig):
    H, N = load_truncated_sgd(cfg)
    a = parse_object(cfg.at, H.objects)
    check = homotopy_fibre_check(corepresented_functor(H, a), maxdim=min(3, N - 1))
    return [
        certificate("fibre-check/corepresented", check, input=cfg.inputs[0], at=repr(a))
    ], {}


def cmd_torsor(cfg: RunConfig):
    if cfg.bound < 1:
        raise SchemaError("/bound", "enumeration bound must be positive")
    Q = load_coefficient(cfg)
    site = Q.site
    N = resolve_trunc(cfg, Q.trunc)
    Q = truncate_sgd_presheaf(Q, N)
    flavour = FLAVOURS[cfg.kind]
    envelope = {
        "kind": cfg.kind,
        "trunc": N,
        "depth": PLUS_STEPS,
        "cover": star_cover(site),
        "input": cfg.inputs[0],
    }
    try:
        coeff = flavour.reads(Q)
        if cfg.target == "check":
            check = canonical_check(cfg.kind, site, coeff, N)
            return [certificate(f"torsor/check/{cfg.kind}", check, **envelope)], {}
    except ValueError as exc:
        raise SchemaError("/kind", str(exc))

    if flavour.enriched and not all(constant_enrichment(H) for H in Q.values.values()):
        raise SchemaError("/kind", f"kind {cfg.kind!r} enumerates only constant hom enrichments")
    try:
        if cfg.target == "enumerate":
            run = classify_torsors(cfg.kind, site, coeff, trunc=N, bound=cfg.bound)
            result = {
                "family": len(run.family),
                "torsor_classes": run.torsor_classes,
                "classes": len(run.torsor_classes),
                "check": replace(
                    run.check, claim="every torsor class representative passes its checks"
                ),
            }
        else:
            result = classify(cfg.kind, site, coeff, trunc=N, bound=cfg.bound)
    except ValueError as exc:
        raise SchemaError("/bound", str(exc))
    reported = {key: value for key, value in result.items() if key not in ("kind", "check")}
    cert = certificate(
        f"torsor/{cfg.target}/{cfg.kind}", result["check"], bound=cfg.bound, **envelope, **reported
    )
    return [cert], {}


def cmd_h1(cfg: RunConfig):
    Q = load_coefficient(cfg)
    if any(len(H.objects) != 1 for H in Q.values.values()):
        raise SchemaError("/kind", "first-cohomology counts need one-object coefficients")
    G = vertex_group_presheaf(Q)
    data = h1_cech_classes(G)
    oracle = gauge_orbit_count(data)
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


def unwritable(exc: OSError) -> SchemaError:
    """A path given by ``--out`` that cannot be written, as invalid input."""
    return SchemaError("/out", f"cannot write {exc.filename}: {exc.strerror}")


def cmd_fixtures(cfg: RunConfig):
    outdir = cfg.out or "fixtures"
    certs = []
    try:
        os.makedirs(outdir, exist_ok=True)
        for name, obj in sorted(fixture_corpus().items()):
            text = dumps(obj)
            path = os.path.join(outdir, name)
            with open(path, "w") as fh:
                fh.write(text + "\n")
            decoded = decode_site(obj) if "covers" in obj else decode_sgd(obj)
            back = encode_site(decoded) if "covers" in obj else encode_sgd(decoded)
            claim = "file validates and round-trips byte-exactly"
            check = require(dumps(back) == text, claim, witness={"path": path}, path=path)
            certs.append(certificate(f"fixtures/{name}", check))
    except OSError as exc:
        raise unwritable(exc)
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


def invalid(exc: SchemaError):
    """The artifacts of a run stopped by invalid input."""
    return {"invalid": [{"pointer": exc.pointer, "message": exc.message}]}


def run(command, config: RunConfig):
    """Execute one subcommand.

    Returns (exit_code, certificates, artifacts); exit 0 when every
    certificate passes, 1 when any fails, 2 for invalid input, with the
    problems listed under artifacts["invalid"] as pointer/message pairs.
    """
    handler = HANDLERS.get(command)
    if handler is None:
        return 2, [], invalid(SchemaError("/command", f"unknown command {command!r}"))
    try:
        certs, artifacts = handler(config)
    except SchemaError as exc:
        return 2, [], invalid(exc)
    code = 0 if all(c["verdict"] == "PASS" for c in certs) else 1
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
        lines.append(f"invalid input at {inv['pointer'] or 'document root'}: {inv['message']}")
    hidden = ("levels", "matching", "torsor_classes", "map_classes")
    for c in certs:
        params = c["parameters"]
        shown = {k: v for k, v in sorted(params.items()) if k not in hidden}
        extra = " [" + ", ".join(f"{k}={v}" for k, v in shown.items()) + "]" if shown else ""
        lines.append(f"{c['verdict']} {c['claim']}{extra}")
        if "levels" in params:
            lines.extend(_level_table(params["levels"]))
        for key in ("source_levels", "target_levels"):
            if key in params:
                lines.append(f"  {key.split('_')[0]}: {levels_line(params[key])}")
        for key in ("torsor_classes", "map_classes"):
            if key in params:
                sizes = [len(members) for members in params[key]]
                name = key.replace("_", " ")
                lines.append(f"  {name}: {len(sizes)} (sizes {levels_line(sizes)})")
        if "matching" in params:
            pairs = ", ".join(f"torsor {i} ~ map {j}" for i, j in params["matching"])
            lines.append(f"  matching: {pairs}")
        for w in c["witnesses"]:
            lines.append(f"  witness: {w['claim']}: {w['witness']}")
    return "\n".join(lines)


# The flags each subcommand reads besides --out and --format, which every
# subcommand takes; a flag outside its subcommand's row is a usage error.
FLAGS = {
    **dict.fromkeys(("wbar", "w-total", "j-map", "alpha-beta", "check"), ("--trunc",)),
    **dict.fromkeys(("holim", "comma", "fibre-check"), ("--trunc", "--object")),
    "torsor": ("--kind", "--trunc", "--bound", "--site"),
    "h1": ("--site",),
    "fixtures": (),
}

# how each flag parses; one left out keeps its RunConfig default
_FLAG_SPECS = {
    "--trunc": {"type": int},
    "--bound": {"type": int},
    "--site": {},
    "--object": {"dest": "at"},
    "--kind": {"choices": KINDS, "required": True},
    "--out": {},
    "--format": {"choices": ("json", "text")},
}

# the subcommands whose first argument names what they check or run
_TARGETS = {"check": ("j-weq", "kan", "free-action"),
            "torsor": ("check", "enumerate", "classify")}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sgdtors",
        description="Cocycle constructions, homotopy colimits, and torsor "
        "classification over finite sites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in FLAGS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        if name in _TARGETS:
            p.add_argument("target", choices=_TARGETS[name])
        if name != "fixtures":
            p.add_argument("inputs", nargs=1, metavar="FILE")
        for flag in (*flags, "--out", "--format"):
            p.add_argument(flag, **_FLAG_SPECS[flag])
    return parser


def config_from_args(ns):
    """The run configuration of the parsed arguments: the flags given,
    over RunConfig's defaults."""
    given = {key: v for key, v in vars(ns).items() if key != "command"}
    return RunConfig(**{**given, "inputs": tuple(given.get("inputs", ()))})


def main(argv=None):
    ns = build_parser().parse_args(argv)
    cfg = config_from_args(ns)
    code, certs, artifacts = run(ns.command, cfg)
    doc = {"command": ns.command, "certificates": certs, "artifacts": artifacts}
    if cfg.out and ns.command != "fixtures":
        try:
            with open(cfg.out, "w") as fh:
                fh.write(dumps(doc) + "\n")
        except OSError as exc:
            code = 2
            doc.update(certificates=[], artifacts=invalid(unwritable(exc)))
    try:
        if cfg.format == "json":
            print(dumps(doc), flush=True)
        else:
            print(render_text(doc["certificates"], doc["artifacts"]), flush=True)
    except BrokenPipeError:
        # the reader is gone; what is left to flush at exit goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
