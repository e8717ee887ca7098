"""Layer spans recorded from outside the program.

Each stage wraps a set of public ``sgdtors`` functions.  A call to a
function of a timed stage records a span: its stage, start, end, parent
span, operation index, and work counts read from the return value.
Spans stay in memory until the run ends.

A stage's ``s`` and its counts add up the spans that have no enclosing
span of the same stage, so a wrapped function calling another one of its
own stage is not counted twice; ``calls`` counts every call, and
``self_s`` is each span's time less the time of its direct child spans.

A stage that some workloads never reach is counted but not timed, so
that no reported time is zero on every run of a workload.  Its
functions' time falls in the enclosing timed stage, or in
``trace.other_s``, the pass time outside every span.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from time import perf_counter


def cells(x):
    """Simplices materialised in a returned object: level_counts() sums
    over every simplicial set it holds."""
    if isinstance(x, tuple):
        return cells(x[0])
    if hasattr(x, "simplices"):
        return sum(len(level) for level in x.simplices.values())
    if hasattr(x, "homs"):
        return sum(cells(hom) for hom in x.homs.values())
    if isinstance(getattr(x, "values", None), dict):
        return sum(cells(value) for value in x.values.values())
    if hasattr(x, "source"):
        return cells(x.source)
    return 0


COUNTERS = {
    "hits": bool,
    "solutions": len,
    "torsors": len,
    "cells": cells,
    "bytes": lambda out: len(out) if isinstance(out, str) else 0,
}


@dataclass(frozen=True)
class Stage:
    name: str
    counters: tuple
    functions: tuple   # "module.function" under sgdtors
    workloads: tuple   # workloads on which the stage must record calls
    timed: bool = True


STAGES = (
    Stage("torsors.iso_search", ("hits", "solutions"),
          ("torsors.group_torsor_maps", "torsors.action_torsor_maps"),
          ("circle-iso", "circle-homotopy")),
    Stage("presheaf.map_search", ("solutions",),
          ("presheaf.enumerate_presheaf_maps",), ("circle-iso",)),
    Stage("bundles.iso_search", ("hits", "solutions"),
          ("bundles.sgd_diagram_maps", "bundles.two_gpd_action_maps"),
          ("circle-iso",)),
    Stage("classify.homotopy_search", ("hits",),
          ("classify.presheaf_homotopies",), ("circle-iso", "circle-homotopy")),
    Stage("kan.map_search", ("solutions",),
          ("kan.enumerate_sset_maps",), ("circle-iso", "circle-homotopy")),
    Stage("classify.map_search", ("solutions",),
          ("classify.enumerate_sset_presheaf_maps", "bundles.enumerate_sgd_presheaf_maps"),
          ("circle-iso", "circle-homotopy")),
    Stage("sheaf.cech", ("cells",),
          ("sheaf.cech_resolution", "bundles.cech_sgd_presheaf", "classify.cylinder_presheaf"),
          ("circle-homotopy",)),
    Stage("sset.build", ("cells",),
          ("sset.build_sset", "sset.sset_product", "sset.delta"),
          ("circle-homotopy", "cli-corpus")),
    Stage("bisset.build", ("cells",),
          ("bisset.build_bisset", "bisset.diagonal"), ("cli-corpus",)),
    # join_object is the homotopy colimit of the comma construction, and
    # alpha_beta and join_map are built on it
    Stage("holim.build", ("cells",),
          ("holim.holim", "holim.translation_total", "holim.holim_2gpd", "holim.comma_db",
           "join.join_object", "join.alpha_beta", "join.join_map"),
          ("cli-corpus",)),
    Stage("join.build", (),
          ("join.join_object", "join.alpha_beta", "join.join_map"), ("cli-corpus",),
          timed=False),
    Stage("wbar.build", ("cells",),
          ("wbar.wbar", "wbar.w_total", "wbar.j_map", "torsors.wbar_presheaf",
           "torsors.bg_presheaf", "torsors.db_presheaf"),
          ("cli-corpus",)),
    Stage("kan.horn_check", (),
          ("kan.kan_check", "kan.weq_check", "kan.fibration_check", "kan.pi_n"),
          ("cli-corpus",)),
    Stage("torsors.check", (),
          ("torsors.group_torsor_check", "torsors.action_torsor_check",
           "torsors.bundle_torsor_check"),
          ("circle-homotopy",)),
    Stage("bundles.check", (),
          ("bundles.sgroup_torsor_check", "bundles.sgd_torsor_check",
           "bundles.two_gpd_torsor_check"),
          ("circle-homotopy",)),
    Stage("sheaf.plus", (), ("sheaf.plus_construction",), ("circle-homotopy",)),
    Stage("torsors.enumerate", ("torsors",),
          ("torsors.enumerate_group_cochains", "torsors.enumerate_group_torsors",
           "torsors.enumerate_action_torsors"),
          ("cli-corpus",)),
    Stage("torsors.cech_oracle", (),
          ("torsors.h1_cech_classes", "torsors.h1_cech_oracle"), ("cli-corpus",)),
    Stage("cli.codec", ("bytes",),
          ("cli.dumps", "cli.encode_sset", "cli.encode_sset_map", "cli.encode_site",
           "cli.encode_sgd", "cli.encode_sgd_presheaf", "cli.decode_sset",
           "cli.decode_site", "cli.decode_sgd", "cli.decode_sgd_presheaf"),
          ("cli-corpus",), timed=False),
)

_STAGE_INDEX = {stage.name: i for i, stage in enumerate(STAGES)}

# Derived from the stages above: name -> unit.
DERIVED = {
    "torsors.iso_search.hit_ratio": "ratio",
    "torsors.iso_search.candidates": "count",
    "torsors.iso_search.yield": "ratio",
    "trace.wall_s": "s",
    "trace.other_s": "s",
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for stage in STAGES:
        units[f"{stage.name}.calls"] = "count"
        if stage.timed:
            units[f"{stage.name}.s"] = "s"
            units[f"{stage.name}.self_s"] = "s"
        for counter in stage.counters:
            units[f"{stage.name}.{counter}"] = "bytes" if counter == "bytes" else "count"
    units.update(DERIVED)
    return units


class CoverageError(Exception):
    """A wrapped function is missing, or a stage saw no calls where the
    stage table says the workload exercises it."""


class Tracer:
    def __init__(self):
        # span: [stage, start, end, parent, op, outermost in its stage, counts]
        self.spans = []
        self.op = -1
        self._stack = []
        self._depth = [0] * len(STAGES)
        # calls and counts of the untimed stages
        self._tally = [[0] * (1 + len(stage.counters)) for stage in STAGES]

    def install(self, modules):
        """Wrap every listed function in every sgdtors module that binds
        it, so calls through names imported elsewhere are seen too.
        Untimed stages wrap last, outside any timed wrapper."""
        order = sorted(range(len(STAGES)), key=lambda si: not STAGES[si].timed)
        for si in order:
            stage = STAGES[si]
            for qualified in stage.functions:
                module, name = qualified.split(".")
                current = getattr(modules.get(f"sgdtors.{module}"), name, None)
                if not callable(current):
                    raise CoverageError(f"sgdtors.{qualified} is missing")
                wrap = self._timed if stage.timed else self._counted
                wrapper = wrap(si, stage, current)
                for mod in modules.values():
                    for attr in [a for a, v in vars(mod).items() if v is current]:
                        setattr(mod, attr, wrapper)

    def _timed(self, si, stage, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        measures = [COUNTERS[c] for c in stage.counters]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [si, perf_counter(), 0.0, stack[-1] if stack else -1, self.op,
                    depth[si] == 0, ()]
            stack.append(len(spans))
            spans.append(span)
            depth[si] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                depth[si] -= 1
                stack.pop()
            span[6] = tuple(m(out) for m in measures)
            return out

        return traced

    def _counted(self, si, stage, fn):
        tally = self._tally[si]
        measures = [COUNTERS[c] for c in stage.counters]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tally[0] += 1
            out = fn(*args, **kwargs)
            for k, m in enumerate(measures, 1):
                tally[k] += m(out)
            return out

        return counted

    def metrics(self, workload, wall):
        """Per-layer metrics of a pass that took ``wall`` seconds; raises
        CoverageError when a stage expected on this workload saw no calls."""
        n = len(STAGES)
        calls, total, own = [0] * n, [0.0] * n, [0.0] * n
        counts = [[0] * len(stage.counters) for stage in STAGES]
        children = [0.0] * len(self.spans)
        for si, start, end, parent, _, _, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        iso = _STAGE_INDEX["torsors.iso_search"]
        maps = _STAGE_INDEX["presheaf.map_search"]
        candidates = 0
        for i, (si, start, end, parent, _, outer, measured) in enumerate(self.spans):
            calls[si] += 1
            own[si] += end - start - children[i]
            if outer:
                total[si] += end - start
                for k, v in enumerate(measured):
                    counts[si][k] += v
            if si == maps and parent >= 0 and self.spans[parent][0] == iso:
                candidates += sum(measured)
        for si, stage in enumerate(STAGES):
            if not stage.timed:
                calls[si], *counts[si] = self._tally[si]
        idle = [s.name for i, s in enumerate(STAGES) if workload in s.workloads and not calls[i]]
        if idle:
            raise CoverageError(f"no calls on {workload} in: {', '.join(idle)}")
        out = {}
        for i, stage in enumerate(STAGES):
            out[f"{stage.name}.calls"] = calls[i]
            if stage.timed:
                out[f"{stage.name}.s"] = total[i]
                out[f"{stage.name}.self_s"] = own[i]
            for k, counter in enumerate(stage.counters):
                out[f"{stage.name}.{counter}"] = counts[i][k]
        hits, solutions = counts[iso]
        out["torsors.iso_search.hit_ratio"] = hits / calls[iso] if calls[iso] else 0.0
        out["torsors.iso_search.candidates"] = candidates
        out["torsors.iso_search.yield"] = solutions / candidates if candidates else 0.0
        out["trace.wall_s"] = wall
        out["trace.other_s"] = wall - sum(own)
        return out

    def write(self, path, op_names):
        """Write the spans out, one JSON array per span."""
        with open(path, "w") as fh:
            json.dump({"stages": [s.name for s in STAGES], "ops": op_names}, fh)
            fh.write("\n")
            for si, start, end, parent, op, _, measured in self.spans:
                fh.write(json.dumps([STAGES[si].name, start, end, parent, op, measured]))
                fh.write("\n")
