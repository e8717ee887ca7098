"""The benchmark's workloads.

``WORKLOADS[name](seed)`` builds what one run needs and returns its
operations in the order every pass runs them.  An operation is a
``(name, run)`` pair; ``run()`` performs one user-visible call and
returns ``None`` when the output is right, or a one-line reason when it
is not.  The functions import ``sgdtors`` when called, so operations use
the modules of the latest fresh import that ``run.py`` makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE / "work"
CLI_DIR = WORK / "cli"
DIGESTS = HERE / "cli_digests.json"

# Homotopy classes of maps from the circle into BG are the conjugacy
# classes of G, so Z/n on the circle has n torsor classes.
CIRCLE_CLASSES = {2: 2, 3: 3}

# (kind, n, trunc) for each classification; sgroup and sgpd take their
# truncation from the enriched coefficient, which is built at trunc.
CIRCLE_ISO = (("group", 3, 2), ("sgpd", 2, 3))
CIRCLE_HOMOTOPY = tuple(
    (kind, 2, 4)
    for kind in ("group", "groupoid-action", "groupoid-bundle", "2gpd", "sgroup")
)

_F = "fixtures/"
# Paths are relative to CLI_DIR because certificates embed them.
CLI_COMMANDS = (
    *([cmd, _F + coeff] for coeff in ("z2const.json", "interval.json", "twocomp.json")
      for cmd in ("wbar", "w-total", "j-map")),
    ["check", "j-weq", _F + "z2const.json"],
    ["check", "kan", _F + "interval.json"],
    ["check", "free-action", _F + "z2const.json"],
    ["holim", _F + "interval.json"],
    ["holim", _F + "twocomp.json"],
    ["comma", _F + "z2const.json"],
    ["fibre-check", _F + "twocomp.json"],
    ["alpha-beta", _F + "z2const.json"],
    ["alpha-beta", _F + "interval.json"],
    ["h1", "--site", _F + "s1.json", _F + "z2const.json"],
    ["h1", "--site", _F + "s1cov.json", _F + "z2const.json"],
    *(["torsor", "classify", "--kind", kind, "--site", _F + site, _F + coeff]
      for kind, site, coeff in (
          ("group", "s1.json", "z2const.json"),
          ("sgroup", "s1.json", "z2const.json"),
          ("groupoid-bundle", "s1.json", "interval.json"),
          ("sgpd", "pt.json", "twocomp.json"),
      )),
    *(["torsor", "check", "--kind", kind, "--site", _F + site, _F + coeff]
      for kind, site, coeff in (
          ("group", "s1.json", "z2const.json"),
          ("groupoid-action", "pt.json", "twocomp.json"),
          ("2gpd", "s1.json", "z2const.json"),
          ("sgpd", "pt.json", "twocomp.json"),
      )),
)


def relabelled_zmod(n, seed):
    """Z/n with element k renamed to the seed-th permutation of
    range(n), counted modulo n!.  Seed 0 keeps the labels zmod gives."""
    from sgdtors.groupoid import make_group

    perms = list(itertools.permutations(range(n)))
    label = perms[seed % len(perms)]
    index = {x: k for k, x in enumerate(label)}
    return make_group(f"z{n}", range(n), lambda a, b: label[(index[a] + index[b]) % n])


def _circle_op(kind, n, trunc, seed, oracle):
    from sgdtors.classify import classify
    from sgdtors.fixtures import s1_site
    from sgdtors.presheaf import constant_group_presheaf, constant_sgd_presheaf
    from sgdtors.sgroupoid import constant_sgroup
    from sgdtors.torsors import group_presheaf_as_groupoid

    expected = CIRCLE_CLASSES[n]

    def run():
        site = s1_site()
        F = relabelled_zmod(n, seed)
        if kind == "2gpd":
            coefficients = F
        elif kind in ("sgroup", "sgpd"):
            coefficients = constant_sgd_presheaf(site, constant_sgroup(F, trunc))
        elif kind == "group":
            coefficients = constant_group_presheaf(site, F)
        else:
            coefficients = group_presheaf_as_groupoid(constant_group_presheaf(site, F))
        report = classify(kind, site, coefficients, trunc=trunc)
        if not report["check"]:
            return f"check failed: {report['check'].claim}"
        if not report["classes"] == expected == oracle:
            return (f"{report['classes']} classes; group theory says {expected}, "
                    f"the Cech oracle says {oracle}")
        return None

    return f"{kind} Z/{n} trunc {trunc}", run


def _circle(plan):
    def setup(seed):
        from sgdtors.fixtures import s1_site
        from sgdtors.presheaf import constant_group_presheaf
        from sgdtors.torsors import h1_cech_oracle

        oracle = {
            n: h1_cech_oracle(constant_group_presheaf(s1_site(), relabelled_zmod(n, seed)))
            for n in sorted({n for _, n, _ in plan})
        }
        ops = [_circle_op(kind, n, trunc, seed, oracle[n]) for kind, n, trunc in plan]
        random.Random(seed).shuffle(ops)
        return ops

    return setup


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv):
    """Run the CLI in-process from CLI_DIR; returns (exit code, stdout)."""
    from sgdtors import cli

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(CLI_DIR)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv) + ["--format", "json"])
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def cli_digests():
    """sha256 of each command's output, keyed by its argument line; run
    this on a trusted commit to record cli_digests.json."""
    CLI_DIR.mkdir(parents=True, exist_ok=True)
    return {
        " ".join(argv): _digest(run_cli(argv)[1])
        for argv in (["fixtures"], *CLI_COMMANDS)
    }


def _cli_op(argv, digest):
    def run():
        code, out = run_cli(argv)
        if code != 0:
            return f"exit code {code}, expected 0"
        if digest is None:
            return "no recorded output digest"
        if _digest(out) != digest:
            return f"output sha256 {_digest(out)[:12]} differs from the recorded {digest[:12]}"
        return None

    return " ".join(argv), run


def _cli_setup(seed):
    CLI_DIR.mkdir(parents=True, exist_ok=True)
    code, _ = run_cli(["fixtures"])
    if code != 0:
        raise RuntimeError(f"writing the fixture corpus exited {code}")
    digests = json.loads(DIGESTS.read_text())
    ops = [_cli_op(argv, digests.get(" ".join(argv))) for argv in CLI_COMMANDS]
    random.Random(seed).shuffle(ops)
    return [_cli_op(["fixtures"], digests.get("fixtures"))] + ops


WORKLOADS = {
    "circle-iso": _circle(CIRCLE_ISO),
    "circle-homotopy": _circle(CIRCLE_HOMOTOPY),
    "cli-corpus": _cli_setup,
}
