"""Command-line surface: canonical JSON codecs, certificates, exit
codes, and the shipped fixture corpus.
"""

import hashlib
import json
import os
import random

import pytest
from call_counts import count_calls
from gpd_fixtures import bz_site, chain_site, ez2_sgroup, one_cell_sgroupoid, s1_point_cover

from sgdtors import cli
from sgdtors.bundles import sgd_torsor_check, sgroup_torsor_check, two_gpd_torsor_check
from sgdtors.cli import (
    RunConfig,
    SchemaError,
    certificate,
    decode_sgd,
    decode_sgd_presheaf,
    decode_site,
    decode_sset,
    dumps,
    encode_sgd,
    encode_sgd_presheaf,
    encode_site,
    encode_sset,
    fixture_corpus,
    run,
)
from sgdtors.fixtures import (
    interval_sgd,
    s1_site,
    torus_site,
    twocomp_sgd,
    z2_presheaf,
    z2_sgroup,
)
from sgdtors.groupoid import disjoint_union_groupoids, group_as_2groupoid, group_as_groupoid, zmod
from sgdtors.holim import holim
from sgdtors.join import join_object
from sgdtors.presheaf import constant_sgd_presheaf
from sgdtors.report import Check, require
from sgdtors.sgroupoid import (
    b_2groupoid,
    constant_sgroupoid,
    db_sgroupoid,
    sgd_functor,
    validate_sgd_functor,
    validate_sgroupoid,
)
from sgdtors.site import validate_site
from sgdtors.sset import circle, delta, sset_product, validate_sset
from sgdtors.torsors import action_torsor_check, bundle_torsor_check, group_torsor_check
from sgdtors.wbar import w_total, wbar


def _table(out):
    return [
        int(line.split("|")[1])
        for line in out.splitlines()
        if "|" in line and "cells" not in line
    ]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fx")
    code = cli.main(["fixtures", "--out", str(outdir)])
    assert code == 0
    return {name: str(outdir / name) for name in fixture_corpus()}


# The sha256 of each file that `fixtures` writes.
FIXTURE_PINS = {
    "interval.json": "6b5a392df06f212427be9f2da90f47f5bdb9be2539e26caad595a19164dfabed",
    "pt.json": "5e2126a465d520495691b2b820269fd42f5afc5275431806da634d6fd675f624",
    "s1.json": "7a04462b9cf051a58ab0c5ade197fea0e11ab0941684a93fe80b1cde083b4dce",
    "s1cov.json": "96d4b4ecae42ba71119894308a1d1d676b86d23c1bacd9afd5ff4002fe4d600d",
    "twocomp.json": "9b2a97ff849d3fd1127b3a3f55b290e9ddbfac181c10dfd5e8261d7a725ca19d",
    "z2const.json": "7da30341865ec9ff530d8111e789eb5c7a80c96f9870ae451cedb436a1d3bf3f",
}


def test_fixture_files_are_pinned(corpus):
    written = {}
    for name, path in corpus.items():
        with open(path, "rb") as fh:
            written[name] = hashlib.sha256(fh.read()).hexdigest()
    assert written == FIXTURE_PINS


def test_simplicial_set_json_round_trips():
    for X in (
        wbar(z2_sgroup(3)),
        delta(2, trunc=3),
        circle(trunc=3),
        sset_product(delta(1, trunc=2), delta(1, trunc=2)),
    ):
        enc = encode_sset(X)
        back = decode_sset(json.loads(dumps(enc)))
        assert back == X
        assert validate_sset(back).ok
        assert dumps(encode_sset(back)) == dumps(enc)


def test_site_json_round_trips():
    for site in (s1_site(), s1_site(object_covers=True), torus_site()):
        enc = encode_site(site)
        back = decode_site(json.loads(dumps(enc)))
        assert back == site
        assert validate_site(back).ok
        assert dumps(encode_site(back)) == dumps(enc)


def test_enriched_groupoid_json_round_trips():
    for H in (z2_sgroup(3), interval_sgd(3), twocomp_sgd(3)):
        enc = encode_sgd(H)
        back = decode_sgd(json.loads(dumps(enc)))
        assert back == H
        assert dumps(encode_sgd(back)) == dumps(enc)


def test_presheaf_json_round_trips():
    Q = z2_presheaf(s1_site(), 3)
    enc = encode_sgd_presheaf(Q)
    Q2 = decode_sgd_presheaf(json.loads(dumps(enc)))
    assert dumps(encode_sgd_presheaf(Q2)) == dumps(enc)
    assert Q2.values == Q.values
    assert Q2.site == Q.site


def test_schema_errors_carry_json_pointers():
    enc = encode_sgd(z2_sgroup(2))
    del enc["homs"][0]["cells"]["faces"]["1"]
    with pytest.raises(SchemaError) as err:
        decode_sgd(enc)
    assert err.value.pointer == "/homs/0/cells/faces"

    enc = encode_site(s1_site())
    enc["morphisms"].append(dict(enc["morphisms"][0]))
    with pytest.raises(SchemaError) as err:
        decode_site(enc)
    assert err.value.pointer.startswith("/morphisms/")

    enc = encode_site(s1_site())
    enc["covers"][0]["family"].append("nowhere")
    with pytest.raises(SchemaError) as err:
        decode_site(enc)
    assert err.value.pointer == "/covers/0/family"

    # table rows and level keys
    enc = encode_sgd(z2_sgroup(2))
    enc["composition"][0]["levels"]["1"][0] = [0, 1]
    with pytest.raises(SchemaError, match="expected a three-entry array") as err:
        decode_sgd(enc)
    assert err.value.pointer == "/composition/0/levels/1/0"
    enc = encode_sgd(z2_sgroup(2))
    enc["composition"][0]["levels"]["one"] = []
    with pytest.raises(SchemaError, match="expected an integer key") as err:
        decode_sgd(enc)
    assert err.value.pointer == "/composition/0/levels"

    enc = encode_sgd_presheaf(z2_presheaf(s1_site(), 2))
    enc["restrictions"][0]["maps"][0]["levels"]["0"][0] = [0, 0, 0]
    with pytest.raises(SchemaError, match="expected a two-entry array") as err:
        decode_sgd_presheaf(enc)
    assert err.value.pointer == "/restrictions/0/maps/0/levels/0/0"


def test_fixture_corpus_validates(corpus):
    assert sorted(os.path.basename(p) for p in corpus.values()) == [
        "interval.json",
        "pt.json",
        "s1.json",
        "s1cov.json",
        "twocomp.json",
        "z2const.json",
    ]
    site = decode_site(json.load(open(corpus["s1.json"])))
    assert site.star_covers == [["U", "V"]]
    covered = decode_site(json.load(open(corpus["s1cov.json"])))
    assert set(covered.covers) == {"U", "V"}
    H = decode_sgd(json.load(open(corpus["z2const.json"])))
    assert H.trunc == 4 and H.objects == ("*",)


def test_wbar_command_prints_the_level_table(corpus, capsys):
    code = cli.main(["wbar", corpus["z2const.json"], "--trunc", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS wbar/levels" in out
    assert _table(out) == [1, 2, 4, 8, 16]


def test_wbar_artifact_in_json_mode(corpus, capsys):
    code = cli.main(["wbar", corpus["z2const.json"], "--trunc", "3", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert dumps(doc) == out.strip()
    X = decode_sset(doc["artifacts"]["wbar"])
    assert X.level_counts() == (1, 2, 4, 8)


LEVEL_FIXTURES = {"z2const": z2_sgroup, "interval": interval_sgd, "twocomp": twocomp_sgd}


@pytest.mark.parametrize("name", sorted(LEVEL_FIXTURES))
def test_w_total_and_j_map_commands_report_the_level_counts(corpus, capsys, name):
    H = LEVEL_FIXTURES[name](3)

    def run_command(command):
        code = cli.main([command, corpus[f"{name}.json"], "--trunc", "3", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        (cert,) = doc["certificates"]
        assert cert["verdict"] == "PASS"
        return cert, doc["artifacts"]

    cert, artifacts = run_command("w-total")
    assert cert["claim"] == "w-total/levels"
    assert cert["detail"]["claim"] == "total object is a simplicial set"
    levels = list(w_total(H).level_counts())
    assert cert["parameters"]["levels"] == levels
    assert list(decode_sset(artifacts["w-total"]).level_counts()) == levels

    cert, artifacts = run_command("j-map")
    assert cert["claim"] == "j-map/simplicial"
    assert cert["detail"]["claim"] == "diagonal-to-cocycle comparison is simplicial"
    assert cert["parameters"]["source_levels"] == list(db_sgroupoid(H).level_counts())
    assert cert["parameters"]["target_levels"] == list(wbar(H).level_counts())


def test_check_j_weq_passes(corpus, capsys):
    code = cli.main(["check", "j-weq", corpus["z2const.json"], "--trunc", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS check/j-weq" in out


def test_kan_and_free_action_checks_pass(corpus, capsys):
    assert cli.main(["check", "kan", corpus["interval.json"], "--trunc", "3"]) == 0
    assert cli.main(["check", "free-action", corpus["z2const.json"], "--trunc", "3"]) == 0


def test_free_action_check_builds_the_cocycle_object_once(monkeypatch, corpus, capsys):
    # the total and classifying objects are both read off one cocycle
    # object a level above the coefficients
    calls = count_calls(monkeypatch, (wbar, w_total))
    assert cli.main(["check", "free-action", corpus["z2const.json"]]) == 0
    capsys.readouterr()
    assert calls == {"wbar": 1}


def test_torsor_classify_sgpd_over_the_point(corpus, capsys):
    code = cli.main(
        [
            "torsor",
            "classify",
            "--kind",
            "sgpd",
            "--site",
            corpus["pt.json"],
            corpus["twocomp.json"],
            "--trunc",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "torsor classes: 2" in out
    assert "map classes: 2" in out


def test_torsor_classify_group_over_the_circle(corpus, capsys):
    code = cli.main(
        [
            "torsor",
            "classify",
            "--kind",
            "group",
            "--site",
            corpus["s1.json"],
            corpus["z2const.json"],
            "--trunc",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "torsor classes: 2 (sizes 8 8)" in out
    assert "map classes: 2 (sizes 2 2)" in out
    assert "matching: torsor 0 ~ map 0, torsor 1 ~ map 1" in out


# sha256 of the certificate detail together with the class lists and the
# matching, for Z/2 on the circle.  The benchmark's CLI digests cover
# group and sgroup there too, but they run outside the tier-1 tests;
# groupoid-bundle is left to the corpus, which classifies it with the
# interval groupoid.  The input path is left out because it varies with
# the corpus location
CLASSIFY_PINS = {
    "group": "a45d360ea00fdfff417d8042db39b8b60803c3aa102b5de6e61f13fe6aba332e",
    "groupoid-action": "565f146184dcfb84fe74e68821a4b246aa3ec2fc02a09ede741b1eb82c79c69e",
    "2gpd": "2f7a4fa23a0a805d1ef0dc22c3caf9edeef3dcee44ae2cde8ea6b7d65f980b57",
    "sgroup": "0bf8950576ec63dcd5dd9e24086dfb089ff8f00cb50364f10072a57700051281",
    "sgpd": "e93f9e64aaa53f0f83ba90b106c6c92ea553e4cbddf5538ffa01798a53cd75d4",
}


@pytest.mark.parametrize("kind", sorted(CLASSIFY_PINS))
def test_torsor_classify_output_is_pinned(corpus, capsys, kind):
    code = cli.main(
        [
            "torsor",
            "classify",
            "--kind",
            kind,
            "--site",
            corpus["s1.json"],
            corpus["z2const.json"],
            "--trunc",
            "3",
            "--format",
            "json",
        ]
    )
    assert code == 0
    cert = json.loads(capsys.readouterr().out)["certificates"][0]
    pinned = {"detail": cert["detail"]}
    for key in ("torsor_classes", "map_classes", "matching"):
        pinned[key] = cert["parameters"][key]
    assert hashlib.sha256(dumps(pinned).encode()).hexdigest() == CLASSIFY_PINS[kind]


def test_torsor_enumerate_reports_the_family(corpus, capsys):
    code = cli.main(
        [
            "torsor",
            "enumerate",
            "--kind",
            "group",
            "--site",
            corpus["s1.json"],
            corpus["z2const.json"],
            "--trunc",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "family=16" in out
    assert "torsor classes: 2" in out


def test_torsor_enumerate_runs_only_the_torsor_side(corpus, capsys, monkeypatch):
    import sgdtors.classify

    calls = []
    real = sgdtors.classify.enumerate_sset_presheaf_maps

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sgdtors.classify, "enumerate_sset_presheaf_maps", counted)
    argv = ["--kind", "sgroup", "--site", corpus["s1.json"], corpus["z2const.json"]]
    assert cli.main(["torsor", "enumerate", *argv, "--trunc", "3"]) == 0
    assert "torsor classes: 2" in capsys.readouterr().out
    assert calls == []
    assert cli.main(["torsor", "classify", *argv, "--trunc", "3"]) == 0
    assert len(calls) == 1


# the inputs of `torsor check` for each kind: the site and the coefficient file
CHECK_INPUTS = {
    "group": ("pt.json", "z2const.json"),
    "groupoid-action": ("pt.json", "twocomp.json"),
    "groupoid-bundle": ("pt.json", "twocomp.json"),
    "2gpd": ("s1.json", "z2const.json"),
    "sgroup": ("s1.json", "z2const.json"),
    "sgpd": ("pt.json", "twocomp.json"),
}


def _torsor_check(corpus, kind, *flags):
    site, coeff = CHECK_INPUTS[kind]
    argv = ["torsor", "check", "--kind", kind, "--site", corpus[site], corpus[coeff]]
    return cli.main([*argv, "--trunc", "3", *flags])


def test_torsor_check_verifies_the_translation_torsors(corpus, capsys):
    for kind in CHECK_INPUTS:
        code = _torsor_check(corpus, kind)
        out = capsys.readouterr().out
        assert code == 0, (kind, out)
        assert f"PASS torsor/check/{kind}" in out


def test_torsor_check_runs_one_classification_check(corpus, capsys, monkeypatch):
    # each kind's verdict is the last check that classification runs on a
    # class representative, called once
    checks = (group_torsor_check, action_torsor_check, bundle_torsor_check,
              two_gpd_torsor_check, sgroup_torsor_check, sgd_torsor_check)
    calls = count_calls(monkeypatch, checks)
    for kind, check in zip(CHECK_INPUTS, checks):
        assert _torsor_check(corpus, kind) == 0
        assert calls == {check.__name__: 1}, kind
        calls.clear()
    capsys.readouterr()


# sha256 of the certificate detail of each `torsor check` above
CHECK_PINS = {
    "group": "3a860663b4b13115e30cfa8adb783252995ef0bea687d583d73ca7078edb772c",
    "groupoid-action": "4f260504b984ede67ea1718b5ff80498bcb5085acb305b3fcbdb3877f6be95ce",
    "groupoid-bundle": "a5ad7cbdc1c1eadc86fe43d133068df08b370002594a2d42cf2a3a643a9ae5e6",
    "2gpd": "15609092a9ba3d8ccc4d70a6240d058b1e63daa88fd8dbe1ba02f715549d604e",
    "sgroup": "d46f4db4c32c209d1963f938244610968cd8ae91cfe01283861fb6798c2bbba1",
    "sgpd": "08828194daf947bebd961639111b1f7660581c7f696ff5cbefcdf82f69cb3707",
}


@pytest.mark.parametrize("kind", sorted(CHECK_PINS))
def test_torsor_check_output_is_pinned(corpus, capsys, kind):
    assert _torsor_check(corpus, kind, "--format", "json") == 0
    cert = json.loads(capsys.readouterr().out)["certificates"][0]
    assert hashlib.sha256(dumps(cert["detail"]).encode()).hexdigest() == CHECK_PINS[kind]


def test_h1_command_counts_two_classes(corpus, capsys):
    code = cli.main(["h1", "--site", corpus["s1.json"], corpus["z2const.json"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "classes=2" in out


def test_holim_and_comma_level_tables(corpus, capsys):
    code = cli.main(
        ["holim", corpus["twocomp.json"], "--object", '["l","*"]', "--trunc", "3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "('l', '*')" in out

    code = cli.main(["comma", corpus["z2const.json"], "--trunc", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert _table(out) == [2, 4, 8, 16]


def test_alpha_beta_and_fibre_check_pass(corpus, capsys):
    assert cli.main(["alpha-beta", corpus["z2const.json"], "--trunc", "3"]) == 0
    assert (
        cli.main(["fibre-check", corpus["twocomp.json"], "--trunc", "3"]) == 0
    )


def test_invalid_configuration_exits_two(corpus, capsys):
    assert cli.main(["wbar", corpus["z2const.json"], "--trunc", "1"]) == 2
    assert "invalid input at /trunc" in capsys.readouterr().out
    # the covering sieves are worked out from the site, so no flag sets a depth
    with pytest.raises(SystemExit) as exc:
        cli.main(["wbar", corpus["z2const.json"], "--depth", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --depth 0" in capsys.readouterr().err
    argv = ["--site", corpus["s1.json"], corpus["z2const.json"], "--bound", "0"]
    assert cli.main(["torsor", "classify", "--kind", "group", *argv]) == 2
    assert "invalid input at /bound" in capsys.readouterr().out
    # only torsor reads a bound
    with pytest.raises(SystemExit) as exc:
        cli.main(["wbar", corpus["z2const.json"], "--bound", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bound 0" in capsys.readouterr().err


# each subcommand's positional arguments, before the flags under test
_POSITIONALS = {"check": ["kan", "x.json"], "torsor": ["check", "x.json", "--kind", "group"],
                "fixtures": []}


@pytest.mark.parametrize("command", sorted(cli.FLAGS))
@pytest.mark.parametrize("flag", ["--trunc", "--bound", "--site", "--object", "--config"])
def test_a_subcommand_takes_only_the_flags_it_reads(command, flag, capsys):
    argv = [command, *_POSITIONALS.get(command, ["x.json"]), flag, "3"]
    if flag in cli.FLAGS[command]:
        cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
        assert getattr(cfg, {"--object": "at"}.get(flag, flag[2:])) in (3, "3")
        return
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_a_deep_cover_chain_runs_from_its_site_file(corpus, tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(dumps(encode_site(chain_site(6))) + "\n")
    for argv in (["h1"], ["torsor", "check", "--kind", "group"]):
        code = cli.main([*argv, "--site", str(path), corpus["z2const.json"]])
        assert code == 0, capsys.readouterr().out


def test_h1_counts_the_classes_of_a_site_that_is_not_a_poset(corpus, tmp_path, capsys):
    # B(Z/2): the self-overlap of the one cover object carries the class
    # of the nontrivial homomorphism Z/2 -> Z/2
    path = tmp_path / "bz2.json"
    path.write_text(dumps(encode_site(bz_site(2))) + "\n")
    code = cli.main(["h1", "--site", str(path), corpus["z2const.json"]])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "PASS h1/classes [classes=2," in out


def test_presheaf_decoding_validates_each_section_and_restriction_once(monkeypatch):
    calls = count_calls(monkeypatch, (validate_sgroupoid, validate_sgd_functor))
    site = s1_site()
    Q = decode_sgd_presheaf(encode_sgd_presheaf(z2_presheaf(site, 3)))
    assert len(Q.values) == len(site.objects) == 4
    # the four sections are equal, so they decode to one groupoid
    assert len({id(H) for H in Q.values.values()}) == 1
    assert calls == {
        "validate_sgroupoid": 1,
        "validate_sgd_functor": len(site.morphisms),
    }


def test_alpha_beta_builds_the_carrier_and_the_diagonal_nerve_once(monkeypatch, corpus, capsys):
    calls = count_calls(monkeypatch, (join_object, db_sgroupoid))
    assert cli.main(["alpha-beta", corpus["interval.json"]]) == 0
    capsys.readouterr()
    assert calls == {"join_object": 1, "db_sgroupoid": 1}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["holim", "interval.json"], {"holim": 1, "db_sgroupoid": 1}),
        (["fibre-check", "twocomp.json"], {"holim": 1, "db_sgroupoid": 1}),
        (["torsor", "check", "--kind", "sgpd", "twocomp.json", "--site", "pt.json"],
         {"holim": 1}),
        # the four sections over the circle are one groupoid, so they
        # share one homotopy colimit, also when cut to a lower truncation
        (["torsor", "check", "--kind", "sgroup", "z2const.json", "--site", "s1.json"],
         {"holim": 1}),
        (["torsor", "check", "--kind", "sgroup", "z2const.json", "--site", "s1.json",
          "--trunc", "2"],
         {"holim": 1}),
        # a presheaf file repeats the section; equal sections decode once
        (["torsor", "check", "--kind", "sgroup", "z2-over-s1.json"], {"holim": 1}),
    ],
    ids=["holim", "fibre-check", "torsor-check-sgpd", "torsor-check-sgroup",
         "torsor-check-sgroup-trunc-2", "torsor-check-sgroup-presheaf-file"],
)
def test_holim_commands_build_each_carrier_once(
    monkeypatch, corpus, tmp_path, capsys, argv, expected
):
    presheaf = tmp_path / "z2-over-s1.json"
    presheaf.write_text(dumps(encode_sgd_presheaf(z2_presheaf(s1_site(), 2))) + "\n")
    files = {**corpus, presheaf.name: str(presheaf)}
    calls = count_calls(monkeypatch, (holim, db_sgroupoid))
    assert cli.main([files.get(arg, arg) for arg in argv]) == 0
    capsys.readouterr()
    assert calls == expected


def _components_swapped_along_A_U(tmp_path, names, swap):
    """A presheaf over the circle of one enriched groupoid, a disjoint
    union of trivial components, whose restriction along ('A', 'U')
    permutes the components by swap and whose others are identities."""
    H = constant_sgroupoid(
        disjoint_union_groupoids({name: group_as_groupoid(zmod(1)) for name in names}), 2
    )
    Q = constant_sgd_presheaf(s1_site(), H)
    move = {name: swap.get(name, name) for name in names}
    Q.res[("A", "U")] = sgd_functor(
        H, H, lambda a: (move[a[0]], *a[1:]), lambda a, b, n, c: (move[c[0]], *c[1:])
    )
    path = tmp_path / f"swapped-{''.join(names)}.json"
    path.write_text(dumps(encode_sgd_presheaf(Q)) + "\n")
    return str(path)


def test_torsor_check_anchors_at_an_object_every_restriction_fixes(tmp_path, capsys):
    kinds = {
        "sgpd": "no shared object to corepresent at",
        "groupoid-bundle": "no shared object to anchor the torsor at",
        "groupoid-action": "no shared object to anchor the torsor at",
    }
    # both components move, so no constant choice of object is natural
    path = _components_swapped_along_A_U(tmp_path, "lr", {"l": "r", "r": "l"})
    for kind, missing in kinds.items():
        assert cli.main(["torsor", "check", "--kind", kind, path]) == 2
        assert f"invalid input at /kind: {missing}" in capsys.readouterr().out
    # the least object moves, so the check anchors at the one that stays
    path = _components_swapped_along_A_U(tmp_path, "lmr", {"l": "m", "m": "l"})
    for kind in kinds:
        assert cli.main(["torsor", "check", "--kind", kind, path]) == 0
        assert f"PASS torsor/check/{kind}" in capsys.readouterr().out


def test_invalid_inputs_exit_two(tmp_path, corpus, capsys):
    assert cli.main(["wbar", "/nonexistent/file.json"]) == 2
    assert "no such file" in capsys.readouterr().out
    assert cli.main(["wbar", corpus["z2const.json"], "--trunc", "9"]) == 2
    assert "exceeds the file's 4" in capsys.readouterr().out
    code = cli.main(
        [
            "torsor",
            "classify",
            "--kind",
            "group",
            "--site",
            corpus["s1.json"],
            corpus["twocomp.json"],
            "--trunc",
            "3",
        ]
    )
    assert code == 2
    assert "one-object" in capsys.readouterr().out
    code = cli.main(
        [
            "torsor",
            "classify",
            "--kind",
            "group",
            "--site",
            corpus["s1.json"],
            corpus["z2const.json"],
            "--trunc",
            "3",
            "--bound",
            "4",
        ]
    )
    assert code == 2
    assert "bound is 4" in capsys.readouterr().out
    # B of a 2-group has homs with more cells above level 0 than at it,
    # which the sgpd map enumeration rejects; the torsor check runs
    path = tmp_path / "b2.json"
    path.write_text(dumps(encode_sgd(b_2groupoid(group_as_2groupoid(zmod(2)), 3))) + "\n")
    argv = ["--kind", "sgpd", "--site", corpus["pt.json"], str(path)]
    assert cli.main(["torsor", "classify", *argv]) == 2
    out = capsys.readouterr().out
    assert "invalid input at /kind" in out
    assert "kind 'sgpd' enumerates only constant hom enrichments" in out
    assert cli.main(["torsor", "check", *argv]) == 0
    # sgroup compares vertex-level torsors, so it needs constant homs too
    path = tmp_path / "ez2.json"
    path.write_text(dumps(encode_sgd(ez2_sgroup(2))) + "\n")
    for target in ("enumerate", "classify"):
        argv = ["torsor", target, "--kind", "sgroup", "--site", corpus["s1.json"], str(path)]
        assert cli.main(argv) == 2
        out = capsys.readouterr().out
        assert "invalid input at /kind" in out
        assert "kind 'sgroup' enumerates only constant hom enrichments" in out
    # a site without a cover of the terminal presheaf has nothing to classify over
    site = encode_site(s1_site(object_covers=True))
    site["covers"] = [c for c in site["covers"] if c["object"] is not None]
    path = tmp_path / "starless.json"
    path.write_text(dumps(site) + "\n")
    for command in (["h1"], ["torsor", "classify", "--kind", "group"]):
        assert cli.main([*command, "--site", str(path), corpus["z2const.json"]]) == 2
        assert "invalid input at /covers" in capsys.readouterr().out
    # an empty covering family leaves its object with an empty covering sieve
    site = json.load(open(corpus["s1cov.json"]))
    site["covers"].append({"object": "A", "family": []})
    path = tmp_path / "emptycover.json"
    path.write_text(dumps(site) + "\n")
    assert cli.main(["h1", "--site", str(path), corpus["z2const.json"]]) == 2
    out = capsys.readouterr().out
    assert "invalid input at /covers" in out
    assert "no object has an empty covering sieve fails: ['A']" in out
    # an identity that is missing or not a vertex of its hom
    for identities in ([], [["*", "bogus"]]):
        H = encode_sgd(z2_sgroup(3))
        H["identities"] = identities
        path = tmp_path / "noidentity.json"
        path.write_text(dumps(H) + "\n")
        assert cli.main(["wbar", str(path)]) == 2
        assert "identity vertex missing at '*'" in capsys.readouterr().out
    # a restriction whose object map is empty
    Q = encode_sgd_presheaf(z2_presheaf(s1_site(), 3))
    Q["restrictions"][0]["ob"] = []
    path = tmp_path / "obless.json"
    path.write_text(dumps(Q) + "\n")
    assert cli.main(["torsor", "check", "--kind", "sgroup", str(path)]) == 2
    out = capsys.readouterr().out
    assert "invalid input at /restrictions/0" in out
    assert "object map misses or mistypes '*'" in out
    # a restriction with no hom map
    Q = encode_sgd_presheaf(constant_sgd_presheaf(s1_site(), z2_sgroup(3)))
    Q["restrictions"][1]["maps"] = []
    path = tmp_path / "mapless.json"
    path.write_text(dumps(Q) + "\n")
    assert cli.main(["torsor", "check", "--kind", "sgroup", str(path)]) == 2
    out = capsys.readouterr().out
    assert "invalid input at /restrictions/1" in out
    assert "hom map at ('*', '*'): no value at dim 0 for" in out


def test_a_point_cover_that_misses_the_point_exits_two(tmp_path, corpus, capsys):
    # the circle's point cover [U, V] cut to [] or [A] leaves U's section
    # of the point unhit; read as given, h1 would count one class, not two
    for family in ([], ["A"]):
        path = tmp_path / "short.json"
        path.write_text(dumps(encode_site(s1_point_cover(family))) + "\n")
        for command in (["h1"], ["torsor", "classify", "--kind", "group"]):
            assert cli.main([*command, "--site", str(path), corpus["z2const.json"]]) == 2
            out = capsys.readouterr().out
            assert "invalid input at /covers/0/family: family does not cover the point" in out
            assert "section '*' over 'U' is locally hit fails" in out
    # a site with no objects has no point to cover
    site = {"objects": [], "morphisms": [], "composition": []}
    site["covers"] = [{"object": None, "family": []}]
    path = tmp_path / "objectless.json"
    path.write_text(dumps(site) + "\n")
    for command in (["h1"], ["torsor", "classify", "--kind", "group"],
                    ["torsor", "check", "--kind", "group"]):
        assert cli.main([*command, "--site", str(path), corpus["z2const.json"]]) == 2
        out = capsys.readouterr().out
        assert "invalid input at /objects: a site needs at least one object" in out


def test_a_repeated_object_exits_two(tmp_path, corpus, capsys):
    site = json.load(open(corpus["pt.json"]))
    site["objects"] = ["pt", "pt"]
    path = tmp_path / "twice.json"
    path.write_text(dumps(site) + "\n")
    assert cli.main(["h1", "--site", str(path), corpus["z2const.json"]]) == 2
    assert "invalid input at /objects: object 'pt' is repeated" in capsys.readouterr().out
    H = json.load(open(corpus["z2const.json"]))
    H["objects"] = ["*", "*"]
    path = tmp_path / "star-twice.json"
    path.write_text(dumps(H) + "\n")
    classify = ["torsor", "classify", "--kind", "group", "--site", corpus["pt.json"], str(path)]
    for argv in (["wbar", str(path)], classify):
        assert cli.main(argv) == 2
        assert "level 0: object '*' is repeated" in capsys.readouterr().out


def test_a_cell_in_two_homs_out_of_one_object_exits_two(tmp_path, capsys):
    # a string of such cells cannot tell which hom each step lies in
    path = tmp_path / "one-cell.json"
    path.write_text(dumps(encode_sgd(one_cell_sgroupoid(2))) + "\n")
    for argv in (["j-map"], ["holim"], ["comma"], ["alpha-beta"], ["fibre-check"],
                 ["check", "j-weq"], ["check", "kan"], ["check", "free-action"]):
        assert cli.main([*argv, str(path)]) == 2, argv
        out = capsys.readouterr().out
        assert "invalid input at document root" in out, argv
        assert "cell 'c' at level 0 lies in hom(0,0) and hom(0,1)" in out, argv


@pytest.mark.parametrize(
    "content", [b"5", b"null", None, b"\xff\xfe"], ids=["five", "null", "directory", "not-utf8"]
)
def test_unreadable_or_non_object_files_exit_two(content, tmp_path, corpus, capsys):
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    path = str(path)
    for argv in (
        ["wbar", path],
        ["h1", "--site", path, corpus["z2const.json"]],
        ["torsor", "check", "--kind", "group", "--site", corpus["s1.json"], path],
    ):
        assert cli.main(argv) == 2
        assert "invalid input at document root" in capsys.readouterr().out


# what replaces one value of a fixture file in the mutation run
_MUTANTS = (5, None, {}, [], "x", [1, 2], {"a": 1}, -1, True, [[1]], 2.5)


def _paths(doc, at=()):
    """The path of every value below the top of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for k, v in items:
        yield at + (k,)
        yield from _paths(v, at + (k,))


def test_mutated_fixture_files_exit_cleanly(corpus, tmp_path, capsys):
    # replace one value of a fixture file and run a command on it: the
    # CLI returns an exit code, whatever the value breaks
    rng = random.Random(1)
    texts = {name: open(path).read() for name, path in sorted(corpus.items())}
    mutant = str(tmp_path / "mutant.json")
    codes = []
    for _ in range(300):
        name = rng.choice(sorted(texts))
        doc = json.loads(texts[name])
        *path, last = rng.choice(list(_paths(doc)))
        parent = doc
        for k in path:
            parent = parent[k]
        parent[last] = rng.choice(_MUTANTS)
        with open(mutant, "w") as fh:
            json.dump(doc, fh)
        if "covers" in doc:
            runs = [["h1", "--site", mutant, corpus["z2const.json"]],
                    ["torsor", "check", "--kind", "group", "--trunc", "2",
                     "--site", mutant, corpus["z2const.json"]]]
        else:
            runs = [["wbar", "--trunc", "2", mutant],
                    ["holim", "--trunc", "2", mutant],
                    ["h1", "--site", corpus["s1.json"], mutant],
                    ["torsor", "check", "--kind", "groupoid-action", "--trunc", "2",
                     "--site", corpus["pt.json"], mutant]]
        argv = rng.choice(runs)
        codes.append(cli.main(argv))
        capsys.readouterr()
        assert codes[-1] in (0, 1, 2), (name, path, last, argv)
    # most mutations break the file; the rest leave it valid
    assert codes.count(2) > 250


def test_unknown_kind_is_a_usage_error(corpus):
    with pytest.raises(SystemExit) as err:
        cli.main(["torsor", "classify", "--kind", "mystery", corpus["z2const.json"]])
    assert err.value.code == 2


def test_object_flag_accepts_json_and_rejects_strangers(corpus, capsys):
    assert (
        cli.main(
            ["holim", corpus["twocomp.json"], "--object", '["r","*"]', "--trunc", "3"]
        )
        == 0
    )
    capsys.readouterr()
    assert (
        cli.main(["holim", corpus["twocomp.json"], "--object", "nowhere", "--trunc", "3"])
        == 2
    )
    assert "invalid input at /object" in capsys.readouterr().out


def test_presheaf_coefficient_file(tmp_path, corpus, capsys):
    Q = z2_presheaf(s1_site(), 3)
    path = tmp_path / "z2presheaf.json"
    path.write_text(dumps(encode_sgd_presheaf(Q)) + "\n")
    assert cli.main(["torsor", "check", "--kind", "sgroup", str(path)]) == 0
    capsys.readouterr()
    code = cli.main(
        ["torsor", "check", "--kind", "sgroup", "--site", corpus["pt.json"], str(path)]
    )
    assert code == 2
    assert "disagrees" in capsys.readouterr().out


def test_report_file_matches_stdout_document(tmp_path, corpus, capsys):
    report = tmp_path / "report.json"
    code = cli.main(
        [
            "wbar",
            corpus["z2const.json"],
            "--trunc",
            "2",
            "--format",
            "json",
            "--out",
            str(report),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert report.read_text().strip() == out.strip()
    doc = json.loads(out)
    assert doc["certificates"][0]["verdict"] == "PASS"
    assert doc["certificates"][0]["parameters"]["trunc"] == 2


def test_fixtures_out_naming_a_file_exits_two(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("kept\n")
    assert cli.main(["fixtures", "--out", str(path), "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificates"] == []
    assert doc["artifacts"]["invalid"][0]["pointer"] == "/out"
    assert path.read_text() == "kept\n"


def test_report_out_in_a_missing_directory_exits_two(tmp_path, corpus, capsys):
    report = tmp_path / "missing-dir" / "r.json"
    assert cli.main(["wbar", corpus["z2const.json"], "--out", str(report)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"invalid input at /out: cannot write {report}")
    assert "PASS" not in out
    assert not report.parent.exists()


def test_failing_certificates_exit_one(monkeypatch, capsys):
    inner = Check("part that fails", False, witness={"at": (1, 2)})
    outer = Check("outer claim", True, params={"trunc": 3})
    outer.add(inner)
    cert = certificate("demo/claim", outer, input="x.json")
    assert cert["verdict"] == "FAIL"
    assert cert["witnesses"] == [
        {"claim": "part that fails", "witness": {"at": [1, 2]}, "params": {}}
    ]
    monkeypatch.setitem(cli.HANDLERS, "wbar", lambda cfg: ([cert], {}))
    assert cli.main(["wbar", "ignored.json"]) == 1
    out = capsys.readouterr().out
    assert "FAIL demo/claim" in out
    assert "witness: part that fails" in out


def test_passing_certificates_carry_the_parameter_envelope():
    check = require(True, "fine", trunc=3, depth=2)
    cert = certificate("demo/pass", check, bound=8)
    assert cert["verdict"] == "PASS"
    assert cert["parameters"] == {"bound": 8, "trunc": 3, "depth": 2}
    assert cert["witnesses"] == []
    doc = json.loads(dumps(cert))
    assert doc["claim"] == "demo/pass"


def test_run_rejects_unknown_command():
    code, certs, artifacts = run("mystery", RunConfig())
    assert code == 2
    assert artifacts["invalid"][0]["pointer"] == "/command"
