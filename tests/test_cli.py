"""Command-line surface: canonical JSON codecs, certificates, exit
codes, and the shipped fixture corpus.
"""

import hashlib
import json
import os

import pytest

from sgdtors import cli
from sgdtors.cli import (
    Certificate,
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
from sgdtors.groupoid import group_as_2groupoid, zmod
from sgdtors.report import Check, require
from sgdtors.sgroupoid import b_2groupoid
from sgdtors.site import validate_site
from sgdtors.sset import circle, delta, sset_product, validate_sset
from sgdtors.wbar import wbar


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
        assert validate_sset(back)[0]
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


def test_check_j_weq_passes(corpus, capsys):
    code = cli.main(["check", "j-weq", corpus["z2const.json"], "--trunc", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS check/j-weq" in out


def test_kan_and_free_action_checks_pass(corpus, capsys):
    assert cli.main(["check", "kan", corpus["interval.json"], "--trunc", "3"]) == 0
    assert cli.main(["check", "free-action", corpus["z2const.json"], "--trunc", "3"]) == 0


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
# matching, for the two flavours the benchmark's CLI corpus leaves out;
# the input path is left out because it varies with the corpus location
CLASSIFY_PINS = {
    "groupoid-action": "565f146184dcfb84fe74e68821a4b246aa3ec2fc02a09ede741b1eb82c79c69e",
    "2gpd": "2f7a4fa23a0a805d1ef0dc22c3caf9edeef3dcee44ae2cde8ea6b7d65f980b57",
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


def test_torsor_check_verifies_the_translation_torsors(corpus, capsys):
    for kind, site, coeff in (
        ("group", "pt.json", "twocomp.json"),
        ("groupoid-action", "pt.json", "twocomp.json"),
        ("groupoid-bundle", "pt.json", "twocomp.json"),
        ("2gpd", "s1.json", "z2const.json"),
        ("sgroup", "s1.json", "z2const.json"),
        ("sgpd", "pt.json", "twocomp.json"),
    ):
        if kind in ("group", "2gpd", "sgroup"):
            coeff = "z2const.json"
        code = cli.main(
            [
                "torsor",
                "check",
                "--kind",
                kind,
                "--site",
                corpus[site],
                corpus[coeff],
                "--trunc",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, (kind, out)
        assert f"PASS torsor/check/{kind}" in out


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
    assert cli.main(["wbar", corpus["z2const.json"], "--depth", "0"]) == 2
    assert "invalid input at /depth" in capsys.readouterr().out
    assert cli.main(["wbar", corpus["z2const.json"], "--bound", "0"]) == 2
    assert "invalid input at /bound" in capsys.readouterr().out


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
    assert "invalid input at /kind" in capsys.readouterr().out
    assert cli.main(["torsor", "check", *argv]) == 0


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


def test_config_file_supplies_defaults_and_flags_override(tmp_path, corpus, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text('{"trunc": 3}\n')
    assert cli.main(["wbar", corpus["z2const.json"], "--config", str(conf)]) == 0
    out = capsys.readouterr().out
    assert "trunc=3" in out
    assert (
        cli.main(
            ["wbar", corpus["z2const.json"], "--config", str(conf), "--trunc", "2"]
        )
        == 0
    )
    assert "trunc=2" in capsys.readouterr().out


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


def test_failing_certificates_exit_one(monkeypatch, capsys):
    inner = Check("part that fails", False, witness={"at": (1, 2)})
    outer = Check("outer claim", True, params={"trunc": 3})
    outer.add(inner)
    cert = certificate("demo/claim", outer, input="x.json")
    assert cert.verdict == "FAIL"
    assert cert.witnesses == [
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
    assert cert.verdict == "PASS"
    assert cert.parameters == {"bound": 8, "trunc": 3, "depth": 2}
    assert cert.witnesses == []
    doc = json.loads(dumps(cert.to_obj()))
    assert doc["claim"] == "demo/pass"


def test_run_rejects_unknown_command():
    code, certs, artifacts = run("mystery", RunConfig())
    assert code == 2
    assert artifacts["invalid"][0]["pointer"] == "/command"
