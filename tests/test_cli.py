"""Command line surface: determinism, exit codes, report formats."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import quadseq
from quadseq import cli, gallery
from quadseq.acceptance import CriterionResult
from quadseq.checks import CheckResult, collect_artifacts
from quadseq.errors import ConfigError
from quadseq.forms import ANTICHAIN_CAP

ALL_CHECKS = [
    "eq631", "bound63", "switching-witness", "thm33a", "prop344",
    "ratio-limit", "videal-chain", "tau-bound", "remark4175",
    "series-sum", "change-of-direction",
]


def test_list_names_presets_and_checks(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for preset in ("shannon-4.18", "rr1", "gmr-7.13", "gmr-7.14", "dvr", "random"):
        assert preset in out
    for check in ALL_CHECKS:
        assert check in out


def test_explain_known_and_unknown(capsys):
    assert cli.main(["explain", "eq631"]) == 0
    assert "conservation" in capsys.readouterr().out.lower()
    assert cli.main(["explain", "nope"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "quadseq", "list"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "presets:" in proc.stdout


def test_rerun_is_byte_identical(tmp_path):
    args = ["run", "--preset", "random", "--steps", "30", "--seed", "11",
            "--checks", "all"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


def test_every_requested_check_appears_exactly_once(tmp_path):
    out = tmp_path / "r"
    # duplicates in the request collapse to a single run of the check
    assert cli.main(["run", "--preset", "random", "--steps", "20", "--seed", "3",
                     "--checks", "eq631,videal-chain,eq631",
                     "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert [c["check"] for c in rep["checks"]] == ["eq631", "videal-chain"]


def test_rr1_embed3d_reports_starving_z(tmp_path):
    cfg = tmp_path / "rr1.json"
    cfg.write_text(json.dumps({
        "preset": "rr1",
        "steps": 40,
        "preset_options": {"embed3d": True},
        "checks": ["switching-witness"],
        "output": {"json": "rep.json"},
    }))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    witness = rep["checks"][0]
    assert witness["check"] == "switching-witness"
    assert witness["verdict"] == "pass"
    assert witness["detail"]["never_used"] == ["z"]
    assert all("z" in dirs
               for dirs in witness["detail"]["starving_by_window"].values())


def test_empty_checks_gives_trace_only(tmp_path):
    out = tmp_path / "r"
    assert cli.main(["run", "--preset", "dvr", "--steps", "6",
                     "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["checks"] == []
    assert len(rep["trace"]) == 6


def test_csv_trace_golden(tmp_path):
    out = tmp_path / "r"
    assert cli.main(["run", "--preset", "dvr", "--steps", "4",
                     "--out", str(out)]) == 0
    assert (out / "trace.csv").read_text() == (
        "step,kind,dir,m_lo,m_hi,E_lo,E_hi\n"
        "1,monomial,x,1/1,1/1,1/1,1/1\n"
        "2,rescale,,1/1,1/1,2/1,2/1\n"
        "3,monomial,x,1/1,1/1,3/1,3/1\n"
        "4,rescale,,1/1,1/1,4/1,4/1\n"
    )


def _dictwriter_text(trace):
    """The CSV text csv.DictWriter writes for ``trace``: the reference."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=cli.CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(trace)
    return buf.getvalue()


# each needs quoting, or looks as if it might
_AWKWARD_NAMES = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", " lead", "\u00e9t\u00e9 \u221a2"]


def test_write_csv_matches_dictwriter(tmp_path):
    trace = []
    for n in range(1, 25):
        rescale = n % 4 == 0
        trace.append({
            "step": n, "kind": "rescale" if rescale else "monomial",
            "dir": "" if rescale else _AWKWARD_NAMES[n % len(_AWKWARD_NAMES)],
            "m_lo": f"{n}/7", "m_hi": f"-{n + 1}/7",
            "E_lo": f"{n * n}/3", "E_hi": f"{n * n + 1}/3",
        })
    path = tmp_path / "trace.csv"
    cli.write_csv(str(path), trace)
    assert path.read_bytes() == _dictwriter_text(trace).encode()


def test_run_quotes_direction_names_as_dictwriter(tmp_path):
    cfg = tmp_path / "names.json"
    cfg.write_text(json.dumps({
        "dimension": 3, "frame": ["1", "3", "5"], "mode": "scripted",
        "names": ["x,1", "y\n2", '\u00e9 "3"\r'],
        "plan": [{"kind": "monomial", "direction": 0},
                 {"kind": "rescale", "values": ["2", "1", "3/2"]},
                 {"kind": "monomial", "direction": 1},
                 {"kind": "monomial", "direction": 2}],
    }))
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert [row["dir"] for row in rep["trace"]] == ["x,1", "", "y\n2", '\u00e9 "3"\r']
    assert (out / "trace.csv").read_bytes() == _dictwriter_text(rep["trace"]).encode()


def test_interval_width_is_honored(tmp_path):
    out = tmp_path / "r"
    assert cli.main(["run", "--preset", "random", "--steps", "5", "--seed", "2",
                     "--interval-width", "1/1000", "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["interval_width"] == "1/1000"
    for entry in rep["scenario"]["frame"]:
        lo = Fraction(entry["interval"]["lo"])
        hi = Fraction(entry["interval"]["hi"])
        assert hi - lo <= Fraction(1, 1000)
        assert lo <= hi


def test_exit_one_when_a_check_fails(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(
        cli, "run_checks",
        lambda scenario, ids, options: [CheckResult("eq631", "fail", {})],
    )
    out = tmp_path / "r"
    assert cli.main(["run", "--preset", "dvr", "--steps", "4",
                     "--checks", "eq631", "--out", str(out)]) == 1


def test_config_errors_exit_two(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", "--config", str(bad)]) == 2
    capsys.readouterr()
    # a plan stepping in a non-minimal direction fails with its record index
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps({
        "name": "illegal",
        "dimension": 2,
        "frame": ["1", "2"],
        "mode": "scripted",
        "plan": [{"kind": "monomial", "direction": 1}],
    }))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "record 1" in capsys.readouterr().err
    # the x step leaves (1, 2), so the y step that follows overshoots x
    cfg.write_text(json.dumps({
        "dimension": 2,
        "frame": ["1", "3"],
        "mode": "scripted",
        "plan": [{"kind": "monomial", "direction": 0},
                 {"kind": "monomial", "direction": 1}],
    }))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "record 2" in capsys.readouterr().err


_SCRIPTED = {"dimension": 2, "frame": ["1", "3"], "mode": "scripted"}


@pytest.mark.parametrize("cfg, where", [
    ({**_SCRIPTED, "plan": [{"kind": "monomial", "direction": 0, "count": "abc"}]},
     "plan[0].count"),
    # 0.9 used to be truncated to direction x
    ({**_SCRIPTED, "plan": [{"kind": "monomial", "direction": 0.9}]},
     "plan[0].direction"),
    ({**_SCRIPTED, "plan": [], "boundaries": [True]}, "boundaries[0]"),
    ({"preset": "dvr", "preset_options": {"d": 2.5}}, "preset_options.d"),
    ({"preset": "random", "options": {"ratio_f": [[0, "1/2", 0]]}},
     "options.ratio_f"),
    # 2.5 used to reach a slice and escape as a raw TypeError
    ({"preset": "random", "options": {"chain_length": 2.5},
      "checks": ["videal-chain"]}, "options.chain_length"),
    ({"preset": "random", "options": {"windows": [1, "two"]},
      "checks": ["switching-witness"]}, "options.windows[1]"),
    # a bare integer used to escape as a raw TypeError
    ({"preset": "random", "steps": 40, "options": {"ratio_f": 5}},
     "options.ratio_f"),
    ({"preset": "random", "options": {"ratio_g": [[1, 0]]}}, "options.ratio_g"),
    ({"preset": "random", "options": {"ratio_g": [[1, -1, 0]]}}, "options.ratio_g"),
], ids=["count", "direction", "boundary", "preset-d", "exponent",
        "chain-length", "window", "ratio-not-lists", "ratio-short", "ratio-negative"])
def test_non_integer_config_values_exit_two(tmp_path, capsys, cfg, where):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert f"config error: {where}" in capsys.readouterr().err


@pytest.mark.parametrize("basis, needle", [
    # 2.7 used to be truncated to sqrt(2)
    (["one", {"sqrt": 2.7}], "basis[1].sqrt: not an integer: 2.7"),
    (["one", {"sqrt": True}], "basis[1].sqrt: not an integer: True"),
    # these two used to escape from RealBasis as a raw ValueError
    (["one", {"sqrt": -3}], "got -3"),
    (["one", {"sqrt": 2}, {"sqrt": 2}], "duplicate basis generators in [1, sqrt2, sqrt2]"),
    (["one", {"sqrt": 1}], "duplicate basis generators in [1, 1]"),
    (["one", {"cbrt": 2}], "unknown basis generator: {'cbrt': 2}"),
    (5, "must be a list of generators"),
    # these three used to be accepted, though some vector over each denotes 0
    (["one", {"sqrt": 4}], "basis generators 1 and sqrt4 are rationally dependent"),
    (["one", {"sqrt": 2}, {"sqrt": 8}], "sqrt2 and sqrt8 are rationally dependent"),
    ([{"sqrt": 3}, {"sqrt": 12}], "sqrt3 and sqrt12 are rationally dependent"),
], ids=["fractional", "bool", "negative", "repeated", "sqrt-one-repeats-one", "unknown",
        "not-a-list", "square", "same-squarefree-part", "no-unit"])
def test_bad_basis_exits_two(tmp_path, capsys, basis, needle):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dimension": 2, "basis": basis, "frame": ["1", "3/2"]}))
    assert cli.main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: basis")
    assert needle in err


def test_sqrt_one_is_the_rational_unit(tmp_path):
    # {"sqrt": 1} used to be an irrational generator, so this basis refused
    # the frame entry "3/2" with "basis has no rational unit generator"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dimension": 2, "basis": [{"sqrt": 1}, {"sqrt": 2}],
                                "frame": ["3/2", ["0", "1"]], "steps": 3}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"]["basis"] == ["one", {"sqrt": 2}]


def test_a_dependent_basis_exits_two_before_any_replay(monkeypatch, tmp_path, capsys):
    # bound63 used to report independent_values true on this frame, and
    # videal-chain to exit 2 with "sign undecided at 4096 bits"
    calls = _count_replays(monkeypatch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "dimension": 3, "basis": ["one", {"sqrt": 2}, {"sqrt": 8}],
        "frame": ["1", ["0", "3/4", "0"], ["0", "0", "1/2"]],
        "steps": 20, "checks": ["bound63", "videal-chain"]}))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: basis: basis generators "
                                              "sqrt2 and sqrt8 are rationally dependent")
    assert calls == []


def test_radicand_as_a_decimal_string_reads_as_its_integer(tmp_path):
    reports = []
    for radicand in (2, "2"):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dimension": 2, "basis": ["one", {"sqrt": radicand}],
                                    "frame": ["1", ["0", "1"]], "steps": 3}))
        out = tmp_path / f"r{len(reports)}"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        reports.append((out / "report.json").read_text())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["scenario"]["basis"] == ["one", {"sqrt": 2}]


@pytest.mark.parametrize("key, least", [
    ("chain_length", 1), ("n_ideals", 1), ("word_cap", 1), ("max_degree", 1),
    ("ratio_steps", 1), ("prefix_cap", 1), ("tau_max_steps", 0)])
def test_integer_options_below_their_least_exit_two(tmp_path, capsys, key, least):
    # "chain_length": -2 used to give an empty chain and a vacuous pass
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "random", "steps": 40,
                                "options": {key: least - 1}}))
    assert cli.main(["run", "--config", str(path), "--checks", "all"]) == 2
    assert (f"config error: options.{key}: must be >= {least}, got {least - 1}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("threshold", ["0", "-1/2"])
def test_non_positive_small_threshold_exits_two(tmp_path, capsys, threshold):
    # bound63 used to escape as a raw ValueError from evaluate_interval
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "random", "steps": 40, "checks": ["bound63"],
                                "options": {"small_threshold": threshold}}))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert (f"config error: options.small_threshold: must be > 0, got {threshold}"
            in capsys.readouterr().err)


def test_unknown_option_keys_exit_two(tmp_path, capsys):
    # a misspelt key used to run silently with the default
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "random", "options": {"chain_lenght": 3},
                                "checks": ["videal-chain"]}))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "config error: options: unknown keys ['chain_lenght']" in capsys.readouterr().err


@pytest.mark.parametrize("windows", [[-1], 5])
def test_bad_windows_exit_two(tmp_path, capsys, windows):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "random", "options": {"windows": windows},
                                "checks": ["switching-witness"]}))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "config error: options.windows" in capsys.readouterr().err


@pytest.mark.parametrize("steps", [-3, 0])
def test_inline_argmin_steps_below_one_exit_two(tmp_path, capsys, steps):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dimension": 2, "frame": ["1", "3"], "steps": steps}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: steps: must be >= 1, got {steps}" in capsys.readouterr().err
    assert not out.exists()
    # leaving steps out still runs an empty argmin scenario
    path.write_text(json.dumps({"dimension": 2, "frame": ["1", "3"]}))
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["trace"] == []


@pytest.mark.parametrize("dimension", [0, -1])
def test_inline_dimension_below_one_exits_two(tmp_path, capsys, dimension):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dimension": dimension, "frame": []}))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert (f"config error: dimension: must be >= 1, got {dimension}"
            in capsys.readouterr().err)


def test_zero_steps_reaches_the_preset_check(tmp_path, capsys):
    assert cli.main(["run", "--preset", "dvr", "--steps", "0",
                     "--out", str(tmp_path)]) == 2
    assert "steps must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("cfg, needle", [
    # each of these used to run, or escape main as a raw TypeError
    ({"preset": "shannon-4.18", "preset_options": {"d": 3}},
     "preset_options: unknown keys ['d'] for preset 'shannon-4.18'"),
    ({"preset": "rr1", "preset_options": {"embed3d": "no"}},
     "preset_options.embed3d: not a boolean: 'no'"),
    ({"preset": "rr1", "preset_options": {"bogus": 1}},
     "preset_options: unknown keys ['bogus'] for preset 'rr1'"),
    ({"preset": "dvr", "preset_options": {"steps": 5}},
     'preset_options must be an object without the top-level fields "steps" and "seed"'),
    ({"preset": "dvr", "preset_options": [1]},
     'preset_options must be an object without the top-level fields "steps" and "seed"'),
], ids=["shannon-d", "rr1-embed3d-string", "rr1-bogus", "dvr-steps", "dvr-not-an-object"])
def test_bad_preset_options_exit_two(tmp_path, capsys, cfg, needle):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"steps": 4, **cfg}))
    assert cli.main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {needle}" in err
    assert "Traceback" not in err


_FIFTEEN = [str(n) for n in range(1, 16)]
_NO_UNIT = [{"sqrt": 2}, {"sqrt": 3}]


@pytest.mark.parametrize("cfg, needle", [
    # each of these used to escape main as a raw ValueError
    ({"dimension": 15, "frame": _FIFTEEN},
     "basis: default basis supports at most 13 generators"),
    ({"dimension": 2, "basis": _NO_UNIT, "frame": ["1", "2"]},
     "frame: basis has no rational unit generator"),
    ({"dimension": 2, "basis": _NO_UNIT, "frame": [["1", "0"], ["0", "1"]],
      "mode": "scripted", "plan": [{"kind": "rescale", "values": ["1", "2"]}]},
     "frame: basis has no rational unit generator"),
    ({"dimension": 2, "frame": ["1", "3/2"], "names": ["a"]},
     "frame: one name per direction required"),
    ({"dimension": 2, "frame": ["1", "3/2"], "names": ["a", "a"]},
     "frame: direction names must be distinct"),
    # this one used to escape as a raw TypeError
    ({"dimension": 2, "frame": ["1", "3/2"], "names": 5},
     "names: must be a list of strings"),
], ids=["fifteen-default", "frame-rational-no-unit", "rescale-rational-no-unit",
        "names-short", "names-repeated", "names-not-a-list"])
def test_inline_build_faults_exit_two(tmp_path, capsys, cfg, needle):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {needle}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", [1.5, "abc"])
def test_config_seed_is_an_integer(tmp_path, capsys, seed):
    # 1.5 used to land in report.json as a float, "abc" to seed the draws
    for cfg in ({"dimension": 2, "frame": ["1", "3/2"], "steps": 2},
                {"preset": "random", "steps": 5}):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "seed": seed}))
        assert cli.main(["run", "--config", str(path)]) == 2
        assert f"config error: seed: not an integer: {seed!r}" in capsys.readouterr().err


def _count_replays(monkeypatch):
    """The names of the scenarios replayed from now on, in a list."""
    real = gallery.replay_states
    calls = []

    def counting(scenario):
        calls.append(scenario.name)
        return real(scenario)

    for name, mod in list(sys.modules.items()):
        if name.startswith("quadseq") and getattr(mod, "replay_states", None) is real:
            monkeypatch.setattr(mod, "replay_states", counting)
    return calls


@pytest.mark.parametrize("checks", [["--checks", "all"], []])
def test_run_replays_the_scenario_once(monkeypatch, tmp_path, checks):
    calls = _count_replays(monkeypatch)
    assert cli.main(["run", "--preset", "random", "--steps", "30", "--seed", "4",
                     *checks, "--out", str(tmp_path)]) == 0
    assert calls == ["random-d3-s4"]


_SCRIPTED = {"dimension": 2, "frame": ["1", "3/2"], "mode": "scripted",
             "plan": [{"kind": "monomial", "direction": 0}]}


@pytest.mark.parametrize("cfg, needle", [
    # the first two used to exit 0, one without checks and one on stdout;
    # the third iterated the string; the rest escaped main as tracebacks
    ({"preset": "dvr", "chekcs": ["eq631"]}, "config error: unknown fields ['chekcs']"),
    ({"preset": "dvr", "output": {"jsn": "r.json"}}, "config error: output:"),
    ({"preset": "dvr", "checks": "eq631"}, "config error: checks: must be a list"),
    ({"preset": "dvr", "checks": 5}, "config error: checks: must be a list"),
    ({"preset": "dvr", "checks": None}, "config error: checks: must be a list"),
    ({"preset": "dvr", "checks": ["bound63", {"a": 1}]}, "config error: checks: must be a list"),
    ({"preset": "dvr", "output": 5}, "config error: output:"),
    ({"preset": "dvr", "output": True}, "config error: output:"),
    ({"preset": "dvr", "output": [1]}, "config error: output:"),
    ({"preset": "dvr", "output": "1/0"}, "config error: output:"),
    ({"preset": "dvr", "output": {"json": 5}}, "config error: output:"),
    ({"preset": []}, "config error: unknown preset []"),
    ({**_SCRIPTED, "boundaries": 5}, "config error: boundaries: must be a list"),
    ({**_SCRIPTED, "name": 5}, "config error: name: must be a string"),
    # the rest used to run: a misspelt plan key, and fields the kind never reads
    ({**_SCRIPTED, "plan": [{"kind": "monomial", "direction": 0, "cuont": 3}]},
     "config error: plan[0]: unknown keys ['cuont'] for monomial steps"),
    ({**_SCRIPTED, "plan": [{"kind": "monomial", "direction": 0},
                            {"kind": "rescale", "values": ["1", "2"], "count": 2}]},
     "config error: plan[1]: unknown keys ['count'] for rescale steps"),
    ({"preset": "dvr", "frame": ["1"], "plan": 5},
     "config error: unknown fields ['frame', 'plan'] for preset configs"),
    ({"dimension": 2, "frame": ["1", "3/2"], "plan": 5, "boundaries": "x"},
     "config error: unknown fields ['boundaries', 'plan'] for argmin configs"),
    ({**_SCRIPTED, "steps": 7}, "config error: unknown fields ['steps'] for scripted configs"),
], ids=["misspelt-field", "misspelt-output-key", "checks-string", "checks-int",
        "checks-null", "checks-non-string-id", "output-int", "output-bool",
        "output-list", "output-string", "output-json-int", "preset-list",
        "boundaries-int", "name-int", "plan-step-misspelt-key", "plan-rescale-count",
        "preset-with-inline-fields", "argmin-with-scripted-fields", "scripted-with-steps"])
def test_config_field_shapes_exit_two(tmp_path, capsys, cfg, needle):
    # --steps, merged after the field check, caps any run the config would start
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--steps", "4",
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg, flags", [
    ({"checks": ["eq631", "bound6"]}, []),
    ({}, ["--checks", "eq631,bound6"]),
], ids=["config", "flag"])
def test_a_misspelt_check_id_takes_no_replay(monkeypatch, tmp_path, capsys, cfg, flags):
    calls = _count_replays(monkeypatch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "random", "steps": 30, **cfg}))
    assert cli.main(["run", "--config", str(path), *flags]) == 2
    assert "unknown check: bound6" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("scenario", [
    gallery.gen_shannon_418(episodes=6),
    gallery.gen_713(episodes=5),
    gallery.gen_notunion_rr1(steps=25, embed3d=True),
    gallery.gen_random_independent(4, seed=9, steps=60),
], ids=lambda sc: sc.name)
@pytest.mark.parametrize("width", [Fraction(1, 10**6), Fraction(1, 7)])
def test_trace_matches_an_independent_replay(scenario, width):
    rows = cli.build_trace(collect_artifacts(scenario), width)
    states = list(gallery.replay_states(scenario))
    assert len(rows) == len(states) >= 1
    for n, (row, st) in enumerate(zip(rows, states), start=1):
        m_lo, m_hi = st.history[n - 1].m_value.evaluate_interval(width)
        e_lo, e_hi = st.partial_sum.evaluate_interval(width)
        assert row["step"] == n
        assert (row["m_lo"], row["m_hi"]) == (cli._frac_str(m_lo), cli._frac_str(m_hi))
        assert (row["E_lo"], row["E_hi"]) == (cli._frac_str(e_lo), cli._frac_str(e_hi))


def test_unknown_preset_and_check_exit_two(capsys):
    assert cli.main(["run", "--preset", "nope"]) == 2
    assert cli.main(["run", "--preset", "dvr", "--steps", "4",
                     "--checks", "nope"]) == 2


def test_inline_argmin_config(tmp_path):
    cfg = tmp_path / "inline.json"
    cfg.write_text(json.dumps({
        "name": "golden-pair",
        "dimension": 2,
        "basis": ["one", {"sqrt": 2}],
        "frame": [["1", "0"], ["0", "1"]],
        "mode": "argmin",
        "steps": 12,
        "checks": ["eq631", "tau-bound", "videal-chain"],
        "options": {"n_ideals": 5, "chain_length": 8},
    }))
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["scenario"]["name"] == "golden-pair"
    verdicts = {c["check"]: c["verdict"] for c in rep["checks"]}
    assert verdicts == {"eq631": "pass", "tau-bound": "pass",
                        "videal-chain": "pass"}
    assert len(rep["trace"]) == 12


def test_bound63_names_the_missing_second_direction(tmp_path):
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({"dimension": 1, "frame": ["1"], "steps": 3}))
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(cfg), "--checks", "bound63",
                     "--out", str(out)]) == 0
    (check,) = json.loads((out / "report.json").read_text())["checks"]
    assert check["verdict"] == "not applicable"
    assert check["detail"] == {
        "reason": "the series bound needs at least two directions"}


def test_a_frame_near_two_to_the_200_runs_every_check(tmp_path, capsys):
    # 2^200 and 2^199*sqrt2: the shadow scale of such a segment start
    # stays positive, so frame_below certifies without a negative shift
    big = 2 ** 200
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"dimension": 2,
                               "frame": [str(big), ["0", str(big // 2)]],
                               "steps": 20}))
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(cfg), "--checks", "all",
                     "--out", str(out)]) == 0
    assert "bound63: pass" in capsys.readouterr().err


def test_thm33a_passes_on_a_long_scripted_word(tmp_path, capsys):
    # frame (1, phi, just below phi^2): x and y alternate as the least
    # values for 100 steps, then z is least; orders on this word pass 2^40
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({
        "dimension": 3,
        "basis": ["one", {"sqrt": 5}],
        "frame": [["1", "0"], ["1/2", "1/2"],
                  ["186982561199565069127/4", "-83621143489848422975/4"]],
        "mode": "scripted",
        "plan": [{"kind": "monomial", "direction": i % 2} for i in range(100)]
                + [{"kind": "monomial", "direction": 2}],
    }))
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(cfg), "--checks", "thm33a",
                     "--out", str(out)]) == 0
    assert "thm33a: pass" in capsys.readouterr().err
    check = json.loads((out / "report.json").read_text())["checks"][0]
    assert check["verdict"] == "pass"
    assert check["detail"]["word_length"] == 101


def test_rationals_serialized_as_strings(tmp_path):
    out = tmp_path / "r"
    assert cli.main(["run", "--preset", "shannon-4.18", "--steps", "5",
                     "--checks", "series-sum", "--out", str(out)]) == 0
    text = (out / "report.json").read_text()
    rep = json.loads(text)
    assert rep["checks"][0]["detail"]["limit"] == "8/3"

    def no_floats(node):
        if isinstance(node, float):
            raise AssertionError(f"float leaked into the report: {node}")
        if isinstance(node, dict):
            for v in node.values():
                no_floats(v)
        elif isinstance(node, list):
            for v in node:
                no_floats(v)

    no_floats(rep)


def test_verify_requires_all_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 2


def _fake_criteria(monkeypatch, oks):
    results = [CriterionResult(n, f"title {n}", ok, f"summary {n}", seconds=0.25 * n)
               for n, ok in enumerate(oks, 1)]
    monkeypatch.setattr(cli.acceptance, "run_all", lambda: results)
    return results


def test_verify_prints_each_verdict_and_the_tally(monkeypatch, capsys):
    results = _fake_criteria(monkeypatch, [True, False])
    assert cli.main(["verify", "--all"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [r.line() for r in results] + [
        "1/2 criteria passed; failing: [2]"]
    assert err == ""


def test_verify_exits_zero_when_every_criterion_passes(monkeypatch, capsys):
    _fake_criteria(monkeypatch, [True, True])
    assert cli.main(["verify", "--all"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2/2 criteria passed"


def test_verify_timings_go_to_stderr(monkeypatch, capsys):
    _fake_criteria(monkeypatch, [True, False])
    assert cli.main(["verify", "--all", "--timings"]) == 1
    out, err = capsys.readouterr()
    assert err.splitlines() == ["  criterion 1 took 0.25s", "  criterion 2 took 0.50s"]
    assert "took" not in out


_THM33A_D4 = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from quadseq import cli
start = time.perf_counter()
code = cli.main(["run", "--config", sys.argv[1]])
print(json.dumps({"code": code, "seconds": time.perf_counter() - start}),
      file=sys.stderr)
"""


def test_thm33a_past_the_antichain_cap_is_not_applicable(tmp_path):
    # the d = 4 sweep would table 2,154,533 antichains, so the child runs
    # under 2 GiB: the cap must refuse it before any table is built
    cfg = tmp_path / "d4.json"
    cfg.write_text(json.dumps({
        "dimension": 4, "frame": ["1", "3/2", "7/4", "15/8"], "mode": "scripted",
        "plan": [{"kind": "monomial", "direction": w} for w in range(4)],
        "checks": ["thm33a"],
    }))
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadseq.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _THM33A_D4, str(cfg)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    outcome = json.loads(proc.stderr.splitlines()[-1])
    assert outcome["code"] == 0
    assert outcome["seconds"] < 2.0
    (result,) = json.loads(proc.stdout)["checks"]
    assert result["verdict"] == "not applicable"
    assert result["detail"]["antichain_cap"] == ANTICHAIN_CAP


def _encoder_text(report):
    """What ``json.dumps`` writes for ``report``: the reference for report.json."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("source", [
    ["--preset", "random", "--steps", "40", "--seed", "6"],
    ["--preset", "dvr", "--steps", "30"],
    ["--preset", "gmr-7.13", "--steps", "12"],
    ["--preset", "gmr-7.14", "--steps", "6"],
    ["--preset", "shannon-4.18", "--steps", "12"],
    ["--preset", "rr1", "--steps", "30"],
], ids=lambda source: source[1])
def test_report_json_is_the_encoders_text(tmp_path, source):
    out = tmp_path / "r"
    assert cli.main(["run", *source, "--checks", "all", "--out", str(out)]) == 0
    text = (out / "report.json").read_text()
    rep = json.loads(text)
    assert rep["trace"]
    assert text == _encoder_text(rep)


# a quote, a backslash, a newline, a comma, a Latin-1 letter, a non-BMP letter
_ESCAPED_NAMES = ['say "x"', "back\\slash,", "two\nlines é \U0001d52a"]


def test_report_json_escapes_names_as_the_encoder(tmp_path, capsys):
    cfg = tmp_path / "names.json"
    cfg.write_text(json.dumps({
        "dimension": 3, "frame": ["1", "3", "5"], "mode": "scripted",
        "names": _ESCAPED_NAMES,
        "plan": [{"kind": "monomial", "direction": 0},
                 {"kind": "monomial", "direction": 0},
                 {"kind": "rescale", "values": ["2", "1", "3/2"]},
                 {"kind": "monomial", "direction": 1},
                 {"kind": "monomial", "direction": 2}],
    }))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    text = capsys.readouterr().out
    rep = json.loads(text)
    assert [row["dir"] for row in rep["trace"]] == [
        _ESCAPED_NAMES[0], _ESCAPED_NAMES[0], "", *_ESCAPED_NAMES[1:]]
    assert text == _encoder_text(rep)
    scenario = cli.scenario_from_config(json.loads(cfg.read_text()))
    width = Fraction(1, 10**6)
    report = cli.build_report(scenario, [], cli.build_trace(collect_artifacts(scenario), width),
                              width, "inline")
    assert cli.report_json(report) == _encoder_text(report)


def test_report_json_of_an_empty_trace(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"dimension": 2, "frame": ["1", "3/2"],
                               "mode": "scripted", "plan": []}))
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "report.json").read_text()
    rep = json.loads(text)
    assert rep["trace"] == []
    assert text == _encoder_text(rep)
    assert (out / "trace.csv").read_text() == ",".join(cli.CSV_COLUMNS) + "\n"


def test_timings_name_each_phase_and_leave_the_report_alone(tmp_path, capsys):
    args = ["run", "--preset", "gmr-7.13", "--steps", "8", "--checks", "all"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    assert cli.main(args + ["--out", str(tmp_path / "b"), "--timings"]) == 0
    err = capsys.readouterr().err
    phases = [line.split()[0] for line in err.splitlines() if line.startswith("  ")]
    assert phases == ["replay", "trace", "checks", "json", "csv"]
    assert "run took" in err
    for name in ("report.json", "trace.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_an_unwritable_output_path_exits_two(tmp_path, capsys):
    cfg = tmp_path / "rr1.json"
    cfg.write_text(json.dumps({"preset": "rr1", "steps": 4,
                               "output": {"json": str(tmp_path / "no/such/dir/rep.json")}}))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "cannot write" in capsys.readouterr().err
    # --out naming an existing regular file cannot become a directory
    assert cli.main(["run", "--preset", "rr1", "--steps", "4", "--out", str(cfg)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_an_unwritable_output_path_is_refused_before_the_replay(tmp_path, monkeypatch, capsys):
    def no_replay(scenario):
        raise AssertionError("replayed before the output paths were checked")

    monkeypatch.setattr(cli, "collect_artifacts", no_replay)
    cfg = tmp_path / "rr1.json"
    cfg.write_text(json.dumps({"preset": "rr1", "steps": 4,
                               "output": {"json": str(tmp_path / "no/such/dir/rep.json")}}))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert cli.main(["run", "--preset", "rr1", "--steps", "4", "--out", str(cfg)]) == 2
    assert "cannot write" in capsys.readouterr().err
    # so are a json path that is a directory and one that open() cannot take
    for path in (str(tmp_path), "rep\0.json"):
        cfg.write_text(json.dumps({"preset": "rr1", "output": {"json": path}}))
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "cannot write" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rr1.json"]


@pytest.mark.parametrize("value", [0.5, {1, 2}, object()], ids=["float", "set", "object"])
def test_build_report_refuses_a_detail_without_a_canonical_form(value):
    scenario = gallery.build_preset("dvr", steps=2)
    width = Fraction(1, 10**6)
    with pytest.raises(ConfigError, match="refusing to serialize"):
        cli.build_report(scenario, [CheckResult("eq631", "pass", {"x": [value]})], [],
                         width, "preset:dvr")


# the two README configs and a scripted config with a rescale: the seeds
# that the config fuzz test below mutates, one value at a time
_FUZZ_SEEDS = [
    {"preset": "rr1", "steps": 40, "preset_options": {"embed3d": True},
     "checks": ["switching-witness"],
     "output": {"json": "rep.json", "csv": "trace.csv", "interval_width": "1/1000000"}},
    {"name": "golden-pair", "dimension": 2, "basis": ["one", {"sqrt": 2}],
     "frame": [["1", "0"], ["0", "1"]], "mode": "argmin", "steps": 30,
     "checks": ["eq631", "ratio-limit", "tau-bound"]},
    {"dimension": 3, "frame": ["1", "3", "5"], "mode": "scripted",
     "names": ["x", "y", "z"],
     "plan": [{"kind": "monomial", "direction": 0},
              {"kind": "monomial", "direction": 0, "count": 1},
              {"kind": "rescale", "values": ["2", "1", "3/2"]},
              {"kind": "monomial", "direction": 1},
              {"kind": "monomial", "direction": 2}],
     "boundaries": [2, 5], "checks": ["eq631", "series-sum", "thm33a"]},
]


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def test_the_readme_examples_run_as_written(monkeypatch, tmp_path):
    """The library example of the README runs, and so do its two configs,
    which are also the first two fuzz seeds."""
    with open(README) as f:
        text = f.read()
    monkeypatch.chdir(tmp_path)
    example = re.search(r"^## Library example$.*?^```python\n(.*?)^```$", text,
                        re.M | re.S).group(1)
    exec(compile(example, README, "exec"), {})
    configs = re.findall(r"^```json\n(.*?)^```$", text, re.M | re.S)
    assert [json.loads(c) for c in configs] == _FUZZ_SEEDS[:2]
    for n, cfg in enumerate(configs):
        (tmp_path / f"cfg{n}.json").write_text(cfg)
        assert cli.main(["run", "--config", f"cfg{n}.json"]) == 0
    assert (tmp_path / "rep.json").is_file() and (tmp_path / "trace.csv").is_file()


def _paths(node, prefix=()):
    """Every path into a JSON value, the empty path (the value itself) first."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


_FUZZ_KEYS = ["json", "csv", "interval_width", "embed3d", "sqrt", "kind",
              "direction", "count", "values", "d", "max_degree", "windows"]
_fuzz_scalars = (st.integers(-2, 8)
                 | st.sampled_from(["1/2", "", ".", "one", "-1", "0"])
                 | st.text("0123456789/.-ex", max_size=3)
                 | st.booleans() | st.none() | st.floats())
_fuzz_values = (_fuzz_scalars
                | st.lists(_fuzz_scalars, max_size=3)
                | st.dictionaries(st.sampled_from(_FUZZ_KEYS) | st.text(max_size=3),
                                  _fuzz_scalars, max_size=3))


@st.composite
def _fuzzed_configs(draw):
    seed = draw(st.sampled_from(_FUZZ_SEEDS))
    path = draw(st.sampled_from(list(_paths(seed))))
    return _replaced(seed, path, draw(_fuzz_values))


# at 3,000 examples the output-path fault (an unwritable json or csv path
# escaping as an OSError) showed up several times per run.  Each example
# writes into a fresh directory: rewriting one file thousands of times is
# far slower than writing new ones on a file system mounted with
# ``discard`` (164 s of wall time for 9 s of CPU on one such 2-vCPU box)
@given(_fuzzed_configs())
@settings(max_examples=3000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_fuzzed_config_exits_with_a_code_and_never_raises(monkeypatch, tmp_path, cfg):
    # 0: every check passed, 1: a check's verdict was fail, 2: refused
    work = tempfile.mkdtemp(dir=tmp_path)
    monkeypatch.chdir(work)
    with open(os.path.join(work, "cfg.json"), "w") as f:
        json.dump(cfg, f)
    assert cli.main(["run", "--config", "cfg.json"]) in (0, 1, 2)
