"""Command line entry point: scenario runner and report emitter.

Subcommands
-----------
run      execute one scenario (--config JSON file or --preset name) and
         emit a JSON report, plus a CSV trace when asked
verify   run the numbered acceptance criteria, one verdict line each
list     show the available presets and checks
explain  print the one-paragraph description of a check

Reports are canonical: the same config and seed produce byte-identical
JSON.  Rationals are serialized as "num/den" strings, and every real
value carries a rational enclosure of the configured width instead of a
float.  Wall-clock timings never enter the report; --timings prints
them to stderr, one line per phase (replay, trace, checks, json, csv).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import acceptance
from .checks import (CHECKS, CheckResult, RunArtifacts, collect_artifacts, explain,
                     list_checks, parse_options, run_checks)
from .errors import ConfigError, QuadseqError, UnknownCheck
from .forms import MonomialForm
from .gallery import PlanStep, Scenario, _to_int, _to_rational, build_preset, list_presets
from .sequence import ParameterFrame
from .values import RealBasis, ValueVector

DEFAULT_WIDTH = Fraction(1, 10**6)

# the top-level fields each kind of config reads; any other field is refused
_SHARED = ("checks", "options", "output")
_INLINE = ("name", "dimension", "basis", "names", "frame", "mode", "seed") + _SHARED
FIELDS = {"preset": ("preset", "preset_options", "steps", "seed") + _SHARED,
          "argmin": _INLINE + ("steps",),
          "scripted": _INLINE + ("plan", "boundaries")}


# -- canonical serialization ----------------------------------------------------


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _value_obj(v: ValueVector, width: Fraction) -> dict:
    lo, hi = v.evaluate_interval(width)
    return {
        "coeffs": [_frac_str(c) for c in v.coeffs],
        "interval": {"lo": _frac_str(lo), "hi": _frac_str(hi)},
    }


def _canonical(obj, width: Fraction):
    """Recursively rewrite report payloads into JSON-stable primitives."""
    if isinstance(obj, ValueVector):
        return _value_obj(obj, width)
    if isinstance(obj, Fraction):
        return _frac_str(obj)
    if isinstance(obj, MonomialForm):
        return {"support": [list(m) for m in obj.support]}
    if isinstance(obj, dict):
        return {str(k): _canonical(v, width) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(x, width) for x in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    # floats are never canonical, and a repr would not be either
    raise ConfigError(f"refusing to serialize a {type(obj).__name__}: {obj!r}")


# -- config parsing --------------------------------------------------------------


def _parse_value(basis: RealBasis, spec, where: str) -> ValueVector:
    if isinstance(spec, list):
        if len(spec) != basis.size:
            raise ConfigError(
                f"{where}: expected {basis.size} coefficients, got {len(spec)}"
            )
        return basis.value([_to_rational(c, where) for c in spec])
    return basis.rational(_to_rational(spec, where))


def _parse_basis(spec) -> RealBasis:
    if not isinstance(spec, list):
        raise ConfigError(f"basis: must be a list of generators, got {spec!r}")
    gens = [{"sqrt": _to_int(g["sqrt"], f"basis[{i}].sqrt")}
            if isinstance(g, dict) and set(g) == {"sqrt"} else g
            for i, g in enumerate(spec)]
    return RealBasis.from_obj(gens)


def _config_kind(cfg: dict) -> str:
    """preset, argmin or scripted: the kind of a config, which fixes its fields."""
    if "preset" in cfg:
        return "preset"
    mode = cfg.get("mode", "argmin")
    if mode not in ("argmin", "scripted"):
        raise ConfigError(f"unknown mode {mode!r} (use \"argmin\" or \"scripted\")")
    return mode


def _parse_plan(basis: RealBasis, obj, dim: int) -> tuple[PlanStep, ...]:
    if not isinstance(obj, list):
        raise ConfigError("plan must be a list of step objects")
    steps = []
    for i, ps in enumerate(obj):
        where = f"plan[{i}]"
        if not isinstance(ps, dict) or "kind" not in ps:
            raise ConfigError(f"{where}: each step needs a \"kind\"")
        kind = ps["kind"]
        if kind not in ("monomial", "rescale"):
            raise ConfigError(f"{where}: unknown step kind {kind!r}")
        unknown = sorted(set(ps) - {"kind", "direction",
                                    "count" if kind == "monomial" else "values"})
        if unknown:
            raise ConfigError(f"{where}: unknown keys {unknown} for {kind} steps")
        if kind == "monomial":
            if "direction" not in ps:
                raise ConfigError(f"{where}: monomial step needs a direction")
            count = _to_int(ps.get("count", 1), f"{where}.count")
            if count < 1:
                raise ConfigError(f"{where}.count: must be >= 1, got {count}")
            direction = _to_int(ps["direction"], f"{where}.direction")
            steps.append(PlanStep("monomial", direction=direction, count=count))
        else:
            vals = ps.get("values")
            if not isinstance(vals, list) or len(vals) != dim:
                raise ConfigError(f"{where}: rescale needs {dim} new values")
            new_values = tuple(
                _parse_value(basis, v, f"{where}.values[{j}]")
                for j, v in enumerate(vals)
            )
            direction = ps.get("direction")
            steps.append(
                PlanStep("rescale", direction=None if direction is None
                         else _to_int(direction, f"{where}.direction"),
                         new_values=new_values)
            )
    return tuple(steps)


def scenario_from_config(cfg: dict) -> Scenario:
    steps = None if cfg.get("steps") is None else _to_int(cfg["steps"], "steps")
    seed = None if cfg.get("seed") is None else _to_int(cfg["seed"], "seed")
    kind = _config_kind(cfg)
    if kind == "preset":
        options = cfg.get("preset_options") or {}
        if not isinstance(options, dict) or {"steps", "seed"} & set(options):
            raise ConfigError("preset_options must be an object without the "
                              "top-level fields \"steps\" and \"seed\"")
        return build_preset(cfg["preset"], steps=steps, seed=seed, **options)
    for key in ("dimension", "frame"):
        if key not in cfg:
            raise ConfigError(f"inline scenario needs {key!r} (or use a preset)")
    dim = _to_int(cfg["dimension"], "dimension")
    if dim < 1:
        raise ConfigError(f"dimension: must be >= 1, got {dim}")
    names = cfg.get("names")
    if names is not None and not (
            isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ConfigError("names: must be a list of strings")
    field = "basis"  # a ValueError building the inline scenario names it
    try:
        basis = (_parse_basis(cfg["basis"]) if "basis" in cfg
                 else RealBasis.default(dim))
        field = "frame"
        frame_spec = cfg["frame"]
        if not isinstance(frame_spec, list) or len(frame_spec) != dim:
            raise ConfigError(f"frame must list {dim} values")
        values = [_parse_value(basis, s, f"frame[{i}]")
                  for i, s in enumerate(frame_spec)]
        frame = ParameterFrame(values, names=names)
        name = cfg.get("name", "scenario")
        if not isinstance(name, str):
            raise ConfigError("name: must be a string")
        if kind == "argmin":
            if steps is not None and steps < 1:
                raise ConfigError(f"steps: must be >= 1, got {steps}")
            return Scenario(name=name, frame=frame, mode="argmin",
                            steps=steps or 0, seed=seed)
        plan = _parse_plan(basis, cfg.get("plan", []), dim)
        boundaries = cfg.get("boundaries", [])
        if not isinstance(boundaries, list):
            raise ConfigError("boundaries: must be a list of integers")
        boundaries = tuple(_to_int(b, f"boundaries[{i}]") for i, b in enumerate(boundaries))
        return Scenario(name=name, frame=frame, mode="scripted", plan=plan,
                        boundaries=boundaries, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc


# -- trace and report ------------------------------------------------------------


def build_trace(art: RunArtifacts, width: Fraction) -> list[dict]:
    """One row per record of the replay behind ``art``, read from its history.

    Nothing is stepped.  E is the running sum of m * count, exact because
    a rescale adds its m to E as a monomial step does; an enclosure does
    not depend on the denominator a value is written over.  ``count`` is
    an int, so the only Fractions built per record are the reduced
    endpoints of the two enclosures; a rational value's enclosure is one
    point, returned as the same Fraction twice and formatted once.
    """
    final = art.final
    total = final.basis.zero()
    rows = []
    for n, rec in enumerate(final.history, start=1):
        total = total + rec.m_value.scale(rec.count)
        m_lo, m_hi = rec.m_value.evaluate_interval(width)
        e_lo, e_hi = total.evaluate_interval(width)
        m_lo_s = _frac_str(m_lo)
        e_lo_s = _frac_str(e_lo)
        rows.append({
            "step": n,
            "kind": rec.kind,
            "dir": "" if rec.direction is None else final.names[rec.direction],
            "m_lo": m_lo_s,
            "m_hi": m_lo_s if m_hi is m_lo else _frac_str(m_hi),
            "E_lo": e_lo_s,
            "E_hi": e_lo_s if e_hi is e_lo else _frac_str(e_hi),
        })
    return rows


def build_report(scenario: Scenario, results: list[CheckResult],
                 trace: list[dict], width: Fraction, source: str) -> dict:
    return {
        "scenario": {
            "name": scenario.name,
            "source": source,
            "dimension": scenario.dim,
            "basis": scenario.frame.basis.to_obj(),
            "names": list(scenario.frame.names),
            "frame": [_value_obj(v, width) for v in scenario.frame.values],
            "mode": scenario.mode,
            "steps": scenario.steps,
            "plan_records": len(scenario.plan),
            "seed": scenario.seed,
            "notes": scenario.notes,
        },
        "interval_width": _frac_str(width),
        "checks": [
            {"check": r.check, "verdict": r.verdict,
             "detail": _canonical(r.detail, width)}
            for r in results
        ],
        "trace": trace,
    }


def report_json(report: dict) -> str:
    """The text of ``json.dumps(report, indent=2, sort_keys=True) + "\n"``.

    ``indent`` sends ``json.dumps`` through the pure-Python encoder, so the
    trace, nearly all of a long report, is written here instead.  Its key
    sorts last, so the rest of the report is encoded first and the rows
    follow, each in the layout the encoder gives it: keys in sorted order
    (``E_hi``, ``E_lo``, ``dir``, ``kind``, ``m_hi``, ``m_lo``, ``step``).
    ``step`` is an int, ``kind`` is ``monomial`` or ``rescale`` and the
    four bounds are ``num/den`` strings, so none of them needs escaping;
    each distinct ``dir`` is escaped once, by the encoder's own function.
    """
    head = json.dumps({k: v for k, v in report.items() if k != "trace"},
                      indent=2, sort_keys=True)
    names: dict[str, str] = {}
    rows = []
    for row in report["trace"]:
        name = row["dir"]
        if name not in names:
            names[name] = encode_basestring_ascii(name)
        rows.append(f'    {{\n      "E_hi": "{row["E_hi"]}",\n'
                    f'      "E_lo": "{row["E_lo"]}",\n'
                    f'      "dir": {names[name]},\n'
                    f'      "kind": "{row["kind"]}",\n'
                    f'      "m_hi": "{row["m_hi"]}",\n'
                    f'      "m_lo": "{row["m_lo"]}",\n'
                    f'      "step": {row["step"]}\n    }}')
    trace = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return f'{head[:-2]},\n  "trace": {trace}\n}}\n'


CSV_COLUMNS = ("step", "kind", "dir", "m_lo", "m_hi", "E_lo", "E_hi")


def write_csv(path: str, trace: list[dict]) -> None:
    """Write the trace rows as CSV, one row at a time, quoted as
    ``csv.DictWriter(fh, CSV_COLUMNS, lineterminator="\\n")`` would quote them.

    ``step`` is an int, ``kind`` is ``monomial`` or ``rescale`` and the four
    bounds are ``num/den`` strings, so none of them ever needs quoting.
    Only ``dir``, a direction name the config chooses, can: each distinct
    name is written once by the csv module, as the first cell of a
    two-field row, so that the empty name of a rescale row stays empty
    where a one-field row would quote it as ``""``.
    """
    cells: dict[str, str] = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in trace:
            name = row["dir"]
            if name not in cells:
                buf = io.StringIO()
                csv.writer(buf, lineterminator="\n").writerow((name, ""))
                cells[name] = buf.getvalue()[:-2]
            fh.write(f"{row['step']},{row['kind']},{cells[name]},{row['m_lo']},"
                     f"{row['m_hi']},{row['E_lo']},{row['E_hi']}\n")


# -- subcommands -----------------------------------------------------------------


def cmd_run(args) -> int:
    t0 = time.perf_counter()
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        kind = _config_kind(cfg)
        unknown = sorted(set(cfg) - set(FIELDS[kind]))
        if unknown:
            raise ConfigError(f"unknown fields {unknown} for {kind} configs")
        source = f"config:{os.path.basename(args.config)}"
    else:
        cfg = {"preset": args.preset}
        source = f"preset:{args.preset}"
    if args.steps is not None:
        cfg["steps"] = args.steps
    if args.seed is not None:
        cfg["seed"] = args.seed

    scenario = scenario_from_config(cfg)
    check_ids = cfg.get("checks", [])
    if not isinstance(check_ids, list) or not all(isinstance(c, str) for c in check_ids):
        raise ConfigError("checks: must be a list of check ids")
    if args.checks is not None:
        check_ids = (list_checks() if args.checks == "all"
                     else [c for c in args.checks.split(",") if c])
    for cid in check_ids:  # an unknown id is refused before the replay
        if cid not in CHECKS:
            raise UnknownCheck(cid)
    options = cfg.get("options")
    parse_options(options, scenario.frame.dim)  # refused before the replay

    output = cfg.get("output", {})
    if (not isinstance(output, dict) or set(output) - {"json", "csv", "interval_width"}
            or not all(isinstance(output.get(k, ""), str) for k in ("json", "csv"))):
        raise ConfigError("output: takes only the strings json and csv and interval_width")
    width = DEFAULT_WIDTH
    if "interval_width" in output:
        width = _to_rational(output["interval_width"], "output.interval_width")
    if args.interval_width is not None:
        width = _to_rational(args.interval_width, "--interval-width")
    if width <= 0:
        raise ConfigError("interval width must be positive")

    # the output paths are refused before the replay, not after it
    json_path = output.get("json")
    csv_path = output.get("csv")
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write the output: {exc}") from exc
        json_path = os.path.join(args.out, json_path or "report.json")
        csv_path = os.path.join(args.out, csv_path or "trace.csv")
    for path in filter(None, (json_path, csv_path)):
        if "\0" in path:
            raise ConfigError(f"cannot write the output: {path!r} holds a NUL byte")
        if os.path.isdir(path):
            raise ConfigError(f"cannot write the output: {path} is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot write the output: no directory for {path}")

    laps = [("", time.perf_counter())]
    art = collect_artifacts(scenario)
    laps.append(("replay", time.perf_counter()))
    trace = build_trace(art, width)
    laps.append(("trace", time.perf_counter()))
    results = run_checks(art, check_ids, options)
    laps.append(("checks", time.perf_counter()))

    payload = report_json(build_report(scenario, results, trace, width, source))
    try:
        if json_path:
            with open(json_path, "w") as fh:
                fh.write(payload)
            print(f"wrote {json_path}", file=sys.stderr)
        else:
            sys.stdout.write(payload)
        laps.append(("json", time.perf_counter()))
        if csv_path:
            write_csv(csv_path, trace)
            print(f"wrote {csv_path}", file=sys.stderr)
            laps.append(("csv", time.perf_counter()))
    except OSError as exc:
        raise ConfigError(f"cannot write the output: {exc}") from exc
    for r in results:
        print(f"{r.check}: {r.verdict}", file=sys.stderr)
    if args.timings:
        for (_, start), (phase, end) in zip(laps, laps[1:]):
            print(f"  {phase} took {end - start:.3f}s", file=sys.stderr)
        print(f"run took {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0 if all(r.ok for r in results) else 1


def cmd_verify(args, parser) -> int:
    if not args.all:
        parser.error("verify needs --all (the suite runs as a whole)")
    results = acceptance.run_all()
    for r in results:
        print(r.line())
        if args.timings:
            print(f"  criterion {r.number} took {r.seconds:.2f}s",
                  file=sys.stderr)
    failed = [r.number for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed"
          + (f"; failing: {failed}" if failed else ""))
    return 0 if not failed else 1


def cmd_list(_args) -> int:
    print("presets:")
    for name in list_presets():
        print(f"  {name}")
    print("checks:")
    for name in list_checks():
        print(f"  {name}")
    return 0


def cmd_explain(args) -> int:
    print(explain(args.check))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadseq",
        description="run and verify directed sequences of monomial local "
                    "quadratic transforms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario and emit a report")
    src = run_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="JSON scenario config file")
    src.add_argument("--preset", help="named preset scenario")
    run_p.add_argument("--steps", type=int, help="step/episode budget override")
    run_p.add_argument("--seed", type=int, help="seed override")
    run_p.add_argument("--out", help="directory for report.json and trace.csv")
    run_p.add_argument("--interval-width",
                       help="rational width for value enclosures, e.g. 1/1000000")
    run_p.add_argument("--checks",
                       help="comma-separated check ids, or \"all\" "
                            "(overrides the config)")
    run_p.add_argument("--timings", action="store_true",
                       help="print wall-clock timings to stderr")

    verify_p = sub.add_parser("verify", help="run the acceptance criteria")
    verify_p.add_argument("--all", action="store_true",
                          help="run the full suite")
    verify_p.add_argument("--timings", action="store_true",
                          help="print per-criterion timings to stderr")

    sub.add_parser("list", help="show available presets and checks")

    explain_p = sub.add_parser("explain", help="describe one check")
    explain_p.add_argument("check", help="check id, e.g. eq631")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "verify":
            return cmd_verify(args, parser)
        if args.command == "list":
            return cmd_list(args)
        return cmd_explain(args)
    except UnknownCheck as exc:
        print(f"unknown check: {exc.args[0]}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QuadseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
