"""Command-line runner and benchmark harness.

Single file: sample it, write `<name>.samples.smt2` and
`<name>.report.json`, exit 0 when the coverage target was reached.
Directory: run every `.smt2` file at each target ratio and write a
per-run record CSV plus aggregate CSV/JSON tables.

Every flag can be preset through an environment variable with the
`PANSAMPLER_` prefix (`--bias-p` -> `PANSAMPLER_BIAS_P`); explicit flags
win over the environment, and a preset the flag would reject is a usage
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .abstraction import abstract_formula
from .bitblast import bit_blast, to_dimacs
from .oracle import OracleError, enumerate_solutions, exact_coverage, slow_satisfies
from .parser import ParseError, parse_file
from .printer import print_models, print_term
from .sampler import (FormulaUnsatError, Mode, SampleResult, SamplerConfig,
                      sample)
from .terms import Formula

EXIT_TARGET = 0
EXIT_TIMEOUT = 3
EXIT_ERROR = 4
EXIT_STALL = 5
EXIT_MAX_SOLUTIONS = 6
EXIT_UNSAT = 7  # not 2, which argparse gives a usage error
EXIT_CONFLICT_BUDGET = 8

_REASON_EXIT = {
    "target": EXIT_TARGET,
    "unsat": EXIT_UNSAT,
    "timeout": EXIT_TIMEOUT,
    "error": EXIT_ERROR,
    "stall": EXIT_STALL,
    "max_solutions": EXIT_MAX_SOLUTIONS,
    "conflict_budget": EXIT_CONFLICT_BUDGET,
}

RECORD_FIELDS = ["benchmark", "logic", "mode", "r", "achieved",
                 "num_solutions", "time_s", "coverage_star", "reason"]

DEFAULT_TARGETS = [0.8, 0.9, 0.95, 0.98, 0.99, 0.995]

UNCOVERED_LISTED = 32  # uncovered slots a report lists
NODE_CHARS = 120  # printed length of a listed node


@dataclass
class BenchRecord:
    benchmark: str
    logic: str
    mode: str
    r: float
    achieved: bool
    num_solutions: int
    time_s: float
    coverage_star: float
    reason: str

    def csv_row(self) -> list[str]:
        return [self.benchmark, self.logic, self.mode, f"{self.r:g}",
                "true" if self.achieved else "false", str(self.num_solutions),
                f"{self.time_s:.6f}", f"{self.coverage_star:.6f}", self.reason]


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("", "0", "false", "no", "off")


def _preset_name(flag: str) -> str:
    return "PANSAMPLER_" + flag.lstrip("-").upper().replace("-", "_")


def _apply_env_presets(p: argparse.ArgumentParser) -> None:
    """Default each optional flag to PANSAMPLER_<FLAG>, checked as the
    flag's own value would be."""
    for action in p._actions:
        if not action.option_strings or action.dest == "help":
            continue
        name = _preset_name(max(action.option_strings, key=len))
        raw = os.environ.get(name)
        if raw is None:
            continue
        if action.nargs == 0:  # store_true
            word = raw.strip().lower()
            if word not in _TRUE + _FALSE:
                p.error(f"{name}: expected a boolean, got {raw!r}")
            action.default = word in _TRUE
            continue
        try:
            value = action.type(raw) if action.type else raw
        except ValueError:
            p.error(f"{name}: invalid {action.type.__name__} value: {raw!r}")
        if action.choices is not None and value not in action.choices:
            p.error(f"{name}: invalid choice: {raw!r} (choose from "
                    f"{', '.join(map(repr, action.choices))})")
        action.default = value


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pansampler",
        description="Coverage-maximizing SMT solution sampler "
                    "(QF_BV / QF_ABV / QF_AUFBV)")
    p.add_argument("path", help=".smt2 file, or a directory for a benchmark suite")
    p.add_argument("--target-coverage", type=float, default=0.995,
                   help="stop once this fraction of AST-bits is covered")
    p.add_argument("--lambda", dest="lam", type=int, default=50,
                   help="candidates drawn per iteration")
    p.add_argument("--max-solutions", type=int, default=1000)
    p.add_argument("--time-budget", type=float, default=3600.0,
                   help="seconds of sampling per benchmark")
    p.add_argument("--mode", choices=[m.value for m in Mode],
                   default=Mode.PANSAMPLER.value)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bias-p", type=float, default=0.85,
                   help="probability of taking the minority phase")
    p.add_argument("--emit-dimacs", action="store_true",
                   help="also write the initial CNF as <name>.dimacs")
    p.add_argument("--oracle-check", action="store_true",
                   help="verify samples and exact coverage by brute force "
                        "(desk-size formulas only)")
    p.add_argument("--deterministic-timing", action="store_true",
                   help="report zeroed wall times for reproducible output")
    p.add_argument("--targets", default="",
                   help="comma-separated coverage targets for suite runs "
                        "(default: 0.8,0.9,0.95,0.98,0.99,0.995)")
    p.add_argument("--out-dir", default="",
                   help="artifact directory (default: next to each input)")
    _apply_env_presets(p)
    return p


def sampler_config(args: argparse.Namespace, r: float | None = None) -> SamplerConfig:
    return SamplerConfig(
        target_coverage=args.target_coverage if r is None else r,
        lam=args.lam,
        max_solutions=args.max_solutions,
        time_budget=args.time_budget,
        mode=Mode(args.mode),
        seed=args.seed,
        bias_p=args.bias_p,
    )


def infer_logic(f: Formula) -> str:
    if f.logic:
        return f.logic
    if f.fun_vars():
        return "QF_AUFBV"
    if f.array_vars():
        return "QF_ABV"
    return "QF_BV"


def _out_path(path: Path, out_dir: str, suffix: str) -> Path:
    base = Path(out_dir) if out_dir else path.parent
    return base / (path.stem + suffix)


def _oracle_report(f: Formula, result: SampleResult) -> dict:
    try:
        rep = enumerate_solutions(f)
    except OracleError as e:
        return {"error": str(e)}
    ok = all(slow_satisfies(f, a) for a in result.solutions)
    return {
        "num_solutions_exhaustive": len(rep.solutions),
        "valid_bits": rep.valid_bits,
        "total_ast_bits": rep.universe.num_ast_bits,
        "all_samples_valid": ok,
        "exact_coverage": exact_coverage(rep, result.solutions),
    }


def _reachability(f: Formula, result: SampleResult) -> dict:
    """Coverage over the slots not proved unreachable, and the first
    uncovered slots, the ones not proved unreachable first. A slot the
    run never tried to prove counts as not proved."""
    universe = result.universe
    total = universe.num_ast_bits
    unreachable = result.unreachable
    reachable = total - unreachable.bit_count()
    uncovered = ((1 << total) - 1) & ~result.covered
    listed = []
    for slots, proved in ((uncovered & ~unreachable, False),
                          (unreachable, True)):
        while slots and len(listed) < UNCOVERED_LISTED:
            low = slots & -slots
            slots ^= low
            k, value = divmod(low.bit_length() - 1, 2)
            tid, bit = universe.entries[k]
            node = print_term(f.table, tid)
            if len(node) > NODE_CHARS:
                node = node[:NODE_CHARS] + "..."
            listed.append({"node": node, "bit": bit, "value": value,
                           "proved": proved})
    return {
        "coverage_reachable": (result.coverage["covered_slots"] / reachable
                               if reachable else
                               result.coverage["coverage_star"]),
        "uncovered": listed,
    }


def run_file(path: str | Path, cfg: SamplerConfig, out_dir: str = "",
             emit_dimacs: bool = False, oracle_check: bool = False,
             deterministic_timing: bool = False,
             artifact_tag: str = "") -> tuple[BenchRecord, int]:
    """Sample one benchmark and write its artifacts.

    Returns the record plus the process exit code. Wall time covers
    sampling only; parse time is reported separately in the JSON."""
    path = Path(path)
    mode = cfg.mode.value

    def failed(reason: str, logic: str = "unknown") -> tuple[BenchRecord, int]:
        rec = BenchRecord(str(path), logic, mode, cfg.target_coverage, False,
                          0, 0.0, 0.0, reason)
        return rec, _REASON_EXIT[reason]

    parse_start = time.perf_counter()
    try:
        f = parse_file(str(path))
    except (OSError, ParseError) as e:
        print(f"{path}: {e}", file=sys.stderr)
        return failed("error")
    parse_time = time.perf_counter() - parse_start
    logic = infer_logic(f)

    if emit_dimacs:
        abs_ = abstract_formula(f)
        cnf, _ = bit_blast(f.table, abs_.formula.decls, abs_.formula.assertions)
        _out_path(path, out_dir, artifact_tag + ".dimacs").write_text(
            to_dimacs(cnf))

    try:
        result = sample(f, cfg)
        reason = result.reason
    except FormulaUnsatError:
        result = None
        reason = "unsat"
    except Exception as e:  # sampler failures become suite records
        print(f"{path}: {e}", file=sys.stderr)
        return failed("error", logic)

    if result is None:
        rec, code = failed("unsat", logic)
        samples, report = [], {
            "benchmark": str(path), "logic": logic, "mode": mode,
            "target_coverage": cfg.target_coverage, "reason": "unsat",
            "achieved": False, "num_solutions": 0,
            "parse_time_s": 0.0 if deterministic_timing else parse_time,
        }
    else:
        wall = 0.0 if deterministic_timing else result.wall_time
        rec = BenchRecord(str(path), logic, mode, cfg.target_coverage,
                          result.achieved, len(result.solutions), wall,
                          result.coverage["coverage_star"], reason)
        code = _REASON_EXIT[reason]
        samples = result.solutions
        report = {
            "benchmark": str(path),
            "logic": logic,
            "mode": mode,
            "target_coverage": cfg.target_coverage,
            "lambda": cfg.lam,
            "max_solutions": cfg.max_solutions,
            "time_budget_s": cfg.time_budget,
            "seed": cfg.seed,
            "bias_p": cfg.bias_p,
            "reason": reason,
            "achieved": result.achieved,
            "iterations": result.iterations,
            "num_solutions": len(result.solutions),
            "parse_time_s": 0.0 if deterministic_timing else parse_time,
            "time_s": wall,
            "phase_times_s": ({k: 0.0 for k in result.phase_times}
                              if deterministic_timing else result.phase_times),
            "coverage": result.coverage,
            **_reachability(f, result),
            "coverage_star_trace": result.coverage_star_trace,
            "solutions": [a.to_json_obj() for a in samples],
        }
        if oracle_check:
            report["oracle_check"] = _oracle_report(f, result)

    _out_path(path, out_dir, artifact_tag + ".samples.smt2").write_text(
        print_models(f, samples))
    _out_path(path, out_dir, artifact_tag + ".report.json").write_text(
        json.dumps(report, indent=2) + "\n")
    return rec, code


def run_suite(directory: str | Path, args: argparse.Namespace,
              configs: list[SamplerConfig]) -> tuple[list[BenchRecord], dict]:
    """Run every .smt2 file under every config, one per target;
    per-file failures become records with reason=error and the suite
    keeps going."""
    directory = Path(directory)
    # Sample artifacts land next to their inputs by default; never treat
    # them as benchmarks.
    files = sorted(p for p in directory.glob("*.smt2")
                   if not p.name.endswith(".samples.smt2"))
    records: list[BenchRecord] = []
    for cfg in configs:
        for path in files:
            rec, _ = run_file(
                path, cfg, out_dir=args.out_dir,
                emit_dimacs=args.emit_dimacs, oracle_check=args.oracle_check,
                deterministic_timing=args.deterministic_timing,
                artifact_tag=f".r{cfg.target_coverage:g}")
            records.append(rec)
    return records, aggregate(records, [cfg.target_coverage for cfg in configs])


def aggregate(records: list[BenchRecord], targets: list[float]) -> dict:
    """Per-target success counts and means over the achieved runs; None
    marks a target nothing achieved (dash in the CSV rendering)."""
    rows = []
    for r in targets:
        sub = [rec for rec in records if rec.r == r]
        ach = [rec for rec in sub if rec.achieved]
        rows.append({
            "r": r,
            "num_benchmarks": len(sub),
            "suc": len(ach),
            "mean_solutions": (sum(a.num_solutions for a in ach) / len(ach)
                               if ach else None),
            "mean_time_s": (sum(a.time_s for a in ach) / len(ach)
                            if ach else None),
        })
    return {"targets": rows}


def records_csv(records: list[BenchRecord]) -> str:
    """The header and one row per record; a field that holds a comma, a
    quote or a line break is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RECORD_FIELDS)
    writer.writerows(rec.csv_row() for rec in records)
    return out.getvalue()


def aggregate_csv(agg: dict) -> str:
    lines = ["r,num_benchmarks,suc,mean_solutions,mean_time_s"]
    for row in agg["targets"]:
        mean_sol = "-" if row["mean_solutions"] is None else f"{row['mean_solutions']:.3f}"
        mean_t = "-" if row["mean_time_s"] is None else f"{row['mean_time_s']:.6f}"
        lines.append(f"{row['r']:g},{row['num_benchmarks']},{row['suc']},"
                     f"{mean_sol},{mean_t}")
    return "\n".join(lines) + "\n"


def _parse_targets(raw: str) -> list[float]:
    out = []
    for tok in filter(str.strip, raw.split(",")):
        try:
            r = float(tok)
        except ValueError:
            raise ValueError(f"--targets: invalid float value: {tok!r}") from None
        # A target tags its artifacts and aggregate row as r:g.
        if f"{r:g}" in map("{:g}".format, out):
            raise ValueError(f"--targets: repeated value {r:g}")
        out.append(r)
    if not out:
        return list(DEFAULT_TARGETS)
    return out


def _given(parser: argparse.ArgumentParser, argv: list[str] | None,
           flag: str) -> str | None:
    """What set an optional flag: the flag on the command line, its
    non-empty preset, or nothing (None)."""
    dest = parser._option_string_actions[flag].dest
    unset = object()
    ns = parser.parse_args(argv, argparse.Namespace(**{dest: unset}))
    if getattr(ns, dest) is not unset:
        return flag
    name = _preset_name(flag)
    return name if os.environ.get(name) else None


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    path = Path(args.path)
    # A suite takes its targets from --targets, a single file from
    # --target-coverage; the other one would be ignored.
    run, ignored, used = (("a suite", "--target-coverage", "--targets")
                          if path.is_dir() else
                          ("a single-file", "--targets", "--target-coverage"))
    given = _given(parser, argv, ignored)
    if given:
        parser.error(f"{given} does not apply to {run} run; use {used}")
    # Every config is checked before any file runs.
    try:
        if path.is_dir():
            configs = [sampler_config(args, r)
                       for r in _parse_targets(args.targets)]
        else:
            configs = [sampler_config(args)]
    except ValueError as e:
        parser.error(str(e))
    if args.out_dir:
        try:
            Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as e:
            parser.error(f"--out-dir: cannot create it: {e}")
    if path.is_dir():
        records, agg = run_suite(path, args, configs)
        base = Path(args.out_dir) if args.out_dir else path
        (base / "suite_records.csv").write_text(records_csv(records))
        (base / "suite_aggregate.csv").write_text(aggregate_csv(agg))
        (base / "suite_aggregate.json").write_text(
            json.dumps(agg, indent=2) + "\n")
        print(aggregate_csv(agg), end="")
        return 0
    rec, code = run_file(
        path, configs[0], out_dir=args.out_dir,
        emit_dimacs=args.emit_dimacs, oracle_check=args.oracle_check,
        deterministic_timing=args.deterministic_timing)
    print(records_csv([rec]), end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
