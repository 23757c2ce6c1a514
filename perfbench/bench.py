"""One benchmark run: set-up timing, timed passes, output checks, metrics.

A pass runs every formula run of the workload once, one after another,
through the CLI entry points (`cli.run_file`, or `cli.main` on a
directory). Untraced passes repeat while the next one is expected to fit
in the time given; they carry one span per `cli.run_file` call, for
per-formula times, while a timer interrupts them for set-up rounds. A traced
run instead runs each formula run twice, untraced and then under every
probe of layers.py: the machine's speed drifts by tens of percent over
seconds, and back-to-back runs of the same job are the pairs that drift
least.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import signal
import statistics
import tempfile
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from pansampler import cli
from pansampler.abstraction import abstract_formula
from pansampler.coverage import build_universe
from pansampler.parser import parse_file

import layers
import workloads
from check import Outcome, check_outcomes
from metrics import E2E_UNITS, LAYER_UNITS
from spans import Tracer


@dataclass
class Pass:
    traced: bool
    seconds: float
    formula_s: list[float]  # one cli.run_file call each
    outcomes: list[Outcome]
    signature: list[tuple]  # outcomes plus artifact digests
    tracer: Tracer
    out_dir: Path


class SetupClock:
    """Times set-up rounds: parse, abstract and build the coverage universe
    of every input file. While `ticking`, an interval timer interrupts the
    timed passes for one short burst of rounds every quarter second or so,
    also in the middle of a formula run: on a shared machine the speed can
    swing by up to 2x within a second, and a workload with four long
    formula runs has too few gaps between runs to sample it. The bursts' wall time is left out
    of the pass times and the per-formula times."""

    BURST_S = 0.01  # at least one round
    INTERVAL_S = 0.25  # and at least 10 times the burst

    def __init__(self, paths: list[Path]) -> None:
        self.paths = paths
        self.times: list[float] = []
        self.bursts: list[tuple[float, float]] = []  # (start, end)

    def burst(self) -> None:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for p in self.paths:
                f = parse_file(str(p))
                abstract_formula(f)
                build_universe(f)
            self.times.append(time.perf_counter() - t0)
            if time.perf_counter() - start >= self.BURST_S:
                break
        self.bursts.append((start, time.perf_counter()))

    @contextmanager
    def ticking(self):
        def on_alarm(signum, frame) -> None:
            self.burst()
            start, end = self.bursts[-1]
            signal.setitimer(signal.ITIMER_REAL,
                             max(self.INTERVAL_S, 10 * (end - start)))

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def within(self, start: float, end: float) -> float:
        """Burst time inside [start, end]."""
        return sum(max(0.0, min(e, end) - max(s, start))
                   for s, e in self.bursts)

    def spent(self) -> float:
        return sum(e - s for s, e in self.bursts)

    def median(self) -> float:
        return statistics.median(self.times)


def _suite_outcomes(out_dir: Path, jobs: list[workloads.Job]) -> list[Outcome]:
    records = out_dir / "suite_records.csv"
    if not records.exists():  # cli.main raised: no run of the suite counts
        return [Outcome(j.path, j.tag, "exception", 0, 0.0) for j in jobs]
    lines = records.read_text().splitlines()[1:]
    out = []
    for line in lines:
        bench, _, _, r, _, n, _, cov, reason = line.split(",")
        out.append(Outcome(Path(bench), f".r{float(r):g}", reason, int(n),
                           float(cov)))
    return out


def _run_job(job: workloads.Job, out_dir: Path) -> Outcome:
    try:
        rec, _ = cli.run_file(job.path, job.cfg, out_dir=str(out_dir),
                              artifact_tag=job.tag)
    except Exception:  # counted as a failed run by the output check
        return Outcome(job.path, job.tag, "exception", 0, 0.0)
    return Outcome(job.path, job.tag, rec.reason, rec.num_solutions,
                   rec.coverage_star)


def _digest(path: Path) -> str | None:
    """The artifact's hash; None when the run wrote none (it failed)."""
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def _finish(traced: bool, seconds: float, tracer: Tracer,
            outcomes: list[Outcome], out_dir: Path,
            setup: SetupClock | None = None) -> Pass:
    signature = []
    for o in outcomes:
        digest = _digest(o.artifact(out_dir, ".samples.smt2"))
        # The suite CSV prints coverage with 6 decimals.
        signature.append((o.path.name, o.tag, o.reason, o.solutions,
                          round(o.coverage, 6), digest))
    formula_s = [s.end - s.start - (setup.within(s.start, s.end) if setup
                                    else 0.0)
                 for s in tracer.spans if s.name == "cli.run_file"]
    return Pass(traced, seconds, formula_s, outcomes, signature, tracer,
                out_dir)


def run_pass(plan: workloads.Plan, out_dir: Path,
             setup: SetupClock | None = None) -> Pass:
    """One untraced pass, through `cli.main` for a suite workload. The
    bursts of a ticking set-up clock are left out of its times."""
    tracer = Tracer()
    with tracer.installed([layers.RUN_FILE]):
        t0 = time.perf_counter()
        if plan.suite_argv is not None:
            try:
                with tracer.span("cli.main"), redirect_stdout(io.StringIO()):
                    cli.main(plan.suite_argv + ["--out-dir", str(out_dir)])
            except Exception:  # reported by _suite_outcomes
                pass
            outcomes = []
        else:
            outcomes = [_run_job(job, out_dir) for job in plan.jobs]
        t1 = time.perf_counter()
    seconds = t1 - t0 - (setup.within(t0, t1) if setup else 0.0)
    if plan.suite_argv is not None:
        outcomes = _suite_outcomes(out_dir, plan.jobs)
    return _finish(False, seconds, tracer, outcomes, out_dir, setup)


def run_passes(plan: workloads.Plan, work: Path, seconds: float,
               setup: SetupClock) -> list[Pass]:
    """Whole untraced passes while the next one is expected to fit in
    `seconds` of measured time, timing set-up rounds all along."""
    passes: list[Pass] = []
    measured = 0.0
    setup.burst()
    with setup.ticking():
        while True:
            out_dir = workloads.fresh_dir(work / f"out{len(passes)}")
            passes.append(run_pass(plan, out_dir, setup))
            measured += passes[-1].seconds
            typical = statistics.median(p.seconds for p in passes)
            if measured + typical > seconds:
                return passes


def run_paired(plan: workloads.Plan, work: Path) -> list[Pass]:
    """Every job once untraced and once traced, back to back, so both runs
    of a job see the same machine speed. Returns the untraced and the
    traced pass; each pass's seconds is the sum of its job times."""
    dirs = (workloads.fresh_dir(work / "plain"),
            workloads.fresh_dir(work / "traced"))
    tracers = (Tracer(), Tracer())
    probes = ([layers.RUN_FILE], layers.PROBES)
    outcomes: tuple[list[Outcome], list[Outcome]] = ([], [])
    seconds = [0.0, 0.0]
    for job in plan.jobs:
        for k in (0, 1):
            with tracers[k].installed(probes[k]):
                t0 = time.perf_counter()
                outcomes[k].append(_run_job(job, dirs[k]))
                seconds[k] += time.perf_counter() - t0
    return [_finish(k == 1, seconds[k], tracers[k], outcomes[k], dirs[k])
            for k in (0, 1)]


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(passes: list[Pass], setup_s: float, rss_mb: float) -> dict:
    outcomes = passes[0].outcomes
    solved = [o.coverage for o in outcomes if o.solutions > 0]
    return {
        "run_s": statistics.median(p.seconds for p in passes),
        "setup_s": setup_s,
        "solutions": sum(o.solutions for o in outcomes),
        "coverage_mean": statistics.fmean(solved) if solved else 0.0,
        "target_rate": sum(o.reason == "target" for o in outcomes) / len(outcomes),
        "peak_rss_mb": rss_mb,
    }


def per_layer(plain: Pass, traced: Pass) -> dict:
    out = layers.layer_metrics(traced.tracer.spans, traced.tracer.counters,
                               traced.seconds)
    out["trace.overhead_pct"] = 100.0 * (traced.seconds / plain.seconds - 1.0)
    return out


def write_spans(path: Path, spans: list) -> None:
    with path.open("w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                 "end": s.end, "parent": s.parent,
                                 "formula": s.formula}) + "\n")


def _pass_differences(passes: list[Pass]) -> list[str]:
    out = []
    first = passes[0].signature
    for k, p in enumerate(passes[1:], start=2):
        kind = "traced" if p.traced else "untraced"
        if len(p.signature) != len(first):
            out.append(f"pass {k}: {len(p.signature)} runs, pass 1 had "
                       f"{len(first)}")
        for a, b in zip(first, p.signature):
            if a != b:
                out.append(f"{a[0]}{a[1]}: pass {k} ({kind}) differs from pass 1")
    return out


def run(root: Path, workload: str, seed: int, seconds: float,
        trace: bool) -> dict:
    """One benchmark run. A traced run also writes its traced pass's spans
    to .perfbench_work/spans-<workload>-<seed>.jsonl under root."""
    for key in [k for k in os.environ if k.startswith("PANSAMPLER_")]:
        del os.environ[key]  # the CLI reads its defaults from these
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        work = Path(tmp)
        plan = workloads.plan(workload, seed, workloads.fresh_dir(work / "in"))
        if trace:
            passes = run_paired(plan, work)
        else:
            setup = SetupClock(plan.inputs)
            passes = run_passes(plan, work, seconds, setup)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = check_outcomes(passes[0].outcomes, passes[0].out_dir)
    failures = checked.failures + _pass_differences(passes)
    attempted = len(passes[0].outcomes)
    failed = len({f.split(":")[0] for f in failures})
    if trace:
        metrics, units = per_layer(*passes), LAYER_UNITS
        spans_path = work_root / f"spans-{workload}-{seed}.jsonl"
        write_spans(spans_path, passes[1].tracer.spans)
    else:
        metrics = end_to_end(passes, setup.median(), rss_mb)
        units = E2E_UNITS

    unsat = sum(o.reason == "unsat" for o in passes[0].outcomes)
    formula_ms = [1000.0 * s for p in passes if not p.traced for s in p.formula_s]
    how = ("every formula run once untraced and once traced" if trace
           else f"untraced passes: {len(passes)}")
    print(f"workload {workload}, seed {seed}: {how}, {attempted} formula "
          f"runs per pass, {len(plan.inputs)} input files")
    if trace:
        print(f"  spans of the traced pass: {spans_path}")
    else:
        print(f"  set-up rounds: {len(setup.times)}, {setup.spent():.3f} s "
              f"left out of the timed figures")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:16.6f} {units[name]}")
    # Printed, not in the JSON line: percentiles need many runs per pass,
    # and a failure share is 0 on every correct run.
    print(f"  {'formula_ms_p50':28s} {statistics.median(formula_ms):16.6f} ms"
          f"  (over {len(formula_ms)} cli.run_file calls)")
    print(f"  {'formula_ms_p90':28s} {percentile(formula_ms, 90):16.6f} ms"
          f"  (over {len(formula_ms)} cli.run_file calls)")
    print(f"  {'failed_frac':28s} {failed / attempted:16.6f} ratio"
          f"  ({failed} of {attempted} formula runs)")
    print(f"  {checked.samples_checked} samples re-checked by the oracle; "
          f"{unsat} unsat verdicts: {checked.unsat_confirmed} confirmed by "
          f"enumeration, {checked.unsat_unchecked} left unchecked")
    for line in failures:
        print(f"  FAILED {line}")
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}
