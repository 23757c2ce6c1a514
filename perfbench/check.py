"""Output checks against the brute-force oracle, run after timing.

Every sample is re-read from the printed `.samples.smt2` artifact and
evaluated with `oracle.slow_satisfies`; the covered AST-bit slots are
recounted with `oracle.slow_cover_set` and compared with the report.
Unsat verdicts are confirmed by exhaustive enumeration where the
domain is small enough, and counted as unchecked otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from pansampler.coverage import build_universe
from pansampler.oracle import (OracleError, enumerate_solutions,
                               slow_cover_set, slow_satisfies)
from pansampler.parser import parse_file
from pansampler.printer import parse_model_blocks

ENUM_BIT_CAP = 12


@dataclass(frozen=True)
class Outcome:
    """One formula run as the CLI reported it."""

    path: Path
    tag: str
    reason: str
    solutions: int
    coverage: float

    def artifact(self, out_dir: Path, suffix: str) -> Path:
        return out_dir / (self.path.stem + self.tag + suffix)


@dataclass
class CheckReport:
    failures: list[str] = field(default_factory=list)
    samples_checked: int = 0
    unsat_confirmed: int = 0
    unsat_unchecked: int = 0


def check_outcomes(outcomes: list[Outcome], out_dir: Path) -> CheckReport:
    rep = CheckReport()
    unsat_memo: dict[Path, bool | None] = {}
    for o in outcomes:
        try:
            problem = _check_one(o, out_dir, rep, unsat_memo)
        except Exception as e:  # a missing or unreadable artifact
            problem = f"the check raised {type(e).__name__}: {e}"
        if problem:
            rep.failures.append(f"{o.path.name}{o.tag}: {problem}")
    return rep


def _check_one(o: Outcome, out_dir: Path, rep: CheckReport,
               unsat_memo: dict[Path, bool | None]) -> str:
    if o.reason in ("error", "exception"):
        return f"the run ended with reason {o.reason}"
    f = parse_file(str(o.path))
    if o.reason == "unsat":
        if o.path not in unsat_memo:
            try:
                unsat_memo[o.path] = not enumerate_solutions(
                    f, domain_bit_cap=ENUM_BIT_CAP).solutions
            except OracleError:
                unsat_memo[o.path] = None
        verdict = unsat_memo[o.path]
        if verdict is None:
            rep.unsat_unchecked += 1
        elif verdict:
            rep.unsat_confirmed += 1
        else:
            return "reported unsat but enumeration finds a solution"
        return ""
    report = json.loads(o.artifact(out_dir, ".report.json").read_text())
    samples = parse_model_blocks(
        o.artifact(out_dir, ".samples.smt2").read_text(), f)
    if len(samples) != o.solutions or report["num_solutions"] != o.solutions:
        return (f"{len(samples)} printed samples, {o.solutions} in the "
                f"record, {report['num_solutions']} in the report")
    universe = build_universe(f)
    covered = 0
    for a in samples:
        if not slow_satisfies(f, a):
            return "a printed sample does not satisfy the formula"
        covered |= slow_cover_set(f, universe, a)
        rep.samples_checked += 1
    if covered.bit_count() != report["coverage"]["covered_slots"]:
        return (f"oracle recounts {covered.bit_count()} covered slots, the "
                f"report says {report['coverage']['covered_slots']}")
    if o.reason == "target" and o.coverage < report["target_coverage"]:
        return "stopped on target below the target coverage"
    return ""
