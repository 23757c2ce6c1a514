"""Metric definitions: units, better direction, bounds, and which
end-to-end number each per-layer metric should move on which workload.

`BENCHMARK.json` at the repository root is generated from this file
(`python3 perfbench/run.py --write-manifest`).
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import WORKLOADS

COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 30

# name, unit, better, bound (share of the parent's median), meaning.
# bench.py also prints formula_ms_p50, formula_ms_p90 and failed_frac;
# they stay out of this gated list (see bench.run).
END_TO_END = (
    ("run_s", "s", "lower", 0.25,
     "wall time of one pass over every formula run of the workload"),
    ("setup_s", "s", "lower", 0.25,
     "parse + abstract_formula + build_universe over the workload's files "
     "(median of repeated set-ups)"),
    ("solutions", "count", "lower", 0.15,
     "samples emitted over one pass"),
    ("coverage_mean", "ratio", "higher", 0.05,
     "mean final coverage_star over the runs that found a solution"),
    ("target_rate", "ratio", "higher", 0.2,
     "share of formula runs that stop on reason target"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident set size of the benchmark process"),
)

ALL = tuple(w.name for w in WORKLOADS)

# name, unit, better, [(end-to-end metric it should move, on workloads)]
PER_LAYER = (
    ("sat.build_s", "s", "lower", [("run_s", ("bv_arith",))]),
    ("sat.search_s", "s", "lower", [("run_s", ("array_uf",))]),
    ("sat.recheck_s", "s", "lower", [("run_s", ("bv_arith",))]),
    ("sat.distribution_s", "s", "lower", [("run_s", ("ablation",))]),
    ("sat.solves", "count", "lower", [("run_s", ("bv_arith", "array_uf"))]),
    ("sat.unsat", "count", "lower", [("run_s", ("ablation",))]),
    ("sat.conflicts", "count", "lower", [("run_s", ("array_uf",))]),
    ("sat.clauses_loaded", "count", "lower", [("run_s", ("bv_arith",))]),
    ("bitblast.s", "s", "lower",
     [("run_s", ("ablation",)), ("peak_rss_mb", ("bv_arith",))]),
    ("bitblast.calls", "count", "lower",
     [("run_s", ("ablation",)), ("peak_rss_mb", ("bv_arith",))]),
    ("bitblast.clauses", "count", "lower",
     [("run_s", ("ablation",)), ("peak_rss_mb", ("bv_arith",))]),
    ("bitblast.vars", "count", "lower",
     [("run_s", ("ablation",)), ("peak_rss_mb", ("bv_arith",))]),
    ("theory.s", "s", "lower", [("run_s", ("array_uf",))]),
    ("theory.checks", "count", "lower", [("run_s", ("array_uf",))]),
    ("theory.conflicts", "count", "lower", [("run_s", ("array_uf",))]),
    ("theory.lemmas", "count", "lower", [("run_s", ("array_uf",))]),
    ("abstraction.abstract_s", "s", "lower",
     [("setup_s", ("array_uf", "fuzz_suite"))]),
    ("abstraction.atoms", "count", "lower",
     [("setup_s", ("array_uf", "fuzz_suite"))]),
    ("abstraction.project_s", "s", "lower", [("run_s", ("array_uf",))]),
    ("coverage.universe_s", "s", "lower", [("setup_s", ALL)]),
    ("coverage.ast_bits", "count", "lower", [("setup_s", ALL)]),
    ("coverage.cover_set_s", "s", "lower",
     [("formula_ms_p50", ("fuzz_suite",))]),
    ("coverage.cover_set_calls", "count", "lower",
     [("formula_ms_p50", ("fuzz_suite",))]),
    ("coverage.score_s", "s", "lower", [("run_s", ("ablation",))]),
    ("coverage.manhattan_calls", "count", "lower", [("run_s", ("ablation",))]),
    ("evaluate.satisfies_s", "s", "lower",
     [("formula_ms_p50", ("fuzz_suite",))]),
    ("evaluate.satisfies_calls", "count", "lower",
     [("formula_ms_p50", ("fuzz_suite",))]),
    ("sampler.solve_once_s", "s", "lower", [("run_s", ("ablation",))]),
    ("sampler.candidates", "count", "lower", [("run_s", ("ablation",))]),
    ("sampler.refine_s", "s", "lower", [("run_s", ALL)]),
    ("sampler.refine_self_s", "s", "lower", [("run_s", ALL)]),
    ("sampler.refine_calls", "count", "lower", [("run_s", ALL)]),
    ("sampler.refine_improved", "count", "higher", [("run_s", ALL)]),
    ("sampler.kept_ratio", "ratio", "higher",
     [("solutions", ALL), ("coverage_mean", ALL)]),
    ("sampler.iterations", "count", "lower",
     [("solutions", ALL), ("coverage_mean", ALL)]),
    ("sampler.loop_s", "s", "lower", [("formula_ms_p50", ("fuzz_suite",))]),
    ("parser.parse_s", "s", "lower", [("setup_s", ("fuzz_suite",))]),
    ("printer.print_s", "s", "lower", [("run_s", ("fuzz_suite",))]),
    ("cli.run_file_s", "s", "lower", [("run_s", ("fuzz_suite",))]),
    ("trace.run_s", "s", "lower", []),
    ("trace.overhead_pct", "%", "lower", []),
    ("trace.accounted_pct", "%", "higher", []),
    ("trace.unlisted_s", "s", "lower", []),
    ("trace.spans", "count", "lower", []),
)

E2E_UNITS = {name: unit for name, unit, *_ in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def write_manifest(root: Path) -> None:
    (root / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
