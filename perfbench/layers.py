"""Probes on the program's modules and the per-layer numbers they give.

Each probe wraps a public function at the name its caller looks up, so
the span covers exactly the calls the sampler makes. Hooks count work at
the same boundaries.
"""

from __future__ import annotations

from pathlib import Path

from pansampler.theory import Conflict

from spans import Probe, Span, Tracer, self_time_by_name, total_time_by_name


def _count(name: str):
    def hook(tr: Tracer, args: tuple, result, caller: str) -> None:
        tr.count(name)
    return hook


def _sat_solve(tr: Tracer, args: tuple, result, caller: str) -> None:
    tr.count("sat.solves")
    if result is None:
        tr.count("sat.unsat")


def _sat_build(tr: Tracer, args: tuple, result, caller: str) -> None:
    tr.count("sat.clauses_loaded", len(args[1].clauses))


def _sat_search(tr: Tracer, args: tuple, result, caller: str) -> None:
    tr.count("sat.conflicts", args[0].conflicts)


def _bit_blast(tr: Tracer, args: tuple, result, caller: str) -> None:
    cnf, _ = result
    tr.count("bitblast.calls")
    tr.count("bitblast.clauses", len(cnf.clauses))
    tr.count("bitblast.vars", cnf.num_vars)


def _theory(tr: Tracer, args: tuple, result, caller: str) -> None:
    tr.count("theory.checks")
    if isinstance(result, Conflict):
        tr.count("theory.conflicts")
        tr.count("theory.lemmas", len(result.lemmas))


def _abstract(tr: Tracer, args: tuple, result, caller: str) -> None:
    tr.count("abstraction.atoms", len(result.atom_map))


def _universe(tr: Tracer, args: tuple, result, caller: str) -> None:
    tr.count("coverage.ast_bits", result.num_ast_bits)


def _solve_once(tr: Tracer, args: tuple, result, caller: str) -> None:
    if caller == "sampler.sample" and result is not None:
        tr.count("sampler.candidates")


def _post_opt(tr: Tracer, args: tuple, result, caller: str) -> None:
    tr.count("sampler.refine_calls")
    if result is not args[4]:  # args[4] is alpha
        tr.count("sampler.refine_improved")


def _sample(tr: Tracer, args: tuple, result, caller: str) -> None:
    tr.count("sampler.iterations", result.iterations)
    tr.count("sampler.kept", len(result.solutions))


# The per-formula span; the only probe installed on an untraced run.
RUN_FILE = Probe(
    "pansampler.cli:run_file", "cli.run_file",
    formula=lambda args, kwargs: Path(args[0]).name + kwargs.get("artifact_tag", ""))

PROBES = [
    RUN_FILE,
    Probe("pansampler.cli:parse_file", "parser.parse"),
    Probe("pansampler.cli:print_models", "printer.print"),
    Probe("pansampler.cli:sample", "sampler.sample", _sample),
    Probe("pansampler.sampler:post_opt", "sampler.post_opt", _post_opt),
    Probe("pansampler.sampler:DiversitySmtEngine.solve_once",
          "sampler.solve_once", _solve_once),
    Probe("pansampler.sampler:abstract_formula", "abstraction.abstract",
          _abstract),
    Probe("pansampler.sampler:project_assignment", "abstraction.project"),
    Probe("pansampler.sampler:build_universe", "coverage.universe", _universe),
    Probe("pansampler.sampler:cover_set", "coverage.cover_set",
          _count("coverage.cover_set_calls")),
    Probe("pansampler.sampler:manhattan_score", "coverage.manhattan",
          _count("coverage.manhattan_calls")),
    Probe("pansampler.sampler:satisfies", "evaluate.satisfies",
          _count("evaluate.satisfies_calls")),
    Probe("pansampler.sampler:bit_blast", "bitblast.blast", _bit_blast),
    Probe("pansampler.sampler:distribution_from", "sat.distribution"),
    Probe("pansampler.sampler:sat_solve", "sat.solve", _sat_solve),
    Probe("pansampler.sat:CdclSolver.__init__", "sat.build", _sat_build),
    Probe("pansampler.sat:CdclSolver.solve", "sat.search", _sat_search),
    Probe("pansampler.sampler:theory_check", "theory.check", _theory),
]

# Per-layer time metric -> the span whose self time it reports.
SELF_TIMES = {
    "sat.build_s": "sat.build",
    "sat.search_s": "sat.search",
    "sat.recheck_s": "sat.solve",
    "sat.distribution_s": "sat.distribution",
    "bitblast.s": "bitblast.blast",
    "theory.s": "theory.check",
    "abstraction.abstract_s": "abstraction.abstract",
    "abstraction.project_s": "abstraction.project",
    "coverage.universe_s": "coverage.universe",
    "coverage.cover_set_s": "coverage.cover_set",
    "evaluate.satisfies_s": "evaluate.satisfies",
    "sampler.solve_once_s": "sampler.solve_once",
    "sampler.refine_self_s": "sampler.post_opt",
    "sampler.loop_s": "sampler.sample",
    "parser.parse_s": "parser.parse",
    "printer.print_s": "printer.print",
    "cli.run_file_s": "cli.run_file",
}

# Spans whose self time is whatever their function does outside every
# named layer (report writing, the sampling loop's bookkeeping). All self
# times add up to the traced time by construction; the share left after
# these two is what the named layers account for.
CATCH_ALL = ("cli.run_file", "sampler.sample")

COUNTS = ("sat.solves", "sat.unsat", "sat.conflicts", "sat.clauses_loaded",
          "bitblast.calls", "bitblast.clauses", "bitblast.vars",
          "theory.checks", "theory.conflicts", "theory.lemmas",
          "abstraction.atoms", "coverage.ast_bits", "coverage.cover_set_calls",
          "coverage.manhattan_calls", "evaluate.satisfies_calls",
          "sampler.candidates", "sampler.refine_calls",
          "sampler.refine_improved", "sampler.iterations")


def layer_metrics(spans: list[Span], counters: dict[str, float],
                  traced_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass that took traced_s seconds."""
    own = self_time_by_name(spans)
    out = {metric: own.get(name, 0.0) for metric, name in SELF_TIMES.items()}
    out["coverage.score_s"] = (own.get("coverage.cover_set", 0.0)
                               + own.get("coverage.manhattan", 0.0))
    out["sampler.refine_s"] = total_time_by_name(spans).get("sampler.post_opt", 0.0)
    for name in COUNTS:
        out[name] = counters.get(name, 0)
    candidates = counters.get("sampler.candidates", 0)
    out["sampler.kept_ratio"] = (counters.get("sampler.kept", 0) / candidates
                                 if candidates else 0.0)
    named = sum(t for name, t in own.items() if name not in CATCH_ALL)
    out["trace.run_s"] = traced_s
    out["trace.accounted_pct"] = 100.0 * named / traced_s
    out["trace.unlisted_s"] = traced_s - named
    out["trace.spans"] = len(spans)
    return out
