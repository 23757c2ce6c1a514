"""Tests of the benchmark itself: input generation, span arithmetic,
and probes that leave the program's behaviour unchanged.

    python3 -m pytest perfbench/tests
"""

import json
import signal
import time
from pathlib import Path

import pytest

import bench
import layers
import metrics
import workloads
from pansampler import cli, sampler, sat
from pansampler.sampler import Mode, SamplerConfig
from spans import Probe, Span, Tracer, self_time_by_name, self_times, total_time_by_name

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("write", [workloads.write_fuzz_inputs,
                                   workloads.write_ablation_inputs])
def test_generated_inputs_are_byte_identical_per_seed(tmp_path, write):
    runs = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        d = tmp_path / label
        d.mkdir()
        runs[label] = [p.read_bytes() for p in write(seed, d)]
    assert runs["a"] == runs["b"]
    assert runs["a"] != runs["c"]


def test_committed_inputs_each_say_why():
    for name in ("bv_arith", "array_uf"):
        files = workloads._committed(name)
        assert len(files) >= 3
        for p in files:
            assert p.read_text().startswith("; why: "), p


def test_self_times_subtract_direct_children():
    # root [0, 10) holds a [1, 4) and b [5, 9); a holds c [2, 3).
    spans = [Span("root", 0.0, 10.0, -1, "f"),
             Span("a", 1.0, 4.0, 0, "f"),
             Span("c", 2.0, 3.0, 1, "f"),
             Span("b", 5.0, 9.0, 0, "f")]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == _root_time(spans) == 10.0


def _root_time(spans):
    return sum(s.end - s.start for s in spans if s.parent < 0)


def test_same_name_nesting_counts_once_inclusive():
    spans = [Span("x", 0.0, 8.0, -1, "f"),
             Span("x", 1.0, 5.0, 0, "f"),
             Span("y", 2.0, 3.0, 1, "f"),
             Span("x", 9.0, 10.0, -1, "g")]
    assert total_time_by_name(spans) == {"x": 9.0, "y": 1.0}
    assert self_time_by_name(spans) == {"x": 8.0, "y": 1.0}


def test_tracer_records_parents_and_formula_ids():
    tr = Tracer()
    probe = Probe("pansampler.sat:solve", "sat.solve",
                  formula=lambda args, kwargs: "cnf")
    with tr.installed([probe]):
        with tr.span("outer"):
            sat.solve(sat.Cnf(2, [(1, 2), (-1,)]))
    assert [(s.name, s.parent, s.formula) for s in tr.spans] == \
        [("outer", -1, ""), ("sat.solve", 0, "cnf")]
    assert all(s.end >= s.start for s in tr.spans)


def test_probes_restore_originals_even_on_error():
    before = {p.target: _lookup(p.target) for p in layers.PROBES}
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed(layers.PROBES):
            assert sampler.sat_solve is not before["pansampler.sampler:sat_solve"]
            raise RuntimeError("boom")
    assert {p.target: _lookup(p.target) for p in layers.PROBES} == before


def _lookup(target):
    owner, attr = target.split(":")[1].rpartition(".")[::2]
    module = {"pansampler.cli": cli, "pansampler.sampler": sampler,
              "pansampler.sat": sat}[target.split(":")[0]]
    return (getattr(module, owner) if owner else module).__dict__[attr]


FORMULA = """(set-logic QF_ABV)
(declare-const a (Array (_ BitVec 4) (_ BitVec 4)))
(declare-const i (_ BitVec 4))
(declare-const j (_ BitVec 4))
(assert (= (select (store a i #x3) j) (bvadd (select a j) #x1)))
"""


@pytest.mark.parametrize("mode", [Mode.PANSAMPLER, Mode.ALT1, Mode.ALT2])
def test_probes_leave_outputs_unchanged(tmp_path, mode):
    src = tmp_path / "f.smt2"
    src.write_text(FORMULA)
    cfg = SamplerConfig(target_coverage=0.995, lam=4, seed=3, mode=mode)
    outputs = []
    for label, probes in (("plain", []), ("traced", layers.PROBES)):
        out = tmp_path / label
        out.mkdir()
        tr = Tracer()
        with tr.installed(probes):
            rec, code = cli.run_file(src, cfg, out_dir=str(out),
                                     deterministic_timing=True)
        outputs.append((rec, code, (out / "f.samples.smt2").read_text(),
                        (out / "f.report.json").read_text()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].num_solutions > 0
    assert tr.counters["theory.checks"] == tr.counters["sat.solves"] - \
        tr.counters.get("sat.unsat", 0)
    root_s = _root_time(tr.spans)
    got = layers.layer_metrics(tr.spans, tr.counters, root_s)
    catch_all = got["cli.run_file_s"] + got["sampler.loop_s"]
    assert 0.0 < got["trace.accounted_pct"] < 100.0
    assert got["trace.unlisted_s"] == pytest.approx(catch_all)
    assert got["trace.accounted_pct"] == \
        pytest.approx(100.0 * (1.0 - catch_all / root_s))


def test_manifest_matches_committed_benchmark_json():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.manifest()


def test_suite_jobs_mirror_the_cli_suite_run(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "FUZZ_FILES", 6)
    plan = workloads.plan("fuzz_suite", 5, workloads.fresh_dir(tmp_path / "in"))
    suite = bench.run_pass(plan, workloads.fresh_dir(tmp_path / "suite"))
    plain, traced = bench.run_paired(plan, tmp_path)
    assert len(suite.signature) == 12
    assert sorted(suite.signature) == sorted(plain.signature) == \
        sorted(traced.signature)
    assert traced.tracer.counters["sat.solves"] > 0
    assert plain.seconds >= sum(plain.formula_s)


@pytest.mark.parametrize("trace", [False, True])
def test_a_failing_run_is_counted_not_fatal(tmp_path, monkeypatch, trace):
    src = tmp_path / "f.smt2"
    src.write_text(FORMULA)
    jobs = [workloads.Job(src, SamplerConfig(lam=4, seed=k), f".s{k}")
            for k in (3, 13)]
    monkeypatch.setattr(workloads, "plan",
                        lambda *args: workloads.Plan([src], jobs))
    real_sample = cli.sample

    def sample(f, cfg):  # cli.run_file turns this into reason "error"
        if cfg.seed == 13:
            raise RuntimeError("planted failure")
        return real_sample(f, cfg)

    monkeypatch.setattr(cli, "sample", sample)
    result = bench.run(tmp_path, "planted", 1, 0.0, trace)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["metrics"]
    if trace:
        spans = (tmp_path / ".perfbench_work" / "spans-planted-1.jsonl") \
            .read_text().splitlines()
        rows = [json.loads(line) for line in spans]
        assert rows[0].keys() == {"id", "name", "start", "end", "parent",
                                  "formula"}
        assert sum(r["name"] == "cli.run_file" for r in rows) == 2
    else:
        assert result["metrics"]["setup_s"]["value"] > 0.0


@pytest.mark.parametrize("trace", [False, True])
def test_an_exception_out_of_the_cli_is_counted(tmp_path, monkeypatch, trace):
    # Through cli.main (untraced suite) and through cli.run_file (traced).
    monkeypatch.setattr(workloads, "FUZZ_FILES", 2)

    def print_models(*args):
        raise RuntimeError("planted failure")

    monkeypatch.setattr(cli, "print_models", print_models)
    result = bench.run(tmp_path, "fuzz_suite", 5, 0.0, trace)
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 4


def test_setup_clock_leaves_bursts_out_and_restores_the_timer(tmp_path):
    src = tmp_path / "f.smt2"
    src.write_text(FORMULA)
    clock = bench.SetupClock([src])
    clock.bursts = [(1.0, 2.0), (5.0, 7.0)]
    assert clock.within(1.5, 6.0) == pytest.approx(1.5)
    assert clock.within(2.0, 5.0) == 0.0
    before = signal.getsignal(signal.SIGALRM)
    with clock.ticking():
        deadline = time.perf_counter() + 0.6
        while time.perf_counter() < deadline:
            pass
    assert len(clock.bursts) >= 2 and clock.median() > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
