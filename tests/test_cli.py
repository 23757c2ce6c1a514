"""Command-line entry point, artifacts, and suite tables."""

import csv
import dataclasses
import functools
import io
import json

import pytest

from pansampler import coverage, sampler
from pansampler.cli import (DEFAULT_TARGETS, NODE_CHARS, RECORD_FIELDS,
                            UNCOVERED_LISTED, BenchRecord,
                            _parse_targets, aggregate, aggregate_csv,
                            build_arg_parser, infer_logic, main, records_csv,
                            run_file, sampler_config)
from pansampler.evaluate import satisfies
from pansampler.parser import parse_file, parse_formula
from pansampler.printer import parse_model_blocks
from pansampler.sampler import Mode, SamplerConfig
from pansampler.sat import SolverConfig

from helpers import parse_dimacs

FREE3 = "(declare-const x (_ BitVec 3))(assert (bvule x x))\n"
TAUT = "(declare-const x Bool)(assert (or x (not x)))\n"
UNSAT = "(declare-const x Bool)(assert x)(assert (not x))\n"
SQUARE8 = ("(declare-const x (_ BitVec 8))(declare-const y (_ BitVec 8))"
           "(assert (= (bvmul x x) (bvadd y #x11)))\n")


def test_defaults():
    args = build_arg_parser().parse_args(["f.smt2"])
    assert args.target_coverage == 0.995
    assert args.lam == 50
    assert args.max_solutions == 1000
    assert args.time_budget == 3600.0
    assert args.mode == "pansampler"
    assert args.seed == 0
    assert args.bias_p == 0.85
    assert not args.emit_dimacs and not args.oracle_check
    assert not args.deterministic_timing
    assert args.targets == "" and args.out_dir == ""


def test_environment_presets_and_flag_precedence(monkeypatch):
    monkeypatch.setenv("PANSAMPLER_LAMBDA", "7")
    monkeypatch.setenv("PANSAMPLER_MODE", "alt2")
    monkeypatch.setenv("PANSAMPLER_EMIT_DIMACS", "yes")
    monkeypatch.setenv("PANSAMPLER_BIAS_P", "0.6")
    # Every other documented name, each taken from its long option.
    monkeypatch.setenv("PANSAMPLER_TARGET_COVERAGE", "0.5")
    monkeypatch.setenv("PANSAMPLER_MAX_SOLUTIONS", "9")
    monkeypatch.setenv("PANSAMPLER_TIME_BUDGET", "12")
    monkeypatch.setenv("PANSAMPLER_SEED", "5")
    monkeypatch.setenv("PANSAMPLER_ORACLE_CHECK", "TRUE")
    monkeypatch.setenv("PANSAMPLER_DETERMINISTIC_TIMING", "1")
    monkeypatch.setenv("PANSAMPLER_TARGETS", "0.5,0.9")
    monkeypatch.setenv("PANSAMPLER_OUT_DIR", "out")
    args = build_arg_parser().parse_args(["f.smt2"])
    assert args.lam == 7
    assert args.mode == "alt2"
    assert args.emit_dimacs
    assert args.bias_p == 0.6
    assert (args.target_coverage, args.max_solutions, args.time_budget,
            args.seed) == (0.5, 9, 12.0, 5)
    assert args.oracle_check and args.deterministic_timing
    assert (args.targets, args.out_dir) == ("0.5,0.9", "out")
    # Explicit flags beat the environment.
    args = build_arg_parser().parse_args(
        ["f.smt2", "--lambda", "9", "--mode", "alt3"])
    assert args.lam == 9
    assert args.mode == "alt3"


def test_falsy_environment_flag(monkeypatch):
    monkeypatch.setenv("PANSAMPLER_ORACLE_CHECK", "0")
    assert not build_arg_parser().parse_args(["f.smt2"]).oracle_check


def _usage_error(capsys, call) -> str:
    """The message of the usage error that call raises (exit code 2)."""
    with pytest.raises(SystemExit) as exc:
        call()
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("name,raw,message", [
    ("LAMBDA", "abc", "invalid int value: 'abc'"),
    ("MODE", "bogus", "invalid choice: 'bogus'"),
    ("EMIT_DIMACS", "maybe", "expected a boolean, got 'maybe'"),
], ids=["number", "choice", "switch"])
def test_a_malformed_environment_preset_is_a_usage_error(monkeypatch, capsys,
                                                         name, raw, message):
    monkeypatch.setenv("PANSAMPLER_" + name, raw)
    err = _usage_error(capsys, build_arg_parser)
    assert f"PANSAMPLER_{name}: {message}" in err


def test_invalid_mode_is_rejected():
    with pytest.raises(SystemExit):
        build_arg_parser().parse_args(["f.smt2", "--mode", "fast"])


# A suite takes its targets from --targets, a single file from
# --target-coverage; each run checks the one it uses.
@pytest.mark.parametrize("flags,message,runs", [
    (["--target-coverage", "1.5"], "target_coverage", ["demo.smt2"]),
    (["--lambda", "0"], "lam", ["demo.smt2", "."]),
    (["--max-solutions", "0"], "max_solutions", ["demo.smt2", "."]),
    (["--bias-p", "0.3"], "bias_p", ["demo.smt2", "."]),
    (["--time-budget", "nan"], "time_budget", ["demo.smt2", "."]),
    (["--targets", "0.5,abc"], "--targets: invalid float value: 'abc'", ["."]),
    (["--targets", "1.5"], "target_coverage", ["."]),
    (["--targets", "0.9,0.9"], "--targets: repeated value 0.9", ["."]),
], ids=["target-coverage", "lambda", "max-solutions", "bias-p",
        "time-budget", "targets-not-a-number", "targets-out-of-range",
        "targets-repeated"])
def test_out_of_range_values_are_rejected_before_any_run(tmp_path, capsys,
                                                         flags, message, runs):
    (tmp_path / "demo.smt2").write_text(FREE3)
    for run in runs:
        err = _usage_error(capsys, lambda: main([str(tmp_path / run)] + flags))
        assert message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.smt2"]


@pytest.mark.parametrize("run,flags,env,message", [
    (".", ["--target-coverage", "0.9"], {},
     "--target-coverage does not apply to a suite run; use --targets"),
    (".", [], {"PANSAMPLER_TARGET_COVERAGE": "0.9"},
     "PANSAMPLER_TARGET_COVERAGE does not apply to a suite run; use --targets"),
    ("demo.smt2", ["--targets", "0.5"], {},
     "--targets does not apply to a single-file run; use --target-coverage"),
    ("demo.smt2", [], {"PANSAMPLER_TARGETS": "0.5"},
     "PANSAMPLER_TARGETS does not apply to a single-file run; "
     "use --target-coverage"),
], ids=["suite-flag", "suite-preset", "file-flag", "file-preset"])
def test_a_flag_the_run_would_ignore_is_a_usage_error(tmp_path, capsys,
                                                      monkeypatch, run,
                                                      flags, env, message):
    (tmp_path / "demo.smt2").write_text(FREE3)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    err = _usage_error(capsys, lambda: main([str(tmp_path / run)] + flags))
    assert message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.smt2"]


def test_sampler_config_sets_every_field_from_a_flag():
    args = build_arg_parser().parse_args(
        ["f.smt2", "--target-coverage", "0.5", "--lambda", "7",
         "--max-solutions", "9", "--time-budget", "12", "--mode", "alt2",
         "--seed", "5", "--bias-p", "0.6"])
    cfg, default = sampler_config(args), SamplerConfig()
    for field in dataclasses.fields(SamplerConfig):
        assert getattr(cfg, field.name) != getattr(default, field.name), \
            field.name


def test_sampler_config_from_args():
    args = build_arg_parser().parse_args(
        ["f.smt2", "--target-coverage", "0.9", "--seed", "5"])
    cfg = sampler_config(args)
    assert cfg.target_coverage == 0.9
    assert cfg.seed == 5
    assert cfg.mode is Mode.PANSAMPLER
    assert sampler_config(args, r=0.8).target_coverage == 0.8


def test_parse_targets():
    assert _parse_targets("") == DEFAULT_TARGETS
    assert _parse_targets("  ") == DEFAULT_TARGETS
    assert _parse_targets("0.5,0.9") == [0.5, 0.9]
    assert _parse_targets("0.8,") == [0.8]


def test_infer_logic():
    assert infer_logic(parse_formula(FREE3)) == "QF_BV"
    assert infer_logic(parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
        "(assert (= a a))")) == "QF_ABV"
    assert infer_logic(parse_formula(
        "(declare-fun g ((_ BitVec 2)) (_ BitVec 2))"
        "(assert (= (g #b00) #b00))")) == "QF_AUFBV"
    assert infer_logic(parse_formula(
        "(set-logic QF_AUFBV)" + FREE3)) == "QF_AUFBV"


def test_run_file_reaches_target_and_writes_artifacts(tmp_path):
    src = tmp_path / "demo.smt2"
    src.write_text(FREE3)
    cfg = SamplerConfig(target_coverage=0.5, lam=3, seed=0)
    rec, code = run_file(src, cfg)
    assert code == 0
    assert rec.benchmark == str(src)
    assert rec.logic == "QF_BV"
    assert rec.achieved and rec.reason == "target"
    assert rec.r == 0.5

    report = json.loads((tmp_path / "demo.report.json").read_text())
    assert report["reason"] == "target"
    assert report["num_solutions"] == rec.num_solutions
    assert report["coverage"]["coverage_star"] == rec.coverage_star
    assert len(report["coverage_star_trace"]) == rec.num_solutions
    assert "parse_time_s" in report

    f = parse_file(str(src))
    loaded = parse_model_blocks((tmp_path / "demo.samples.smt2").read_text(), f)
    assert len(loaded) == rec.num_solutions
    assert all(satisfies(f, a) for a in loaded)


def test_run_file_exit_codes(tmp_path):
    cases = [
        ("unsat.smt2", UNSAT, SamplerConfig(lam=2), 7, "unsat"),
        ("taut.smt2", TAUT, SamplerConfig(lam=2), 5, "stall"),
        ("free.smt2", FREE3, SamplerConfig(lam=2, max_solutions=1), 6,
         "max_solutions"),
        ("slow.smt2", FREE3, SamplerConfig(lam=2, time_budget=0.0), 3,
         "timeout"),
    ]
    for name, text, cfg, want_code, want_reason in cases:
        src = tmp_path / name
        src.write_text(text)
        rec, code = run_file(src, cfg)
        assert code == want_code, name
        assert rec.reason == want_reason, name


def test_a_conflict_budget_stop_has_its_own_exit_code(tmp_path,
                                                      monkeypatch):
    src = tmp_path / "square.smt2"
    src.write_text(SQUARE8)
    monkeypatch.setattr(sampler, "SolverConfig", functools.partial(
        SolverConfig, conflict_budget=0))
    rec, code = run_file(src, SamplerConfig(lam=4, seed=0))
    assert (code, rec.reason) == (8, "conflict_budget")
    assert rec.num_solutions > 0 and not rec.achieved
    # The solutions found before the abort are written out.
    samples = (tmp_path / "square.samples.smt2").read_text()
    f = parse_file(str(src))
    assert len(parse_model_blocks(samples, f)) == rec.num_solutions
    report = json.loads((tmp_path / "square.report.json").read_text())
    assert report["reason"] == "conflict_budget"


def test_main_tells_unsat_from_a_usage_error(tmp_path, capsys):
    src = tmp_path / "unsat.smt2"
    src.write_text(UNSAT)
    assert main([str(src), "--lambda", "2"]) == 7
    err = _usage_error(capsys, lambda: main([str(src), "--lambda", "0"]))
    assert "lam" in err


def test_run_file_handles_parse_errors(tmp_path):
    src = tmp_path / "broken.smt2"
    src.write_text("(assert (bvadd x)")
    rec, code = run_file(src, SamplerConfig(lam=2))
    assert code == 4
    assert rec.reason == "error"
    assert rec.logic == "unknown"
    assert not (tmp_path / "broken.report.json").exists()


def test_run_file_unsat_still_writes_artifacts(tmp_path):
    src = tmp_path / "unsat.smt2"
    src.write_text(UNSAT)
    run_file(src, SamplerConfig(lam=2))
    report = json.loads((tmp_path / "unsat.report.json").read_text())
    assert report["reason"] == "unsat"
    assert report["num_solutions"] == 0
    f = parse_file(str(src))
    text = (tmp_path / "unsat.samples.smt2").read_text()
    assert parse_model_blocks(text, f) == []


def test_emit_dimacs(tmp_path):
    src = tmp_path / "demo.smt2"
    src.write_text(FREE3)
    run_file(src, SamplerConfig(target_coverage=0.5, lam=2), emit_dimacs=True)
    text = (tmp_path / "demo.dimacs").read_text()
    assert text.startswith("p cnf ")
    assert parse_dimacs(text).num_vars >= 3


def test_oracle_check_annotates_the_report(tmp_path):
    src = tmp_path / "demo.smt2"
    src.write_text(FREE3)
    run_file(src, SamplerConfig(target_coverage=0.5, lam=2), oracle_check=True)
    chk = json.loads((tmp_path / "demo.report.json").read_text())["oracle_check"]
    assert chk["all_samples_valid"] is True
    assert chk["num_solutions_exhaustive"] == 8
    assert chk["exact_coverage"] > 0.0

    big = tmp_path / "big.smt2"
    big.write_text("(declare-const m (_ BitVec 32))(assert (= m #x00000003))")
    run_file(big, SamplerConfig(lam=2), oracle_check=True)
    chk = json.loads((tmp_path / "big.report.json").read_text())["oracle_check"]
    assert "error" in chk


def test_deterministic_timing_zeroes_every_clock(tmp_path):
    src = tmp_path / "demo.smt2"
    src.write_text(FREE3)
    cfg = SamplerConfig(target_coverage=0.5, lam=2, seed=1)
    rec, _ = run_file(src, cfg, deterministic_timing=True)
    assert rec.time_s == 0.0
    report = json.loads((tmp_path / "demo.report.json").read_text())
    assert report["time_s"] == 0.0
    assert report["parse_time_s"] == 0.0
    assert all(v == 0.0 for v in report["phase_times_s"].values())
    first = (tmp_path / "demo.report.json").read_bytes()
    run_file(src, cfg, deterministic_timing=True)
    assert (tmp_path / "demo.report.json").read_bytes() == first


def test_report_names_the_uncovered_slots(tmp_path):
    # Bit 1 of x * x is 0 in every solution, and the proof shows it.
    (tmp_path / "square.smt2").write_text(
        "(declare-const x (_ BitVec 4))"
        "(assert (bvule (bvmul x x) (bvmul x x)))\n")
    _, code = run_file(tmp_path / "square.smt2", SamplerConfig(lam=4, seed=1))
    report = json.loads((tmp_path / "square.report.json").read_text())
    assert code == 5 and report["coverage_reachable"] == 1.0
    assert {"node": "(bvmul x x)", "bit": 1, "value": 1,
            "proved": True} in report["uncovered"]
    assert all(e["proved"] for e in report["uncovered"])
    # One solution of a free 64-bit vector leaves 65 slots open, none
    # put to a proof; the list stops at its cap, and a long node is cut.
    name = "x" * (NODE_CHARS + 1)
    (tmp_path / "free.smt2").write_text(
        f"(declare-const {name} (_ BitVec 64))(assert (bvule {name} {name}))\n")
    run_file(tmp_path / "free.smt2",
             SamplerConfig(lam=2, seed=1, max_solutions=1))
    report = json.loads((tmp_path / "free.report.json").read_text())
    assert report["coverage_reachable"] == report["coverage"]["coverage_star"]
    assert len(report["uncovered"]) == UNCOVERED_LISTED
    assert not any(e["proved"] for e in report["uncovered"])
    assert {e["node"] for e in report["uncovered"]} <= {
        name[:NODE_CHARS] + "...", "(bvule " + name[:NODE_CHARS - 7] + "..."}


def test_out_dir_redirects_artifacts(tmp_path):
    src = tmp_path / "demo.smt2"
    src.write_text(FREE3)
    out = tmp_path / "artifacts"
    out.mkdir()
    run_file(src, SamplerConfig(target_coverage=0.5, lam=2), out_dir=str(out))
    assert (out / "demo.samples.smt2").exists()
    assert (out / "demo.report.json").exists()
    assert not (tmp_path / "demo.report.json").exists()


def test_a_single_file_run_makes_its_out_dir(tmp_path):
    src = tmp_path / "demo.smt2"
    src.write_text(FREE3)
    out = tmp_path / "out" / "nested"
    assert main([str(src), "--target-coverage", "0.5", "--lambda", "2",
                 "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "demo.report.json", "demo.samples.smt2"]


def test_a_suite_run_makes_its_out_dir(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "demo.smt2").write_text(FREE3)
    (suite / "taut.smt2").write_text(TAUT)
    out = tmp_path / "out"
    assert main([str(suite), "--targets", "0.8", "--lambda", "2",
                 "--out-dir", str(out)]) == 0
    assert len((out / "suite_records.csv").read_text().splitlines()) == 3
    assert (out / "taut.r0.8.samples.smt2").exists()
    assert sorted(p.name for p in suite.iterdir()) == ["demo.smt2",
                                                      "taut.smt2"]


def test_an_out_dir_that_cannot_be_made_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "demo.smt2"
    src.write_text(FREE3)
    err = _usage_error(capsys, lambda: main(
        [str(src), "--out-dir", str(src / "out")]))
    assert "--out-dir: cannot create" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.smt2"]


def test_record_csv_rendering():
    rec = BenchRecord("a.smt2", "QF_BV", "pansampler", 0.8, True, 3,
                      0.25, 0.875, "target")
    assert rec.csv_row() == ["a.smt2", "QF_BV", "pansampler", "0.8", "true",
                             "3", "0.250000", "0.875000", "target"]
    assert records_csv([]) == ",".join(RECORD_FIELDS) + "\n"


def test_aggregate_means_cover_achieved_runs_only():
    recs = [
        BenchRecord("a", "QF_BV", "pansampler", 0.8, True, 2, 0.5, 0.9, "target"),
        BenchRecord("b", "QF_BV", "pansampler", 0.8, True, 4, 1.5, 0.85, "target"),
        BenchRecord("c", "QF_BV", "pansampler", 0.8, False, 9, 9.0, 0.1, "stall"),
        BenchRecord("a", "QF_BV", "pansampler", 0.9, False, 1, 1.0, 0.2, "stall"),
    ]
    agg = aggregate(recs, [0.8, 0.9])
    row8, row9 = agg["targets"]
    assert row8 == {"r": 0.8, "num_benchmarks": 3, "suc": 2,
                    "mean_solutions": 3.0, "mean_time_s": 1.0}
    assert row9["suc"] == 0
    assert row9["mean_solutions"] is None
    csv = aggregate_csv(agg)
    lines = csv.splitlines()
    assert lines[0] == "r,num_benchmarks,suc,mean_solutions,mean_time_s"
    assert lines[1] == "0.8,3,2,3.000,1.000000"
    assert lines[2] == "0.9,1,0,-,-"


def test_main_single_file_prints_one_record(tmp_path, capsys):
    src = tmp_path / "demo.smt2"
    src.write_text(FREE3)
    code = main([str(src), "--target-coverage", "0.5", "--lambda", "2"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ",".join(RECORD_FIELDS)
    assert out[1].startswith(f"{src},QF_BV,pansampler,0.5,true,")


def test_main_suite_writes_tables_and_skips_artifacts(tmp_path, capsys):
    (tmp_path / "demo.smt2").write_text(FREE3)
    (tmp_path / "taut.smt2").write_text(TAUT)
    (tmp_path / "unsat.smt2").write_text(UNSAT)
    argv = [str(tmp_path), "--targets", "0.8,0.9", "--lambda", "3",
            "--deterministic-timing"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("r,num_benchmarks,suc,")

    records = (tmp_path / "suite_records.csv").read_text().splitlines()
    assert records[0] == ",".join(RECORD_FIELDS)
    assert len(records) == 1 + 6  # 2 targets x 3 benchmarks

    agg = json.loads((tmp_path / "suite_aggregate.json").read_text())
    row8, row9 = agg["targets"]
    # demo tops out at 7/8 and the tautology at 5/6: both clear 0.8,
    # neither clears 0.9, and the unsat file never counts as achieved.
    assert row8["num_benchmarks"] == 3 and row8["suc"] == 2
    assert row9["suc"] == 0 and row9["mean_time_s"] is None
    assert "-,-" in (tmp_path / "suite_aggregate.csv").read_text()

    # Artifacts from the first pass must not be picked up as inputs.
    first = (tmp_path / "suite_records.csv").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "suite_records.csv").read_bytes() == first


def test_main_suite_on_empty_directory(tmp_path):
    sub = tmp_path / "empty"
    sub.mkdir()
    assert main([str(sub), "--targets", "0.9"]) == 0
    records = (tmp_path / "empty" / "suite_records.csv").read_text()
    assert records == ",".join(RECORD_FIELDS) + "\n"
    agg = json.loads((sub / "suite_aggregate.json").read_text())
    assert agg["targets"][0]["num_benchmarks"] == 0


def test_run_file_builds_the_coverage_universe_once(tmp_path, monkeypatch):
    # The report reads its slots from the universe the sampler built.
    made = []

    class Counted(coverage.AstBitUniverse):
        def __init__(self, *args) -> None:
            made.append(self)
            super().__init__(*args)

    monkeypatch.setattr(coverage, "AstBitUniverse", Counted)
    src = tmp_path / "demo.smt2"
    src.write_text(FREE3)
    run_file(src, SamplerConfig(target_coverage=0.995, lam=2))
    assert len(made) == 1
    report = json.loads((tmp_path / "demo.report.json").read_text())
    assert report["uncovered"] and report["coverage_reachable"] == 1.0


def test_a_file_name_with_a_comma_stays_one_csv_field(tmp_path, capsys):
    # Rows without special characters are written as before; a name
    # holding a comma or a quote is quoted, so every row reads back as
    # the header's nine fields.
    for name in ("a,b.smt2", 'q"uote.smt2', "plain.smt2"):
        (tmp_path / name).write_text(FREE3)
    assert main([str(tmp_path), "--targets", "0.5", "--lambda", "2",
                 "--deterministic-timing"]) == 0
    text = (tmp_path / "suite_records.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == RECORD_FIELDS
    assert [len(row) for row in rows] == [len(RECORD_FIELDS)] * 4
    assert [row[0] for row in rows[1:]] == [
        str(tmp_path / name) for name in ("a,b.smt2", "plain.smt2",
                                          'q"uote.smt2')]
    assert text.splitlines()[2] == ",".join(rows[2])  # plain, unquoted
    capsys.readouterr()
    main([str(tmp_path / "a,b.smt2"), "--target-coverage", "0.5",
          "--lambda", "2"])
    out = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert out[0] == RECORD_FIELDS and out[1][0] == str(tmp_path / "a,b.smt2")


def test_a_bad_numeral_is_an_error_record_not_a_traceback(tmp_path,
                                                            capsys):
    # str.isdigit accepts '²', which int() then rejects.
    src = tmp_path / "width.smt2"
    src.write_text("(declare-const x (_ BitVec ²))(assert (bvule x x))\n")
    assert main([str(src), "--target-coverage", "0.5"]) == 4
    out, err = capsys.readouterr()
    assert out.splitlines()[1].endswith(",error")
    assert err == f"{src}: 1:28: bad BitVec width\n"


def test_a_suite_records_a_file_that_is_not_utf8_and_goes_on(tmp_path,
                                                             capsys):
    (tmp_path / "a_latin1.smt2").write_bytes(
        b"; caf\xe9\n(declare-const x Bool)(assert x)\n")
    (tmp_path / "b_demo.smt2").write_text(FREE3)
    assert main([str(tmp_path), "--targets", "0.5", "--lambda", "2",
                 "--deterministic-timing"]) == 0
    rows = list(csv.DictReader(
        io.StringIO((tmp_path / "suite_records.csv").read_text())))
    assert [(row["benchmark"], row["reason"]) for row in rows] == [
        (str(tmp_path / "a_latin1.smt2"), "error"),
        (str(tmp_path / "b_demo.smt2"), "target")]
    err = capsys.readouterr().err
    assert f"{tmp_path / 'a_latin1.smt2'}: 1:6: byte 0xe9 is not UTF-8" in err
