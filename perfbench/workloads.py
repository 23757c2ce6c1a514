"""Workload inputs and runs.

Every workload turns the benchmark seed into a list of formula files and
a list of jobs. `bv_arith` and `array_uf` run the committed formulas
under `inputs/` at fixed sampler seeds: with a handful of formulas, a
sampler seed drawn per run moved their solution counts by a fifth.
`ablation` writes fixtures drawn from the seed and samples with it.
`fuzz_suite` writes one fixed fuzzed corpus and samples with the seed:
a few heavy formulas dominate its run time, so a corpus drawn per seed
moved `run_s` by about a third. The generators give byte-identical
files for the same seed.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from pansampler.fuzz import random_formula
from pansampler.printer import print_formula
from pansampler.sampler import Mode, SamplerConfig

INPUTS = Path(__file__).resolve().parent / "inputs"

FUZZ_FILES = 150
FUZZ_CORPUS_SEED = 1
FUZZ_LOGICS = ("QF_BV", "QF_ABV", "QF_AUFBV")
FUZZ_TARGETS = (0.9, 0.995)
ABLATION_FIXTURES = 40
_GATE_OPS = ("and", "or", "distinct")


@dataclass(frozen=True)
class Job:
    """One formula run through `cli.run_file`."""

    path: Path
    cfg: SamplerConfig
    tag: str  # artifact suffix, unique per job


@dataclass
class Plan:
    inputs: list[Path]  # the distinct formula files, for set-up timing
    # For a suite workload, the runs its `cli.main` call makes; untraced
    # passes go through `cli.main`, the paired traced measurement through
    # these jobs.
    jobs: list[Job]
    suite_argv: list[str] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = (
    Workload("bv_arith", "few large QF_BV CNFs solved ~600 times each, so "
             "SAT build, search and model re-check dominate"),
    Workload("array_uf", "8-bit array and UF formulas whose candidates are "
             "checked against the theories, so SAT search, theory checks and "
             "abstraction all work"),
    Workload("fuzz_suite", "150 tiny fuzzed formulas at two targets through "
             "the CLI suite, so parse, set-up, coverage and artifact writes "
             "dominate"),
    Workload("ablation", "wide-vector fixtures under all four modes, so "
             "bit-blasting, bit distributions and the alt1 blocking path "
             "dominate"),
)


def _committed(name: str) -> list[Path]:
    return sorted((INPUTS / name).glob("*.smt2"))


def _hand_written(name: str, runs_per_file: int) -> Plan:
    files = _committed(name)
    jobs = [Job(p, SamplerConfig(target_coverage=0.995, lam=20, seed=k),
                f".s{k}")
            for p in files for k in range(runs_per_file)]
    return Plan(files, jobs)


def write_fuzz_inputs(seed: int, directory: Path) -> list[Path]:
    rng = random.Random(seed)
    paths = []
    for i in range(FUZZ_FILES):
        f = random_formula(rng.randrange(1 << 32), logic=FUZZ_LOGICS[i % 3],
                           max_width=6, max_depth=4, bit_budget=16)
        path = directory / f"fz{i:03d}.smt2"
        path.write_text(print_formula(f))
        paths.append(path)
    return paths


def ablation_fixture(rng: random.Random) -> str:
    """A small Bool circuit or'd with a wide free vector: the vector keeps
    99.5% of the AST-bits attainable, the circuit needs search to cover."""
    if rng.random() < 0.5:
        w = rng.choice((224, 256, 288))
        a, b, c = (rng.choice(_GATE_OPS) for _ in range(3))
        return (f"(declare-const x (_ BitVec {w}))\n"
                "(declare-const b1 Bool)\n(declare-const b2 Bool)\n"
                "(declare-const b3 Bool)\n(declare-const b4 Bool)\n"
                f"(assert (or ({c} ({a} b1 b2) ({b} b3 b4)) (bvule x x)))\n")
    w = rng.choice((224, 256))
    a, b, c, d = (rng.choice(_GATE_OPS) for _ in range(4))
    return (f"(declare-const x (_ BitVec {w}))\n"
            "(declare-const b1 Bool)\n(declare-const b2 Bool)\n"
            "(declare-const b3 Bool)\n(declare-const b4 Bool)\n"
            "(declare-const b5 Bool)\n(declare-const b6 Bool)\n"
            f"(assert (or ({d} ({c} ({a} b1 b2) ({b} b3 b4)) "
            f"({a} b5 b6)) (bvule x x)))\n")


def write_ablation_inputs(seed: int, directory: Path) -> list[Path]:
    rng = random.Random(seed)
    paths = []
    for i in range(ABLATION_FIXTURES):
        path = directory / f"fx{i:02d}.smt2"
        path.write_text(ablation_fixture(rng))
        paths.append(path)
    return paths


def plan(name: str, seed: int, input_dir: Path) -> Plan:
    """Write the workload's inputs under input_dir and list its runs."""
    if name == "bv_arith":
        return _hand_written(name, runs_per_file=1)
    if name == "array_uf":
        return _hand_written(name, runs_per_file=3)
    if name == "fuzz_suite":
        files = write_fuzz_inputs(FUZZ_CORPUS_SEED, input_dir)
        jobs = [Job(p, SamplerConfig(target_coverage=r, lam=8, seed=seed),
                    f".r{r:g}")
                for r in FUZZ_TARGETS for p in files]
        targets = ",".join(f"{r:g}" for r in FUZZ_TARGETS)
        return Plan(files, jobs, suite_argv=[
            str(input_dir), "--targets", targets, "--lambda", "8",
            "--seed", str(seed)])
    if name == "ablation":
        files = write_ablation_inputs(seed, input_dir)
        jobs = [Job(p, SamplerConfig(lam=3, seed=seed, mode=mode),
                    f".{mode.value}")
                for mode in Mode for p in files]
        return Plan(files, jobs)
    raise ValueError(f"unknown workload {name}")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
