"""The benchmark workloads' samples and reports, pinned.

Every job of the four perfbench workloads at seeds 1 and 3 runs through
`cli.run_file` with deterministic timing, as the benchmark runs it. Each
workload's samples digest is the sha256 of one line per job, in plan
order: the formula's name, the job's tag, the stop reason and the sha256
of the `.samples.smt2` it wrote. Its reports digest is the sha256 of one
line per job: the name, the tag, the exit code and the sha256 of the
`report.json` it wrote, with the input's path read as its file name. A
change to the sampler that keeps its output must keep all of them.
bv_arith and array_uf run their committed formulas at fixed sampler
seeds, so their digests are the same at both seeds.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from pansampler.cli import run_file

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# (workload, seed) -> (samples digest, reports digest)
WORKLOAD_DIGESTS = {
    ("ablation", 1): (
        "7728a0c7f451b7238029578a77b9da1b347f9a7aa516e2a8092c6f9e5d2adb56",
        "8c8030ef883427c3d47a40acf6d27a2fe2672afb46c711573f87f0a6f73d3cfd"),
    ("array_uf", 1): (
        "b5e8922d2b0a9a487203737f81173f9b44a09c1f09807644b448c00ab6288600",
        "c7b94f50aba5f95d3849b8da43a14b05ac27085d3b4095a511674f14e9cc27cc"),
    ("bv_arith", 1): (
        "975cba6d4c1736d0bdeb452ce84208c37d44f1e1a9c492f77407a94c1fe21e72",
        "0b7fbe3d8a383b3a579097de1e9aac7e11a465e4ec99ec573306f7edd14b71f7"),
    ("fuzz_suite", 1): (
        "f42347481297a7ff478a3cd9986864a1fbe9aa0b872c5fd6fabbd1539384b4f8",
        "6b24621df8991614fb3447ef02e0d584d2f503d225acd184d2da6aff141f48d3"),
    ("ablation", 3): (
        "d0d02f5de074f32730146977f7f94af0ae4784b2aeba404ce8d7016a8a2b40a6",
        "098a657636a288eafe6448d2c8ebe05b83e7f73ef0add66f978ce9bd3ac2aa13"),
    ("array_uf", 3): (
        "b5e8922d2b0a9a487203737f81173f9b44a09c1f09807644b448c00ab6288600",
        "c7b94f50aba5f95d3849b8da43a14b05ac27085d3b4095a511674f14e9cc27cc"),
    ("bv_arith", 3): (
        "975cba6d4c1736d0bdeb452ce84208c37d44f1e1a9c492f77407a94c1fe21e72",
        "0b7fbe3d8a383b3a579097de1e9aac7e11a465e4ec99ec573306f7edd14b71f7"),
    ("fuzz_suite", 3): (
        "aade9726d21c679b61b156e19bc58ee95b2d0c6914a84584b4418d5526b7975c",
        "3b5be97913b8f194171c0ce3425210bc3659f09ceb023ed4ffee431f5c845726"),
}


def _signature(name: str, seed: int, tmp: Path) -> tuple[list[str], list[str]]:
    plan = workloads.plan(name, seed, workloads.fresh_dir(tmp / "in"))
    out = workloads.fresh_dir(tmp / "out")
    samples, reports = [], []
    for job in plan.jobs:
        rec, code = run_file(job.path, job.cfg, out_dir=str(out),
                             deterministic_timing=True, artifact_tag=job.tag)
        stem = f"{job.path.stem}{job.tag}"
        digest = hashlib.sha256(
            (out / f"{stem}.samples.smt2").read_bytes()).hexdigest()
        samples.append(f"{job.path.name} {job.tag} {rec.reason} {digest}\n")
        report = (out / f"{stem}.report.json").read_text().replace(
            json.dumps(str(job.path)), json.dumps(job.path.name))
        digest = hashlib.sha256(report.encode()).hexdigest()
        reports.append(f"{job.path.name} {job.tag} {code} {digest}\n")
    return samples, reports


# Seed 1's cases keep the bare workload name as their id.
@pytest.mark.parametrize(
    "name, seed", list(WORKLOAD_DIGESTS),
    ids=[name if seed == 1 else f"{name}-seed{seed}"
         for name, seed in WORKLOAD_DIGESTS])
def test_every_workload_job_writes_its_pinned_samples(name, seed, tmp_path):
    samples, reports = _signature(name, seed, tmp_path)
    got = tuple(hashlib.sha256("".join(lines).encode()).hexdigest()
                for lines in (samples, reports))
    want = WORKLOAD_DIGESTS[name, seed]
    assert got[0] == want[0], "".join(samples)
    assert got[1] == want[1], "".join(reports)
