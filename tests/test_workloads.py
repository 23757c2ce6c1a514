"""The benchmark workloads' samples, pinned.

Every job of the four perfbench workloads at seed 1 runs through
`cli.run_file` with deterministic timing, as the benchmark runs it. Each
workload's digest is the sha256 of one line per job, in plan order: the
formula's name, the job's tag, the stop reason and the sha256 of the
`.samples.smt2` it wrote. A change to the sampler that keeps its output
must keep all four.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from pansampler.cli import run_file

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

WORKLOAD_DIGESTS = {
    "bv_arith": "975cba6d4c1736d0bdeb452ce84208c37d44f1e1a9c492f77407a94c1fe21e72",
    "array_uf": "b5e8922d2b0a9a487203737f81173f9b44a09c1f09807644b448c00ab6288600",
    "fuzz_suite": "f42347481297a7ff478a3cd9986864a1fbe9aa0b872c5fd6fabbd1539384b4f8",
    "ablation": "7728a0c7f451b7238029578a77b9da1b347f9a7aa516e2a8092c6f9e5d2adb56",
}


def _signature(name: str, tmp: Path) -> list[str]:
    plan = workloads.plan(name, 1, workloads.fresh_dir(tmp / "in"))
    out = workloads.fresh_dir(tmp / "out")
    lines = []
    for job in plan.jobs:
        rec, _ = run_file(job.path, job.cfg, out_dir=str(out),
                          deterministic_timing=True, artifact_tag=job.tag)
        samples = out / f"{job.path.stem}{job.tag}.samples.smt2"
        digest = hashlib.sha256(samples.read_bytes()).hexdigest()
        lines.append(f"{job.path.name} {job.tag} {rec.reason} {digest}\n")
    return lines


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_every_workload_job_writes_its_pinned_samples(name, tmp_path):
    lines = _signature(name, tmp_path)
    got = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert got == WORKLOAD_DIGESTS[name], "".join(lines)
