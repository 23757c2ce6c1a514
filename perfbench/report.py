"""Every metric of every workload in one table.

    python3 perfbench/report.py [--seed 1] [--write-baseline]

Runs `run.py` once per workload with `--trace 0` and once with
`--trace 1`, each in a fresh process, and prints every metric line the
runs print (the gated ones of the JSON line and the printed-only
formula percentiles and failure share) by name with its unit.
`--write-baseline` also stores the numbers, with the layer-to-end-to-end
mapping from metrics.py, in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import SELF_TIMES  # noqa: E402
from metrics import PER_LAYER, RUN_SECONDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

METRIC_LINE = re.compile(r"^  (\S+) +(-?[0-9.]+) (\S+)")


def _run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    """Run one workload; returns {metric: (value, unit)} and the report text."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} --trace {trace} failed:\n{proc.stderr}")
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    metrics = {m[1]: (float(m[2]), m[3])
               for m in map(METRIC_LINE.match, lines) if m}
    metrics["correct"] = (float(result["correct"]), "bool")
    return metrics, "\n".join(lines)


def _shares(metrics: dict) -> dict:
    """Each listed layer self time as a share of the traced pass."""
    total = metrics["trace.run_s"][0]
    return {k: round(metrics[k][0] / total, 4) for k in SELF_TIMES}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--write-baseline", action="store_true")
    args = p.parse_args()

    results: dict[str, dict] = {}
    for w in WORKLOADS:
        results[w.name] = {}
        for trace in (0, 1):
            got, text = _run(w.name, args.seed, trace)
            print(text, flush=True)
            results[w.name]["trace" if trace else "e2e"] = got

    names = [w.name for w in WORKLOADS]
    print(f"\n{'metric':28s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in names))
    for section in ("e2e", "trace"):
        rows = dict.fromkeys(k for n in names for k in results[n][section])
        for name in rows:
            got = [results[n][section].get(name) for n in names]
            unit = next(g[1] for g in got if g)
            print(f"{name:28s} {unit:6s} " + " ".join(
                f"{g[0]:14.6g}" if g else f"{'-':>14s}" for g in got))

    if args.write_baseline:
        baseline = {
            "seed": args.seed,
            "seconds": RUN_SECONDS,
            "machine": f"{platform.machine()}, {platform.python_implementation()} "
                       f"{platform.python_version()}",
            "layer_to_end_to_end": {
                name: [{"metric": m, "workloads": list(ws)} for m, ws in moves]
                for name, _, _, moves in PER_LAYER},
            "results": {n: {section: {k: v for k, (v, _) in
                                      results[n][section].items()}
                            for section in ("e2e", "trace")}
                        for n in names},
            "share_of_traced_run": {n: _shares(results[n]["trace"])
                                    for n in names},
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
