"""pansampler benchmark: one workload, closed loop, one process.

    python3 perfbench/run.py --workload bv_arith --seed 1 --seconds 30 --trace 0

Runs the workload's formulas one after another through the CLI. With
`--trace 0` it repeats whole untraced passes while the next one fits in
`--seconds` and reports the end-to-end metrics. With `--trace 1` it runs
every formula run once untraced and once traced, back to back, and
reports the per-layer metrics plus the tracing overhead, and writes the
traced spans to `.perfbench_work/spans-<workload>-<seed>.jsonl`. After timing,
the outputs are checked with the oracle and compared across passes. The
last line of stdout is one JSON object.

`--write-manifest` regenerates BENCHMARK.json from metrics.py.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-manifest", action="store_true",
                   help="regenerate BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if not (SRC / "pansampler" / "cli.py").is_file():
        print(f"perfbench: no pansampler sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_manifest:
        from metrics import write_manifest
        write_manifest(ROOT)
        return 0
    from metrics import RUN_SECONDS
    from workloads import WORKLOADS
    names = [w.name for w in WORKLOADS]
    if args.workload not in names:
        p.error(f"--workload must be one of {names}")
    import bench
    seconds = RUN_SECONDS if args.seconds is None else args.seconds
    result = bench.run(ROOT, args.workload, args.seed, seconds,
                       bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
