"""Run one workload of the tfrom benchmark and print its metrics.

    python3 perfbench/run.py --workload rerank-2k --seed 0 --seconds 25 --trace 0

Run from the root of a source tree: the benchmark imports ``tfrom`` from
``src/`` there and exits with status 2 if it is missing. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. The line before it
records the machine, the versions, the seed and what the checks found.
Spans of a traced run are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tfrom" / "__init__.py").is_file():
        print(f"error: no tfrom sources under {SRC}", file=sys.stderr)
        return 2
    # Single-threaded numpy; set before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import numpy as np

    import bench
    import tfrom

    if not Path(tfrom.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: tfrom imported from {tfrom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = config["per_layer" if args.trace else "end_to_end"]
    recorded = json.loads((Path(__file__).parent / "expected.json").read_text(encoding="utf-8"))
    expected = recorded["digests"].get(args.workload, {}).get(str(args.seed))

    OUT.mkdir(exist_ok=True)
    try:
        result = bench.measure(
            bench.WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            expected=expected,
            work=OUT / f"work-{os.getpid()}",
        )
    except bench.SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    values = result["values"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        result["tracer"].write(OUT / f"spans-{tag}.jsonl")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "check_expected_digests": expected is not None,
        **result["report"],
    }
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
