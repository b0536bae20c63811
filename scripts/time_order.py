"""Time ``PreferenceMatrix.order`` against the stable argsort it replaced,
and on all cores against one.

    PYTHONPATH=src python scripts/time_order.py            # JSON on stdout
    PYTHONPATH=src python scripts/time_order.py --repeats 9

The replaced code is ``stable_order`` in ``tests/oracles.py``: one stable
argsort of the negated scores per block of rows. For each workload shape
of the benchmark (m x n = 1000 x 1000, 2000 x 2000 and 50000 x 50) and
each kind of scores below, three sides are timed in alternation, in one
process, with ``time.perf_counter``, their order reversed every repeat: the
stable argsort, ``order`` as it runs (its blocks on every core of the
process's affinity, ``model._cores``) and ``order`` with ``model._cores``
patched to 1 (``serial_ms``); a fresh matrix each time, since ``order`` is
computed once per matrix, built before the clock starts, so the check of
its grid is not timed. The three results must be equal to the bit, or
the script exits with status 1.

Scores: ``continuous`` as ``generate_synthetic`` draws them; ``ratings``,
``ceil(5 * s)``; ``float32``, the continuous scores cast to float32 and
back; ``zeros50``/``85``/``95``, that share of the continuous cells set
to 0 (a row left with no positive score keeps one); ``identity``, one
1.0 per row; ``near_tie``, continuous with item 1 one ulp above item 0 in
every row, so every row fails the keyed sort's check and is sorted again.
Prints one JSON object with the core count: per shape and kind, the median
milliseconds of each side, keyed over stable and threaded (keyed) over serial.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
from tfrom import model, synth  # noqa: E402

SHAPES = {"cli-pipeline-1m": (1000, 1000), "rerank-2k": (2000, 2000), "stream-wide": (50_000, 50)}
KINDS = ("continuous", "ratings", "float32", "zeros50", "zeros85", "zeros95", "identity", "near_tie")


def scores_of(kind: str, m: int, n: int, seed: int) -> np.ndarray:
    scores, _ = synth.generate_synthetic(m, n, min(n, 10), seed=seed)
    if kind == "ratings":
        scores = np.ceil(5 * scores)
    elif kind == "float32":
        scores = scores.astype(np.float32).astype(np.float64)
    elif kind.startswith("zeros"):
        rng = np.random.default_rng(seed)
        top = scores.argmax(axis=1)
        scores[rng.random((m, n)) < int(kind[5:]) / 100] = 0.0
        empty = ~(scores > 0).any(axis=1)
        scores[empty, top[empty]] = 1.0
    elif kind == "identity":
        scores = np.zeros((m, n))
        scores[np.arange(m), np.arange(m) % n] = 1.0
    elif kind == "near_tie":
        scores[:, 1] = np.nextafter(scores[:, 0], np.inf)
    scores.setflags(write=False)  # so that PreferenceMatrix keeps it uncopied
    return scores


def serial_order(matrix: model.PreferenceMatrix) -> np.ndarray:
    with mock.patch.object(model, "_cores", lambda: 1):
        return matrix.order


def time_kind(scores: np.ndarray, repeats: int) -> dict:
    sides = {
        "stable_ms": lambda matrix: oracles.stable_order(scores),
        "keyed_ms": lambda matrix: matrix.order,
        "serial_ms": serial_order,
    }
    times = {name: [] for name in sides}
    results = {}
    for rep in range(repeats):
        for name in sorted(sides, reverse=rep % 2 == 1):
            matrix = model.PreferenceMatrix(scores)
            start = time.perf_counter()
            results[name] = sides[name](matrix)
            times[name].append((time.perf_counter() - start) * 1e3)
    if len({order.tobytes() for order in results.values()}) != 1:
        raise SystemExit("order differs from the stable argsort or from one core's")
    medians = {name: round(statistics.median(values), 2) for name, values in times.items()}
    medians["keyed_over_stable"] = round(medians["keyed_ms"] / medians["stable_ms"], 3)
    medians["threaded_over_serial"] = round(medians["keyed_ms"] / medians["serial_ms"], 3)
    return medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=21)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    report = {
        "method": f"one process, median of {args.repeats} alternating runs, seed {args.seed}",
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "platform": platform.platform(), "cores": model._cores()},
        "shapes": {},
    }
    for workload, (m, n) in SHAPES.items():
        rows = report["shapes"][f"{workload} {m}x{n}"] = {}
        for kind in KINDS:
            rows[kind] = time_kind(scores_of(kind, m, n, args.seed), args.repeats)
            print(workload, kind, rows[kind], file=sys.stderr, flush=True)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
