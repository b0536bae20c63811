"""Command-line interface.

Subcommands:
  gen      write a synthetic instance (preferences.csv, providers.csv)
  offline  batch k-sweep over algorithms
  online   request-stream replay
  metrics  recompute metrics from a saved recommendations.csv

Exit codes: 0 success, 1 validation or usage error, 2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import fileio
from .errors import InputFormatError, ValidationError
from .experiments import (
    ALGORITHMS,
    ExperimentConfig,
    StreamTracker,
    TraceRow,
    run_offline_sweep,
    run_online_stream,
)
from .metrics import exposure, quality
from .model import original_rankings
from .synth import SCORE_DISTRIBUTIONS, generate_synthetic
from .targets import FairnessMode


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to 1 (validation)
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise _UsageError(f"expected a comma-separated integer list, got {text!r}")


def _comma_names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def build_parser() -> _Parser:
    parser = _Parser(prog="tfrom", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic instance")
    gen.add_argument("--m", type=int, required=True, help="number of customers")
    gen.add_argument("--n", type=int, required=True, help="number of items")
    gen.add_argument("--l", type=int, required=True, help="number of providers")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--score-distribution", choices=SCORE_DISTRIBUTIONS, default="uniform")
    gen.add_argument("--provider-size-skew", type=float, default=1.0)
    gen.add_argument("--out", required=True, help="output directory")

    def run_flags(cmd, online: bool):
        cmd.add_argument("--preferences", required=True, help="preference triplet CSV")
        cmd.add_argument("--providers", required=True, help="item-to-provider CSV")
        cmd.add_argument(
            "--fairness",
            choices=[mode.value for mode in FairnessMode],
            default=FairnessMode.UNIFORM.value,
        )
        cmd.add_argument(
            "--algorithms",
            default=",".join(ALGORITHMS),
            help=f"comma-separated subset of {','.join(ALGORITHMS)}",
        )
        cmd.add_argument("--k", required=True, help="comma-separated list lengths")
        cmd.add_argument("--seed", type=int, default=0)
        if online:
            cmd.add_argument("--stream-multiplier", type=int, default=10)
            cmd.add_argument("--trace-every", type=int, default=None)
        cmd.add_argument("--out", required=True, help="output directory")

    run_flags(sub.add_parser("offline", help="batch k-sweep"), online=False)
    run_flags(sub.add_parser("online", help="request-stream replay"), online=True)

    met = sub.add_parser("metrics", help="recompute metrics from saved lists")
    met.add_argument("--preferences", required=True)
    met.add_argument("--providers", required=True)
    met.add_argument("--recommendations", required=True, help="saved recommendations.csv")
    met.add_argument("--out", required=True, help="output directory")
    return parser


def _echo_config(args, config: ExperimentConfig | None = None) -> dict:
    echo = {key: value for key, value in vars(args).items() if key != "command"}
    echo["command"] = args.command
    if config is not None:
        echo["fairness"] = config.fairness.value
        echo["algorithms"] = list(config.algorithms)
        echo["k"] = list(config.ks)
    return echo


def _cmd_gen(args) -> int:
    scores, assignments = generate_synthetic(
        args.m,
        args.n,
        args.l,
        score_distribution=args.score_distribution,
        provider_size_skew=args.provider_size_skew,
        seed=args.seed,
    )
    preferences, providers = fileio.write_instance_files(scores, assignments, args.out)
    print(f"wrote {preferences} and {providers}")
    return 0


def _write_run(args, config, matrix, catalog, labels, trace, cells) -> int:
    """Write the run's summary and trace, and each cell's recommendations."""
    _write_summary(args, matrix, catalog, [asdict(row) for row in trace], config)
    out = Path(args.out)
    for name, served in cells:
        cell = out / name
        cell.mkdir(parents=True, exist_ok=True)
        fileio.write_recommendations(
            cell / "recommendations.csv", served, matrix, catalog, labels
        )
    fileio.write_trace(out / "trace.csv", trace)
    print(f"wrote {out / 'trace.csv'} ({len(trace)} rows)")
    return 0


def _write_summary(args, matrix, catalog, results, config=None) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_summary(
        out / "summary.json",
        {
            "config": _echo_config(args, config),
            "instance": {"customers": matrix.m, "items": matrix.n, "providers": catalog.l},
            "results": results,
        },
    )


def _cmd_offline(args) -> int:
    matrix, catalog, labels = fileio.load_instance(args.preferences, args.providers)
    config = ExperimentConfig(
        fairness=FairnessMode(args.fairness),
        algorithms=_comma_names(args.algorithms),
        ks=_comma_ints(args.k),
        seed=args.seed,
    )
    result = run_offline_sweep(config, matrix, catalog)
    cells = [
        (f"{algo}_k{k}", [(None, rec) for rec in lists])
        for (algo, k), lists in result.lists.items()
    ]
    return _write_run(args, config, matrix, catalog, labels, result.trace, cells)


def _cmd_online(args) -> int:
    matrix, catalog, labels = fileio.load_instance(args.preferences, args.providers)
    config = ExperimentConfig(
        fairness=FairnessMode(args.fairness),
        algorithms=_comma_names(args.algorithms),
        ks=_comma_ints(args.k),
        seed=args.seed,
        stream_multiplier=args.stream_multiplier,
        trace_every=args.trace_every,
    )
    result = run_online_stream(config, matrix, catalog)
    return _write_run(
        args, config, matrix, catalog, labels, result.trace, result.served.items()
    )


def _cmd_metrics(args) -> int:
    matrix, catalog, labels = fileio.load_instance(args.preferences, args.providers)
    served = fileio.read_recommendations(args.recommendations, matrix, catalog, labels)
    originals = original_rankings(matrix)
    lists = [rec for _, rec in served]
    if any(req is not None for req, _ in served):
        tracker = StreamTracker(matrix, catalog, originals)
        for rec in lists:
            tracker.record(rec)
        row = tracker.row(len(lists), "")
        head = {"mode": "online", "requests": len(lists)}
    else:
        row = TraceRow.from_reports(
            lists[0].k,
            "",
            exposure(lists, catalog),
            quality(lists, matrix, originals),
            matrix,
            catalog,
        )
        head = {"mode": "offline", "k": row.step}
    results = {**asdict(row), **head}
    del results["step"], results["algorithm"]
    _write_summary(args, matrix, catalog, results)
    print(f"wrote {Path(args.out) / 'summary.json'}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "offline": _cmd_offline,
    "online": _cmd_online,
    "metrics": _cmd_metrics,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"tfrom: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, ValidationError) as exc:
        print(f"tfrom: error: {exc}", file=sys.stderr)
        return 1
    except (InputFormatError, OSError) as exc:
        print(f"tfrom: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
