"""Single-point mutation check of the package's modules against their tests.

    python scripts/mutants.py                      # all eight modules
    python scripts/mutants.py baselines.py --list  # the mutants, not run

Each mutant changes one spot of one module under ``src/tfrom``:
``<=``/``<`` and ``>``/``>=`` swap, ``==`` becomes ``!=``, ``min``/``max``
and ``argmin``/``argmax`` swap, an index expression gains ``+ 1`` or
``- 1``, ``+ BUDGET_SLACK`` is dropped, a ``kind="stable"`` argument is, or
a ``for`` loop visits its iterable in reverse (``for x in reversed(s)``).
Annotations, which are never evaluated, are left alone. Every mutant runs
in a temporary copy of ``src/`` and ``tests/`` against the tests
(``TESTS``), with ``-x``, a fixed Hypothesis seed and a timeout; a failing
run, an import error or a timeout kills it.

A mutant that survives is a gap in the tests unless no input can tell it
from the original. Those equivalent mutants are listed in the baseline
file, each with the reason, under a key that holds no line number:
``module: source segment: mutation #occurrence``. The exit status is 1 if
a survivor is not in the baseline, 0 otherwise. Uses the standard library
only, and runs at most two pytest processes at once.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tfrom"
MODULES = ("baselines.py", "offline.py", "online.py", "targets.py", "metrics.py", "model.py",
           "experiments.py", "fileio.py")
TESTS = (
    "test_offline.py",
    "test_online.py",
    "test_baselines.py",
    "test_targets.py",
    "test_metrics.py",
    "test_acceptance.py",
    "test_rerank_oracles.py",
    "test_scoring_columns.py",
    "test_argument_rules.py",
    "test_model.py",
    "test_experiments.py",
    "test_fileio.py",
    "test_cli.py",
)
BASELINE = ROOT / "scripts" / "mutants_baseline.json"
MAX_WORKERS = 2

COMPARE_SWAPS = {ast.LtE: ast.Lt, ast.Lt: ast.LtE, ast.GtE: ast.Gt, ast.Gt: ast.GtE,
                 ast.Eq: ast.NotEq}
SYMBOLS = {ast.LtE: "<=", ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.Eq: "==",
           ast.NotEq: "!="}
NAME_SWAPS = {"min": "max", "max": "min", "argmin": "argmax", "argmax": "argmin"}


def _annotation_nodes(tree: ast.AST) -> set[int]:
    """ids of every node inside an annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            roots.append(node.annotation)
    return {id(sub) for root in roots if root is not None for sub in ast.walk(root)}


def _edits(tree: ast.AST):
    """(node, label, edit) for every mutation point; ``edit`` applies the
    mutation to the node's copy in a deep-copied tree."""
    skip = _annotation_nodes(tree)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                swap = COMPARE_SWAPS.get(type(op))
                if swap is not None:
                    label = f"{SYMBOLS[type(op)]} -> {SYMBOLS[swap]}"
                    yield node, label, lambda n, i=i, swap=swap: n.ops.__setitem__(i, swap())
        elif isinstance(node, ast.Name) and node.id in NAME_SWAPS:
            yield node, f"{node.id} -> {NAME_SWAPS[node.id]}", \
                lambda n: setattr(n, "id", NAME_SWAPS[n.id])
        elif isinstance(node, ast.Attribute) and node.attr in NAME_SWAPS:
            yield node, f"{node.attr} -> {NAME_SWAPS[node.attr]}", \
                lambda n: setattr(n, "attr", NAME_SWAPS[n.attr])
        elif isinstance(node, ast.Subscript):
            yield from _index_edits(node)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            if isinstance(node.right, ast.Name) and node.right.id == "BUDGET_SLACK":
                yield node, "drop + BUDGET_SLACK", lambda n: setattr(n, "right", ast.Constant(0.0))
        elif isinstance(node, ast.Call):
            for i, kw in enumerate(node.keywords):
                if kw.arg == "kind" and isinstance(kw.value, ast.Constant) \
                        and kw.value.value == "stable":
                    yield node, 'drop kind="stable"', lambda n, i=i: n.keywords.pop(i)
        elif isinstance(node, ast.For):
            yield node, "reversed visit order", lambda n: setattr(
                n, "iter", ast.Call(ast.Name("reversed", ast.Load()), [n.iter], []))


def _index_edits(node: ast.Subscript):
    """``+ 1`` and ``- 1`` on each index of a subscript: each tuple element
    and each bound of a slice, but no string key or ``...``."""
    parts = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    for i, part in enumerate(parts):
        for field in ("lower", "upper") if isinstance(part, ast.Slice) else (None,):
            target = part if field is None else getattr(part, field)
            if target is None or (isinstance(target, ast.Constant)
                                  and not isinstance(target.value, int)):
                continue
            for op, sign in ((ast.Add(), "+"), (ast.Sub(), "-")):
                def edit(n, i=i, field=field, op=op):
                    elts = n.slice.elts if isinstance(n.slice, ast.Tuple) else None
                    inner = elts[i] if elts is not None else n.slice
                    old = inner if field is None else getattr(inner, field)
                    new = ast.BinOp(left=old, op=op, right=ast.Constant(1))
                    if field is not None:
                        setattr(inner, field, new)
                    elif elts is not None:
                        elts[i] = new
                    else:
                        n.slice = new
                where = "index" if field is None else f"slice {field}"
                yield node, f"{where} {ast.unparse(target)} {sign} 1", edit


def mutants(module: str):
    """(key, line, source) of every mutant of one module."""
    source = (PACKAGE / module).read_text()
    tree = ast.parse(source)
    seen: dict[str, int] = {}
    for node, label, edit in _edits(tree):
        # a loop is named by its header, not by its whole body
        part = (f"for {ast.get_source_segment(source, node.target)} in "
                f"{ast.get_source_segment(source, node.iter)}"
                if isinstance(node, ast.For) else ast.get_source_segment(source, node))
        segment = " ".join(part.split())
        base = f"{module}: {segment}: {label}"
        seen[base] = seen.get(base, 0) + 1
        mutant = copy.deepcopy(tree)
        # ast.walk visits the copy in the same order as the original
        twin = next(t for o, t in zip(ast.walk(tree), ast.walk(mutant)) if o is node)
        edit(twin)
        yield f"{base} #{seen[base]}", node.lineno, ast.unparse(ast.fix_missing_locations(mutant))


def _copy_tree(source: Path, target: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(source / part, target / part, ignore=shutil.ignore_patterns("__pycache__"))


def run(snapshot: Path, module: str, source: str, timeout: float) -> str:
    """'killed', 'timeout' or 'survived': one mutant in a copy of
    ``snapshot``."""
    with tempfile.TemporaryDirectory(prefix="tfrom-mutant-") as tmp:
        _copy_tree(snapshot, Path(tmp))
        (Path(tmp) / "src" / "tfrom" / module).write_text(source)
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "--hypothesis-seed=0", *(f"tests/{name}" for name in TESTS)]
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(command, cwd=tmp, env=env, capture_output=True,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            return "timeout"
        return "survived" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", metavar="module",
                        help=f"modules of src/tfrom, from {', '.join(MODULES)} (default: all)")
    parser.add_argument("--baseline", type=Path, default=BASELINE)
    parser.add_argument("--timeout", type=float, default=120.0, help="seconds per mutant")
    parser.add_argument("--workers", type=int, default=MAX_WORKERS, choices=(1, 2))
    parser.add_argument("--list", action="store_true", help="list the mutants, run none")
    args = parser.parse_args(argv)
    for module in args.modules:
        if module not in MODULES:
            parser.error(f"unknown module {module!r}; choose from {', '.join(MODULES)}")

    todo = [(module, *m) for module in args.modules or MODULES for m in mutants(module)]
    if args.list:
        for module, key, line, _ in todo:
            print(f"{module}:{line}  {key}")
        return 0
    baseline = {entry["mutant"]: entry["reason"]
                for entry in json.loads(args.baseline.read_text())}
    unexplained = []
    # every mutant starts from the tree as it was at the start of the run
    with tempfile.TemporaryDirectory(prefix="tfrom-snapshot-") as snapshot, \
            concurrent.futures.ThreadPoolExecutor(args.workers) as pool:
        _copy_tree(ROOT, Path(snapshot))
        futures = [pool.submit(run, Path(snapshot), module, source, args.timeout)
                   for module, _, _, source in todo]
        for (module, key, line, _), future in zip(todo, futures):
            outcome = future.result()
            if outcome == "survived":
                if key in baseline:
                    outcome = "survived (equivalent)"
                else:
                    unexplained.append(key)
            print(f"{outcome:22} {module}:{line}  {key}", flush=True)
    print(f"{len(todo)} mutants, {len(unexplained)} unexplained survivors")
    for key in unexplained:
        print(f"  not in the baseline: {key}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
