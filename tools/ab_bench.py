"""Time two source trees against each other in one interpreter, in pairs.

Loads this tree's ``gupsqueeze`` and ``--parent DIR``'s under two package
names, binds a copy of ``perfbench/suite.py`` to each, and runs every op of
a workload (the benchmark's ops, on its seed-1 inputs) on both trees in
turn, the side that goes first swapping every pass, after a warm-up that
fills both trees' caches.  Each tree writes into its own work directory.
Every op's output is checked as the benchmark checks it.

For each op, and for each pass (the sum of its ops), it prints the median
ratio of paired times, this tree over the parent, with its quartiles and
both sides' median seconds.  Interleaved fresh-interpreter pairs do the
same for the set-up (import and parser build, as ``perfbench/run.py``'s
``setup_s``), each tree's package copied into one of two like directories.
Peak memory cannot be paired in one process and is left to the benchmark.

    python tools/ab_bench.py --parent ../parent-checkout
    python tools/ab_bench.py --parent . --workload exact_algebra --pairs 300  # A/A

The last line printed is one JSON object with every ratio.  Exits 1 if an
op's check failed (the benchmark's known-defect probe is counted, not
fatal).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # the inputs perfbench/run.py builds by default
SIDES = ("mine", "parent")
SETUP_CODE = "import gupsqueeze.cli as c; c.build_parser()"


def load_tree(root: Path, name: str) -> ModuleType:
    """root's src/gupsqueeze imported as the package ``name``, with its cli;
    its relative imports resolve inside root."""
    package = root / "src" / "gupsqueeze"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def load_suite(package: ModuleType) -> ModuleType:
    """A copy of perfbench/suite.py whose ``gupsqueeze`` is package."""
    name = f"{package.__name__}_suite"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "suite.py")
    suite = importlib.util.module_from_spec(spec)
    sys.modules[name] = suite
    saved = sys.modules.get("gupsqueeze")
    sys.modules["gupsqueeze"] = package  # for the suite's own import of it
    try:
        spec.loader.exec_module(suite)
    finally:
        if saved is None:
            del sys.modules["gupsqueeze"]
        else:
            sys.modules["gupsqueeze"] = saved
    return suite


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles (inclusive method), as q1, median, q3."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def paired(mine: list[float], parent: list[float]) -> dict:
    """The ratios mine/parent of paired times, and each side's median."""
    return {"ratio": quartiles([m / p for m, p in zip(mine, parent)]),
            "mine_s": statistics.median(mine), "parent_s": statistics.median(parent)}


def run_workload(suites: dict[str, ModuleType], workload: str,
                 pairs: int, warmup: int) -> tuple[dict, list[str]]:
    """Paired per-op and per-pass times of one workload, and the checks that
    failed (known failures left out)."""
    times = {side: {} for side in SIDES}  # side -> op name -> seconds per pass
    problems = []
    with tempfile.TemporaryDirectory() as work:
        ops = {}
        for side in SIDES:
            Path(work, side).mkdir()
            ops[side] = suites[side].BUILDERS[workload](SEED, Path(work, side)).ops
        for n in range(warmup + pairs):
            order = SIDES if n % 2 == 0 else SIDES[::-1]
            for i in range(len(ops["mine"])):
                for side in order:
                    op = ops[side][i]
                    outcome = op.run()
                    if not (outcome.ok or op.known_failure):
                        problems.append(f"{side} {op.name}: {outcome.detail}")
                    if n >= warmup:
                        times[side].setdefault(op.name, []).append(outcome.seconds)
    names = list(times["mine"])
    report = {"ops": {name: paired(times["mine"][name], times["parent"][name])
                      for name in names}}
    per_pass = {side: [sum(t) for t in zip(*times[side].values())] for side in SIDES}
    report["pass"] = paired(per_pass["mine"], per_pass["parent"])
    return report, problems


def run_setup(trees: dict[str, Path], pairs: int) -> dict:
    """Paired wall times of fresh interpreters importing each tree's cli and
    building its parser.  Each tree's package (without its bytecode) is
    copied into one of two sibling directories whose paths have the same
    length, and runs from there, so the pairs compare code and not where it
    lies; one unmeasured start per side byte-compiles both copies alike."""
    times = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as work:
        copies = {side: Path(work, f"tree{i}") for i, side in enumerate(SIDES)}
        for side, copy in copies.items():
            shutil.copytree(trees[side] / "src" / "gupsqueeze", copy / "src" / "gupsqueeze",
                            ignore=shutil.ignore_patterns("__pycache__"))
        for n in range(pairs + 1):
            for side in SIDES if n % 2 == 0 else SIDES[::-1]:
                env = {**os.environ, "PYTHONPATH": str(copies[side] / "src")}
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                               cwd=copies[side], check=True, stdout=subprocess.DEVNULL)
                if n:
                    times[side].append(time.perf_counter() - start)
    return paired(times["mine"], times["parent"])


def describe(name: str, result: dict) -> str:
    r = result["ratio"]
    return (f"{name}: ratio {r['median']:.4f} (quartiles {r['q1']:.4f}-{r['q3']:.4f}); "
            f"mine {result['mine_s']:.6g} s, parent {result['parent_s']:.6g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="the other tree (a checkout with a src/ directory)")
    parser.add_argument("--workload", nargs="+", default=None,
                        help="workloads to run (default: all of the benchmark's)")
    parser.add_argument("--pairs", type=int, default=100, help="timed pairs per workload")
    parser.add_argument("--warmup", type=int, default=10, help="untimed pairs first")
    parser.add_argument("--setup-pairs", type=int, default=10,
                        help="fresh-interpreter pairs for the set-up (0: none)")
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "gupsqueeze").is_dir():
        parser.error(f"no gupsqueeze package under {args.parent / 'src'}")
    if args.pairs < 1 or args.warmup < 0 or args.setup_pairs < 0:
        parser.error("--pairs must be >= 1, --warmup and --setup-pairs >= 0")
    trees = {"mine": ROOT, "parent": args.parent.resolve()}
    suites = {side: load_suite(load_tree(trees[side], f"gupsqueeze_ab_{side}"))
              for side in SIDES}
    workloads = args.workload or list(suites["mine"].BUILDERS)
    unknown = set(workloads) - set(suites["mine"].BUILDERS)
    if unknown:
        parser.error(f"no such workload: {', '.join(sorted(unknown))}")

    results: dict = {"seed": SEED, "pairs": args.pairs, "warmup": args.warmup,
                     "workloads": {}}
    problems = []
    for workload in workloads:
        report, failed = run_workload(suites, workload, args.pairs, args.warmup)
        results["workloads"][workload] = report
        problems += failed
        for name, result in report["ops"].items():
            print(describe(f"{workload} op {name}", result))
        print(describe(f"{workload} pass", report["pass"]))
    if args.setup_pairs:
        results["setup"] = run_setup(trees, args.setup_pairs)
        print(describe("setup", results["setup"]))
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(json.dumps(results))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
