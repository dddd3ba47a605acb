"""tools/ab_bench.py loads two trees into one interpreter as distinct
packages, each with the benchmark's suite bound to it, and times them in
pairs."""

import contextlib
import importlib.util
import io
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PREFIX = "gupsqueeze_ab_test_"  # the package names the tests load trees under


@pytest.fixture
def ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [name for name in sys.modules if name.startswith(PREFIX)]:
        del sys.modules[name]  # the two trees and their suites


@pytest.fixture
def other_tree(tmp_path):
    """A copy of this tree's package, as a parent checkout would hold it."""
    shutil.copytree(ROOT / "src" / "gupsqueeze", tmp_path / "src" / "gupsqueeze",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_two_trees_load_as_distinct_packages_with_identical_output(
        ab_bench, other_tree, tmp_path):
    import gupsqueeze
    mine = ab_bench.load_tree(ROOT, f"{PREFIX}mine")
    parent = ab_bench.load_tree(other_tree, f"{PREFIX}parent")
    assert sys.modules["gupsqueeze"] is gupsqueeze
    for package, root in ((mine, ROOT), (parent, other_tree)):
        assert package is not gupsqueeze
        assert package.cli.__name__ == f"{package.__name__}.cli"
        # relative imports resolved inside the package's own tree
        assert Path(package.cli.__file__).is_relative_to(root / "src")
        assert package.cli.analytic is package.analytic
    assert mine.cli is not parent.cli
    assert mine.boson_algebra._step_map is not parent.boson_algebra._step_map

    written = []
    for package in (mine, parent):
        out = tmp_path / f"{package.__name__}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert package.cli.main(["sweep", "--tau", "0,1,2", "--gamma", "0,1",
                                     "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1] and written[0].startswith(b"tau,")


def test_each_suite_runs_its_own_tree(ab_bench, other_tree):
    suites = {side: ab_bench.load_suite(ab_bench.load_tree(root, f"{PREFIX}{side}"))
              for side, root in (("mine", ROOT), ("parent", other_tree))}
    for side, suite in suites.items():
        assert suite.cli.__name__ == f"{PREFIX}{side}.cli"
        assert suite.analytic.__name__ == f"{PREFIX}{side}.analytic"
    report, problems = ab_bench.run_workload(suites, "exact_algebra", pairs=2, warmup=1)
    assert problems == []
    assert set(report["ops"]) == {"verify_bch", "ladder_taylor_check"}
    for result in (*report["ops"].values(), report["pass"]):
        ratio = result["ratio"]
        assert 0.0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
        assert result["mine_s"] > 0.0 and result["parent_s"] > 0.0


def test_setup_pairs_run_each_tree_from_its_own_like_copy(ab_bench, other_tree, monkeypatch):
    """Each side runs from a copy of its own package: the two copies are
    siblings with paths of equal length, and neither is the original tree."""
    (other_tree / "src" / "gupsqueeze" / "parent_marker").write_text("")
    runs = {"mine": [], "parent": []}  # (PYTHONPATH, cwd) of each start

    def record(argv, env, cwd, **kwargs):
        path = Path(env["PYTHONPATH"])
        side = "parent" if (path / "gupsqueeze" / "parent_marker").exists() else "mine"
        runs[side].append((path, Path(cwd)))

    monkeypatch.setattr(ab_bench.subprocess, "run", record)
    ab_bench.run_setup({"mine": ROOT, "parent": other_tree}, pairs=3)
    assert [len(r) for r in runs.values()] == [4, 4]  # an unmeasured start each first
    (mine,), (parent,) = (set(r) for r in runs.values())
    for path, cwd in (mine, parent):
        assert path == cwd / "src" and cwd not in (ROOT, other_tree)
        assert not cwd.exists()  # removed once the pairs ran
    assert mine[1] != parent[1] and mine[1].parent == parent[1].parent
    assert len(str(mine[1])) == len(str(parent[1]))
