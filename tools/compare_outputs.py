"""Compare what two source trees' command lines print and write.

Runs a fixed list of ``gupsqueeze`` commands, each in a fresh interpreter
and a fresh working directory, once against this tree's ``src`` and once
against ``--parent DIR``'s, and compares exit code, stdout, stderr and every
file the command leaves in its directory, byte for byte.  The list covers
the benchmark's inputs (sweeps at perfbench seeds 1-3, to a file and to
stdout; figures 1-3; uncertainty-check; oracle-compare at both amplitudes),
oracle-compare at a given ``--dim`` (certified, and one that only the
comparison at twice the dimension passes), in the vacuum, at 40 taus
(several slope chunks), at gamma 40 (certified near the 2048 cap), at taus
up to 1e11 and at gamma 46 (the coherent recursion's rescale, exit 2),
``preset``, figure 3 from a preset file, figure 1's default pair written
over files already there (so a staged file left beside them would show in
the listing), a sweep over a min/max/points axis, ``verify-bch
--max-order`` 1 (the least depth), 12, 35 (the benchmark's depth), 60, 1000
and 10000 (the cap, where the chain's integers are largest: coefficients far
past 64 bits, the chain streamed), and bad inputs that exit 2: out-of-range
options, SI units whose restoration factors are 0 or infinite, and a config
or preset that is not UTF-8.

    python tools/compare_outputs.py --parent ../parent-checkout
    python tools/compare_outputs.py --parent DIR --only preset_stdout verify_bch_12

Prints one line per command and exits 1 if any output differs, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
# a preset document for figure 3 other than the electron's
OSCILLATOR_PRESET = ("name = oscillator\nmass = 1.0\nomega = 2.0\nhbar = 1.0\nbeta = 0.001\n"
                     "gamma = 2.0\ntheta = 0.3\n")
# what `python -m gupsqueeze.cli` would run, without needing an install
ENTRY = "import sys; from gupsqueeze.cli import main; sys.exit(main(sys.argv[1:]))"


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    inputs: tuple[tuple[str, str | bytes], ...] = ()  # (file name, contents) written first


@dataclass(frozen=True)
class Result:
    code: int
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes]


def cases() -> list[Case]:
    """The command list, its seeded inputs drawn as the benchmark draws them."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.suite import closed_form_inputs, oracle_inputs

    out = []
    for seed in SEEDS:
        inp = closed_form_inputs(seed)
        config = (("sweep.cfg", inp["grid"].config_text()),)
        gamma = repr(inp["figure_gamma"])
        out += [
            Case(f"sweep_s{seed}_file", ("sweep", "--config", "sweep.cfg", "--jobs", "1",
                                         "--out", "sweep.csv"), config),
            Case(f"sweep_s{seed}_stdout", ("sweep", "--config", "sweep.cfg", "--out", "-"),
                 config),
            Case(f"uncertainty_s{seed}", ("uncertainty-check", *inp["uncertainty"])),
            Case(f"figure1_s{seed}", ("figure", "--id", "1", "--gamma", gamma,
                                      "--out", "fig1.csv")),
            Case(f"figure2_s{seed}", ("figure", "--id", "2", "--gamma", gamma,
                                      "--out", "fig2.csv")),
        ]
        for label, spec in oracle_inputs(seed).items():
            out.append(Case(f"oracle_{label}_s{seed}", (
                "oracle-compare", "--gamma", repr(spec["gamma"]), "--theta",
                repr(spec["theta"]), "--tau", *map(repr, spec["tau"]), "--out", "-")))
    return out + [
        Case("sweep_defaults", ("sweep",)),
        Case("sweep_probe", ("sweep", "--tau", "10.105263157894736", "--gamma", "3.0",
                             "--theta", "0.6666666666666666", "--g", "5.0", "--out", "-")),
        Case("figure1_default_gammas", ("figure", "--id", "1", "--out", "fig.csv")),
        Case("figure1_default_gammas_replace", ("figure", "--id", "1", "--out", "fig.csv"),
             (("fig_gamma1.csv", "an earlier table\n"),
              ("fig_gamma10.csv", "an earlier table\n"))),
        Case("figure2_stdout", ("figure", "--id", "2", "--gamma", "0", "--out", "-")),
        Case("figure3", ("figure", "--id", "3", "--out", "fig3.csv")),
        Case("figure3_stdout", ("figure", "--id", "3", "--tau-points", "50", "--out", "-")),
        Case("uncertainty_defaults", ("uncertainty-check",)),
        Case("oracle_defaults", ("oracle-compare", "--gamma", "1", "--theta", "0.785",
                                 "--out", "oracle.csv")),
        Case("oracle_dim", ("oracle-compare", "--gamma", "2", "--theta", "0.3",
                            "--dim", "60")),
        # the truncation bound (7.7e-4) does not certify dim 36, so the
        # audit runs its second pass at 72, and passes
        Case("oracle_uncertified_dim", ("oracle-compare", "--gamma", "2", "--theta", "0.3",
                                         "--dim", "36")),
        Case("oracle_vacuum", ("oracle-compare", "--gamma", "0")),
        Case("oracle_gamma40", ("oracle-compare", "--gamma", "40", "--theta", "1.1",
                                "--tau", "0.5", "2", "7")),
        Case("oracle_large_tau", ("oracle-compare", "--gamma", "1", "--theta", "0.4",
                                  "--tau", "1e8", "1e10", "1e11")),
        # 40 taus: 3 slope chunks at dim 229 (certified, so none at 458)
        Case("oracle_many_taus", ("oracle-compare", "--gamma", "9.95", "--theta", "2.4",
                                  "--tau", *(repr(0.1 * k) for k in range(1, 41)))),
        # the coherent recursion rescales by 2**-400 at n = 1324, at dim and 2 dim
        Case("oracle_rescale", ("oracle-compare", "--gamma", "46", "--dim", "2048",
                                "--tau", "1")),
        Case("preset_stdout", ("preset",)),
        Case("preset_file", ("preset", "--omega-reading", "cyclic", "--out", "preset.cfg")),
        Case("figure3_preset", ("figure", "--id", "3", "--preset", "osc.cfg", "--tau-points",
                                "40", "--out", "fig3.csv"),
             (("osc.cfg", OSCILLATOR_PRESET),)),
        Case("sweep_axis_triple", ("sweep", "--config", "triple.cfg", "--out", "sweep.csv"),
             (("triple.cfg", "tau_min = 0\ntau_max = 12\ntau_points = 7\ngamma = 0, 1.5\n"
                             "theta = 0.4\ng = 1e-4, 1e-2\n"),)),
        *(Case(f"verify_bch_{order}", ("verify-bch", "--max-order", order))
          for order in ("1", "12", "35", "60", "1000", "10000")),
        Case("bad_sweep_nan", ("sweep", "--tau", "nan", "--out", "bad.csv")),
        Case("bad_sweep_config", ("sweep", "--config", "missing.cfg")),
        Case("bad_figure_gamma", ("figure", "--id", "1", "--gamma=-1", "--out", "bad.csv")),
        Case("bad_figure3_gamma", ("figure", "--id", "3", "--gamma", "1", "--out", "bad.csv")),
        Case("bad_oracle_tol", ("oracle-compare", "--tol", "0")),
        Case("bad_uncertainty_tol", ("uncertainty-check", "--tol=-1")),
        Case("bad_oracle_dim_1", ("oracle-compare", "--dim", "1")),
        Case("bad_oracle_dim_2049", ("oracle-compare", "--dim", "2049")),
        Case("bad_verify_bch_order", ("verify-bch", "--max-order", "10001")),
        Case("bad_si_zero_m_omega", ("sweep", "--config", "si.cfg"),
             (("si.cfg", "tau = 1\nhbar = 1\nmass = 1e-200\nomega = 1e-200\n"),)),
        Case("bad_si_factors_out_of_range", ("sweep", "--config", "si.cfg"),
             (("si.cfg", "tau = 1\nhbar = 1e-200\nmass = 1e200\nomega = 1e200\n"),)),
        Case("bad_config_not_utf8", ("sweep", "--config", "bin.cfg"),
             (("bin.cfg", b"\xff\xfe"),)),
        Case("bad_preset_not_utf8", ("figure", "--id", "3", "--preset", "bin.cfg", "--out",
                                     "fig3.csv"), (("bin.cfg", b"\xff\xfe"),)),
    ]


def run_case(tree: Path, case: Case) -> Result:
    """Run one command against tree's src in a fresh directory."""
    with tempfile.TemporaryDirectory() as work:
        for name, contents in case.inputs:
            Path(work, name).write_bytes(
                contents if isinstance(contents, bytes) else contents.encode())
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        done = subprocess.run([sys.executable, "-c", ENTRY, *case.argv], cwd=work,
                              env=env, capture_output=True, timeout=600)
        files = {str(p.relative_to(work)): p.read_bytes()
                 for p in sorted(Path(work).rglob("*")) if p.is_file()}
    return Result(done.returncode, done.stdout, done.stderr, files)


def differences(mine: Result, theirs: Result) -> list[str]:
    """What differs between two results, one phrase per difference."""
    found = [name for name in ("code", "stdout", "stderr")
             if getattr(mine, name) != getattr(theirs, name)]
    for name in sorted(mine.files.keys() | theirs.files.keys()):
        if mine.files.get(name) != theirs.files.get(name):
            found.append(f"file {name}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="the other tree (a checkout with a src/ directory)")
    parser.add_argument("--only", nargs="+", default=None, metavar="NAME",
                        help="run only these commands, by name")
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "gupsqueeze").is_dir():
        parser.error(f"no gupsqueeze package under {args.parent / 'src'}")
    chosen = [case for case in cases() if args.only is None or case.name in args.only]
    unknown = set(args.only or ()) - {case.name for case in chosen}
    if unknown:
        parser.error(f"no such command: {', '.join(sorted(unknown))}")
    differing = 0
    for case in chosen:
        mine, theirs = run_case(ROOT, case), run_case(args.parent, case)
        diff = differences(mine, theirs)
        differing += bool(diff)
        print(f"{'DIFFERS' if diff else 'same'}  {case.name}  (exit {mine.code}"
              f"{', ' + ', '.join(diff) if diff else ''})")
    print(f"{len(chosen) - differing} of {len(chosen)} commands byte-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
