"""Compare the report and dump bytes of two source trees.

    python tools/compare_reports.py PARENT CHANGE

Runs one fixed set of CLI commands with each tree's ``src`` on the import
path (``OPENBLAS_NUM_THREADS=1``), and compares every file they write except
``run_manifest.json``, which records times.  Both trees write into the same
``--out`` directories, since every report echoes its ``--out``.  Prints one
line per file and exits 1 if any file differs or is missing on one side.

The input table is synthetic and written here: 7588 x 8 values
``1.5 + 0.3 sin(0.05 t + d) + 0.01 eps``, eps standard normal from seed 0,
the size of the exchange-rate table.  The observations of ``score`` are the
target window of the dumped split 0.
"""
from __future__ import annotations

import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROWS, DIMS, HORIZON = 7588, 8, 30
DUMP_SPLITS = 4
SWEEP = ["--samples", "400", "--batches", "5", "--sigmas", "1e-2,1e-4,1e-9,1e-20"]


def runs(table: Path, obs: Path) -> dict[str, list[str]]:
    """Each run's ``--out`` name and its arguments, in the order they run."""
    data = ["--data", str(table)]
    commands = {
        "sensitivity": ["sensitivity", "--n-windows", "64", "--window-size", "128",
                        "--seed", "0"],
        "eval-dump": ["exchange-eval", *data, "--kind", "multi", "--sigma", "0.01",
                      "--samples", "200", "--batches", str(DUMP_SPLITS), "--dump-samples"],
        "eval-uni": ["exchange-eval", *data, "--kind", "uni", "--normalize", "raw",
                     "--estimator", "sample"],
        "sweep-multi": ["sigma-sweep", *data, *SWEEP],
        "sweep-uni": ["sigma-sweep", *data, *SWEEP, "--kind", "uni", "--estimator", "ecdf"],
        "convergence": ["convergence"],
    }
    for estimator in ("ecdf", "quantile", "sample"):
        for beta in ("1", "1.5"):
            for normalize in ("raw", "target"):
                commands[f"score-{estimator}-{beta}-{normalize}"] = [
                    "score", "--ensemble", "eval-dump/samples_split_0.csv", "--obs", str(obs),
                    "--estimator", estimator, "--beta", beta, "--normalize", normalize,
                ]
    return commands


def write_inputs(directory: Path) -> tuple[Path, Path]:
    """The synthetic table and split 0's target window, as headerless CSV."""
    t = np.arange(ROWS)[:, None]
    d = np.arange(DIMS)[None, :]
    eps = np.random.default_rng(0).standard_normal((ROWS, DIMS))
    values = 1.5 + 0.3 * np.sin(0.05 * t + d) + 0.01 * eps
    start = ROWS - DUMP_SPLITS * HORIZON
    paths = directory / "table.csv", directory / "obs.csv"
    for path, rows in zip(paths, (values, values[start:start + HORIZON])):
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in rows)
    return paths


def run_tree(tree: Path, out: Path, commands: dict[str, list[str]]) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), OPENBLAS_NUM_THREADS="1")
    out.mkdir()
    for name, args in commands.items():
        argv = [sys.executable, "-m", "scorecast", *args, "--out", name]
        proc = subprocess.run(argv, cwd=out, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{tree}: {' '.join(args)} failed:\n{proc.stderr}")


def files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*")
            if p.is_file() and p.name != "run_manifest.json"}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    parent, change = map(Path, argv)
    with tempfile.TemporaryDirectory(prefix="compare_reports-") as tmp:
        tmp = Path(tmp)
        commands = runs(*write_inputs(tmp))
        sides = []
        for tree, side in ((parent, tmp / "parent"), (change, tmp / "change")):
            run_tree(tree, tmp / "out", commands)
            sides.append((tmp / "out").rename(side))
        before, after = map(files, sides)
        bad = 0
        for name in sorted(before | after):
            if name not in before or name not in after:
                status = "missing in " + ("parent" if name not in before else "change")
            elif filecmp.cmp(sides[0] / name, sides[1] / name, shallow=False):
                status = "identical"
            else:
                status = "differs"
            bad += status != "identical"
            print(f"{status:<17} {name}")
        print(f"{len(before | after) - bad} identical, {bad} not")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
