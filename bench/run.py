"""Benchmark of the scorecast CLI on three workloads.

    python3 bench/run.py --workload {grid,sweep,roundtrip} --seed N --seconds S --trace {0,1}

Run from the root of a scorecast checkout; the package is taken from its
``src`` directory and nowhere else.  The benchmark makes the workload's inputs
from ``--seed`` (the program gets only those files and its own ``--seed``),
then repeats whole rounds of the workload's CLI invocations, one child process
at a time, for about ``--seconds`` seconds.  After every round, untimed, it
checks each report against values computed in ``checks.py`` without
scorecast.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` rounds alternate between the plain CLI and the CLI under
``trace_cli.py``, and the metrics are the per-layer ones.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

# grid: the full 11 x 21 (rho, varrho) grid at the desk ensemble size.
RHO = tuple(round(-1.0 + 0.2 * k, 10) for k in range(11))
VARRHO = tuple(round(-1.0 + 0.1 * k, 10) for k in range(21))
GRID_WINDOWS, GRID_MEMBERS = 64, 128

# sweep and roundtrip: a synthetic stand-in for the 7588 x 8 exchange-rate table.
TABLE_ROWS, TABLE_DIMS = 7588, 8
HORIZON, INPUT_LENGTH = 30, 30
SWEEP_SAMPLES, SWEEP_BATCHES = 400, 5
SWEEP_SIGMAS = ("1e-2", "1e-6", "1e-12", "1e-20")
ROUNDTRIP_SAMPLES, ROUNDTRIP_BATCHES, ROUNDTRIP_SIGMA = 200, 4, "0.01"
WIDE_SHAPE = (2000, 3, TABLE_DIMS)
ESTIMATORS = ("ecdf", "quantile", "sample")

SETUP_PROBES = 10  # at least this many per run, two before each round
# A fresh interpreter's fixed cost before scoring: import the CLI, resolve the
# report version (a `git describe` subprocess) and load the input table.
SETUP_PROBE = (
    "import sys, scorecast.cli\n"
    "from scorecast import data, reporting\n"
    "reporting.artifact_version()\n"
    "if len(sys.argv) > 1:\n"
    "    data.load_multivariate_csv(sys.argv[1])\n"
)


@dataclass
class Op:
    """One CLI invocation of a round and the check of its output."""

    args: list[str]
    check: Callable[[], None]


@dataclass
class Plan:
    ops: list[Op]
    values_scored: int  # ensemble values one round scores
    table: Optional[Path]  # the input table the CLI loads, if any


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    failed: int
    wrong: int
    traces: list[dict]


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # One BLAS thread per child: run.py waits while one child runs, so one
    # process is busy at a time, and worker processes that the program may
    # start do not compete with BLAS threads for the 2 cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, os.struct_rusage]:
    """Run one child to its end; returns (exit code, wall s, its rusage)."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=fh,
                                stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


# --------------------------------------------------------------------------
# inputs and workloads
# --------------------------------------------------------------------------

def write_rows(path: Path, values: np.ndarray) -> None:
    """Headerless CSV with shortest round-trip floats."""
    with open(path, "w", encoding="ascii") as fh:
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def make_table(seed: int) -> np.ndarray:
    """Slow sinusoids around 1.5 plus small noise, as the test suite's
    synthetic series, at the exchange-rate table's size."""
    gen = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0)))
    t = np.arange(TABLE_ROWS)[:, None]
    phases = np.linspace(0.0, 2.1, TABLE_DIMS)[None, :]
    return 1.5 + 0.3 * np.sin(0.05 * t + phases) + 0.01 * gen.standard_normal((TABLE_ROWS, TABLE_DIMS))


def plan_grid(seed: int, work: Path) -> Plan:
    out = work / "round" / "sensitivity"
    args = ["sensitivity", "--seed", str(seed), "--n-windows", str(GRID_WINDOWS),
            "--window-size", str(GRID_MEMBERS), "--out", str(out)]
    check = lambda: checks.check_grid(out, RHO, VARRHO, GRID_WINDOWS, GRID_MEMBERS, seed)
    return Plan([Op(args, check)], len(RHO) * len(VARRHO) * GRID_WINDOWS * GRID_MEMBERS * 2, None)


def plan_sweep(seed: int, work: Path) -> Plan:
    table = make_table(seed)
    path = work / "table.csv"
    write_rows(path, table)
    windows = checks.tail_windows(table, SWEEP_BATCHES, HORIZON, INPUT_LENGTH)
    closed_form = checks.persistence_closed_form(windows)
    sigmas = [float(s) for s in SWEEP_SIGMAS]
    expectation = checks.SweepExpectation(windows, SWEEP_SAMPLES, seed)

    out = work / "round" / "sigma-sweep"
    args = ["sigma-sweep", "--data", str(path), "--kind", "multi", "--sigmas", ",".join(SWEEP_SIGMAS),
            "--samples", str(SWEEP_SAMPLES), "--batches", str(SWEEP_BATCHES),
            "--horizon", str(HORIZON), "--input-length", str(INPUT_LENGTH),
            "--seed", str(seed), "--out", str(out)]

    check = lambda: checks.check_sweep(out, sigmas, expectation, closed_form)
    scored = len(sigmas) * SWEEP_BATCHES * SWEEP_SAMPLES * HORIZON * TABLE_DIMS
    return Plan([Op(args, check)], scored, path)


def plan_roundtrip(seed: int, work: Path) -> Plan:
    sys.path.insert(0, str(SRC))
    from scorecast.forecasters import ensemble_to_csv

    table = make_table(seed)
    path = work / "table.csv"
    write_rows(path, table)
    windows = checks.tail_windows(table, ROUNDTRIP_BATCHES, HORIZON, INPUT_LENGTH)
    inputs = []  # (ensemble csv, its array or None for a dump, obs csv, obs)
    round_dir = work / "round"
    for k, (_, target) in enumerate(windows):
        obs = work / f"target_{k}.csv"
        write_rows(obs, target)
        inputs.append((round_dir / "exchange-eval" / f"samples_split_{k}.csv", None, obs, target))
    gen = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 1)))
    wide = table[-WIDE_SHAPE[1] - 1] + 0.05 * gen.standard_normal(WIDE_SHAPE)
    wide_obs = table[-WIDE_SHAPE[1]:]
    ensemble_to_csv(wide, work / "wide.csv")
    write_rows(work / "wide_obs.csv", wide_obs)
    inputs.append((work / "wide.csv", wide, work / "wide_obs.csv", wide_obs))

    eval_out = round_dir / "exchange-eval"
    ops = [Op(
        ["exchange-eval", "--data", str(path), "--kind", "multi", "--sigma", ROUNDTRIP_SIGMA,
         "--samples", str(ROUNDTRIP_SAMPLES), "--batches", str(ROUNDTRIP_BATCHES),
         "--horizon", str(HORIZON), "--input-length", str(INPUT_LENGTH),
         "--seed", str(seed), "--dump-samples", "--out", str(eval_out)],
        lambda: checks.check_exchange_eval(eval_out, windows, ROUNDTRIP_SAMPLES),
    )]
    for i, (ens_path, ens, obs_path, obs) in enumerate(inputs):
        estimator = ESTIMATORS[i % len(ESTIMATORS)]
        out = round_dir / f"score_{i}"

        def check(ens_path=ens_path, ens=ens, obs=obs, estimator=estimator, out=out, i=i) -> None:
            if ens is None:
                ens = checks.read_dump(ens_path, (ROUNDTRIP_SAMPLES,) + obs.shape)
            checks.check_score(out, ens, obs, estimator, f"roundtrip: score_{i}")

        ops.append(Op(["score", "--ensemble", str(ens_path), "--obs", str(obs_path),
                       "--estimator", estimator, "--out", str(out)], check))

    split_values = ROUNDTRIP_BATCHES * ROUNDTRIP_SAMPLES * HORIZON * TABLE_DIMS
    scored = 2 * split_values + int(np.prod(WIDE_SHAPE))
    return Plan(ops, scored, path)


PLANS = {"grid": plan_grid, "sweep": plan_sweep, "roundtrip": plan_roundtrip}


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def run_round(plan: Plan, work: Path, traced: bool) -> Round:
    """Run every op of the plan once, timed; then check the outputs, untimed."""
    round_dir = work / "round"
    shutil.rmtree(round_dir, ignore_errors=True)
    round_dir.mkdir(parents=True)
    codes, traces = [], []
    wall = cpu = peak = 0.0
    for i, op in enumerate(plan.ops):
        if traced:
            trace = round_dir / f"trace_{i}.json"
            argv = [sys.executable, str(BENCH / "trace_cli.py"), str(trace), "--", *op.args]
        else:
            argv = [sys.executable, "-m", "scorecast", *op.args]
        code, seconds, usage = spawn(argv, work / "children.log")
        codes.append(code)
        wall += seconds
        cpu += usage.ru_utime + usage.ru_stime
        peak = max(peak, usage.ru_maxrss / 1024.0)  # KiB on Linux
        if traced and trace.exists():
            traces.append(json.loads(trace.read_text(encoding="utf-8")))
    wrong = 0
    for code, op in zip(codes, plan.ops):
        if code != 0:
            continue
        try:
            op.check()
        except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
            wrong += 1
            print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    print(f"round: {'traced' if traced else 'plain'} wall {wall:.3f} s cpu {cpu:.3f} s "
          f"rss {peak:.1f} MB failed {sum(c != 0 for c in codes)} wrong {wrong}", file=sys.stderr)
    return Round(wall, cpu, peak, sum(code != 0 for code in codes), wrong, traces)


def probe_setup(plan: Plan, work: Path) -> float:
    argv = [sys.executable, "-c", SETUP_PROBE] + ([str(plan.table)] if plan.table else [])
    code, seconds, _ = spawn(argv, work / "children.log")
    print(f"setup probe: {seconds:.3f} s", file=sys.stderr)
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}; see {work / 'children.log'}")
    return seconds


def layer_metrics(names: list[dict], rounds: list[Round], plain: list[Round]) -> dict:
    """Per-layer metrics from the traced rounds (medians over rounds)."""
    absent = {name for r in rounds for t in r.traces for name in t.get("absent", [])}

    def per_round(r: Round, fn: str) -> dict:
        total = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "durations_s": []}
        for t in r.traces:
            f = t["functions"].get(fn, {})
            for key in total:
                total[key] += f.get(key, type(total[key])())
        return total

    out = {}
    for spec in names:
        name = spec["name"]
        if name == "trace.overhead_s":
            value = (statistics.median(r.wall_s for r in rounds)
                     - statistics.median(r.wall_s for r in plain))
        elif name == "process.cpu_s":
            value = statistics.median(r.cpu_s for r in plain)
        elif name == "reporting.bytes_written":
            value = statistics.median(
                sum(per_round(r, f"reporting.{w}")["work"] for w in ("write_csv", "write_json", "write_manifest"))
                for r in rounds)
        else:
            fn, stat = name.rsplit(".", 1)
            if fn in absent:
                value = None
            elif stat == "p95_s":
                durations = [d for r in rounds for d in per_round(r, fn)["durations_s"]]
                value = float(np.percentile(durations, 95)) if durations else 0.0
            elif stat.endswith("_per_s"):
                stats = [per_round(r, fn) for r in rounds]
                value = statistics.median(s["work"] / s["total_s"] if s["total_s"] > 0 else 0.0
                                          for s in stats)
            else:
                value = statistics.median(per_round(r, fn)[stat] for r in rounds)
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind so that spawn() kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "scorecast" / "cli.py").is_file():
        print(f"error: no scorecast sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = PLANS[args.workload](args.seed, work)
    probe_setup(plan, work)  # untimed: byte-compiles the sources, warms the file cache

    deadline = time.perf_counter() + args.seconds
    plain: list[Round] = []
    traced: list[Round] = []
    setups: list[float] = []
    while True:
        started = time.perf_counter()
        if not args.trace:
            setups += [probe_setup(plan, work), probe_setup(plan, work)]
        plain.append(run_round(plan, work, traced=False))
        if args.trace:
            traced.append(run_round(plan, work, traced=True))
        # Start another round only if one more of this length fits.
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    while not args.trace and len(setups) < SETUP_PROBES:
        setups.append(probe_setup(plan, work))

    rounds = plain + traced
    attempted = len(rounds) * len(plan.ops)
    failed = sum(r.failed for r in rounds)
    correct = all(r.wrong == 0 for r in rounds)
    if args.trace:
        metrics = layer_metrics(spec["per_layer"], traced, plain)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        wall = statistics.median(r.wall_s for r in plain)
        values = {
            "wall_s": wall,
            "samples_scored_per_s": plan.values_scored / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r.peak_rss_mb for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    if correct and failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    else:
        print(f"outputs kept in {work}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
