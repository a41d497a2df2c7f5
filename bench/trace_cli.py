"""Run the scorecast CLI with a span recorded around each layer's functions.

    python3 bench/trace_cli.py TRACE_JSON -- <scorecast arguments>

The functions named in LAYERS are replaced, in every scorecast module that
holds a reference to them, by a wrapper that records a span (name, start,
end, parent).  Spans stay in memory; when the command ends, their summary is
written to TRACE_JSON: per function the call count, total and self time
(total minus the time covered by child spans), the work units it handled,
and the single-call durations of ``simulation.run_sensitivity_cell``.
A function that no longer exists is listed under "absent".
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

# module -> functions wrapped at that layer boundary
LAYERS = {
    "cli": ("main", "_read_ensemble_csv"),
    "reporting": ("artifact_version", "write_csv", "write_json", "write_manifest"),
    "data": ("load_multivariate_csv", "make_rolling_splits"),
    "forecasters": ("sigma_sweep", "evaluate_dummy_on_splits", "make_dummy_forecast",
                    "ensemble_to_csv"),
    "multivariate": ("score_report", "crps_matrix", "crps_sum_series", "energy_series",
                     "energy_score"),
    "crps": ("crps_quantile", "crps_empirical_cdf", "crps_sample_estimate"),
    "simulation": ("run_sensitivity_grid", "run_sensitivity_cell", "_energy_batch",
                   "_crps_quantile_batch"),
}

# Work units of one call, from its arguments and result.
WORK = {
    "simulation._energy_batch": lambda a, r: a[0].shape[0] * a[0].shape[1] ** 2,  # pairs n*w^2
    "multivariate.energy_score": lambda a, r: np.shape(a[0])[0] ** 2,  # pairs S^2
    "forecasters.ensemble_to_csv": lambda a, r: int(np.size(a[0])),  # rows S*H*D
    "data.load_multivariate_csv": lambda a, r: r.values.shape[0],  # table rows
    "cli._read_ensemble_csv": lambda a, r: int(r.size),  # rows S*H*D
    "reporting.write_csv": lambda a, r: os.path.getsize(a[0]),  # bytes
    "reporting.write_json": lambda a, r: os.path.getsize(a[0]),
    "reporting.write_manifest": lambda a, r: os.path.getsize(a[0]),
}

TIMED_CALLS = ("simulation.run_sensitivity_cell",)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, work]
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every function of LAYERS; returns the names not found."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "scorecast" or key.startswith("scorecast."))]
        absent = []
        for layer, names in LAYERS.items():
            module = sys.modules[f"scorecast.{layer}"]
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    absent.append(f"{layer}.{fname}")
                    continue
                traced = self.wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, traced)
        return absent

    def summary(self) -> dict:
        functions: dict[str, dict] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        for (name, start, end, parent, work), children in zip(self.spans, child_time):
            if end is None:
                continue
            f = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
            f["calls"] += 1
            f["total_s"] += end - start
            f["self_s"] += end - start - children
            f["work"] += work
            if name in TIMED_CALLS:
                f.setdefault("durations_s", []).append(end - start)
        return {"functions": functions}


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: trace_cli.py TRACE_JSON -- <scorecast arguments>", file=sys.stderr)
        return 2
    import scorecast.cli

    tracer = Tracer()
    absent = tracer.install()
    code = 1
    try:
        code = scorecast.cli.main(sys.argv[3:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.summary() | {"absent": absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
