"""Repo benchmark: time the ``train``, ``traffic`` and ``simulate`` workloads.

    python3 perfbench/run.py --workload train --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics (``wall_rel``, ``setup_s``, ``peak_rss_mb``; ``failed_frac`` is
``failed / attempted`` of the result line); ``--trace 1`` prints the
per-layer metrics of a traced run.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import COUNT_METRICS, TIME_METRICS  # noqa: E402
from workloads import SCRATCH, WORKLOADS  # noqa: E402

#: Hard cap on one run, below the 180 s the benchmark contract allows.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"wall_rel": "x", "setup_s": "s", "peak_rss_mb": "MB"}


PER_LAYER_UNITS = {
    **{name: "s" for name in TIME_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "formats.traffic_bytes": "B",
    "sim.cycles": "cycles",
    "sim.host_ns_per_cycle": "ns/cycle",
    "bench.wall_s": "s",
    "bench.probe_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s",
}


def _worker_env(root: Path) -> dict:
    # REPRO_* switches (checks, chaos, solver, worker count) would change
    # what is measured; every run sees the program's defaults.  A fixed hash
    # seed keeps set iteration order equal across the rep processes, and one
    # BLAS thread keeps the serial workloads on one core.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_worker(args_list, env, deadline) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("run budget exhausted before the worker started")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args_list],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _measure(args, env, deadline):
    """One fresh worker process per rep for ``--seconds``.  A rep starts
    only if one more rep as long as the last one still ends in time, so a
    run measures about ``--seconds`` whatever its rep length.  Traced runs
    alternate untraced and traced reps, starting untraced, and hold at
    least one of each."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    untraced, traced = [], []
    stop = time.monotonic() + args.seconds
    while True:
        trace = bool(args.trace) and len(untraced) > len(traced)
        start = time.monotonic()
        rep = _run_worker(common + ["--trace", str(int(trace))], env, deadline)
        (traced if trace else untraced).append(rep)
        last = time.monotonic() - start
        if time.monotonic() + last > stop and (not args.trace or traced):
            return untraced, traced


def _cross_rep_problems(untraced, traced):
    """Reps whose outputs differ from the first rep's (traced included), and
    traced reps whose counts differ from the first traced rep's."""
    reps = untraced + traced
    bad = [rep for rep in reps if rep["digest"] != reps[0]["digest"]]
    problems = [f"output digest {rep['digest']} != first rep's {reps[0]['digest']}" for rep in bad]
    if traced:
        first = [traced[0]["layers"][k] for k in COUNT_METRICS]
        for rep in traced[1:]:
            if [rep["layers"][k] for k in COUNT_METRICS] != first:
                bad.append(rep)
                problems.append("trace: counts differ between traced reps")
    return bad, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "analysis" / "experiments.py").is_file():
        print("error: run from the root of a repro checkout (src/repro not found)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        untraced, traced = _measure(args, _worker_env(root), deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root / SCRATCH, ignore_errors=True)

    wall = statistics.median(rep["wall_s"] for rep in untraced)
    if args.trace:
        values = {
            name: statistics.median(rep["layers"][name] for rep in traced)
            for name in traced[0]["layers"]
        }
        values["bench.wall_s"] = wall
        values["bench.probe_s"] = statistics.median(rep["probe_s"] for rep in untraced)
        values["bench.traced_wall_s"] = statistics.median(rep["wall_s"] for rep in traced)
        values["bench.trace_overhead_s"] = values["bench.traced_wall_s"] - wall
        units = PER_LAYER_UNITS
    else:
        values = {
            # Wall time in units of the speed probe timed around each report:
            # the shared host's speed drifts by up to 1.7x over tens of
            # seconds, and the ratio cancels most of that drift (README).
            "wall_rel": statistics.median(rep["wall_rel"] for rep in untraced),
            "setup_s": statistics.median(rep["setup_s"] for rep in untraced),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in untraced),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    reps = untraced + traced
    bad, problems = _cross_rep_problems(untraced, traced)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    failed += sum(rep["attempted"] - rep["failed"] for rep in {id(r): r for r in bad}.values())
    problems = [p for rep in reps for p in rep["problems"]] + problems

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  reps: {len(untraced)} untraced, {len(traced)} traced, each in a fresh process")
    probe = statistics.median(rep["probe_s"] for rep in untraced)
    print(f"  untraced wall {wall:.4f} s, speed probe {probe:.4f} s (medians over reps)")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_frac':28s} {failed / attempted:>16.6g} ({failed}/{attempted})")
    check = "stored reference" if reps[0]["reference"] else "invariants only"
    print(f"  output check: {check}; digest {reps[0]['digest']}")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
