"""One benchmark process: set up, run one timed rep of a workload, check it.

Every rep runs in a fresh process, like a fresh ``repro report``, so heap
state and peak memory do not carry over between reps.  Started by
``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``;
prints one JSON object on its last stdout line.  Run by hand to
regenerate a stored reference (only on purpose, with a CHANGES.md note):

    PYTHONPATH=src python3 perfbench/worker.py --workload train --seed 0 --write-reference
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from workloads import SCRATCH, WORKLOADS  # noqa: E402

#: Iterations of the speed probe, about 0.2-0.3 s on a 2-vCPU x86-64 VM.
PROBE_LOOPS = 2_000_000


def _setup(workload_name: str):
    """Import the report drivers and pick the workload.

    Set-up is import time only.  The public drivers take a seed, not
    inputs, and derive datasets, weights and masks from it inside the
    timed region, as ``repro report`` does, so input generation is part
    of the timed wall time.
    """
    import repro.analysis.experiments as experiments

    return experiments, WORKLOADS[workload_name]


def _probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host runs the
    interpreter right now.  It is benchmark code, so no change to the
    program moves it; each report's wall time is divided by it."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(PROBE_LOOPS):
        table[i & 1023] = i
        acc += i ^ 5
    return time.perf_counter() - start


def _run_rep(experiments, workload, seed, scratch, recorder=None):
    """One cold timed rep: ``(wall seconds, wall_rel, probe seconds,
    outputs, errors)``.

    Cold like a fresh ``repro report`` process: the block-cost memo is
    cleared and the sweep cell cache, if used, is a new empty directory.
    The speed probe runs before each report and after the last one,
    outside the timed parts; ``wall_rel`` sums each report's time divided
    by the mean of the two probes around it, so a host that slows down
    between reports is tracked report by report.  With ``recorder``, each
    report runs under a root span of the tracer and its time is that
    span's duration.
    """
    from repro.sim.engine import clear_cost_memo

    from tracer import ROOT

    clear_cost_memo()
    cache_dir = tempfile.mkdtemp(prefix="cells-", dir=scratch) if workload.uses_cache else None
    gc.collect()
    outputs, errors, times = {}, {}, []
    probes = [_probe()]
    for name, fn in workload.reports:
        start = time.perf_counter()
        root = recorder.open(ROOT) if recorder is not None else None
        try:
            outputs[name] = fn(experiments, seed, cache_dir)
        except Exception as exc:  # noqa: BLE001 - a failed report is counted, not fatal
            errors[name] = f"{type(exc).__name__}: {exc}"
        finally:
            if root is not None:
                recorder.close(root)
        elapsed = time.perf_counter() - start
        if root is not None:
            span = recorder.spans[root]
            elapsed = span[2] - span[1]
        times.append(elapsed)
        probes.append(_probe())
    if cache_dir is not None:
        shutil.rmtree(cache_dir, ignore_errors=True)
    rel = sum(t / ((a + b) / 2) for t, a, b in zip(times, probes, probes[1:]))
    return sum(times), rel, statistics.median(probes), outputs, errors


def _check_outputs(outputs, errors, reference):
    """Per-report problems of one rep: invariants, plus ``reference`` if any."""
    import check

    problems = {name: [err] for name, err in errors.items()}
    flats = {}
    for name, output in outputs.items():
        flat = check.flatten(output)
        flats[name] = flat
        found = check.invariants(name, output)
        if reference is not None:
            found += check.compare(name, flat, reference[name])
        if found:
            problems[name] = found
    return flats, problems


def _self_check(workload, tracer, wall):
    """The traced rep's self-checks; returns (layer metrics, problems).

    ``run.py`` checks the rest across processes: traced outputs equal the
    untraced ones, and counts repeat exactly between traced reps.
    """
    from tracer import layer_metrics

    rec = tracer.recorder
    problems = []
    if not rec.balanced():
        problems.append("trace: spans do not balance")
    left = tracer.check_removed()
    if left:
        problems.append(f"trace: wrappers left installed: {left}")
    times = rec.self_times()
    if abs(sum(times.values()) - wall) > 1e-6 * wall + 1e-6:
        problems.append(f"trace: self times sum to {sum(times.values())} != wall {wall}")
    spans = rec.span_counts()
    missing = [m for m in workload.homes if not spans.get(m)]
    if missing:
        problems.append(f"trace: home layers recorded no call: {missing}")
    if rec.counts.get("formats.below_payload"):
        problems.append(
            f"trace: {rec.counts['formats.below_payload']} traffic reports fetched fewer "
            "bytes than the non-zero values they carry"
        )
    return layer_metrics(rec), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    experiments, workload = _setup(args.workload)
    setup_s = time.perf_counter() - _T0
    os.makedirs(SCRATCH, exist_ok=True)

    import check
    from tracer import Tracer

    tracer = Tracer().install() if args.trace else None
    try:
        wall, rel, probe_s, outputs, errors = _run_rep(
            experiments, workload, args.seed, SCRATCH,
            recorder=tracer.recorder if tracer is not None else None,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    reference = None if args.write_reference else check.load_reference(args.workload, args.seed)
    flats, problems = _check_outputs(outputs, errors, reference)

    if args.write_reference:
        if problems:
            print(json.dumps(problems), file=sys.stderr)
            return 1
        path = check.reference_path(args.workload, args.seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(flats, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
        return 0

    failed = set(problems)
    result = {"setup_s": setup_s, "wall_s": wall, "wall_rel": rel, "probe_s": probe_s}
    if tracer is not None:
        result["layers"], trace_problems = _self_check(workload, tracer, wall)
        if trace_problems:
            failed = {name for name, _ in workload.reports}
            problems["trace"] = trace_problems
    result.update(
        {
            "attempted": len(workload.reports),
            "failed": len(failed),
            "problems": [p for found in problems.values() for p in found][:20],
            "reference": reference is not None,
            "digest": check.digest(flats),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
