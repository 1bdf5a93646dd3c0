"""The benchmark's workloads: which public report drivers each one runs,
at which pinned size, and which layers must show work when it is traced.

Every driver runs with ``workers=1`` (the serial executor), so the whole
workload runs in the measuring process.  Inputs come only from the
workload seed, passed to the drivers as ``seed=``/``seeds=``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

#: Scratch directory, relative to the checkout root, for per-rep cell
#: caches; ``run.py`` removes it when the run ends.
SCRATCH = ".perfbench_tmp"


@dataclass(frozen=True)
class Workload:
    #: Report name -> driver call ``(experiments_module, seed, cache_dir)``.
    reports: Tuple[Tuple[str, Callable[[Any, int, str], Any]], ...]
    #: Per-layer span metrics that must record at least one call on this
    #: workload (the layers it is the home of).
    homes: Tuple[str, ...]
    #: Whether each timed rep gets a fresh sweep cell-cache directory.
    uses_cache: bool = False


def _table1(E, seed, cache_dir):
    return E.run_table1(
        tasks=(("cnn", 0.75), ("mlp", 0.75)), seeds=(seed,), epochs=1, workers=1
    )


def _fig1(E, seed, cache_dir):
    return E.run_fig1_pareto(seeds=(seed,), sparsities=(0.75,), epochs=1)


def _scenarios(E, seed, cache_dir):
    return E.run_scenarios(seed=seed, scale=32, workers=1)


def _fig13(E, seed, cache_dir):
    return E.run_fig13_end2end(scale=16, seed=seed, workers=1, cache_dir=cache_dir)


def _wide(E, seed, cache_dir):
    return E.run_wide_oneshot(scale=8, seed=seed, workers=1, cache_dir=cache_dir)


_NN = tuple(
    f"nn.{layer}.{pass_}_s"
    for layer in ("conv2d", "linear", "gelu", "attention", "norm")
    for pass_ in ("fwd", "bwd")
)

#: Workload name -> workload.  Why each one exists is written in
#: ``BENCHMARK.json`` and ``README.md``.
WORKLOADS: Dict[str, Workload] = {
    "train": Workload(
        reports=(("table1", _table1), ("fig1", _fig1)),
        homes=("analysis.table1_s", "analysis.fig1_s", "sweep.self_s")
        + _NN
        + ("nn.train.self_s", "nn.eval_s", "core.mask_s"),
    ),
    "traffic": Workload(
        reports=(("scenarios", _scenarios),),
        homes=(
            "analysis.scenarios_s",
            "sweep.self_s",
            "workloads.build_s",
            "formats.encode_s",
            "formats.trace_fwd_s",
            "formats.trace_t_s",
            "formats.traffic_s",
            "formats.merge_s",
        ),
    ),
    "simulate": Workload(
        reports=(("fig13", _fig13), ("wide", _wide)),
        homes=(
            "analysis.fig13_s",
            "analysis.wide_s",
            "sweep.self_s",
            "runtime.cache_write_s",
            "core.tsolver_s",
            "workloads.build_s",
            "formats.encode_s",
            "hw.schedule_s",
            "hw.dvpe_s",
            "hw.energy_s",
            "sim.self_s",
        ),
        uses_cache=True,
    ),
}
