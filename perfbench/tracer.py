"""Outside-in layer tracer: wraps the public calls of each ``repro`` layer
at runtime and records one span per call, in memory.

Nothing under ``src/`` is edited.  A function target is patched at every
module-level binding of the original object in any loaded ``repro``
module, so names bound by ``from ... import`` are wrapped too; a method
target is patched on its class and on every subclass that overrides it.
:meth:`Tracer.uninstall` restores each binding, and
:meth:`Tracer.check_removed` proves it did.

Self time of a span is its duration minus the durations of its direct
child spans.  The whole timed region runs under one root span whose self
time is reported as ``analysis.self_s`` (the unattributed remainder), so
the self times of all metrics sum to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = "analysis.self_s"


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_sweep(rec, args, kwargs, result):
    rec.add("sweep.cells", len(result.cells))
    rec.add("sweep.cells_failed", len(result.failures))


def _count_train(rec, args, kwargs, result):
    data = _arg(args, kwargs, 1, "data")
    rec.add("nn.samples", len(data[0]) * result.completed_epochs)


def _count_tsolver(rec, args, kwargs, result):
    rec.add("core.tsolver_blocks", len(result))


def _count_schedule(rec, args, kwargs, result):
    rec.add("hw.blocks", len(_arg(args, kwargs, 0, "costs")))


def _count_trace(rec, args, kwargs, result):
    rec.add("formats.segments", len(result))


def _count_traffic(rec, args, kwargs, result):
    rec.add("formats.traffic_bytes", result.fetched_bytes)
    # Invariant, checked by the traced run: a traffic report moves at least
    # the non-zero values it carries.
    if result.fetched_bytes < args[0].payload_bytes:
        rec.add("formats.below_payload", 1)


def _count_sim(rec, args, kwargs, result):
    rec.add("sim.cycles", result.cycles)


def _trace_metric(args, kwargs) -> str:
    encoded = args[0]
    orientation = _arg(args, kwargs, 1, "orientation") or encoded.orientation
    return "formats.trace_fwd_s" if orientation == "forward" else "formats.trace_t_s"


@dataclass(frozen=True)
class Target:
    """One wrapped public call: ``module:attr`` or ``module:Class.method``."""

    ref: str
    metric: Any  # str, or callable(args, kwargs) -> str
    counter: Optional[Callable] = None


#: Layer table: every wrapped call, the self-time metric its span feeds,
#: and the exact count it records.  The ``_*_cell`` sweep-cell bodies are
#: analysis code (they live beside their drivers), so their self time is
#: charged to the driver's metric rather than to ``sweep.self_s``.
E = "repro.analysis.experiments"
TARGETS: Tuple[Target, ...] = (
    Target(f"{E}:run_table1", "analysis.table1_s"),
    Target(f"{E}:_table1_cell", "analysis.table1_s"),
    Target(f"{E}:run_fig1_pareto", "analysis.fig1_s"),
    Target(f"{E}:run_scenarios", "analysis.scenarios_s"),
    Target(f"{E}:_scenario_cell", "analysis.scenarios_s"),
    Target(f"{E}:run_fig13_end2end", "analysis.fig13_s"),
    Target(f"{E}:_fig13_cell", "analysis.fig13_s"),
    Target(f"{E}:run_wide_oneshot", "analysis.wide_s"),
    Target(f"{E}:_wide_cell", "analysis.wide_s"),
    Target("repro.sweep.engine:run_sweep", "sweep.self_s", _count_sweep),
    Target("repro.runtime.cellcache:CellCache.write", "runtime.cache_write_s"),
    Target("repro.nn.layers:Conv2d.forward", "nn.conv2d.fwd_s"),
    Target("repro.nn.layers:Conv2d.backward", "nn.conv2d.bwd_s"),
    Target("repro.nn.layers:Linear.forward", "nn.linear.fwd_s"),
    Target("repro.nn.layers:Linear.backward", "nn.linear.bwd_s"),
    Target("repro.nn.layers:GELU.forward", "nn.gelu.fwd_s"),
    Target("repro.nn.layers:GELU.backward", "nn.gelu.bwd_s"),
    Target("repro.nn.layers:MultiHeadSelfAttention.forward", "nn.attention.fwd_s"),
    Target("repro.nn.layers:MultiHeadSelfAttention.backward", "nn.attention.bwd_s"),
    Target("repro.nn.layers:BatchNorm2d.forward", "nn.norm.fwd_s"),
    Target("repro.nn.layers:BatchNorm2d.backward", "nn.norm.bwd_s"),
    Target("repro.nn.layers:LayerNorm.forward", "nn.norm.fwd_s"),
    Target("repro.nn.layers:LayerNorm.backward", "nn.norm.bwd_s"),
    Target("repro.nn.train:train", "nn.train.self_s", _count_train),
    Target("repro.nn.train:evaluate", "nn.eval_s"),
    Target("repro.core.masks:make_mask", "core.mask_s"),
    Target("repro.core.sparsify:tbs_sparsify", "core.mask_s"),
    Target("repro.core.tsolvers:solve_blocks", "core.tsolver_s", _count_tsolver),
    Target("repro.core.tsolvers:solve_block", "core.tsolver_s"),
    Target("repro.workloads.generator:build_workload", "workloads.build_s"),
    Target("repro.workloads.models:build_model_workload", "workloads.build_s"),
    Target("repro.workloads.scenarios:build_scenario", "workloads.build_s"),
    Target("repro.formats.base:SparseFormat.encode", "formats.encode_s"),
    Target("repro.formats.base:EncodedMatrix.trace", _trace_metric, _count_trace),
    Target("repro.formats.memory_model:traffic_report", "formats.traffic_s", _count_traffic),
    Target("repro.formats.base:merge_contiguous", "formats.merge_s"),
    Target("repro.hw.scheduler:schedule_sparsity_aware", "hw.schedule_s", _count_schedule),
    Target("repro.hw.scheduler:schedule_direct", "hw.schedule_s", _count_schedule),
    Target("repro.hw.dvpe:DVPE.block_costs_batch", "hw.dvpe_s"),
    Target("repro.hw.energy:EnergyModel.report", "hw.energy_s"),
    Target("repro.sim.engine:simulate", "sim.self_s", _count_sim),
)

#: Span metric -> the count metric that reports its number of calls.
CALL_COUNTS = {
    "runtime.cache_write_s": "runtime.cache_writes",
    "workloads.build_s": "workloads.builds",
    "formats.encode_s": "formats.encodes",
    "sim.self_s": "sim.calls",
}

#: Every self-time metric, in report order (``analysis.self_s`` last).
TIME_METRICS: Tuple[str, ...] = tuple(
    dict.fromkeys(
        [t.metric for t in TARGETS if isinstance(t.metric, str)]
        + ["formats.trace_fwd_s", "formats.trace_t_s", ROOT]
    )
)

#: Every exact count the tracer records.
COUNT_METRICS: Tuple[str, ...] = (
    "sweep.cells",
    "sweep.cells_failed",
    "runtime.cache_writes",
    "nn.samples",
    "core.tsolver_blocks",
    "workloads.builds",
    "formats.encodes",
    "formats.segments",
    "formats.traffic_bytes",
    "hw.blocks",
    "sim.calls",
    "sim.cycles",
)


class Recorder:
    """In-memory span store: ``[metric, start, end, parent]`` per span."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.unbalanced = 0

    def open(self, metric: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([metric, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if not self.stack or self.stack.pop() != idx:
            self.unbalanced += 1

    def add(self, name: str, value: int) -> None:
        self.counts[name] += int(value)

    def balanced(self) -> bool:
        return self.unbalanced == 0 and not self.stack and all(s[2] is not None for s in self.spans)

    def self_times(self) -> Dict[str, float]:
        """Self time per metric: span duration minus its children's."""
        child = [0.0] * len(self.spans)
        for metric, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (metric, start, end, _) in enumerate(self.spans):
            out[metric] += (end - start) - child[i]
        return out

    def span_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out


def _resolve(ref: str):
    """``module:attr`` -> (owner, attr name, original object)."""
    mod_name, _, qual = ref.partition(":")
    owner: Any = importlib.import_module(mod_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Installs the wrappers of :data:`TARGETS` around one recorder."""

    def __init__(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.recorder = Recorder()
        self._patched: List[Tuple[Any, str, Any, Any]] = []  # owner, attr, orig, wrapper

    def _wrap(self, orig: Callable, target: Target) -> Callable:
        rec = self.recorder
        metric, counter = target.metric, target.counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = rec.open(metric if isinstance(metric, str) else metric(args, kwargs))
            try:
                result = orig(*args, **kwargs)
                if counter is not None:
                    counter(rec, args, kwargs, result)
                return result
            finally:
                rec.close(idx)

        return wrapper

    def _patch(self, owner, attr: str, orig, target: Target) -> None:
        wrapper = self._wrap(orig, target)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig, wrapper))

    def install(self) -> "Tracer":
        for target in self.targets:
            owner, attr, orig = _resolve(target.ref)
            if isinstance(owner, type):
                self._patch(owner, attr, orig, target)
                for sub in _subclasses(owner):
                    if attr in sub.__dict__:
                        self._patch(sub, attr, sub.__dict__[attr], target)
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, key, orig, target)
        return self

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._patched):
            setattr(owner, attr, orig)

    def check_removed(self) -> List[str]:
        """Bindings that still hold a wrapper (empty after uninstall)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, orig, _ in self._patched
            if (owner.__dict__ if isinstance(owner, type) else vars(owner)).get(attr) is not orig
        ]

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Every per-layer metric of one traced rep (self times and counts)."""
    times = rec.self_times()
    spans = rec.span_counts()
    out: Dict[str, float] = {name: times.get(name, 0.0) for name in TIME_METRICS}
    for name in COUNT_METRICS:
        out[name] = rec.counts.get(name, 0)
    for span_metric, count_name in CALL_COUNTS.items():
        out[count_name] = spans.get(span_metric, 0)
    # simulate() never nests, so its inclusive span time is a plain sum.
    sim_host_s = sum(end - start for metric, start, end, _ in rec.spans if metric == "sim.self_s")
    out["sim.host_ns_per_cycle"] = sim_host_s * 1e9 / out["sim.cycles"] if out["sim.cycles"] else 0.0
    return out
