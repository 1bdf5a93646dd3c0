"""Cycle-level DRAM model (the Ramulator / DRAMPower stand-in).

Bandwidth is the paper's first-order constraint (64 GB/s baseline,
swept in Fig. 15(c)).  The model charges:

* streaming transfer time: ``fetched_bytes / bytes_per_cycle``;
* a per-burst command overhead for non-contiguous traffic, so traces
  with many short bursts (CSR-style) cannot reach peak bandwidth even
  when the byte count is small;
* a fixed access latency for the first beat of the tensor.

Energy follows DRAMPower's activate + read/write decomposition,
simplified to per-burst activation plus per-byte transfer costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..formats.base import Trace
from ..formats.memory_model import TrafficReport

__all__ = [
    "DRAMModel",
    "DRAMResult",
    "TransactionFaultModel",
    "PerturbedTrace",
    "perturb_trace",
]


@dataclass(frozen=True)
class DRAMResult:
    """Timing and energy of one tensor transfer."""

    cycles: int
    fetched_bytes: float
    energy_pj: float
    effective_bandwidth_fraction: float


class DRAMModel:
    """A bandwidth/latency/energy model for one memory channel."""

    def __init__(
        self,
        bandwidth_gbs: float = 64.0,
        frequency_ghz: float = 1.0,
        burst_bytes: int = 32,
        first_access_latency: int = 40,
        per_burst_overhead_cycles: float = 0.25,
        activate_pj: float = 80.0,
        byte_pj: float = 4.0,
    ):
        if bandwidth_gbs <= 0 or frequency_ghz <= 0:
            raise ValueError("bandwidth and frequency must be positive")
        self.bandwidth_gbs = bandwidth_gbs
        self.frequency_ghz = frequency_ghz
        self.burst_bytes = burst_bytes
        self.first_access_latency = first_access_latency
        self.per_burst_overhead_cycles = per_burst_overhead_cycles
        self.activate_pj = activate_pj
        self.byte_pj = byte_pj

    @property
    def bytes_per_cycle(self) -> float:
        return self.bandwidth_gbs / self.frequency_ghz

    def transfer(self, nbytes: float, num_bursts: int = 1, contiguous: bool = True) -> DRAMResult:
        """Timing/energy of moving ``nbytes`` split into ``num_bursts``.

        Contiguous streams hide the per-burst overhead behind the data
        transfer; scattered traces pay it serially.
        """
        if nbytes < 0 or num_bursts < 0:
            raise ValueError("negative transfer size")
        if nbytes == 0:
            return DRAMResult(0, 0.0, 0.0, 1.0)
        stream_cycles = nbytes / self.bytes_per_cycle
        overhead = 0.0 if contiguous else num_bursts * self.per_burst_overhead_cycles
        cycles = int(math.ceil(stream_cycles + overhead)) + self.first_access_latency
        energy = num_bursts * self.activate_pj + nbytes * self.byte_pj
        ideal = nbytes / self.bytes_per_cycle
        fraction = min(1.0, ideal / max(1e-9, cycles - self.first_access_latency))
        return DRAMResult(cycles, nbytes, energy, fraction)

    def transfer_report(self, report: TrafficReport) -> DRAMResult:
        """Transfer an encoded matrix given its traffic analysis."""
        contiguous = report.num_segments <= max(1, report.num_bursts // 8)
        return self.transfer(report.fetched_bytes, report.num_bursts, contiguous)


# ---------------------------------------------------------------------------
# Transaction-level fault injection (repro.faults campaigns)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransactionFaultModel:
    """Per-transaction fault probabilities for a consumption trace.

    ``p_drop``     -- the transaction never completes (its bytes are
                      missing; a DMA byte counter catches the shortfall);
    ``p_duplicate``-- the transaction is replayed (data intact, but the
                      bus carries it twice -- pure bandwidth/energy waste);
    ``p_corrupt``  -- the transaction completes with flipped payload bits
                      (in-flight corruption past any storage-side ECC).
    """

    p_drop: float = 0.0
    p_duplicate: float = 0.0
    p_corrupt: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_drop", "p_duplicate", "p_corrupt"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")


@dataclass
class PerturbedTrace:
    """A consumption trace after transaction faults were applied."""

    segments: Trace
    dropped: Trace
    duplicated: Trace
    corrupted: Trace

    @property
    def delivered_bytes(self) -> int:
        return int(self.segments.nbytes.sum())

    @property
    def missing_bytes(self) -> int:
        return int(self.dropped.nbytes.sum())

    def length_check_fails(self, expected_bytes: int) -> bool:
        """Would a DMA byte-counter check flag this transfer?

        Duplicates overwrite their own buffer region, so only *missing*
        bytes trip the counter -- exactly like real descriptor-completion
        accounting.
        """
        return self.delivered_bytes - int(self.duplicated.nbytes.sum()) != expected_bytes


def perturb_trace(
    trace: Trace,
    model: TransactionFaultModel,
    rng: np.random.Generator,
) -> PerturbedTrace:
    """Apply transaction faults to a trace, deterministically from ``rng``.

    Each segment (one DRAM transaction in the analytic model) draws one
    uniform variate; the fault kinds partition ``[0, p_drop + p_dup +
    p_corrupt)``.  Dropped segments vanish from the replayed trace;
    duplicated ones appear twice back-to-back (the retry); corrupted
    ones stay in place but are reported so the caller can garble the
    matching payload bytes.
    """
    thresholds = (
        model.p_drop,
        model.p_drop + model.p_duplicate,
        model.p_drop + model.p_duplicate + model.p_corrupt,
    )
    if thresholds[-1] > 1.0:
        raise ValueError("fault probabilities sum past 1.0")
    # One variate per segment, in trace order: the same stream as one
    # rng.random() call per segment.
    kind = np.searchsorted(thresholds, rng.random(len(trace)), side="right")
    copies = np.array([0, 2, 1, 1])[kind]  # drop, duplicate, corrupt, clean
    return PerturbedTrace(
        segments=Trace(np.repeat(trace.addr, copies), np.repeat(trace.nbytes, copies)),
        dropped=trace[kind == 0],
        duplicated=trace[kind == 1],
        corrupted=trace[kind == 2],
    )
