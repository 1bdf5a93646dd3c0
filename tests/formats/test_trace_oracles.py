"""Columnar trace arithmetic agrees exactly with per-segment loop oracles.

A trace is a :class:`~repro.formats.base.Trace` -- two int64 arrays --
and the merge, the burst count and the transaction-fault perturbation
are array expressions over it.  Each was derived from a loop that
walked one ``(addr, nbytes)`` segment at a time.  Those loops live here
as test-local oracles, and these properties pin that the array versions
produce identical segment counts, burst counts and fetched bytes on
arbitrary traces: zero-length segments, adjacent and scattered runs and
unaligned addresses included.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import EncodedMatrix, Trace, merge_contiguous, traffic_report
from repro.formats import memory_model
from repro.hw.dram import TransactionFaultModel, perturb_trace

# ---------------------------------------------------------------------------
# Loop oracles
# ---------------------------------------------------------------------------


def _merge_oracle(pairs, window=None):
    """Fuse address-adjacent segments, at most ``window`` per run."""
    merged = []
    run = 0
    for addr, nbytes in pairs:
        adjacent = merged and merged[-1][0] + merged[-1][1] == addr
        if adjacent and (window is None or run < window):
            merged[-1] = (merged[-1][0], merged[-1][1] + nbytes)
            run += 1
        else:
            merged.append((addr, nbytes))
            run = 1
    return merged


def _burst_oracle(merged, burst_bytes):
    """(bursts, fetched bytes): every segment rounded out to whole bursts."""
    num_bursts = 0
    fetched = 0
    for addr, nbytes in merged:
        first = (addr // burst_bytes) * burst_bytes
        last = addr + nbytes
        bursts = max(1, -(-(last - first) // burst_bytes)) if nbytes else 0
        num_bursts += bursts
        fetched += bursts * burst_bytes
    return num_bursts, fetched


def _perturb_oracle(pairs, model, rng):
    """One uniform draw per segment, in trace order."""
    t0 = model.p_drop
    t1 = t0 + model.p_duplicate
    t2 = t1 + model.p_corrupt
    delivered, dropped, duplicated, corrupted = [], [], [], []
    for seg in pairs:
        u = float(rng.random())
        if u < t0:
            dropped.append(seg)
        elif u < t1:
            delivered += [seg, seg]
            duplicated.append(seg)
        elif u < t2:
            delivered.append(seg)
            corrupted.append(seg)
        else:
            delivered.append(seg)
    return delivered, dropped, duplicated, corrupted


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def traces(draw):
    """Traces mixing adjacent runs, scattered and unaligned segments and
    zero-length segments."""
    steps = draw(
        st.lists(
            st.tuples(
                st.booleans(),  # continue the previous segment's run?
                st.integers(0, 4096),  # address when not continuing
                st.one_of(st.just(0), st.integers(1, 130)),
            ),
            max_size=60,
        )
    )
    pairs = []
    for adjacent, addr, nbytes in steps:
        if adjacent and pairs:
            addr = pairs[-1][0] + pairs[-1][1]
        pairs.append((addr, nbytes))
    return pairs


def _trace(pairs):
    return Trace([a for a, _ in pairs], [n for _, n in pairs])


def _pairs(trace):
    return list(zip(trace.addr.tolist(), trace.nbytes.tolist()))


WINDOWS = st.sampled_from([None, 1, 2, 8])
BURSTS = st.sampled_from([1, 32, 64])

# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(pairs=traces(), window=WINDOWS)
@settings(max_examples=300, deadline=None)
def test_merge_matches_oracle(pairs, window):
    assert _pairs(merge_contiguous(_trace(pairs), window)) == _merge_oracle(pairs, window)


@given(pairs=traces(), window=WINDOWS, burst=BURSTS)
@settings(max_examples=300, deadline=None)
def test_traffic_report_matches_oracle(pairs, window, burst):
    enc = EncodedMatrix(
        format_name="dense",
        shape=(1, 1),
        nnz=0,
        value_bytes=0,
        index_bytes=0,
        meta_bytes=0,
        forward_trace=_trace(pairs),
    )
    merged = _merge_oracle(pairs, window)
    num_bursts, fetched = _burst_oracle(merged, burst)
    with mock.patch.dict(memory_model._MERGE_WINDOW, {"dense": window}):
        rep = traffic_report(enc, burst_bytes=burst)
    assert rep.num_segments == len(merged)
    assert rep.num_bursts == num_bursts
    assert rep.fetched_bytes == fetched


@given(
    pairs=traces(),
    seed=st.integers(0, 2**16),
    probs=st.tuples(*[st.sampled_from([0.0, 0.1, 0.25, 0.3]) for _ in range(3)]),
)
@settings(max_examples=200, deadline=None)
def test_perturb_matches_oracle(pairs, seed, probs):
    """Same partition of the trace, and the generator is left in the same
    state, so fault campaigns stay bit-reproducible."""
    model = TransactionFaultModel(*probs)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    out = perturb_trace(_trace(pairs), model, rng)
    delivered, dropped, duplicated, corrupted = _perturb_oracle(pairs, model, oracle_rng)
    assert _pairs(out.segments) == delivered
    assert _pairs(out.dropped) == dropped
    assert _pairs(out.duplicated) == duplicated
    assert _pairs(out.corrupted) == corrupted
    assert rng.random() == oracle_rng.random()
