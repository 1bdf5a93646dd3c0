"""Vectorized hot paths agree bit-exactly with loop-based oracles.

Every vectorized path in the simulator, the schedulers and the storage
formats was derived from a straightforward per-block / per-row loop.
Those loops live here, as test-local oracles, and this suite is the
proof that production produces *identical* results -- not approximately
equal: simulator cycle counts and float energies are compared through
``float.hex`` so a single-ulp divergence fails.
"""

from __future__ import annotations

import heapq
from contextlib import ExitStack
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import extract_block, iter_blocks
from repro.core.patterns import Direction
from repro.formats.base import (
    CSR_INDEX_BYTES,
    CSR_PTR_BYTES,
    DDC_INFO_BYTES,
    VALUE_BYTES,
    EncodedMatrix,
    EncodeSpec,
    Trace,
    apply_mask,
)
from repro.formats.csr import CSRFormat
from repro.formats.ddc import DDCFormat, _index_bytes, infer_block_pattern
from repro.formats.sdc import SDC_INDEX_BYTES, SDCFormat
from repro.hw.codec import CodecUnit
from repro.hw.dvpe import DVPE, BlockWork
from repro.hw.scheduler import Assignment, ScheduleResult

# ---------------------------------------------------------------------------
# Loop oracles
# ---------------------------------------------------------------------------


def _direct_oracle(costs, num_pes, record=False):
    """Lockstep waves of ``num_pes`` blocks, one wave at a time."""
    busy = [0] * num_pes
    makespan = 0
    assignments = []
    for w0 in range(0, len(costs), num_pes):
        wave = costs[w0 : w0 + num_pes]
        if record:
            for pe, cost in enumerate(wave):
                assignments.append(Assignment(w0 + pe, pe, makespan, makespan + cost))
        makespan += max(wave)
        for pe, cost in enumerate(wave):
            busy[pe] += cost
    return ScheduleResult(makespan, sum(costs), num_pes, tuple(busy), tuple(assignments))


def _sparsity_aware_oracle(costs, num_pes, window=8, fetch_per_cycle=2, record=False):
    """Windowed dispatch: sort the window, hand its heaviest block to the
    earliest-free PE."""
    buffer = []  # (cost, block_id)
    heap = [(0, pe) for pe in range(num_pes)]  # (free_time, pe)
    heapq.heapify(heap)
    busy = [0] * num_pes
    fetch_cursor = 0
    assignments = []
    while fetch_cursor < len(costs) or buffer:
        while fetch_cursor < len(costs) and len(buffer) < window:
            buffer.append((costs[fetch_cursor], fetch_cursor))
            fetch_cursor += 1
        buffer.sort(reverse=True)
        cost, block_id = buffer.pop(0)
        free_time, pe = heapq.heappop(heap)
        heapq.heappush(heap, (free_time + cost, pe))
        busy[pe] += cost
        if record:
            assignments.append(Assignment(block_id, pe, free_time, free_time + cost))
    makespan = max(t for t, _ in heap) if heap else 0
    return ScheduleResult(makespan, sum(costs), num_pes, tuple(busy), tuple(assignments))


def _block_costs_oracle(row_counts, config, row_overhead=0.0):
    """One DVPE evaluation per block."""
    pe = DVPE(
        lanes=config.lanes_per_pe,
        output_port_width=config.output_port_width,
        alternate_unit=config.alternate_unit,
        alternate_buffer_depth=config.alternate_buffer_depth,
        intra_block_mapping=config.intra_block_mapping,
    )
    costs = []
    for counts in row_counts:
        cost = float(pe.block_cost(BlockWork(tuple(int(c) for c in counts), m=len(counts))))
        if row_overhead:
            cost += row_overhead * float((counts > 0).sum())
        costs.append(cost)
    return np.array(costs, dtype=np.float64)


def _conversion_cycles_oracle(blocks, n_queues):
    """One codec-unit conversion per COL-direction block."""
    codec = CodecUnit(lanes=n_queues)
    return np.array(
        [codec.process_block(b, Direction.COL, pe_cycles=0).conversion_cycles for b in blocks],
        dtype=np.int64,
    )


def _csr_oracle(dense, block_size):
    """Row-by-row CSR, traced block by block and row by row."""
    rows, cols = dense.shape
    row_ptr = np.zeros(rows + 1, dtype=np.int64)
    col_parts, val_parts = [], []
    for r in range(rows):
        nz = np.nonzero(dense[r])[0]
        row_ptr[r + 1] = row_ptr[r] + nz.size
        col_parts.append(nz)
        val_parts.append(dense[r, nz])
    col_idx = np.concatenate(col_parts).astype(np.int64)
    vals = np.concatenate(val_parts)
    elem_bytes = VALUE_BYTES + CSR_INDEX_BYTES
    addrs, sizes = [], []
    for idx in iter_blocks(rows, cols, block_size):
        for r in range(idx.r0, idx.r0 + idx.height):
            lo, hi = int(row_ptr[r]), int(row_ptr[r + 1])
            row_cols = col_idx[lo:hi]
            start = lo + int(np.searchsorted(row_cols, idx.c0, side="left"))
            stop = lo + int(np.searchsorted(row_cols, idx.c0 + idx.width, side="left"))
            if stop > start:
                addrs.append(start * elem_bytes)
                sizes.append((stop - start) * elem_bytes)
    nnz = int(vals.size)
    return EncodedMatrix(
        format_name="csr",
        shape=(rows, cols),
        nnz=nnz,
        value_bytes=nnz * VALUE_BYTES,
        index_bytes=nnz * CSR_INDEX_BYTES,
        meta_bytes=(rows + 1) * CSR_PTR_BYTES,
        forward_trace=Trace(addrs, sizes),
        arrays={"row_ptr": row_ptr, "col_idx": col_idx, "values": vals},
    )


def _sdc_oracle(dense, block_size, group_rows):
    """Rows padded to their group's max occupancy, packed one by one."""
    rows, cols = dense.shape
    row_nnz = [int(np.count_nonzero(dense[r])) for r in range(rows)]
    widths = np.zeros(rows, dtype=np.int64)
    for g0 in range(0, rows, group_rows):
        widths[g0 : g0 + group_rows] = max(row_nnz[g0 : g0 + group_rows])
    width = int(widths.max())
    vals = np.zeros((rows, width))
    idxs = np.zeros((rows, width), dtype=np.int64)
    valid = np.zeros((rows, width), dtype=bool)
    for r in range(rows):
        nz = np.nonzero(dense[r])[0]
        vals[r, : nz.size] = dense[r, nz]
        idxs[r, : nz.size] = nz
        valid[r, : nz.size] = True
    addrs, sizes = [], []
    addr = 0
    for r0 in range(0, rows, block_size):
        nbytes = int(sum(widths[r0 : r0 + block_size]) * (VALUE_BYTES + SDC_INDEX_BYTES))
        if nbytes:
            addrs.append(addr)
            sizes.append(nbytes)
        addr += nbytes
    stored = int(widths.sum())
    return EncodedMatrix(
        format_name="sdc",
        shape=(rows, cols),
        nnz=sum(row_nnz),
        value_bytes=stored * VALUE_BYTES,
        index_bytes=int(stored * SDC_INDEX_BYTES),
        meta_bytes=0,
        forward_trace=Trace(addrs, sizes),
        arrays={"values": vals, "indices": idxs, "valid": valid, "widths": widths},
    )


def _object_array(items):
    arr = np.empty(len(items), dtype=object)
    for i, item in enumerate(items):
        arr[i] = item
    return arr


def _ddc_oracle(dense, m, tbs=None):
    """Block by block: pick (n, direction), pack each lane's first n
    non-zeros, pad with a repeat of the lane's last index."""
    rows, cols = dense.shape
    blocks = list(iter_blocks(rows, cols, m))
    info_bytes = len(blocks) * DDC_INFO_BYTES
    addrs, sizes = ([0], [info_bytes]) if info_bytes else ([], [])
    metas, payload_vals, payload_idx = [], [], []
    offset = value_bytes = index_bytes = 0
    for bidx in blocks:
        block = extract_block(dense, bidx, m)
        if tbs is not None:
            n = int(tbs.block_n[bidx.row, bidx.col])
            direction = Direction(int(tbs.block_direction[bidx.row, bidx.col]))
        else:
            n, direction, _ = infer_block_pattern(block)
        work = block if direction is Direction.ROW else block.T
        vals = np.zeros((m, n))
        idxs = np.zeros((m, n), dtype=np.int64)
        for lane in range(m):
            nz = np.nonzero(work[lane])[0][:n]
            vals[lane, : nz.size] = work[lane, nz]
            idxs[lane, : nz.size] = nz
            if 0 < nz.size < n:
                idxs[lane, nz.size :] = nz[-1]
        v_bytes = m * n * VALUE_BYTES
        i_bytes = _index_bytes(m * n, m)
        metas.append(
            {"n": n, "direction": direction.value, "offset": offset,
             "row": bidx.row, "col": bidx.col}
        )
        payload_vals.append(vals)
        payload_idx.append(idxs)
        if v_bytes + i_bytes:
            addrs.append(info_bytes + offset)
            sizes.append(v_bytes + i_bytes)
        offset += v_bytes + i_bytes
        value_bytes += v_bytes
        index_bytes += i_bytes
    return EncodedMatrix(
        format_name="ddc",
        shape=(rows, cols),
        nnz=int(np.count_nonzero(dense)),
        value_bytes=value_bytes,
        index_bytes=index_bytes,
        meta_bytes=info_bytes,
        forward_trace=Trace(addrs, sizes),
        arrays={
            "block_meta": _object_array(metas),
            "block_values": _object_array(payload_vals),
            "block_indices": _object_array(payload_idx),
            "m": np.array(m),
        },
    )


def _encode_oracle(fmt, values, spec):
    """The loop oracle for ``fmt.encode(values, spec)``, or None."""
    dense = apply_mask(values, spec.mask)
    m = spec.effective_block_size
    if isinstance(fmt, CSRFormat):
        return _csr_oracle(dense, m)
    if isinstance(fmt, SDCFormat):
        return _sdc_oracle(dense, m, fmt.group_rows or max(1, dense.shape[0]))
    if isinstance(fmt, DDCFormat):
        return _ddc_oracle(dense, m, spec.tbs)
    return None


def _oracle_simulator():
    """Patch every vectorized simulator stage with its loop oracle."""
    stack = ExitStack()
    for target, oracle in (
        ("repro.sim.engine._block_costs", _block_costs_oracle),
        ("repro.sim.engine.batch_conversion_cycles", _conversion_cycles_oracle),
        ("repro.sim.engine.schedule_direct", _direct_oracle),
        ("repro.sim.engine.schedule_sparsity_aware", _sparsity_aware_oracle),
    ):
        stack.enter_context(mock.patch(target, oracle))
    for cls in (CSRFormat, SDCFormat, DDCFormat):
        stack.enter_context(mock.patch.object(cls, "_encode", _encode_oracle))
    return stack


def _hexify(x):
    """Recursively map floats to their hex form so == means bit-equal."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _hexify(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [_hexify(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# DVPE cost model
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_blocks=st.integers(1, 24),
    m=st.sampled_from([4, 8]),
    lanes=st.sampled_from([2, 4, 8]),
    port=st.sampled_from([1, 2, 4]),
    alternate=st.booleans(),
    depth=st.sampled_from([0, 2, 8]),
    balanced=st.booleans(),
)
def test_dvpe_batch_matches_scalar(seed, n_blocks, m, lanes, port, alternate, depth, balanced):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, m + 1, size=(n_blocks, m)).astype(np.int64)
    pe = DVPE(
        lanes=lanes,
        output_port_width=port,
        alternate_unit=alternate,
        alternate_buffer_depth=depth,
        intra_block_mapping=balanced,
    )
    batch = pe.block_costs_batch(counts)
    scalar = [
        pe.block_cost(BlockWork(tuple(int(c) for c in row), m=m)) for row in counts
    ]
    assert batch.tolist() == scalar


# ---------------------------------------------------------------------------
# schedulers
# ---------------------------------------------------------------------------


_COST_LISTS = st.one_of(
    st.lists(st.integers(0, 40), min_size=0, max_size=64),
    st.lists(st.floats(0.0, 40.0, allow_nan=False, width=64), min_size=0, max_size=64),
)


def _schedule_fields(res):
    # Scalar *types* may legitimately differ (the oracles initialise
    # per-PE busy time with int 0; float costs promote only touched
    # slots), so compare through float, which is exact for every cost
    # magnitude generated here, and hexify so equality means bit-equal.
    return (
        float(res.makespan).hex(),
        float(res.total_work).hex(),
        res.num_pes,
        [float(b).hex() for b in res.per_pe_busy],
        [
            (int(a.block), int(a.pe), float(a.start).hex(), float(a.end).hex())
            for a in res.assignments
        ],
    )


@settings(max_examples=40, deadline=None)
@given(costs=_COST_LISTS, num_pes=st.integers(1, 8), record=st.booleans())
def test_schedule_direct_matches_reference(costs, num_pes, record):
    from repro.hw.scheduler import schedule_direct

    fast = schedule_direct(costs, num_pes, record=record)
    ref = _direct_oracle(costs, num_pes, record=record)
    assert _schedule_fields(fast) == _schedule_fields(ref)


@settings(max_examples=40, deadline=None)
@given(
    costs=_COST_LISTS,
    num_pes=st.integers(1, 8),
    window=st.integers(1, 16),
    record=st.booleans(),
)
def test_schedule_sparsity_aware_matches_reference(costs, num_pes, window, record):
    from repro.hw.scheduler import schedule_sparsity_aware

    fast = schedule_sparsity_aware(costs, num_pes, window=window, record=record)
    ref = _sparsity_aware_oracle(costs, num_pes, window=window, record=record)
    assert _schedule_fields(fast) == _schedule_fields(ref)


# ---------------------------------------------------------------------------
# storage formats
# ---------------------------------------------------------------------------


def _random_sparse(seed, rows, cols, density):
    rng = np.random.default_rng(seed)
    keep = rng.random((rows, cols)) < density
    return np.where(keep, rng.normal(size=(rows, cols)), 0.0)


def _assert_encoded_equal(a, b):
    assert a.format_name == b.format_name
    assert a.shape == b.shape
    assert a.nnz == b.nnz
    assert a.value_bytes == b.value_bytes
    assert a.index_bytes == b.index_bytes
    assert a.meta_bytes == b.meta_bytes
    assert a.forward_trace == b.forward_trace
    assert sorted(a.arrays) == sorted(b.arrays)
    for key in a.arrays:
        left, right = a.arrays[key], b.arrays[key]
        if left.dtype == object:
            assert len(left) == len(right), key
            for i, (x, y) in enumerate(zip(left, right)):
                if isinstance(x, np.ndarray):
                    assert np.array_equal(x, y), (key, i)
                else:
                    assert x == y, (key, i)
        else:
            assert np.array_equal(left, right), key


def _make_format(name):
    from repro.formats.bitmap import BitmapFormat

    return {
        "ddc": DDCFormat,
        "sdc": lambda: SDCFormat(group_rows=8),
        "csr": CSRFormat,
        "bitmap": BitmapFormat,
    }[name]()


@settings(max_examples=25, deadline=None)
@given(
    fmt_name=st.sampled_from(["ddc", "sdc", "csr", "bitmap"]),
    seed=st.integers(0, 2**31 - 1),
    rows=st.sampled_from([8, 16, 24]),
    cols=st.sampled_from([8, 16, 32]),
    density=st.floats(0.0, 1.0),
)
def test_format_encode_matches_reference(fmt_name, seed, rows, cols, density):
    fmt = _make_format(fmt_name)
    dense = _random_sparse(seed, rows, cols, density)
    spec = EncodeSpec(block_size=8)
    fast = fmt.encode(dense, spec)
    ref = _encode_oracle(fmt, dense, spec)
    if ref is not None:  # bitmap has no separate loop form
        _assert_encoded_equal(fast, ref)
        assert np.array_equal(fmt.decode(ref), dense)
    assert np.array_equal(fmt.decode(fast), dense)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.sampled_from([16, 32]),
    cols=st.sampled_from([16, 32]),
    sparsity=st.sampled_from([0.5, 0.75, 0.875]),
)
def test_ddc_encode_with_tbs_matches_reference(seed, rows, cols, sparsity):
    from repro.core.sparsify import tbs_sparsify

    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(rows, cols))
    tbs = tbs_sparsify(weights, m=8, sparsity=sparsity)
    dense = np.where(tbs.mask, weights, 0.0)
    fmt = DDCFormat()
    spec = EncodeSpec(tbs=tbs, block_size=8)
    fast = fmt.encode(dense, spec)
    _assert_encoded_equal(fast, _encode_oracle(fmt, dense, spec))
    assert np.array_equal(fmt.decode(fast), dense)


# ---------------------------------------------------------------------------
# full simulator
# ---------------------------------------------------------------------------


def _result_fingerprint(res):
    return _hexify(
        {
            "cycles": int(res.cycles),
            "compute_cycles": int(res.compute_cycles),
            "memory_cycles": int(res.memory_cycles),
            "codec_visible_cycles": int(res.codec_visible_cycles),
            "macs": int(res.macs),
            "dram_bytes": float(res.dram_bytes),
            "total_j": float(res.energy.total_j),
            "energy_components": {k: float(v) for k, v in res.energy.components.items()},
            "compute_utilization": float(res.compute_utilization),
            "bandwidth_utilization": float(res.bandwidth_utilization),
            "breakdown": {k: float(v) for k, v in res.breakdown.items()},
        }
    )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    arch=st.sampled_from(["TC", "STC", "VEGETA", "HighLight", "RM-STC", "TB-STC"]),
    sparsity=st.sampled_from([0.5, 0.75, 0.875]),
)
def test_simulate_bit_exact_vs_reference(seed, arch, sparsity):
    from repro.core.patterns import PatternFamily
    from repro.sim.baselines import ARCH_FAMILY, arch_by_name, simulate_arch
    from repro.workloads.generator import build_workload
    from repro.workloads.layers import LayerSpec

    config = arch_by_name(arch)
    family = ARCH_FAMILY.get(arch, PatternFamily.TBS)
    layer = LayerSpec("equiv", 32, 32, 16)
    workload = build_workload(layer, family, sparsity, m=8, seed=seed)

    fast = simulate_arch(config, workload)
    with _oracle_simulator():
        ref = simulate_arch(config, workload)
    assert _result_fingerprint(fast) == _result_fingerprint(ref)
