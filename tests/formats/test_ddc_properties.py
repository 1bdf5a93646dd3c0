"""Property-based tests for DDC inference and format invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import Direction
from repro.core.sparsify import tbs_sparsify
from repro.formats import CSRFormat, DDCFormat, EncodeSpec, SDCFormat
from repro.formats.ddc import infer_block_pattern


class TestInferBlockPattern:
    def test_row_uniform(self):
        block = np.zeros((8, 8))
        block[:, :2] = 1.0  # every row keeps 2
        n, direction, exact = infer_block_pattern(block)
        assert (n, direction, exact) == (2, Direction.ROW, True)

    def test_col_uniform_only(self):
        block = np.zeros((8, 8))
        block[:3, 0] = 1.0
        block[2:5, 1] = 1.0
        block[4:7, 2] = 1.0  # columns 0-2 keep 3 each; rows vary
        n, direction, exact = infer_block_pattern(block)
        assert direction is Direction.COL and n == 3 and exact

    def test_empty_block_is_row_zero(self):
        n, direction, exact = infer_block_pattern(np.zeros((8, 8)))
        assert n == 0 and exact

    def test_irregular_block_not_exact(self):
        rng = np.random.default_rng(0)
        block = rng.normal(size=(8, 8)) * (rng.random((8, 8)) < 0.4)
        # Unless the random block is accidentally uniform, expect repair.
        n, direction, exact = infer_block_pattern(block)
        assert 0 <= n <= 8

    @given(seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_inferred_n_covers_all_lanes(self, seed):
        """The inferred (n, direction) never under-provisions storage."""
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(8, 8)) * (rng.random((8, 8)) < 0.35)
        n, direction, _ = infer_block_pattern(block)
        counts = (
            np.count_nonzero(block, axis=1)
            if direction is Direction.ROW
            else np.count_nonzero(block, axis=0)
        )
        assert counts.max(initial=0) <= n


class TestFootprintInvariants:
    @given(seed=st.integers(0, 60), sparsity=st.sampled_from([0.5, 0.75, 0.875]))
    @settings(max_examples=15, deadline=None)
    def test_ddc_never_larger_than_groupwise_sdc(self, seed, sparsity):
        """DDC's per-block compression beats row-group-aligned SDC on
        every TBS matrix (no padding, tighter indices)."""
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(64, 64))
        res = tbs_sparsify(w, m=8, sparsity=sparsity)
        sparse = w * res.mask
        ddc = DDCFormat().encode(sparse, EncodeSpec(tbs=res))
        sdc = SDCFormat(group_rows=8).encode(sparse)
        assert ddc.total_bytes <= sdc.total_bytes + 2 * 64  # info table slack

    @given(seed=st.integers(0, 60))
    @settings(max_examples=15, deadline=None)
    def test_csr_value_bytes_exact(self, seed):
        rng = np.random.default_rng(seed)
        sparse = rng.normal(size=(32, 32)) * (rng.random((32, 32)) < 0.3)
        enc = CSRFormat().encode(sparse)
        assert enc.value_bytes == np.count_nonzero(sparse) * 2

    @given(seed=st.integers(0, 60))
    @settings(max_examples=15, deadline=None)
    def test_segments_within_footprint(self, seed):
        """No format's trace reads past its own storage footprint."""
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(40, 40))
        res = tbs_sparsify(w, m=8, sparsity=0.75)
        sparse = w * res.mask
        for fmt in (DDCFormat(), SDCFormat(group_rows=8)):
            enc = fmt.encode(sparse, EncodeSpec(tbs=res if fmt.name == "ddc" else None))
            if len(enc.forward_trace):
                assert enc.forward_trace.end.max() <= enc.total_bytes + 8
