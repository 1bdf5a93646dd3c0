"""Tests for DRAM transaction-level fault perturbation."""

import numpy as np
import pytest

from repro.formats.base import Trace
from repro.hw.dram import TransactionFaultModel, perturb_trace


def _segments(n=8, size=32):
    return Trace(np.arange(n) * size, np.full(n, size))


class TestModel:
    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError):
            TransactionFaultModel(p_drop=-0.1)

    def test_rejects_probability_above_one(self):
        with pytest.raises(ValueError):
            TransactionFaultModel(p_corrupt=1.5)

    def test_rejects_sum_above_one(self):
        with pytest.raises(ValueError):
            perturb_trace(_segments(), TransactionFaultModel(0.6, 0.6, 0.0),
                          np.random.default_rng(0))


class TestPerturb:
    def test_clean_model_passes_everything(self):
        segs = _segments()
        out = perturb_trace(segs, TransactionFaultModel(), np.random.default_rng(0))
        assert out.segments == segs
        assert not out.dropped and not out.duplicated and not out.corrupted
        assert out.delivered_bytes == segs.nbytes.sum()

    def test_certain_drop_loses_all_bytes(self):
        segs = _segments(4)
        out = perturb_trace(segs, TransactionFaultModel(p_drop=1.0), np.random.default_rng(0))
        assert len(out.dropped) == 4
        assert len(out.segments) == 0
        assert out.missing_bytes == segs.nbytes.sum()
        assert out.length_check_fails(segs.nbytes.sum())

    def test_certain_duplicate_does_not_fail_length_check(self):
        """Duplicates overwrite the same buffer region: the DMA byte
        counter sees the expected total, so only bandwidth is wasted."""
        segs = _segments(4)
        out = perturb_trace(segs, TransactionFaultModel(p_duplicate=1.0),
                            np.random.default_rng(0))
        assert len(out.duplicated) == 4
        assert len(out.segments) == 8
        assert not out.length_check_fails(segs.nbytes.sum())

    def test_corrupt_keeps_the_segment(self):
        segs = _segments(4)
        out = perturb_trace(segs, TransactionFaultModel(p_corrupt=1.0),
                            np.random.default_rng(0))
        assert len(out.corrupted) == 4
        assert len(out.segments) == 4
        assert not out.length_check_fails(segs.nbytes.sum())

    def test_seeded_reproducibility(self):
        model = TransactionFaultModel(p_drop=0.3, p_duplicate=0.2, p_corrupt=0.2)
        a = perturb_trace(_segments(32), model, np.random.default_rng(5))
        b = perturb_trace(_segments(32), model, np.random.default_rng(5))
        assert (a.dropped, a.duplicated, a.corrupted) == (b.dropped, b.duplicated, b.corrupted)

    def test_mixed_faults_partition_the_trace(self):
        model = TransactionFaultModel(p_drop=0.3, p_duplicate=0.3, p_corrupt=0.3)
        segs = _segments(64)
        out = perturb_trace(segs, model, np.random.default_rng(1))
        # Every original segment is accounted for exactly once.
        assert len(out.dropped) + (len(out.segments) - len(out.duplicated)) == 64
