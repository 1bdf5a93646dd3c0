"""Unit tests for the trace-vs-footprint validator."""

import numpy as np
import pytest

from repro.core import tbs_sparsify
from repro.formats import (
    EncodedMatrix,
    EncodeSpec,
    Trace,
    TraceValidationError,
    available_formats,
    get_format,
    trace_violations,
    validate_trace,
)

#: Formats whose encoder consumes the TBS metadata directly.
_TBS_AWARE = ("ddc", "bcsrcoo")


def _synthetic(addr, nbytes, total_bytes=32):
    """A hand-built EncodedMatrix, trace ``(addr, nbytes)``, whose
    footprint is all value bytes."""
    return EncodedMatrix(
        format_name="dense",
        shape=(4, 4),
        nnz=total_bytes // 2,
        value_bytes=total_bytes,
        index_bytes=0,
        meta_bytes=0,
        forward_trace=Trace(addr, nbytes),
    )


class TestViolations:
    def test_clean_trace_has_none(self):
        enc = _synthetic([0, 16], [16, 16])
        assert trace_violations(enc, "forward") == []

    def test_segment_past_footprint_flagged(self):
        enc = _synthetic([0, 24], [16, 16])
        (problem,) = trace_violations(enc, "forward")
        assert "past the declared footprint" in problem

    def test_partial_overlap_flagged(self):
        enc = _synthetic([0, 8], [16, 16])
        (problem,) = trace_violations(enc, "forward")
        assert "partially overlap" in problem

    def test_exact_duplicate_is_legal(self):
        """Whole-segment re-fetch (SDC's transposed walk) is real traffic,
        not a layout inconsistency."""
        enc = _synthetic([0, 0, 16], [16, 16, 16])
        assert trace_violations(enc, "forward") == []

    def test_zero_length_segments_ignored(self):
        enc = _synthetic([0, 8, 16], [16, 0, 16])
        assert trace_violations(enc, "forward") == []

    def test_contained_segment_flagged(self):
        enc = _synthetic([0, 8], [32, 8])
        assert trace_violations(enc, "forward")

    @pytest.mark.parametrize("addr, nbytes", [([0, -8], [16, 8]), ([0, 16], [16, -4])])
    def test_negative_entry_flagged(self, addr, nbytes):
        """A trace may not read from a negative address or for a negative
        length: neither is a real access."""
        problems = trace_violations(_synthetic(addr, nbytes), "forward")
        assert any("negative address or length" in p for p in problems)


class TestValidateTrace:
    def test_raises_with_format_and_orientation(self):
        enc = _synthetic([24], [16])
        with pytest.raises(TraceValidationError, match="dense forward"):
            validate_trace(enc, "forward")

    def test_passes_on_clean_trace(self):
        validate_trace(_synthetic([0], [32]), "forward")

    def test_default_checks_both_orientations(self):
        """orientation=None must also derive and check the transposed
        trace (smoke-testing that the format can serve it)."""
        rng = np.random.default_rng(0)
        w = rng.normal(size=(32, 32))
        res = tbs_sparsify(w, m=8, sparsity=0.75)
        sparse = np.where(res.mask, w, 0.0)
        for name in available_formats():
            fmt = get_format(name)
            enc = fmt.encode(sparse, EncodeSpec(tbs=res if name in _TBS_AWARE else None))
            validate_trace(enc)
            assert enc.transposed_cache is not None, name

    def test_bad_orientation_rejected(self):
        with pytest.raises(ValueError, match="orientation"):
            trace_violations(_synthetic([0], [32]), "sideways")
