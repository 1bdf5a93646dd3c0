"""Round-trip (encode -> decode) tests for every storage format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tbs_sparsify
from repro.formats import (
    BCSRCOOFormat,
    BitmapFormat,
    CSRFormat,
    DDCFormat,
    DenseFormat,
    EncodeSpec,
    SDCFormat,
)

ALL_FORMATS = [
    DenseFormat(), CSRFormat(), SDCFormat(), DDCFormat(), BitmapFormat(), BCSRCOOFormat(),
]

#: Formats whose encoding consumes the TBS metadata directly.
_TBS_AWARE = ("ddc", "bcsrcoo")


def _tbs_matrix(shape=(64, 64), sparsity=0.75, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=shape)
    res = tbs_sparsify(w, m=8, sparsity=sparsity)
    return w * res.mask, res


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
class TestRoundTrip:
    def test_tbs_matrix(self, fmt):
        sparse, res = _tbs_matrix()
        enc = fmt.encode(sparse, EncodeSpec(tbs=res if fmt.name in _TBS_AWARE else None))
        np.testing.assert_allclose(fmt.decode(enc), sparse)

    def test_empty_matrix(self, fmt):
        sparse = np.zeros((16, 16))
        enc = fmt.encode(sparse)
        np.testing.assert_allclose(fmt.decode(enc), sparse)
        assert enc.nnz == 0

    def test_dense_matrix(self, fmt):
        rng = np.random.default_rng(1)
        dense = rng.normal(size=(16, 16))
        dense[dense == 0] = 1.0
        enc = fmt.encode(dense)
        np.testing.assert_allclose(fmt.decode(enc), dense)

    def test_mask_argument(self, fmt):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(16, 16))
        mask = rng.random((16, 16)) < 0.5
        enc = fmt.encode(w, EncodeSpec(mask=mask))
        np.testing.assert_allclose(fmt.decode(enc), np.where(mask, w, 0.0))

    def test_single_element(self, fmt):
        sparse = np.zeros((8, 8))
        sparse[3, 5] = 2.5
        enc = fmt.encode(sparse)
        np.testing.assert_allclose(fmt.decode(enc), sparse)

    def test_nnz_recorded(self, fmt):
        sparse, res = _tbs_matrix(seed=3)
        enc = fmt.encode(sparse, EncodeSpec(tbs=res if fmt.name in _TBS_AWARE else None))
        assert enc.nnz == np.count_nonzero(sparse)

    def test_rejects_mask_shape_mismatch(self, fmt):
        with pytest.raises(ValueError):
            fmt.encode(np.ones((4, 4)), EncodeSpec(mask=np.ones((2, 2), dtype=bool)))

    @given(seed=st.integers(0, 50), sparsity=st.sampled_from([0.5, 0.75, 0.875]))
    @settings(max_examples=12, deadline=None)
    def test_roundtrip_property(self, fmt, seed, sparsity):
        sparse, res = _tbs_matrix(shape=(32, 40), sparsity=sparsity, seed=seed)
        enc = fmt.encode(sparse, EncodeSpec(tbs=res if fmt.name in _TBS_AWARE else None))
        np.testing.assert_allclose(fmt.decode(enc), sparse)


class TestDDCSpecifics:
    def test_ragged_shape(self):
        sparse, res = _tbs_matrix(shape=(30, 44), seed=4)
        enc = DDCFormat().encode(sparse, EncodeSpec(tbs=res))
        np.testing.assert_allclose(DDCFormat().decode(enc), sparse)

    def test_without_tbs_metadata_infers(self):
        """DDC can infer per-block (N, direction) from a valid TBS mask."""
        sparse, res = _tbs_matrix(seed=5)
        enc = DDCFormat().encode(sparse)  # no tbs passed
        np.testing.assert_allclose(DDCFormat().decode(enc), sparse)

    def test_info_table_size(self):
        sparse, res = _tbs_matrix(shape=(64, 64), seed=6)
        enc = DDCFormat().encode(sparse, EncodeSpec(tbs=res))
        assert enc.meta_bytes == 8 * 8 * 2  # 64 blocks x 16 bits

    def test_compression_beats_dense_on_sparse(self):
        sparse, res = _tbs_matrix(sparsity=0.75, seed=7)
        enc = DDCFormat().encode(sparse, EncodeSpec(tbs=res))
        assert DDCFormat.compression_ratio(enc) > 2.0

    def test_value_bytes_match_block_n(self):
        sparse, res = _tbs_matrix(seed=8)
        enc = DDCFormat().encode(sparse, EncodeSpec(tbs=res))
        expected = int(res.block_n.sum()) * res.m * 2
        assert enc.value_bytes == expected

    def test_non_tbs_matrix_still_roundtrips(self):
        """Graceful handling of inputs that violate strict TBS."""
        rng = np.random.default_rng(9)
        sparse = rng.normal(size=(16, 16)) * (rng.random((16, 16)) < 0.4)
        enc = DDCFormat().encode(sparse)
        np.testing.assert_allclose(DDCFormat().decode(enc), sparse)


class TestSDCSpecifics:
    def test_padding_ratio(self):
        sparse = np.zeros((4, 8))
        sparse[0, :4] = 1.0  # one row with 4 nnz, rest empty
        enc = SDCFormat().encode(sparse)
        assert SDCFormat.padding_ratio(enc) == pytest.approx(0.75)

    def test_uniform_rows_have_no_padding(self):
        rng = np.random.default_rng(10)
        from repro.core import tile_mask
        from repro.core.patterns import NMConfig

        w = rng.normal(size=(16, 32))
        mask = tile_mask(w, NMConfig(2, 4))
        enc = SDCFormat().encode(w * mask)
        assert SDCFormat.padding_ratio(enc) == pytest.approx(0.0)

    def test_tbs_padding_exceeds_half_at_high_variance(self):
        """The paper's >61.54% redundancy claim arises from per-row
        occupancy variance under TBS."""
        rng = np.random.default_rng(11)
        w = rng.normal(size=(128, 128)) * np.exp(rng.normal(0, 1.2, size=(128, 1)))
        res = tbs_sparsify(w, m=8, sparsity=0.75)
        enc = SDCFormat().encode(w * res.mask)
        assert SDCFormat.padding_ratio(enc) > 0.5


class TestCSRSpecifics:
    def test_row_ptr_monotone(self):
        sparse, _ = _tbs_matrix(seed=12)
        enc = CSRFormat().encode(sparse)
        assert (np.diff(enc.arrays["row_ptr"]) >= 0).all()

    def test_fragmented_trace(self):
        """CSR's block-major consumption produces many short segments."""
        sparse, res = _tbs_matrix(shape=(64, 64), seed=13)
        csr = CSRFormat().encode(sparse)
        ddc = DDCFormat().encode(sparse, EncodeSpec(tbs=res))
        assert len(csr.forward_trace) > 4 * len(ddc.forward_trace)
