"""Common machinery for sparse storage formats.

A format encodes a sparse matrix into a byte layout and -- crucially for
the paper's Challenge-2 -- determines the *memory access trace* the
tensor core generates while consuming the matrix in block-major
computation order.  Two properties of that trace drive bandwidth
utilization (Fig. 7):

* **redundancy** -- bytes fetched that carry no non-zero payload
  (SDC's alignment padding);
* **contiguity** -- how many separate burst transactions the trace needs
  (CSR's scattered short row segments).

Every encoder returns an :class:`EncodedMatrix` carrying the storage
footprint breakdown, the consumption-order :class:`Trace` (parallel
``addr``/``nbytes`` arrays), and enough arrays to decode the matrix back
exactly (used by the round-trip tests and by the functional simulator).

Consumption **orientation** is a first-class axis: the forward pass
drains the matrix block-major, the backward pass drains the *transpose*
of the same stored bytes.  :meth:`EncodedMatrix.trace` serves either
orientation from the one encoding -- no format re-encodes for the
transposed pass; each format's :meth:`SparseFormat.transposed_trace`
derives the transposed access pattern from the stored layout alone and
pays whatever fragmentation or re-fetch cost that layout implies.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

#: FP16 storage, as in the paper's DVPE datapath.
VALUE_BYTES = 2
#: Column index width used by CSR (16-bit covers the evaluated layers).
CSR_INDEX_BYTES = 2
#: CSR row-pointer width.
CSR_PTR_BYTES = 4
#: DDC per-block Info-table entry: 1b dim + 3b ratio + 12b offset = 16 bits.
DDC_INFO_BYTES = 2

#: Valid consumption orientations: ``forward`` drains the stored matrix
#: block-major; ``transposed`` drains its transpose (the backward pass).
ORIENTATIONS: Tuple[str, ...] = ("forward", "transposed")
DEFAULT_ORIENTATION = "forward"


@dataclass(frozen=True, eq=False)
class Trace:
    """A consumption-order access trace as two parallel int64 arrays.

    Segment ``i`` reads ``nbytes[i]`` contiguous bytes starting at byte
    address ``addr[i]``; ``len(trace)`` is the number of segments.  Both
    arrays are private read-only copies.  Nothing here rejects negative
    entries: :func:`repro.formats.validate.trace_violations` reports them.
    """

    addr: np.ndarray
    nbytes: np.ndarray

    def __post_init__(self) -> None:
        addr = np.array(self.addr, dtype=np.int64)
        nbytes = np.array(self.nbytes, dtype=np.int64)
        if addr.ndim != 1 or addr.shape != nbytes.shape:
            raise ValueError(
                f"trace needs two equal-length 1-D arrays, got {addr.shape} and {nbytes.shape}"
            )
        addr.flags.writeable = False
        nbytes.flags.writeable = False
        object.__setattr__(self, "addr", addr)
        object.__setattr__(self, "nbytes", nbytes)

    @classmethod
    def nonempty(cls, addr, nbytes, header: int = 0) -> "Trace":
        """The non-empty ``(addr, nbytes)`` reads, after a ``header``-byte
        read of the side table at address 0 (omitted when 0 bytes)."""
        addr = np.concatenate(([0], np.asarray(addr, dtype=np.int64)))
        nbytes = np.concatenate(([header], np.asarray(nbytes, dtype=np.int64)))
        keep = nbytes != 0
        return cls(addr[keep], nbytes[keep])

    @classmethod
    def concat(cls, *parts: "Trace") -> "Trace":
        return cls(
            np.concatenate([p.addr for p in parts]), np.concatenate([p.nbytes for p in parts])
        )

    def __len__(self) -> int:
        return self.addr.size

    def __getitem__(self, key) -> "Trace":
        """Sub-trace for a slice, boolean mask or index array."""
        return Trace(self.addr[key], self.nbytes[key])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return np.array_equal(self.addr, other.addr) and np.array_equal(
            self.nbytes, other.nbytes
        )

    __hash__ = None

    @property
    def end(self) -> np.ndarray:
        """One past the last byte of every segment."""
        return self.addr + self.nbytes


@dataclass(frozen=True, eq=False)
class EncodeSpec:
    """Every non-``values`` knob of one :meth:`SparseFormat.encode` call.

    One immutable value object, mirroring ``SimOptions``: pass
    ``EncodeSpec(...)`` as the second argument of :meth:`SparseFormat.encode`.

    ``orientation`` records the *primary* consumption orientation the
    encoding will be traced in; either orientation can still be requested
    later via :meth:`EncodedMatrix.trace`.
    """

    #: Boolean keep-mask applied to ``values`` (None = values are final).
    mask: Optional[np.ndarray] = None
    #: :class:`~repro.core.sparsify.TBSResult` when the matrix carries TBS
    #: metadata -- required by DDC, ignored by the baseline formats.
    tbs: object = None
    #: Block granularity of the consumption trace (the PE array's M).
    block_size: int = 8
    #: Primary consumption orientation ('forward' | 'transposed').
    orientation: str = DEFAULT_ORIENTATION

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.orientation not in ORIENTATIONS:
            raise ValueError(
                f"orientation must be one of {ORIENTATIONS}, got {self.orientation!r}"
            )

    @property
    def effective_block_size(self) -> int:
        """Trace granularity: the TBS block edge when TBS metadata exists."""
        m = getattr(self.tbs, "m", None)
        return int(m) if m else self.block_size


@dataclass
class EncodedMatrix:
    """A sparse matrix in one storage format.

    Attributes
    ----------
    format_name:
        Short identifier ("dense", "csr", "sdc", "ddc", "bitmap",
        "bcsrcoo").
    shape:
        Logical (rows, cols) of the original matrix.
    nnz:
        Non-zero count.
    value_bytes / index_bytes / meta_bytes:
        Storage footprint breakdown.
    forward_trace:
        Forward (block-major) consumption-order access :class:`Trace`,
        matching how the PE array drains the matrix.  Use :meth:`trace`
        to obtain the trace for either orientation.
    arrays:
        Format-specific payload arrays, sufficient for exact decode.
    orientation:
        The primary orientation this matrix was encoded for (from the
        :class:`EncodeSpec`); :meth:`trace` defaults to it.
    block_size:
        Trace block granularity the encoder used.
    """

    format_name: str
    shape: Tuple[int, int]
    nnz: int
    value_bytes: int
    index_bytes: int
    meta_bytes: int
    forward_trace: Trace
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    orientation: str = DEFAULT_ORIENTATION
    block_size: int = 8
    #: Lazily-built transposed-orientation trace (cached; derived from the
    #: stored layout by the owning format -- never by re-encoding).
    transposed_cache: Optional[Trace] = None

    @property
    def total_bytes(self) -> int:
        return self.value_bytes + self.index_bytes + self.meta_bytes

    @property
    def payload_bytes(self) -> int:
        """Bytes that carry actual non-zero values (the useful traffic)."""
        return self.nnz * VALUE_BYTES

    @property
    def traced_bytes(self) -> int:
        """Total bytes of the forward consumption trace."""
        return int(self.forward_trace.nbytes.sum())

    def trace(self, orientation: Optional[str] = None) -> Trace:
        """Access trace for ``orientation`` (default: the encoded one).

        The transposed trace is derived once from the stored layout via
        the registered format's :meth:`SparseFormat.transposed_trace` and
        cached -- requesting it never re-encodes the matrix.
        """
        if orientation is None:
            orientation = self.orientation
        if orientation not in ORIENTATIONS:
            raise ValueError(
                f"orientation must be one of {ORIENTATIONS}, got {orientation!r}"
            )
        if orientation == "forward":
            return self.forward_trace
        if self.transposed_cache is None:
            from .registry import get_format

            self.transposed_cache = get_format(self.format_name).transposed_trace(self)
        return self.transposed_cache

    def traced_bytes_for(self, orientation: Optional[str] = None) -> int:
        """Total bytes of the trace for ``orientation``."""
        return int(self.trace(orientation).nbytes.sum())


class SparseFormat(abc.ABC):
    """Interface implemented by every storage format.

    Subclasses implement :meth:`_encode` (and may override
    :meth:`transposed_trace` / :meth:`decode_transposed`); callers use
    the public :meth:`encode`, which accepts an :class:`EncodeSpec`.
    """

    name: str = "abstract"

    def encode(self, values: np.ndarray, spec: Optional[EncodeSpec] = None) -> EncodedMatrix:
        """Encode ``values`` per ``spec`` (an :class:`EncodeSpec`).

        Zeros are either already applied to ``values`` or given via
        ``spec.mask``.
        """
        if spec is None:
            spec = EncodeSpec()
        elif not isinstance(spec, EncodeSpec):
            raise TypeError(
                f"encode() spec must be an EncodeSpec, got {type(spec).__name__}"
            )
        encoded = self._encode(values, spec)
        encoded.orientation = spec.orientation
        encoded.block_size = spec.effective_block_size
        return encoded

    @abc.abstractmethod
    def _encode(self, values: np.ndarray, spec: EncodeSpec) -> EncodedMatrix:
        """Format-specific encode; ``spec`` is always a full EncodeSpec."""

    @abc.abstractmethod
    def decode(self, encoded: EncodedMatrix) -> np.ndarray:
        """Exact inverse of :meth:`encode`."""

    def decode_transposed(self, encoded: EncodedMatrix) -> np.ndarray:
        """Decode the matrix as consumed in the transposed orientation.

        Defaults to ``decode(encoded).T``; formats with a native
        transpose path (BCSR-COO's COO index walk) override it.
        """
        return self.decode(encoded).T

    def transposed_trace(self, encoded: EncodedMatrix) -> Trace:
        """Transposed-orientation access trace, derived from ``encoded``.

        Implementations must read only ``encoded`` (its arrays, footprint
        and forward trace) -- never re-encode -- so any
        :class:`EncodedMatrix` of this format, however obtained, can be
        traced in either orientation.
        """
        raise NotImplementedError(
            f"format {self.name!r} does not implement a transposed trace"
        )


def apply_mask(values: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    """Materialise the sparse matrix ``values * mask`` as float64."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {values.shape}")
    if mask is None:
        return values
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != values.shape:
        raise ValueError(f"mask shape {mask.shape} != values shape {values.shape}")
    return np.where(mask, values, 0.0)


def merge_contiguous(trace: Trace, window: Optional[int] = None) -> Trace:
    """Coalesce address-adjacent segments (a streaming prefetcher's view).

    A run of adjacent segments fuses into one; with ``window`` set, at
    most ``window`` consecutive segments of a run fuse, so a run of
    ``k`` segments becomes ``ceil(k / window)``.
    """
    n = len(trace)
    addr, nbytes = trace.addr, trace.nbytes
    starts = np.ones(n, dtype=bool)
    starts[1:] = addr[1:] != addr[:-1] + nbytes[:-1]
    if window is not None:
        heads = np.flatnonzero(starts)
        run_id = np.cumsum(starts) - 1
        starts |= (np.arange(n) - heads[run_id]) % window == 0
    heads = np.flatnonzero(starts)
    return Trace(addr[heads], np.add.reduceat(nbytes, heads))
