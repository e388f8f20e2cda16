"""Blockwise 8-bit state quantization on a dynamic-tree code.

A code byte decodes as: bit 7 is the sign; the run of zero bits descending
from bit 6 sets a decimal exponent ``10**-z``; the first 1 bit terminates the
run; the remaining ``f = 6 - z`` bits hold an unsigned integer ``i``; the
value is ``sign * 10**-z * (i + 1) / 2**f``. The two codes with an all-zero
tail (0x00, 0x80) decode to zero. This yields 256 values in [-1, 1] that are
dense both near zero (down to 1e-6) and near one (spacing 1/64).

Tensors are quantized block by block: each block of ``block_size`` elements
is normalized by its absolute maximum, every normalized element is mapped to
the nearest code value (ties toward the smaller magnitude, then the smaller
code byte), and the code plus the per-block absmax are stored.
Dequantization is the reverse lookup times the absmax.

The nearest value comes from a decision table, not a search. The map is
symmetric, so only ``|x|`` is looked up and the sign bit is set afterwards.
Between two adjacent non-negative values ``a < b`` the nearest-value rule
switches from ``a`` to ``b`` at one float64 boundary, found exactly at build
time by bisecting the float64 bit patterns between them. A bucket table,
indexed by the top bits of ``|x|``'s bit pattern (exponent and 7 mantissa
bits), holds the number of boundaries below each bucket's start and the one
boundary, if any, inside the bucket. No bucket holds more than one boundary,
so a gather and one compare give the index of the nearest value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuantizationError

ZERO_CODE = 0x00
# Elements per block, each with one float32 absmax: the default block size of
# the quantizer, the 8-bit optimizers, their byte counts and the CLI.
BLOCK_SIZE = 2048
# A bucket key is |x|'s float64 bit pattern shifted right by this much: the
# sign bit (always 0), the 11 exponent bits and the top 7 mantissa bits.
BUCKET_SHIFT = 45
_LOOKUP_CHUNK = 1 << 16


def decode_byte(code: int) -> float:
    """Decode a single code byte to its real value."""
    sign = -1.0 if code & 0x80 else 1.0
    tail = code & 0x7F
    if tail == 0:
        return 0.0
    z = 7 - tail.bit_length()  # leading zero bits before the indicator
    frac_bits = 6 - z
    i = tail - (1 << frac_bits)  # strip the indicator bit
    return sign * (10.0 ** -z) * (i + 1) / (1 << frac_bits)


@dataclass(frozen=True)
class DynamicTreeMap:
    """Decode table, its sorted companion and the nearest-code decision table.

    ``values[code]`` is the decoded real value. ``sorted_values`` is the
    strictly increasing array of distinct decoded values (several byte
    patterns share a value; the zero code collapses 0x00/0x80).

    The decision table serves ``nearest_codes``. A boundary is the smallest
    float64 whose nearest non-negative value is the next one up. For bucket
    ``key`` (see ``BUCKET_SHIFT``), ``bucket_counts[key - bucket_base]`` is
    the number of boundaries below the bucket's start and ``bucket_bounds[key
    - bucket_base]`` the boundary inside it, or inf. ``signed_codes[k]`` is
    the smallest code byte decoding to the ``k``-th non-negative value and
    ``signed_codes[k + n]``, with ``n`` the number of non-negative values,
    the code of its negative (0x00 for zero).
    """

    values: np.ndarray
    sorted_values: np.ndarray
    bucket_base: int
    bucket_counts: np.ndarray
    bucket_bounds: np.ndarray
    signed_codes: np.ndarray

    def max_adjacent_gap(self) -> float:
        return float(np.diff(self.sorted_values).max())

    @property
    def boundaries(self) -> np.ndarray:
        """The boundaries in increasing order, one per adjacent value pair."""
        return self.bucket_bounds[np.isfinite(self.bucket_bounds)]


def _switch_points(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest float64 x in (a, b] that the nearest-value rule maps to b.

    The rule maps x to b when ``b - x < x - a`` in float64, a tie going to
    the smaller magnitude a. Both sides are monotone in x, so the rule flips
    once. Adjacent bit patterns of non-negative floats are ``np.nextafter``
    neighbours, so bisecting the patterns finds the flip exactly.
    """
    lo = a.view(np.int64).copy()  # the rule picks a here
    hi = b.view(np.int64).copy()  # and b here
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        x = mid.view(np.float64)
        picks_b = (b - x) < (x - a)
        hi = np.where(picks_b, mid, hi)
        lo = np.where(picks_b, lo, mid)
    return hi.view(np.float64)


def build_dynamic_tree_map() -> DynamicTreeMap:
    values = np.array([decode_byte(c) for c in range(256)], dtype=np.float64)
    order = np.argsort(values, kind="stable")
    sorted_all = values[order]
    uniq_vals = []
    uniq_codes = []
    for code, v in zip(order, sorted_all):
        if uniq_vals and v == uniq_vals[-1]:
            uniq_codes[-1] = min(uniq_codes[-1], int(code))
        else:
            uniq_vals.append(float(v))
            uniq_codes.append(int(code))
    sorted_values = np.array(uniq_vals, dtype=np.float64)
    canonical_codes = np.array(uniq_codes, dtype=np.uint8)  # smallest byte per value

    # the decision table over |x|; there are at most 128 non-negative values,
    # so every index into signed_codes fits a uint8
    nonneg = sorted_values >= 0
    mags, mag_codes = sorted_values[nonneg], canonical_codes[nonneg]
    boundaries = _switch_points(mags[:-1], mags[1:])
    keys = boundaries.view(np.int64) >> BUCKET_SHIFT
    slots = keys - keys[0]
    crowded = int(np.bincount(slots).max())
    if crowded > 1:
        raise AssertionError(f"a bucket holds {crowded} boundaries; lower BUCKET_SHIFT")
    bucket_bounds = np.full(int(slots[-1]) + 1, np.inf)
    bucket_bounds[slots] = boundaries
    holds_one = np.isfinite(bucket_bounds)
    neg_codes = np.where(mag_codes == ZERO_CODE, ZERO_CODE, mag_codes | 0x80)
    return DynamicTreeMap(
        values=values,
        sorted_values=sorted_values,
        bucket_base=int(keys[0]),
        # the boundaries below a bucket's start are those of the buckets before it
        bucket_counts=(np.cumsum(holds_one) - holds_one).astype(np.uint8),
        bucket_bounds=bucket_bounds,
        signed_codes=np.concatenate([mag_codes, neg_codes]).astype(np.uint8),
    )


_DEFAULT_MAP: DynamicTreeMap | None = None


def default_map() -> DynamicTreeMap:
    global _DEFAULT_MAP
    if _DEFAULT_MAP is None:
        _DEFAULT_MAP = build_dynamic_tree_map()
    return _DEFAULT_MAP


@dataclass
class QuantizedState:
    """One quantized state tensor: codes, per-block absmax, block size, shape."""

    codes: np.ndarray  # uint8, flat
    absmax: np.ndarray  # float32, one per block
    block_size: int
    shape: tuple[int, ...]

    @property
    def n_elements(self) -> int:
        return int(self.codes.size)

    @property
    def n_blocks(self) -> int:
        return int(self.absmax.size)

    @property
    def nbytes(self) -> int:
        return self.n_elements + 4 * self.n_blocks


def nearest_codes(normalized: np.ndarray, qmap: DynamicTreeMap) -> np.ndarray:
    """Nearest-code lookup for finite values through the map's bucket table.

    Per element: two gathers from ``|x|``'s bucket (the boundary count below
    it and the boundary inside it), one compare and one gather of the signed
    code. The codes equal the exhaustive scan's, tie rule included. The work
    runs in slices of ``_LOOKUP_CHUNK`` elements so its temporaries stay in
    cache.
    """
    x = np.asarray(normalized, dtype=np.float64)
    codes = np.empty(x.shape, np.uint8)
    x, out = x.reshape(-1), codes.reshape(-1)
    last_bucket = qmap.bucket_counts.size - 1
    n_mags = np.uint8(qmap.signed_codes.size // 2)
    for start in range(0, x.size, _LOOKUP_CHUNK):
        v = x[start : start + _LOOKUP_CHUNK]
        mag = np.abs(v)
        bucket = mag.view(np.int64) >> BUCKET_SHIFT
        bucket -= qmap.bucket_base
        np.clip(bucket, 0, last_bucket, out=bucket)
        k = qmap.bucket_counts.take(bucket)
        k += mag >= qmap.bucket_bounds.take(bucket)
        k += np.signbit(v).view(np.uint8) * n_mags  # negatives: second half
        qmap.signed_codes.take(k, out=out[start : start + _LOOKUP_CHUNK])
    return codes


def nearest_codes_exhaustive(
    tensor: np.ndarray, qmap: DynamicTreeMap | None = None,
    block_size: int = BLOCK_SIZE, chunk: int = 65536,
) -> np.ndarray:
    """Reference codes by brute-force scan over all 256 decode values.

    Recomputes the per-block normalization itself and, per element, picks the
    code minimizing (distance, |value|, code byte) lexicographically. Kept
    deliberately independent of the decision table that ``quantize_blockwise``
    uses, so the two can be checked against each other.
    """
    qmap = qmap or default_map()
    flat = np.asarray(tensor, dtype=np.float64).reshape(-1)
    if flat.size == 0:
        return np.zeros(0, np.uint8)
    offsets = _block_offsets(flat.size, block_size)
    # same normalization contract as the encoder: the float32 block scale
    absmax = np.maximum.reduceat(np.abs(flat), offsets).astype(np.float32)
    scale = _element_scales(absmax, flat.size, block_size)

    values = qmap.values  # indexed by code byte
    mags = np.abs(values)
    out = np.full(flat.size, ZERO_CODE, dtype=np.uint8)
    live_idx = np.flatnonzero(scale > 0)
    normalized = flat[live_idx] / scale[live_idx]
    for start in range(0, normalized.size, chunk):
        v = normalized[start : start + chunk]
        dist = np.abs(v[:, None] - values[None, :])
        best = dist.min(axis=1, keepdims=True)
        tied = dist == best
        mag = np.where(tied, mags[None, :], np.inf)
        tied &= mag == mag.min(axis=1, keepdims=True)
        out[live_idx[start : start + chunk]] = tied.argmax(axis=1)  # first hit: lowest byte
    return out


def _block_offsets(n: int, block_size: int) -> np.ndarray:
    return np.arange(0, n, block_size)


def _element_scales(absmax: np.ndarray, n: int, block_size: int) -> np.ndarray:
    """Each of n elements' block scale as float64: blocks of block_size, the last ragged."""
    lengths = np.full(absmax.size, block_size)
    lengths[-1] = n - block_size * (absmax.size - 1)
    return np.repeat(absmax.astype(np.float64), lengths)


def quantize_blockwise(
    tensor: np.ndarray, qmap: DynamicTreeMap | None = None, block_size: int = BLOCK_SIZE
) -> QuantizedState:
    """Quantize a tensor to 8-bit codes plus per-block absmax scalars.

    Blocks are taken over the row-major flattened tensor; the last block may
    be ragged. An all-zero block stores absmax 0 and the zero code. Raises
    QuantizationError for a non-finite element or for a block whose absmax
    overflows the float32 block scale (about 3.4e38).
    """
    if block_size < 1 or int(block_size) != block_size:
        raise QuantizationError(f"block size must be a positive integer, got {block_size}")
    block_size = int(block_size)
    qmap = qmap or default_map()
    flat = np.array(tensor, dtype=np.float64).reshape(-1)  # a copy, normalized in place
    if flat.size == 0:
        return QuantizedState(
            codes=np.zeros(0, np.uint8),
            absmax=np.zeros(0, np.float32),
            block_size=block_size,
            shape=tuple(np.asarray(tensor).shape),
        )

    offsets = _block_offsets(flat.size, block_size)
    block_max = np.maximum.reduceat(np.abs(flat), offsets)
    if not np.all(np.isfinite(block_max)):  # a NaN or inf sets its block's max
        raise QuantizationError("cannot quantize non-finite elements")
    # normalization is defined against the float32 scalar that will actually
    # be stored, so encode and decode see the same block scale exactly; an
    # all-zero block is divided by 1 and its zeros take the zero code
    with np.errstate(over="ignore"):
        absmax = block_max.astype(np.float32)
    if np.isinf(absmax).any():
        raise QuantizationError(
            f"block absmax {block_max.max():.3g} overflows the float32 block scale"
        )
    flat /= _element_scales(np.where(absmax > 0, absmax, 1), flat.size, block_size)
    codes = nearest_codes(flat, qmap)
    return QuantizedState(
        codes=codes,
        absmax=absmax,
        block_size=block_size,
        shape=tuple(np.asarray(tensor).shape),
    )


def dequantize_blockwise(
    state: QuantizedState, qmap: DynamicTreeMap | None = None, dtype=np.float32
) -> np.ndarray:
    qmap = qmap or default_map()
    if state.n_elements == 0:
        return np.zeros(state.shape, dtype=dtype)
    scale = _element_scales(state.absmax, state.n_elements, state.block_size)
    flat = qmap.values[state.codes] * scale
    return flat.astype(dtype).reshape(state.shape)


def quantized_nbytes(n_elements: int, block_size: int) -> int:
    """Exact stored bytes for an n-element tensor: 1 byte/code + 4 bytes/block absmax."""
    n_blocks = -(-n_elements // block_size)
    return n_elements + 4 * n_blocks
