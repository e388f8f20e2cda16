"""Dynamic-tree decode table and the blockwise 8-bit codec."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revmem import quant
from revmem.errors import QuantizationError


@pytest.fixture(scope="module")
def qmap():
    return quant.build_dynamic_tree_map()


def canonical_codes(qmap, values):
    """The smallest code byte decoding to each of values."""
    return np.array([np.flatnonzero(qmap.values == v).min() for v in values], np.uint8)


def exhaustive_decode_table():
    """Independent decode enumeration: walk the 7 tail bits explicitly."""
    vals = []
    for code in range(256):
        sign = -1.0 if code >= 128 else 1.0
        bits = [(code >> k) & 1 for k in range(6, -1, -1)]
        z = 0
        while z < 7 and bits[z] == 0:
            z += 1
        if z == 7:
            vals.append(0.0)
            continue
        frac_bits = bits[z + 1:]
        i = 0
        for b in frac_bits:
            i = 2 * i + b
        vals.append(sign * 10.0 ** (-z) * (i + 1) / 2 ** len(frac_bits))
    return np.array(vals)


class TestDecodeTable:
    def test_matches_exhaustive_enumeration(self, qmap):
        np.testing.assert_array_equal(qmap.values, exhaustive_decode_table())

    def test_endpoints_present(self, qmap):
        assert qmap.values[0x7F] == 1.0  # sign +, no exponent zeros, max fraction
        assert qmap.values[0xFF] == -1.0
        assert qmap.values[0x00] == 0.0
        assert qmap.values[0x80] == 0.0

    def test_range_and_symmetry(self, qmap):
        v = qmap.values
        assert v.min() == -1.0 and v.max() == 1.0
        assert set(v.tolist()) == set((-v).tolist())

    def test_smallest_magnitude_and_top_spacing(self, qmap):
        pos = qmap.values[qmap.values > 0]
        assert pos.min() <= 1e-6
        top = np.sort(pos)[-2:]
        assert top[1] - top[0] == pytest.approx(1 / 64)

    def test_sorted_companion_strictly_increasing(self, qmap):
        assert np.all(np.diff(qmap.sorted_values) > 0)

    def test_canonical_codes_decode_to_sorted_values(self, qmap):
        # the encoder's codes: the smallest byte for each non-negative sorted
        # value, then for its negative
        mags = qmap.sorted_values[qmap.sorted_values >= 0]
        signed = np.concatenate([mags, -mags])
        np.testing.assert_array_equal(qmap.values[qmap.signed_codes], signed)
        np.testing.assert_array_equal(qmap.signed_codes, canonical_codes(qmap, signed))

    def test_monotone_within_exponent_class(self, qmap):
        # for a fixed zero-run, the fraction bits order the values
        for sign_bit in (0x00, 0x80):
            for z in range(6):
                lead = 1 << (6 - z)
                codes = [sign_bit | (lead + i) for i in range(lead)]
                vals = qmap.values[codes]
                diffs = np.diff(vals)
                assert np.all(diffs > 0) if sign_bit == 0 else np.all(diffs < 0)


class TestQuantize:
    def test_zero_block(self, qmap):
        state = quant.quantize_blockwise(np.zeros(10, np.float32), qmap, 4)
        assert np.all(state.absmax == 0)
        assert np.all(state.codes == quant.ZERO_CODE)
        np.testing.assert_array_equal(
            quant.dequantize_blockwise(state, qmap), np.zeros(10, np.float32))

    def test_nbytes_arithmetic(self, qmap, rng):
        x = rng.normal(size=10_000).astype(np.float32)
        state = quant.quantize_blockwise(x, qmap, 2048)
        assert state.nbytes == 10_000 + 4 * 5
        assert quant.quantized_nbytes(10_000, 2048) == state.nbytes

    def test_scaled_map_values_roundtrip_bit_exact(self, qmap):
        # every normalized value is exactly a code value, so the roundtrip is
        # the identity; the scale must be float32-representable since absmax
        # is stored as float32
        for c in (0.375, 1.0, 2.0, 3.0, 2.0**-7):
            tensor = (qmap.values * c).astype(np.float32)
            state = quant.quantize_blockwise(tensor, qmap, 256)
            back = quant.dequantize_blockwise(state, qmap, np.float32)
            np.testing.assert_array_equal(back, tensor)
            assert state.absmax[0] == np.float32(c)

    def test_single_element_blocks_roundtrip_exactly(self, qmap, rng):
        x = rng.normal(size=257).astype(np.float32)
        state = quant.quantize_blockwise(x, qmap, 1)
        back = quant.dequantize_blockwise(state, qmap, np.float32)
        np.testing.assert_array_equal(back, x)

    @pytest.mark.parametrize("block", [1, 7, 2048, 5000])
    def test_codes_match_linear_scan_oracle(self, qmap, block, rng):
        x = rng.normal(size=20000).astype(np.float32)
        got = quant.quantize_blockwise(x, qmap, block).codes
        ref = quant.nearest_codes_exhaustive(x, qmap, block)
        assert np.array_equal(got, ref)

    def test_ties_break_toward_smaller_magnitude(self, qmap):
        # 62/64 and 63/64 are adjacent codes; their midpoint 125/128 is exact
        # in binary, so both distances tie and the smaller magnitude must win
        block = np.array([125 / 128, 1.0])  # absmax 1 keeps normalization exact
        state = quant.quantize_blockwise(block, qmap, 2)
        assert qmap.values[state.codes[0]] == 62 / 64
        ref = quant.nearest_codes_exhaustive(block, qmap, 2)
        assert np.array_equal(state.codes, ref)

    def test_non_finite_rejected(self, qmap):
        with pytest.raises(QuantizationError, match="non-finite"):
            quant.quantize_blockwise(np.array([1.0, np.nan]), qmap, 2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_rejected(self, qmap, bad):
        # the finiteness check reads block maxima; an inf must still trip it
        with pytest.raises(QuantizationError, match="non-finite"):
            quant.quantize_blockwise(np.array([0.5, 0.25, bad]), qmap, 2)

    def test_float32_scale_overflow_rejected(self, qmap):
        # a float64 block maximum above the float32 range would store absmax
        # inf and dequantize to NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuantizationError, match="float32"):
                quant.quantize_blockwise(np.array([1e39, 1.0, -2.0]), qmap, 4)
        top = float(np.finfo(np.float32).max)
        state = quant.quantize_blockwise(np.array([top, -1.0]), qmap, 4)
        assert state.absmax[0] == np.float32(top)

    def test_peak_memory_stays_near_input_size(self, qmap, rng):
        x = rng.normal(size=327_680).astype(np.float32)
        quant.quantize_blockwise(x[:10], qmap)  # warm lazily built state
        tracemalloc.start()
        try:
            quant.quantize_blockwise(x, qmap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * x.nbytes  # 4.0x here, 23x with the search-based encoder

    def test_block_count_rule(self, qmap, rng):
        x = rng.normal(size=5000).astype(np.float32)
        state = quant.quantize_blockwise(x, qmap, 2048)
        assert state.n_blocks == -(-5000 // 2048) == 3

    def test_roundtrip_error_within_gap_bound(self, qmap, rng):
        x = rng.normal(size=8192)
        state = quant.quantize_blockwise(x, qmap, 512)
        back = quant.dequantize_blockwise(state, qmap, np.float64)
        bound = np.repeat(state.absmax.astype(np.float64), 512) * qmap.max_adjacent_gap() / 2
        assert np.all(np.abs(back - x) <= bound * (1 + 1e-9))

    @given(st.integers(-6, 6))
    @settings(max_examples=13, deadline=None)
    def test_scale_equivariance_power_of_two(self, qmap, k):
        # absmax normalization cancels the scale; exact for binary scales
        # (general scales agree to rounding)
        rng = np.random.default_rng(k + 10)
        x = rng.normal(size=512).astype(np.float32)
        c = np.float32(2.0**k)
        a = quant.dequantize_blockwise(quant.quantize_blockwise(x * c, qmap, 64), qmap)
        b = quant.dequantize_blockwise(quant.quantize_blockwise(x, qmap, 64), qmap) * c
        np.testing.assert_array_equal(a, b)

    def test_scale_equivariance_general_scale_approx(self, qmap, rng):
        x = rng.normal(size=512).astype(np.float32)
        a = quant.dequantize_blockwise(quant.quantize_blockwise(x * 0.37, qmap, 64), qmap)
        b = quant.dequantize_blockwise(quant.quantize_blockwise(x, qmap, 64), qmap) * 0.37
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-9)

    def test_nonnegative_inputs_decode_nonnegative(self, qmap, rng):
        x = np.abs(rng.normal(size=4096)).astype(np.float32)
        back = quant.dequantize_blockwise(quant.quantize_blockwise(x, qmap, 128), qmap)
        assert np.all(back >= 0)


def searchsorted_rule_codes(tensor, qmap, block_size):
    """Codes by binary search over the sorted values, the earlier encoder.

    Normalizes like ``quantize_blockwise`` (float32 block absmax, all-zero
    blocks take the zero code), then picks the nearer of the two sorted
    neighbours, a tie going to the smaller magnitude.
    """
    flat = np.asarray(tensor, dtype=np.float64).reshape(-1)
    offsets = np.arange(0, flat.size, block_size)
    absmax = np.maximum.reduceat(np.abs(flat), offsets).astype(np.float32)
    scale = np.repeat(absmax.astype(np.float64), np.diff(np.append(offsets, flat.size)))
    codes = np.full(flat.size, quant.ZERO_CODE, np.uint8)
    live = scale > 0
    normalized = flat[live] / scale[live]
    sv = qmap.sorted_values
    pos = np.searchsorted(sv, normalized)
    lo = np.clip(pos - 1, 0, sv.size - 1)
    hi = np.clip(pos, 0, sv.size - 1)
    dlo = np.abs(normalized - sv[lo])
    dhi = np.abs(sv[hi] - normalized)
    pick_hi = (dhi < dlo) | ((dhi == dlo) & (np.abs(sv[hi]) < np.abs(sv[lo])))
    codes[live] = canonical_codes(qmap, sv)[np.where(pick_hi, hi, lo)]
    return codes


class TestDecisionTable:
    def test_one_boundary_per_adjacent_pair(self, qmap):
        mags = qmap.sorted_values[qmap.sorted_values >= 0]
        b = qmap.boundaries
        assert b.size == mags.size - 1
        assert np.all((mags[:-1] < b) & (b <= mags[1:]))

    def test_boundaries_are_where_the_rule_flips(self, qmap):
        mags = qmap.sorted_values[qmap.sorted_values >= 0]
        a, c = mags[:-1], mags[1:]
        b = qmap.boundaries
        below = np.nextafter(b, 0)
        assert np.all((c - b) < (b - a))  # the boundary picks the upper value
        assert np.all((c - below) >= (below - a))  # one ulp below picks the lower

    def test_buckets_hold_at_most_one_boundary(self, qmap):
        bits = qmap.boundaries.view(np.int64)
        keys = bits >> quant.BUCKET_SHIFT
        assert np.unique(keys).size == keys.size
        starts = (qmap.bucket_base + np.arange(qmap.bucket_counts.size)) << quant.BUCKET_SHIFT
        np.testing.assert_array_equal(qmap.bucket_counts, np.searchsorted(bits, starts))

    def test_boundary_sweep_matches_oracle_and_searchsorted_rule(self, qmap):
        b = qmap.boundaries
        near = [b]
        down, up = b, b
        for _ in range(2):
            down, up = np.nextafter(down, 0), np.nextafter(up, 2)
            near += [down, up]
        tiny = np.array([0.0, 5e-324, 1e-320, np.finfo(np.float64).tiny,
                         np.nextafter(0, 1) * 3, 1.0, np.nextafter(1.0, 0)])
        mags = np.unique(np.concatenate(near + [tiny]))
        mags = mags[mags <= 1.0]
        x = np.concatenate([mags, -mags])
        # each swept value shares a block with 1.0, so it is its own normalized value
        pairs = np.stack([x, np.ones_like(x)], axis=1).reshape(-1)
        # absmax just above 1 rounds down to a float32 1.0: normalized values > 1
        above = [1 + 2.0**-30, 1 + 2.0**-25, np.nextafter(1.0, 2)]
        assert all(np.float32(v) == 1.0 for v in above)
        edge = [(a, -a) for a in above] + [(-a, 0.25) for a in above]
        edge += [(0.0, -0.0), (-0.0, -0.0)]  # all-zero blocks take the zero code
        tensor = np.concatenate([pairs, np.array(edge).reshape(-1), [-0.25]])
        got = quant.quantize_blockwise(tensor, qmap, 2).codes
        np.testing.assert_array_equal(got, quant.nearest_codes_exhaustive(tensor, qmap, 2))
        np.testing.assert_array_equal(got, searchsorted_rule_codes(tensor, qmap, 2))
        # the swept values land on both sides of every boundary
        assert np.unique(got[: pairs.size : 2]).size == qmap.sorted_values.size

