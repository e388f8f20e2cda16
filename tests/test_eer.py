"""Equal-error-rate computation and cosine trial scoring."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from revmem.eer import cosine_scores, eer_from_scores, read_score_file
from revmem.errors import ConfigError

scores = st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=30)


class TestEer:
    def test_three_score_example(self):
        # threshold sweep crosses at FAR = FRR = 1/3
        assert eer_from_scores([0.9, 0.8, 0.7], [0.75, 0.3, 0.1]) == pytest.approx(1 / 3, abs=1e-9)

    def test_perfect_separation(self):
        assert eer_from_scores([0.9, 0.8], [0.2, 0.1]) == 0.0

    def test_identical_multisets(self):
        assert eer_from_scores([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == pytest.approx(0.5)
        assert eer_from_scores([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            eer_from_scores([], [0.1])
        with pytest.raises(ConfigError):
            eer_from_scores([0.1], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            eer_from_scores([0.9, bad], [0.1])
        with pytest.raises(ConfigError, match="finite"):
            eer_from_scores([0.9], [bad, 0.1])

    def test_interpolated_crossing(self):
        # FAR and FRR never evaluate equal here; the crossing is interpolated
        value = eer_from_scores([0.6, 0.7, 0.8], [0.65, 0.1])
        assert 0.0 < value < 0.5

    @given(scores, scores)
    @settings(max_examples=60, deadline=None)
    def test_canonical_range(self, pos, neg):
        e = eer_from_scores(pos, neg)
        canonical = min(e, 1.0 - e)
        assert 0.0 <= canonical <= 0.5

    @given(scores, scores)
    @settings(max_examples=60, deadline=None)
    def test_negation_swap_symmetry(self, pos, neg):
        assume(not set(np.round(pos, 6)).intersection(np.round(neg, 6)))
        a = eer_from_scores(pos, neg)
        b = eer_from_scores([-v for v in neg], [-v for v in pos])
        assert a == pytest.approx(b, abs=1e-9)


class TestCosineScores:
    def test_separable_classes_give_zero_eer(self, rng):
        centers = np.eye(3)
        emb = np.repeat(centers, 4, axis=0) + 0.01 * rng.normal(size=(12, 3))
        labels = np.repeat(np.arange(3), 4)
        pos, neg = cosine_scores(emb, labels)
        assert pos.size == 3 * 6 and neg.size == 66 - 18
        assert eer_from_scores(pos, neg) == 0.0

    def test_scale_invariance(self, rng):
        emb = rng.normal(size=(6, 4))
        labels = np.array([0, 0, 1, 1, 2, 2])
        a = cosine_scores(emb, labels)
        b = cosine_scores(emb * 7.5, labels)
        np.testing.assert_allclose(a[0], b[0], rtol=1e-12)


    def test_non_finite_or_zero_rows_rejected(self):
        labels = [0, 0, 1]
        with pytest.raises(ConfigError, match="finite"):
            cosine_scores(np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]]), labels)
        with pytest.raises(ConfigError, match="row 2 has zero norm"):
            cosine_scores(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]), labels)


class TestScoreFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("target 0.9\nnontarget 0.2\ntarget 0.7\n\n")
        pos, neg = read_score_file(path)
        np.testing.assert_array_equal(pos, [0.9, 0.7])
        np.testing.assert_array_equal(neg, [0.2])

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("bogus 0.9\n")
        with pytest.raises(ConfigError, match="expected"):
            read_score_file(path)
