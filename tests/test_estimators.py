import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpboot import (
    EstimatorKind,
    Population,
    Sample,
    estimate,
    sample_variance,
    unit_values,
)

scores = st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=1, max_size=60)
flags = st.lists(st.booleans(), min_size=1, max_size=60)


def mncs(values):
    """MNCS of a population with these scores (flags all clear)."""
    return estimate(EstimatorKind.MNCS, Population(values, [False] * len(values)))


def pp_top10(values):
    """PP(top 10%) of a population with these flags (scores all 1)."""
    return estimate(EstimatorKind.PP_TOP10, Population([1.0] * len(values), values))


class TestMncs:
    def test_constant(self):
        assert mncs([1.0, 1.0, 1.0]) == 1.0

    def test_two_point_mean(self):
        assert mncs([0.0, 2.55]) == pytest.approx(1.275, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mncs([])

    @given(scores)
    def test_permutation_invariant(self, values):
        shuffled = list(reversed(values))
        assert mncs(values) == pytest.approx(mncs(shuffled), rel=1e-12, abs=1e-12)

    @given(scores, scores)
    def test_concatenation_is_weighted_mean(self, a, b):
        combined = mncs(a + b)
        weighted = (len(a) * mncs(a) + len(b) * mncs(b)) / (len(a) + len(b))
        assert combined == pytest.approx(weighted, rel=1e-9, abs=1e-9)


class TestPpTop10:
    def test_one_in_ten(self):
        assert pp_top10([True] + [False] * 9) == 10.0

    def test_all_false(self):
        assert pp_top10([False] * 7) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pp_top10([])

    @given(flags)
    def test_range_and_flag_mean_identity(self, values):
        pp = pp_top10(values)
        assert 0.0 <= pp <= 100.0
        as_scores = 100.0 * mncs([1.0 if v else 0.0 for v in values])
        assert pp == pytest.approx(as_scores, rel=1e-12, abs=1e-12)


class TestSampleVariance:
    def test_textbook(self):
        assert sample_variance([1.0, 2.0, 3.0]) == 1.0

    def test_constant_is_exact_zero(self):
        assert sample_variance([2.7] * 9) == 0.0

    def test_hand_computed(self):
        # mean 1, squared deviations 1+1+1+9, divided by 3
        assert sample_variance([0.0, 0.0, 0.0, 4.0]) == 4.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            sample_variance([1.0])

    @pytest.mark.parametrize("values, got", [(["1", "2"], "'1'"), ([1.0, math.nan], "nan"), ([1.0, math.inf], "inf")])
    def test_values_are_finite_numbers(self, values, got):
        # strings used to give 0.5, and nan or inf a nan
        with pytest.raises(ValueError, match=f"^each value must be a finite number, got {got}$"):
            sample_variance(values)

    def test_values_are_1d(self):
        # a 2 x 2 list used to give the variance of its flattened values
        message = re.escape("sample_variance requires a 1-d array of at least two values, got shape (2, 2)")
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_variance([[1.0, 2.0], [3.0, 4.0]])


class TestUnitValues:
    def test_unit_values_scale(self):
        pop = Population([1.5, 2.5], [True, False])
        assert unit_values(EstimatorKind.PP_TOP10, pop).tolist() == [100.0, 0.0]
        assert unit_values(EstimatorKind.MNCS, pop).tolist() == [1.5, 2.5]
        sample = Sample([1], [2.5], [False], 2)
        assert unit_values(EstimatorKind.PP_TOP10, sample).tolist() == [0.0]
        assert unit_values(EstimatorKind.MNCS, sample).tolist() == [2.5]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator kind"):
            unit_values("mncs", Population([1.0], [False]))
