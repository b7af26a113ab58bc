"""Unit tests for analysis statistics helpers."""

import pytest

from repro.analysis.stats import (
    coefficient_of_variation,
    iqr,
    relative_error,
    within_factor,
)


class TestRelativeError:
    def test_basic(self):
        assert relative_error(1.1, 1.0) == pytest.approx(0.1)

    def test_zero_reference(self):
        assert relative_error(1.0, 0.0) == float("inf")
        assert relative_error(0.0, 0.0) == 0.0


class TestWithinFactor:
    def test_inside(self):
        assert within_factor(1.5, 1.0, 2.0)
        assert within_factor(0.6, 1.0, 2.0)

    def test_outside(self):
        assert not within_factor(2.5, 1.0, 2.0)
        assert not within_factor(0.4, 1.0, 2.0)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            within_factor(1.0, 1.0, 0.5)

    def test_nonpositive_values(self):
        assert within_factor(0.0, 0.0, 2.0)
        assert not within_factor(0.0, 1.0, 2.0)


class TestDispersion:
    def test_cv(self):
        assert coefficient_of_variation([1.0, 1.0]) == 0.0
        assert coefficient_of_variation([1.0, 3.0]) == pytest.approx(0.5)

    def test_cv_empty_nan(self):
        import math

        assert math.isnan(coefficient_of_variation([]))

    def test_iqr(self):
        values = list(range(101))
        assert iqr(values) == pytest.approx(50.0)
