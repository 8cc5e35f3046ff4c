"""Tests for the argument-validation helpers."""

import math

import pytest

from repro.util.validation import (
    require,
    require_finite,
    require_identifier,
    require_int,
    require_non_negative,
    require_positive,
    require_type,
)


class TestRequire:
    def test_passes_when_true(self):
        require(True, "should not raise")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")


class TestRequireType:
    def test_accepts_matching_type(self):
        require_type(5, int, "value")
        require_type("x", (int, str), "value")

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError, match="value must be int"):
            require_type("5", int, "value")

    def test_error_mentions_alternatives(self):
        with pytest.raises(TypeError, match="int or str"):
            require_type(1.5, (int, str), "value")


class TestNumericChecks:
    def test_positive_accepts_positive(self):
        require_positive(0.001, "delay")

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_positive_rejects_non_positive(self, value):
        with pytest.raises(ValueError):
            require_positive(value, "delay")

    def test_non_negative_accepts_zero(self):
        require_non_negative(0, "count")

    def test_non_negative_rejects_negative(self):
        with pytest.raises(ValueError):
            require_non_negative(-0.1, "count")


    @pytest.mark.parametrize("check", [require_positive, require_non_negative])
    def test_nan_rejected(self, check):
        with pytest.raises(ValueError, match="got nan"):
            check(math.nan, "delay")

    def test_finite_accepts_finite(self):
        require_finite(0.0, "offset")
        require_finite(-3, "offset")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_finite_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="offset must be finite"):
            require_finite(value, "offset")

    def test_error_type_is_configurable(self):
        with pytest.raises(KeyError):
            require_finite(math.nan, "offset", KeyError)
        with pytest.raises(KeyError):
            require_positive(0, "delay", KeyError)
        with pytest.raises(KeyError):
            require_non_negative(-1, "count", KeyError)


class TestRequireInt:
    @pytest.mark.parametrize("value, minimum", [(0, 0), (1, 1), (7, 1), (10**12, 1)])
    def test_accepts_ints_at_or_above_the_minimum(self, value, minimum):
        require_int(value, "count", minimum)

    @pytest.mark.parametrize("value", [True, False, 2.0, 2.5, "3", None, math.nan])
    def test_rejects_non_ints_and_bools(self, value):
        with pytest.raises(ValueError, match="count must be an int of at least 0"):
            require_int(value, "count", 0)

    def test_rejects_below_the_minimum(self):
        with pytest.raises(KeyError, match="count must be an int of at least 1, got 0"):
            require_int(0, "count", 1, KeyError)


class TestRequireIdentifier:
    @pytest.mark.parametrize("name", ["x", "add", "operation_12", "_private", "CamelCase"])
    def test_accepts_legal_identifiers(self, name):
        require_identifier(name, "name")

    @pytest.mark.parametrize("name", ["", "1abc", "has space", "has-dash", "dot.ted", None, 42])
    def test_rejects_illegal_identifiers(self, name):
        with pytest.raises(ValueError):
            require_identifier(name, "name")

    @pytest.mark.parametrize("name", ["class", "return", "def", "lambda"])
    def test_rejects_keywords(self, name):
        with pytest.raises(ValueError, match="reserved keyword"):
            require_identifier(name, "name")
