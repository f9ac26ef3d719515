import numpy as np
import pytest

from repro.utils.validation import (
    check_array,
    check_binary_codes,
    check_float_dtype,
    check_positive,
    check_positive_int,
)


class TestCheckArray:
    def test_accepts_list(self):
        X = check_array([[1.0, 2.0], [3.0, 4.0]])
        assert X.dtype == np.float64 and X.shape == (2, 2)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_array(np.zeros(3))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            check_array(np.array([[np.nan, 1.0]]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            check_array(np.array([[np.inf, 1.0]]))

    def test_custom_ndim(self):
        assert check_array(np.zeros(4), ndim=1).shape == (4,)

    def test_contiguous_output(self):
        X = np.zeros((4, 4))[::2]
        assert check_array(X).flags["C_CONTIGUOUS"]


class TestCheckBinaryCodes:
    def test_accepts_01(self):
        Z = check_binary_codes(np.array([[0, 1], [1, 0]]))
        assert Z.dtype == np.uint8

    def test_rejects_other_values(self):
        with pytest.raises(ValueError, match="0/1"):
            check_binary_codes(np.array([[0, 2]]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_binary_codes(np.array([0, 1]))

    def test_returns_copy(self):
        Z = np.array([[0, 1]], dtype=np.uint8)
        out = check_binary_codes(Z)
        out[0, 0] = 1
        assert Z[0, 0] == 0


class TestScalars:
    def test_positive_float(self):
        assert check_positive(2.5, name="x") == 2.5

    @pytest.mark.parametrize("bad", [0, -1.0, np.inf, np.nan])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            check_positive(bad, name="x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive(True, name="x")

    def test_positive_int(self):
        assert check_positive_int(3, name="n") == 3

    def test_int_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, name="n")

    def test_int_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(2.0, name="n")


class TestCheckFloatDtype:
    def test_none_is_float64(self):
        assert check_float_dtype(None) == np.float64

    @pytest.mark.parametrize("spec", [np.float32, "float16", "<f8"])
    def test_float_specs_pass_as_dtypes(self, spec):
        assert check_float_dtype(spec) == np.dtype(spec)

    @pytest.mark.parametrize("spec", [np.int32, "u1", bool, object])
    def test_non_float_rejected_by_name(self, spec):
        with pytest.raises(ValueError, match="message_dtype must be a float"):
            check_float_dtype(spec, name="message_dtype")
