import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def check_binary_codes_unique(Z, *, name="Z"):
    """The sorting form of ``check_binary_codes``: the oracle its one-pass
    check must agree with."""
    Z = np.asarray(Z)
    if Z.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {Z.shape}")
    vals = np.unique(Z)
    if not np.isin(vals, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0/1 entries, found values {vals[:5]}")
    return Z.astype(np.uint8, copy=True)


CODE_DTYPES = (np.bool_, np.uint8, np.uint64, np.int8, np.int64, np.float32, np.float64)
CODE_VALUES = (0, 1, True, -0.0, 2, 0.5, -1, 255, np.nan, np.inf, -np.inf)


def _exact(values, dtype):
    """The entries of ``values`` that ``dtype`` holds exactly (NaN in a
    float dtype included): a cast must not turn 0.5 or 255 into a 0/1."""
    out = []
    for v in values:
        with np.errstate(invalid="ignore", over="ignore"):
            x = np.array([float(v)]).astype(dtype)
        back = float(x[0])
        if back == float(v) or (np.isnan(back) and np.isnan(float(v))):
            out.append(v)
    return out


@st.composite
def code_candidates(draw, max_bits=9):
    """Matrices of any of ``CODE_DTYPES``, zero rows and columns included,
    whose entries are 0, 1 and at most two more of ``CODE_VALUES``, so
    that both outcomes of the check are common."""
    dtype = draw(st.sampled_from(CODE_DTYPES))
    pool = [0, 1] + draw(st.lists(st.sampled_from(_exact(CODE_VALUES, dtype)), max_size=2))
    n, L = draw(st.integers(0, 5)), draw(st.integers(0, max_bits))
    cells = draw(st.lists(st.sampled_from(pool), min_size=n * L, max_size=n * L))
    return np.array([float(v) for v in cells]).astype(dtype).reshape(n, L)


def refusal(check, Z):
    """The ``ValueError`` message ``check`` raises on ``Z``, or None."""
    try:
        check(Z)
    except ValueError as e:
        return str(e)
    return None


class TestCheckBinaryCodes:
    @given(code_candidates())
    def test_agrees_with_sorting_oracle(self, Z):
        got = refusal(check_binary_codes, Z)
        assert (got is None) == (refusal(check_binary_codes_unique, Z) is None)
        if got is not None:
            assert "0/1" in got
            return
        out = check_binary_codes(Z)
        assert out.dtype == np.uint8 and not np.shares_memory(out, Z)
        assert np.array_equal(out, check_binary_codes_unique(Z))
        assert np.array_equal(out, Z)

    @pytest.mark.parametrize("dtype", CODE_DTYPES)
    def test_every_value_beside_0_and_1(self, dtype):
        # Each value the dtype holds, among 0s and 1s: the property above
        # mixes them at random, this visits every one.
        for v in _exact(CODE_VALUES, dtype):
            Z = np.array([[0.0, 1.0, float(v)]]).astype(dtype)
            want = refusal(check_binary_codes_unique, Z)
            assert (refusal(check_binary_codes, Z) is None) == (want is None), v

    def test_refusal_names_offending_values(self):
        with pytest.raises(ValueError, match=r"found values \[-1\.\s+0\.5\s+2\.\s*\]"):
            check_binary_codes(np.array([[0, 2, 1], [0.5, -1, -0.0]]))

    def test_unsigned_beyond_one_refused(self):
        with pytest.raises(ValueError, match=r"found values \[255\]"):
            check_binary_codes(np.array([[1, 255]], dtype=np.uint8))

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
