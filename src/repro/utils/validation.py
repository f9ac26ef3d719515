"""Argument validation helpers shared across the library."""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "check_array",
    "check_binary_codes",
    "check_float_dtype",
    "check_positive",
    "check_positive_int",
]


def check_float_dtype(dtype, *, name: str = "dtype") -> np.dtype:
    """Validate a floating-point dtype spec and return it as ``np.dtype``.

    ``None`` means "the library default" and resolves to float64. This is
    the single gate every ``compute_dtype`` / ``message_dtype`` knob goes
    through, so an integer or object dtype fails at configuration time
    with one consistent message instead of deep inside a GEMM.
    """
    if dtype is None:
        return np.dtype(np.float64)
    dtype = np.dtype(dtype)
    if dtype.kind != "f":
        raise ValueError(f"{name} must be a float dtype, got {dtype}")
    return dtype


def check_array(X, *, name: str = "X", ndim: int = 2, dtype=np.float64) -> np.ndarray:
    """Coerce ``X`` to a contiguous ndarray of the given rank and dtype.

    Raises ``ValueError`` on wrong rank, NaN or Inf entries.
    """
    X = np.ascontiguousarray(X, dtype=dtype)
    if X.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {X.shape}")
    if X.size and not np.isfinite(X).all():
        raise ValueError(f"{name} contains NaN or Inf values")
    return X


def check_binary_codes(Z, *, name: str = "Z") -> np.ndarray:
    """Validate a binary code matrix with entries in {0, 1}.

    Returns a ``uint8`` copy with shape ``(n_points, n_bits)``. The check
    is one pass over the codes: ``bool`` needs none, unsigned integers
    need ``max() <= 1``, and every other dtype (signed, float, where
    -0.0 counts as 0 and NaN as neither) needs each entry equal to 0 or
    1. Only a refusal sorts, to name up to five offending values.
    """
    Z = np.asarray(Z)
    if Z.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {Z.shape}")
    if Z.dtype.kind == "b":
        ok = True
    elif Z.dtype.kind == "u":
        ok = Z.size == 0 or Z.max() <= 1
    else:
        ok = ((Z == 0) | (Z == 1)).all()
    if not ok:
        bad = np.unique(Z[(Z != 0) & (Z != 1)])
        raise ValueError(f"{name} must contain only 0/1 entries, found values {bad[:5]}")
    return Z.astype(np.uint8, copy=True)


def check_positive(x, *, name: str) -> float:
    """Validate a strictly positive real scalar and return it as float."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise TypeError(f"{name} must be a real number, got {type(x)!r}")
    x = float(x)
    if not np.isfinite(x) or x <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {x}")
    return x


def check_positive_int(x, *, name: str) -> int:
    """Validate a strictly positive integer and return it as int."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(x)!r}")
    x = int(x)
    if x <= 0:
        raise ValueError(f"{name} must be >= 1, got {x}")
    return x
