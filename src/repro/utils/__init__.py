"""Small shared utilities: RNG handling, argument validation, parameter packing."""

from repro.utils.rng import check_random_state, keyed_rng
from repro.utils.validation import (
    check_array,
    check_binary_codes,
    check_positive,
    check_positive_int,
)

__all__ = [
    "check_random_state",
    "keyed_rng",
    "check_array",
    "check_binary_codes",
    "check_positive",
    "check_positive_int",
]
