import numbers
from collections.abc import Mapping

import numpy as np


class SolverError(RuntimeError):
    """Raised when a numerical solve fails (singular/ill-conditioned system,
    unstable integration, or an optimization that finds no usable point)."""


def check_int(value, minimum: int, name: str) -> None:
    """ValueError unless value is an integer (not a bool) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def check_number(value, name: str) -> float:
    """value as a Python float; ValueError unless it is a real number (not a
    bool, not a string) that fits a float."""
    # float first: a float then skips the slower numbers.Real check.
    if not isinstance(value, bool) and isinstance(value, (float, numbers.Real)):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a number that fits a float, got {value!r}")


def check_numbers(values, name: str) -> np.ndarray:
    """values as a float array; ValueError unless it is a number or an
    array or (nested) list or tuple of numbers that fit a float: integers
    or floats, none of them a bool, a string or complex."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        got = array.dtype
    elif isinstance(values, (list, tuple)) and any(
            isinstance(value, (bool, np.bool_)) for value in np.asarray(values, dtype=object).flat):
        got = "a bool"  # numpy reads [0.01, True] as floats and [True, 1] as integers
    else:
        return array.astype(float, copy=False)
    raise ValueError(f"{name} must be numbers that fit a float, got {got}")


def check_fields(data, what: str, allowed, required=()) -> None:
    """ValueError unless data is a mapping whose keys are all in allowed and
    include every name in required."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown, key=str)}")
    missing = [name for name in required if name not in data]
    if missing:
        raise ValueError(f"{what} is missing fields: {missing}")
