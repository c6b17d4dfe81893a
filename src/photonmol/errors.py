import numbers


class SolverError(RuntimeError):
    """Raised when a numerical solve fails (singular/ill-conditioned system,
    unstable integration, or an optimization that finds no usable point)."""


def check_int(value, minimum: int, name: str) -> None:
    """ValueError unless value is an integer (not a bool) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")
