"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: DataError -> 2, DivergenceError -> 3.
"""


class DataError(ValueError):
    """Malformed or contract-violating input data."""


class ClipTooShortError(DataError):
    """A clip too short for the stage asked of it."""


class DivergenceError(RuntimeError):
    """Numerical divergence during iterative fitting."""
