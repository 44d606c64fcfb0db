"""Exception hierarchy shared across the package.

The CLI exits 2 on `InputError` and its subclasses, which cover every
fault in what a user passes in: files, parameters and data the numerics
cannot work with.  Any other exception is an internal failure (exit 1).
"""


class ConfresError(Exception):
    """Base class for all package errors."""


class InputError(ConfresError):
    """Bad user-supplied data (files, labels, indices, weights)."""


class ParameterError(InputError):
    """Out-of-range or inconsistent parameter value."""


class NumericalError(InputError):
    """Input data on which the numerics degenerate (e.g. all-zero
    similarities, or all points identical)."""
