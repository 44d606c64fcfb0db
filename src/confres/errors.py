"""Exception hierarchy shared across the package, and the type tests of
parameters that raise it.

The CLI exits 2 on `InputError` and its subclasses, which cover every
fault in what a user passes in: files, parameters and data the numerics
cannot work with.  Any other exception is an internal failure (exit 1).
"""

import numbers


class ConfresError(Exception):
    """Base class for all package errors."""


class InputError(ConfresError):
    """Bad user-supplied data (files, labels, indices, weights)."""


class ParameterError(InputError):
    """Out-of-range or inconsistent parameter value."""


class NumericalError(InputError):
    """Input data on which the numerics degenerate (e.g. all-zero
    similarities, or all points identical)."""


def check_integer(name, value, least=None):
    """Raise ParameterError unless `value` is an integer (a
    numbers.Integral, never a bool), and with `least` one >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")


def check_real(name, value):
    """Raise ParameterError unless `value` is a real number: a
    numbers.Real, never a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
