"""Exception taxonomy shared by all modules.

Callers can rely on two categories: ``UsageError`` for contract violations
(bad arguments, bad configuration, mismatched dimensions) and
``NumericError`` for runtime numerical failures (non-finite state, failed
factorizations).  The CLI maps them to exit codes 1 and 2.
"""

import math


class UsageError(ValueError):
    """The caller violated a precondition or supplied invalid input."""


class ConfigError(UsageError):
    """A configuration document is malformed or incomplete."""


class NumericError(RuntimeError):
    """A computation produced non-finite or otherwise unusable values."""

    def __init__(self, message, *, replica=None, eps=None):
        ctx = []
        if eps is not None:
            ctx.append(f"eps={eps:g}")
        if replica is not None:
            ctx.append(f"replica={replica}")
        if ctx:
            message = f"{message} [{', '.join(ctx)}]"
        super().__init__(message)
        self.replica = replica
        self.eps = eps


def require_finite(what, *values, **ctx):
    """Raise ``NumericError`` naming ``what`` (and ``ctx``, as
    ``NumericError`` takes it) unless every value is finite."""
    if not all(map(math.isfinite, values)):
        raise NumericError(f"{what} is not finite", **ctx)
