"""Exception types shared across the package, and the float-range refusal."""

from __future__ import annotations

import sys
from collections.abc import Callable

import numpy as np


class ResourceLimitError(RuntimeError):
    """Raised when a requested computation exceeds a documented guard.

    The message names the limit that was hit, so callers (and the CLI,
    which maps this to exit code 3) can distinguish a refusal from a
    genuine internal failure.
    """


def in_float_range(subject: str, value: Callable[[], float | tuple[float, ...]], detail: str = ""):
    """value(), refused with the float range named where it overflows or is not finite.

    value runs with numpy overflow raised, and every float it returns must
    be finite.  The refusal reads "<subject> passes the float range (up to
    1.8e+308)<detail>".
    """
    try:
        with np.errstate(over="raise"):
            result = value()
        finite = bool(np.isfinite(result).all())
    except (OverflowError, FloatingPointError):
        finite = False
    if not finite:
        raise ResourceLimitError(
            f"{subject} passes the float range (up to {sys.float_info.max:.3g}){detail}"
        )
    return result
