"""Exception types shared across the package, the one guard check, and the float-range refusal."""

from __future__ import annotations

import sys
from collections.abc import Callable
from decimal import ROUND_CEILING, ROUND_FLOOR, Context

import numpy as np

# the one memory budget, in bytes: multiplicity maps, the capped-degree DP,
# the gamma tables, the smallest-prime-factor table, and the k = 2 energy's
# tables to x^(2/3) under its run-time guard
_MEMORY_GUARD = 2**30


class ResourceLimitError(RuntimeError):
    """A guard's refusal, exit code 3 in the CLI, apart from a genuine failure.

    Its message names the limit that was hit and the resource it protects.
    """


def _amount(n: int, rounding: str) -> str:
    # in full below 10^6, else to 3 significant digits rounded the given way;
    # Decimal, not float: 2^pi(x/2) Walsh cells or an int64 bound pass its range
    if n < 10**6:
        return str(n)
    mantissa, exponent = f"{Context(3, rounding=rounding).create_decimal(n):.2e}".split("e")
    return f"{mantissa.rstrip('0').rstrip('.')}e{exponent}"


def refuse_past(subject: str, need: int, limit: int, resource: str, unit: str = "") -> None:
    """Refuse ``subject`` where ``need`` passes ``limit``, naming both and the resource.

    The refusal reads "<subject> needs <need><unit>, past the <limit><unit>
    guard on <resource>", the need rounded up and the limit down.  Amounts
    on memory are bytes and read in MiB.
    """
    if need <= limit:
        return
    if resource == "memory":
        need, limit, unit = -(-need >> 20), limit >> 20, " MiB"
    need, limit = _amount(need, ROUND_CEILING), _amount(limit, ROUND_FLOOR)
    raise ResourceLimitError(
        f"{subject} needs {need}{unit}, past the {limit}{unit} guard on {resource}"
    )


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
