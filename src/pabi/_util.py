"""Small shared helpers, the lazy numpy handle and the one table of parameter rules."""

from __future__ import annotations

import functools
import math

from .errors import PreconditionError


class _Numpy:
    """numpy, imported at the first attribute read, so that importing pabi,
    and a query that builds no array, leaves it unloaded.

    Each attribute read is stored on the handle, so that later reads skip
    __getattr__; a numpy attribute patched after pabi first read it is
    therefore not seen.
    """

    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()


def out_of_range(err: OverflowError) -> PreconditionError:
    """The refusal of finite inputs whose formula overflows the float range."""
    return PreconditionError("out_of_range", f"the inputs overflow the float range: {err}")


def refuses_overflow(fn):
    """fn, with an OverflowError that escapes it raised as out_of_range(err)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as err:
            raise out_of_range(err) from None
    return wrapper


def require(condition, code: str, message: str, required_value=None) -> None:
    if not condition:
        raise PreconditionError(code, message, required_value=required_value)


_POSITIVE = ("strictly positive and finite", lambda x: 0 < x < math.inf)
_NONNEGATIVE = ("nonnegative and finite", lambda x: 0 <= x < math.inf)
# the range test comes first because int() raises on nan and inf
_POSITIVE_INTEGER = ("a positive integer", lambda x: 1 <= x < math.inf and int(x) == x)

# name -> (error code, (rule, predicate)).  Every public entry point taking
# one of these parameters validates it here, so each name has one code and
# one rule across the package.  Chained comparisons refuse nan.
RULES = {
    "D": ("diameter", _POSITIVE),
    "eta": ("stepsize", _POSITIVE),
    "p": ("smoothness_order", ("in [0, 1]", lambda x: 0 <= x <= 1)),
    "M": ("growth_constant", _POSITIVE),
    "L": ("lipschitz", _POSITIVE),
    "beta": ("smoothness", _POSITIVE),
    "kappa": ("dissipativity_rate", _POSITIVE),
    "lam": ("dissipativity_offset", _NONNEGATIVE),
    "h": ("offset", _NONNEGATIVE),
    "eps": ("accuracy", ("strictly in (0, 1)", lambda x: 0 < x < 1)),
    "n": ("dataset_size", _POSITIVE_INTEGER),
    "horizon": ("horizon", _POSITIVE_INTEGER),
}


def check(**values) -> None:
    """Refuse the first named value that breaks its RULES row."""
    for name, value in values.items():
        code, (rule, ok) = RULES[name]
        if not ok(value):
            raise PreconditionError(code, f"{name} must be {rule}, got {value!r}")


def integer(name: str, value, code: str, lo: int, hi: float = math.inf) -> int:
    """value as an int; refused with code unless it is an integer in [lo, hi]."""
    # the range test comes first because int() raises on nan and inf
    ok = lo <= value <= hi and value < math.inf and int(value) == value
    span = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
    require(ok, code, f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def ceil_int(x: float) -> int:
    """Ceiling with a relative guard against float noise just above an integer.

    Reciprocal stepsizes like 1/(1/27) land a few ulp above the integer the
    real-arithmetic expression equals; plain ceil would bump them up one.
    Policy: x within 1e-12 relative above an integer n gives n, even where
    the exact ratio lies above n, and never below floor(x), where the slack
    exceeds 1 (x past 1e12).  A non-finite x is refused.
    """
    require(-math.inf < x < math.inf, "out_of_range", "the inputs overflow the float range")
    return max(math.floor(x), math.ceil(x - 1e-12 * max(1.0, abs(x))))
