"""Moduli of continuity for noisy gradient iterations.

A map Phi has modulus of continuity phi when ||Phi(x) - Phi(y)|| <=
phi(||x - y||) for all x, y in its domain.  Every function class handled
here induces, for the gradient map x -> x - eta * grad f(x), a modulus of
the square-root-quadratic form sqrt(c * delta**2 + h), and the pair
(c, h) is all the downstream shift recursions ever look at.

There are two families of function classes: ConvexWeaklySmooth(p, M),
whose ends p = 0 and p = 1 are the Lipschitz and the smooth convex
classes, and StronglyDissipative(lam, kappa, beta).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._util import check, refuses_overflow, require
from .errors import PreconditionError


# one modulus is built per step of long specs: slots, and a hand-written
# __init__ with the range checks inline rather than check() or require(),
# storing through the slot descriptors' setters (_set_c, _set_h below)
@dataclass(frozen=True, slots=True, init=False)
class QuadraticModulus:
    """Modulus delta -> sqrt(c * delta**2 + h).

    c > 0 is the squared contraction (c < 1) or expansion (c > 1) factor;
    h >= 0 is the squared offset picked up by nonsmooth maps; both are
    finite.  It has no evaluation methods: the shift and bound code always
    evaluate the formula on IterationSpec's arrays, so for h > 0 the value
    at 0 is sqrt(h), not the conventional phi(0) = 0 of this modulus.
    """

    c: float
    h: float

    def __init__(self, c: float, h: float):
        if not 0 < c < math.inf:
            raise PreconditionError("modulus_c", "c must be strictly positive and finite")
        if not 0 <= h < math.inf:
            raise PreconditionError("offset", "h must be nonnegative and finite")
        _set_c(self, c)
        _set_h(self, h)


# captured from the class that dataclass(slots=True) builds: the frozen
# __setattr__ refuses every write, object.__setattr__ looks each name up again
_set_c, _set_h = QuadraticModulus.c.__set__, QuadraticModulus.h.__set__


@dataclass(frozen=True)
class ConvexWeaklySmooth:
    """Convex f whose gradient is p-Holder with constant M.

    p = 0 is the bounded-subgradient case (ConvexLipschitz: M is twice
    the Lipschitz constant), p = 1 the smooth case (SmoothConvex).
    """

    p: float
    M: float

    def __post_init__(self):
        check(p=self.p, M=self.M)


def ConvexLipschitz(L: float) -> ConvexWeaklySmooth:
    """Convex f with ||subgradient|| <= L: the p = 0 member with M = 2L."""
    check(L=L)
    return ConvexWeaklySmooth(0.0, 2.0 * L)


def SmoothConvex(beta: float) -> ConvexWeaklySmooth:
    """Convex f with beta-Lipschitz gradient: the p = 1 member with M = beta."""
    check(beta=beta)
    return ConvexWeaklySmooth(1.0, beta)


@dataclass(frozen=True)
class StronglyDissipative:
    """f whose gradient satisfies <grad f(x) - grad f(y), x - y> >=
    kappa * ||x - y||^2 - lam (lam >= 0), with beta-Lipschitz gradient."""

    lam: float
    kappa: float
    beta: float

    def __post_init__(self):
        check(lam=self.lam, kappa=self.kappa, beta=self.beta)


@refuses_overflow  # a power past the float range
def modulus_from_class(fc: ConvexWeaklySmooth | StronglyDissipative, eta: float) -> QuadraticModulus:
    """Modulus of the map x -> x - eta * grad f(x) over f in the given class.

    Weakly smooth classes with p < 1 give nonexpansive maps with a
    stepsize-dependent offset; at p = 1 (smooth convex) the offset
    vanishes and nonexpansiveness needs eta <= 2/M.  The strongly
    dissipative case contracts with c = 1 - 2*eta*kappa + eta^2*beta^2
    (rejected unless 0 < c).  A c or h past the float range is refused
    with out_of_range.
    """
    check(eta=eta)
    if isinstance(fc, ConvexWeaklySmooth):
        if fc.p == 1.0:
            require(
                eta <= 2.0 / fc.M,
                "stepsize_smooth",
                "p = 1 requires eta <= 2/M for nonexpansiveness",
                required_value=2.0 / fc.M,
            )
            return QuadraticModulus(1.0, 0.0)
        ex = 1.0 / (1.0 - fc.p)
        root = math.sqrt((1.0 - fc.p) / (1.0 + fc.p))
        try:
            scale, growth = eta**ex, (fc.M / 2.0) ** ex
        except OverflowError:
            scale = growth = 0.0
        if min(scale, growth) >= sys.float_info.min:
            offset = 2.0 * scale * root * growth
        else:  # a factor overflowed or is not a normal float: (eta M / 2)^ex, as v_term takes it
            offset = 2.0 * (eta * fc.M / 2.0) ** ex * root
        c, h = 1.0, offset * offset
    elif isinstance(fc, StronglyDissipative):
        c = 1.0 - 2.0 * eta * fc.kappa + (eta * fc.beta) ** 2
        h = 2.0 * eta * fc.lam
    else:
        raise TypeError(f"unsupported function class: {fc!r}")
    # nan (inf - inf) and +inf: finite inputs whose formula passes the float range
    require(c < math.inf and h < math.inf, "out_of_range", "the modulus overflows the float range")
    require(c > 0, "contraction_factor", "1 - 2*eta*kappa + eta^2*beta^2 must be strictly positive")
    return QuadraticModulus(c, h)
