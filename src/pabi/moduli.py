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
from dataclasses import dataclass

from ._util import check, require


@dataclass(frozen=True)
class QuadraticModulus:
    """Modulus delta -> sqrt(c * delta**2 + h).

    c > 0 is the squared contraction (c < 1) or expansion (c > 1) factor;
    h >= 0 is the squared offset picked up by nonsmooth maps; both are
    finite.  When h > 0 the induced modulus is discontinuous at 0; the
    recursions in this package always evaluate the formula, so the value
    at 0 is sqrt(h) rather than the conventional phi(0) = 0.
    """

    c: float
    h: float

    def __post_init__(self):
        require(0 < self.c < math.inf, "modulus_c", "c must be strictly positive and finite")
        # inline rather than check(h=...): one modulus is built per step of long specs
        require(0 <= self.h < math.inf, "offset", "h must be nonnegative and finite")

    def evaluate(self, delta: float) -> float:
        require(delta >= 0, "negative_delta", "delta must be nonnegative")
        return math.sqrt(self.c * delta * delta + self.h)

    __call__ = evaluate

    def derivative(self, delta: float) -> float:
        """One-sided derivative c * delta / sqrt(c * delta**2 + h).

        At a kink (delta = 0 with h = 0) this returns the right-hand slope
        sqrt(c).
        """
        require(delta >= 0, "negative_delta", "delta must be nonnegative")
        value = self.evaluate(delta)
        if value == 0.0:
            return math.sqrt(self.c)
        return self.c * delta / value


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


def modulus_from_class(fc: ConvexWeaklySmooth | StronglyDissipative, eta: float) -> QuadraticModulus:
    """Modulus of the map x -> x - eta * grad f(x) over f in the given class.

    Weakly smooth classes with p < 1 give nonexpansive maps with a
    stepsize-dependent offset; at p = 1 (smooth convex) the offset
    vanishes and nonexpansiveness needs eta <= 2/M.  The strongly
    dissipative case contracts with c = 1 - 2*eta*kappa + eta^2*beta^2
    (rejected unless 0 < c).
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
        offset = 2.0 * eta**ex * root * (fc.M / 2.0) ** ex
        return QuadraticModulus(1.0, offset * offset)
    if isinstance(fc, StronglyDissipative):
        c = 1.0 - 2.0 * eta * fc.kappa + (eta * fc.beta) ** 2
        require(
            c > 0,
            "contraction_factor",
            "1 - 2*eta*kappa + eta^2*beta^2 must be strictly positive",
        )
        return QuadraticModulus(c, 2.0 * eta * fc.lam)
    raise TypeError(f"unsupported function class: {fc!r}")
