"""Moduli of continuity for noisy gradient iterations.

A map Phi has modulus of continuity phi when ||Phi(x) - Phi(y)|| <=
phi(||x - y||) for all x, y in its domain.  Every function class handled
here induces, for the gradient map x -> x - eta * grad f(x), a modulus of
the square-root-quadratic form sqrt(c * delta**2 + h), and the pair
(c, h) is all the downstream shift recursions ever look at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from ._util import require


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
        require(0 <= self.h < math.inf, "modulus_h", "h must be nonnegative and finite")

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
class ConvexLipschitz:
    """Convex f with ||subgradient|| <= L."""

    L: float

    def __post_init__(self):
        require(self.L > 0, "lipschitz_constant", "L must be strictly positive")


@dataclass(frozen=True)
class ConvexWeaklySmooth:
    """Convex f whose gradient is p-Holder with constant M.

    p = 0 is the bounded-subgradient case (constant M = twice the
    Lipschitz constant), p = 1 the smooth case.
    """

    p: float
    M: float

    def __post_init__(self):
        require(0.0 <= self.p <= 1.0, "holder_exponent", "p must lie in [0, 1]")
        require(self.M > 0, "holder_constant", "M must be strictly positive")


@dataclass(frozen=True)
class SmoothConvex:
    """Convex f with beta-Lipschitz gradient."""

    beta: float

    def __post_init__(self):
        require(self.beta > 0, "smoothness", "beta must be strictly positive")


@dataclass(frozen=True)
class StronglyDissipative:
    """f whose gradient satisfies <grad f(x) - grad f(y), x - y> >=
    kappa * ||x - y||^2 - lam, with beta-Lipschitz gradient."""

    lam: float
    kappa: float
    beta: float

    def __post_init__(self):
        require(self.lam > 0, "dissipativity_offset", "lam must be strictly positive")
        require(self.kappa > 0, "dissipativity_rate", "kappa must be strictly positive")
        require(self.beta > 0, "smoothness", "beta must be strictly positive")


FunctionClass = Union[ConvexLipschitz, ConvexWeaklySmooth, SmoothConvex, StronglyDissipative]


def modulus_from_class(fc: FunctionClass, eta: float) -> QuadraticModulus:
    """Modulus of the map x -> x - eta * grad f(x) over f in the given class.

    Lipschitz and weakly smooth classes give nonexpansive maps with a
    stepsize-dependent offset; the smooth convex case is offset-free but
    needs eta <= 2/beta; the strongly dissipative case contracts with
    c = 1 - 2*eta*kappa + eta^2*beta^2 (rejected unless 0 < c).  For
    ConvexWeaklySmooth with p = 1 the limit rule applies: the offset
    vanishes and the smooth-case stepsize restriction eta <= 2/M kicks in.
    """
    require(eta > 0, "stepsize", "eta must be strictly positive")
    if isinstance(fc, ConvexLipschitz):
        return QuadraticModulus(1.0, (2.0 * eta * fc.L) ** 2)
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
    if isinstance(fc, SmoothConvex):
        require(
            eta <= 2.0 / fc.beta,
            "stepsize_smooth",
            "smooth convex requires eta <= 2/beta for nonexpansiveness",
            required_value=2.0 / fc.beta,
        )
        return QuadraticModulus(1.0, 0.0)
    if isinstance(fc, StronglyDissipative):
        c = 1.0 - 2.0 * eta * fc.kappa + (eta * fc.beta) ** 2
        require(
            c > 0,
            "contraction_factor",
            "1 - 2*eta*kappa + eta^2*beta^2 must be strictly positive",
        )
        return QuadraticModulus(c, 2.0 * eta * fc.lam)
    raise TypeError(f"unsupported function class: {fc!r}")
