"""Mixing-time estimates for the projected Langevin chain.

The chain mixes to its own stationary law (not to the target density of
the underlying diffusion).  The estimates follow the bound-then-boost
pattern: a horizon T_star bringing total variation below a constant,
then independent-restart boosting to reach the requested accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._util import ceil_int, check, refuses_overflow, require
from .errors import PreconditionError
from .moduli import StronglyDissipative, modulus_from_class


@dataclass(frozen=True)
class MixingResult:
    """Iteration budget with its factorization and verified gates.

    t_mix == constituents["T_star"] * constituents["rounds"] always;
    regime_checks records each precondition that was verified (a result
    is only constructed when all of them hold).
    """

    t_mix: int
    constituents: dict
    regime_checks: dict = field(default_factory=dict)


@refuses_overflow
def theta_threshold(p: float, M: float, D: float) -> float:
    """Inverse-stepsize threshold for weakly smooth potentials.

    (M/2)^{2/(1+p)} * [ ((1-p)/(1+p)) * max(16 ln(D (M/2)^{1/(1+p)} e), 27) ]^{(1-p)/(1+p)}

    Continuous in p on [0, 1]; the p = 1 value is the limit M/2.
    """
    check(p=p, M=M, D=D)
    if p == 1.0:
        return M / 2.0
    half_m = M / 2.0
    if half_m == 0.0:  # M/2 underflowed: theta rounds to 0, which every stepsize passes
        return 0.0
    prod = D * half_m ** (1.0 / (1.0 + p)) * math.e
    if 0.0 < prod < math.inf:
        inner = 16.0 * math.log(prod)
    else:
        # product over/underflowed; sum the logs instead
        inner = 16.0 * (math.log(D) + math.log(half_m) / (1.0 + p) + 1.0)
    ratio = (1.0 - p) / (1.0 + p)
    bracket = ratio * max(inner, 27.0)
    return half_m ** (2.0 / (1.0 + p)) * bracket**ratio


def mixing_time_weakly_smooth(
    D: float, eta: float, p: float, M: float, eps: float
) -> MixingResult:
    """TV mixing time ceil(D^2/eta) * ceil(log2(1/eps)).

    Valid when 1/eta >= theta_threshold(p, M, D) and eta <= D^2; both are
    checked and a violation raises with the required threshold attached.
    """
    check(D=D, eta=eta, eps=eps)
    theta = theta_threshold(p, M, D)
    inv_eta, d2 = 1.0 / eta, D * D
    if not inv_eta >= theta:  # 1/theta only here: theta may underflow to 0 and pass
        raise PreconditionError(
            "stepsize_threshold",
            f"1/eta = {inv_eta:.6g} is below the required threshold {theta:.6g} (need eta <= {1.0 / theta:.6g})",
            required_value=theta,
        )
    require(eta <= d2, "stepsize_vs_diameter", f"eta = {eta:.6g} exceeds D^2 = {d2:.6g}", required_value=d2)
    t_star = ceil_int(d2 / eta)
    rounds = boost_rounds(0.5, eps)
    return MixingResult(
        t_mix=t_star * rounds,
        constituents={"T_star": t_star, "rounds": rounds},
        regime_checks={"stepsize_threshold": True, "stepsize_vs_diameter": True},
    )


@refuses_overflow
def mixing_time_dissipative(
    D: float, eta: float, lam: float, kappa: float, beta: float, eps: float
) -> MixingResult:
    """TV mixing time for strongly dissipative potentials.

    With c = 1 - 2 eta kappa + (eta beta)^2 required to lie in (0, 1):

        T_star = ceil( log_{1/c}(1 + D^2 (1-c) / (4 eta)) )
        rounds = ceil( 2 e ln2 * (e/(1-c))^{lam/2} * log2(1/eps) )
    """
    check(D=D, eps=eps)
    c = modulus_from_class(StronglyDissipative(lam, kappa, beta), eta).c
    require(
        0.0 < c < 1.0,
        "contraction_factor",
        f"c = 1 - 2*eta*kappa + (eta*beta)^2 = {c:.6g} must lie in (0, 1);"
        " adjust the stepsize",
    )
    t_star = max(1, ceil_int(math.log1p(D * D * (1.0 - c) / (4.0 * eta)) / -math.log(c)))
    rounds = max(1, ceil_int(2.0 * math.e * math.log(2.0) * (math.e / (1.0 - c)) ** (lam / 2.0) * -math.log2(eps)))
    return MixingResult(
        t_mix=t_star * rounds,
        constituents={"T_star": t_star, "rounds": rounds},
        regime_checks={"contraction": True},
    )


def pinsker_tv(kl: float) -> float:
    """TV upper bound min(1, sqrt(kl/2))."""
    require(kl >= 0, "divergence", "kl must be nonnegative")
    return min(1.0, math.sqrt(kl / 2.0))


def bretagnolle_huber_tv(kl: float) -> float:
    """TV upper bound sqrt(1 - exp(-kl)); strictly below 1 for finite kl."""
    require(kl >= 0, "divergence", "kl must be nonnegative")
    return math.sqrt(-math.expm1(-kl))


def boost_rounds(gamma: float, eps: float) -> int:
    """Independent restarts needed to push TV from gamma down to eps.

    ceil(ln(1/eps) / ln(1/gamma)), at least 1; gamma = 0 needs a single
    round.
    """
    require(0.0 <= gamma < 1.0, "contraction_tv", "gamma must lie in [0, 1)")
    check(eps=eps)
    if gamma == 0.0:
        return 1
    return max(1, ceil_int(math.log(eps) / math.log(gamma)))
