"""Closed-form divergence bounds for projected noisy iterations.

Each function returns an upper bound on the order-alpha Renyi divergence
between the time-T laws of two runs that differ only in their starting
point (by at most the domain diameter D), for iterations whose per-step
maps have square-root-quadratic moduli sqrt(c_t * delta^2 + h_t) and
Gaussian noise of standard deviation sigma_t.  The general form takes
arbitrary per-step parameters and equals (alpha/2) times the optimal
shift objective; the specializations cover the constant-parameter
families with exact series or logarithmic estimates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special

from ._util import check, require
from .shifts import IterationSpec, _tail_weights

# crossover below which the dissipative exact sum degenerates numerically
# and the harmonic (c = 1) limit takes over
_C_ONE_TOL = 1e-12


@dataclass(frozen=True)
class RenyiBoundResult:
    """Order alpha, bound value, and named contributions.

    breakdown has keys "diameter" (the D^2 term) and "offset" (the h
    terms); the two add up to value exactly.
    """

    alpha: float
    value: float
    breakdown: dict


def _result(alpha: float, diameter_term: float, offset_term: float) -> RenyiBoundResult:
    breakdown = {"diameter": diameter_term, "offset": offset_term}
    return RenyiBoundResult(alpha, diameter_term + offset_term, breakdown)


def renyi_bound_general(alpha: float, spec: IterationSpec) -> RenyiBoundResult:
    """Per-step-parameter Renyi bound.

        value = (alpha/2) * ( prod_k c_k * D^2 / S_0
                              + sum_t h_t * prod_{k>t} c_k / S_t )

    with tail sums S_t = sum_{j>=t} sigma_j^2 prod_{l>j} c_l and empty
    products equal to 1.  Evaluated through the normalized backward
    recursion g_t = (sigma_t^2 + g_{t+1}) / c_t, so that long contracting
    products neither overflow nor underflow: the diameter term is
    D^2 / g_0 and each offset term h_t / (c_t * g_t), and a g_t that
    saturates at inf sends its terms to their correct zero limits.
    """
    require(1.0 <= alpha < math.inf, "alpha", "alpha must be finite and >= 1")
    g = _tail_weights(spec.c, spec.s2)
    try:
        diameter_raw = spec.diameter**2 / g[0]
    except OverflowError:  # D^2 past the float range: the vacuous bound inf
        diameter_raw = math.inf
    with np.errstate(over="ignore"):  # a sum past the float range is the vacuous bound inf
        offset_raw = float(np.sum(np.where(spec.h > 0.0, spec.h / (spec.c * g), 0.0)))
    half = 0.5 * alpha
    return _result(alpha, half * diameter_raw, half * offset_raw)


def _constant_params(alpha, diameter, h, sigma, horizon) -> int:
    """Preconditions shared by the constant-parameter bounds; returns the horizon."""
    require(1.0 <= alpha < math.inf, "alpha", "alpha must be finite and >= 1")
    check(D=diameter, horizon=horizon, h=h)
    require(
        sigma > 0 and sys.float_info.min <= sigma * sigma < math.inf,
        "sigma",
        "sigma must be strictly positive with sigma^2 a finite normal float",
    )
    return int(horizon)


def _harmonic(horizon: int) -> float:
    if horizon <= 2_000_000:
        return float(np.sum(1.0 / np.arange(1, horizon + 1, dtype=float)))
    return float(special.digamma(horizon + 1.0) + np.euler_gamma)


def renyi_bound_sqrt_shift(
    alpha: float,
    diameter: float,
    h: float,
    sigma: float,
    horizon: int,
    form: str = "exact-harmonic",
) -> RenyiBoundResult:
    """Constant-parameter bound for nonexpansive moduli sqrt(delta^2 + h).

        value = alpha / (2 sigma^2) * ( D^2 / T + h * factor )

    where factor is the T-th harmonic number (form "exact-harmonic") or
    its upper estimate ln(T e) (form "log-upper").
    """
    horizon = _constant_params(alpha, diameter, h, sigma, horizon)
    require(form in ("exact-harmonic", "log-upper"), "form", f"unknown form {form!r}")
    factor = _harmonic(horizon) if form == "exact-harmonic" else math.log(horizon) + 1.0
    lead = alpha / (2.0 * sigma * sigma)
    return _result(alpha, lead * diameter * diameter / horizon, lead * h * factor)


def dissipative_shift_series(c: float, horizon: int) -> float:
    """sum_{t=0}^{T-1} c^t / sum_{j=0}^{t} c^j for 0 < c < 1.

    Evaluated chunkwise with an early stop once the geometric tail falls
    below float resolution, so very long horizons stay cheap.
    """
    require(0.0 < c < 1.0, "contraction_factor", "c must lie strictly in (0, 1)")
    check(horizon=horizon)
    horizon = int(horizon)
    total = 0.0
    start = 0
    chunk = 1_000_000
    log_c = math.log(c)
    while start < horizon:
        count = min(chunk, horizon - start)
        t = np.arange(start, start + count, dtype=float)
        ct = np.exp(t * log_c)
        # denominator sum_{j<=t} c^j = (1 - c^{t+1}) / (1 - c)
        total += float(np.sum(ct * (1.0 - c) / (1.0 - ct * c)))
        start += count
        if math.exp(start * log_c) < 1e-17 * max(total, 1.0):
            break
    return total


def renyi_bound_dissipative(
    alpha: float,
    diameter: float,
    c: float,
    h: float,
    sigma: float,
    horizon: int,
    form: str = "exact-sum",
) -> RenyiBoundResult:
    """Constant-parameter bound for contracting moduli sqrt(c delta^2 + h).

        value = alpha / (2 sigma^2) * ( D^2 c^T (1-c) / (1 - c^T)
                                        + h * factor )

    where factor is the exact series sum_t c^t / sum_{j<=t} c^j (form
    "exact-sum") or its upper estimate 1 + ln((1 - c^T)/(1 - c)) (form
    "log-upper").  Requires 0 < c < 1; within 1e-12 of c = 1 the harmonic
    limit of renyi_bound_sqrt_shift is used instead.
    """
    horizon = _constant_params(alpha, diameter, h, sigma, horizon)
    require(form in ("exact-sum", "log-upper"), "form", f"unknown form {form!r}")
    require(
        0.0 < c < 1.0,
        "contraction_factor",
        "c must lie strictly in (0, 1); use renyi_bound_sqrt_shift at c = 1",
        required_value=1.0,
    )
    if 1.0 - c < _C_ONE_TOL:
        harmonic_form = "exact-harmonic" if form == "exact-sum" else "log-upper"
        return renyi_bound_sqrt_shift(alpha, diameter, h, sigma, horizon, harmonic_form)
    log_c = math.log(c)
    c_pow_T = math.exp(horizon * log_c)
    one_minus_cT = -math.expm1(horizon * log_c)
    diameter_raw = diameter * diameter * c_pow_T * (1.0 - c) / one_minus_cT
    if form == "exact-sum":
        factor = dissipative_shift_series(c, horizon)
    else:
        factor = 1.0 + math.log(one_minus_cT / (1.0 - c))
    lead = alpha / (2.0 * sigma * sigma)
    return _result(alpha, lead * diameter_raw, lead * h * factor)


def kl_bound_pla(diameter: float, eta: float, h: float, horizon: int) -> float:
    """KL bound for projected Langevin steps (noise variance 2 eta, order 1).

        D^2 / (4 eta T) + h * ln(T e) / (4 eta)
    """
    check(D=diameter, eta=eta, horizon=horizon, h=h)
    horizon = int(horizon)
    # an overflowed 4 eta T would make the D^2 term a vacuous zero
    require(4.0 * eta * horizon < math.inf, "stepsize", "4 * eta * horizon overflows the float range")
    return diameter * diameter / (4.0 * eta * horizon) + h * (math.log(horizon) + 1.0) / (
        4.0 * eta
    )
