"""Closed-form divergence bounds for projected noisy iterations.

Each function returns an upper bound on the order-alpha Renyi divergence
between the time-T laws of two runs that differ only in their starting
point (by at most the domain diameter D), for iterations whose per-step
maps have square-root-quadratic moduli sqrt(c_t * delta^2 + h_t) and
Gaussian noise of standard deviation sigma_t.  The general form takes
arbitrary per-step parameters and equals (alpha/2) times the optimal
shift objective.  The constant-parameter bounds share one O(1) closed form
(exact series at every c > 0, logarithmic estimates at 0 < c <= 1):
renyi_bound_uniform, renyi_bound_sqrt_shift and renyi_bound_dissipative
adapt their form names to it, and kl_bound_pla is its alpha = 1 case at
noise variance 2 eta.  Every term is a _Wide, a float with an unbounded
exponent, until it rounds into the floats once at the end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._util import check, np, refuses_overflow, require
from .shifts import _CHUNK, IterationSpec

# Euler's constant, as numpy.euler_gamma
_EULER_GAMMA = 0.5772156649015329
# ln 2 split for Cody-Waite reduction (fdlibm): k * _LN2_HI is exact for |k| < 2^21
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
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
# terms of the exact dissipative sum added one by one, in one numpy pass, before its O(1) tail
_HEAD = 1_000_000
# Euler-Maclaurin weights B_2j / (2j)! for j = 1 .. 7
_EM_WEIGHTS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000, 1 / 74724249600)


def _derivative_polys() -> tuple:
    """Coefficients, by power of h, of P_1, P_3, .., P_13: d^n/dy^n h(y) = P_n(h(y)) for h(y) = 1 / (e^y - 1).

    P_0(h) = h and P_{n+1}(h) = -P_n'(h) (h + h^2), as h'(y) = -(h + h^2).
    """
    polys = [(0, 1)]
    for _ in range(13):
        p = polys[-1]
        step = [0] * (len(p) + 1)
        for k in range(1, len(p)):
            step[k] -= k * p[k]
            step[k + 1] -= k * p[k]
        polys.append(tuple(step))
    return tuple(polys[1::2])


_EM_POLYS = _derivative_polys()


class _Wide:
    """x 2^e as m 2^e, m = 0 or 1/2 <= |m| < 1, e an int.  * and / (by a float or a _Wide) round as
    the float operation does wherever its result is a normal float; float() rounds once, inf past the range."""

    __slots__ = ("m", "e")

    def __init__(self, x: float, e: int = 0):
        self.m, shift = math.frexp(x)
        self.e = e + shift

    def __mul__(self, other) -> _Wide:
        m, e = (other.m, other.e) if isinstance(other, _Wide) else math.frexp(other)
        return _Wide(self.m * m, self.e + e)

    def __truediv__(self, other) -> _Wide:
        m, e = (other.m, other.e) if isinstance(other, _Wide) else math.frexp(other)
        return _Wide(self.m / m, self.e - e)

    def __float__(self) -> float:
        try:
            return math.ldexp(self.m, self.e)
        except OverflowError:
            return math.inf


def _exp(y: float) -> _Wide:
    """e^y, y <= 0: math.exp(y) where that is a normal float, else 2^k e^r by the Cody-Waite split
    r = (y - k _LN2_HI) - k _LN2_LO, within a few ulps of e^y."""
    x = math.exp(y)
    if x >= sys.float_info.min:
        return _Wide(x)
    k = round(max(y, -(2.0**20)) / math.log(2.0))  # below, e^r is 0: no bound term lifts e^-2^20 back
    return _Wide(math.exp((y - k * _LN2_HI) - k * _LN2_LO), k)


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
    recursion is not run again.  Both terms are _Wide until alpha/2 scales
    them, so each rounds into the floats once.
    """
    require(1.0 <= alpha < math.inf, "alpha", "alpha must be finite and >= 1")
    m, e = spec._g
    half, d2 = _Wide(0.5 * alpha), _Wide(spec.diameter) * spec.diameter
    if m[0] >= sys.float_info.min:
        diameter_raw = d2 / _Wide(float(m[0]), int(e[0]))
    else:  # g_0 subnormal or 0, so e_0 = e_1 = 0: D^2 c_0 / (s2_0 + g_1)
        diameter_raw = d2 * float(spec.c[0]) / (float(spec.s2[0]) + (float(m[1]) if spec.horizon > 1 else 0.0))
    return _result(alpha, float(half * diameter_raw), float(half * _offset_sum(spec, m, e)))


def _offset_sum(spec: IterationSpec, m: np.ndarray, e: np.ndarray) -> _Wide:
    """sum_t h_t / (c_t g_t), each term h / (c m) on frexp mantissas, _CHUNK rows at a time in one set of buffers.

    c_t g_t is s2_t + g_{t+1} where m_t is subnormal or 0 (e_t = e_{t+1} = 0 there).  A chunk sums its
    terms with the largest at 2^960, and the chunks' sums meet on the scale of the largest: where
    T <= _CHUNK and no term or partial sum leaves the normal floats, the plain float sum's bits.
    """
    T = spec.horizon
    mantissas, exponents = np.empty((3, min(T, _CHUNK))), np.empty((3, min(T, _CHUNK)), dtype=np.intc)
    sums = []
    for lo in range(0, T, _CHUNK):
        hi = min(lo + _CHUNK, T)
        (q, p, mm), (qe, pe, me) = mantissas[:, : hi - lo], exponents[:, : hi - lo]
        for x, out in ((spec.h, (q, qe)), (spec.c, (p, pe)), (m, (mm, me))):
            np.frexp(x[lo:hi], out=out)
        p *= mm
        pe += me
        under = np.flatnonzero(m[lo:hi] < sys.float_info.min) + lo
        p[under - lo], pe[under - lo] = np.frexp(spec.s2[under] + m[np.minimum(under + 1, T - 1)] * (under + 1 < T))
        q /= p
        qe -= pe
        # e_t past 2^20 leaves a term below 2^(2100 - 2^20), which no alpha/2 lifts back into the floats
        qe -= np.minimum(e[lo:hi], 2**20, out=me, casting="unsafe")
        scale = int(np.max(qe, where=q > 0.0, initial=-(2**30))) - 960  # -2^30 - 960 where every h_t is 0
        qe -= scale
        sums.append((float(np.sum(np.ldexp(q, qe, out=q))), scale))
    top = max(scale for _, scale in sums)
    return _Wide(sum(math.ldexp(x, scale - top) for x, scale in sums), top)


def _constant_params(alpha, diameter, h, sigma, horizon) -> int:
    """Preconditions shared by the constant-parameter bounds; returns the horizon."""
    require(1.0 <= alpha < math.inf, "alpha", "alpha must be finite and >= 1")
    check(D=diameter, horizon=horizon, h=h)
    message = "sigma must be strictly positive with sigma^2 a finite normal float"
    require(sigma > 0 and sys.float_info.min <= sigma * sigma < math.inf, "sigma", message)
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


def _lambert_tail(s: float, a: int, b: int) -> float:
    """sum_{k=a}^{b} 1 / (e^{sk} - 1) for s > 0 and 1 <= a <= b, in O(1) by Euler-Maclaurin.

    With g(k) = h(sk), h(y) = e^-y / -expm1(-y), which never overflows: the
    integral of g from a to b, ln((1 - e^-sb) / (1 - e^-sa)) / s, taken as
    log1p(e^-sa (1 - e^-s(b-a)) / (1 - e^-sa)) / s so that no difference of
    two logs cancels at any sa; then (g(a) + g(b)) / 2 and seven terms
    B_2j / (2j)! (g^(2j-1)(b) - g^(2j-1)(a)), g^(n)(k) = s^n P_n(h(sk)).  The
    remainder is of order (s / 2 pi)^16, far below rounding where s is small,
    as in the dissipative tail (s < 4e-5): within 3.5e-16 relative of 50-digit
    sums there (tests/test_bounds.py).
    """
    ha, hb = (math.exp(-y) / -math.expm1(-y) for y in (s * a, s * b))
    total = math.log1p(math.exp(-s * a) * math.expm1(-s * (b - a)) / math.expm1(-s * a)) / s + 0.5 * (ha + hb)
    for n, (weight, poly) in enumerate(zip(_EM_WEIGHTS, _EM_POLYS)):
        pa = pb = 0.0
        for coef in reversed(poly):  # Horner from the leading coefficient
            pa, pb = pa * ha + coef, pb * hb + coef
        total += weight * s ** (2 * n + 1) * (pb - pa)
    return total


def dissipative_shift_series(c: float, horizon: int) -> float:
    """sum_{t=0}^{T-1} c^t / sum_{j=0}^{t} c^j for 0 < c < 1.

    Costs the first min(T, 10^6) terms, in one numpy pass, plus an O(1)
    tail: it stops there once c^t falls below float resolution of the sum,
    else adds the terms t >= 10^6, ((1 - c)/c) / (e^{s(t+1)} - 1) with
    s = -ln c, as one _lambert_tail.

    Known gap: near c = 1 it reads low by cancellation in 1 - ct * c (1.2e-9
    relative at c = 1 - 1e-9, T = 10; README lists more).  -expm1((t + 1) * log_c)
    mends it but moves perfbench's recorded certify bound by 1.03e-12, past its
    1e-12 tolerance, so it waits for a re-recording.  log-upper stays an upper bound.
    """
    require(0.0 < c < 1.0, "contraction_factor", "c must lie strictly in (0, 1)")
    check(horizon=horizon)
    horizon = int(horizon)
    head = min(horizon, _HEAD)
    log_c = math.log(c)
    ct = np.exp(np.arange(head, dtype=float) * log_c)
    # denominator sum_{j<=t} c^j = (1 - c^{t+1}) / (1 - c)
    total = float(np.sum(ct * (1.0 - c) / (1.0 - ct * c)))
    if head == horizon or math.exp(head * log_c) < 1e-17 * max(total, 1.0):
        return total
    return total + (1.0 - c) / c * _lambert_tail(-math.log1p(c - 1.0), head + 1, horizon)


def _closed_form(alpha, diameter, c, h, s2, horizon, exact) -> RenyiBoundResult:
    """alpha / (2 s2) * (D^2 w_T + h * factor) for c > 0, noise variance s2, on validated inputs.

    Within _C_ONE_TOL below c = 1 the harmonic limit: w_T = 1/T, factor H_T
    (exact) or ln(T e).  Below that w_T = c^T (1-c) / (1 - c^T), factor the
    exact series or 1 + ln((1 - c^T)/(1 - c)).  Above c = 1, exact only, with
    s = ln c: w_T = (c - 1) / (1 - e^-sT), factor ((c - 1)/c) (T + G) with
    G = sum_{k=1}^{T} 1/(e^{sk} - 1), its terms k < 12 summed, the rest one
    _lambert_tail.  s2 is sigma * sigma, or 2 eta.  The lead (alpha/2) / s2,
    c^T and both terms are _Wide, each term in the order of its pinned bits.
    """
    lead = _Wide(0.5 * alpha) / s2
    if c > 1.0:
        s = math.log1p(c - 1.0)
        lambert = sum(math.exp(-s * k) / -math.expm1(-s * k) for k in range(1, min(horizon, 11) + 1))
        factor = (c - 1.0) / c * (horizon + lambert + (_lambert_tail(s, 12, horizon) if horizon > 11 else 0.0))
        diameter_term = lead * diameter * diameter * ((c - 1.0) / -math.expm1(-s * horizon))  # (lead D) D w_T
    elif 1.0 - c < _C_ONE_TOL:
        factor = _harmonic(horizon) if exact else math.log(horizon) + 1.0
        diameter_term = lead * diameter * diameter / horizon  # (lead D) D / T
    else:
        log_c = math.log(c)
        one_minus_cT = -math.expm1(horizon * log_c)
        diameter_term = lead * (_Wide(diameter) * diameter * _exp(horizon * log_c) * (1.0 - c) / one_minus_cT)
        factor = dissipative_shift_series(c, horizon) if exact else 1.0 + math.log(one_minus_cT / (1.0 - c))
    return _result(alpha, float(diameter_term), float(lead * h * factor))


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
    message = "c must lie strictly in (0, 1); use renyi_bound_sqrt_shift at c = 1"
    require(0.0 < c < 1.0, "contraction_factor", message, required_value=1.0)
    return _closed_form(alpha, diameter, c, h, sigma * sigma, horizon, form == "exact-sum")


@refuses_overflow
def renyi_bound_uniform(
    alpha: float, diameter: float, c: float, h: float, sigma: float, horizon: int, form: str = "exact"
) -> RenyiBoundResult:
    """Bound for one modulus sqrt(c delta^2 + h) and noise sigma at every step.

    The one entry to the closed form at any c > 0 and any horizon: "exact"
    or "log-upper" is the form of renyi_bound_sqrt_shift at c = 1 and of
    renyi_bound_dissipative at 0 < c < 1, which adapt their own form names
    to it; c > 1 is exact only, and equals renyi_bound_general on the
    uniform spec within 1e-12 relative.  c's own rule comes after the form
    and the fields shared by the closed forms.
    """
    require(form in ("exact", "log-upper"), "form", f"unknown form {form!r}")
    require(form == "exact" or 0.0 < c <= 1.0, "form", "log-upper form needs c <= 1")
    horizon = _constant_params(alpha, diameter, h, sigma, horizon)
    require(0.0 < c < math.inf, "modulus_c", "c must be strictly positive and finite")
    return _closed_form(alpha, diameter, c, h, sigma * sigma, horizon, form == "exact")


@refuses_overflow
def kl_bound_pla(diameter: float, eta: float, h: float, horizon: int) -> float:
    """KL bound D^2 / (4 eta T) + h * ln(T e) / (4 eta) for projected Langevin steps.

    The log-upper c = 1 closed form at alpha = 1 and noise variance 2 eta.
    """
    check(D=diameter, eta=eta, horizon=horizon, h=h)
    # the variance 2 eta must be finite, where alpha / (2 * 2 eta) would read the bound as 0
    require(2.0 * eta < math.inf, "stepsize", "2 * eta overflows the float range")
    return _closed_form(1.0, diameter, 1.0, h, 2.0 * eta, int(horizon), False).value
