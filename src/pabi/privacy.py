"""Renyi-DP accountant for projected noisy SGD with Poisson subsampling.

Natural logarithms throughout.  The per-step subsampled-Gaussian cost
uses the standard upper bound 2 alpha q^2 / sigma^2, valid only below an
order threshold alpha_star(q, sigma) that this module computes and
enforces on every path; no subsampling term is ever returned without
that check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._util import ceil_int, check, refuses_overflow, require
from .moduli import ConvexWeaklySmooth, modulus_from_class

_ALPHA_TOL = 1e-6
_ALPHA_FLOOR = 1.0 + 1e-6
_GRID_SLACK = 1e-9


@dataclass(frozen=True)
class PrivacySpec:
    """Inputs of one noisy-SGD privacy accounting question.

    sigma is the noise multiplier: the per-step Gaussian has standard
    deviation eta * sigma.  b is the expected Poisson batch size, so the
    sampling rate is q = b / n and must stay below 1/5.
    """

    n: int
    b: float
    L: float
    M: float
    p: float
    eta: float
    sigma: float
    alpha: float
    T: int
    D: float

    @refuses_overflow  # b / n where n passes the float range
    def __post_init__(self):
        check(n=self.n, L=self.L, M=self.M, p=self.p, eta=self.eta, horizon=self.T, D=self.D)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "T", int(self.T))
        require(self.b > 0, "batch_size", "b must be strictly positive")
        require(self.b <= self.n, "batch_size", "b must not exceed n")
        q = self.b / self.n
        require(
            q < 0.2,
            "sampling_rate",
            f"q = b/n = {q:.6g} must be below 1/5",
            required_value=0.2,
        )
        require(0 < self.sigma < math.inf, "noise_multiplier", "sigma must be strictly positive and finite")
        require(1.0 < self.alpha < math.inf, "alpha", "alpha must be finite and exceed 1")

    @property
    def q(self) -> float:
        return self.b / self.n

    @property
    def sigma_reduced(self) -> float:
        """Noise-to-sensitivity ratio b*sigma/(2*sqrt(2)*L) of one step."""
        return self.b * self.sigma / (2.0 * math.sqrt(2.0) * self.L)


@dataclass(frozen=True)
class EpsilonResult:
    epsilon: float
    regime: str
    tbar: int
    v_term: float
    alpha_star: float
    breakdown: dict = field(default_factory=dict)


@refuses_overflow
def tbar(D: float, n: int, eta: float, L: float) -> int:
    """Phase-transition horizon ceil(D*n / (4*eta*L))."""
    check(D=D, n=n, eta=eta, L=L)
    return _tbar(D, n, eta, L)


def _tbar(D: float, n: int, eta: float, L: float) -> int:
    # tbar on validated inputs; 4*(eta*L) where 4*eta overflows.  Where 4*eta*L underflows to 0, 4*eta and L
    # are below 1, so D*n / (4*eta) / L grows at each step and reaches inf only where the ratio passes the range
    denominator = 4.0 * eta * L if 4.0 * eta < math.inf else 4.0 * (eta * L)
    return max(1, ceil_int(D * n / denominator if denominator > 0.0 else D * n / (4.0 * eta) / L))


class _Validity:
    """The validity predicate of the 2*alpha*q^2/sigma^2 bound at one (q, sigma).

    The constants in sigma are computed once, on construction; each order
    then pays for m = ln(1 + 1/(q*(alpha - 1))) and two comparisons.  m comes
    from the logs where 1/(q*(alpha - 1)) passes the float range.  Where
    5 sigma^2 overflows, ln sigma^2 is 2 ln sigma and the terms in sigma^2
    are taken on m * sigma, as (m sigma) sigma / 2 and (m sigma)^2 / 2.  The
    second condition is kept in product form: its divisor
    m + ln(q*alpha) + 1/(2 sigma^2) is positive in exact arithmetic, but its
    rounded value can be negative (-1.1e-13 at q = 1e-320, alpha = 2^79).
    It is asked as lhs <= rhs, so that a nan comparison fails the order.
    """

    __slots__ = ("q", "sigma", "s2", "scaled", "log_s2", "half_inv", "log_5s2")

    def __init__(self, q: float, sigma: float):
        self.q, self.sigma = q, sigma
        self.s2 = s2 = sigma * sigma
        self.scaled = scaled = 5.0 * s2 == math.inf
        self.log_s2 = log_s2 = 2.0 * math.log(sigma) if scaled else math.log(s2)
        self.half_inv = 1.0 / (2.0 * s2)  # 0 where 2 sigma^2 overflows
        self.log_5s2 = math.log(5.0) + log_s2 if scaled else math.log(5.0 * s2)

    def __call__(self, alpha: float) -> bool:
        """Whether the bound is valid at the order alpha, alpha above 1."""
        x = self.q * (alpha - 1.0)  # 1/x is finite exactly for x above 2^-1024
        m = math.log1p(1.0 / x) if x > 2.0**-1024 else -math.log(self.q) - math.log(alpha - 1.0)
        if self.scaled:
            ms = m * self.sigma
            m_s2, m2_s2 = ms * self.sigma, ms * ms
        else:
            m_s2, m2_s2 = m * self.s2, m * m * self.s2
        if alpha > m_s2 / 2.0 - self.log_s2:
            return False
        return alpha * (m + math.log(self.q * alpha) + self.half_inv) <= m2_s2 / 2.0 - self.log_5s2


def alpha_star(q: float, sigma: float) -> float:
    """Largest Renyi order at which the subsampling bound is valid.

    Found by doubling until the validity predicate fails, then bisection
    to 1e-6 (or to adjacent floats, above 2^33), returning the valid
    (lower) endpoint.  That endpoint is the threshold because the valid
    orders form one interval.  With a = alpha - 1 and m = ln(1 + 1/(q a)),
    m' = -1/(a (1 + q a)) < 0, so:
      - the first condition, alpha <= m sigma^2 / 2 - ln sigma^2, has a
        falling right side and holds exactly on (1, alpha_1];
      - the second is F = m^2 sigma^2 / 2 - ln(5 sigma^2) - alpha G >= 0,
        with G = m + ln(q alpha) + 1/(2 sigma^2)
        = ln(alpha/(alpha - 1) + q alpha) + 1/(2 sigma^2) > 0, and
        F' = m'(m sigma^2 - alpha) - G - 1 < -1 on (1, alpha_1], where
        alpha < m sigma^2 as sigma >= 4; there it holds up to some alpha_2.
    So the valid set is (1, min(alpha_1, alpha_2)].  Both slacks fall by at
    least 1 per unit of alpha, far more than the rounding of the terms
    (about 1e-12 alpha), so rounding opens no gap below the threshold
    either.  The proof needs a finite sigma: sigma = inf is refused.
    """
    require(0.0 < q < 0.2, "sampling_rate", "q must lie in (0, 1/5)", required_value=0.2)
    require(4.0 <= sigma < math.inf, "noise_multiplier", "sigma must be at least 4 and finite", required_value=4.0)
    valid = _Validity(q, sigma)
    require(valid(_ALPHA_FLOOR), "alpha_validity", "no valid alpha range for these (q, sigma)")
    lo = _ALPHA_FLOOR
    hi = 2.0
    # ends by hi = inf at the latest, where the predicate is false
    while valid(hi):
        lo = hi
        hi *= 2.0
    # lo valid, hi invalid (possibly inf): the valid endpoint at tolerance,
    # or at adjacent floats where their spacing exceeds it
    while hi - lo > _ALPHA_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if valid(mid):
            lo = mid
        else:
            hi = mid
    return lo


def s_alpha_bound(q: float, sigma: float, alpha: float) -> float:
    """Per-step subsampled-Gaussian Renyi cost 2*alpha*q^2/sigma^2.

    Hard-errors when alpha exceeds alpha_star(q, sigma); the closed form
    is simply not a bound out there.
    """
    return _s_alpha(q, sigma, alpha, alpha_star(q, sigma))


def _s_alpha(q: float, sigma: float, alpha: float, star: float) -> float:
    # s_alpha_bound with the validity threshold star = alpha_star(q, sigma) given
    require(alpha > 1.0, "alpha", "alpha must exceed 1")
    require(
        alpha <= star,
        "alpha_validity",
        f"alpha = {alpha:.6g} exceeds the validity threshold {star:.6g}",
        required_value=star,
    )
    return 2.0 * alpha * q * q / (sigma * sigma)


def v_term(D: float, M: float, tbar: int, eta: float, p: float) -> float:
    """Cap correction (2*tbar/D * (eta*M/2)^{1/(1-p)})^2 * (1-p)/(1+p) * ln(tbar*e).

    Zero at p = 1 (the limit); inf when the power overflows.
    """
    check(D=D, M=M, eta=eta, p=p)
    require(1 <= tbar < math.inf and int(tbar) == tbar, "tbar", "tbar must be a positive integer")
    return _v_term(D, M, tbar, eta, p)


def _composition(L: float, tbar: int, n: int) -> float:
    """The composition term 16 L^2 tbar / n^2 of the theorem's epsilon."""
    return 16.0 * L * L * tbar / (n * n)


def _v_term(D: float, M: float, tbar: int, eta: float, p: float) -> float:
    # v_term on validated inputs
    if p == 1.0:
        return 0.0
    try:
        r = (eta * M / 2.0) ** (1.0 / (1.0 - p))
        if r == 0.0:  # underflowed: v is 0, as wherever 2*tbar/D is finite (inf * 0 would be nan)
            return 0.0
        base = 2.0 * tbar / D * r
        return base * base * ((1.0 - p) / (1.0 + p)) * (math.log(tbar) + 1.0)
    except OverflowError:
        return math.inf


@refuses_overflow
def epsilon_nsgd(spec: PrivacySpec) -> EpsilonResult:
    """Renyi-DP bound for T steps of projected noisy SGD.

    Headline epsilon is the capped composition form
    s_alpha * min(T, 2*tbar + V); the three-term direct bound is kept in
    breakdown["epsilon_theorem"] and never exceeds
    s_alpha * (2*tbar + V).  At p = 1 the smooth stepsize gate
    eta <= 2/M of modulus_from_class applies.
    """
    if spec.p == 1.0:
        modulus_from_class(ConvexWeaklySmooth(1.0, spec.M), spec.eta)
    q = spec.q
    sigma_min = 8.0 * math.sqrt(2.0) * spec.L / spec.b
    require(
        spec.sigma > sigma_min,
        "noise_multiplier",
        f"sigma = {spec.sigma:.6g} must exceed 8*sqrt(2)*L/b = {sigma_min:.6g}",
        required_value=sigma_min,
    )
    t_bar = _tbar(spec.D, spec.n, spec.eta, spec.L)
    require(
        spec.T > t_bar,
        "horizon",
        f"T = {spec.T} must exceed tbar = {t_bar}",
        required_value=t_bar,
    )
    sigma_prime = spec.sigma_reduced
    require(sigma_prime < math.inf, "out_of_range", "sigma_reduced = b*sigma/(2*sqrt(2)*L) overflows the float range")
    star = alpha_star(q, sigma_prime)
    s_alpha = _s_alpha(q, sigma_prime, spec.alpha, star)
    v = _v_term(spec.D, spec.M, t_bar, spec.eta, spec.p)

    composition_term = _composition(spec.L, t_bar, spec.n)
    eta_sq_tbar = spec.eta * spec.eta * t_bar  # as (D / eta)^2 / tbar where it under- or overflows
    diameter_term = spec.D * spec.D / eta_sq_tbar if 0.0 < eta_sq_tbar < math.inf else (spec.D / spec.eta) ** 2 / t_bar
    if spec.p == 1.0:
        smoothness_term = 0.0
    else:
        try:
            smoothness_term = (
                4.0
                * spec.eta ** (2.0 * spec.p / (1.0 - spec.p))
                * ((1.0 - spec.p) / (1.0 + spec.p))
                * (spec.M / 2.0) ** (2.0 / (1.0 - spec.p))
                * (math.log(t_bar) + 1.0)
            )
        except OverflowError:
            smoothness_term = math.inf
    s2 = spec.sigma * spec.sigma
    alpha_over_s2 = spec.alpha / s2 if s2 > 0.0 else math.inf  # inf where sigma^2 underflows
    eps_thm = alpha_over_s2 * (composition_term + diameter_term + smoothness_term)
    if alpha_over_s2 == 0.0 or math.isnan(eps_thm):  # 0, or inf against zero terms: each term over sigma^2 first
        rest = (diameter_term + smoothness_term) / spec.sigma / spec.sigma
        eps_thm = spec.alpha * (_composition(spec.L / spec.sigma, t_bar, spec.n) + rest)

    cap_steps = min(float(spec.T), 2.0 * t_bar + v)
    eps_cap = s_alpha * cap_steps
    regime = "capped" if spec.T >= 2.0 * t_bar + v else "growing"
    return EpsilonResult(
        epsilon=eps_cap,
        regime=regime,
        tbar=t_bar,
        v_term=v,
        alpha_star=star,
        breakdown={
            "epsilon_cap": eps_cap,
            "epsilon_theorem": eps_thm,
            "s_alpha": s_alpha,
            "sigma_reduced": sigma_prime,
            "q": q,
            "cap_steps": cap_steps,
            "composition_term": composition_term,
            "diameter_term": diameter_term,
            "smoothness_term": smoothness_term,
        },
    )


@refuses_overflow  # 1 / n where n passes the float range
def privacy_curve_sweep(base, eta_grid, p_values) -> list:
    """Rows of (eta, p, tbar, v, bound, ln_bound) with bound = 2*tbar + V.

    base is any object with attributes n, L, M and D (a PrivacySpec, or the
    CLI's parsed flags): only those four are read, and checked.  eta iterates
    in grid order, the p values cycle within each eta.  The grid must stay
    inside [1/n, n^{-1/5}] (tiny relative slack at the endpoints), and when
    p = 1 is swept its largest eta must pass the smooth stepsize gate
    eta <= 2/M of modulus_from_class.
    """
    check(n=base.n, L=base.L, M=base.M, D=base.D)
    grid = [float(x) for x in eta_grid]
    require(len(grid) > 0, "eta_grid", "eta grid must be non-empty")
    ps = [float(x) for x in p_values]
    for p in ps:
        check(p=p)
    lo = 1.0 / base.n
    hi = base.n ** (-0.2)
    for eta in grid:
        require(
            lo * (1.0 - _GRID_SLACK) <= eta <= hi * (1.0 + _GRID_SLACK),
            "eta_grid",
            f"eta = {eta:.6g} outside the sweep window [{lo:.6g}, {hi:.6g}]",
        )
    if 1.0 in ps:
        modulus_from_class(ConvexWeaklySmooth(1.0, base.M), max(grid))
    rows = []
    for eta in grid:
        t_bar = _tbar(base.D, base.n, eta, base.L)
        for p in ps:
            v = _v_term(base.D, base.M, t_bar, eta, p)
            bound = 2.0 * t_bar + v
            rows.append(
                {
                    "eta": eta,
                    "p": p,
                    "tbar": t_bar,
                    "v": v,
                    "bound": bound,
                    "ln_bound": math.log(bound),
                }
            )
    return rows
