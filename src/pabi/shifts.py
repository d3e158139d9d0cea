"""Optimal shift sequences for iterated noisy maps.

Divergence accounting for T projected noisy steps reduces to choosing
interpolation levels u_0 = D, u_1, ..., u_T = 0 and paying
(phi_{t-1}(u_{t-1}) - u_t)^2 / sigma_{t-1}^2 at step t, where phi_t is the
step's modulus of continuity and sigma_t its noise level.  This module
evaluates that objective, produces its unique minimizer in closed form
through a backward weight recursion, and cross-checks the closed form
against a multistart numeric minimizer at small horizons.  The objective
is not convex as a function on R^{T-1}, which is exactly why the numeric
route exists as an independent witness.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

from ._util import check, integer, require
from .errors import OracleConvergenceError
from .moduli import QuadraticModulus

# numpy is imported inside each function that uses it, so that importing
# pabi, and a query that builds no array, leaves it unloaded

FEASIBILITY_TOL = 1e-12
# longest horizon the multistart numeric oracle accepts
ORACLE_MAX_HORIZON = 12
# longest horizon renyi_bound_uniform (c > 1) and `pabi shifts` build arrays for
SPEC_MAX_HORIZON = 10**7


@dataclass(frozen=True, init=False, eq=False)  # arrays have no scalar ==
class IterationSpec:
    """Description of a horizon-T projected noisy iteration.

    Built from the diameter bounding the initial displacement and the
    per-step noise levels sigmas and QuadraticModulus moduli for steps
    0 .. T-1; stored as diameter plus read-only float64 arrays c, h (the
    moduli sqrt(c_t * delta^2 + h_t)) and s2 (sigma_t^2).  sigma_t^2 must
    be a finite normal float, so that s2 keeps every sigma_t whole:
    sqrt(s2) gives back exactly the sigma passed in, which a subnormal
    square would not.  The backward weights of _tail_weights, mantissas
    and exponents, are computed on first use and cached, read-only, on the
    spec, so that solve_closed_form and renyi_bound_general share one
    backward pass; a spec never changes, so the cache cannot go stale.
    """

    diameter: float
    c: np.ndarray
    h: np.ndarray
    s2: np.ndarray

    def __init__(self, diameter, sigmas, moduli):
        import numpy as np
        sigmas = np.array(sigmas, dtype=float)
        moduli = tuple(moduli)
        require(
            all(isinstance(m, QuadraticModulus) for m in moduli),
            "moduli",
            "moduli must be QuadraticModulus instances",
        )
        c = np.array([m.c for m in moduli], dtype=float)
        h = np.array([m.h for m in moduli], dtype=float)
        self._store(diameter, c, h, sigmas)

    def _store(self, diameter, c, h, sigmas):
        import numpy as np
        check(D=diameter, horizon=len(sigmas))
        require(len(sigmas) == len(c), "lengths", "sigmas and moduli must have equal length")
        with np.errstate(over="ignore"):  # an infinite sigma^2 is refused below
            s2 = sigmas * sigmas
        normal = np.all(sigmas > 0) and np.all((s2 >= sys.float_info.min) & (s2 < math.inf))
        require(bool(normal), "sigma", "noise levels must be positive, sigma^2 a finite normal float")
        for name, arr in (("c", c), ("h", h), ("s2", s2)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "diameter", float(diameter))

    @classmethod
    def uniform(cls, diameter, horizon, modulus, sigma):
        """Spec with a single modulus and noise level repeated over the horizon."""
        import numpy as np
        check(horizon=horizon)
        require(isinstance(modulus, QuadraticModulus), "moduli", "modulus must be a QuadraticModulus")
        horizon = int(horizon)
        spec = cls.__new__(cls)
        spec._store(diameter, *(np.full(horizon, float(x)) for x in (modulus.c, modulus.h, sigma)))
        return spec

    @property
    def horizon(self) -> int:
        return len(self.s2)

    def __setstate__(self, state):
        # pickle and deepcopy hand back writeable arrays: freeze them again,
        # so that neither a copy's inputs nor its cached weights can change
        self.__dict__.update(state)
        for arr in (self.c, self.h, self.s2, *state.get("_g", ())):
            arr.flags.writeable = False

    @cached_property
    def _g(self) -> tuple:
        """_tail_weights(c, s2): mantissas and exponents of g_0 .. g_{T-1}."""
        return _tail_weights(self.c, self.s2)


def _check_spec_horizon(horizon) -> int:
    """The horizon rule, then SPEC_MAX_HORIZON, before T-long arrays are built."""
    check(horizon=horizon)
    message = f"horizons above {SPEC_MAX_HORIZON} are not built step by step, got {horizon}"
    require(horizon <= SPEC_MAX_HORIZON, "horizon_too_large", message, required_value=SPEC_MAX_HORIZON)
    return int(horizon)


@dataclass(frozen=True)
class ShiftSolution:
    """Levels u_0 .. u_T, induced per-step shifts a_1 .. a_T, objective value."""

    u: tuple
    a: tuple
    objective: float


def objective_E(spec: IterationSpec, u_inner) -> float:
    """Shift objective at interior levels u_1 .. u_{T-1} (endpoints implied).

    E(u) = sum_t (phi_{t-1}(u_{t-1}) - u_t)^2 / sigma_{t-1}^2 with u_0 = D
    and u_T = 0, the moduli evaluated by formula.  Defined on all of
    R^{T-1}; feasibility is not required here.
    """
    import numpy as np
    u_inner = np.asarray(u_inner, dtype=float)
    T = spec.horizon
    require(
        u_inner.shape == (T - 1,),
        "length",
        f"expected {T - 1} interior levels, got shape {u_inner.shape}",
    )
    u = np.concatenate(([spec.diameter], u_inner, [0.0]))
    return float(np.sum((_phi(spec, u[:-1]) - u[1:]) ** 2 / spec.s2))


def _phi(spec: IterationSpec, x: np.ndarray) -> np.ndarray:
    """phi_t(x_t) = sqrt(c_t * x_t^2 + h_t) for steps t = 0 .. T-1."""
    import numpy as np
    return np.sqrt(spec.c * x * x + spec.h)


def _solution(spec: IterationSpec, u: np.ndarray) -> ShiftSolution:
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        a = _phi(spec, u[:-1]) - u[1:]
        objective = float(np.sum(a * a / spec.s2))
    # levels past the float range (a diameter near 1e154 or more) give inf - inf shifts
    require(objective < math.inf, "out_of_range", "the shift objective overflows the float range")
    # tolist: Python floats, not one np.float64 box per level
    return ShiftSolution(u=tuple(u.tolist()), a=tuple(a.tolist()), objective=objective)


def _tail_weights(c: np.ndarray, s2: np.ndarray) -> tuple:
    """Backward weights g_t = (s2_t + g_{t+1}) / c_t, g_T = 0, for t = T-1 .. 0.

    Read-only float mantissas m and int64 exponents e, g_t = m_t * 2^e_t.
    A plain-float loop with e = 0 until the running sum passes 2^960; from
    then on, while e > 0, exact moves by 2^480 keep the sum in [1, 2^960],
    and s2_t enters as s2_t * 2^-e (where that underflows, it lies below
    half an ulp of the sum).  Every step rounds as a plain loop with an
    unbounded exponent range would.  Read once per spec, via IterationSpec._g.
    """
    import numpy as np
    T = len(c)
    m, e = np.empty(T), np.empty(T, dtype=np.int64)
    acc, scale, inv, low, top, start = 0.0, 0, 1.0, 0.0, 2.0**960, T
    c_list, s2_list = c.tolist(), s2.tolist()
    for t in range(T - 1, -1, -1):
        total = s2_list[t] * inv + acc
        acc = total / c_list[t]
        if not low <= acc <= top:  # out of the window or the float range: redo the step in frexp form
            e[t + 1 : start], start = scale, t + 1
            (tm, te), (cm, ce) = math.frexp(total), math.frexp(c_list[t])
            bits = te - ce  # total / c_t = (tm / cm) * 2^bits, tm / cm in (1/2, 2)
            while bits >= 960 or (scale and bits < 1):
                step = 480 if bits >= 960 else -480
                bits, scale = bits - step, scale + step
            acc, inv, low = math.ldexp(tm / cm, bits), math.ldexp(1.0, -scale), 1.0 if scale else 0.0
        m[t] = acc
    e[:start] = scale
    m.flags.writeable = e.flags.writeable = False
    return m, e


def _levels(spec: IterationSpec, ratios: np.ndarray) -> np.ndarray:
    """The forward pass u_0 = D, u_t = ratios[t-1] * phi_{t-1}(u_{t-1}) for 0 < t < T, u_T = 0."""
    import numpy as np
    c, h, r = spec.c.tolist(), spec.h.tolist(), ratios.tolist()
    u = np.empty(spec.horizon + 1)
    level = u[0] = spec.diameter
    for t in range(1, spec.horizon):
        level = u[t] = r[t - 1] * math.sqrt(c[t - 1] * level * level + h[t - 1])
    u[-1] = 0.0
    return u


def solve_closed_form(spec: IterationSpec) -> ShiftSolution:
    """Unique minimizer of the shift objective via the backward weight recursion.

    Backward pass: g_t = (sigma_t^2 + g_{t+1}) / c_t accumulates tail noise
    weights normalized by the running contraction product (g_t equals the
    tail sum S_t = sum_{j>=t} sigma_j^2 prod_{l>j} c_l divided by
    prod_{l>=t} c_l).  Forward pass (_levels, given the ratios as one array):
    u_t is the tail-to-total weight ratio times phi_{t-1}(u_{t-1}),

        u_t = g_t / (sigma_{t-1}^2 + g_t) * phi_{t-1}(u_{t-1}),

    evaluated as m_t / (sigma_{t-1}^2 * 2^-e_t + m_t) on g_t = m_t * 2^e_t,
    so that a g_t past the float range still gives its own ratio.
    """
    import numpy as np
    m, e = (arr[1:] for arr in spec._g)
    ratios = m / (np.ldexp(spec.s2[:-1], -e) + m)
    return _solution(spec, _levels(spec, ratios))


def stationarity_residuals(spec: IterationSpec, u) -> np.ndarray:
    """Residuals of the interior first-order conditions at levels u.

    For t = 1 .. T-1:

        (c_t s_{t-1}^2 + s_t^2) u_t - s_{t-1}^2 phi_t'(u_t) u_{t+1}
            - s_t^2 phi_{t-1}(u_{t-1})

    where s_t = sigma_t: dE/du_t times s_{t-1}^2 s_t^2 / 2, the derivative
    numeric_oracle searches with.  They vanish at the closed-form solution.
    """
    import numpy as np
    u = np.asarray(u, dtype=float)
    T = spec.horizon
    require(u.shape == (T + 1,), "length", f"expected {T + 1} levels, got {u.shape}")
    require(bool(np.all(u[:-1] >= 0.0)), "negative_delta", "levels must be nonnegative")
    return _residuals(spec, u)


def _residuals(spec: IterationSpec, u: np.ndarray) -> np.ndarray:
    import numpy as np
    c, s2 = spec.c[1:], spec.s2
    phi = _phi(spec, u[:-1])
    # one-sided derivative c_t u_t / phi_t(u_t); sqrt(c_t) at a kink
    dphi = np.sqrt(c)
    np.divide(c * u[1:-1], phi[1:], out=dphi, where=phi[1:] != 0.0)
    return (c * s2[:-1] + s2[1:]) * u[1:-1] - s2[:-1] * dphi * u[2:] - s2[1:] * phi[:-1]


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple

    def __bool__(self) -> bool:
        return self.feasible


def feasibility_check(spec: IterationSpec, u) -> FeasibilityReport:
    """Endpoint and interleaving checks for a level sequence u_0 .. u_T.

    Endpoints are compared exactly; nonnegativity and the interleaving
    phi_{t-1}(u_{t-1}) >= u_t get a 1e-12 slack.
    """
    import numpy as np
    u = np.asarray(u, dtype=float)
    T = spec.horizon
    require(u.shape == (T + 1,), "length", f"expected {T + 1} levels, got {u.shape}")
    require(not np.isnan(u[:-1]).any(), "negative_delta", "levels must not be nan")
    violations = []
    if u[0] != spec.diameter:
        violations.append(f"u_0 != D (u_0={u[0]!r}, D={spec.diameter!r})")
    if u[T] != 0.0:
        violations.append(f"u_T != 0 (u_T={u[T]!r})")
    for t in np.flatnonzero(u < -FEASIBILITY_TOL).tolist():
        violations.append(f"u_{t}={u[t]!r} < 0")
    phi = _phi(spec, np.maximum(u[:-1], 0.0))
    for t in (np.flatnonzero(phi < u[1:] - FEASIBILITY_TOL) + 1).tolist():
        violations.append(f"phi_{t - 1}(u_{t - 1})={float(phi[t - 1])!r} < u_{t}={u[t]!r}")
    return FeasibilityReport(not violations, tuple(violations))


def _certify_stationary(grad, x, upper, f_best, tol):
    # First-order check of the gradient grad at x: interior coordinates need
    # a small gradient, coordinates pinned at a bound only a correctly signed one.
    limit = tol * max(1.0, abs(f_best))
    for i, g in enumerate(grad.tolist()):
        if x[i] < 1e-9:
            side, ok = "at 0", g >= -limit
        elif upper[i] - x[i] < 1e-9:
            side, ok = "at the upper bound", g <= limit
        else:
            side, ok = "interior", abs(g) <= limit
        if not ok:
            raise OracleConvergenceError(
                f"stationarity certificate failed at coordinate {i} ({side}): "
                f"gradient {g:.3e} misses the limit {limit:.3e} = tol * max(1, |f|)"
            )


def numeric_oracle(
    spec: IterationSpec,
    restarts: int = 8,
    tol: float = 1e-4,
    *,
    seed: int = 0,
) -> ShiftSolution:
    """Multistart bounded minimization of the shift objective.

    Independent of the closed form: starts are the linear interpolation of
    D down to 0, the box midpoint and seeded uniform draws inside the
    forward-reachable box [0, r_1] x ... x [0, r_{T-1}], r_0 = D and
    r_t = phi_{t-1}(r_{t-1}).  The search runs on the spec rescaled to
    D = 1 and max_t sigma_t = 1, so that the absolute tolerances fit every
    scale; a scale out of the float range is refused.  L-BFGS-B polishes
    each start with the analytic gradient dE/du_t = 2 r_t / (sigma_{t-1}^2
    sigma_t^2), r_t from stationarity_residuals: the first-order condition
    of E alone, not the closed form's recursion.  The winner is the
    smallest objective, ties broken by start index; unless its gradient
    passes a stationarity certificate with tolerance tol, relative to
    max(1, |objective|), OracleConvergenceError is raised: a
    PreconditionError with code oracle_not_certified.  L-BFGS-B stops
    where the float objective no longer resolves a descent, so a tol near
    1e-8 can be refused even at the exact optimum.
    """
    import numpy as np
    restarts = integer("restarts", restarts, "restarts", 1)
    # a relative tolerance of 1 or more passes a gradient as large as the objective
    require(0 < tol < 1, "tolerance", f"tol must lie strictly in (0, 1), got {tol!r}")
    seed = integer("seed", seed, "seed", 0)
    T = spec.horizon
    require(
        T <= ORACLE_MAX_HORIZON,
        "horizon_too_large",
        f"numeric oracle supports horizons up to {ORACLE_MAX_HORIZON}, got {T}",
        required_value=ORACLE_MAX_HORIZON,
    )
    if T == 1:
        return _solution(spec, np.array([spec.diameter, 0.0]))

    D = spec.diameter
    unit = float(np.max(spec.s2)) / D / D
    require(0 < unit < math.inf, "out_of_range", "the oracle's unit max sigma^2 / D^2 leaves the float range")
    # the search runs on the spec rescaled to D = 1 and max sigma = 1, whose
    # objective at levels v = u / D is E(u) * unit
    sigmas = np.sqrt(spec.s2 / np.max(spec.s2))
    message = "the oracle's rescaled noise levels sigma_t / max sigma leave the float range"
    require(bool(np.all(sigmas * sigmas >= sys.float_info.min)), "out_of_range", message)
    scaled = IterationSpec.__new__(IterationSpec)
    with np.errstate(over="ignore"):
        scaled._store(1.0, spec.c, spec.h / D / D, sigmas)
        radii = _levels(scaled, np.ones(T - 1))[:-1]
        # the objective is at most sum_t r_t^2 / sigma_{t-1}^2 on the search box
        top = float(np.sum((scaled.c * radii**2 + scaled.h) / scaled.s2))
    require(top < math.inf, "out_of_range", "the oracle's search box overflows the float range")
    upper, s2 = radii[1:], scaled.s2

    from scipy import optimize  # here, so that pabi loads scipy only when a search runs

    def fun(v):
        return objective_E(scaled, v)

    def jac(v):
        return 2.0 * _residuals(scaled, np.concatenate(([1.0], v, [0.0]))) / s2[:-1] / s2[1:]

    rng = np.random.default_rng(seed)
    starts = [np.minimum(np.arange(T - 1, 0, -1) / T, upper), upper / 2.0]
    while len(starts) < restarts:
        starts.append(rng.uniform(0.0, upper))
    starts = starts[:restarts]
    bounds = [(0.0, float(b)) for b in upper]

    options = {"maxiter": 500, "maxfun": 20000, "ftol": 1e-15, "gtol": 1e-10}
    results = [
        optimize.minimize(fun, x0, method="L-BFGS-B", jac=jac, bounds=bounds, options=options)
        for x0 in starts
    ]
    best_idx = min(range(len(results)), key=lambda i: (results[i].fun, i))
    best = results[best_idx]
    x = np.clip(np.asarray(best.x, dtype=float), 0.0, upper)
    _certify_stationary(jac(x), x, upper, fun(x), tol)
    return _solution(spec, np.concatenate(([D], x * D, [0.0])))
