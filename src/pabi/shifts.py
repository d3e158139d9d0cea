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

import numpy as np
from scipy import optimize

from ._util import check, require
from .errors import OracleConvergenceError
from .moduli import QuadraticModulus

FEASIBILITY_TOL = 1e-12
# longest horizon the multistart numeric oracle accepts
ORACLE_MAX_HORIZON = 12


@dataclass(frozen=True, init=False, eq=False)  # arrays have no scalar ==
class IterationSpec:
    """Description of a horizon-T projected noisy iteration.

    Built from the diameter bounding the initial displacement and the
    per-step noise levels sigmas and QuadraticModulus moduli for steps
    0 .. T-1; stored as diameter plus read-only float64 arrays c, h (the
    moduli sqrt(c_t * delta^2 + h_t)) and s2 (sigma_t^2).  sigma_t^2 must
    be a finite normal float, so the sigmas and moduli views return
    exactly the values passed in.
    """

    diameter: float
    c: np.ndarray
    h: np.ndarray
    s2: np.ndarray

    def __init__(self, diameter, sigmas, moduli):
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
        check(horizon=horizon)
        require(isinstance(modulus, QuadraticModulus), "moduli", "modulus must be a QuadraticModulus")
        horizon = int(horizon)
        spec = cls.__new__(cls)
        spec._store(diameter, *(np.full(horizon, float(x)) for x in (modulus.c, modulus.h, sigma)))
        return spec

    @property
    def horizon(self) -> int:
        return len(self.s2)

    @property
    def sigmas(self) -> tuple:
        return tuple(np.sqrt(self.s2).tolist())

    @property
    def moduli(self) -> tuple:
        return tuple(map(QuadraticModulus, self.c.tolist(), self.h.tolist()))


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
    u_inner = np.asarray(u_inner, dtype=float)
    T = spec.horizon
    require(
        u_inner.shape == (T - 1,),
        "length",
        f"expected {T - 1} interior levels, got shape {u_inner.shape}",
    )
    u = np.concatenate(([spec.diameter], u_inner, [0.0]))
    phi = np.sqrt(spec.c * u[:-1] ** 2 + spec.h)
    return float(np.sum((phi - u[1:]) ** 2 / spec.s2))


def _phi(spec: IterationSpec, x: np.ndarray) -> np.ndarray:
    """phi_t(x_t) = sqrt(c_t * x_t^2 + h_t) for steps t = 0 .. T-1."""
    return np.sqrt(spec.c * x * x + spec.h)


def _solution(spec: IterationSpec, u: np.ndarray) -> ShiftSolution:
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        a = _phi(spec, u[:-1]) - u[1:]
        objective = float(np.sum(a * a / spec.s2))
    # levels past the float range (a diameter near 1e154 or more) give inf - inf shifts
    require(objective < math.inf, "out_of_range", "the shift objective overflows the float range")
    return ShiftSolution(u=tuple(u), a=tuple(a), objective=objective)


def _tail_weights(c: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Backward weights g_t = (s2_t + g_{t+1}) / c_t, g_T = 0, for t = T-1 .. 0.

    A plain-float loop: on long strongly contracting tails g overflows to
    inf without a RuntimeWarning, and inf is the correct limit for every
    caller.
    """
    g = np.empty(len(c))
    acc = 0.0
    c_list, s2_list = c.tolist(), s2.tolist()
    for t in range(len(c) - 1, -1, -1):
        acc = (s2_list[t] + acc) / c_list[t]
        g[t] = acc
    return g


def solve_closed_form(spec: IterationSpec) -> ShiftSolution:
    """Unique minimizer of the shift objective via the backward weight recursion.

    Backward pass: g_t = (sigma_t^2 + g_{t+1}) / c_t accumulates tail noise
    weights normalized by the running contraction product (g_t equals the
    tail sum S_t = sum_{j>=t} sigma_j^2 prod_{l>j} c_l divided by
    prod_{l>=t} c_l).  Forward pass: u_t is the tail-to-total weight ratio
    times phi_{t-1}(u_{t-1}),

        u_t = g_t / (sigma_{t-1}^2 + g_t) * phi_{t-1}(u_{t-1}).

    A g_t overflowing to inf (long strongly contracting tails) saturates
    the ratio at 1, which is its correct limit.
    """
    c, h, s2 = spec.c.tolist(), spec.h.tolist(), spec.s2.tolist()
    g = _tail_weights(spec.c, spec.s2).tolist()
    u = np.empty(spec.horizon + 1)
    level = u[0] = spec.diameter
    for t in range(1, spec.horizon):
        gt = g[t]
        ratio = 1.0 if gt == math.inf else gt / (s2[t - 1] + gt)
        level = u[t] = ratio * math.sqrt(c[t - 1] * level * level + h[t - 1])
    u[-1] = 0.0
    return _solution(spec, u)


def stationarity_residuals(spec: IterationSpec, u) -> np.ndarray:
    """Residuals of the interior first-order conditions at levels u.

    For t = 1 .. T-1:

        (c_t s_{t-1}^2 + s_t^2) u_t - s_{t-1}^2 phi_t'(u_t) u_{t+1}
            - s_t^2 phi_{t-1}(u_{t-1})

    where s_t = sigma_t.  All residuals vanish at the closed-form solution.
    """
    u = np.asarray(u, dtype=float)
    T = spec.horizon
    require(u.shape == (T + 1,), "length", f"expected {T + 1} levels, got {u.shape}")
    require(bool(np.all(u[:-1] >= 0.0)), "negative_delta", "levels must be nonnegative")
    c, s2 = spec.c[1:], spec.s2
    phi = _phi(spec, u[:-1])
    # one-sided derivative c_t u_t / phi_t(u_t); sqrt(c_t) at a kink
    dphi = np.sqrt(c)
    np.divide(c * u[1:T], phi[1:], out=dphi, where=phi[1:] != 0.0)
    return (c * s2[:-1] + s2[1:]) * u[1:T] - s2[:-1] * dphi * u[2:] - s2[1:] * phi[:-1]


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


def _forward_radii(spec: IterationSpec) -> np.ndarray:
    c, h = spec.c.tolist(), spec.h.tolist()
    r = [spec.diameter]
    for t in range(1, spec.horizon):
        r.append(math.sqrt(c[t - 1] * r[-1] * r[-1] + h[t - 1]))
    return np.array(r)


def _certify_stationary(fun, x, upper, f_best, tol):
    # Finite-difference first-order check: interior coordinates need a small
    # gradient, coordinates pinned at a bound only a correctly signed one.
    scale = max(1.0, abs(f_best))
    for i in range(len(x)):
        xi = float(x[i])
        step = 1e-5 * max(1.0, abs(xi))
        at_lower = xi < 1e-9
        at_upper = upper[i] - xi < 1e-9
        bumped = x.copy()
        if at_lower:
            bumped[i] = xi + step
            grad_i = (fun(bumped) - f_best) / step
            ok = grad_i >= -tol * scale
        elif at_upper:
            bumped[i] = xi - step
            grad_i = (f_best - fun(bumped)) / step
            ok = grad_i <= tol * scale
        else:
            step = min(step, xi / 2.0, (upper[i] - xi) / 2.0)
            plus = x.copy()
            plus[i] = xi + step
            minus = x.copy()
            minus[i] = xi - step
            grad_i = (fun(plus) - fun(minus)) / (2.0 * step)
            ok = abs(grad_i) <= tol * scale
        if not ok:
            raise OracleConvergenceError(
                f"stationarity certificate failed at coordinate {i}: "
                f"finite-difference gradient {grad_i:.3e} exceeds tolerance"
            )


def numeric_oracle(
    spec: IterationSpec,
    restarts: int = 8,
    tol: float = 1e-4,
    *,
    seed: int = 0,
) -> ShiftSolution:
    """Multistart bounded minimization of the shift objective.

    Independent of the closed form: starts are two deterministic points
    (the linear interpolation of D down to 0, and the box midpoint) plus
    seeded uniform draws inside the forward-reachable box
    [0, r_1] x ... x [0, r_{T-1}] with r_0 = D, r_t = phi_{t-1}(r_{t-1}).
    Each start is polished by bound-constrained quasi-Newton descent with
    finite-difference gradients; the winner is the smallest objective with
    ties broken by start index, and must pass a central-difference
    stationarity certificate with tolerance tol.
    """
    require(restarts >= 1, "restarts", "restarts must be a positive integer")
    require(tol > 0, "tolerance", "tol must be strictly positive")
    T = spec.horizon
    require(
        T <= ORACLE_MAX_HORIZON,
        "horizon_too_large",
        f"numeric oracle supports horizons up to {ORACLE_MAX_HORIZON}, got {T}",
        required_value=ORACLE_MAX_HORIZON,
    )
    if T == 1:
        return _solution(spec, np.array([spec.diameter, 0.0]))

    upper = _forward_radii(spec)[1:]

    def fun(v):
        return objective_E(spec, v)

    rng = np.random.default_rng(seed)
    linear = np.minimum(spec.diameter * np.arange(T - 1, 0, -1) / T, upper)
    starts = [linear, upper / 2.0]
    while len(starts) < restarts:
        starts.append(rng.uniform(0.0, upper))
    starts = starts[:restarts]
    bounds = [(0.0, float(b)) for b in upper]

    options = {"maxiter": 500, "maxfun": 20000, "ftol": 1e-15, "gtol": 1e-10}
    results = [
        optimize.minimize(fun, x0, method="L-BFGS-B", bounds=bounds, options=options)
        for x0 in starts
    ]
    best_idx = min(range(len(results)), key=lambda i: (results[i].fun, i))
    best = results[best_idx]
    x = np.clip(np.asarray(best.x, dtype=float), 0.0, upper)
    f_best = fun(x)
    _certify_stationary(fun, x, upper, f_best, tol)
    return _solution(spec, np.concatenate(([spec.diameter], x, [0.0])))
