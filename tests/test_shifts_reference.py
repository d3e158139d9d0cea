"""Array-based shift and bound code against per-object reference copies.

The reference functions below evaluate every step through per-modulus
helpers and numpy scalars, as the package did before IterationSpec
stored its parameters as arrays.  Below _BLOCK steps the array code runs
no block map and keeps the same floating-point operations in the same
order for the levels and the bound, so those must agree bit for bit, not
just to a tolerance; longer horizons move their steps in blocks and
agree within 1e-13.  The shifts are w_t phi_{t-1}(u_{t-1}), not the
reference's differences of levels, at every horizon.
"""

import math

import numpy as np
import pytest

from pabi import (
    feasibility_check,
    renyi_bound_general,
    solve_closed_form,
    stationarity_residuals,
)
from pabi.shifts import _BLOCK, FEASIBILITY_TOL, _tail_weights
from conftest import random_spec, spec_from


def _evaluate(m, delta):
    """sqrt(c delta^2 + h) for one (c, h) pair."""
    c, h = m
    return math.sqrt(c * delta * delta + h)


def _derivative(m, delta):
    """One-sided derivative c delta / sqrt(c delta^2 + h); sqrt(c) at a kink."""
    value = _evaluate(m, delta)
    if value == 0.0:
        return math.sqrt(m[0])
    return m[0] * delta / value


def _moduli(spec):
    """The spec's moduli as (c_t, h_t) pairs of Python floats."""
    return list(zip(spec.c.tolist(), spec.h.tolist()))


def reference_solve_closed_form(spec):
    c, s2 = spec.c, spec.s2
    moduli = _moduli(spec)
    T = spec.horizon
    g = np.empty(T)
    acc = 0.0
    # numpy scalars warn when g saturates at inf; the values are what count
    with np.errstate(over="ignore"):
        for t in range(T - 1, -1, -1):
            acc = (s2[t] + acc) / c[t]
            g[t] = acc
    u = np.empty(T + 1)
    u[0] = spec.diameter
    for t in range(1, T):
        gt = g[t]
        ratio = 1.0 if math.isinf(gt) else gt / (s2[t - 1] + gt)
        u[t] = ratio * _evaluate(moduli[t - 1], u[t - 1])
    u[T] = 0.0
    a = np.array([_evaluate(moduli[t], u[t]) for t in range(T)]) - u[1:]
    return tuple(u), tuple(a), float(np.sum(a * a / s2))


def reference_renyi_bound_general(alpha, spec):
    c, h, s2 = spec.c, spec.h, spec.s2
    T = spec.horizon
    g = np.empty(T)
    acc = 0.0
    c_list, s2_list = c.tolist(), s2.tolist()
    for t in range(T - 1, -1, -1):
        acc = (s2_list[t] + acc) / c_list[t]
        g[t] = acc
    diameter_raw = spec.diameter**2 / g[0]
    offset_raw = float(np.sum(np.where(h > 0.0, h / (c * g), 0.0)))
    half = 0.5 * alpha
    return half * diameter_raw, half * offset_raw


def reference_stationarity_residuals(spec, u):
    u = np.asarray(u, dtype=float)
    c, s2 = spec.c, spec.s2
    moduli = _moduli(spec)
    T = spec.horizon
    res = np.empty(T - 1)
    for t in range(1, T):
        phi_prev = _evaluate(moduli[t - 1], u[t - 1])
        dphi = _derivative(moduli[t], u[t])
        res[t - 1] = (
            (c[t] * s2[t - 1] + s2[t]) * u[t]
            - s2[t - 1] * dphi * u[t + 1]
            - s2[t] * phi_prev
        )
    return res


def reference_feasibility_violations(spec, u):
    u = np.asarray(u, dtype=float)
    moduli = _moduli(spec)
    T = spec.horizon
    violations = []
    levels = u.tolist()
    if levels[0] != spec.diameter:
        violations.append(f"u_0 != D (u_0={levels[0]!r}, D={spec.diameter!r})")
    if levels[T] != 0.0:
        violations.append(f"u_T != 0 (u_T={levels[T]!r})")
    for t in range(T + 1):
        if levels[t] < -FEASIBILITY_TOL:
            violations.append(f"u_{t}={levels[t]!r} < 0")
    for t in range(1, T + 1):
        phi_val = _evaluate(moduli[t - 1], max(levels[t - 1], 0.0))
        if phi_val < levels[t] - FEASIBILITY_TOL * max(1.0, phi_val):
            violations.append(f"phi_{t - 1}(u_{t - 1})={phi_val!r} < u_{t}={levels[t]!r}")
    return tuple(violations)


def long_spec(index, horizon=10_000):
    """Conftest ranges at a long horizon, a fifth of the offsets zero, and a
    block of c = 0.5 steps long enough for the tail weights to pass the float range."""
    rng = np.random.default_rng([0x5EF, index])
    c = rng.uniform(0.5, 1.5, horizon)
    c[: horizon // 2] = 0.5
    h = rng.uniform(0.0, 2.0, horizon)
    h[rng.random(horizon) < 0.2] = 0.0
    sig = rng.uniform(0.1, 2.0, horizon)
    return spec_from(rng.uniform(0.5, 4.0), c, h, sig)


def _specs():
    rng = np.random.default_rng(11)
    return [random_spec(rng) for _ in range(60)] + [long_spec(i) for i in range(3)]


SPECS = _specs()


@pytest.mark.parametrize("spec", SPECS, ids=[f"{i}-T={s.horizon}" for i, s in enumerate(SPECS)])
def test_array_code_is_bit_identical_to_reference(spec):
    sol = solve_closed_form(spec)
    u, a, objective = reference_solve_closed_form(spec)
    bound = renyi_bound_general(1.7, spec)
    breakdown = (bound.breakdown["diameter"], bound.breakdown["offset"])
    if spec.horizon < _BLOCK:
        assert np.array_equal(sol.u, u)
        assert breakdown == reference_renyi_bound_general(1.7, spec)
    else:
        # all but the first partial block move in blocks, one affine map
        # each, which round otherwise: the documented tolerance
        assert breakdown == pytest.approx(reference_renyi_bound_general(1.7, spec), rel=1e-13, abs=0.0)
        assert np.allclose(sol.u, u, rtol=1e-13, atol=0.0)
    # shifts absolute, since the reference's differences of levels lose the small ones
    assert sol.objective == pytest.approx(objective, rel=1e-13, abs=0.0)
    assert np.allclose(sol.a, a, rtol=0.0, atol=1e-13 * max(u))

    got = stationarity_residuals(spec, sol.u)
    assert np.array_equal(got, reference_stationarity_residuals(spec, sol.u))


def test_long_specs_saturate_the_tail_weights():
    # g_0 passes the float range, where the references' plain loop gives inf
    # and the ratio 1, and the tail weights carry it as a positive exponent
    for index in range(3):
        spec = long_spec(index)
        assert _tail_weights(spec.c, spec.s2)[1][0] > 0


def test_residuals_and_feasibility_at_kinks_match_reference():
    # levels off the optimum, with zeros where h_t = 0 (the derivative's
    # kink branch) and entries that break nonnegativity and interleaving
    rng = np.random.default_rng(12)
    for index in range(2):
        spec = long_spec(index, horizon=2000)
        u = np.array(solve_closed_form(spec).u) * rng.uniform(0.5, 1.5, spec.horizon + 1)
        u[0] = spec.diameter
        kinks = np.flatnonzero(np.asarray(spec.h) == 0.0)
        u[kinks[kinks > 0][:50]] = 0.0
        assert np.array_equal(
            stationarity_residuals(spec, u), reference_stationarity_residuals(spec, u)
        )
        u[5] = -1e-6
        u[-1] = 0.25
        report = feasibility_check(spec, u)
        assert report.violations == reference_feasibility_violations(spec, u)
        assert not report.feasible
