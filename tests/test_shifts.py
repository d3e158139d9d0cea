import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pabi import (
    IterationSpec,
    PreconditionError,
    QuadraticModulus,
    feasibility_check,
    numeric_oracle,
    objective_E,
    renyi_bound_general,
    solve_closed_form,
    stationarity_residuals,
)
from conftest import random_spec


def _uniform(D, horizon, c, h, sigma):
    return IterationSpec.uniform(
        diameter=D, horizon=horizon, modulus=QuadraticModulus(c, h), sigma=sigma
    )


def figure_spec():
    # T=3, D=1, c=1, h=4 each step, sigma=(1, 0.1, 1)
    mod = QuadraticModulus(1.0, 4.0)
    return IterationSpec(diameter=1.0, sigmas=(1.0, 0.1, 1.0), moduli=(mod, mod, mod))


def test_objective_single_step():
    spec = _uniform(1.0, 1, 1.0, 0.0, 1.0)
    assert objective_E(spec, []) == 1.0


def test_objective_two_step_example():
    spec = _uniform(1.0, 2, 1.0, 4.0, 1.0)
    assert objective_E(spec, [math.sqrt(5.0)]) == pytest.approx(9.0, rel=1e-12)


def test_objective_figure_point():
    # E(1, 3) = (sqrt5-1)^2 + ((sqrt5-3)/0.1)^2 + 13
    val = objective_E(figure_spec(), [1.0, 3.0])
    s5 = math.sqrt(5.0)
    ref = (s5 - 1.0) ** 2 + ((s5 - 3.0) / 0.1) ** 2 + 13.0
    assert val == pytest.approx(ref, rel=1e-12)
    assert val == pytest.approx(72.8871, rel=1e-4)


def test_objective_defined_for_negative_coordinates():
    spec = figure_spec()
    val = objective_E(spec, [-0.5, 3.0])
    s5 = math.sqrt(5.0)
    ref = (s5 + 0.5) ** 2 + ((math.sqrt(4.25) - 3.0) / 0.1) ** 2 + 13.0
    assert val == pytest.approx(ref, rel=1e-12)


def test_objective_length_mismatch():
    with pytest.raises(PreconditionError):
        objective_E(figure_spec(), [1.0])


def test_solve_single_step():
    spec = _uniform(2.0, 1, 1.0, 4.0, 0.5)
    sol = solve_closed_form(spec)
    assert sol.u == (2.0, 0.0)
    phi = math.sqrt(8.0)
    assert sol.a[0] == pytest.approx(phi, rel=1e-15)
    assert sol.objective == pytest.approx(phi * phi / 0.25, rel=1e-14)


def test_solve_figure_recursion_values():
    sol = solve_closed_form(figure_spec())
    u1 = (1.01 / 2.01) * math.sqrt(5.0)
    u2 = (1.0 / 1.01) * math.sqrt(u1 * u1 + 4.0)
    assert sol.u[1] == pytest.approx(u1, rel=1e-14)
    assert sol.u[2] == pytest.approx(u2, rel=1e-14)
    assert sol.u[1] == pytest.approx(1.12350, rel=1e-4)
    assert sol.u[2] == pytest.approx(2.27129, rel=1e-4)


def test_solve_uniform_shifts_when_h_zero():
    for horizon in (2, 3, 7):
        spec = _uniform(3.0, horizon, 1.0, 0.0, 0.7)
        sol = solve_closed_form(spec)
        for t, ut in enumerate(sol.u):
            assert ut == pytest.approx(3.0 * (horizon - t) / horizon, rel=1e-13)
        for at in sol.a:
            assert at == pytest.approx(3.0 / horizon, rel=1e-13)


def test_solution_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        spec = random_spec(rng)
        sol = solve_closed_form(spec)
        assert sol.u[0] == spec.diameter
        assert sol.u[-1] == 0.0
        assert all(ut >= 0.0 for ut in sol.u)
        assert all(at >= -1e-15 for at in sol.a)
        report = feasibility_check(spec, sol.u)
        assert report.feasible, report.violations
        recomputed = objective_E(spec, list(sol.u[1:-1]))
        assert recomputed == pytest.approx(sol.objective, rel=1e-12)


def test_stationarity_random():
    rng = np.random.default_rng(8)
    for _ in range(50):
        spec = random_spec(rng)
        sol = solve_closed_form(spec)
        res = stationarity_residuals(spec, sol.u)
        assert np.all(np.abs(res) <= 1e-10)


def test_feasibility_violations():
    spec = _uniform(1.0, 2, 1.0, 0.0, 1.0)
    report = feasibility_check(spec, (1.0, 2.0, 0.0))
    assert not report.feasible
    assert any("phi" in v for v in report.violations)
    report = feasibility_check(spec, (1.0, 0.5, 0.1))
    assert not report.feasible
    assert any("u_T" in v for v in report.violations)
    with pytest.raises(Exception):
        feasibility_check(spec, (1.0, 0.0))


def test_oracle_single_step_identical():
    spec = _uniform(1.5, 1, 1.0, 1.0, 0.9)
    closed = solve_closed_form(spec)
    ora = numeric_oracle(spec)
    assert ora.u == closed.u
    assert ora.objective == closed.objective


def test_oracle_matches_figure_to_1e8():
    closed = solve_closed_form(figure_spec())
    ora = numeric_oracle(figure_spec(), restarts=8, tol=1e-4)
    assert abs(ora.objective - closed.objective) / closed.objective <= 1e-8


def test_oracle_deterministic():
    spec = figure_spec()
    a = numeric_oracle(spec, restarts=4, tol=1e-4, seed=3)
    b = numeric_oracle(spec, restarts=4, tol=1e-4, seed=3)
    assert a.objective == b.objective
    assert a.u == b.u


def test_oracle_rejects_large_horizon():
    spec = _uniform(1.0, 13, 1.0, 0.0, 1.0)
    with pytest.raises(PreconditionError) as exc:
        numeric_oracle(spec)
    assert exc.value.code == "horizon_too_large"
    assert exc.value.required_value == 12


def test_spec_validation():
    mod = QuadraticModulus(1.0, 0.0)
    with pytest.raises(PreconditionError):
        IterationSpec(diameter=0.0, sigmas=(1.0,), moduli=(mod,))
    with pytest.raises(PreconditionError):
        IterationSpec(diameter=1.0, sigmas=(1.0, 1.0), moduli=(mod,))
    with pytest.raises(PreconditionError):
        IterationSpec(diameter=1.0, sigmas=(0.0,), moduli=(mod,))


def test_spec_views_return_the_inputs():
    rng = np.random.default_rng(9)
    sigmas = tuple(rng.uniform(0.1, 2.0, 50).tolist()) + (1e-150, 1e150)
    moduli = tuple(QuadraticModulus(c, h) for c, h in rng.uniform(0.5, 1.5, (52, 2)).tolist())
    spec = IterationSpec(diameter=1.0, sigmas=sigmas, moduli=moduli)
    assert spec.sigmas == sigmas
    assert spec.moduli == moduli
    with pytest.raises(ValueError):
        spec.c[0] = 2.0
    mod = QuadraticModulus(0.7, 0.3)
    uniform = IterationSpec.uniform(2.0, 4, mod, 0.9)
    assert uniform.sigmas == (0.9,) * 4
    assert uniform.moduli == (mod,) * 4


def test_saturating_tail_emits_no_runtime_warning():
    # g_t overflows to inf after ~1000 steps at c = 0.5
    spec = IterationSpec.uniform(1.0, 3000, QuadraticModulus(0.5, 0.1), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_closed_form(spec)
        bound = renyi_bound_general(2.0, spec)
    assert bound.value == pytest.approx(sol.objective, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**31 - 1),
)
def test_closed_form_never_beaten_by_feasible_points(data, seed):
    # the closed form minimizes E globally, so no sampled point does better
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, t_min=2, t_max=5)
    sol = solve_closed_form(spec)
    horizon = spec.horizon
    point = [
        data.draw(st.floats(0.0, 4.0 * spec.diameter + 4.0)) for _ in range(horizon - 1)
    ]
    assert objective_E(spec, point) >= sol.objective - 1e-12 * max(1.0, sol.objective)
