import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pabi import (
    IterationSpec,
    OracleConvergenceError,
    PreconditionError,
    QuadraticModulus,
    feasibility_check,
    numeric_oracle,
    objective_E,
    renyi_bound_general,
    solve_closed_form,
    stationarity_residuals,
)
from pabi.shifts import ORACLE_MAX_HORIZON, _certify_stationary, _levels
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
        assert recomputed == sol.objective


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


@pytest.mark.parametrize(
    "kwargs, code",
    [
        ({"restarts": 0}, "restarts"),
        ({"restarts": 2.5}, "restarts"),
        ({"restarts": math.inf}, "restarts"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": math.nan}, "seed"),
        ({"tol": 0.0}, "tolerance"),
        ({"tol": 1.0}, "tolerance"),
        ({"tol": 1e308}, "tolerance"),
        ({"tol": math.inf}, "tolerance"),
        ({"tol": math.nan}, "tolerance"),
    ],
)
def test_oracle_refuses_bad_search_settings(kwargs, code):
    with pytest.raises(PreconditionError) as exc:
        numeric_oracle(figure_spec(), **kwargs)
    assert exc.value.code == code


def test_oracle_takes_integral_floats_as_counts():
    a = numeric_oracle(figure_spec(), restarts=4.0, seed=3.0)
    b = numeric_oracle(figure_spec(), restarts=4, seed=3)
    assert a == b


@pytest.mark.parametrize("c, h", [(1e308, 0.0), (1.0, 1e308)])
def test_oracle_refuses_a_search_box_past_the_float_range(c, h):
    # the closed form is finite here, but objective values in the box overflow
    spec = _uniform(1.0, 2, c, h, 1.0)
    assert solve_closed_form(spec).objective < math.inf
    with pytest.raises(PreconditionError) as exc:
        numeric_oracle(spec)
    assert exc.value.code == "out_of_range"


def test_spec_validation():
    mod = QuadraticModulus(1.0, 0.0)
    with pytest.raises(PreconditionError):
        IterationSpec(diameter=0.0, sigmas=(1.0,), moduli=(mod,))
    with pytest.raises(PreconditionError):
        IterationSpec(diameter=1.0, sigmas=(1.0, 1.0), moduli=(mod,))
    with pytest.raises(PreconditionError):
        IterationSpec(diameter=1.0, sigmas=(0.0,), moduli=(mod,))


def test_spec_arrays_hold_the_inputs_read_only():
    rng = np.random.default_rng(9)
    sigmas = rng.uniform(0.1, 2.0, 50).tolist() + [1e-150, 1e150]
    pairs = rng.uniform(0.5, 1.5, (52, 2)).tolist()
    spec = IterationSpec(diameter=1.0, sigmas=sigmas, moduli=[QuadraticModulus(c, h) for c, h in pairs])
    assert spec.c.tolist() == [c for c, _ in pairs]
    assert spec.h.tolist() == [h for _, h in pairs]
    assert spec.s2.tolist() == [s * s for s in sigmas]
    assert np.sqrt(spec.s2).tolist() == sigmas  # a normal sigma^2 keeps sigma whole
    for arr in (spec.c, spec.h, spec.s2):
        with pytest.raises(ValueError):
            arr[0] = 2.0
    uniform = IterationSpec.uniform(2.0, 4, QuadraticModulus(0.7, 0.3), 0.9)
    assert (uniform.c.tolist(), uniform.h.tolist(), uniform.s2.tolist()) == ([0.7] * 4, [0.3] * 4, [0.9 * 0.9] * 4)


def test_solution_levels_and_shifts_are_python_floats():
    specs = [figure_spec(), _uniform(2.0, 40, 0.9, 0.2, 1.3), random_spec(np.random.default_rng(17))]
    solutions = [solve_closed_form(spec) for spec in specs] + [numeric_oracle(figure_spec())]
    for sol in solutions:
        assert type(sol.u) is tuple and type(sol.a) is tuple
        assert all(type(x) is float for x in sol.u + sol.a)
        assert type(sol.objective) is float


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))])
def test_spec_copies_keep_read_only_arrays(clone):
    spec = _uniform(2.0, 6, 0.9, 0.2, 1.3)
    weights = [arr.copy() for arr in spec._g]
    twin = clone(spec)
    for arr in (twin.c, twin.h, twin.s2, *twin._g):
        with pytest.raises(ValueError):
            arr[0] = 5
    assert all(np.array_equal(got, want) for got, want in zip(twin._g, weights, strict=True))
    assert solve_closed_form(twin) == solve_closed_form(spec)


def test_saturating_tail_emits_no_runtime_warning():
    # g_t passes the float range after ~1000 steps at c = 0.5
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


def _square_distance_gradient(target, x):
    # gradient of sum((x - target)^2)
    return 2.0 * (x - target)


def _gradient_E(spec, u_inner):
    # dE/du_t = 2 r_t / (sigma_{t-1}^2 sigma_t^2) for the stationarity residuals r_t
    u = np.concatenate(([spec.diameter], u_inner, [0.0]))
    return 2.0 * stationarity_residuals(spec, u) / spec.s2[:-1] / spec.s2[1:]


@pytest.mark.parametrize(
    "target, x",
    [
        (1.0, 0.5),  # interior point with gradient -1
        (1.0, 0.0),  # pinned at 0 with the objective falling into the box
        (1.0, 2.0),  # pinned at the upper bound with the objective falling into the box
    ],
)
def test_certificate_refuses_a_point_that_is_not_a_minimum(target, x):
    x = np.array([x])
    f = float(np.sum((x - target) ** 2))
    with pytest.raises(OracleConvergenceError, match="coordinate 0"):
        _certify_stationary(_square_distance_gradient(target, x), x, np.array([2.0]), f, 1e-4)


@pytest.mark.parametrize("target, x", [(-1.0, 0.0), (3.0, 2.0), (0.7, 0.7)])
def test_certificate_passes_a_minimum_over_the_box(target, x):
    x = np.array([x])
    f = float(np.sum((x - target) ** 2))
    _certify_stationary(_square_distance_gradient(target, x), x, np.array([2.0]), f, 1e-4)


def test_certificate_passes_the_closed_form_optimum():
    spec = figure_spec()
    sol = solve_closed_form(spec)
    x = np.array(sol.u[1:-1])
    upper = _levels(spec, np.ones(spec.horizon - 1))[1:-1]
    _certify_stationary(_gradient_E(spec, x), x, upper, objective_E(spec, x), 1e-4)
    with pytest.raises(OracleConvergenceError) as exc:
        _certify_stationary(_gradient_E(spec, x * 0.9), x * 0.9, upper, objective_E(spec, x * 0.9), 1e-4)
    message = str(exc.value)
    assert "coordinate 0 (interior)" in message and "tol * max(1, |f|)" in message
    # a refusal like any other: exit 2 in the CLI, with the message it prints
    assert isinstance(exc.value, PreconditionError) and exc.value.code == "oracle_not_certified"
    assert message.startswith("the oracle found no certified optimum: stationarity certificate failed")


def test_oracle_gradient_matches_central_differences(monkeypatch):
    # the gradient numeric_oracle hands L-BFGS-B, against central differences
    # of objective_E in the oracle's units: levels / D, objective * max sigma^2 / D^2
    from scipy import optimize

    searched = []
    minimize = optimize.minimize

    def spy(fun, x0, **kwargs):
        searched.append(kwargs["jac"])
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(optimize, "minimize", spy)
    rng = np.random.default_rng(11)
    for _ in range(20):
        spec = random_spec(rng)
        searched.clear()
        numeric_oracle(spec, restarts=1)
        jac, D = searched[0], spec.diameter
        unit = float(np.max(spec.s2)) / D / D

        def fun(v):
            return objective_E(spec, v * D) * unit

        for _ in range(5):
            v = rng.uniform(0.05, 2.0, spec.horizon - 1)
            step = 1e-6
            central = np.array([
                (fun(v + step * e) - fun(v - step * e)) / (2.0 * step) for e in np.eye(len(v))
            ])
            assert np.allclose(jac(v), central, rtol=1e-6, atol=1e-7 * max(1.0, fun(v)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_oracle_matches_closed_form_up_to_the_horizon_cap(seed):
    # A1's thresholds, at horizons 9 .. ORACLE_MAX_HORIZON that A1's specs never reach
    spec = random_spec(np.random.default_rng(seed), t_min=9, t_max=ORACLE_MAX_HORIZON)
    closed = solve_closed_form(spec)
    oracle = numeric_oracle(spec, restarts=8, tol=1e-4, seed=seed % 1000)
    assert abs(oracle.objective - closed.objective) / closed.objective <= 1e-6
    assert closed.objective - oracle.objective <= 1e-8


def test_oracle_box_is_the_forward_pass_with_unit_ratios():
    spec = figure_spec()
    radii = _levels(spec, np.ones(2))
    assert radii.tolist() == [1.0, math.sqrt(5.0), math.sqrt(9.0), 0.0]


@pytest.mark.parametrize(
    "D, sigma, c",
    [
        (1e-170, 1.0, 1.0),  # max sigma^2 / D^2 overflows
        (1e150, 1e-75, 1e-300),  # max sigma^2 / D^2 underflows to 0
    ],
)
def test_oracle_refuses_an_objective_unit_out_of_the_float_range(D, sigma, c):
    spec = _uniform(D, 2, c, 0.0, sigma)
    with pytest.raises(PreconditionError) as exc:
        numeric_oracle(spec)
    assert exc.value.code == "out_of_range"
