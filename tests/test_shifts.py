import copy
import decimal
import math
import pickle
import sys
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
from pabi._util import _Wide
from pabi.shifts import (
    _BLOCK,
    ORACLE_MAX_HORIZON,
    _certify_stationary,
    _level_sums,
    _levels,
    _weight_steps,
    _weight_sums,
)
from conftest import random_spec, same_solution, spec_from


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
    assert np.array_equal(sol.u, [2.0, 0.0])
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
        assert all(at >= 0.0 for at in sol.a)
        report = feasibility_check(spec, sol.u)
        assert report.feasible, report.violations
        # the objective sums the returned shifts w_t phi_{t-1}(u_{t-1}), not the
        # differences phi_{t-1}(u_{t-1}) - u_t of rounded levels that objective_E takes
        assert sol.objective == float(np.sum(np.array(sol.a) ** 2 / spec.s2))
        recomputed = objective_E(spec, list(sol.u[1:-1]))
        assert recomputed == pytest.approx(sol.objective, rel=1e-14, abs=0.0)


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


def test_feasibility_report_is_true_exactly_when_feasible():
    spec = _uniform(1.0, 2, 1.0, 0.0, 1.0)
    assert feasibility_check(spec, solve_closed_form(spec).u)
    assert not feasibility_check(spec, (1.0, 2.0, 0.0))


def test_levels_past_the_float_range_are_refused():
    # one step of c = 16 at sigma 1e-150 lifts the levels from D = 1.5e308 past the float range, while
    # two later steps of c = 1e-300 lift the weights so far that every shift and the objective stay finite
    c, sigma = np.ones(513), np.ones(513)
    c[5], sigma[5] = 16.0, 1e-150
    c[300:302] = 1e-300
    spec = IterationSpec.from_arrays(1.5e308, c, np.zeros(513), sigma)
    with pytest.raises(PreconditionError) as exc:
        solve_closed_form(spec)
    assert exc.value.code == "out_of_range"


def test_feasibility_slack_is_relative_to_phi():
    # block-mapped levels near 3e4 pass phi by an ulp, more than an absolute 1e-12 slack allows
    spec = IterationSpec.uniform(1.0, 1000, QuadraticModulus(0.9, 1e8), 1e-3)
    u = solve_closed_form(spec).u.copy()
    assert feasibility_check(spec, u).violations == ()
    # 1e-9 relative above phi is still a violation, printed as plain floats
    u[241] = math.sqrt(0.9 * u[240] * u[240] + 1e8) * (1.0 + 1e-9)
    assert feasibility_check(spec, u).violations == ("phi_240(u_240)=31622.776601535403 < u_241=31622.77663315818",)
    u[0], u[-1], u[3] = 2.0, 0.5, -1.0
    assert feasibility_check(spec, u).violations[:3] == ("u_0 != D (u_0=2.0, D=1.0)", "u_T != 0 (u_T=0.5)", "u_3=-1.0 < 0")


def test_oracle_single_step_identical():
    spec = _uniform(1.5, 1, 1.0, 1.0, 0.9)
    closed = solve_closed_form(spec)
    ora = numeric_oracle(spec)
    assert np.array_equal(ora.u, closed.u)
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
    assert np.array_equal(a.u, b.u)


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
    assert same_solution(a, b)


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


def test_solution_levels_and_shifts_are_read_only_float64_arrays():
    specs = [figure_spec(), _uniform(2.0, 40, 0.9, 0.2, 1.3), random_spec(np.random.default_rng(17))]
    one_step = _uniform(1.5, 1, 1.0, 1.0, 0.9)  # the oracle's shortcut without a search
    solved = [(spec, solve_closed_form(spec)) for spec in specs + [one_step]]
    solved += [(spec, numeric_oracle(spec)) for spec in (figure_spec(), one_step)]
    for spec, sol in solved:
        for arr, length in ((sol.u, spec.horizon + 1), (sol.a, spec.horizon)):
            assert type(arr) is np.ndarray and arr.dtype == np.float64 and arr.shape == (length,)
            with pytest.raises(ValueError):
                arr[0] = 5.0
        assert type(sol.objective) is float


def test_from_arrays_copies_its_inputs_and_matches_the_moduli_constructor():
    rng = np.random.default_rng(21)
    c, h, sigmas = rng.uniform(0.5, 1.5, 300), rng.uniform(0.0, 2.0, 300), rng.uniform(0.1, 2.0, 300)
    spec = IterationSpec.from_arrays(1.5, c, h, sigmas)
    twin = IterationSpec(1.5, sigmas.tolist(), map(QuadraticModulus, c.tolist(), h.tolist()))
    for got, want in ((spec.c, twin.c), (spec.h, twin.h), (spec.s2, twin.s2)):
        assert got.dtype == np.float64 and np.array_equal(got, want)
    assert same_solution(solve_closed_form(spec), solve_closed_form(twin))
    # the caller's arrays stay its own: writeable, and no longer read by the spec
    c[0] = h[0] = sigmas[0] = 7.0
    assert (spec.c[0], spec.h[0], spec.s2[0]) == (twin.c[0], twin.h[0], twin.s2[0])


@pytest.mark.parametrize(
    "D, c, h, sigmas, code, message",
    [
        (1.0, [1.0, 2.0, -1.0], [0.0] * 3, [1.0] * 3, "modulus_c", "step 2: c must be strictly positive and finite, got -1.0"),
        (1.0, [1.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0] * 3, "modulus_c", "step 1: c must be strictly positive"),
        (1.0, [1.0, 1.0, -1.0], [0.0, math.inf, 0.0], [1.0] * 3, "offset", "step 1: h must be nonnegative and finite, got inf"),
        (1.0, [1.0, math.nan], [0.0, -1.0], [1.0] * 2, "modulus_c", "step 1: c must be strictly positive and finite, got nan"),
        (0.0, [1.0, -1.0], [0.0] * 2, [0.0] * 2, "modulus_c", "step 1:"),
        (0.0, [1.0] * 2, [0.0] * 2, [1.0], "diameter", "D must be"),
        (1.0, [1.0] * 2, [0.0] * 2, [1.0], "lengths", ""),
        (1.0, [1.0], [0.0] * 2, [1.0] * 2, "lengths", ""),
        (1.0, [[1.0]], [[0.0]], [[1.0]], "lengths", ""),
        (1.0, [], [], [], "horizon", ""),
        (1.0, [1.0] * 2, [0.0] * 2, [1.0, 0.0], "sigma", ""),
    ],
)
def test_from_arrays_refuses_the_first_bad_step_before_the_other_rules(D, c, h, sigmas, code, message):
    with pytest.raises(PreconditionError) as exc:
        IterationSpec.from_arrays(D, c, h, sigmas)
    assert exc.value.code == code
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))])
def test_spec_copies_keep_read_only_arrays(clone):
    spec = _uniform(2.0, 6, 0.9, 0.2, 1.3)
    weights = [arr.copy() for arr in spec._g]
    twin = clone(spec)
    for arr in (twin.c, twin.h, twin.s2, *twin._g):
        with pytest.raises(ValueError):
            arr[0] = 5
    assert all(np.array_equal(got, want) for got, want in zip(twin._g, weights, strict=True))
    assert same_solution(solve_closed_form(twin), solve_closed_form(spec))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))])
def test_solution_copies_keep_read_only_arrays(clone):
    sol = solve_closed_form(_uniform(2.0, 6, 0.9, 0.2, 1.3))
    twin = clone(sol)
    for arr in (twin.u, twin.a):
        with pytest.raises(ValueError):
            arr[0] = 5
    assert same_solution(twin, sol)


def test_saturating_tail_emits_no_runtime_warning():
    # g_t passes the float range after ~1000 steps at c = 0.5
    spec = IterationSpec.uniform(1.0, 3000, QuadraticModulus(0.5, 0.1), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_closed_form(spec)
        bound = renyi_bound_general(2.0, spec)
    assert bound.value == pytest.approx(sol.objective, rel=1e-12)


def _count_steps_added_one_by_one(monkeypatch):
    """Counts the calls of _Wide.__add__: one per row of a running sum, plus one per step of a row added step by step."""
    counts = {"adds": 0}
    add = _Wide.__add__

    def counted(*args):
        counts["adds"] += 1
        return add(*args)

    monkeypatch.setattr(_Wide, "__add__", counted)
    return counts


def _extreme_spec(seed, horizon):
    """Conftest ranges with eight stretches of moduli from 5e-324 to 1e300.

    The extreme c come in pairs (x, 1/x) with h = 0, so that the levels,
    which such a pair moves by up to 1e150 and back, stay finite.
    """
    rng = np.random.default_rng([0xB10C, seed])
    c = rng.uniform(0.5, 1.5, horizon)
    h = rng.uniform(0.0, 2.0, horizon)
    for start in rng.integers(0, horizon - 600, 8):
        x = np.exp(rng.uniform(math.log(5e-324), math.log(1e300), int(rng.integers(1, 300))))
        pairs = np.stack([x, np.minimum(1.0 / np.maximum(x, 1e-300), 1e300)], axis=1).ravel()
        c[start : start + len(pairs)] = pairs
        h[start : start + len(pairs)] = 0.0
    return spec_from(rng.uniform(0.5, 4.0), c, h, rng.uniform(0.1, 2.0, horizon))


def _decimal_solution(spec):
    """Weights, levels and shifts by the per-step recursions in 40-digit decimals, whose exponent range is unbounded here.

    g_t = (s2_t + g_{t+1}) / c_t, u_t = g_t / (s2_{t-1} + g_t) phi_{t-1}(u_{t-1}) and a_t =
    s2_{t-1} / (s2_{t-1} + g_t) phi_{t-1}(u_{t-1}): a reference for the floats where the plain loops leave them.
    """
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 40, 10**9, -(10**9)
        c, h, s2 = ([decimal.Decimal(x) for x in arr.tolist()] for arr in (spec.c, spec.h, spec.s2))
        T = spec.horizon
        g = [decimal.Decimal(0)] * (T + 1)
        for t in range(T - 1, -1, -1):
            g[t] = (s2[t] + g[t + 1]) / c[t]
        u, a = [decimal.Decimal(spec.diameter)], []
        for t in range(1, T + 1):
            phi = (c[t - 1] * u[-1] * u[-1] + h[t - 1]).sqrt()
            u.append(g[t] / (s2[t - 1] + g[t]) * phi)
            a.append(s2[t - 1] / (s2[t - 1] + g[t]) * phi)
        return g[:-1], u[:-1], a


def _assert_within(got, want, rel):
    """Float values within rel of 40-digit decimals, where those are normal floats; elsewhere below the least one."""
    want = np.array([float(x) for x in want])
    normal = (want >= sys.float_info.min) & (want < math.inf)
    assert np.allclose(got[normal], want[normal], rtol=rel, atol=0.0)
    assert np.all(got[~normal] < sys.float_info.min)


@pytest.mark.parametrize("seed", range(4))
def test_block_maps_agree_with_the_per_step_loops(monkeypatch, seed):
    # the running product and sums of the long pass, in rows of _BLOCK steps, against the loops
    horizon = 56 * _BLOCK + 7 * seed + 1
    spec = _extreme_spec(seed, horizon)
    counts = _count_steps_added_one_by_one(monkeypatch)
    m, e = _weight_sums(spec.c, spec.s2)
    loop_m, loop_e = _weight_steps(spec.c, spec.s2)
    # frexp pairs of the same g_t, within 1e-12 relative
    assert np.all((0.5 <= m) & (m < 1.0))
    assert np.allclose(np.ldexp(m, e - loop_e), loop_m, rtol=1e-12, atol=0.0)
    # rows whose partial sums spread past _FLOOR were added step by step
    assert counts["adds"] > 2 * horizon / _BLOCK + _BLOCK
    # the levels and shifts against 40-digit recursions: the plain level loop squares levels
    # down to 5e-324 * u^2 here, where it loses its digits
    g, u, a = _decimal_solution(spec)
    with decimal.localcontext() as ctx:
        ctx.Emax, ctx.Emin = 10**9, -(10**9)
        two = decimal.Decimal(2)
        assert max(abs(decimal.Decimal(x) * two**y / z - 1) for x, y, z in zip(m.tolist(), e.tolist(), g)) <= 1e-12
    sums_u, sums_a = _level_sums(spec, m, e)
    _assert_within(sums_u[:-1], u, 1e-12)
    _assert_within(sums_a, a, 1e-12)


def test_short_horizon_weight_far_below_the_noise():
    # c = 1e300 puts g_2 near 1e-300, against sigma_1^2 = 1e10: on g_2's own scale sigma_1^2 would overflow
    spec = IterationSpec.from_arrays(1.0, [1.0, 1.0, 1e300, 1.0], [0.5] * 4, [1.0, 1e5, 1.0, 1.0])
    sol = solve_closed_form(spec)
    _, u, a = _decimal_solution(spec)
    _assert_within(sol.u[:-1], u, 1e-12)
    _assert_within(sol.a, a, 1e-12)


def test_short_horizon_shift_whose_float_factor_is_below_the_normal_floats():
    # sigma_0^2 / (sigma_0^2 + g_1) = 1e-300 / 2e30 is 5e-331, though a_1 = 5e-231 is a normal float
    spec = IterationSpec.from_arrays(1e100, [1.0, 1e-30, 1.0], [0.0] * 3, [1e-150, 1.0, 1.0])
    sol = solve_closed_form(spec)
    _, u, a = _decimal_solution(spec)
    _assert_within(sol.u[:-1], u, 1e-12)
    _assert_within(sol.a, a, 1e-12)
    assert sol.a[0] == pytest.approx(5e-231, rel=1e-15)


def test_certify_shape_moves_almost_every_step_in_blocks(monkeypatch):
    # a silent fall back to the per-step additions would keep every other test green
    horizon = 10**6
    rng = np.random.default_rng(5)
    spec = IterationSpec.from_arrays(2.0, *(rng.uniform(lo, hi, horizon) for lo, hi in ((0.5, 1.5), (0.0, 2.0), (0.1, 2.0))))
    counts = _count_steps_added_one_by_one(monkeypatch)
    solve_closed_form(spec)
    # one addition per row of each of the two running sums
    assert counts["adds"] <= 2 * -(-horizon // _BLOCK) + 1


@pytest.mark.parametrize("c", [0.504, 0.6, 0.855])
def test_contracting_uniform_shape_moves_its_weights_in_rescaled_blocks(monkeypatch, c):
    _assert_uniform_shape_adds_no_step_one_by_one(monkeypatch, c)


@pytest.mark.parametrize("c", [1.1, 1.5])
def test_expansive_uniform_shape_adds_no_step_one_by_one(monkeypatch, c):
    _assert_uniform_shape_adds_no_step_one_by_one(monkeypatch, c)


def _assert_uniform_shape_adds_no_step_one_by_one(monkeypatch, c):
    # g_t grows or falls by about 1/c a step and leaves the floats within a few thousand steps
    horizon = 10**6
    spec = IterationSpec.uniform(1.0, horizon, QuadraticModulus(c, 0.5), 1.0)
    counts = _count_steps_added_one_by_one(monkeypatch)
    sol = solve_closed_form(spec)
    bound = renyi_bound_general(2.0, spec)
    assert counts["adds"] <= 2 * -(-horizon // _BLOCK) + 1
    assert bound.value == pytest.approx(sol.objective, rel=1e-12)


@pytest.mark.parametrize("c", [0.504, 0.6, 0.855])
def test_rescaled_blocks_agree_with_the_per_step_loops(c):
    # the weights pass the float range, and the sums' rows meet their carries on the larger scale
    horizon = 40 * _BLOCK + 3
    spec = IterationSpec.uniform(1.5, horizon, QuadraticModulus(c, 0.5), 0.7)
    m, e = _weight_sums(spec.c, spec.s2)
    loop_m, loop_e = _weight_steps(spec.c, spec.s2)
    assert e.max() > 1024  # the weights left the floats
    assert np.allclose(np.ldexp(m, e - loop_e), loop_m, rtol=1e-12, atol=0.0)
    w = np.ldexp(spec.s2[:-1], -loop_e[1:])
    loop_u = _levels(spec, loop_m[1:] / (w + loop_m[1:]))
    u, _ = _level_sums(spec, m, e)
    assert np.allclose(u, loop_u, rtol=1e-12, atol=0.0)


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
