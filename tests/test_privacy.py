import dataclasses
import math

import numpy as np
import pytest

from pabi import (
    PreconditionError,
    PrivacySpec,
    alpha_star,
    epsilon_nsgd,
    privacy_curve_sweep,
    s_alpha_bound,
    tbar,
    v_term,
)
from pabi.privacy import _mironov_ok


def _spec(**kw):
    base = dict(
        n=1000, b=1.0, L=1.0, M=2.0, p=0.5, eta=0.01, sigma=32.0, alpha=2.0, T=100000, D=1.0
    )
    base.update(kw)
    return PrivacySpec(**base)


def test_tbar_examples():
    assert tbar(1.0, 1000, 0.01, 1.0) == 25000
    assert tbar(1.0, 4, 1.0, 1.0) == 1
    assert tbar(1.0, 1000, 0.001, 1.0) == 250000


def test_tbar_floor_at_one():
    assert tbar(1.0, 2, 10.0, 1.0) == 1


def test_v_term_examples():
    assert v_term(1.0, 2.0, 10, 0.1, 1.0) == 0.0
    ref = 4.0 * (1.0 + math.log(10.0))
    assert v_term(1.0, 2.0, 10, 0.1, 0.0) == pytest.approx(ref, rel=1e-12)
    assert v_term(1.0, 2.0, 10, 0.1, 0.0) == pytest.approx(13.21, rel=1e-3)


def test_v_term_rejects_p_above_one():
    with pytest.raises(PreconditionError):
        v_term(1.0, 2.0, 10, 0.1, 1.5)


def test_v_term_quadratic_growth_at_p_zero():
    # fixed eta: tbar scales linearly in n, so V/n^2 (log-corrected) is flat
    eta, D, L, M = 0.01, 1.0, 1.0, 2.0

    def normalized(n):
        tb = tbar(D, n, eta, L)
        return v_term(D, M, tb, eta, 0.0) / (n * n * (math.log(tb) + 1.0))

    assert normalized(10**5) == pytest.approx(normalized(10**6), rel=1e-12)

    def ratio(n):
        return v_term(D, M, tbar(D, 2 * n, eta, L), eta, 0.0) / v_term(
            D, M, tbar(D, n, eta, L), eta, 0.0
        )

    # ratio approaches 4 from above as the log factor flattens
    assert abs(ratio(10**7) - 4.0) < abs(ratio(10**3) - 4.0)


def test_alpha_star_sanity_floor():
    star = alpha_star(0.001, 4.0)
    assert star > 2.0


def test_alpha_star_is_predicate_boundary():
    star = alpha_star(0.001, 4.0)
    assert _mironov_ok(star, 0.001, 4.0)
    assert not _mironov_ok(star + 1e-3, 0.001, 4.0)


def test_alpha_star_preconditions():
    with pytest.raises(PreconditionError):
        alpha_star(0.001, 3.9)
    with pytest.raises(PreconditionError):
        alpha_star(0.25, 4.0)
    with pytest.raises(PreconditionError):
        alpha_star(0.0, 4.0)


def test_s_alpha_example():
    assert s_alpha_bound(0.01, 4.0, 2.0) == 2.5e-5


def test_s_alpha_linear_in_alpha():
    assert s_alpha_bound(0.01, 4.0, 4.0) == 2.0 * s_alpha_bound(0.01, 4.0, 2.0)


def test_s_alpha_rejects_alpha_beyond_star():
    star = alpha_star(0.01, 4.0)
    with pytest.raises(PreconditionError) as exc:
        s_alpha_bound(0.01, 4.0, star + 1.0)
    assert exc.value.code == "alpha_validity"
    assert exc.value.required_value == pytest.approx(star)


def test_privacy_spec_validation():
    with pytest.raises(PreconditionError) as exc:
        _spec(b=250.0)
    assert exc.value.code == "sampling_rate"
    with pytest.raises(PreconditionError):
        _spec(alpha=1.0)
    with pytest.raises(PreconditionError):
        _spec(b=0.0)
    with pytest.raises(PreconditionError):
        _spec(b=2000.0)


def test_epsilon_preconditions_reported_by_name():
    with pytest.raises(PreconditionError) as exc:
        epsilon_nsgd(_spec(sigma=10.0))
    assert exc.value.code == "noise_multiplier"
    assert exc.value.required_value == pytest.approx(8.0 * math.sqrt(2.0))

    with pytest.raises(PreconditionError) as exc:
        epsilon_nsgd(_spec(T=10))
    assert exc.value.code == "horizon"
    assert exc.value.required_value == 25000

    with pytest.raises(PreconditionError) as exc:
        epsilon_nsgd(_spec(alpha=500.0))
    assert exc.value.code == "alpha_validity"


def test_epsilon_smooth_case_refuses_stepsize_above_two_over_M():
    # the p = 1 stepsize gate of modulus_from_class: eta <= 2/M
    spec = _spec(p=1.0, M=2.0, eta=5.0)
    with pytest.raises(PreconditionError) as exc:
        epsilon_nsgd(spec)
    assert exc.value.code == "stepsize_smooth"
    assert exc.value.required_value == 1.0
    assert epsilon_nsgd(dataclasses.replace(spec, p=0.5)).epsilon > 0.0


def test_epsilon_growing_regime_is_plain_composition():
    spec = _spec(T=30000)
    res = epsilon_nsgd(spec)
    assert res.regime == "growing"
    s = s_alpha_bound(spec.q, spec.sigma_reduced, spec.alpha)
    assert res.epsilon == s * 30000


def test_epsilon_capped_regime_constant_in_T():
    res_a = epsilon_nsgd(_spec(T=10**7))
    res_b = epsilon_nsgd(_spec(T=10**8))
    assert res_a.regime == "capped"
    assert res_b.regime == "capped"
    assert res_a.epsilon == res_b.epsilon


def test_epsilon_smooth_case_cap_is_two_tbar():
    spec = _spec(p=1.0, T=10**7)
    res = epsilon_nsgd(spec)
    assert res.v_term == 0.0
    s = s_alpha_bound(spec.q, spec.sigma_reduced, spec.alpha)
    assert res.epsilon == pytest.approx(s * 2 * res.tbar, rel=1e-15)


def test_epsilon_breakdown_contains_both_forms():
    res = epsilon_nsgd(_spec(T=10**7))
    assert res.epsilon == res.breakdown["epsilon_cap"]
    assert res.breakdown["epsilon_theorem"] >= 0.0
    assert res.alpha_star > 2.0


def _random_valid_spec(rng):
    n = int(rng.integers(500, 50000))
    q = float(rng.uniform(0.001, 0.19))
    b = q * n
    L = float(rng.uniform(0.5, 2.0))
    sigma = (8.0 * math.sqrt(2.0) * L / b) * float(rng.uniform(1.05, 3.0))
    sigma_red = b * sigma / (2.0 * math.sqrt(2.0) * L)
    star = alpha_star(b / n, sigma_red)
    alpha = 1.0 + (min(star, 50.0) - 1.0) * float(rng.uniform(0.1, 0.9))
    eta = float(rng.uniform(1e-4, 0.1))
    M = float(rng.uniform(0.5, 4.0))
    p = float(rng.choice([0.0, 0.3, 0.7, 1.0]))
    D = float(rng.uniform(0.5, 2.0))
    tb = tbar(D, n, eta, L)
    v = v_term(D, M, tb, eta, p)
    cap = 2 * tb + v
    if rng.random() < 0.5:
        T = int(max(tb + 1, 0.5 * cap))
    else:
        T = int(2.0 * cap) + 2
    return PrivacySpec(n=n, b=b, L=L, M=M, p=p, eta=eta, sigma=sigma, alpha=alpha, T=T, D=D)


def test_theorem_remark_consistency_random():
    rng = np.random.default_rng(40)
    for _ in range(60):
        spec = _random_valid_spec(rng)
        res = epsilon_nsgd(spec)
        s = s_alpha_bound(spec.q, spec.sigma_reduced, spec.alpha)
        cap_full = s * (2 * res.tbar + res.v_term)
        assert res.breakdown["epsilon_theorem"] <= cap_full * (1.0 + 1e-12)


def test_epsilon_decays_with_n_only_for_positive_p():
    fixed = dict(L=1.0, M=2.0, D=1.0, eta=0.01, sigma=12.0, alpha=2.0, T=3 * 10**8)
    for p, should_decay in ((0.5, True), (0.0, False)):
        eps = [
            epsilon_nsgd(PrivacySpec(n=n, b=0.001 * n, p=p, **fixed)).epsilon
            for n in (10**3, 10**4, 10**5, 10**6)
        ]
        decayed = all(b < a for a, b in zip(eps, eps[1:]))
        assert decayed == should_decay, (p, eps)


def test_sweep_rows_and_order():
    base = _spec(T=2)
    grid = list(np.geomspace(1e-3, 1000 ** -0.2, 7))
    rows = privacy_curve_sweep(base, grid, p_values=[0.2, 1.0])
    assert len(rows) == 14
    assert [r["p"] for r in rows[:2]] == [0.2, 1.0]
    assert rows[0]["eta"] == rows[1]["eta"] == grid[0]
    for row in rows:
        assert row["ln_bound"] == pytest.approx(math.log(row["bound"]), rel=1e-15)
        assert row["bound"] == 2 * row["tbar"] + row["v"]


def test_sweep_p_one_column_nonincreasing():
    base = _spec(T=2)
    grid = list(np.geomspace(1e-3, 1000 ** -0.2, 40))
    rows = privacy_curve_sweep(base, grid, p_values=[1.0])
    vals = [r["bound"] for r in rows]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert all(r["v"] == 0.0 for r in rows)


def test_sweep_grid_window_enforced():
    base = _spec(T=2)
    with pytest.raises(PreconditionError):
        privacy_curve_sweep(base, [1e-5], p_values=[1.0])
    with pytest.raises(PreconditionError):
        privacy_curve_sweep(base, [0.9], p_values=[1.0])
    with pytest.raises(PreconditionError):
        privacy_curve_sweep(base, [], p_values=[1.0])


def test_sweep_smooth_column_refuses_stepsize_above_two_over_M():
    base = _spec(M=100.0, T=2)
    with pytest.raises(PreconditionError) as exc:
        privacy_curve_sweep(base, [0.01, 0.2], p_values=[0.5, 1.0])
    assert exc.value.code == "stepsize_smooth"
    assert exc.value.required_value == 0.02
    # without p = 1 the same grid is accepted, and the gate sits at 2/M
    assert len(privacy_curve_sweep(base, [0.01, 0.2], p_values=[0.5])) == 2
    assert len(privacy_curve_sweep(base, [0.01, 0.02], p_values=[1.0])) == 2
