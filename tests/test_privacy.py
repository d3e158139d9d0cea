import dataclasses
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest

import pabi
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
from pabi import privacy
from pabi.privacy import _ALPHA_FLOOR, _bisect_alpha, _mironov_ok


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


@pytest.mark.parametrize("sigma", [1e13, 1e14, 1e20, 1e100, 1e150])
def test_alpha_star_returns_for_huge_sigma(sigma):
    # past 2^33 adjacent floats lie more than the 1e-6 tolerance apart
    star = alpha_star(0.001, sigma)
    assert star > 2.0**33
    assert _mironov_ok(star, 0.001, sigma)


def test_cli_epsilon_returns_for_huge_sigma():
    # in a subprocess with a timeout, so a bisection that never ends fails the test
    argv = "privacy epsilon --n 1000 --b 1 --L 1 --M 2 --p 1 --eta 0.01 --sigma 1e14 --alpha 2 --T 100000 --D 1"
    src = str(pathlib.Path(pabi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "pabi.cli", *argv.split()], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert _mironov_ok(out["alpha_star"], out["breakdown"]["q"], out["breakdown"]["sigma_reduced"])


def _mironov_ok_per_point(alpha, q, sigma):
    # the validity predicate as one call per order, recomputing its sigma
    # terms each time: the form alpha_star used before its audit became one scan
    if alpha <= 1.0:
        return False
    m = math.log1p(1.0 / (q * (alpha - 1.0)))
    s2 = sigma * sigma
    if 5.0 * s2 == math.inf:  # the sigma^2 terms on m * sigma, and ln sigma^2 = 2 ln sigma
        m_s2, m2_s2, log_s2 = m * sigma * sigma, (m * sigma) * (m * sigma), 2.0 * math.log(sigma)
        log_5s2 = math.log(5.0) + log_s2
    else:
        m_s2, m2_s2, log_s2, log_5s2 = m * s2, m * m * s2, math.log(s2), math.log(5.0 * s2)
    if alpha > m_s2 / 2.0 - log_s2:
        return False
    lhs = alpha * (m + math.log(q * alpha) + 1.0 / (2.0 * s2))
    return lhs <= m2_s2 / 2.0 - log_5s2


def _alpha_star_per_point(q, sigma, ok=_mironov_ok_per_point, linspace=False):
    # alpha_star asking the predicate one order at a time, on the audit grid
    # built as a list or, with linspace, by np.linspace: the reference for
    # the grid alpha_star builds and for its one-scan audit; its refusals
    # carry alpha_star's codes
    if not 0.0 < q < 0.2:
        raise PreconditionError("sampling_rate", "q must lie in (0, 1/5)")
    if not sigma >= 4.0:
        raise PreconditionError("noise_multiplier", "sigma must be at least 4")
    if not ok(_ALPHA_FLOOR, q, sigma):
        raise PreconditionError("alpha_validity", "no valid alpha range")

    def bisect(lo, hi):
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if ok(mid, q, sigma):
                lo = mid
            else:
                hi = mid
        return lo

    lo, hi = _ALPHA_FLOOR, 2.0
    while ok(hi, q, sigma):
        lo = hi
        hi *= 2.0
    out = bisect(lo, hi)
    if linspace:
        grid = np.linspace(_ALPHA_FLOOR, out, 256).tolist()
    else:
        step = (out - _ALPHA_FLOOR) / 255
        grid = [i * step + _ALPHA_FLOOR for i in range(255)] + [out]
    for i in range(1, len(grid)):
        if not ok(grid[i], q, sigma):
            return bisect(grid[i - 1], grid[i])
    return out


def _random_q_sigma(seed, count=3000):
    # q log-uniform in [1e-6, 0.2), sigma log-uniform in [4, 1e9]
    rng = np.random.default_rng(seed)
    qs = np.exp(rng.uniform(math.log(1e-6), math.log(0.2), count)).tolist()
    sigmas = np.exp(rng.uniform(math.log(4.0), math.log(1e9), count)).tolist()
    return list(zip(qs, sigmas))


def _scan_spy(monkeypatch, asked, first_failure=None):
    # records the orders the scan looks at, flattened, up to and including
    # the first that fails; first_failure(alphas) may override its answer
    scan = privacy._first_invalid

    def spy(alphas, q, sigma):
        alphas = list(alphas)
        k = scan(alphas, q, sigma) if first_failure is None else first_failure(alphas, q, sigma)
        asked.extend(alphas[: k + 1])
        return k

    monkeypatch.setattr(privacy, "_first_invalid", spy)


def test_alpha_star_audits_the_linspace_grid_bit_for_bit(monkeypatch):
    # The audit finds no gap on these inputs, so the orders at which the
    # predicate is asked are compared, not only the results.
    asked = []
    _scan_spy(monkeypatch, asked)
    for q, sigma in _random_q_sigma(20260112):
        asked.clear()
        star = alpha_star(q, sigma)
        ours = asked[:]
        reference = []

        def ok(alpha, q, sigma):
            reference.append(alpha)
            return _mironov_ok_per_point(alpha, q, sigma)

        assert star == _alpha_star_per_point(q, sigma, ok, linspace=True), (q, sigma)
        assert ours == reference, (q, sigma)


def test_alpha_star_equals_the_per_point_algorithm():
    for q, sigma in _random_q_sigma(20260112):
        assert alpha_star(q, sigma) == _alpha_star_per_point(q, sigma), (q, sigma)
    # sigma^2 = 1e400 is inf: both take the sigma^2 terms on m * sigma (the parent refused with alpha_validity)
    assert alpha_star(0.001, 1e200) == _alpha_star_per_point(0.001, 1e200) == pytest.approx(2.5471019147720394e134)
    # noise_multiplier and sampling_rate
    for q, sigma in [(0.001, 3.9), (0.25, 4.0)]:
        with pytest.raises(PreconditionError) as ours:
            alpha_star(q, sigma)
        with pytest.raises(PreconditionError) as reference:
            _alpha_star_per_point(q, sigma)
        assert ours.value.code == reference.value.code


# alpha_star(0.001, sigma) where 5 sigma^2 or sigma^2 overflows, from a 60-digit mpmath bisection of the
# validity predicate (mpmath is not a test dependency, so the values are data)
HUGE_NOISE_ALPHA_STAR = {1e154: 5.995100747438274e103, 1e160: 5.917925037562181e107, 1e300: 1.0312246342948168e201}


@pytest.mark.parametrize("sigma", list(HUGE_NOISE_ALPHA_STAR))
def test_alpha_star_where_sigma_squared_overflows(sigma):
    star = alpha_star(0.001, sigma)
    assert star == pytest.approx(HUGE_NOISE_ALPHA_STAR[sigma], rel=1e-12)
    assert _mironov_ok(star, 0.001, sigma)


@pytest.mark.parametrize("k", [1, 2, 128, 255])
def test_alpha_star_bisects_below_the_first_order_the_audit_refuses(monkeypatch, k):
    # the predicate passes the whole grid on these inputs, so a spy reports
    # a gap at grid index k: the result is the valid end of grid[k-1], grid[k]
    q, sigma = 0.01, 8.0
    out = alpha_star(q, sigma)
    grid = np.linspace(_ALPHA_FLOOR, out, 256).tolist()
    expected = _bisect_alpha(grid[k - 1], grid[k], q, sigma)
    scan = privacy._first_invalid
    audits = []

    def first_failure(alphas, q, sigma):
        if len(alphas) == 1:
            return scan(alphas, q, sigma)
        audits.append(alphas)
        return k - 1

    _scan_spy(monkeypatch, [], first_failure)
    assert alpha_star(q, sigma) == expected
    assert expected < out
    assert audits == [grid[1:]]


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


def test_sweep_rows_from_a_privacy_spec_keep_their_recorded_bits():
    grid = np.geomspace(1e-3, 1000 ** -0.2, 7).tolist()
    rows = privacy_curve_sweep(_spec(T=2), grid, [0.0, 0.2, 0.5, 1.0])
    digest = "6a6e1aff66885d27dd804d7bdbd5af132788ef10c529f91c5cec2d331136edbf"
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
    # only n, L, M and D are read: any object that carries them gives the same rows
    base = types.SimpleNamespace(n=1000, L=1.0, M=2.0, D=1.0)
    assert privacy_curve_sweep(base, grid, [0.0, 0.2, 0.5, 1.0]) == rows


def test_sweep_needs_no_fields_it_does_not_read():
    rows = privacy_curve_sweep(types.SimpleNamespace(n=4, L=1.0, M=2.0, D=1.0), [0.5], [0.5])
    assert [(r["eta"], r["p"], r["tbar"]) for r in rows] == [(0.5, 0.5, 2)]


@pytest.mark.parametrize(
    "field, value, code",
    [
        ("n", 0, "dataset_size"),
        ("n", 2.5, "dataset_size"),
        ("L", -1.0, "lipschitz"),
        ("M", 0.0, "growth_constant"),
        ("D", math.nan, "diameter"),
        pytest.param("n", 10**400, "out_of_range", id="n-1e400"),  # 1 / n passes the float range
    ],
)
def test_sweep_checks_the_fields_it_reads(field, value, code):
    base = types.SimpleNamespace(**{"n": 1000, "L": 1.0, "M": 2.0, "D": 1.0, field: value})
    with pytest.raises(PreconditionError) as exc:
        privacy_curve_sweep(base, [0.01], [0.5])
    assert exc.value.code == code


def test_sweep_smooth_column_refuses_stepsize_above_two_over_M():
    base = _spec(M=100.0, T=2)
    with pytest.raises(PreconditionError) as exc:
        privacy_curve_sweep(base, [0.01, 0.2], p_values=[0.5, 1.0])
    assert exc.value.code == "stepsize_smooth"
    assert exc.value.required_value == 0.02
    # without p = 1 the same grid is accepted, and the gate sits at 2/M
    assert len(privacy_curve_sweep(base, [0.01, 0.2], p_values=[0.5])) == 2
    assert len(privacy_curve_sweep(base, [0.01, 0.02], p_values=[1.0])) == 2
