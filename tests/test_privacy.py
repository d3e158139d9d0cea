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
from hypothesis import given, settings, strategies as st

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
from pabi.privacy import _ALPHA_FLOOR, _Validity


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
    assert _Validity(0.001, 4.0)(star)
    assert not _Validity(0.001, 4.0)(star + 1e-3)


@pytest.mark.parametrize("sigma", [1e13, 1e14, 1e20, 1e100, 1e150])
def test_alpha_star_returns_for_huge_sigma(sigma):
    # past 2^33 adjacent floats lie more than the 1e-6 tolerance apart
    star = alpha_star(0.001, sigma)
    assert star > 2.0**33
    assert _Validity(0.001, sigma)(star)


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
    assert _Validity(out["breakdown"]["q"], out["breakdown"]["sigma_reduced"])(out["alpha_star"])


def _mironov_ok_per_point(alpha, q, sigma):
    # the validity predicate as one call per order, recomputing its sigma
    # terms each time, as alpha_star did before it built them once per call
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


def _alpha_star_per_point(q, sigma, ok=_mironov_ok_per_point):
    # alpha_star asking the predicate one order at a time, then auditing its
    # result on a 256-order grid below it, as alpha_star did before the
    # predicate was shown monotone: the bit-for-bit reference, whose
    # refusals carry alpha_star's codes
    if not 0.0 < q < 0.2:
        raise PreconditionError("sampling_rate", "q must lie in (0, 1/5)")
    if not 4.0 <= sigma < math.inf:
        raise PreconditionError("noise_multiplier", "sigma must be at least 4 and finite")
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


def test_alpha_star_equals_the_per_point_algorithm():
    for q, sigma in _random_q_sigma(20260112):
        assert alpha_star(q, sigma) == _alpha_star_per_point(q, sigma), (q, sigma)
    # sigma^2 = 1e400 is inf: both take the sigma^2 terms on m * sigma (the parent refused with alpha_validity)
    assert alpha_star(0.001, 1e200) == _alpha_star_per_point(0.001, 1e200) == pytest.approx(2.5471019147720394e134)
    # 5 sigma^2 overflows from about 6e153: the sigma^2 terms on m * sigma, also up to the float range's top
    for sigma in (1e154, 1e160, 1e300, 5.666666666666667e307):
        assert alpha_star(0.001, sigma) == _alpha_star_per_point(0.001, sigma), sigma
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
    assert _Validity(0.001, sigma)(star)


@settings(max_examples=300, deadline=None)
@given(
    q=st.one_of(st.floats(1e-12, 0.19), st.sampled_from([5e-324, 1e-310, 3e-308])),
    sigma=st.one_of(st.floats(4.0, 1e3), st.floats(4.0, 1e308)),
    past=st.one_of(st.floats(1.0, 1.0 + 1e-6), st.floats(1.0, 1e3)),
    count=st.sampled_from([2, 3, 17, 256, 1000]),
)
def test_validity_predicate_switches_once_at_alpha_star(q, sigma, past, count):
    # on grids from the floor to past * alpha_star, so that invalid orders exist, the predicate reads a run of
    # True and then only False, and is True at every order up to alpha_star: the bisection's bracket is sound
    try:
        star = alpha_star(q, sigma)
    except PreconditionError:
        return
    valid = _Validity(q, sigma)
    top = min(star * past, sys.float_info.max)
    step = (top - _ALPHA_FLOOR) / (count - 1)
    orders = [i * step + _ALPHA_FLOOR for i in range(count - 1)] + [top]
    readings = [valid(alpha) for alpha in orders]
    switch = readings.index(False) if False in readings else count
    assert not any(readings[switch:]), (q, sigma)
    assert all(ok for alpha, ok in zip(orders, readings) if alpha <= star), (q, sigma)


def _pool_q_sigma():
    # the (q, sigma_reduced) of perfbench's certify privacy pool: 1000 specs drawn by its recipe from seed 0xE95,
    # with the draws that set the other fields taken in the same order
    rng = np.random.default_rng(0xE95)
    pairs = []
    for _ in range(1000):
        n = int(rng.integers(500, 50000))
        q = float(rng.uniform(0.001, 0.19))
        b = q * n
        L = float(rng.uniform(0.5, 2.0))
        sigma = (8.0 * math.sqrt(2.0) * L / b) * float(rng.uniform(1.05, 3.0))
        pairs.append((b / n, b * sigma / (2.0 * math.sqrt(2.0) * L)))
        rng.uniform(0.1, 0.9), rng.uniform(1e-4, 0.1), rng.uniform(0.5, 4.0)
        rng.choice([0.0, 0.3, 0.7, 1.0]), rng.uniform(0.5, 2.0), rng.random()
    return pairs


def test_alpha_star_equals_the_per_point_algorithm_on_the_benchmark_pool():
    for q, sigma in _pool_q_sigma():
        assert alpha_star(q, sigma) == _alpha_star_per_point(q, sigma), (q, sigma)


def _sampled_gaussian_rdp(q, sigma, alpha):
    # Exact Renyi DP of order alpha (an integer) of the Poisson-subsampled Gaussian mechanism, from the binomial
    # expansion of Mironov, Talwar and Zhang (2019): A = sum_k C(alpha, k) (1-q)^(alpha-k) q^k e^((k^2-k)/(2 sigma^2)),
    # epsilon = ln A / (alpha - 1).  A - 1 is summed as the k >= 2 terms with e^x - 1 in place of e^x (the k < 2
    # terms vanish and the binomial weights sum to 1), all of them positive, in logs.
    log_q, log_1mq, log_fact = math.log(q), math.log1p(-q), math.lgamma(alpha + 1)
    logs = []
    for k in range(2, alpha + 1):
        x = (k * k - k) / (2.0 * sigma * sigma)
        log_binom = log_fact - math.lgamma(k + 1) - math.lgamma(alpha - k + 1)
        logs.append(log_binom + (alpha - k) * log_1mq + k * log_q + x + math.log(-math.expm1(-x)))
    top = max(logs)
    log_a_minus_1 = top + math.log(math.fsum(math.exp(v - top) for v in logs))
    log_a = log_a_minus_1 + math.log1p(math.exp(-log_a_minus_1)) if log_a_minus_1 > 0 else math.log1p(math.exp(log_a_minus_1))
    return log_a / (alpha - 1)


def test_s_alpha_bound_dominates_the_exact_sampled_gaussian_rdp():
    # Adjacency: add/remove one record, sensitivity 1, noise multiplier sigma (epsilon_nsgd passes
    # sigma_reduced), the Poisson-subsampled pair (1-q) N(0, sigma^2) + q N(1, sigma^2) against N(0, sigma^2),
    # whose expansion above Mironov, Talwar and Zhang show is the larger of the two directions.  PAPER.md holds
    # only the abstract, so the paper's own adjacency is not pinned here.  The smallest bound/exact ratio on
    # this grid is 3.79, at q = 0.1, sigma = 4, alpha = 6 (alpha_star 6.008).
    least = math.inf
    for q in (1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.19):
        for sigma in (4.0, 6.0, 8.0, 16.0):
            for alpha in range(2, math.floor(alpha_star(q, sigma)) + 1):
                ratio = s_alpha_bound(q, sigma, alpha) / _sampled_gaussian_rdp(q, sigma, alpha)
                assert ratio >= 1.0, (q, sigma, alpha)
                least = min(least, ratio)
    assert least == pytest.approx(3.7855520215718728, rel=1e-9)


def test_alpha_star_preconditions():
    with pytest.raises(PreconditionError):
        alpha_star(0.001, 3.9)
    with pytest.raises(PreconditionError):
        alpha_star(0.25, 4.0)
    with pytest.raises(PreconditionError):
        alpha_star(0.0, 4.0)
    # sigma = inf, where the predicate's sigma^2 terms are inf - inf and no order is valid, is a bad sigma
    with pytest.raises(PreconditionError) as exc:
        alpha_star(0.001, math.inf)
    assert exc.value.code == "noise_multiplier"


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
