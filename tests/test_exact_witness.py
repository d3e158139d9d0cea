"""An exact witness for the closed form at every horizon: h = 0.

With h = 0 each modulus is delta -> sqrt(c_t) * delta, and the unprojected
linear Gaussian iteration x <- sqrt(c_t) * x + sigma_t * xi attains it.  Two
runs started D apart have time-T laws N(m, v) and N(m', v) with

    gap^2 = |m - m'|^2 = D^2 * prod_t c_t,    v = sum_t sigma_t^2 prod_{l>t} c_l,

so their order-alpha Renyi divergence is alpha/2 * gap^2 / v, and the PABI
bound, which reads only the moduli, the noise and the initial gap (never a
domain), must equal it.  The oracle witnesses the closed form only up to
ORACLE_MAX_HORIZON steps; this check holds at every horizon.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pabi import IterationSpec, QuadraticModulus, renyi_bound_general, solve_closed_form

REL = 1e-12
# a shared power-of-two rescale keeps gap^2 and v inside the float range
_SCALE_BITS = 512


def exact_ratio(diameter, c, s2):
    """gap^2 / v of the linear Gaussian iteration, by a forward recursion.

    gap^2 <- c_t * gap^2 and v <- c_t * v + s2_t, in log space: the two are
    kept as mantissas times one shared 2^scale, with the integer log2 scale
    moved in exact power-of-two steps, so that long horizons neither
    underflow nor overflow while every step rounds as plain floats would.
    """
    gap, v, scale = diameter * diameter, 0.0, 0
    for ct, s2t in zip(c, s2):
        gap *= ct
        v = ct * v + math.ldexp(s2t, -scale)
        if v > 2.0**_SCALE_BITS or v < 2.0**-_SCALE_BITS:
            shift = _SCALE_BITS if v > 1.0 else -_SCALE_BITS
            gap, v, scale = math.ldexp(gap, -shift), math.ldexp(v, -shift), scale + shift
    return gap / v


def exact_log_shifts(diameter, c, s2):
    """log a_1 .. log a_T, the optimal shifts at h = 0.

    The last level D prod_l sqrt(c_l) - sum_t a_t prod_{l>=t} sqrt(c_l)
    must vanish; minimizing sum_t a_t^2 / sigma_{t-1}^2 under that gives

        a_t = D sigma_{t-1}^2 prod_l sqrt(c_l) prod_{l>=t} sqrt(c_l) / v,

    evaluated in logs, with compensated sums of log c_l and v by fsum.
    """
    T = len(c)
    tail, total, compensation = [0.0] * (T + 1), 0.0, 0.0
    for t in range(T - 1, -1, -1):  # Neumaier's sum of log c_l over l >= t
        x = math.log(c[t])
        y = total + x
        compensation += (total - y) + x if abs(total) >= abs(x) else (x - y) + total
        total = y
        tail[t] = total + compensation
    terms = [math.log(s2[t - 1]) + tail[t] for t in range(1, T + 1)]  # log of v's terms
    top = max(terms)
    log_v = top + math.log(math.fsum(math.exp(x - top) for x in terms))
    return [math.log(diameter) + 0.5 * (tail[0] + tail[t]) + math.log(s2[t - 1]) - log_v for t in range(1, T + 1)]


def _spec(diameter, c, sigma):
    moduli = tuple(map(QuadraticModulus, c, [0.0] * len(c)))
    return IterationSpec(diameter, tuple(sigma), moduli)


def _assert_witnessed(spec, alpha=2.5):
    exact = exact_ratio(spec.diameter, spec.c.tolist(), spec.s2.tolist())
    assert exact > 0.0
    assert solve_closed_form(spec).objective == pytest.approx(exact, rel=REL, abs=0.0)
    value = renyi_bound_general(alpha, spec).value
    assert value == pytest.approx(0.5 * alpha * exact, rel=REL, abs=0.0)


def test_exact_ratio_examples():
    # T = 1: D^2 c / sigma^2; c = 1: D^2 / (T sigma^2)
    assert exact_ratio(2.0, [0.5], [4.0]) == 0.5
    assert exact_ratio(3.0, [1.0] * 9, [1.0] * 9) == 1.0
    # c = 2, unit noise: D^2 2^T / (2^T - 1), past the float range at T = 1100
    assert exact_ratio(1.0, [2.0] * 1100, [1.0] * 1100) == 1.0
    # then as many halvings: gap^2 = 1 and v = sum_k 2^-k over both halves, about 3
    ratio = exact_ratio(1.0, [2.0] * 1100 + [0.5] * 1100, [1.0] * 2200)
    assert ratio == pytest.approx(1.0 / 3.0, rel=1e-15)
    # T = 1: the one shift is phi_0(D) = D sqrt(c); c = 1 and equal noise: D / T each
    assert math.exp(exact_log_shifts(2.0, [0.25], [4.0])[0]) == pytest.approx(1.0, rel=1e-15)
    assert np.allclose(np.exp(exact_log_shifts(3.0, [1.0] * 6, [2.0] * 6)), 0.5, rtol=1e-15, atol=0.0)


def _assert_random_witnessed(horizon, seed, diameter, c_ends, sigma_ends):
    rng = np.random.default_rng(seed)
    c = rng.uniform(*sorted(c_ends), horizon).tolist()
    sigma = rng.uniform(*sorted(sigma_ends), horizon).tolist()
    _assert_witnessed(_spec(diameter, c, sigma))


@settings(max_examples=60, deadline=None)
@given(
    horizon=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
    diameter=st.floats(0.1, 10.0),
    c_ends=st.tuples(st.floats(0.8, 1.2), st.floats(0.8, 1.2)),
    sigma_ends=st.tuples(st.floats(0.2, 2.0), st.floats(0.2, 2.0)),
)
def test_closed_form_equals_the_exact_divergence_at_h_zero(horizon, seed, diameter, c_ends, sigma_ends):
    _assert_random_witnessed(horizon, seed, diameter, c_ends, sigma_ends)


@settings(max_examples=15, deadline=None)
@given(
    horizon=st.integers(2001, 20000),
    seed=st.integers(0, 2**32 - 1),
    diameter=st.floats(0.1, 10.0),
    c_ends=st.tuples(st.floats(0.97, 1.03), st.floats(0.97, 1.03)),
    sigma_ends=st.tuples(st.floats(0.2, 2.0), st.floats(0.2, 2.0)),
)
def test_block_maps_equal_the_exact_divergence_at_h_zero(horizon, seed, diameter, c_ends, sigma_ends):
    # the horizons past those of the test above, with many rows of the running
    # product and sums; c within 3% of 1 keeps prod c inside the float range at 20000 steps
    _assert_random_witnessed(horizon, seed, diameter, c_ends, sigma_ends)


@pytest.mark.parametrize("shape", ["spread", "near-one"])
def test_closed_form_equals_the_exact_divergence_at_a_million_steps(shape):
    rng = np.random.default_rng([0xE8AC7, len(shape)])
    horizon = 10**6
    if shape == "spread":
        # log c symmetric about 0, so prod c stays inside the float range
        c = np.exp(rng.uniform(-0.18, 0.18, horizon))
    else:
        c = rng.uniform(1.0 - 1e-6, 1.0 + 1e-6, horizon)
    sigma = rng.uniform(0.2, 2.0, horizon)
    _assert_witnessed(_spec(1.5, c.tolist(), sigma.tolist()))


def test_block_maps_give_the_exact_shifts_at_h_zero():
    # no shift is phi - u, a difference of two rounded levels, which would
    # give 0 for the shifts far below the levels (down to 3.5e-91 at c = 0.5)
    rng = np.random.default_rng([0xE8AC7, 6])
    c = np.exp(rng.uniform(-0.18, 0.18, 20000))
    sigma = rng.uniform(0.2, 2.0, 20000)
    specs = [_spec(1.5, c[:horizon].tolist(), sigma[:horizon].tolist()) for horizon in (300, 3000, 20000)]
    specs += [IterationSpec.uniform(1.0, 300, QuadraticModulus(0.5, 0.0), 1.0)]
    specs += [IterationSpec.uniform(1.0, 3000, QuadraticModulus(0.9, 0.0), 1.0)]
    for spec in specs:
        exact = np.exp(exact_log_shifts(spec.diameter, spec.c.tolist(), spec.s2.tolist()))
        shifts = np.array(solve_closed_form(spec).a)
        assert np.all(shifts > 0.0)
        assert np.allclose(shifts, exact, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "diameter, c, sigma, horizon",
    [
        (1e154, 0.5, 1e150, 60),
        (1e154, 0.5, 1e150, 900),
        (1e154, 0.9, 1e152, 3000),
        (1e154, 0.9, 1e152, 6000),
        (1e154, 0.99, 1e152, 20000),
    ],
)
def test_closed_form_equals_the_exact_divergence_past_the_float_range(diameter, c, sigma, horizon):
    # sigma^2 near 1e300 puts the tail weights g_t past 2^1024, where a ratio
    # g_t / (sigma^2 + g_t) rounded to 1 would move every level and the objective
    _assert_witnessed(_spec(diameter, [c] * horizon, [sigma] * horizon))


def test_closed_form_equals_the_exact_divergence_where_the_tail_weights_come_back():
    # backwards from t = T - 1, c = 0.5 lifts g past 2^1024, then c = 2 halves
    # it back to about 3; forwards the levels grow by up to 2^550, from D = 1e-30
    spec = _spec(1e-30, [2.0] * 1100 + [0.5] * 1100, [1.0] * 2200)
    exponents = spec._g[1]  # g_t = m_t 2^e_t, 1/2 <= m_t < 1
    assert exponents[1100] > 1024 and exponents[0] == 2
    _assert_witnessed(spec)


def test_block_maps_equal_the_exact_divergence_where_the_tail_weights_come_back():
    # the same shape followed by 4100 steps at c = 1, so that the rise of
    # g_t past 2^1024, its fall back and the levels' growth run through the
    # running product and sums of the long pass
    spec = _spec(1e-30, [2.0] * 1100 + [0.5] * 1100 + [1.0] * 4100, [1.0] * 6300)
    mantissas, exponents = spec._g
    assert exponents[1100] > 1024 and exponents[0] == 13
    assert np.all((0.5 <= mantissas) & (mantissas < 1.0))  # frexp pairs, as renyi_bound_general assumes
    _assert_witnessed(spec)


@pytest.mark.parametrize("horizon", [14000, 20000])
def test_closed_form_gives_the_exact_shifts_where_the_levels_squares_underflow(horizon):
    # at c = 1.1 and h = 0 the levels fall as 1.1^(-t/2), below 1.5e-154 from about t = 7400, where
    # their squares lose digits in plain floats, and below the least normal float from about
    # t = 15000; every shift whose exact value is a normal float must be positive and within
    # 1e-12: not the file's 1e-13, as exact_log_shifts itself drifts by about 3.5e-13 once
    # |ln a_t| nears 1334 (against 40-digit recursions the closed form is within 4e-15)
    spec = IterationSpec.uniform(1.0, horizon, QuadraticModulus(1.1, 0.0), 1.0)
    exact = np.exp(exact_log_shifts(spec.diameter, spec.c.tolist(), spec.s2.tolist()))
    shifts = np.array(solve_closed_form(spec).a)
    normal = exact >= sys.float_info.min
    assert np.all(shifts[normal] > 0.0)
    assert np.allclose(shifts[normal], exact[normal], rtol=1e-12, atol=0.0)
    assert np.all(shifts[~normal] < sys.float_info.min)
