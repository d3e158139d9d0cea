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


@settings(max_examples=60, deadline=None)
@given(
    horizon=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
    diameter=st.floats(0.1, 10.0),
    c_ends=st.tuples(st.floats(0.8, 1.2), st.floats(0.8, 1.2)),
    sigma_ends=st.tuples(st.floats(0.2, 2.0), st.floats(0.2, 2.0)),
)
def test_closed_form_equals_the_exact_divergence_at_h_zero(horizon, seed, diameter, c_ends, sigma_ends):
    rng = np.random.default_rng(seed)
    c = rng.uniform(*sorted(c_ends), horizon).tolist()
    sigma = rng.uniform(*sorted(sigma_ends), horizon).tolist()
    _assert_witnessed(_spec(diameter, c, sigma))


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
