import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pabi import (
    IterationSpec,
    PreconditionError,
    QuadraticModulus,
    dissipative_shift_series,
    kl_bound_pla,
    renyi_bound_dissipative,
    renyi_bound_general,
    renyi_bound_sqrt_shift,
    solve_closed_form,
)
from conftest import random_spec


def _uniform(D, horizon, c, h, sigma):
    return IterationSpec.uniform(
        diameter=D, horizon=horizon, modulus=QuadraticModulus(c, h), sigma=sigma
    )


def test_general_nonexpansive_example():
    res = renyi_bound_general(1.0, _uniform(1.0, 4, 1.0, 0.0, 1.0))
    assert res.value == 0.125


def test_general_matches_sqrt_shift_specialization():
    for T in (1, 2, 3, 10, 57):
        for h in (0.0, 0.5, 4.0):
            spec = _uniform(1.3, T, 1.0, h, 0.8)
            general = renyi_bound_general(2.0, spec).value
            direct = renyi_bound_sqrt_shift(2.0, 1.3, h, 0.8, T, form="exact-harmonic").value
            assert general == pytest.approx(direct, rel=1e-12)


def test_general_matches_dissipative_specialization():
    for T in (1, 2, 5, 40):
        for c in (0.3, 0.75, 0.99):
            spec = _uniform(2.0, T, c, 0.6, 1.1)
            general = renyi_bound_general(1.5, spec).value
            direct = renyi_bound_dissipative(1.5, 2.0, c, 0.6, 1.1, T, form="exact-sum").value
            assert general == pytest.approx(direct, rel=1e-12)


def test_sqrt_shift_example():
    res = renyi_bound_sqrt_shift(1.0, 1.0, 4.0, 1.0, 2, form="exact-harmonic")
    assert res.value == 3.25


def test_sqrt_shift_h_zero_forms_agree():
    for form in ("exact-harmonic", "log-upper"):
        res = renyi_bound_sqrt_shift(2.0, 3.0, 0.0, 1.5, 7, form=form)
        assert res.value == pytest.approx(2.0 * 9.0 / (2.0 * 2.25 * 7.0), rel=1e-14)


def test_log_upper_dominates_exact_harmonic():
    for T in range(1, 201):
        exact = renyi_bound_sqrt_shift(1.0, 1.0, 1.0, 1.0, T, form="exact-harmonic").value
        upper = renyi_bound_sqrt_shift(1.0, 1.0, 1.0, 1.0, T, form="log-upper").value
        assert upper >= exact - 1e-15


def test_dissipative_example():
    res = renyi_bound_dissipative(1.0, 1.0, 0.5, 0.2, 1.0, 2, form="exact-sum")
    assert res.value == pytest.approx(13.0 / 60.0, rel=1e-12)


def test_dissipative_h_zero_reduces_to_contractive_formula():
    for c in (0.2, 0.6, 0.95):
        for T in (1, 3, 25):
            res = renyi_bound_dissipative(2.0, 1.4, c, 0.0, 0.9, T, form="exact-sum")
            ref = (2.0 / (2.0 * 0.81)) * 1.96 * c**T * (1.0 - c) / (1.0 - c**T)
            assert res.value == pytest.approx(ref, rel=1e-12)


def test_dissipative_series_sandwich():
    rng = np.random.default_rng(11)
    for _ in range(60):
        c = float(rng.uniform(0.05, 0.99))
        T = int(rng.integers(1, 2000))
        series = dissipative_shift_series(c, T)
        lower = 1.0 + math.log(-math.expm1((T + 1) * math.log(c)) / (1.0 - c * c))
        upper = 1.0 + math.log(-math.expm1(T * math.log(c)) / (1.0 - c))
        assert lower - 1e-12 <= series <= upper + 1e-12


def test_dissipative_series_brute_force():
    for c in (0.1, 0.5, 0.9):
        for T in (1, 2, 7, 30):
            brute = sum(c**t / sum(c**j for j in range(t + 1)) for t in range(T))
            assert dissipative_shift_series(c, T) == pytest.approx(brute, rel=1e-12)


def test_dissipative_rejects_c_at_least_one():
    with pytest.raises(PreconditionError):
        renyi_bound_dissipative(1.0, 1.0, 1.0, 0.1, 1.0, 3)
    with pytest.raises(PreconditionError):
        renyi_bound_dissipative(1.0, 1.0, 1.2, 0.1, 1.0, 3)


def test_dissipative_crossover_matches_harmonic():
    near_one = renyi_bound_dissipative(1.0, 1.0, 1.0 - 1e-13, 0.3, 1.0, 50, form="exact-sum")
    harmonic = renyi_bound_sqrt_shift(1.0, 1.0, 0.3, 1.0, 50, form="exact-harmonic")
    assert near_one.value == pytest.approx(harmonic.value, rel=1e-9)


def test_general_handles_expansive_c():
    # c > 1 has no closed-form specialization; the general route must cover it
    spec = _uniform(1.0, 6, 1.1, 0.0, 1.0)
    got = renyi_bound_general(1.0, spec).value
    c, T = 1.1, 6
    ref = 0.5 * c**T * (1.0 - c) / (1.0 - c**T)
    assert got == pytest.approx(ref, rel=1e-12)


def test_general_diameter_past_float_range_is_the_vacuous_bound():
    # D^2 overflows; the constant-parameter routes already return inf here
    res = renyi_bound_general(2.0, _uniform(1e200, 4, 1.5, 0.0, 1.0))
    assert res.value == math.inf
    assert res.breakdown == {"diameter": math.inf, "offset": 0.0}
    assert renyi_bound_sqrt_shift(2.0, 1e200, 0.0, 1.0, 4).value == math.inf


def test_kl_pla_examples():
    assert kl_bound_pla(1.0, 0.25, 0.0, 1) == 1.0
    got = kl_bound_pla(1.0, 0.01, 0.0004, 100)
    assert got == pytest.approx(0.25 + 0.0004 * (math.log(100.0) + 1.0) / 0.04, rel=1e-12)
    assert got == pytest.approx(0.3061, rel=1e-3)


@settings(max_examples=80, deadline=None)
@given(
    D=st.floats(0.1, 10.0),
    eta=st.floats(1e-3, 2.0),
    h=st.floats(0.0, 5.0),
    T=st.integers(1, 1000),
)
def test_kl_pla_is_sqrt_shift_at_langevin_noise(D, eta, h, T):
    kl = kl_bound_pla(D, eta, h, T)
    ref = renyi_bound_sqrt_shift(1.0, D, h, math.sqrt(2.0 * eta), T, form="log-upper")
    assert kl == pytest.approx(ref.value, rel=1e-12)


def test_alpha_linearity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        spec = random_spec(rng)
        v1 = renyi_bound_general(1.0, spec).value
        v2 = renyi_bound_general(2.0, spec).value
        v10 = renyi_bound_general(10.0, spec).value
        assert v2 == 2.0 * v1
        assert v10 / 10.0 == pytest.approx(v1, rel=1e-14)


def test_monotonicity_random_perturbations():
    rng = np.random.default_rng(6)
    for _ in range(40):
        spec = random_spec(rng)
        base = renyi_bound_general(2.0, spec).value
        t = int(rng.integers(0, spec.horizon))

        bigger_d = IterationSpec(
            diameter=spec.diameter + 0.5, sigmas=spec.sigmas, moduli=spec.moduli
        )
        assert renyi_bound_general(2.0, bigger_d).value >= base - 1e-12

        mods = list(spec.moduli)
        mods[t] = QuadraticModulus(mods[t].c, mods[t].h + 0.3)
        bigger_h = IterationSpec(
            diameter=spec.diameter, sigmas=spec.sigmas, moduli=tuple(mods)
        )
        assert renyi_bound_general(2.0, bigger_h).value >= base - 1e-12

        sig = list(spec.sigmas)
        sig[t] = sig[t] * 1.5
        bigger_sigma = IterationSpec(
            diameter=spec.diameter, sigmas=tuple(sig), moduli=spec.moduli
        )
        assert renyi_bound_general(2.0, bigger_sigma).value <= base + 1e-12


def test_general_equals_half_alpha_times_optimal_objective():
    rng = np.random.default_rng(9)
    for _ in range(20):
        spec = random_spec(rng)
        sol = solve_closed_form(spec)
        bound = renyi_bound_general(1.7, spec).value
        assert bound == pytest.approx(0.5 * 1.7 * sol.objective, rel=1e-10)


def test_specialization_trio():
    D, sigma, T, alpha = 1.2, 0.9, 9, 2.0
    lead = alpha / (2.0 * sigma * sigma)
    for c in (0.9, 1.0, 1.1):
        spec = _uniform(D, T, c, 0.0, sigma)
        got = renyi_bound_general(alpha, spec).value
        if c == 1.0:
            ref = lead * D * D / T
        else:
            ref = lead * D * D * c**T * (1.0 - c) / (1.0 - c**T)
        assert got == pytest.approx(ref, rel=1e-12)


def test_breakdown_sums_to_value():
    spec = _uniform(1.0, 5, 0.8, 0.7, 1.2)
    res = renyi_bound_general(3.0, spec)
    assert sum(res.breakdown.values()) == res.value
    res2 = renyi_bound_sqrt_shift(2.0, 1.0, 1.0, 1.0, 4, form="exact-harmonic")
    assert sum(res2.breakdown.values()) == res2.value


def test_invalid_inputs():
    spec = _uniform(1.0, 3, 1.0, 0.0, 1.0)
    with pytest.raises(PreconditionError):
        renyi_bound_general(0.5, spec)
    with pytest.raises(PreconditionError):
        renyi_bound_general(math.inf, spec)
    with pytest.raises(PreconditionError):
        renyi_bound_sqrt_shift(1.0, 1.0, 0.0, 0.0, 3)
    with pytest.raises(PreconditionError):
        renyi_bound_sqrt_shift(1.0, 1.0, 0.0, 1.0, 0)
    with pytest.raises(PreconditionError):
        renyi_bound_sqrt_shift(1.0, 1.0, 0.0, 1.0, 3, form="bogus")
    with pytest.raises(PreconditionError):
        kl_bound_pla(1.0, 0.0, 0.0, 3)
