import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pabi import (
    IterationSpec,
    PreconditionError,
    QuadraticModulus,
    dissipative_shift_series,
    kl_bound_pla,
    renyi_bound_dissipative,
    renyi_bound_general,
    renyi_bound_sqrt_shift,
    renyi_bound_uniform,
    solve_closed_form,
)
from pabi import shifts
from pabi.bounds import _exp, _harmonic, _lambert_tail
from pabi.cli import main
from pabi.shifts import SPEC_MAX_HORIZON
from conftest import random_spec, same_solution, spec_from


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


def test_harmonic_below_ten_is_the_sequential_sum():
    # below T = 10 the harmonic number is summed term by term, which here
    # equals numpy's pairwise sum, the value of the earlier implementation
    for n in range(1, 10):
        total = 0.0
        for k in range(1, n + 1):
            total += 1.0 / k
        assert _harmonic(n) == total == float(np.sum(1.0 / np.arange(1, n + 1, dtype=float))), n


def test_harmonic_series_branch_equals_scipy_digamma_bit_for_bit():
    # from T = 10 on the harmonic number comes from a copy of cephes psi_asy,
    # the routine scipy.special.digamma runs for x = T + 1 > 10
    from scipy import special

    rng = np.random.default_rng(20250107)
    # x = T + 1.0 falls below scipy's 1e17 switch to the bare log terms up to
    # T = 10**17 - 9 and rounds to 1e17 from T = 10**17 - 8 on; the copy keeps
    # the series past it, where it changes no bit
    horizons = list(range(10, 20_001)) + np.unique(np.geomspace(10, 1e15, 2000).astype(np.int64)).tolist()
    horizons += [2_000_000, 2_000_001, 10**17 - 9, 10**17 - 8, 10**17, 10**17 + 1, 2**53 + 1, 10**30]
    horizons += rng.integers(10, 10**18, 100_000).tolist()
    for n in horizons:
        assert _harmonic(n) == float(special.digamma(n + 1.0) + np.euler_gamma), n


def test_harmonic_series_is_within_two_ulp_of_the_exact_sum():
    exact = Fraction(0)
    for n in range(1, 2001):
        exact += Fraction(1, n)
        if n >= 10:
            assert abs(Fraction(_harmonic(n)) - exact) <= 2 * Fraction(math.ulp(float(exact))), n


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


def _chunked_series(c, T):
    """Reference exact dissipative sum: 10^6-term numpy chunks, stopping once c^t is below float resolution
    of the total."""
    total, start, log_c = 0.0, 0, math.log(c)
    while start < T:
        count = min(10**6, T - start)
        ct = np.exp(np.arange(start, start + count, dtype=float) * log_c)
        total += float(np.sum(ct * (1.0 - c) / (1.0 - ct * c)))
        start += count
        if math.exp(start * log_c) < 1e-17 * max(total, 1.0):
            break
    return total


@settings(max_examples=60, deadline=None)
@given(c=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), T=st.integers(1, 10**6))
@example(c=0.999999, T=10**6)
@example(c=1.0 - 1e-11, T=10**6)
@example(c=1e-300, T=10**6)
def test_dissipative_series_keeps_its_bits_up_to_a_million_steps(c, T):
    assert repr(dissipative_shift_series(c, T)) == repr(_chunked_series(c, T))


@pytest.mark.parametrize("c", [0.5, 0.9, 0.99, 0.9999])
def test_dissipative_series_keeps_its_bits_where_the_first_chunk_ends_the_sum(c):
    assert repr(dissipative_shift_series(c, 10**9)) == repr(_chunked_series(c, 10**9))


# sum_{k=10^6+1}^{T} 1 / (e^{sk} - 1) at s = -ln c for the float c, by mpmath.sumem at 50 digits (cross-checked
# at c = 1 - 1e-7 against the geometric double series sum_m (e^{-msa} - e^{-ms(T+1)}) / (1 - e^{-ms}))
TAIL_REFERENCE = {
    (0.999999, 10**7): "458628.9333552676329043",
    (0.999999, 10**9): "458674.3340432129734934",
    (1 - 1e-7, 10**7): "18934927.57412661054915",
    (1 - 1e-7, 10**9): "23521678.22216071482105",
    (1 - 1e-9, 10**7): "2298088831.961167295617",
    (1 - 1e-9, 10**9): "6449579783.250808417375",
    (1 - 1e-11, 10**7): "230253945287.842347768",
    (1 - 1e-11, 10**9): "690276337455.6912393534",
}


@pytest.mark.parametrize("c, T", list(TAIL_REFERENCE))
def test_dissipative_tail_matches_fifty_digit_sums(c, T):
    ref = Fraction(TAIL_REFERENCE[c, T])
    tail = _lambert_tail(-math.log1p(c - 1.0), 10**6 + 1, T)
    assert abs(Fraction(tail) - ref) <= Fraction(1e-15) * ref
    # the series adds (1 - c)/c times that tail to its first 10^6 terms
    series, head = dissipative_shift_series(c, T), dissipative_shift_series(c, 10**6)
    tail_term = (1 - Fraction(c)) / Fraction(c) * ref
    assert abs(Fraction(series) - Fraction(head) - tail_term) <= Fraction(1e-15) * Fraction(series)


@pytest.mark.parametrize("c, T", list(TAIL_REFERENCE))
def test_log_upper_dominates_the_exact_sum_past_its_head(c, T):
    args = (2.0, 1.0, c, 1.0, 1.0, T)
    upper, exact = (renyi_bound_dissipative(*args, form=form).value for form in ("log-upper", "exact-sum"))
    assert upper >= exact


def test_general_handles_expansive_c():
    # the per-step route at c > 1, against the diameter term of the closed form
    spec = _uniform(1.0, 6, 1.1, 0.0, 1.0)
    got = renyi_bound_general(1.0, spec).value
    c, T = 1.1, 6
    ref = 0.5 * c**T * (1.0 - c) / (1.0 - c**T)
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize(
    "c, form, direct",
    [
        (1.0, "exact", lambda a, D, c, h, s, T: renyi_bound_sqrt_shift(a, D, h, s, T, "exact-harmonic")),
        (1.0, "log-upper", lambda a, D, c, h, s, T: renyi_bound_sqrt_shift(a, D, h, s, T, "log-upper")),
        (0.5, "exact", lambda a, D, c, h, s, T: renyi_bound_dissipative(a, D, c, h, s, T, "exact-sum")),
        (0.5, "log-upper", lambda a, D, c, h, s, T: renyi_bound_dissipative(a, D, c, h, s, T, "log-upper")),
        (1.0 - 1e-13, "exact", lambda a, D, c, h, s, T: renyi_bound_dissipative(a, D, c, h, s, T, "exact-sum")),
        (1.0 - 1e-13, "log-upper",
         lambda a, D, c, h, s, T: renyi_bound_dissipative(a, D, c, h, s, T, "log-upper")),
    ],
)
@pytest.mark.parametrize("horizon", [1, 7, 300])
def test_uniform_equals_its_direct_route(c, form, direct, horizon):
    args = (1.7, 1.3, c, 0.4, 0.9, horizon)
    assert renyi_bound_uniform(*args, form=form) == direct(*args)


@pytest.mark.parametrize("c, horizon", [(1.5, 1), (1.5, 7), (1.5, 300), (1.0 + 1e-9, 10**6), (1.0001, 10**6),
                                        (1.01, 10**6), (1.5, 10**6)])
def test_expansive_closed_form_is_the_general_bound(c, horizon):
    value = renyi_bound_uniform(1.7, 1.3, c, 0.4, 0.9, horizon).value
    assert value == pytest.approx(renyi_bound_general(1.7, _uniform(1.3, horizon, c, 0.4, 0.9)).value, rel=1e-12)


@pytest.mark.parametrize(
    "D, horizon, sigma, c, h",
    [
        (1e154, 3000, 1e152, 0.9, 0.0),
        # c = 0.99, not 0.9: at 0.9 the objective and the bound both underflow to 0 at T = 20000
        (1e154, 20000, 1e152, 0.99, 0.0),
        # at c > 1 the bound is the expansive closed form, so here the per-step passes meet it
        (1e154, 20000, 1e152, 1.1, 0.5),
        # the weights leave the floats within a few thousand steps
        (1.0, 300000, 1.0, 0.6, 0.5),
        (1.0, 300000, 1.0, 1.5, 0.5),
        # c^T underflows before D^2 / sigma^2 = 1e600 brings the bound back to 3.7e268
        (1e150, 1100, 1e-150, 0.5, 0.0),
    ],
)
def test_optimal_objective_is_the_closed_form_bound_at_alpha_two(D, horizon, sigma, c, h):
    # also where the tail weights pass 2^1024; from 256 steps on, both passes of solve_closed_form are one
    # running product and two running sums
    objective = solve_closed_form(_uniform(D, horizon, c, h, sigma)).objective
    bound = renyi_bound_uniform(2.0, D, c, h, sigma, horizon).value
    assert bound > 0 and abs(objective - bound) <= 1e-12 * bound


# c -> (diameter, offset) of the bound at alpha = 1.7, D = 1.3, h = 0.4, sigma = 0.9, T = 10^6 for the float c,
# by mpmath at 40 digits, G summed term by term.  renyi_bound_general's diameter term reads 1.3e-12 low at
# c = 1 + 1e-9, from 10^6 rounded steps of its backward recursion
EXPANSIVE_REFERENCE = {
    1.0 + 1e-9: ("0.000001774343667266702973178306", "6.041601354948347030992469"),
    1.0001: ("0.0001773456790123261459342491", "46.0792944635565951807962"),
    1.01: ("0.01773456790123458352598648", "4158.138806758918714519563"),
    1.5: ("0.8867283950617283887262993", "139918.2407542080916730822"),
}


@pytest.mark.parametrize("c", list(EXPANSIVE_REFERENCE))
def test_expansive_closed_form_matches_forty_digit_sums(c):
    res = renyi_bound_uniform(1.7, 1.3, c, 0.4, 0.9, 10**6)
    for got, ref in zip((res.breakdown["diameter"], res.breakdown["offset"]), map(Fraction, EXPANSIVE_REFERENCE[c])):
        assert abs(Fraction(got) - ref) <= Fraction(1e-15) * ref


@settings(max_examples=60, deadline=None)
@given(
    c=st.one_of(st.floats(1.0, 100.0, exclude_min=True), st.floats(1.0, 1.0 + 1e-6, exclude_min=True)),
    alpha=st.floats(1.0, 10.0),
    D=st.floats(1e-3, 1e3),
    h=st.floats(0.0, 10.0),
    sigma=st.floats(1e-2, 1e2),
    horizon=st.one_of(st.integers(1, 30), st.integers(1, 10**5)),
)
@example(c=1.0 + 1e-12, alpha=2.0, D=1.0, h=1.0, sigma=1.0, horizon=10**5)
@example(c=100.0, alpha=2.0, D=1.0, h=1.0, sigma=1.0, horizon=12)
# the general bound reads 2.4e-12 low here (the closed form is within 6e-17 of a 40-digit value)
@example(c=1.0000000006100855, alpha=1.6536305898971357, D=0.1706781502507239, h=0.0, sigma=0.05088173106047031,
         horizon=100000)
def test_expansive_closed_form_is_the_general_bound_at_random(c, alpha, D, h, sigma, horizon):
    # 1e-12, or where it is larger the rounding that renyi_bound_general's backward recursion may gather near
    # c = 1, where it damps no error: half an ulp at each of its T steps
    value = renyi_bound_uniform(alpha, D, c, h, sigma, horizon).value
    general = renyi_bound_general(alpha, _uniform(D, horizon, c, h, sigma)).value
    assert value == pytest.approx(general, rel=max(1e-12, horizon * 2.0**-53))


@pytest.mark.parametrize("c", [1.0 + 2.0**-52, 1.0 + 1e-12, 1.0001, 1.5, 2.0, 7.3, 100.0])
@pytest.mark.parametrize("horizon", range(1, 13))
def test_expansive_closed_form_equals_exact_rationals(c, horizon):
    # alpha / (2 sigma^2) (D^2 c^T (c-1)/(c^T - 1) + h sum_{m=1}^{T} c^(m-1) (c-1)/(c^m - 1)), in rationals
    alpha, D, h, sigma = 1.7, 1.3, 0.4, 0.9
    C, lead = Fraction(c), Fraction(alpha) / 2 / Fraction(sigma) ** 2
    diameter = lead * Fraction(D) ** 2 * C**horizon * (C - 1) / (C**horizon - 1)
    offset = lead * Fraction(h) * sum(C ** (m - 1) * (C - 1) / (C**m - 1) for m in range(1, horizon + 1))
    res = renyi_bound_uniform(alpha, D, c, h, sigma, horizon)
    for got, ref in ((res.breakdown["diameter"], diameter), (res.breakdown["offset"], offset)):
        assert abs(Fraction(got) - ref) <= Fraction(1e-15) * ref


# (alpha, D, c, h, sigma, T, form) -> repr of renyi_bound_uniform's value, recorded from the separate harmonic
# and contracting routes that the one closed-form evaluator replaced; the last rows overflow alpha / (2 sigma^2),
# then D^2.  The c = 0.999999, T = 1e9 exact row was re-recorded, 1 ulp lower, when the exact sum's terms past
# 10^6 became one Euler-Maclaurin tail (its 30-digit value is 6.04139416979015: both readings carry the head's
# known 1.03e-12 low bias)
UNIFORM_PINS = {
    (1.7, 1.3, 1e-300, 0.4, 0.9, 1, "exact"): "0.4197530864197531",
    (1.7, 1.3, 1e-300, 0.4, 0.9, 9, "exact"): "0.4197530864197531",
    (1.7, 1.3, 1e-300, 0.4, 0.9, 10, "exact"): "0.4197530864197531",
    (1.7, 1.3, 1e-300, 0.4, 0.9, 1000000, "exact"): "0.4197530864197531",
    (1.7, 1.3, 1e-300, 0.4, 0.9, 1000000000, "exact"): "0.4197530864197531",
    (1.7, 1.3, 1e-300, 0.4, 0.9, 1, "log-upper"): "0.4197530864197531",
    (1.7, 1.3, 1e-300, 0.4, 0.9, 9, "log-upper"): "0.4197530864197531",
    (1.7, 1.3, 1e-300, 0.4, 0.9, 10, "log-upper"): "0.4197530864197531",
    (1.7, 1.3, 1e-300, 0.4, 0.9, 1000000, "log-upper"): "0.4197530864197531",
    (1.7, 1.3, 1e-300, 0.4, 0.9, 1000000000, "log-upper"): "0.4197530864197531",
    (1.7, 1.3, 0.5, 0.4, 0.9, 1, "exact"): "1.3064814814814816",
    (1.7, 1.3, 0.5, 0.4, 0.9, 9, "exact"): "0.6753301653407898",
    (1.7, 1.3, 0.5, 0.4, 0.9, 10, "exact"): "0.6748719927217688",
    (1.7, 1.3, 0.5, 0.4, 0.9, 1000000, "exact"): "0.6744152491619744",
    (1.7, 1.3, 0.5, 0.4, 0.9, 1000000000, "exact"): "0.6744152491619744",
    (1.7, 1.3, 0.5, 0.4, 0.9, 1, "log-upper"): "1.3064814814814816",
    (1.7, 1.3, 0.5, 0.4, 0.9, 9, "log-upper"): "0.7116184035131127",
    (1.7, 1.3, 0.5, 0.4, 0.9, 10, "log-upper"): "0.7111604315702463",
    (1.7, 1.3, 0.5, 0.4, 0.9, 1000000, "log-upper"): "0.7107037548029401",
    (1.7, 1.3, 0.5, 0.4, 0.9, 1000000000, "log-upper"): "0.7107037548029401",
    (1.7, 1.3, 0.999999, 0.4, 0.9, 1, "exact"): "2.19320810308642",
    (1.7, 1.3, 0.999999, 0.4, 0.9, 9, "exact"): "1.3845166300321718",
    (1.7, 1.3, 0.999999, 0.4, 0.9, 10, "exact"): "1.406786684191874",
    (1.7, 1.3, 0.999999, 0.4, 0.9, 1000000, "exact"): "5.848865041981778",
    (1.7, 1.3, 0.999999, 0.4, 0.9, 1000000000, "exact"): "6.041394169783912",
    (1.7, 1.3, 0.999999, 0.4, 0.9, 1, "log-upper"): "2.19320810308642",
    (1.7, 1.3, 0.999999, 0.4, 0.9, 9, "log-upper"): "1.5390929745078858",
    (1.7, 1.3, 0.999999, 0.4, 0.9, 10, "log-upper"): "1.5636131006725904",
    (1.7, 1.3, 0.999999, 0.4, 0.9, 1000000, "log-upper"): "6.026327129897658",
    (1.7, 1.3, 0.999999, 0.4, 0.9, 1000000000, "log-upper"): "6.218856283577872",
    (1.7, 1.3, 0.9999999999999, 0.4, 0.9, 1, "exact"): "2.19320987654321",
    (1.7, 1.3, 0.9999999999999, 0.4, 0.9, 9, "exact"): "1.3845189104448363",
    (1.7, 1.3, 0.9999999999999, 0.4, 0.9, 10, "exact"): "1.4067891436409958",
    (1.7, 1.3, 0.9999999999999, 0.4, 0.9, 1000000, "exact"): "6.041393237375737",
    (1.7, 1.3, 0.9999999999999, 0.4, 0.9, 1000000000, "exact"): "8.940942854610865",
    (1.7, 1.3, 0.9999999999999, 0.4, 0.9, 1, "log-upper"): "2.19320987654321",
    (1.7, 1.3, 0.9999999999999, 0.4, 0.9, 9, "log-upper"): "1.5390956387721306",
    (1.7, 1.3, 0.9999999999999, 0.4, 0.9, 10, "log-upper"): "1.563615964960464",
    (1.7, 1.3, 0.9999999999999, 0.4, 0.9, 1000000, "log-upper"): "6.218858057046733",
    (1.7, 1.3, 0.9999999999999, 0.4, 0.9, 1000000000, "log-upper"): "9.118407883948493",
    (1.7, 1.3, 1.0, 0.4, 0.9, 1, "exact"): "2.19320987654321",
    (1.7, 1.3, 1.0, 0.4, 0.9, 9, "exact"): "1.3845189104448363",
    (1.7, 1.3, 1.0, 0.4, 0.9, 10, "exact"): "1.4067891436409958",
    (1.7, 1.3, 1.0, 0.4, 0.9, 1000000, "exact"): "6.041393237375737",
    (1.7, 1.3, 1.0, 0.4, 0.9, 1000000000, "exact"): "8.940942854610865",
    (1.7, 1.3, 1.0, 0.4, 0.9, 1, "log-upper"): "2.19320987654321",
    (1.7, 1.3, 1.0, 0.4, 0.9, 9, "log-upper"): "1.5390956387721306",
    (1.7, 1.3, 1.0, 0.4, 0.9, 10, "log-upper"): "1.563615964960464",
    (1.7, 1.3, 1.0, 0.4, 0.9, 1000000, "log-upper"): "6.218858057046733",
    (1.7, 1.3, 1.0, 0.4, 0.9, 1000000000, "log-upper"): "9.118407883948493",
    (1e+300, 1e-20, 1.0, 1e-20, 1e-05, 4, "exact"): "1.0416666666666664e+290",
    (1e+300, 1e-20, 1.0, 1e-20, 1e-05, 4, "log-upper"): "1.1931471805599453e+290",
    (1e+300, 1e-20, 0.5, 1e-20, 1e-05, 4, "exact"): "7.714285714285713e+289",
    (1e+300, 1e-20, 0.5, 1e-20, 1e-05, 4, "log-upper"): "8.14304329711187e+289",
    (10.0, 1.0, 1.0, 0.0, 1.5e-154, 4, "exact"): "5.555555555555554e+307",
    (10.0, 1e-200, 0.5, 0.1, 1.5e-154, 4, "exact"): "3.428571428571427e+307",
    (2.0, 1e+160, 1e-160, 0.5, 1.0, 10, "exact"): "0.5",
    (2.0, 1e+160, 0.9, 0.5, 1.0, 3000, "exact"): "5.339840906294021e+181",
    (2.0, 1e+160, 0.9, 0.5, 1.0, 3000, "log-upper"): "5.339840906294021e+181",
    (2.0, 1e+300, 0.5, 0.5, 1.0, 1100, "log-upper"): "3.6810759145114164e+268",
}


# 45-digit values (mpmath at 60 digits, on the float inputs) of the pins whose intermediates leave the
# normal floats, and the relative distance each pin keeps from its value: one rounding, or at c = 0.9,
# T = 3000 and c = 0.5, T = 1100 the error of exp(T ln c) itself
UNIFORM_REFERENCES = {
    (1e+300, 1e-20, 1.0, 1e-20, 1e-05, 4, "exact"): ("1.04166666666666649380533737640769831990548276e+290", 4e-16),
    (1e+300, 1e-20, 1.0, 1e-20, 1e-05, 4, "log-upper"): ("1.19314718055994511141800298114539576812307729e+290", 4e-16),
    (1e+300, 1e-20, 0.5, 1e-20, 1e-05, 4, "log-upper"): ("8.14304329711186933740083878896552209416155066e+289", 4e-16),
    (10.0, 1.0, 1.0, 0.0, 1.5e-154, 4, "exact"): ("5.55555555555555462984089196222656168328337273e+307", 4e-16),
    (10.0, 1e-200, 0.5, 0.1, 1.5e-154, 4, "exact"): ("3.42857142857142819045432611814376756945709728e+307", 4e-16),
    (2.0, 1e+160, 0.9, 0.5, 1.0, 3000, "exact"): ("5.33984090629413423408494585408461580945709354e+181", 3e-14),
    (2.0, 1e+160, 0.9, 0.5, 1.0, 3000, "log-upper"): ("5.33984090629413423408494585408461580945709354e+181", 3e-14),
    (2.0, 1e+300, 0.5, 0.5, 1.0, 1100, "log-upper"): ("3.68107591451143172426644983383262130211948854e+268", 5e-15),
}


@pytest.mark.parametrize("args", list(UNIFORM_PINS), ids=lambda args: "-".join(map(str, args)))
def test_uniform_keeps_its_recorded_bits(args):
    value = renyi_bound_uniform(*args).value
    assert repr(value) == UNIFORM_PINS[args]
    if args in UNIFORM_REFERENCES:
        reference, distance = (Fraction(x) for x in UNIFORM_REFERENCES[args])
        assert abs(Fraction(value) - reference) <= distance * reference


_UNIT_C = st.one_of(
    st.just(1.0),
    st.just(0.999999),
    st.floats(1.0 - 1e-12, 1.0, exclude_max=True),  # the harmonic band below c = 1
    st.floats(0.0, 1.0, exclude_min=True),
    st.floats(5e-324, 1e-300),
)
_EDGES = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.4916681462400413e-154, 1e-154, 1.0, 9.5e153,
          1.3e154, 1.3407807929942596e154, 1.4e154, 1e300, 1.7976931348623157e308]
_FIELD = st.one_of(st.sampled_from(_EDGES), st.floats(0.0, 1.7976931348623157e308), st.floats(0.0, 10.0))


def _outcome(call):
    try:
        res = call()
    except PreconditionError as err:
        return err.code
    return repr((res.alpha, res.value, res.breakdown["diameter"], res.breakdown["offset"]))


@settings(max_examples=300, deadline=None)
@given(
    c=_UNIT_C,
    alpha=st.one_of(st.sampled_from([1.0, 2.0, 1e154, 1e300]), st.floats(1.0, 1e308)),
    D=_FIELD,
    h=_FIELD,
    sigma=_FIELD,
    horizon=st.one_of(st.integers(1, 12), st.integers(1, 10**9)),
)
# 2 sigma^2 overflows and D^2 c^T does: alpha / (2 sigma^2) read 0, and 0 * inf gave nan
@example(c=1.0 - 2e-12, alpha=2.0, D=1.4e154, h=0.0, sigma=1.2e154, horizon=10)
def test_constant_parameter_bounds_are_one_evaluator(c, alpha, D, h, sigma, horizon):
    # O(1) at c = 1 and in the band; the exact series stops within one chunk for c <= 0.99
    if not (c == 1.0 or 1.0 - c < 1e-12 or c <= 0.99):
        horizon = horizon % 10**5 + 1
    args = (alpha, D, h, sigma, horizon)
    values = {}
    for form, own_form in (("exact", "exact-harmonic" if c == 1.0 else "exact-sum"), ("log-upper", "log-upper")):
        uniform = _outcome(lambda: renyi_bound_uniform(alpha, D, c, h, sigma, horizon, form))
        if c == 1.0:
            adapter = _outcome(lambda: renyi_bound_sqrt_shift(*args, own_form))
        else:
            adapter = _outcome(lambda: renyi_bound_dissipative(alpha, D, c, h, sigma, horizon, own_form))
        assert adapter == uniform
        try:
            res = renyi_bound_uniform(alpha, D, c, h, sigma, horizon, form)
        except PreconditionError:
            continue
        assert res.breakdown["diameter"] + res.breakdown["offset"] == res.value
        assert all(x >= 0.0 for x in (res.value, *res.breakdown.values())), res  # neither nan nor negative
        values[form] = res.value
    if values:
        # log-upper rounds up to 4.4e-16 relative below exact where both factors are about 1
        assert values["log-upper"] >= values["exact"] * (1.0 - 1e-15)


@pytest.mark.parametrize(
    "c, h, horizon, form, code",
    [
        (1.5, 0.4, 4, "log-upper", "form"),
        (1.5, -1.0, 0, "log-upper", "form"),  # form is refused before any other check
        (-1.0, 0.4, 4, "log-upper", "form"),
        (1.0, 0.4, 4, "exact-sum", "form"),
        (0.0, 0.4, 4, "exact", "modulus_c"),
        (-1.0, 0.4, 4, "exact", "modulus_c"),
        (math.inf, 0.4, 4, "exact", "modulus_c"),
        (math.nan, 0.4, 4, "exact", "modulus_c"),
        (1.0, -0.1, 4, "exact", "offset"),
        (0.5, -0.1, 4, "exact", "offset"),
        (1.5, -0.1, 4, "exact", "offset"),
        (1.0, 0.4, 0, "exact", "horizon"),
        (0.5, 0.4, 0, "log-upper", "horizon"),
        (1.5, 0.4, 0, "exact", "horizon"),
    ],
)
def test_uniform_refusal_codes(c, h, horizon, form, code):
    with pytest.raises(PreconditionError) as exc:
        renyi_bound_uniform(1.0, 1.0, c, h, 1.0, horizon, form)
    assert exc.value.code == code


@pytest.mark.parametrize(
    "alpha, D, c, sigma, horizon, code",
    [
        (0.5, 1.0, 1.5, 1.0, 10**7, "alpha"),
        (math.inf, 1.0, 1.5, 1.0, 4, "alpha"),
        (2.0, 0.0, 1.5, 1.0, 4, "diameter"),
        (2.0, math.nan, 1.5, 1.0, SPEC_MAX_HORIZON + 1, "diameter"),
        (2.0, 1.0, 1.5, 0.0, 4, "sigma"),
        (2.0, 1.0, 1.5, 1e-160, 4, "sigma"),  # sigma^2 is not a normal float
        (2.0, 1.0, 1.5, 1e160, 4, "sigma"),
        (0.5, 1.0, 0.0, 1.0, 4, "alpha"),  # every field of the closed forms before c's own rule
        (2.0, 1.0, -1.0, 1.0, 4, "modulus_c"),
        (2.0, 1.0, math.inf, 1.0, 4, "modulus_c"),
        # answered: c > 1 is the O(1) closed form at any horizon
        (2.0, 1.0, 1.5, 1.0, 4, None),
        (2.0, 1.0, 1.5, 1.0, SPEC_MAX_HORIZON + 1, None),
        (2.0, 1.0, 1.0001, 1.0, 10**12, None),
    ],
)
def test_uniform_checks_every_field_before_it_builds_a_spec(monkeypatch, alpha, D, c, sigma, horizon, code):
    # c's own rule comes after the fields shared by the closed forms, and no input builds a T-long spec
    built = []
    monkeypatch.setattr(IterationSpec, "uniform", classmethod(lambda cls, *args: built.append(args)))
    if code is None:
        assert 0.0 < renyi_bound_uniform(alpha, D, c, 0.4, sigma, horizon).value < math.inf
    else:
        with pytest.raises(PreconditionError) as exc:
            renyi_bound_uniform(alpha, D, c, 0.4, sigma, horizon)
        assert exc.value.code == code
    assert built == []


@pytest.mark.parametrize(
    "call",
    [
        lambda T: renyi_bound_uniform(2, 1, 0.5, 1, 1, T),
        lambda T: renyi_bound_uniform(2, 1, 1.5, 1, 1, T),
        lambda T: renyi_bound_uniform(2, 1, 1, 1, 1, T, "log-upper"),
        lambda T: renyi_bound_sqrt_shift(2, 1, 1, 1, T),
        lambda T: renyi_bound_dissipative(2, 1, 0.5, 1, 1, T),
        lambda T: kl_bound_pla(1, 0.1, 0.0, T),
    ],
)
def test_horizon_past_the_float_range_is_out_of_range(call):
    # the horizon rule takes any integer; the formulas cannot turn 10^400 into a float
    with pytest.raises(PreconditionError) as exc:
        call(10**400)
    assert exc.value.code == "out_of_range"


def test_uniform_closed_forms_take_horizons_past_the_cap():
    # no route builds T-long arrays; at c > 1 the offset factor grows like ((c - 1)/c) T
    for c in (1.0, 0.5, 1.5, 1.0001):
        assert renyi_bound_uniform(2.0, 1.0, c, 0.1, 1.0, 10**12).value > 0.0
    # at c = 1.0001 the terms of G fall as e^{-sk}, s = 1e-4, so G has converged by T = 1e6 and the offset
    # (alpha = 2, sigma = 1, h = 1) grows by (c - 1)/c per step from there
    slope = (1.0001 - 1.0) / 1.0001
    offset = {T: renyi_bound_uniform(2.0, 1.0, 1.0001, 1.0, 1.0, T).breakdown["offset"] for T in (10**6, 10**9)}
    assert offset[10**9] - slope * 10**9 == pytest.approx(offset[10**6] - slope * 10**6, rel=1e-9)


def test_general_diameter_past_float_range_is_the_vacuous_bound():
    # D^2 overflows; the constant-parameter routes already return inf here
    res = renyi_bound_general(2.0, _uniform(1e200, 4, 1.5, 0.0, 1.0))
    assert res.value == math.inf
    assert res.breakdown == {"diameter": math.inf, "offset": 0.0}
    assert renyi_bound_sqrt_shift(2.0, 1e200, 0.0, 1.0, 4).value == math.inf


def test_general_diameter_past_float_range_over_a_long_contracting_tail_is_finite():
    # D^2 = 1e400 overflows, but g_0 = 2^2001 - 2 takes it back into the float range
    res = renyi_bound_general(2.0, _uniform(1e200, 2000, 0.5, 0.0, 1.0))
    assert res.value == pytest.approx(float(Fraction(1e200) ** 2 / (2**2001 - 2)), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("form", ["exact", "log-upper"])
@pytest.mark.parametrize(
    "diameter, c, sigma, horizon",
    [
        # D^2 overflows, D^2 w_T does not: the harmonic limit, just past its crossover, and contracting
        (1.4e154, 1.0, 1.0, 10),
        (1.4e154, 1.0 - 2e-12, 1.0, 10),
        (1.4e154, 0.9999, 1.0, 10),
        # alpha / (2 sigma^2) * D overflows, the bound does not
        (1000.0, 1.0, 1e-153, 10**5),
    ],
)
def test_uniform_is_finite_where_only_an_intermediate_overflows(diameter, c, sigma, horizon, form):
    expected = renyi_bound_general(2.0, _uniform(diameter, horizon, c, 0.0, sigma)).value
    assert expected < math.inf
    res = renyi_bound_uniform(2.0, diameter, c, 0.0, sigma, horizon, form)
    assert res.value == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("horizon", [1020, 1030, 1500])
@pytest.mark.parametrize("h", [0.0, 1.0])
def test_general_keeps_terms_whose_backward_weight_overflows(horizon, h):
    # D^2 near the float maximum and c = 0.5: g_0 ~ 2^(T+1) overflows once
    # T passes ~1023, while D^2 / g_0 stays a normal float
    spec = _uniform(1.3e154, horizon, 0.5, h, 1.0)
    res = renyi_bound_general(2.0, spec)
    assert res.value == pytest.approx(solve_closed_form(spec).objective, rel=1e-12)
    assert res.breakdown["diameter"] > 0.0
    assert type(res.value) is float
    assert all(type(v) is float for v in res.breakdown.values())


def _exact_general_bound(alpha, spec):
    """The diameter and offset terms of the general bound in exact rationals, from its tail-sum form."""
    c, h, s2 = (list(map(Fraction, x.tolist())) for x in (spec.c, spec.h, spec.s2))
    tail_sum, tail_prod, offset = Fraction(0), Fraction(1), Fraction(0)
    for t in range(spec.horizon - 1, -1, -1):
        tail_sum += s2[t] * tail_prod  # S_t, with tail_prod = prod_{l>t} c_l
        offset += h[t] * tail_prod / tail_sum
        tail_prod *= c[t]
    half = Fraction(alpha) / 2
    return half * tail_prod * Fraction(spec.diameter) ** 2 / tail_sum, half * offset


_BIG = 2.0**1000
# specs whose tail weights or D^2 leave the normal floats at a step with h_t > 0 or at
# t = 0, each checked against exact rationals; unit noise, but sigma = 2^-500 where c_t > 1
# unless a fourth entry gives the noise
FLOAT_RANGE_SPECS = {
    # c = 0.5 lifts g_1 to about 2^1101 and c_0 takes g_0 back to 2^101, but
    # c_0 * m_0 is about 2^1101: h_0 / (c_0 g_0) ~ 3.8e-32 must not become 0
    "down-at-t0": (1.0, [_BIG] + [0.5] * 1100, [1e300] + [0.0] * 1100),
    # c_0 = 1e-300 lifts g_0 = 2e300 past 2^960, where c_0 * m_0 ~ 6e-145
    # and h_0 / (c_0 * m_0) overflows before the scale takes it back
    "up-at-t0": (1.0, [1e-300, 1.0], [1e200, 0.0]),
    # g_4 ~ 2^1101, then three steps of c = 2^1000 with s2 = 2^-1000 take g_1
    # below the float range: h_1 / (c_1 g_1) = h_1 / (s2_1 + g_2) is about 2^899
    "underflow-after-overflow": (1.0, [1.0] + [_BIG] * 3 + [0.5] * 1100, [0.0, 1.0] + [0.0] * 1102),
    # as above with g_0 itself below the float range: D^2 / g_0 = D^2 c_0 / (s2_0 + g_1)
    "underflow-at-t0": (2.0**-600, [_BIG] * 3 + [0.5] * 1100, [0.0] * 1103),
    # no scale move: g_1 ~ 2^-1062 is subnormal, with about 12 significant bits,
    # so h_1 / (c_1 g_1) is 6e-5 too small, and h_1 / (s2_1 + g_2) is not
    "subnormal": (1.0, [1.0, 3 * 2.0**60, 2.0**10], [0.0, 1e-300, 0.0]),
    # g_0 is a normal float with e_0 = 0, but D^2 = 1e320 overflows (the bound
    # is 1.5e200), or D^2 = 1e-320 is subnormal (the bound is 1.5e-20): the
    # `bound --T 1 --c 1.5 --h 0` commands with these D and sigma
    "diameter-squared-overflows": (1e160, [1.5], [0.0], [1e60]),
    "diameter-squared-subnormal": (1e-160, [1.5], [0.0], [1e-150]),
}


@pytest.mark.parametrize("name", FLOAT_RANGE_SPECS)
def test_general_equals_exact_rationals_where_the_tail_weights_leave_the_normal_floats(name):
    diameter_in, c, h, *sigma = FLOAT_RANGE_SPECS[name]
    sigma = sigma[0] if sigma else [2.0**-500 if ct > 1.0 else 1.0 for ct in c]
    spec = spec_from(diameter_in, c, h, sigma)
    diameter, offset = _exact_general_bound(2.0, spec)
    res = renyi_bound_general(2.0, spec)
    assert 0.0 < res.value < math.inf
    assert res.breakdown["diameter"] == pytest.approx(float(diameter), rel=1e-14, abs=0.0)
    assert res.breakdown["offset"] == pytest.approx(float(offset), rel=1e-14, abs=0.0)


def test_contracting_bound_where_c_to_the_t_underflows_is_not_zero(capsys):
    # c^T = 2^-1100 underflows before D^2 / sigma^2 = 1e600 brings it back: the bound is 3.7e268, not 0
    exact = Fraction(1e150) ** 2 / Fraction(1e-150) ** 2 * Fraction(1, 2**1101) / (1 - Fraction(1, 2**1100))
    res = renyi_bound_dissipative(2.0, 1e150, 0.5, 0.0, 1e-150, 1100)
    general = renyi_bound_general(2.0, _uniform(1e150, 1100, 0.5, 0.0, 1e-150)).value
    assert main("bound --alpha 2 --D 1e150 --T 1100 --sigma 1e-150 --c 0.5 --h 0".split()) == 0
    printed = float(capsys.readouterr().out)
    # the closed form within the error of exp(T ln c) at T ln c = -762, the general bound within its rounding
    for value, distance in ((res.value, 1e-14), (printed, 1e-14), (general, 1e-15)):
        assert abs(Fraction(value) - exact) <= Fraction(distance) * exact


@settings(max_examples=200, deadline=None)
@given(
    c=st.floats(0.01, 0.99),
    alpha=st.floats(1.0, 10.0),
    log_d=st.floats(-300.0, 300.0),
    h=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    log_sigma=st.floats(-150.0, 150.0),
    horizon=st.integers(1, 3000),
)
@example(c=0.5, alpha=2.0, log_d=150.0, h=0.0, log_sigma=-150.0, horizon=1100)
def test_contracting_closed_form_is_the_general_bound_at_random(c, alpha, log_d, h, log_sigma, horizon):
    # log-uniform D and sigma, so that c^T, D^2 and alpha / (2 sigma^2) each leave the floats; c <= 0.99, where
    # renyi_bound_general's backward recursion damps its own rounding
    D, sigma = 10.0**log_d, 10.0**log_sigma
    general = renyi_bound_general(alpha, _uniform(D, horizon, c, h, sigma)).value
    assume(sys.float_info.min <= general < math.inf)
    assert renyi_bound_uniform(alpha, D, c, h, sigma, horizon).value == pytest.approx(general, rel=1e-12)


@pytest.mark.parametrize("y", [-708.5, -745.2, -762.4681156, -1000.0, -3583.0, -20000.25])
def test_exp_below_the_normal_floats(y):
    # e^y as m 2^e, against a 40-digit decimal e^y: within a few ulps, far inside 1e-13
    wide = _exp(y)
    with localcontext() as ctx:
        ctx.prec = 40
        exact = Fraction(Decimal(y).exp())
    assert abs(Fraction(wide.m) * Fraction(2) ** wide.e - exact) <= Fraction(1e-15) * exact


@pytest.mark.parametrize("c, horizon", [(1.0, 3), (1.0, 10), (1.296, 10), (0.5, 10), (0.5, 40)])
def test_general_offset_where_h_is_subnormal(c, horizon):
    # h_t = 5e-324: h_t / (c_t g_t) is taken on mantissas, not rounded to a few multiples of 5e-324
    spec = _uniform(1.0, horizon, c, 5e-324, 1.0)
    offset = renyi_bound_general(1e154, spec).breakdown["offset"]
    if (c, horizon) == (1.0, 3):
        assert repr(offset) == "4.5289350868780936e-170"  # (1e154 / 2) 5e-324 (1/3 + 1/2 + 1)
    exact = _exact_general_bound(1e154, spec)[1]
    assert abs(Fraction(offset) - exact) <= Fraction(1e-15) * exact


def test_general_skips_overflowed_terms_below_float_resolution():
    # every term past the float range of g underflows: the bound stays the exact zero limit
    res = renyi_bound_general(2.0, _uniform(1.0, 100_000, 0.5, 0.0, 1.0))
    assert res.value == 0.0
    assert type(res.value) is float


def _random_spec_builder(seed):
    return lambda: random_spec(np.random.default_rng(seed))


TAIL_WEIGHT_SPECS = {
    **{f"random-{seed}": _random_spec_builder(seed) for seed in range(5)},
    "uniform": lambda: _uniform(2.0, 50, 1.1, 0.3, 0.8),
    # g_0 .. g_{n-1} pass the float range and carry positive exponents
    "overflow-h0": lambda: _uniform(1.3e154, 1030, 0.5, 0.0, 1.0),
    "overflow-h1": lambda: _uniform(1.3e154, 1500, 0.5, 1.0, 1.0),
}


@pytest.mark.parametrize("name", TAIL_WEIGHT_SPECS)
def test_tail_weights_run_once_per_spec_and_are_reused_unchanged(monkeypatch, name):
    build = TAIL_WEIGHT_SPECS[name]
    calls = []
    tail_weights = shifts._tail_weights

    def counted(c, s2):
        calls.append(len(c))
        return tail_weights(c, s2)

    monkeypatch.setattr(shifts, "_tail_weights", counted)
    spec = build()
    sol = solve_closed_form(spec)
    res = renyi_bound_general(1.7, spec)
    assert calls == [spec.horizon]
    m, e = spec._g
    assert not m.flags.writeable and not e.flags.writeable
    want_m, want_e = tail_weights(spec.c, spec.s2)
    assert np.array_equal(m, want_m) and np.array_equal(e, want_e)
    # frexp pairs: g_0 = m_0 2^e_0 with 1/2 <= m_0 < 1, past the float range where e_0 > 1024
    assert np.all((0.5 <= m) & (m < 1.0))
    assert (e[0] > 1024) == name.startswith("overflow")
    # a fresh spec, the bound computed first, gives the same bits
    fresh = build()
    assert renyi_bound_general(1.7, fresh) == res
    assert same_solution(solve_closed_form(fresh), sol)
    assert calls == [spec.horizon] * 2


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


@pytest.mark.parametrize("eta", [0.125, 0.5, 2.0, 8.0, 0.28125, 1.125, 4.5])
def test_kl_pla_is_the_log_upper_closed_form_bit_for_bit(eta):
    # sigma * sigma == 2 eta exactly here, so both evaluate the one closed form on the same noise variance
    sigma = math.sqrt(2.0 * eta)
    assert sigma * sigma == 2.0 * eta
    for D in (1e-3, 0.3, 1.0, 7.5, 1e150):
        for h in (0.0, 1e-9, 0.4, 3.0, 1e200):
            for T in (1, 2, 9, 10, 1000, 10**6, 10**9, 10**15):
                ref = renyi_bound_sqrt_shift(1.0, D, h, sigma, T, "log-upper").value
                assert repr(kl_bound_pla(D, eta, h, T)) == repr(ref), (D, h, T)


@pytest.mark.parametrize(
    "D, eta, h, T",
    [(6.314842763172682, 1e-310, 8.925119466472444e-145, 930), (1e-150, 5e-324, 1e-160, 7), (3.0, 2e-309, 0.0, 10**6)],
)
def test_kl_pla_where_the_noise_variance_is_subnormal(D, eta, h, T):
    # 2 eta is not a normal float, so alpha / (2 * 2 eta) overflows; D^2 / T over 2 eta passed the float range
    # before it was halved (the first case read inf), though the bound itself does not
    exact = Fraction(D) ** 2 / (4 * Fraction(eta) * T) + Fraction(h) * Fraction(math.log(T) + 1.0) / (4 * Fraction(eta))
    assert exact < Fraction(np.finfo(float).max)
    assert kl_bound_pla(D, eta, h, T) == pytest.approx(float(exact), rel=1e-15)


@pytest.mark.parametrize("D", [1.7320425798188434e-158, 1e-160, 3e-155, 1e-200])
@pytest.mark.parametrize("eta", [5e-323, 1e-320, 2e-315, 1e-310])
@pytest.mark.parametrize("h, T", [(0.0, 36), (0.0, 1), (1e-300, 36), (3e-320, 10**6)])
def test_kl_pla_where_d_squared_over_t_is_subnormal(D, eta, h, T):
    # alpha / (2 * 2 eta) overflows; D^2 / T, a subnormal or 0, once lost its digits before it was divided by 2 eta
    # (the first D with eta = 5e-323, T = 36 read 42166.69999999999)
    exact = Fraction(D) ** 2 / (4 * Fraction(eta) * T) + Fraction(h) * Fraction(math.log(T) + 1.0) / (4 * Fraction(eta))
    assert abs(Fraction(kl_bound_pla(D, eta, h, T)) - exact) <= Fraction(1e-15) * exact


@pytest.mark.parametrize("D", [1e-160, 1e-170, 3e-155])
@pytest.mark.parametrize("h", [0.0, 1e-310])
def test_sqrt_shift_where_the_lead_overflows_and_d_squared_over_t_is_subnormal(D, h):
    # sigma^2 is a normal float and alpha / (2 sigma^2) is not
    alpha, sigma, T = 10.0, 1.5e-154, 7
    raw = Fraction(D) ** 2 / T + Fraction(h) * Fraction(math.log(T) + 1.0)
    exact = Fraction(alpha) / (2 * Fraction(sigma) ** 2) * raw
    got = renyi_bound_sqrt_shift(alpha, D, h, sigma, T, form="log-upper").value
    assert abs(Fraction(got) - exact) <= Fraction(1e-15) * exact


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

        sigma = np.sqrt(spec.s2)  # the spec's own noise levels, sigma^2 being a normal float

        bigger_d = spec_from(spec.diameter + 0.5, spec.c, spec.h, sigma)
        assert renyi_bound_general(2.0, bigger_d).value >= base - 1e-12

        h = spec.h.copy()
        h[t] += 0.3
        bigger_h = spec_from(spec.diameter, spec.c, h, sigma)
        assert renyi_bound_general(2.0, bigger_h).value >= base - 1e-12

        sigma[t] *= 1.5
        bigger_sigma = spec_from(spec.diameter, spec.c, spec.h, sigma)
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
