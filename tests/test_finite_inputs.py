"""Non-finite inputs are refused everywhere, with one code per parameter name;
finite inputs whose intermediates leave the float range give a number or a refusal."""

import dataclasses
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pabi import (
    AbsLipschitz,
    ChainConfig,
    ConvexLipschitz,
    ConvexWeaklySmooth,
    DissipativeQuadratic,
    IterationSpec,
    PowerWeaklySmooth,
    PreconditionError,
    PrivacySpec,
    QuadraticModulus,
    QuadraticSmooth,
    SmoothConvex,
    StronglyDissipative,
    alpha_star,
    boost_rounds,
    dissipative_shift_series,
    epsilon_nsgd,
    feasibility_check,
    kl_bound_pla,
    mixing_time_dissipative,
    mixing_time_weakly_smooth,
    modulus_from_class,
    privacy_curve_sweep,
    renyi_bound_dissipative,
    renyi_bound_general,
    renyi_bound_sqrt_shift,
    renyi_bound_uniform,
    s_alpha_bound,
    solve_closed_form,
    tbar,
    theta_threshold,
    v_term,
)
from pabi.cli import build_parser, main
from pabi.privacy import _Validity
from conftest import same_solution

MOD = QuadraticModulus(1.0, 0.5)
PRIVACY = {
    "n": 1000, "b": 1.0, "L": 1.0, "M": 2.0, "p": 1.0, "eta": 0.01,
    "sigma": 32.0, "alpha": 2.0, "T": 100000, "D": 1.0,
}
SWEEP_BASE = PrivacySpec(**{**PRIVACY, "T": 2})

# name -> (callable, valid keyword arguments); every field is replaced in turn
CALLS = {
    "QuadraticModulus": (QuadraticModulus, {"c": 0.9, "h": 0.5}),
    "IterationSpec": (
        lambda diameter, sigma: IterationSpec(diameter=diameter, sigmas=(1.0, sigma), moduli=(MOD, MOD)),
        {"diameter": 1.0, "sigma": 1.0},
    ),
    "IterationSpec.uniform": (
        lambda diameter, horizon, sigma: IterationSpec.uniform(diameter, horizon, MOD, sigma),
        {"diameter": 1.0, "horizon": 4, "sigma": 1.0},
    ),
    "renyi_bound_sqrt_shift": (
        renyi_bound_sqrt_shift,
        {"alpha": 2.0, "diameter": 1.0, "h": 0.5, "sigma": 1.0, "horizon": 4},
    ),
    "renyi_bound_dissipative": (
        renyi_bound_dissipative,
        {"alpha": 2.0, "diameter": 1.0, "c": 0.5, "h": 0.5, "sigma": 1.0, "horizon": 4},
    ),
    "dissipative_shift_series": (dissipative_shift_series, {"c": 0.5, "horizon": 10}),
    "kl_bound_pla": (kl_bound_pla, {"diameter": 1.0, "eta": 0.1, "h": 0.5, "horizon": 4}),
    "theta_threshold": (theta_threshold, {"p": 0.5, "M": 2.0, "D": 1.0}),
    "mixing_time_weakly_smooth": (
        mixing_time_weakly_smooth,
        {"D": 1.0, "eta": 0.037037037037037035, "p": 0.5, "M": 2.0, "eps": 0.5},
    ),
    "mixing_time_dissipative": (
        mixing_time_dissipative,
        {"D": 1.0, "eta": 0.5, "lam": 0.1, "kappa": 1.0, "beta": 1.0, "eps": 0.5},
    ),
    "boost_rounds": (boost_rounds, {"gamma": 0.5, "eps": 0.1}),
    "PrivacySpec": (PrivacySpec, PRIVACY),
    "tbar": (tbar, {"D": 1.0, "n": 1000, "eta": 0.01, "L": 1.0}),
    "v_term": (v_term, {"D": 1.0, "M": 2.0, "tbar": 10, "eta": 0.1, "p": 0.5}),
    "privacy_curve_sweep": (
        lambda eta_grid, p: privacy_curve_sweep(SWEEP_BASE, [eta_grid], [p]),
        {"eta_grid": 0.01, "p": 0.5},
    ),
    "ConvexLipschitz": (ConvexLipschitz, {"L": 1.0}),
    "ConvexWeaklySmooth": (ConvexWeaklySmooth, {"p": 0.5, "M": 1.0}),
    "SmoothConvex": (SmoothConvex, {"beta": 1.0}),
    "StronglyDissipative": (StronglyDissipative, {"lam": 0.1, "kappa": 1.0, "beta": 1.0}),
    "modulus_from_class": (
        lambda eta: modulus_from_class(ConvexWeaklySmooth(p=0.5, M=1.0), eta),
        {"eta": 0.5},
    ),
    "AbsLipschitz": (AbsLipschitz, {"L": 1.0}),
    "PowerWeaklySmooth": (PowerWeaklySmooth, {"p": 0.5, "M": 2.0}),
    "QuadraticSmooth": (QuadraticSmooth, {"beta": 1.0}),
    "DissipativeQuadratic": (DissipativeQuadratic, {"kappa": 1.0, "beta": 2.0, "lam": 0.5}),
    "ChainConfig": (
        ChainConfig,
        {"dim": 1, "diameter": 1.0, "eta": 0.1, "sigma": 0.5, "T": 5, "n_chains": 10, "seed": 0},
    ),
}

# the one error code of each shared parameter, whichever entry point reads it
CODES = {
    "D": "diameter", "diameter": "diameter", "eta": "stepsize", "p": "smoothness_order",
    "M": "growth_constant", "L": "lipschitz", "beta": "smoothness",
    "kappa": "dissipativity_rate", "lam": "dissipativity_offset", "eps": "accuracy",
    "n": "dataset_size", "horizon": "horizon", "T": "horizon",
}

CASES = [
    pytest.param(name, field, value, id=f"{name}-{field}-{value}")
    for name, (_, kwargs) in CALLS.items()
    for field in kwargs
    for value in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize("name, field, value", CASES)
def test_non_finite_field_is_refused(name, field, value):
    fn, kwargs = CALLS[name]
    fn(**kwargs)  # the valid baseline goes through
    with pytest.raises(PreconditionError) as exc:
        fn(**{**kwargs, field: value})
    if field in CODES:
        assert exc.value.code == CODES[field]


@pytest.mark.parametrize("sigma", [1e-160, 1e160])
def test_noise_level_whose_square_is_not_a_normal_float_is_refused(sigma):
    with pytest.raises(PreconditionError):
        IterationSpec.uniform(1.0, 4, MOD, sigma)
    with pytest.raises(PreconditionError):
        renyi_bound_sqrt_shift(2.0, 1.0, 0.5, sigma, 4)


# 0, subnormal, far from 1 or anywhere up to 1e300
_SPECIAL = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e300]), st.floats(0.0, 1e300))


def _special_steps(data, rng, horizon, lo, hi):
    """Per-step values from U(lo, hi), a drawn share of them replaced by one drawn special value."""
    values = rng.uniform(lo, hi, horizon)
    values[rng.random(horizon) < data.draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0]))] = data.draw(_SPECIAL)
    return values.tolist()


def _result_or_code(fn, *args):
    """fn(*args), or the code of the PreconditionError it raises."""
    try:
        return fn(*args)
    except PreconditionError as err:
        return err.code


@settings(max_examples=150, deadline=None)
@given(data=st.data(), horizon=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
def test_spec_with_special_values_gives_a_refusal_or_a_sound_solution(data, horizon, seed):
    # up to 3000 steps, from 256 on through the running product and sums, whose rows
    # added step by step these values exercise
    rng = np.random.default_rng(seed)
    diameter = data.draw(st.one_of(_SPECIAL, st.floats(0.1, 10.0)))
    c, h, sigma = (_special_steps(data, rng, horizon, lo, hi) for lo, hi in ((0.5, 1.5), (0.0, 2.0), (0.1, 2.0)))
    # both ways in refuse with one code, or store the same arrays and solve to the same bits
    spec = _result_or_code(IterationSpec.from_arrays, diameter, c, h, sigma)
    twin = _result_or_code(IterationSpec, diameter, sigma, map(QuadraticModulus, c, h))
    if isinstance(spec, str) or isinstance(twin, str):
        assert spec == twin
        return
    assert all(np.array_equal(getattr(spec, name), getattr(twin, name)) for name in ("c", "h", "s2"))
    assert spec.diameter == twin.diameter
    sol, twin_sol = _result_or_code(solve_closed_form, spec), _result_or_code(solve_closed_form, twin)
    if isinstance(sol, str):
        assert sol == twin_sol
    else:
        assert same_solution(sol, twin_sol)
        u, a = sol.u, sol.a
        assert math.isfinite(sol.objective) and sol.objective >= 0.0
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(a)) and np.all(a >= 0.0)
        assert u[0] == spec.diameter and u[-1] == 0.0 and np.all(u >= 0.0)
        report = feasibility_check(spec, u)
        assert report.feasible, report.violations
    try:
        bound = renyi_bound_general(2.0, spec)
    except PreconditionError:
        return
    # inf is the vacuous bound, where a term passes the float range
    assert bound.value >= 0.0 and all(term >= 0.0 for term in bound.breakdown.values())


def test_kl_bound_refuses_overflowed_noise_budget():
    # 4 * eta * T overflows, which would make the D^2 term a vacuous zero
    with pytest.raises(PreconditionError) as exc:
        kl_bound_pla(1.0, 1e308, 1.0, 4)
    assert exc.value.code == "stepsize"


def test_kl_bound_where_four_eta_t_overflows_but_two_eta_does_not():
    # the closed form needs only the variance 2 eta finite: D^2 / (4 eta T) + h ln(T e) / (4 eta) = 6.0e-300
    assert kl_bound_pla(1.0, 1e300, 1.0, 10**10) == 6.006462732510114e-300
    exact = 1 / (4 * Fraction(1e300) * 10**10) + Fraction(math.log(10**10) + 1.0) / (4 * Fraction(1e300))
    assert abs(Fraction(kl_bound_pla(1.0, 1e300, 1.0, 10**10)) - exact) <= Fraction(1e-15) * exact


def test_cli_infinite_diameter_exits_2(capsys):
    argv = ["bound", "--alpha", "1", "--D", "inf", "--T", "4", "--sigma", "1", "--c", "1", "--h", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["code"] == "diameter"


# The README examples (without the slow validate-mixing) plus the contracting
# (c < 1) and expansive (c > 1) closed forms and the oracle's tolerance.
COMMANDS = (
    "bound --alpha 1 --D 1 --T 4 --sigma 1 --c 1 --h 0",
    "bound --alpha 1 --D 1 --T 4 --sigma 1 --c 0.5 --h 0.1",
    "bound --alpha 1 --D 1 --T 4 --sigma 1 --c 1.5 --h 0.1",
    "bound --alpha 1 --D 1 --eta 0.25 --h 0 --T 1 --pla-kl",
    "shifts --D 1 --T 2 --sigma 1 --c 1.01,1 --h 4,4",
    # --oracle leads because test ids are built from the first two words
    "shifts --oracle --tol 1e-4 --D 1 --T 2 --sigma 1 --c 1.01,1 --h 4,4",
    "mixing threshold --p 0.5 --M 2 --D 1",
    "mixing weakly-smooth --D 1 --eta 0.037037037037037035 --p 0.5 --M 2 --eps 0.5",
    "mixing dissipative --D 1 --eta 0.5 --lam 0.1 --kappa 1 --beta 1 --eps 0.5",
    "privacy epsilon --n 1000 --b 1 --L 1 --M 2 --p 1 --eta 0.01 --sigma 32 --alpha 2 --T 100000 --D 1",
    "privacy sweep --n 1000 --L 1 --M 2 --D 1 --p 0.2,0.4,0.6,1 --eta-grid geometric:1e-3,0.251,100",
    "simulate run --potential power --p 0.5 --M 2 --D 1 --eta 0.037 --T 27 --chains 1000 --seed 7",
)


# non-finite values, then finite ones at the ends of the float range
_SWEEP_VALUES = ("nan", "inf", "-inf", "1e308", "0", "5e-324", "1e-300", "1e-160", "1e160")


def _float_flag_cases():
    parser = build_parser()
    for command in COMMANDS:
        argv = command.split()
        leaf = parser.parse_args(argv).leaf
        int_flags = {s for a in leaf._actions if a.type is int for s in a.option_strings}
        for i, (flag, text) in enumerate(zip(argv, argv[1:])):
            if not flag.startswith("--") or flag in int_flags:
                continue
            try:
                [float(x) for x in text.split(",")]
            except ValueError:
                continue
            for value in _SWEEP_VALUES:
                # --flag=value, because argparse reads a bare -inf as a flag
                case = argv[:i] + [f"{flag}={value}"] + argv[i + 2:]
                yield pytest.param(case, value, id=f"{' '.join(argv[:2])} {flag}={value}")


@pytest.mark.parametrize(
    "grid",
    ["geometric:nan,0.251,100", "geometric:1e-3,inf,100", "geometric:1e-3,0.251,nan",
     "geometric:1e-3,0.251,inf", "0.01,nan", "nan,0.01"],
)
def test_cli_non_finite_eta_grid_is_refused(capsys, grid):
    argv = ["privacy", "sweep", "--n", "1000", "--L", "1", "--M", "2", "--D", "1", "--p", "1"]
    assert main(argv + ["--eta-grid", grid]) == 2
    assert json.loads(capsys.readouterr().err)["code"] == "eta_grid"


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


PRIVACY_ARGV = "privacy epsilon --n 1000 --b 1 --L 1 --M 2 --p 1 --eta 0.01 --sigma 32 --alpha 2 --T 100000 --D 1"

# finite inputs whose intermediates underflow, two flags away from COMMANDS:
# D^2 overflows while c^T underflows, g_0 underflows, alpha / (2 sigma^2)
# overflows against a zero term (twice), 2*tbar/D overflows while r
# underflows, eta^2 * tbar underflows; then JSON whose inf fields print as
# null: the composition term, v and the smoothness term, the bound itself
TWO_FLAG_COMMANDS = (
    "bound --alpha 2 --D 1e160 --T 10 --sigma 1 --c 1e-160 --h 0.5",
    "bound --alpha 2 --D 1 --T 10 --sigma 1e-20 --c 1e300 --h 0.5",
    "bound --alpha 10 --D 1 --T 4 --sigma 1.5e-154 --c 1 --h 0",
    "bound --alpha 10 --D 1e-200 --T 4 --sigma 1.5e-154 --c 0.5 --h 0.1 --format json",
    "privacy epsilon --n 1000 --b 1 --L 1 --M 2 --p 0.999999999999 --eta 0.01 --sigma 32 --alpha 2"
    " --T 100000 --D 5e-324",
    PRIVACY_ARGV.replace("--eta 0.01", "--eta 5e-324").replace("--D 1", "--D 5e-324"),
    PRIVACY_ARGV.replace("--L 1", "--L 1e160").replace("--sigma 32", "--sigma 1e308"),
    PRIVACY_ARGV.replace("--M 2", "--M 1e160").replace("--p 1", "--p 0"),
    "bound --alpha 2 --D 1 --T 10 --sigma 1e-20 --c 1e300 --h 0.5 --format json",
)


@pytest.mark.parametrize(
    "argv, value",
    [*_float_flag_cases(), *(pytest.param(c.split(), "finite", id=c) for c in TWO_FLAG_COMMANDS)],
)
def test_cli_float_flag_sweep(capsys, argv, value):
    code = main(argv)
    captured = capsys.readouterr()
    assert code != 1, captured.err
    if value in ("nan", "inf", "-inf"):
        assert code == 2, captured.out[:200]
    if code == 0:
        assert captured.err == ""
        assert "nan" not in captured.out.lower(), captured.out[:200]
        if captured.out.startswith(("{", "[")):
            json.loads(captured.out, parse_constant=_reject_constant)
    else:
        assert json.loads(captured.err, parse_constant=_reject_constant)["code"]


# the flags that take a comma list of numbers, each with a value float() refuses in one of its pieces
COMMA_LIST_FLAGS = {
    "shifts --D 1 --T 2 --sigma 1 --c 1.01,1 --h 4,4": ("--c", "--h", "--sigma"),
    "privacy sweep --n 1000 --L 1 --M 2 --D 1 --p 0.2,0.4 --eta-grid geometric:1e-3,0.251,100": ("--p", "--eta-grid"),
    "simulate run --D 1 --eta 0.1 --T 3 --chains 2": ("--init",),
}
_NON_NUMERIC = ("abc", "1,x", "0x10")


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize(
    "command, flag, value",
    [
        pytest.param(command, flag, value, id=f"{' '.join(command.split()[:2])} {flag}={value}")
        for command, flags in COMMA_LIST_FLAGS.items()
        for flag in flags
        for value in _NON_NUMERIC + (("geometric:a,b,c",) if flag == "--eta-grid" else ())
    ],
)
def test_cli_non_numeric_comma_list_is_refused(capsys, tmp_path, command, flag, value, route):
    argv = command.split()
    if flag in argv:  # the flag's valid value goes, or it would win over the config
        i = argv.index(flag)
        del argv[i:i + 2]
    if route == "flag":
        argv.append(f"{flag}={value}")
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
        argv += ["--config", str(config)]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert json.loads(captured.err)["code"] == "flag_value"


# Finite inputs whose intermediates under- or overflow: each fault of the
# parent (exit 1 or a nan) as a library call and as a CLI command.


def test_theta_of_an_underflowed_half_m_is_zero():
    # M/2 rounds to 0; theta rounds to 0 just above, where (M/2)^{4/3} underflows
    assert theta_threshold(0.5, 5e-324, 1.0) == 0.0
    assert theta_threshold(0.5, 1e-300, 1.0) == 0.0


@pytest.mark.parametrize("M", [5e-324, 1e-300])
def test_weakly_smooth_passes_an_underflowed_theta(M):
    result = mixing_time_weakly_smooth(1.0, 0.037, 0.5, M, 0.5)
    assert (result.t_mix, result.constituents["T_star"]) == (28, 28)


def test_tbar_of_an_underflowed_denominator_is_out_of_range():
    spec = PrivacySpec(**{**PRIVACY, "L": 5e-324, "p": 0.5})
    for call in (
        lambda: tbar(1.0, 1000, 0.01, 5e-324),
        lambda: epsilon_nsgd(spec),
        lambda: privacy_curve_sweep(spec, [0.01], [0.5]),
    ):
        with pytest.raises(PreconditionError) as exc:
            call()
        assert exc.value.code == "out_of_range"


@pytest.mark.parametrize("form", ["exact", "log-upper"])
def test_dissipative_diameter_term_past_the_float_range_is_finite(form):
    # D^2 = inf while c^T underflows to 0: the term is about 1e-1280
    res = renyi_bound_uniform(2.0, 1e160, 1e-160, 0.5, 1.0, 10, form)
    assert res.breakdown["diameter"] == 0.0
    assert res.value == renyi_bound_uniform(2.0, 1.0, 1e-160, 0.5, 1.0, 10, form).value
    # D^2 = 1e600 and c^T = 2^-1100 (< 5e-324): the term is about 3.7e268
    res = renyi_bound_uniform(2.0, 1e300, 0.5, 0.5, 1.0, 1100, form)
    c_pow_T = Fraction(1, 2) ** 1100
    exact = Fraction(1e300) ** 2 * c_pow_T * Fraction(1, 2) / (1 - c_pow_T)
    assert res.breakdown["diameter"] == pytest.approx(float(exact), rel=1e-12)


def test_general_bound_of_an_underflowed_g0_is_inf():
    # g_t = (sigma^2 + g_{t+1}) / c = 1e-40 / 1e300 underflows to 0
    res = renyi_bound_uniform(2.0, 1.0, 1e300, 0.5, 1e-20, 10)
    assert res.value == math.inf and res.breakdown["diameter"] == math.inf


def test_v_term_of_an_underflowed_power_is_zero():
    # 2*tbar/D = inf, (eta*M/2)^{1/(1-p)} = 0.01^1e12 underflows to 0
    assert v_term(5e-324, 2.0, 1, 0.01, 0.999999999999) == 0.0
    res = epsilon_nsgd(PrivacySpec(**{**PRIVACY, "p": 0.999999999999, "D": 5e-324}))
    assert (res.v_term, res.regime, res.breakdown["cap_steps"]) == (0.0, "capped", 2.0)


def test_diameter_term_of_an_underflowed_eta_squared():
    # eta^2 = 0, D^2 = 0: the term is (D/eta)^2 / tbar = 1/250
    res = epsilon_nsgd(PrivacySpec(**{**PRIVACY, "eta": 5e-324, "D": 5e-324}))
    assert res.tbar == 250
    assert res.breakdown["diameter_term"] == 1.0 / 250


def test_bound_of_an_overflowed_lead_keeps_its_zero_terms():
    # alpha / (2 sigma^2) = 2.2e308 passes the float range: the lead keeps its exponent, and a 0 term stays 0
    sigma = 1.5e-154
    res = renyi_bound_sqrt_shift(10.0, 1.0, 0.0, sigma, 4)
    assert (repr(res.breakdown["diameter"]), res.breakdown["offset"]) == ("5.555555555555554e+307", 0.0)
    exact = Fraction(10, 2) / Fraction(sigma) ** 2 / 4  # sigma^2 rounds once: within 4e-16
    assert abs(Fraction(res.value) - exact) <= Fraction(4e-16) * exact
    res = renyi_bound_dissipative(10.0, 1e-200, 0.5, 0.1, sigma, 4)
    # D^2 = 1e-400 is 0 as a float, not as a _Wide: 5 D^2 c^T (1 - c) / (1 - c^T) / sigma^2
    exact = 5 * Fraction(1e-200) ** 2 * Fraction(1, 16) * Fraction(1, 2) / Fraction(15, 16) / Fraction(sigma) ** 2
    assert abs(Fraction(res.breakdown["diameter"]) - exact) <= Fraction(1e-15) * exact
    assert 0.0 < res.value == res.breakdown["offset"] < math.inf


@pytest.mark.parametrize("c", [0.5, 1.0, 1.5])
def test_bound_where_d_squared_underflows_is_not_zero(c):
    # D^2 = 1e-400 underflows where alpha / (2 sigma^2) D^2 w_T = 5e199 * 1e-400 * w_T does not
    res = renyi_bound_uniform(1.0, 1e-200, c, 0.0, 1e-100, 4)
    C = Fraction(c)
    weight = Fraction(1, 4) if c == 1.0 else C**4 * (1 - C) / (1 - C**4)
    exact = Fraction(1, 2) * Fraction(1e-200) ** 2 * weight / Fraction(1e-100) ** 2
    assert abs(Fraction(res.value) - exact) <= Fraction(1e-15) * exact


@pytest.mark.parametrize("c", [1.0, 1.0 - 1e-13, 0.5])
@pytest.mark.parametrize("form", ["exact", "log-upper"])
def test_bound_where_two_sigma_squared_overflows_is_its_subnormal_lead(c, form):
    # sigma^2 = 1.44e308 is a float and 2 sigma^2 is not: alpha / (2 sigma^2) read 0, a bound of 0
    sigma = 1.2e154
    res = renyi_bound_uniform(2.0, 1e150, c, 1.0, sigma, 1, form)  # at T = 1: alpha / (2 sigma^2) (D^2 c + h)
    c_one = 1 if c > 1.0 - 1e-12 else Fraction(c)
    exact = Fraction(2.0) / (2 * Fraction(sigma) ** 2) * (Fraction(1e150) ** 2 * c_one + 1)
    assert res.value == pytest.approx(float(exact), rel=1e-14, abs=0.0)
    # there D^2 overflows as well, D^2 w_T = 1.96e307 does not: a number, where 0 * inf gave nan, then inf
    spec = IterationSpec.uniform(1.4e154, 10, QuadraticModulus(1.0 - 2e-12, 0.0), sigma)
    expected = renyi_bound_general(2.0, spec).value
    res = renyi_bound_uniform(2.0, 1.4e154, 1.0 - 2e-12, 0.0, sigma, 10, form)
    assert 0.0 < res.value == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_tbar_of_an_underflowed_denominator_within_the_float_range():
    # 4 eta L underflows to 0 while D n / (4 eta L) is 2.5e29 and 2.5e39
    for D in (1e-300, 1e-290):
        exact = Fraction(D) / (4 * Fraction(1e-300) * Fraction(1e-30))
        assert tbar(D, 1, 1e-300, 1e-30) == pytest.approx(float(exact), rel=1e-15)


def test_epsilon_theorem_of_an_underflowed_lead_is_a_number():
    # alpha / sigma^2 = 0 against 16 L^2 tbar / n^2 = inf: the terms are taken over sigma^2 first
    res = epsilon_nsgd(PrivacySpec(**{**PRIVACY, "L": 1e160, "sigma": 1e308}))
    assert res.tbar == 1 and res.breakdown["composition_term"] == math.inf
    expected = 2.0 * 16.0 * (1e160 / 1e308) ** 2 / 1e6
    assert res.breakdown["epsilon_theorem"] == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "command, code, out",
    [
        ("mixing threshold --p 0.5 --M 5e-324 --D 1", 0, "0\n"),
        ("mixing weakly-smooth --D 1 --eta 0.037 --p 0.5 --M 1e-300 --eps 0.5 --format csv", 0, "t_mix,T_star,rounds\n28,28,1\n"),
        (PRIVACY_ARGV.replace("--L 1", "--L 5e-324").replace("--p 1", "--p 0.5"), 2, ""),
        ("privacy sweep --n 1000 --L 5e-324 --M 2 --D 1 --p 0.5 --eta-grid 0.01", 2, ""),
        ("bound --alpha 2 --D 1e160 --T 10 --sigma 1 --c 1e-160 --h 0.5", 0, "0.5\n"),
        ("bound --alpha 2 --D 1e150 --T 1 --sigma 1.2e154 --c 1 --h 0", 0, "6.9444444444444427e-09\n"),
        ("bound --alpha 2 --D 1e160 --T 10 --sigma 1 --c 1e-160 --h 0.5 --form log-upper", 0, "0.5\n"),
        ("bound --alpha 2 --D 1 --T 10 --sigma 1e-20 --c 1e300 --h 0.5", 0, "inf\n"),
    ],
)
def test_cli_underflowed_intermediates(capsys, command, code, out):
    assert main(command.split()) == code
    captured = capsys.readouterr()
    assert captured.out == out
    if "--sigma 1.2e154" in command:  # (alpha/2) / sigma^2 * D^2, within one rounding of sigma^2 and one of the bound
        exact = Fraction(1e150) ** 2 / Fraction(1.2e154) ** 2
        assert abs(Fraction(float(out)) - exact) <= Fraction(4e-16) * exact
    if code:
        assert json.loads(captured.err)["code"] == "out_of_range"


def test_cli_v_term_of_an_underflowed_power_is_zero(capsys):
    argv = PRIVACY_ARGV.replace("--p 1", "--p 0.999999999999").replace("--D 1", "--D 5e-324").split()
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert (payload["v_term"], payload["regime"], payload["tbar"]) == (0.0, "capped", 1)


def test_cli_json_writes_a_float_past_the_range_as_null(capsys):
    # CSV keeps inf; JSON has no inf, so the field is null
    argv = "bound --alpha 2 --D 1 --T 10 --sigma 1e-20 --c 1e300 --h 0.5"
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == "inf\n"
    assert main([*argv.split(), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload == {"alpha": 2.0, "value": None, "breakdown": {"diameter": None, "offset": 5e40}}
    assert main(PRIVACY_ARGV.replace("--M 2", "--M 1e160").replace("--p 1", "--p 0").split()) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["v_term"] is None and payload["breakdown"]["smoothness_term"] is None
    assert payload["regime"] == "growing" and 0.0 < payload["epsilon"] < math.inf


# sigma^2 = 1e-600 underflows to 0, where the parent divided by it
SIGMA_SQUARED_UNDERFLOWS = (1000, 1.0, 5e-324, 1.0, 1.0, 1.0, 1e-300, 2.0, 1000, 5e-324)
# 4*eta overflows, though 4*eta*L = 3.4e-15 does not: tbar = 2.9e317 is past the float range
# (the parent took tbar = 1 here, and divided by sigma^2 = 0)
TBAR_ARGV = (
    "privacy epsilon --n 1000 --b 1 --L 5e-324 --M 1e-12 --p 0 --eta 1.7e308 --sigma 1e-300 --alpha 2"
    " --T 1000000000000 --D 1e300"
)
# q = 5e-324: 1/(q*(alpha - 1)) passes the float range at the alpha floor, where the parent divided by 0
SUBNORMAL_Q_ARGV = (
    "privacy epsilon --n 1 --b 5e-324 --L 5e-324 --M 1e-12 --p 0 --eta 1e300 --sigma 1.7e308 --alpha 1e12"
    " --T 100000 --D 1e-300"
)


def test_epsilon_where_sigma_squared_underflows_is_a_number():
    res = epsilon_nsgd(PrivacySpec(*SIGMA_SQUARED_UNDERFLOWS))
    assert res.tbar == 250
    # every term is 0 with alpha / sigma^2 = inf (the parent gave nan where sigma^2 was
    # subnormal): the terms are taken over sigma^2 first
    assert res.breakdown["composition_term"] == res.breakdown["diameter_term"] == res.breakdown["smoothness_term"] == 0
    expected = 2.0 * 16.0 * (5e-324 / 1e-300) ** 2 * 250 / 1e6
    assert res.breakdown["epsilon_theorem"] == pytest.approx(expected, rel=1e-12, abs=0.0)
    res = epsilon_nsgd(PrivacySpec(**{**PRIVACY, "L": 1e-170, "sigma": 1e-160, "D": 1e-300}))
    expected = 2.0 * 16.0 * (1e-170 / 1e-160) ** 2 / 1e6
    assert res.breakdown["epsilon_theorem"] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_diameter_term_where_eta_squared_overflows():
    # eta^2 = inf and D^2 = inf (the parent gave nan): the term is (D/eta)^2 / tbar = 1/250
    res = epsilon_nsgd(PrivacySpec(**{**PRIVACY, "M": 1e-200, "eta": 1e200, "D": 1e200}))
    assert res.tbar == 250
    assert res.breakdown["diameter_term"] == 1.0 / 250


@pytest.mark.parametrize("q", [1e-315, 1e-320, 5e-324])
def test_alpha_star_of_a_subnormal_sampling_rate_is_finite_and_sound(q):
    # below 5.6e-309, 1/(q*(alpha - 1)) passes the float range, and the parent took
    # m = ln(1 + 1/(q*(alpha - 1))) as inf (5.6e6 at q = 1e-315) or divided by 0
    sigma = 4.0
    star = alpha_star(q, sigma)
    # the predicate's first condition, alpha <= m sigma^2 / 2 - ln sigma^2, with m <= -ln q above alpha = 2
    assert 2.0 < star <= -math.log(q) * sigma * sigma / 2.0 - math.log(sigma * sigma)
    # 2 alpha q^2 / sigma^2, with q^2 underflowed
    assert s_alpha_bound(q, 100.0, 2.0) == 0.0


@pytest.mark.parametrize(
    "argv, code",
    [
        (TBAR_ARGV, "out_of_range"),
        # every input is finite, but sigma_reduced = b*sigma/(2*sqrt(2)*L) = 6e308 overflows
        (
            "privacy epsilon --n 1000 --b 1 --L 0.1 --M 2 --p 1 --eta 0.01 --sigma 1.7e308 --alpha 2 --T 1000000 --D 1",
            "out_of_range",
        ),
    ],
)
def test_cli_epsilon_where_an_intermediate_leaves_the_float_range_is_refused(capsys, argv, code):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["code"] == code


def test_cli_epsilon_where_sigma_reduced_squared_overflows(capsys):
    # sigma_reduced = 5.7e307, whose square is inf (the parent refused with alpha_validity): every order up to
    # the largest power of two passes the predicate on m * sigma, and 2 alpha q^2 / sigma^2 underflows to 0
    assert main(SUBNORMAL_Q_ARGV.split() + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha_star"] == 2.0**1023
    assert payload["epsilon"] == payload["breakdown"]["s_alpha"] == 0.0
    assert _Validity(payload["breakdown"]["q"], payload["breakdown"]["sigma_reduced"])(payload["alpha_star"])


def test_cli_epsilon_where_sigma_squared_underflows(capsys):
    argv = "privacy epsilon --n 1000 --b 1 --L 5e-324 --M 1 --p 1 --eta 1 --sigma 1e-300 --alpha 2 --T 1000 --D 5e-324"
    assert main(argv.split()) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["tbar"] == 250 and 0.0 < payload["breakdown"]["epsilon_theorem"] < math.inf


@pytest.mark.parametrize(
    "call",
    [
        lambda: theta_threshold(0.0, 1e300, 1.0),
        lambda: mixing_time_weakly_smooth(1.0, 1e-300, 0.0, 1e300, 0.5),
        lambda: mixing_time_dissipative(1.0, 0.5, 1e6, 1.0, 1.0, 0.5),
        lambda: tbar(1e300, 1000, 1.7e308, 5e-324),
        lambda: epsilon_nsgd(PrivacySpec(1000, 1.0, 5e-324, 1e-12, 0.0, 1.7e308, 1e-300, 2.0, 10**12, 1e300)),
        lambda: PrivacySpec(**{**PRIVACY, "n": 10**400}),
        lambda: tbar(1.0, 10**400, 0.01, 1.0),
        lambda: epsilon_nsgd(PrivacySpec(**{**PRIVACY, "n": 10**200, "T": 10**250})),
    ],
)
def test_formula_past_the_float_range_is_refused_as_out_of_range(call):
    with pytest.raises(PreconditionError) as exc:
        call()
    assert exc.value.code == "out_of_range"


# finite floats: subnormals, values near the float maximum and anything between
_FINITE = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e-160, 0.5, 1.0, 2.0, 4.0, 1e160, 1e300, sys.float_info.max]),
    st.floats(0.0, sys.float_info.max),
    st.floats(allow_nan=False, allow_infinity=False),
)
_UNIT = st.one_of(st.floats(0.0, 1.0), _FINITE)
_COUNT = st.one_of(st.integers(1, 10**6), st.integers(1, 10**400))

# name -> (entry point, strategy of each positional argument)
ENTRY_POINTS = {
    "epsilon_nsgd": (
        lambda *args: epsilon_nsgd(PrivacySpec(*args)),
        (_COUNT, _FINITE, _FINITE, _FINITE, _UNIT, _FINITE, _FINITE, _FINITE, _COUNT, _FINITE),
    ),
    "alpha_star": (alpha_star, (_UNIT, _FINITE)),
    "s_alpha_bound": (s_alpha_bound, (_UNIT, _FINITE, _FINITE)),
    "tbar": (tbar, (_FINITE, _COUNT, _FINITE, _FINITE)),
    "v_term": (v_term, (_FINITE, _FINITE, _COUNT, _FINITE, _UNIT)),
    "theta_threshold": (theta_threshold, (_UNIT, _FINITE, _FINITE)),
    "mixing_time_weakly_smooth": (mixing_time_weakly_smooth, (_FINITE, _FINITE, _UNIT, _FINITE, _UNIT)),
    "mixing_time_dissipative": (mixing_time_dissipative, (_FINITE, _FINITE, _FINITE, _FINITE, _FINITE, _UNIT)),
    "boost_rounds": (boost_rounds, (_UNIT, _UNIT)),
}


def _has_nan(value) -> bool:
    if isinstance(value, float):
        return math.isnan(value)
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, (list, tuple)) and any(map(_has_nan, value))


@settings(max_examples=2000, deadline=None)
@given(call=st.one_of(*(st.tuples(st.just(name), st.tuples(*args)) for name, (_, args) in ENTRY_POINTS.items())))
@example(call=("epsilon_nsgd", SIGMA_SQUARED_UNDERFLOWS))
@example(call=("epsilon_nsgd", (1000, 1.0, 5e-324, 1e-12, 0.0, 1.7e308, 1e-300, 2.0, 10**12, 1e300)))
@example(call=("epsilon_nsgd", (1000, 1.0, 1e-170, 2.0, 1.0, 0.01, 1e-160, 2.0, 100000, 1e-300)))
@example(call=("epsilon_nsgd", (1000, 1.0, 1.0, 1e-200, 1.0, 1e200, 32.0, 2.0, 100000, 1e200)))
@example(call=("alpha_star", (5e-324, 100.0)))
@example(call=("s_alpha_bound", (5e-324, 100.0, 2.0)))
@example(call=("theta_threshold", (0.0, 1e300, 1.0)))
@example(call=("mixing_time_weakly_smooth", (1.0, 1e-300, 0.0, 1e300, 0.5)))
@example(call=("mixing_time_dissipative", (1.0, 0.5, 1e6, 1.0, 1.0, 0.5)))
def test_privacy_and_mixing_give_a_refusal_or_a_result_without_nan(call):
    # a bare OverflowError or ZeroDivisionError fails the test as a nan does
    name, args = call
    try:
        result = ENTRY_POINTS[name][0](*args)
    except PreconditionError:
        return
    assert not _has_nan(result), (name, args, result)
