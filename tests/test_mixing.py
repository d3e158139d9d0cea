import math

import numpy as np
import pytest

from pabi import (
    PreconditionError,
    boost_rounds,
    bretagnolle_huber_tv,
    mixing_time_dissipative,
    mixing_time_weakly_smooth,
    modulus_from_class,
    pinsker_tv,
    renyi_bound_dissipative,
    theta_threshold,
    StronglyDissipative,
)
from pabi._util import ceil_int
from pabi.cli import main


def test_theta_smooth_endpoint_exact():
    for M in (0.5, 2.0, 7.3):
        assert theta_threshold(1.0, M, 3.0) == M / 2.0


def test_theta_lipschitz_endpoint_exact():
    for M, D in ((2.0, 1.0), (4.0, 3.0), (0.5, 10.0)):
        ref = (M / 2.0) ** 2 * max(16.0 * math.log(D * (M / 2.0) * math.e), 27.0)
        assert theta_threshold(0.0, M, D) == ref
    assert theta_threshold(0.0, 2.0, 1.0) == 27.0


def test_theta_continuous_in_p():
    grid = np.linspace(0.0, 1.0, 201)
    vals = [theta_threshold(float(p), 2.0, 1.0) for p in grid]
    jumps = np.abs(np.diff(vals))
    assert jumps.max() < 0.05 * max(vals)
    assert vals[-1] == 1.0
    assert abs(theta_threshold(1.0 - 1e-9, 2.0, 1.0) - 1.0) < 1e-6


def test_theta_invalid_inputs():
    with pytest.raises(PreconditionError):
        theta_threshold(-0.1, 2.0, 1.0)
    with pytest.raises(PreconditionError):
        theta_threshold(0.5, 0.0, 1.0)
    with pytest.raises(PreconditionError):
        theta_threshold(0.5, 2.0, 0.0)


def test_weakly_smooth_example():
    res = mixing_time_weakly_smooth(1.0, 1.0 / 27.0, 0.0, 2.0, 0.5)
    assert res.t_mix == 27
    assert res.constituents == {"T_star": 27, "rounds": 1}
    assert all(res.regime_checks.values())


def test_weakly_smooth_rounds_scale_with_accuracy():
    res = mixing_time_weakly_smooth(1.0, 1.0 / 27.0, 0.0, 2.0, 0.25)
    assert res.t_mix == 54
    assert res.constituents["rounds"] == 2


def test_weakly_smooth_smooth_case():
    res = mixing_time_weakly_smooth(1.0, 1.0, 1.0, 2.0, 0.5)
    assert res.t_mix == 1


def test_weakly_smooth_factorization():
    for eps in (0.5, 0.3, 0.01, 0.001):
        res = mixing_time_weakly_smooth(1.5, 0.05, 0.4, 1.0, eps)
        assert res.t_mix == res.constituents["T_star"] * res.constituents["rounds"]


def test_weakly_smooth_stepsize_gate_reports_threshold():
    with pytest.raises(PreconditionError) as exc:
        mixing_time_weakly_smooth(1.0, 0.5, 0.0, 2.0, 0.5)
    assert exc.value.code == "stepsize_threshold"
    assert exc.value.required_value == pytest.approx(27.0)


def test_weakly_smooth_diameter_gate():
    # theta(1, 0.02, 0.1) = 0.01 so 1/eta passes, but eta > D^2
    with pytest.raises(PreconditionError) as exc:
        mixing_time_weakly_smooth(0.1, 0.02, 1.0, 0.02, 0.5)
    assert exc.value.code == "stepsize_vs_diameter"


def test_eps_domain():
    for eps in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(PreconditionError):
            mixing_time_weakly_smooth(1.0, 1.0 / 27.0, 0.0, 2.0, eps)


def test_dissipative_example():
    res = mixing_time_dissipative(1.0, 0.5, 0.1, 1.0, 1.0, 0.5)
    assert res.t_mix == 5
    assert res.constituents == {"T_star": 1, "rounds": 5}


def test_dissipative_zero_lambda_rounds():
    res = mixing_time_dissipative(1.0, 0.5, 0.0, 1.0, 1.0, 0.5)
    # (e/(1-c))^0 = 1 so rounds = ceil(2 e ln2 log2(1/eps)) = ceil(3.768...)
    assert res.constituents["rounds"] == 4


@pytest.mark.parametrize(
    "eps, bits", [(1e-310, 310 * math.log2(10.0)), (5e-324, 1074.0)], ids=["1e-310", "5e-324"]
)
def test_rounds_where_one_over_eps_overflows(eps, bits):
    # 1/eps passes the float range below about 5.6e-309; log2(eps) stays finite
    assert mixing_time_weakly_smooth(1.0, 0.01, 0.5, 2.0, eps).constituents["rounds"] == math.ceil(bits)
    # c = 1 - 2 eta kappa + (eta beta)^2 = 0.25
    factor = 2.0 * math.e * math.log(2.0) * (math.e / 0.75) ** 0.05
    rounds = mixing_time_dissipative(1.0, 0.5, 0.1, 1.0, 1.0, eps).constituents["rounds"]
    assert rounds == math.ceil(factor * bits)


def test_dissipative_contraction_window():
    for eta, kappa, beta in ((2.0, 1.0, 1.0), (0.9, 1.0, 2.0), (1.0, 1.0, 0.1)):
        with pytest.raises(PreconditionError) as exc:
            mixing_time_dissipative(1.0, eta, 0.1, kappa, beta, 0.5)
        assert exc.value.code == "contraction_factor"


def test_dissipative_monotone_in_eta_below_vertex():
    kappa, beta = 1.0, 1.5
    etas = np.linspace(0.05, kappa / beta**2, 12)
    prev = None
    for eta in etas:
        res = mixing_time_dissipative(2.0, float(eta), 0.3, kappa, beta, 0.1)
        if prev is not None:
            assert res.t_mix <= prev
        prev = res.t_mix


def test_weakly_smooth_monotone_in_eta():
    prev = None
    for eta in np.geomspace(1e-3, 1.0 / 27.0, 10):
        res = mixing_time_weakly_smooth(1.0, float(eta), 0.0, 2.0, 0.5)
        if prev is not None:
            assert res.t_mix <= prev
        prev = res.t_mix


def test_pinsker():
    assert pinsker_tv(0.0) == 0.0
    assert pinsker_tv(0.5) == 0.5
    assert pinsker_tv(8.0) == 1.0


def test_bretagnolle_huber():
    assert bretagnolle_huber_tv(0.0) == 0.0
    assert bretagnolle_huber_tv(math.log(2.0)) == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert bretagnolle_huber_tv(30.0) < 1.0


def test_tv_bound_crossover():
    # Pinsker is tighter for small kl, Bretagnolle-Huber for large
    assert pinsker_tv(1.5) < bretagnolle_huber_tv(1.5)
    assert bretagnolle_huber_tv(1.7) < pinsker_tv(1.7)


def test_boost_rounds():
    assert boost_rounds(0.5, 0.25) == 2
    assert boost_rounds(0.9, 0.01) == 44
    assert boost_rounds(0.0, 0.5) == 1
    with pytest.raises(PreconditionError):
        boost_rounds(1.0, 0.5)
    with pytest.raises(PreconditionError):
        boost_rounds(-0.1, 0.5)


def _accuracy_grid():
    """103,224 accuracies in (0, 1): a geometric grid, three below the normal floats, and every
    power of two 2^-k (k = 1..1074) with its neighbours, but 0, the one below 2^-1074."""
    grid = [*np.geomspace(1e-300, 0.999999, 100_000).tolist(), 5e-324, 1e-310, 1e-320]
    for k in range(1, 1075):
        x = math.ldexp(1.0, -k)
        grid += [math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)]
    return [eps for eps in grid if eps > 0.0]


def test_boost_rounds_matches_log2_at_half():
    for eps in (0.5, 0.25, 0.1, 0.01, 1e-6):
        assert boost_rounds(0.5, eps) == max(1, math.ceil(math.log(eps) / math.log(0.5) - 1e-12))
    # boost_rounds(0.5, eps), the weakly smooth rounds, is max(1, ceil(-log2(eps))) at every grid point
    grid = _accuracy_grid()
    assert len(grid) == 103_224
    assert [boost_rounds(0.5, eps) for eps in grid] == [max(1, ceil_int(-math.log2(eps))) for eps in grid]
    for eps in grid[::1000]:
        rounds = mixing_time_weakly_smooth(1.0, 0.01, 0.5, 2.0, eps).constituents["rounds"]
        assert rounds == boost_rounds(0.5, eps)


def test_pipeline_never_exceeds_closed_form():
    # KL at T_star -> TV -> boosting must land at or below the packaged budget
    rng = np.random.default_rng(21)
    for _ in range(50):
        kappa = float(rng.uniform(0.3, 1.5))
        beta = kappa * float(rng.uniform(1.05, 3.0))
        eta = float(rng.uniform(0.1, 1.9)) * kappa / beta**2
        lam = float(rng.uniform(0.01, 2.0))
        eps = float(rng.uniform(0.01, 0.9))
        D = float(rng.uniform(0.5, 4.0))

        closed = mixing_time_dissipative(D, eta, lam, kappa, beta, eps)
        t_star = closed.constituents["T_star"]

        mod = modulus_from_class(StronglyDissipative(lam=lam, kappa=kappa, beta=beta), eta)
        kl = renyi_bound_dissipative(
            1.0, D, mod.c, mod.h, math.sqrt(2.0 * eta), t_star, form="log-upper"
        ).value
        gamma = bretagnolle_huber_tv(kl)
        pipeline = t_star * boost_rounds(gamma, eps)
        assert pipeline <= closed.t_mix


def test_step_counts_round_float_noise_above_an_integer_down():
    # the documented rounding policy: 1/eta = 49.00000000000001 gives 49
    eta = 1.0 / 49.0
    assert 1.0 / eta > 49.0
    assert mixing_time_weakly_smooth(1.0, eta, 0.5, 2.0, 0.5).constituents["T_star"] == 49
    # a ratio past the 1e-12 relative guard rounds up
    assert mixing_time_weakly_smooth(1.0, 1.0 / (49.0 + 1e-9), 0.5, 2.0, 0.5).constituents["T_star"] == 50


def test_step_counts_past_1e12_are_not_rounded_down(capsys):
    # the 1e-12 relative slack exceeds 1 past 1e12; whole numbers must stay whole
    assert ceil_int(1e13) == 10**13
    assert ceil_int(999999999999.0) == 999999999999
    assert main("mixing weakly-smooth --D 1e7 --eta 0.1 --p 1 --M 1 --eps 0.5".split()) == 0
    assert '"T_star": 1000000000000000,' in capsys.readouterr().out
