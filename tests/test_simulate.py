import hashlib
import math

import numpy as np
import pytest

import pabi.simulate as sim
from pabi import (
    AbsLipschitz,
    ChainConfig,
    DissipativeQuadratic,
    PowerWeaklySmooth,
    PreconditionError,
    QuadraticSmooth,
    empirical_tv,
    rng_stream,
    run_chains,
    run_noisy_sgd,
    samples_to_csv,
    validate_mixing_bound,
)


def _config(**kw):
    base = dict(dim=1, diameter=1.0, eta=0.01, sigma=0.1, T=10, n_chains=100, seed=0)
    base.update(kw)
    return ChainConfig(**base)


def test_zero_potential_no_noise_is_identity():
    config = _config(sigma=0.0, T=5)
    out = run_chains(QuadraticSmooth(beta=0.0), config, 0.2)
    assert np.all(out == 0.2)


def test_abs_potential_symmetric_mean():
    config = _config(sigma=math.sqrt(2 * 0.01), T=30, n_chains=20000, seed=4)
    out = run_chains(AbsLipschitz(L=1.0), config, 0.0)
    se = out.std() / math.sqrt(out.size)
    assert abs(out.mean()) <= 3.0 * se


def test_run_chains_deterministic():
    config = _config(n_chains=500, seed=9)
    a = run_chains(AbsLipschitz(L=1.0), config, 0.1)
    b = run_chains(AbsLipschitz(L=1.0), config, 0.1)
    assert np.array_equal(a, b)


def test_output_independent_of_chunking(monkeypatch):
    config = _config(n_chains=300, seed=2)
    full = run_chains(PowerWeaklySmooth(p=0.5, M=1.0), config, 0.1)
    monkeypatch.setattr(sim, "_CHUNK_BYTES", 4096)
    chunked = run_chains(PowerWeaklySmooth(p=0.5, M=1.0), config, 0.1)
    assert np.array_equal(full, chunked)


def test_init_outside_domain_rejected():
    with pytest.raises(PreconditionError):
        run_chains(AbsLipschitz(L=1.0), _config(), 0.9)
    with pytest.raises(PreconditionError):
        run_chains(AbsLipschitz(L=1.0), _config(kind="ball"), np.array([0.6]))


def test_per_chain_init_shapes():
    config = _config(n_chains=8, sigma=0.0, T=1)
    inits = np.linspace(-0.4, 0.4, 8).reshape(8, 1)
    out = run_chains(QuadraticSmooth(beta=0.0), config, inits)
    assert np.array_equal(out, inits)
    with pytest.raises(PreconditionError):
        run_chains(QuadraticSmooth(beta=0.0), config, np.zeros((5, 1)))


def test_box_projection_clamps():
    config = _config(sigma=2.0, T=3, n_chains=2000, seed=1)
    out = run_chains(AbsLipschitz(L=1.0), config, 0.0)
    assert np.all(np.abs(out) <= 0.5 + 1e-12)
    assert np.any(np.abs(out) > 0.45)


def test_ball_projection_keeps_radius():
    config = _config(dim=2, kind="ball", sigma=2.0, T=3, n_chains=2000, seed=1)
    out = run_chains(AbsLipschitz(L=1.0), config, np.zeros(2))
    norms = np.linalg.norm(out, axis=1)
    assert np.all(norms <= 0.5 + 1e-12)


def test_full_batch_sgd_matches_run_chains():
    # b = n makes Poisson inclusion deterministic and the two updates identical
    config = _config(sigma=0.05, T=12, n_chains=64, seed=5)
    dataset = [4.0, 4.0]
    direct = run_chains(QuadraticSmooth(beta=4.0), config, 0.1)
    sgd = run_noisy_sgd(dataset, lambda x, z: z * x, config, b=2.0, init=0.1)
    assert np.array_equal(direct, sgd)


def test_sgd_expected_batch_size():
    calls = []

    def grad(x, z):
        calls.append(x.shape[0])
        return np.zeros_like(x)

    config = _config(sigma=0.0, T=100000, n_chains=1, seed=13)
    run_noisy_sgd([1.0, 2.0, 3.0, 4.0, 5.0], grad, config, b=1.5, init=0.0)
    mean_batch = sum(calls) / config.T
    assert abs(mean_batch - 1.5) <= 0.015


def test_sgd_neighboring_datasets_diverge_at_first_inclusion():
    # chains never sampling the differing point must agree bitwise
    n_data, j, T = 4, 2, 3
    config = _config(sigma=0.05, T=T, n_chains=64, seed=17)
    base = [1.0, 1.5, 2.0, 2.5]
    other = list(base)
    other[j] = -3.0
    out_a = run_noisy_sgd(base, lambda x, z: z * x, config, b=1.2, init=0.1)
    out_b = run_noisy_sgd(other, lambda x, z: z * x, config, b=1.2, init=0.1)
    q = 1.2 / n_data
    saw_divergence = False
    for chain in range(config.n_chains):
        mask = rng_stream(config.seed, chain, 1).random((T, n_data)) < q
        if mask[:, j].any():
            saw_divergence = True
            assert not np.array_equal(out_a[chain], out_b[chain])
        else:
            assert np.array_equal(out_a[chain], out_b[chain])
    assert saw_divergence


def test_sgd_rejects_bad_batch():
    with pytest.raises(PreconditionError):
        run_noisy_sgd([1.0, 2.0], lambda x, z: x, _config(), b=0.0, init=0.0)
    with pytest.raises(PreconditionError):
        run_noisy_sgd([1.0, 2.0], lambda x, z: x, _config(), b=3.0, init=0.0)


def test_empirical_tv_identical_sets():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5000, 1))
    est = empirical_tv(a, a.copy(), bins=20)
    assert est.tv == 0.0


def test_empirical_tv_disjoint_supports():
    rng = np.random.default_rng(1)
    a = rng.uniform(0.0, 1.0, size=(5000, 1))
    b = rng.uniform(2.0, 3.0, size=(5000, 1))
    est = empirical_tv(a, b, bins=20)
    assert est.tv >= 1.0 - est.half_width
    assert est.tv <= 1.0


def test_empirical_tv_gaussian_closed_form():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((100000, 1))
    b = rng.standard_normal((100000, 1)) + 1.0
    est = empirical_tv(a, b, bins=40)
    truth = math.erf(0.5 / math.sqrt(2.0))
    assert abs(est.tv - truth) <= est.half_width


def test_empirical_tv_bin_rule():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(100, 1))
    with pytest.raises(PreconditionError) as exc:
        empirical_tv(a, a, bins=50)
    assert exc.value.code == "bins"


def test_validate_mixing_bound_passes():
    report = validate_mixing_bound(AbsLipschitz(L=1.0), 1.0, 1.0 / 27.0, n_chains=20000, seed=3)
    assert report["pass"] is True
    assert report["estimate"] <= 0.5 + report["half_width"]
    assert report["config"]["t_star"] == 27


def test_validate_mixing_bound_smooth_margin_not_worse():
    kw = dict(n_chains=20000, seed=3)
    rough = validate_mixing_bound(AbsLipschitz(L=1.0), 1.0, 1.0 / 27.0, **kw)
    smooth = validate_mixing_bound(QuadraticSmooth(beta=2.0), 1.0, 0.5, **kw)
    assert smooth["pass"] is True
    assert smooth["margin"] >= rough["margin"] - 0.02


def test_validate_mixing_bound_gate():
    with pytest.raises(PreconditionError):
        validate_mixing_bound(AbsLipschitz(L=1.0), 1.0, 10.0 / 27.0, n_chains=20000)


@pytest.mark.parametrize(
    "potential, code",
    [
        (AbsLipschitz(L=0.0), "lipschitz"),
        (QuadraticSmooth(beta=0.0), "smoothness"),
        (DissipativeQuadratic(kappa=1.0, beta=2.0, lam=0.5), "potential"),
    ],
)
def test_validate_mixing_bound_needs_a_weakly_smooth_class(potential, code):
    # the zero potentials have no (p, M) member; refused with the parameter's own code
    with pytest.raises(PreconditionError) as exc:
        validate_mixing_bound(potential, 1.0, 0.01, n_chains=20000)
    assert exc.value.code == code


def test_bound_dominance_grid():
    for potential in (AbsLipschitz(L=1.0), QuadraticSmooth(beta=2.0)):
        for eta in (1.0 / 27.0, 1.0 / 54.0):
            eta_ok = eta if isinstance(potential, AbsLipschitz) else 0.5
            report = validate_mixing_bound(potential, 1.0, eta_ok, n_chains=15000, seed=8)
            assert report["estimate"] <= 0.5 + report["half_width"]


def test_contraction_in_total_variation():
    # distributions at T and 2T get closer as the chain forgets its start
    def run_at(T, seed):
        config = _config(sigma=math.sqrt(2.0 / 27.0), eta=1.0 / 27.0, T=T,
                         n_chains=30000, seed=seed)
        return run_chains(AbsLipschitz(L=1.0), config, 0.5)

    tv_early = empirical_tv(run_at(3, 1), run_at(6, 2), bins=25)
    tv_late = empirical_tv(run_at(6, 3), run_at(12, 4), bins=25)
    assert tv_late.tv <= tv_early.tv + 0.02


def test_subgradient_determinism_and_sign_zero():
    xs = np.linspace(-2.0, 2.0, 41).reshape(-1, 1)
    pot = AbsLipschitz(L=1.5)
    h1 = hashlib.sha256(pot.gradient(xs).tobytes()).hexdigest()
    h2 = hashlib.sha256(pot.gradient(xs.copy()).tobytes()).hexdigest()
    assert h1 == h2
    assert pot.gradient(np.array([[0.0]]))[0, 0] == 0.0


def test_power_potential_gradient():
    pot = PowerWeaklySmooth(p=0.5, M=2.0)
    x = np.array([[4.0], [-4.0], [0.0]])
    g = pot.gradient(x)
    assert g[0, 0] == pytest.approx(4.0)
    assert g[1, 0] == pytest.approx(-4.0)
    assert g[2, 0] == 0.0


def test_dissipative_potential_is_verified():
    pot = DissipativeQuadratic(kappa=1.0, beta=2.0, lam=0.5, dim=1)
    assert pot.verified_kappa == 1.0
    assert pot.verified_lam == 0.5
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.uniform(-10.0, 10.0, size=(1, 1))
        y = rng.uniform(-10.0, 10.0, size=(1, 1))
        lhs = float(((pot.gradient(x) - pot.gradient(y)) * (x - y)).sum())
        gap = float(((x - y) ** 2).sum())
        assert lhs >= pot.verified_kappa * gap - pot.verified_lam - 1e-9
        assert abs(float(pot.gradient(x).sum() - pot.gradient(y).sum())) <= 2.0 * abs(
            float((x - y).sum())
        ) * (1.0 + 1e-12)


def test_dissipative_potential_requires_beta_above_linear_rate():
    with pytest.raises(PreconditionError) as exc:
        DissipativeQuadratic(kappa=1.0, beta=1.0, lam=0.5, dim=1)
    assert exc.value.required_value == pytest.approx(1.25)


@pytest.mark.parametrize("kappa, lam", [(10.0, 1e308), (1e-200, 1e-200)])
def test_dissipative_potential_refuses_amplitude_outside_float_range(kappa, lam):
    # lam*kappa overflows (amplitude inf, gradient nan) or underflows (frequency inf)
    with pytest.raises(PreconditionError) as exc:
        DissipativeQuadratic(kappa=kappa, beta=100.0, lam=lam)
    assert exc.value.code == "out_of_range"


def test_chain_config_validation():
    with pytest.raises(PreconditionError):
        _config(dim=3)
    with pytest.raises(PreconditionError):
        _config(T=200000)
    with pytest.raises(PreconditionError):
        _config(n_chains=2 * 10**6)
    with pytest.raises(PreconditionError):
        _config(kind="simplex")
    with pytest.raises(PreconditionError):
        _config(sigma=-0.1)


def test_rng_stream_independence():
    a = rng_stream(0, 0, 0).standard_normal(4)
    b = rng_stream(0, 1, 0).standard_normal(4)
    c = rng_stream(0, 0, 1).standard_normal(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    assert np.array_equal(a, rng_stream(0, 0, 0).standard_normal(4))


def test_samples_to_csv_schema():
    out1 = samples_to_csv(np.array([[0.5], [-0.25]]))
    lines = out1.strip().split("\n")
    assert lines[0] == "chain,dim0"
    assert lines[1] == "0,0.5"
    out2 = samples_to_csv(np.array([[0.5, 1.0]]))
    assert out2.splitlines()[0] == "chain,dim0,dim1"
