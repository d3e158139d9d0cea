import ctypes
import hashlib
import json
import math
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


def test_sgd_output_independent_of_chunking(monkeypatch):
    # a 4096-byte budget holds 7 steps of the 40 chains' noise and masks: three segments
    config = _config(n_chains=40, T=20, seed=3)
    dataset = [0.3, -0.1, 0.2, 0.0, -0.4]
    full = run_noisy_sgd(dataset, lambda x, z: x - z, config, b=2.0, init=0.1)
    monkeypatch.setattr(sim, "_CHUNK_BYTES", 4096)
    chunked = run_noisy_sgd(dataset, lambda x, z: x - z, config, b=2.0, init=0.1)
    assert np.array_equal(full, chunked)


def test_init_outside_domain_rejected():
    with pytest.raises(PreconditionError):
        run_chains(AbsLipschitz(L=1.0), _config(), 0.9)
    with pytest.raises(PreconditionError):
        run_chains(AbsLipschitz(L=1.0), _config(kind="ball"), np.array([0.6]))


@pytest.mark.parametrize("kind", ["box", "ball"])
def test_init_within_the_slack_of_the_domain_is_accepted(kind):
    # the domain is where _project moves no coordinate by more than 1e-12 * max(1, D)
    config = _config(dim=2, kind=kind, sigma=0.0, T=1, n_chains=2)
    edge = config.box_halfwidth if kind == "box" else config.diameter / 2.0
    inside = np.array([[edge + 0.5e-12, 0.0], [0.0, -edge - 0.5e-12]])
    run_chains(QuadraticSmooth(beta=0.0), config, inside)
    with pytest.raises(PreconditionError) as exc:
        run_chains(QuadraticSmooth(beta=0.0), config, np.array([0.0, -edge - 2e-12]))
    assert exc.value.code == "init"


@pytest.mark.parametrize("kind", ["box", "ball"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
def test_non_finite_or_huge_init_is_refused_without_a_warning(kind, bad):
    config = _config(dim=2, kind=kind, n_chains=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError) as exc:
            run_chains(AbsLipschitz(L=1.0), config, np.array([0.1, bad]))
    assert exc.value.code == "init"


def test_per_chain_init_shapes():
    config = _config(n_chains=8, sigma=0.0, T=1)
    inits = np.linspace(-0.4, 0.4, 8).reshape(8, 1)
    out = run_chains(QuadraticSmooth(beta=0.0), config, inits)
    assert np.array_equal(out, inits)
    with pytest.raises(PreconditionError):
        run_chains(QuadraticSmooth(beta=0.0), config, np.zeros((5, 1)))


def test_init_broadcasts_by_numpy_rules():
    # a scalar is every coordinate of every chain, and an (n_chains, 1) column one value per chain,
    # across its coordinates: each runs the seeded stream of the full (n_chains, dim) array
    config = _config(dim=2, n_chains=6, T=4, seed=11)
    potential = AbsLipschitz(L=1.0)
    assert np.array_equal(run_chains(potential, config, 0.1), run_chains(potential, config, np.full((6, 2), 0.1)))
    assert np.array_equal(run_chains(potential, config, 0.0), run_chains(potential, config, [0.0, 0.0]))
    column = np.linspace(-0.3, 0.3, 6).reshape(6, 1)
    assert np.array_equal(run_chains(potential, config, column), run_chains(potential, config, np.hstack([column] * 2)))


@pytest.mark.parametrize("shape", [(3,), (6, 3), (5, 2), (5, 1), (2, 6, 2), (0,)])
def test_init_of_a_shape_that_does_not_broadcast_is_refused(shape):
    with pytest.raises(PreconditionError) as exc:
        run_chains(AbsLipschitz(L=1.0), _config(dim=2, n_chains=6), np.zeros(shape))
    assert exc.value.code == "init"
    assert "does not broadcast to (6, 2)" in str(exc.value)


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


@pytest.mark.parametrize("dim", [1, 2])
def test_ball_projection_of_an_iterate_past_the_float_range_lands_on_the_sphere(dim):
    # sigma = 1e308: the noise overflows some coordinates to inf and squares
    # of the others, which used to scale those rows to 0 or nan
    config = _config(dim=dim, kind="ball", sigma=1e308, T=3, n_chains=64, seed=7, eta=0.037)
    x = np.array([[math.inf, -1e300], [-3e200, 4e200], [1e308, 1e308], [0.3, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflowing step and squares warn
        out = run_chains(PowerWeaklySmooth(p=0.5, M=2.0), config, np.zeros(dim))
        projected = sim._project(x, _config(dim=2, kind="ball", n_chains=4))
    assert np.all(np.isfinite(out))
    assert np.allclose(np.linalg.norm(out, axis=1), 0.5, rtol=1e-15, atol=0.0)
    # an infinite coordinate sets the direction; finite ones are scaled as one vector
    out = projected
    assert np.array_equal(out[0], [0.5, -0.0])
    assert np.allclose(out[1:3], [[-0.3, 0.4], [0.5 / math.sqrt(2.0), 0.5 / math.sqrt(2.0)]], rtol=1e-15, atol=0.0)
    assert np.array_equal(out[3], x[3])


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


_SPY_DATASET = [0.5, -0.2, 0.1, 0.8, -0.6]


def _grad_loss_calls(config, monkeypatch) -> list:
    """(step, point index, chain indices) of every grad_loss call in a sigma > 0 SGD run, in call order."""
    calls, current = [], {"step": -1}
    simulate = sim._simulate

    def traced_simulate(config, init, drift, *rest):
        def traced(x, included):
            current["step"] += 1
            current["x"] = x
            return drift(x, included)

        return simulate(config, init, traced, *rest)

    def grad_loss(x, z):
        # the chains start apart and the box never binds, so a row's value names its chain
        rows = []
        for value in x[:, 0]:
            (chain,) = np.flatnonzero(current["x"][:, 0] == value)
            rows.append(int(chain))
        calls.append((current["step"], _SPY_DATASET.index(z), rows))
        return x - z

    monkeypatch.setattr(sim, "_simulate", traced_simulate)
    init = np.linspace(-0.4, 0.4, config.n_chains).reshape(-1, 1)
    run_noisy_sgd(_SPY_DATASET, grad_loss, config, b=2.0, init=init)
    return calls


# sha256 of the call sequence as JSON, recorded when the drift still looped over boolean columns
@pytest.mark.parametrize(
    "n_chains, digest",
    [
        (300, "aac868829d173e3b7f635024e64395a182c98af9776c9732c8ed3434a6380ff5"),
        (4, "2b9a01ab2b0b3e8365816692177269561a87ed7c6e1875257d276856cc7ab5e3"),
    ],
    ids=["chains300", "chains4"],
)
def test_sgd_grad_loss_calls(n_chains, digest, monkeypatch):
    # one call per (step, point) that some chain includes, on exactly those chains in ascending order
    config = _config(diameter=1e3, eta=0.05, sigma=0.05, T=20, n_chains=n_chains, seed=23)
    calls = _grad_loss_calls(config, monkeypatch)
    assert hashlib.sha256(json.dumps(calls).encode()).hexdigest() == digest
    T, n_data = config.T, len(_SPY_DATASET)
    masks = [rng_stream(config.seed, c, 1).random((T, n_data)) < 2.0 / n_data for c in range(n_chains)]
    included = [(t, i, [c for c in range(n_chains) if masks[c][t, i]]) for t in range(T) for i in range(n_data)]
    assert calls == [call for call in included if call[2]]
    if n_chains == 4:
        assert len(calls) < len(included)  # some (step, point) pairs include no chain and get no call


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


def test_potential_of_another_dim_is_refused():
    # a dim-1 field on dim-2 chains is (2 lam, kappa)-dissipative, not the (lam, kappa) it proves
    potential = DissipativeQuadratic(kappa=1, beta=3, lam=0.1, dim=1)
    config = ChainConfig(dim=2, diameter=1, eta=0.1, sigma=0.1, T=5, n_chains=3, seed=0)
    with pytest.raises(PreconditionError) as exc:
        run_chains(potential, config, np.zeros(2))
    assert exc.value.code == "dim"
    assert run_chains(replace(potential, dim=2), config, np.zeros(2)).shape == (3, 2)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", [0, 1])
def test_empirical_tv_refuses_non_finite_samples(bad, which):
    # a nan would drop out of the histogram, an inf would break its range
    sets = [np.linspace(0.0, 1.0, 200).reshape(-1, 1), np.linspace(0.5, 1.5, 200).reshape(-1, 1)]
    sets[which][17, 0] = bad
    with pytest.raises(PreconditionError) as exc:
        empirical_tv(sets[0], sets[1], bins=5)
    assert exc.value.code == "samples"


def test_empirical_tv_of_a_column_with_one_value():
    # a column whose values are all equal gets a widened range, so its samples fill one bin
    a = np.full((100, 1), 0.25)
    est = empirical_tv(a, a.copy(), bins=5)
    assert (est.tv, est.bins) == (0.0, 5)
    assert empirical_tv(a, np.full((100, 1), 0.75), bins=5).tv == 1.0


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
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.uniform(-10.0, 10.0, size=(1, 1))
        y = rng.uniform(-10.0, 10.0, size=(1, 1))
        lhs = float(((pot.gradient(x) - pot.gradient(y)) * (x - y)).sum())
        gap = float(((x - y) ** 2).sum())
        assert lhs >= pot.kappa * gap - pot.lam - 1e-9
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


_ODD_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 0.5, 2.5, 1e300]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 5).map(float),
)


def _stored_or_refused(build, value, code):
    try:
        stored = build(value)
    except PreconditionError as err:
        assert err.code == code
        return
    assert type(stored) is int and stored == value


@settings(max_examples=60, deadline=None)
@given(value=_ODD_FLOATS, field=st.sampled_from(["dim", "T", "n_chains", "seed"]))
def test_chain_config_integer_fields_are_ints_or_refused(value, field):
    code = {"T": "horizon"}.get(field, field)
    _stored_or_refused(lambda v: getattr(_config(**{"n_chains": 2, "T": 2, field: v}), field), value, code)


@settings(max_examples=40, deadline=None)
@given(value=_ODD_FLOATS)
def test_dissipative_dim_is_an_int_or_refused(value):
    _stored_or_refused(lambda v: DissipativeQuadratic(kappa=1.0, beta=10.0, lam=1.0, dim=v).dim, value, "dim")


@settings(max_examples=40, deadline=None)
@given(value=_ODD_FLOATS)
def test_empirical_tv_bins_are_an_int_or_refused(value):
    # 60 samples per set: 2 or 3 bins fit, larger counts are refused
    a = np.linspace(0.0, 1.0, 60)
    _stored_or_refused(lambda v: empirical_tv(a, a[::-1], v).bins, value, "bins")


def test_rng_stream_independence():
    a = rng_stream(0, 0, 0).standard_normal(4)
    b = rng_stream(0, 1, 0).standard_normal(4)
    c = rng_stream(0, 0, 1).standard_normal(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    assert np.array_equal(a, rng_stream(0, 0, 0).standard_normal(4))


# a 192-bit seed spans six entropy words, past SeedSequence's four-word pool
_STREAM_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 0x9E3779B97F4A7C15F39CC0605CEDC8341082276BF3A27251)
# draw(generator, out) fills one chain's rows of a block in place, as _simulate's draws do
_DRAWS = {
    0: (lambda g, out: g.standard_normal(out=out), float),
    1: (lambda g, out: np.less(g.random(out.shape), 0.3, out=out), bool),
}


def _oracle_stream(seed, chain, stream):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, chain, stream))))


def _oracle_draw(seed, chain, stream, shape):
    draw, dtype = _DRAWS[stream]
    out = np.empty(shape, dtype)
    draw(_oracle_stream(seed, chain, stream), out)
    return out


def _assert_block_matches_oracle(seed, chains, stream, shape=(4, 2)):
    # drawn in one segment and in segments of one step fewer, each against one oracle draw
    draw, dtype = _DRAWS[stream]
    steps, width = shape
    for segment in (steps, steps - 1):
        parts = sim._stream_segments(_config(seed=seed, T=steps), chains, stream, width, segment, draw, dtype)
        block = np.concatenate([part.copy() for part in parts], axis=1)
        assert block.shape == (len(chains), *shape) and block.dtype == dtype
        for j, chain in enumerate(chains):
            assert np.array_equal(block[j], _oracle_draw(seed, chain, stream, shape)), (seed, chain, segment)


@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_stream_block_equals_seed_sequence_streams(seed, stream):
    _assert_block_matches_oracle(seed, range(0, 3), stream)
    _assert_block_matches_oracle(seed, range(999_997, 1_000_000), stream)
    assert np.array_equal(rng_stream(seed, 999_999, stream).random(3), _oracle_stream(seed, 999_999, stream).random(3))


@pytest.mark.parametrize("stream", [0, 1])
def test_stream_block_longer_than_chunk_cap(stream):
    # _stream_segments takes any range in one pass; only _simulate caps a chunk
    _assert_block_matches_oracle(2**64 + 3, range(sim._CHUNK_CHAINS - 5, 2 * sim._CHUNK_CHAINS + 7), stream, (2, 1))


_U64 = 2**64 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # pcg's 128-bit LCG multiplier


def _srandom(seed, seq):
    """pcg's srandom step on 128-bit ints: PCG64's (state, inc) for a seed and a sequence."""
    inc = (seq << 1 | 1) & (2**128 - 1)
    return ((seed + inc) * _PCG64_MULT + inc) & (2**128 - 1), inc


def _carry_words():
    # inc_lo = 2**64 - 1 makes seed_lo + inc_lo wrap, and the product's low word 2**64 - 1 the final add
    seq_lo = _U64
    inc_lo = (seq_lo << 1 | 1) & _U64
    sum_lo = _U64 * pow(_PCG64_MULT & _U64, -1, 2**64) % 2**64
    seed_lo = (sum_lo - inc_lo) % 2**64
    assert seed_lo + inc_lo > _U64 and sum_lo * (_PCG64_MULT & _U64) % 2**64 + inc_lo > _U64
    return (5, seed_lo, 3, seq_lo)


_WORDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, _U64]), st.integers(0, _U64))


def _joined(row):
    """A _pcg_states row as PCG64's (state, inc) 128-bit ints."""
    s_lo, s_hi, i_lo, i_hi = map(int, row)
    return s_hi << 64 | s_lo, i_hi << 64 | i_lo


@settings(max_examples=100, deadline=None)
@given(chains=st.lists(st.tuples(_WORDS, _WORDS, _WORDS, _WORDS), min_size=1, max_size=6))
@example(chains=[_carry_words(), (0, 0, 0, 0), (_U64, _U64, _U64, _U64)])
def test_pcg_states_limbs_match_int_formula(chains):
    # the uint64 limb arithmetic against the same step on Python ints, chain by chain
    columns = [np.array(column, dtype=np.uint64) for column in zip(*chains)]
    states = sim._pcg_states(*columns)
    assert states.shape == (len(chains), 4) and states.dtype == np.uint64
    for (s_hi, s_lo, q_hi, q_lo), row in zip(chains, states, strict=True):
        assert _joined(row) == _srandom(s_hi << 64 | s_lo, q_hi << 64 | q_lo)


@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize(
    "seed", [2**64 + 3, 0x9E3779B97F4A7C15F39CC0605CEDC834, _STREAM_SEEDS[-1]], ids=["words3", "words4", "words6"]
)
def test_pcg_states_equal_numpy_seeding(seed, stream):
    # seeds of three, four and six 32-bit words, through the hash and the seeding step
    chains = range(999_990, 1_000_000)
    states = sim._pcg_states(*sim._seed_words(seed, chains, stream))
    assert states.shape == (len(chains), 4) and states.dtype == np.uint64
    for chain, row in zip(chains, states, strict=True):
        state = np.random.PCG64(np.random.SeedSequence((seed, chain, stream))).state
        assert _joined(row) == (state["state"]["state"], state["state"]["inc"]), chain
        assert (state["has_uint32"], state["uinteger"]) == (0, 0)


def test_state_words_round_trip():
    bit_generator = np.random.PCG64(0)
    words, order = sim._state_words(bit_generator)
    states = sim._pcg_states(*sim._seed_words(7, range(3, 5), 0))[:, order]
    # words written through the view read back through .state, and draw chain 3's stream
    words[:] = states[0]
    assert bit_generator.state == np.random.PCG64(np.random.SeedSequence((7, 3, 0))).state
    assert np.array_equal(np.random.Generator(bit_generator).standard_normal(5), rng_stream(7, 3, 0).standard_normal(5))
    # a state set through .state reads back through the view
    bit_generator.state = np.random.PCG64(np.random.SeedSequence((7, 4, 0))).state
    assert np.array_equal(words, states[1])


class _FakePCG64:
    """A PCG64 stand-in whose {state, inc} memory holds the given four words in that order."""

    def __init__(self, memory, state, inc):
        self.words = (ctypes.c_uint64 * 4)(*memory)
        self.pointer = ctypes.c_void_p(ctypes.addressof(self.words))  # pcg64_state's first field
        self.ctypes = types.SimpleNamespace(state_address=ctypes.addressof(self.pointer))
        self.state = {"state": {"state": state, "inc": inc}}  # the only part _state_words reads


def test_state_words_read_the_emulated_layout():
    # numpy's emulated 128-bit struct keeps the high word first
    state, inc = _srandom(2**64 + 5, 3)
    fake = _FakePCG64([state >> 64, state & _U64, inc >> 64, inc & _U64], state, inc)
    words, order = sim._state_words(fake)
    assert order == [1, 0, 3, 2]
    row = sim._pcg_states(*sim._seed_words(1, range(2, 3), 1))[0]
    words[:] = row[order]
    assert list(fake.words) == [int(row[1]), int(row[0]), int(row[3]), int(row[2])]


def test_state_words_refuse_another_layout(monkeypatch):
    # inc before state would write every chain's increment over its state
    state, inc = _srandom(9, 4)
    with pytest.raises(RuntimeError, match="layout"):
        sim._state_words(_FakePCG64([inc & _U64, inc >> 64, state & _U64, state >> 64], state, inc))
    # numpy's own bit generator, its words read back to front, fails the same probe in a run
    as_array = np.ctypeslib.as_array
    monkeypatch.setattr(np.ctypeslib, "as_array", lambda obj: as_array(obj)[::-1])
    with pytest.raises(RuntimeError, match="layout"):
        run_chains(QuadraticSmooth(beta=1.0), _config(n_chains=3, T=2), 0.0)


@pytest.mark.parametrize("name", ["box_1d", "sgd"])
def test_two_chunks_of_three_segments_follow_rng_stream(name, monkeypatch):
    # chunks of 13 and 12 chains, each drawing its 12 steps in segments of 4: the state
    # words handed from segment to segment continue each chain's own stream
    run, step = _CHUNKED_RUNS[name]
    full = run()
    monkeypatch.setattr(sim, "_CHUNK_CHAINS", 13)
    monkeypatch.setattr(sim, "_CHUNK_BYTES", 4 * 13 * step)
    blocks, stream_segments = {}, sim._stream_segments

    def spy(config, chains, stream, *rest):
        for block in stream_segments(config, chains, stream, *rest):
            blocks.setdefault((config.seed, chains, stream), []).append(block.copy())
            yield block

    monkeypatch.setattr(sim, "_stream_segments", spy)
    assert np.array_equal(run(), full)
    streams = [0, 1] if name == "sgd" else [0]
    shapes = sorted((chains.start, chains.stop, stream, len(parts)) for (_, chains, stream), parts in blocks.items())
    assert shapes == [(0, 13, s, 3) for s in streams] + [(13, 25, s, 3) for s in streams]
    for (seed, chains, stream), parts in blocks.items():
        drawn = np.concatenate(parts, axis=1)
        draw = _DRAWS[stream][0] if stream == 0 else lambda g, out: np.less(g.random(out.shape), 1 / 3, out=out)
        for j in (0, len(chains) - 1):
            expected = np.empty(drawn.shape[1:], drawn.dtype)
            draw(rng_stream(seed, chains[j], stream), expected)
            assert np.array_equal(drawn[j], expected), (seed, chains[j], stream)


# runs of 25 chains at T = 12 by default, each with one step of one chain's bytes of noise and masks
_CHUNKED_RUNS = {
    "box_1d": (
        lambda T=12: run_chains(PowerWeaklySmooth(p=0.5, M=1.0), _config(T=T, n_chains=25, seed=5), 0.1),
        8,
    ),
    "ball_2d": (
        lambda T=12: run_chains(
            DissipativeQuadratic(kappa=1.0, beta=4.0, lam=0.5, dim=2),
            _config(dim=2, kind="ball", diameter=2.0, eta=0.05, sigma=0.3, T=T, n_chains=25, seed=2**40 + 7),
            np.array([0.3, -0.4]),
        ),
        16,
    ),
    "sgd": (
        lambda T=12: run_noisy_sgd(
            [0.5, -0.2, 0.1], lambda x, z: x - z, _config(diameter=2.0, eta=0.05, T=T, n_chains=25, seed=11),
            b=1.0, init=0.0,
        ),
        8 + 3,
    ),
}


def _drawn_blocks(monkeypatch) -> dict:
    """Records, per stream, the (chains, steps) of every block _simulate draws."""
    drawn, stream_segments = {0: [], 1: []}, sim._stream_segments

    def spy(config, chains, stream, *rest):
        for block in stream_segments(config, chains, stream, *rest):
            drawn[stream].append(block.shape[:2])
            yield block

    monkeypatch.setattr(sim, "_stream_segments", spy)
    return drawn


def _assert_drawn(name, drawn, blocks):
    # only the sgd run draws masks, in the same chunks and segments as its noise
    assert drawn == {0: blocks, 1: blocks if name == "sgd" else []}


@pytest.mark.parametrize("name", sorted(_CHUNKED_RUNS))
def test_chunk_chain_cap_keeps_outputs(name, monkeypatch):
    run, _ = _CHUNKED_RUNS[name]
    full = run()
    monkeypatch.setattr(sim, "_CHUNK_CHAINS", 7)
    drawn = _drawn_blocks(monkeypatch)
    assert np.array_equal(run(), full)
    _assert_drawn(name, drawn, [(7, 12), (7, 12), (7, 12), (4, 12)])


@pytest.mark.parametrize("chains_per_chunk", [5, 0])
@pytest.mark.parametrize("name", sorted(_CHUNKED_RUNS))
def test_chunk_bytes_bind_below_chain_cap(name, chains_per_chunk, monkeypatch):
    # one step of 7 chains over the budget shrinks the chunk; a step of one chain over it
    # still runs one chain per chunk; either way a segment is then one step
    run, step = _CHUNKED_RUNS[name]
    full = run()
    monkeypatch.setattr(sim, "_CHUNK_CHAINS", 7)
    monkeypatch.setattr(sim, "_CHUNK_BYTES", chains_per_chunk * step + step - 1)
    drawn = _drawn_blocks(monkeypatch)
    assert np.array_equal(run(), full)
    _assert_drawn(name, drawn, [(5, 1)] * 12 * 5 if chains_per_chunk else [(1, 1)] * 12 * 25)


@pytest.mark.parametrize("name", sorted(_CHUNKED_RUNS))
def test_chunk_walks_time_in_segments(name, monkeypatch):
    # a budget of 5 steps of 7 chains: every chunk draws its streams in segments of 5, 5 and 2 steps
    run, step = _CHUNKED_RUNS[name]
    full = run()
    monkeypatch.setattr(sim, "_CHUNK_CHAINS", 7)
    monkeypatch.setattr(sim, "_CHUNK_BYTES", 5 * 7 * step)
    drawn = _drawn_blocks(monkeypatch)
    assert np.array_equal(run(), full)
    _assert_drawn(name, drawn, [(7, 5), (7, 5), (7, 2)] * 3 + [(4, 5), (4, 5), (4, 2)])


@pytest.mark.parametrize("name", sorted(_CHUNKED_RUNS))
def test_stream_memory_bounded_in_horizon(name, monkeypatch):
    # the noise and masks of one segment fit the budget at T and at 8T
    run, step = _CHUNKED_RUNS[name]
    budget = 1000
    monkeypatch.setattr(sim, "_CHUNK_BYTES", budget)
    drawn = _drawn_blocks(monkeypatch)
    peaks = []
    for T in (12, 96):
        drawn[0].clear()
        drawn[1].clear()
        run(T)
        _assert_drawn(name, drawn, drawn[0])
        assert sum(steps for _, steps in drawn[0]) == T  # 25 chains fit one chunk
        peaks.append(max(chains * steps * step for chains, steps in drawn[0]))
    assert peaks[0] == peaks[1] <= max(budget, step)


@pytest.mark.parametrize("chain_index", [2**32, 2**70 + 5])
def test_rng_stream_wide_chain_index(chain_index):
    # the one-chain form takes any index SeedSequence takes, even past one 32-bit word
    assert np.array_equal(rng_stream(7, chain_index, 1).random(5), _oracle_stream(7, chain_index, 1).random(5))


def test_run_chains_noise_equals_seed_sequence_streams(monkeypatch):
    # zero drift on a wide box: each chain is its start plus its summed stream-0 noise
    monkeypatch.setattr(sim, "_CHUNK_BYTES", 1000)  # 50 chains in segments of 2 steps
    config = _config(diameter=1e3, sigma=0.1, T=10, n_chains=50, seed=2**32 - 1)
    out = run_chains(QuadraticSmooth(beta=0.0), config, 0.25)
    for chain in range(config.n_chains):
        eps = _oracle_stream(config.seed, chain, 0).standard_normal((config.T, 1))
        x = np.array([0.25])
        for t in range(config.T):
            x = x + config.sigma * eps[t]
        assert np.array_equal(out[chain], x), chain


def test_rng_stream_refuses_negative_indices():
    with pytest.raises(ValueError):
        rng_stream(0, -1, 0)
    with pytest.raises(ValueError):
        rng_stream(-1, 0, 0)


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


def _sgd_output():
    config = _config(diameter=2.0, eta=0.05, sigma=0.05, T=30, n_chains=400, seed=11)
    return run_noisy_sgd([0.5, -0.2, 0.1, 0.8, -0.6], lambda x, z: x - z, config, b=2.0, init=0.0)


def _validate_report():
    report = validate_mixing_bound(PowerWeaklySmooth(0.5, 2), 1.0, 1 / 27, n_chains=10**4, seed=3)
    return json.dumps(report, sort_keys=True).encode()


def test_validate_mixing_bound_reports_the_ints_it_ran():
    # integral floats run as ints, and the report echoes the ints: 10000.0 reads 10000
    report = validate_mixing_bound(PowerWeaklySmooth(0.5, 2), 1.0, 1 / 27, n_chains=10000.0, seed=3.0, dim=1.0)
    assert json.dumps(report, sort_keys=True).encode() == _validate_report()


# sha256 of seeded outputs, recorded with numpy 2.4.6 when every chain
# still built its own SeedSequence -> PCG64 -> Generator
_SEEDED_DIGESTS = {
    "box_1d": (
        lambda: _digest(
            run_chains(
                PowerWeaklySmooth(p=0.5, M=1.0),
                _config(eta=0.01, sigma=math.sqrt(0.02), T=40, n_chains=5000, seed=7),
                0.25,
            )
        ),
        "e52040f17ccc707d58956ea9b7f4a1ddd609e675b83bcebeec896a831a68b992",
    ),
    "ball_2d": (
        lambda: _digest(
            run_chains(
                DissipativeQuadratic(kappa=1.0, beta=4.0, lam=0.5, dim=2),
                _config(dim=2, kind="ball", diameter=2.0, eta=0.05, sigma=math.sqrt(0.1), T=25, n_chains=3000,
                        seed=2**40 + 7),
                np.array([0.3, -0.4]),
            )
        ),
        "be25c1435ccf175843c854f9943a434cacf49ca6d2a9a69d4a475c87d9ca467c",
    ),
    "sgd": (lambda: _digest(_sgd_output()), "2ab6ba97d299188329f6637100d642d44af8720ad77efc2e469d41d2940c5dc3"),
    "validate": (
        lambda: hashlib.sha256(_validate_report()).hexdigest(),
        "b1fc0d65148a0af4f851e3d4b4d15d2c9f03785914073be693916890c1d52880",
    ),
}


@pytest.mark.parametrize("name", sorted(_SEEDED_DIGESTS))
def test_seeded_outputs_match_recorded_digests(name):
    compute, expected = _SEEDED_DIGESTS[name]
    assert compute() == expected
