"""Monte-Carlo harness for the projected noisy iterations.

Runs the projected Langevin update X <- proj(X - eta*grad f(X) + noise)
and its minibatch SGD variant on small built-in test potentials, then
estimates total variation between final-iterate samples by histogram.
Purpose: empirical sanity checks that the theoretical bounds dominate
observed behavior at desk scale (dim <= 2, n_chains <= 1e6, T <= 1e5).

Reproducibility contract: every chain owns two private RNG streams
derived as SeedSequence((seed, chain_index, stream)) with stream 0 for
Gaussian noise and stream 1 for Poisson inclusion masks, drawn through
numpy's PCG64 generator (ziggurat normals).  Fixed seed means
bit-identical output within one numpy build; cross-platform bit
equality is not promised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._util import check, require
from .mixing import mixing_time_weakly_smooth, theta_threshold
from .moduli import ConvexLipschitz, ConvexWeaklySmooth, SmoothConvex

_CHUNK_BYTES = 32 * 2**20
_MAX_DIM = 2
_MAX_CHAINS = 10**6
_MAX_STEPS = 10**5
# expected count per bin floor for the histogram TV rule
_COUNT_PER_BIN = 20


@dataclass(frozen=True)
class AbsLipschitz:
    """f(x) = L*|x| summed over coordinates; subgradient L*sign(x), sign(0)=0."""

    L: float = 1.0

    def __post_init__(self):
        require(0 <= self.L < math.inf, "lipschitz", "L must be nonnegative and finite")

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.L * np.sign(x)


@dataclass(frozen=True)
class PowerWeaklySmooth:
    """f(x) = (M/(1+p))*|x|^{1+p} componentwise; gradient M*|x|^p*sign(x)."""

    p: float
    M: float

    def __post_init__(self):
        check(p=self.p, M=self.M)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        # sign(0) = 0 kills the |0|^0 = 1 convention at the kink
        return self.M * np.abs(x) ** self.p * np.sign(x)


@dataclass(frozen=True)
class QuadraticSmooth:
    """f(x) = (beta/2)*|x|^2; gradient beta*x.  beta = 0 is the zero potential."""

    beta: float

    def __post_init__(self):
        require(0 <= self.beta < math.inf, "smoothness", "beta must be nonnegative and finite")

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.beta * x


@dataclass(frozen=True)
class DissipativeQuadratic:
    """Quadratic drift plus a bounded sinusoidal perturbation.

    gradient(x) = a*x + A*sin(omega*x) componentwise with

        a = kappa*(1 + dim/4),  A = sqrt(lam*kappa)/2,  omega = (beta - a)/A.

    Verified dissipativity (coordinatewise sines, Cauchy-Schwarz over
    coordinates, then Young's inequality with weight a - kappa):

        <g(x)-g(y), x-y> >= a|x-y|^2 - 2A*sqrt(dim)*|x-y|
                         >= kappa|x-y|^2 - A^2*dim/(a-kappa)
                         =  kappa|x-y|^2 - lam,

    since A^2*dim/(a-kappa) = (lam*kappa/4)*dim/(kappa*dim/4) = lam
    exactly.  Each coordinate derivative lies in [2a-beta, beta], and
    0 < a < beta makes the gradient beta-Lipschitz.  So the field is
    (lam, kappa)-strongly dissipative and beta-smooth on all of R^dim;
    the verified pair is exposed as verified_lam, verified_kappa.
    """

    kappa: float
    beta: float
    lam: float
    dim: int = 1

    def __post_init__(self):
        check(kappa=self.kappa, lam=self.lam, beta=self.beta)
        # lam = 0 would give a zero amplitude, and the frequency divides by it
        require(self.lam > 0, "dissipativity_offset", "lam must be strictly positive")
        require(1 <= self.dim <= _MAX_DIM and int(self.dim) == self.dim, "dim", "dim must be 1 or 2")
        object.__setattr__(self, "dim", int(self.dim))
        a = self.kappa * (1.0 + self.dim / 4.0)
        require(
            self.beta > a,
            "smoothness",
            f"beta must exceed kappa*(1 + dim/4) = {a:.6g}",
            required_value=a,
        )
        # lam*kappa outside the float range gives an inf or zero amplitude and nan gradients
        finite = 0 < self.amplitude < math.inf and self.frequency < math.inf
        require(finite, "out_of_range", "amplitude and frequency must be finite and nonzero")

    @property
    def linear_rate(self) -> float:
        return self.kappa * (1.0 + self.dim / 4.0)

    @property
    def amplitude(self) -> float:
        return math.sqrt(self.lam * self.kappa) / 2.0

    @property
    def frequency(self) -> float:
        return (self.beta - self.linear_rate) / self.amplitude

    @property
    def verified_lam(self) -> float:
        return self.lam

    @property
    def verified_kappa(self) -> float:
        return self.kappa

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.linear_rate * x + self.amplitude * np.sin(self.frequency * x)


@dataclass(frozen=True)
class ChainConfig:
    """One Monte-Carlo run: domain, dynamics constants, chain count, seed.

    The domain is centered with Euclidean diameter `diameter`: a box
    [-r, r]^dim with r = diameter/(2*sqrt(dim)), or the ball of radius
    diameter/2.  sigma is the per-step noise standard deviation (the
    caller supplies sqrt(2*eta) for Langevin runs, eta*multiplier for
    SGD runs); sigma = 0 runs the noiseless recursion.
    """

    dim: int
    diameter: float
    eta: float
    sigma: float
    T: int
    n_chains: int
    seed: int
    kind: str = "box"

    def __post_init__(self):
        require(1 <= self.dim <= _MAX_DIM and int(self.dim) == self.dim, "dim", "dim must be 1 or 2")
        object.__setattr__(self, "dim", int(self.dim))
        check(D=self.diameter, eta=self.eta)
        require(0 <= self.sigma < math.inf, "noise_std", "sigma must be nonnegative and finite")
        require(
            1 <= self.T <= _MAX_STEPS and int(self.T) == self.T,
            "horizon",
            f"T must be an integer in [1, {_MAX_STEPS}]",
        )
        object.__setattr__(self, "T", int(self.T))
        require(
            1 <= self.n_chains <= _MAX_CHAINS and int(self.n_chains) == self.n_chains,
            "n_chains",
            f"n_chains must be an integer in [1, {_MAX_CHAINS}]",
        )
        object.__setattr__(self, "n_chains", int(self.n_chains))
        seed_ok = 0 <= self.seed < math.inf and int(self.seed) == self.seed
        require(seed_ok, "seed", "seed must be a nonnegative integer")
        object.__setattr__(self, "seed", int(self.seed))
        require(self.kind in ("box", "ball"), "domain_kind", f"unknown domain kind {self.kind!r}")

    @property
    def box_halfwidth(self) -> float:
        return self.diameter / (2.0 * math.sqrt(self.dim))


def rng_stream(seed: int, chain_index: int, stream: int) -> np.random.Generator:
    """The chain's private generator; stream 0 = noise, 1 = Poisson masks."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, chain_index, stream))))


def _project(x: np.ndarray, config: ChainConfig) -> np.ndarray:
    if config.kind == "box":
        r = config.box_halfwidth
        return np.clip(x, -r, r)
    radius = config.diameter / 2.0
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    return x * scale


def _inside(x: np.ndarray, config: ChainConfig) -> bool:
    slack = 1e-12 * max(1.0, config.diameter)
    if config.kind == "box":
        return bool(np.all(np.abs(x) <= config.box_halfwidth + slack))
    return bool(np.all(np.linalg.norm(x, axis=1) <= config.diameter / 2.0 + slack))


def _broadcast_init(init, config: ChainConfig) -> np.ndarray:
    x = np.asarray(init, dtype=float)
    if x.ndim == 0:
        require(config.dim == 1, "init", "scalar init needs dim = 1")
        x = x.reshape(1, 1)
    if x.ndim == 1:
        require(x.shape[0] == config.dim, "init", f"init point must have {config.dim} coordinates")
        x = x.reshape(1, config.dim)
    require(x.ndim == 2 and x.shape[1] == config.dim, "init", "init must be a point or an (n_chains, dim) array")
    if x.shape[0] == 1:
        x = np.broadcast_to(x, (config.n_chains, config.dim))
    require(x.shape[0] == config.n_chains, "init", "per-chain init must have n_chains rows")
    require(_inside(x, config), "init", "init lies outside the domain")
    return np.array(x, dtype=float)


def _chunk_chains(config: ChainConfig, extra_bytes_per_chain: int = 0) -> int:
    per_chain = config.T * config.dim * 8 + extra_bytes_per_chain
    return max(1, min(config.n_chains, _CHUNK_BYTES // max(per_chain, 1)))


def run_chains(potential, config: ChainConfig, init) -> np.ndarray:
    """Final iterates X_T of n_chains independent projected runs.

    init is a single point (broadcast to every chain) or an
    (n_chains, dim) array of per-chain starting points; it must lie in
    the domain.  Output is (n_chains, dim) and is seed-exact regardless
    of chunking or execution order.
    """
    x0 = _broadcast_init(init, config)
    out = np.empty((config.n_chains, config.dim))
    chunk = _chunk_chains(config)
    for start in range(0, config.n_chains, chunk):
        stop = min(start + chunk, config.n_chains)
        x = x0[start:stop].copy()
        eps = None
        if config.sigma > 0:
            eps = np.empty((stop - start, config.T, config.dim))
            for j, chain in enumerate(range(start, stop)):
                eps[j] = rng_stream(config.seed, chain, 0).standard_normal((config.T, config.dim))
        for t in range(config.T):
            x = x - config.eta * potential.gradient(x)
            if eps is not None:
                x = x + config.sigma * eps[:, t, :]
            x = _project(x, config)
        out[start:stop] = x
    return out


def run_noisy_sgd(dataset, grad_loss, config: ChainConfig, b: float, init) -> np.ndarray:
    """Final iterates of projected noisy SGD with Poisson sampling.

    dataset is a sequence of n points; each step includes point i
    independently with probability b/n and applies the update
    x <- proj(x - (eta/b) * sum_{i in batch} grad_loss(x, z_i) + sigma*xi).
    Empty batches contribute a zero gradient.  grad_loss(x_block, z)
    must map an (m, dim) block to its (m, dim) per-chain gradients.
    Noise comes from stream 0 exactly as in run_chains, masks from
    stream 1, so a b = n run (inclusion probability 1) reproduces the
    full-gradient run_chains trajectory on the same seed.
    """
    points = list(dataset)
    n_data = len(points)
    require(n_data >= 1, "dataset", "dataset must be non-empty")
    require(0 < b <= n_data, "batch_size", "b must lie in (0, n]")
    q = b / n_data
    x0 = _broadcast_init(init, config)
    out = np.empty((config.n_chains, config.dim))
    chunk = _chunk_chains(config, extra_bytes_per_chain=config.T * n_data)
    for start in range(0, config.n_chains, chunk):
        stop = min(start + chunk, config.n_chains)
        m = stop - start
        x = x0[start:stop].copy()
        eps = None
        if config.sigma > 0:
            eps = np.empty((m, config.T, config.dim))
        masks = np.empty((m, config.T, n_data), dtype=bool)
        for j, chain in enumerate(range(start, stop)):
            if eps is not None:
                eps[j] = rng_stream(config.seed, chain, 0).standard_normal((config.T, config.dim))
            masks[j] = rng_stream(config.seed, chain, 1).random((config.T, n_data)) < q
        for t in range(config.T):
            grad = np.zeros_like(x)
            for i, z in enumerate(points):
                included = masks[:, t, i]
                if included.any():
                    grad[included] += grad_loss(x[included], z)
            x = x - (config.eta / b) * grad
            if eps is not None:
                x = x + config.sigma * eps[:, t, :]
            x = _project(x, config)
        out[start:stop] = x
    return out


@dataclass(frozen=True)
class TVEstimate:
    tv: float
    half_width: float
    bins: int


def empirical_tv(samples_a: np.ndarray, samples_b: np.ndarray, bins: int) -> TVEstimate:
    """Histogram total-variation estimate with a 95% confidence half-width.

    Both sample sets are binned on a common grid spanning their joint
    range, bins cells per axis.  The half-width is a DKW-style term
    sqrt(ln(2/0.025)/(2n)) per set, summed; it covers sampling error,
    not discretization (which only lowers a TV estimate).  Requires
    min(n_a, n_b) >= 20 * bins^dim so bins stay populated.
    """
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    require(a.ndim == 2 and b.ndim == 2 and a.shape[1] == b.shape[1], "samples", "sample sets must share one dim")
    dim = a.shape[1]
    require(2 <= bins < math.inf and int(bins) == bins, "bins", "bins must be an integer >= 2")
    bins = int(bins)
    needed = _COUNT_PER_BIN * bins**dim
    require(
        min(a.shape[0], b.shape[0]) >= needed,
        "bins",
        f"need at least {needed} samples per set for {bins} bins in dim {dim}",
        required_value=needed,
    )
    ranges = []
    for j in range(dim):
        lo = min(a[:, j].min(), b[:, j].min())
        hi = max(a[:, j].max(), b[:, j].max())
        if hi <= lo:
            hi = lo + 1e-9 * max(1.0, abs(lo))
        ranges.append((lo, hi))
    hist_a, _ = np.histogramdd(a, bins=bins, range=ranges)
    hist_b, _ = np.histogramdd(b, bins=bins, range=ranges)
    tv = 0.5 * float(np.abs(hist_a / a.shape[0] - hist_b / b.shape[0]).sum())
    width = math.sqrt(math.log(2.0 / 0.025) / (2.0 * a.shape[0])) + math.sqrt(
        math.log(2.0 / 0.025) / (2.0 * b.shape[0])
    )
    return TVEstimate(tv=tv, half_width=width, bins=bins)


# each weakly smooth potential as a member of the (p, M) family
_WEAKLY_SMOOTH = {
    AbsLipschitz: lambda f: ConvexLipschitz(f.L),
    PowerWeaklySmooth: lambda f: ConvexWeaklySmooth(f.p, f.M),
    QuadraticSmooth: lambda f: SmoothConvex(f.beta),
}


def validate_mixing_bound(
    potential,
    diameter: float,
    eta: float,
    n_chains: int = 100_000,
    seed: int = 0,
    dim: int = 1,
    bins: int | None = None,
) -> dict:
    """Checks the constant-error horizon empirically.

    Takes T = ceil(diameter^2/eta) and its two stepsize gates from
    mixing_time_weakly_smooth, runs T Langevin steps (noise std sqrt(2*eta))
    from the two opposite corners of the box (second run reseeded at
    seed + 1 so the sets are independent), and compares the empirical
    TV against the predicted 0.5 plus the estimation half-width.
    Returns a JSON-ready report.
    """
    to_class = _WEAKLY_SMOOTH.get(type(potential))
    require(to_class, "potential", f"{type(potential).__name__} is outside the weakly smooth family")
    family = to_class(potential)  # the zero potentials are refused here
    p, M = family.p, family.M
    t_star = mixing_time_weakly_smooth(diameter, eta, p, M, 0.5).constituents["T_star"]
    require(n_chains >= 10**4, "n_chains", "TV estimation needs at least 1e4 chains")
    config = ChainConfig(
        dim=dim,
        diameter=diameter,
        eta=eta,
        sigma=math.sqrt(2.0 * eta),
        T=t_star,
        n_chains=n_chains,
        seed=seed,
    )
    corner = np.full(dim, config.box_halfwidth)
    samples_a = run_chains(potential, config, -corner)
    samples_b = run_chains(potential, replace(config, seed=seed + 1), corner)
    if bins is None:
        bins = min(50 if dim == 1 else 20, int((n_chains / _COUNT_PER_BIN) ** (1.0 / dim)))
    estimate = empirical_tv(samples_a, samples_b, bins)
    passed = estimate.tv <= 0.5 + estimate.half_width
    return {
        "config": {
            "potential": type(potential).__name__,
            "p": p,
            "M": M,
            "diameter": diameter,
            "eta": eta,
            "t_star": t_star,
            "n_chains": n_chains,
            "dim": dim,
            "bins": int(bins),
            "seed": seed,
            "theta": theta_threshold(p, M, diameter),
        },
        "bound": 0.5,
        "estimate": estimate.tv,
        "half_width": estimate.half_width,
        "pass": bool(passed),
        "margin": 0.5 + estimate.half_width - estimate.tv,
    }


def samples_to_csv(samples: np.ndarray) -> str:
    """CSV dump of a sample matrix, header chain,dim0[,dim1]."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    require(x.ndim == 2 and 1 <= x.shape[1] <= _MAX_DIM, "samples", "samples must be (n, dim<=2)")
    header = "chain," + ",".join(f"dim{j}" for j in range(x.shape[1]))
    lines = [header]
    for i in range(x.shape[0]):
        lines.append(str(i) + "," + ",".join(f"{v:.17g}" for v in x[i]))
    return "\n".join(lines) + "\n"
