"""Monte-Carlo harness for the projected noisy iterations.

Runs the projected Langevin update X <- proj(X - eta*grad f(X) + noise)
and its minibatch SGD variant on small built-in test potentials, then
estimates total variation between final-iterate samples by histogram.
Purpose: empirical sanity checks that the theoretical bounds dominate
observed behavior at desk scale (dim <= 2, n_chains <= 1e6, T <= 1e5).

Reproducibility contract: every chain owns two private RNG streams,
stream 0 for Gaussian noise and stream 1 for Poisson inclusion masks.
Each stream is Generator(PCG64(SeedSequence((seed, chain_index,
stream)))) of the same numpy build, ziggurat normals included, and
rng_stream builds exactly that, one chain at a time.  A run reproduces
it chunk by chunk: the SeedSequence hash and PCG64's seeding step run
vectorized over a chunk of chains, the seeding step's 128-bit
arithmetic in uint64 limbs; then one generator is reseeded per chain
by writing the chain's four state words into the bit generator's own
state, and each draw fills the chain's rows of the chunk's buffer in
place.  A long run draws each stream in time segments: the chain's
state words are copied out after one segment and written back before
the next, so the segments concatenate to the single draw of all T
steps (every draw takes whole 64-bit words, so PCG64 never buffers a
half-word that the four words would miss).  Fixed seed
means bit-identical output within one numpy build, whatever the chunk
and segment sizes; cross-platform bit equality is not promised.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace

from ._util import check, integer, np, require
from .errors import PreconditionError
from .mixing import mixing_time_weakly_smooth, theta_threshold
from .moduli import ConvexLipschitz, ConvexWeaklySmooth, SmoothConvex

# a chunk steps at most _CHUNK_CHAINS chains together, whose PCG64 states
# are rows of four uint64 words; it walks time in segments whose noise and masks fit
# _CHUNK_BYTES, unless one step of one chain alone is larger
_CHUNK_BYTES, _CHUNK_CHAINS = 32 * 2**20, 4096
_MAX_DIM = 2
_MAX_CHAINS = 10**6
_MAX_STEPS = 10**5
# expected count per bin floor for the histogram TV rule
_COUNT_PER_BIN = 20

# numpy's SeedSequence hash constants (O'Neill's seed_seq design) and PCG64's multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_MULT_HI, _PCG64_MULT_LO = divmod(_PCG64_MULT, 2**64)
_MASK32, _MASK64 = 2**32 - 1, 2**64 - 1


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
    """f(x) = (M/(1+p))*|x|^{1+p} componentwise; gradient M*|x|^p*sign(x).

    For p < 1 that gradient's Holder constant is 2^(1-p)*M, but
    validate_mixing_bound gates it with M; the fix waits for the benchmark
    change that re-records perfbench/golden.json.
    """

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
    (lam, kappa)-strongly dissipative and beta-smooth on all of R^dim:
    (lam, kappa) is the verified pair.
    """

    kappa: float
    beta: float
    lam: float
    dim: int = 1

    def __post_init__(self):
        check(kappa=self.kappa, lam=self.lam, beta=self.beta)
        # lam = 0 would give a zero amplitude, and the frequency divides by it
        require(self.lam > 0, "dissipativity_offset", "lam must be strictly positive")
        object.__setattr__(self, "dim", integer("dim", self.dim, "dim", 1, _MAX_DIM))
        a = self.linear_rate
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
        for name, code, lo, hi in (
            ("dim", "dim", 1, _MAX_DIM),
            ("T", "horizon", 1, _MAX_STEPS),
            ("n_chains", "n_chains", 1, _MAX_CHAINS),
            ("seed", "seed", 0, math.inf),
        ):
            object.__setattr__(self, name, integer(name, getattr(self, name), code, lo, hi))
        check(D=self.diameter, eta=self.eta)
        require(0 <= self.sigma < math.inf, "noise_std", "sigma must be nonnegative and finite")
        require(self.kind in ("box", "ball"), "domain_kind", f"unknown domain kind {self.kind!r}")

    @property
    def box_halfwidth(self) -> float:
        return self.diameter / (2.0 * math.sqrt(self.dim))


def _words(value: int) -> list:
    """value split into little-endian 32-bit words, as SeedSequence splits an int; 0 is one word."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple:
    """One step of the seed_seq hash: the hashed uint32 words and the next multiplier."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const
    return value ^ value >> 16, const


def _seed_words(seed: int, chains: range, stream: int) -> list:
    """SeedSequence((seed, chain, stream)).generate_state(4, uint64) for a range of chains.

    This is numpy's SeedSequence (O'Neill's seed_seq: a pool of four
    words) run on every chain at once; chain indices stay below
    _MAX_CHAINS, one 32-bit word each.  Returns the four uint64 words as
    four arrays over the chains.
    """
    n = len(chains)
    entropy = [np.full(n, w, np.uint32) for w in _words(seed)]
    entropy += [np.arange(chains.start, chains.stop, dtype=np.uint32)]
    entropy += [np.full(n, w, np.uint32) for w in _words(stream)]
    const, pool = _INIT_A, []
    for i in range(_POOL_SIZE):
        word, const = _hashmix(entropy[i] if i < len(entropy) else np.zeros(n, np.uint32), const, _MULT_A)
        pool.append(word)
    # every pool word mixes into every other, then each later entropy word into all four
    pairs = [(src, dst) for src in range(_POOL_SIZE) for dst in range(_POOL_SIZE) if src != dst]
    pairs += [(src, dst) for src in range(_POOL_SIZE, len(entropy)) for dst in range(_POOL_SIZE)]
    for src, dst in pairs:
        word, const = _hashmix(pool[src] if src < _POOL_SIZE else entropy[src], const, _MULT_A)
        mixed = pool[dst] * _MIX_MULT_L - word * _MIX_MULT_R
        pool[dst] = mixed ^ mixed >> 16
    const, out = _INIT_B, []
    for i in range(2 * _POOL_SIZE):
        word, const = _hashmix(pool[i % _POOL_SIZE], const, _MULT_B)
        out.append(word.astype(np.uint64))
    # little-endian pairs of the eight uint32 words make the four uint64 words
    return [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of a * b, for uint64 words a and a constant b < 2**64, from 32-bit halves."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    low, cross_a, cross_b = a0 * b0, a0 * b1, a1 * b0
    carries = (low >> 32) + (cross_a & _MASK32) + (cross_b & _MASK32)
    return a1 * b1 + (cross_a >> 32) + (cross_b >> 32) + (carries >> 32)


def _add128(hi: np.ndarray, lo: np.ndarray, add_hi: np.ndarray, add_lo: np.ndarray) -> tuple:
    """(hi, lo) + (add_hi, add_lo) mod 2**128, in uint64 words."""
    lo = lo + add_lo
    return hi + add_hi + (lo < add_lo), lo


def _pcg_states(seed_hi, seed_lo, seq_hi, seq_lo) -> np.ndarray:
    """The PCG64 states that PCG64 seeds from these four uint64 words, one row per chain.

    PCG64 reads the words as a 128-bit seed and a 128-bit sequence and
    runs pcg's srandom step on them: inc = 2*seq + 1 and state =
    (seed + inc)*_PCG64_MULT + inc, mod 2**128.  That step runs on
    every chain at once, in uint64 arrays of high and low words (numpy
    scalars would warn on the intended wrap-around).  Returns an (n, 4)
    uint64 array whose rows are (state low, state high, inc low, inc
    high): pcg's {state, inc} struct as native 128-bit ints lay it out
    on a little-endian machine.
    """
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    hi, lo = _add128(seed_hi, seed_lo, inc_hi, inc_lo)
    # mod 2**128 only the low words' full product and the cross products' low words remain
    hi, lo = _mulhi64(lo, _PCG64_MULT_LO) + lo * _PCG64_MULT_HI + hi * _PCG64_MULT_LO, lo * _PCG64_MULT_LO
    hi, lo = _add128(hi, lo, inc_hi, inc_lo)
    return np.stack([lo, hi, inc_lo, inc_hi], axis=1)


def _state_words(bit_generator) -> tuple:
    """A writable view of a PCG64's four state words, and the order of _pcg_states' columns in it.

    bit_generator.ctypes.state_address points to numpy's pcg64_state,
    whose first field points to pcg's {state, inc}: two native
    __uint128_t, low word first on a little-endian machine, or numpy's
    emulated 128-bit struct, high word first.  The layout is probed
    against the public state property; any other raises RuntimeError.
    A row written through the view leaves has_uint32 and uinteger as
    they were, where the state setter would write both: a caller that
    draws whole 64-bit words only keeps has_uint32 at 0.
    """
    import ctypes  # numpy has loaded it already; a scalar CLI query loads neither

    address = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
    words = np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(address))
    state = bit_generator.state["state"]
    native = [state["state"] & _MASK64, state["state"] >> 64, state["inc"] & _MASK64, state["inc"] >> 64]
    for order in ([0, 1, 2, 3], [1, 0, 3, 2]):
        if words.tolist() == [native[k] for k in order]:
            return words, order
    raise RuntimeError("PCG64's state words are in neither known 128-bit layout")


def rng_stream(seed: int, chain_index: int, stream: int) -> np.random.Generator:
    """The chain's private generator; stream 0 = noise, 1 = Poisson masks.

    Generator(PCG64(SeedSequence((seed, chain_index, stream)))): a
    negative index raises ValueError, a non-integer TypeError.
    """
    entropy = tuple(map(operator.index, (seed, chain_index, stream)))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _project(x: np.ndarray, config: ChainConfig) -> np.ndarray:
    if config.kind == "box":
        r = config.box_halfwidth
        return np.clip(x, -r, r)
    radius = config.diameter / 2.0
    # np.linalg.norm's formula along axis 1, its squares summed column by
    # column in the order of its reduce: a row reduce over so few columns is slow
    squares = x * x
    total = squares[:, 0].copy()
    for j in range(1, x.shape[1]):
        total += squares[:, j]
    norms = np.sqrt(total)
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    out = np.empty_like(squares)
    with np.errstate(invalid="ignore"):  # inf * 0 in rows whose squares overflow, replaced below
        for j in range(x.shape[1]):  # column by column: cheaper than broadcasting an (n, 1) factor
            np.multiply(x[:, j], scale, out=out[:, j])
    overflow = np.isinf(total)
    if overflow.any():
        # squares past the float range: those rows over their largest |x_j| before
        # squaring, an infinite coordinate counting as sign(x_j) times the largest
        rows = x[overflow]
        with np.errstate(invalid="ignore"):  # inf / inf
            unit = rows / np.max(np.abs(rows), axis=1, keepdims=True)
        unit = np.where(np.isinf(rows), np.sign(rows), unit)
        out[overflow] = unit * (radius / np.sqrt(np.sum(unit * unit, axis=1)))[:, None]
    return out


def _broadcast_init(init, config: ChainConfig) -> np.ndarray:
    x = np.asarray(init, dtype=float)
    shape = (config.n_chains, config.dim)
    try:  # numpy's rules: a scalar, a point, an (n_chains, 1) column or the whole array
        x = np.broadcast_to(x, shape)
    except ValueError:
        raise PreconditionError("init", f"init of shape {x.shape} does not broadcast to {shape}") from None
    # inside the domain: _project moves no coordinate by more than the slack
    with np.errstate(invalid="ignore", over="ignore"):  # an inf or huge coordinate in a ball: inf * 0
        moved = np.abs(_project(x, config) - x)
    slack = 1e-12 * max(1.0, config.diameter)
    require(bool(np.all(moved <= slack)), "init", "init lies outside the domain")
    return np.array(x, dtype=float)


def _stream_segments(config: ChainConfig, chains: range, stream: int, width: int, segment: int, draw, dtype=float):
    """Yields the chains' stream as (len(chains), steps, width) blocks of consecutive steps.

    Each block covers the next `segment` steps (fewer in the last) of
    config.T; draw(generator, out) fills row j, a (steps, width) view,
    in place from chains[j]'s stream, continued from where the previous
    block stopped.  draw must take whole 64-bit words (standard_normal,
    random), since only the four state words pass between segments.
    Every block is a view of one buffer, valid until the next block is
    drawn, so a run holds one segment of the stream at a time.  The
    seed words are hashed and PCG64's seeding step run in uint64 limbs,
    all chains at once, before the buffer is allocated, so the
    short-lived arrays do not fragment the heap above it.  Then one
    generator is reseeded per chain and segment by writing the chain's
    state words into it, and they are copied back out only when another
    segment follows.
    """
    states = _pcg_states(*_seed_words(config.seed, chains, stream))
    buffer = np.empty((len(chains), min(segment, config.T), width), dtype=dtype)
    generator = np.random.Generator(np.random.PCG64(0))  # every draw follows a state write
    words, order = _state_words(generator.bit_generator)
    states = states[:, order]
    for first in range(0, config.T, segment):
        steps = min(segment, config.T - first)
        more = first + steps < config.T
        block = buffer[:, :steps]
        for row, state in zip(block, states):
            words[:] = state
            draw(generator, row)
            if more:
                state[:] = words
        yield block


def _simulate(config: ChainConfig, init, drift, n_data: int = 0, q: float = 1.0) -> np.ndarray:
    """Final iterates of x <- proj(x - drift(x, masks_t) + sigma * xi_t).

    The one stepping loop behind run_chains and run_noisy_sgd.  With
    n_data > 0 each chain draws a (T, n_data) Poisson inclusion mask
    (probability q) from stream 1 and drift receives the (m, n_data) rows
    of step t; otherwise it receives None.  Only here are chunks sized:
    one step of one chain holds 8*dim + n_data bytes of noise and masks;
    a chunk runs at most _CHUNK_CHAINS chains, as many as one step of
    them fits _CHUNK_BYTES (at least one), and draws their streams in
    segments of as many steps as fit _CHUNK_BYTES (at least one).
    """
    x0 = _broadcast_init(init, config)
    out = np.empty((config.n_chains, config.dim))
    step_bytes = 8 * config.dim + n_data
    chunk = min(config.n_chains, _CHUNK_CHAINS, max(1, _CHUNK_BYTES // step_bytes))
    segment = max(1, min(config.T, _CHUNK_BYTES // (chunk * step_bytes)))
    for start in range(0, config.n_chains, chunk):
        chains = range(start, min(start + chunk, config.n_chains))
        eps = mask = None  # the last chunk's buffers go before this chunk's are allocated
        noise = masks = itertools.repeat(None)
        if config.sigma > 0:
            noise = _stream_segments(
                config, chains, 0, config.dim, segment, lambda g, out: g.standard_normal(out=out)
            )
        if n_data:
            masks = _stream_segments(
                config, chains, 1, n_data, segment, lambda g, out: np.less(g.random(out.shape), q, out=out), bool
            )
        x = x0[start : chains.stop]
        for first, eps, mask in zip(range(0, config.T, segment), noise, masks):
            for t in range(min(segment, config.T - first)):
                x = x - drift(x, None if mask is None else mask[:, t])
                if eps is not None:
                    x = x + config.sigma * eps[:, t]
                x = _project(x, config)
        out[start : chains.stop] = x
    return out


def run_chains(potential, config: ChainConfig, init) -> np.ndarray:
    """Final iterates X_T of n_chains independent projected runs.

    init broadcasts to (n_chains, dim) by numpy's rules: a scalar (every
    coordinate of every chain), a point of dim coordinates, an
    (n_chains, 1) column (one value per chain, across its coordinates) or
    the whole array; it must lie in the domain.  Output is (n_chains, dim)
    and is seed-exact regardless of chunking or execution order.  A potential with a dim of its own
    (DissipativeQuadratic, whose constants depend on it) must match the run's.
    """
    dim = getattr(potential, "dim", config.dim)
    require(dim == config.dim, "dim", f"the potential has dim {dim}, the run dim {config.dim}")
    return _simulate(config, init, lambda x, _: config.eta * potential.gradient(x))


def run_noisy_sgd(dataset, grad_loss, config: ChainConfig, b: float, init) -> np.ndarray:
    """Final iterates of projected noisy SGD with Poisson sampling.

    dataset is a sequence of n points; each step includes point i
    independently with probability b/n and applies the update
    x <- proj(x - (eta/b) * sum_{i in batch} grad_loss(x, z_i) + sigma*xi).
    Empty batches contribute a zero gradient.  grad_loss(x_block, z)
    must map an (m, dim) block to its (m, dim) per-chain gradients; it
    is called only on the chains whose batch includes z at that step,
    and not at all when no chain's does, so a point's gradient is never
    evaluated where the run leaves it out.  Each step finds the included
    (point, chain) pairs once, point-major with chains ascending, and
    makes one call per included point in dataset order, on those chains'
    rows in ascending order; each chain's gradient sums its points in
    dataset order.
    init broadcasts as in run_chains.
    Noise comes from stream 0 exactly as in run_chains, masks from
    stream 1, so a b = n run (inclusion probability 1) reproduces the
    full-gradient run_chains trajectory on the same seed.
    """
    points = list(dataset)
    n_data = len(points)
    require(n_data >= 1, "dataset", "dataset must be non-empty")
    require(0 < b <= n_data, "batch_size", "b must lie in (0, n]")
    scale = config.eta / b

    def drift(x, included):
        grad = np.zeros_like(x)
        # the included (point, chain) pairs, point-major with chains ascending, found in
        # a contiguous copy: the transpose of the strided mask view is slow to scan
        point, chain = np.divmod(np.flatnonzero(np.ascontiguousarray(included.T)), included.shape[0])
        start = 0
        for z, stop in zip(points, np.cumsum(np.bincount(point, minlength=n_data)).tolist()):
            if stop > start:
                rows = chain[start:stop]
                grad[rows] += grad_loss(x[rows], z)
            start = stop
        return scale * grad

    return _simulate(config, init, drift, n_data, b / n_data)


def _as_rows(samples) -> np.ndarray:
    """samples as a float array with one row per sample; a 1-D input is one column."""
    x = np.asarray(samples, dtype=float)
    return x.reshape(-1, 1) if x.ndim == 1 else x


@dataclass(frozen=True)
class TVEstimate:
    tv: float
    half_width: float
    bins: int


def empirical_tv(samples_a: np.ndarray, samples_b: np.ndarray, bins: int) -> TVEstimate:
    """Histogram total-variation estimate with a DKW-style half-width.

    Both sample sets are binned on a common grid spanning their joint
    range, bins cells per axis.  The half-width is sqrt(ln(2/0.025)/(2n))
    per set, summed: the DKW term for one CDF's sup-norm, not a bound on
    the L1 distance between histograms, so it carries no coverage
    guarantee: for two sets of 1e5 draws from one distribution and 50
    bins, the estimate exceeded it in 200 of 200 trials.  Requires
    min(n_a, n_b) >= 20 * bins^dim so bins stay populated.
    """
    a, b = _as_rows(samples_a), _as_rows(samples_b)
    require(a.ndim == 2 and b.ndim == 2 and a.shape[1] == b.shape[1], "samples", "sample sets must share one dim")
    # a nan either drops out of the histogram counts or poisons the common range; an inf breaks the range
    require(bool(np.isfinite(a).all() and np.isfinite(b).all()), "samples", "samples must be finite")
    dim = a.shape[1]
    bins = integer("bins", bins, "bins", 2)
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
    TV against the predicted 0.5 plus empirical_tv's DKW-style
    half-width, a slack term with no coverage guarantee.  Returns a
    JSON-ready report.
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
    samples_a = run_chains(potential, config, -config.box_halfwidth)
    samples_b = run_chains(potential, replace(config, seed=config.seed + 1), config.box_halfwidth)
    if bins is None:
        bins = min(50 if config.dim == 1 else 20, int((config.n_chains / _COUNT_PER_BIN) ** (1.0 / config.dim)))
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
            "n_chains": config.n_chains,
            "dim": config.dim,
            "bins": int(bins),
            "seed": config.seed,
            "theta": theta_threshold(p, M, diameter),
        },
        "bound": 0.5,
        "estimate": estimate.tv,
        "half_width": estimate.half_width,
        "pass": bool(passed),
        "margin": 0.5 + estimate.half_width - estimate.tv,
    }
