"""Optimal shift sequences for iterated noisy maps.

Divergence accounting for T projected noisy steps reduces to choosing
interpolation levels u_0 = D, u_1, ..., u_T = 0 and paying
(phi_{t-1}(u_{t-1}) - u_t)^2 / sigma_{t-1}^2 at step t, where phi_t is the
step's modulus of continuity and sigma_t its noise level.  This module
evaluates that objective, produces its unique minimizer in closed form
through a backward weight recursion, and cross-checks the closed form
against a multistart numeric minimizer at small horizons.  The objective
is not convex as a function on R^{T-1}, which is exactly why the numeric
route exists as an independent witness.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

from ._util import _Wide, check, integer, np, require
from .errors import OracleConvergenceError, PreconditionError
from .moduli import QuadraticModulus

FEASIBILITY_TOL = 1e-12
# longest horizon the multistart numeric oracle accepts
ORACLE_MAX_HORIZON = 12
# longest horizon `pabi shifts` builds arrays for; the constant-parameter bounds are O(1) at any horizon
SPEC_MAX_HORIZON = 10**7


def _freeze_copy(self, state):
    """__setstate__ for classes of read-only arrays.

    pickle and deepcopy hand back writeable arrays, in cached tuples too:
    freeze them again, so that a copy cannot change.
    """
    self.__dict__.update(state)
    for value in state.values():
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False


@dataclass(frozen=True, init=False, eq=False)  # arrays have no scalar ==
class IterationSpec:
    """Description of a horizon-T projected noisy iteration.

    Stored as the diameter bounding the initial displacement plus, for
    steps 0 .. T-1, read-only float64 arrays c, h (the moduli sqrt(c_t *
    delta^2 + h_t)) and s2 (sigma_t^2, sigma_t the noise level), built by
    from_arrays from the sequences c, h and sigmas, or by the constructor
    from sigmas and QuadraticModulus moduli.  sigma_t^2 must be a finite
    normal float, so that s2 keeps every sigma_t whole: sqrt(s2) gives
    back exactly the sigma passed in, which a subnormal square would not.
    The backward weights g_t of _tail_weights, as frexp mantissas in
    [1/2, 1) and int64 exponents (the m 2^e of _Wide, one array each), are
    computed on first use and cached, read-only, on the spec, so that
    solve_closed_form and _bound_terms share one backward pass; a spec
    never changes, so the cache cannot go stale.
    """

    diameter: float
    c: np.ndarray
    h: np.ndarray
    s2: np.ndarray

    def __init__(self, diameter, sigmas, moduli):
        moduli = tuple(moduli)
        message = "moduli must be QuadraticModulus instances"
        require(all(isinstance(m, QuadraticModulus) for m in moduli), "moduli", message)
        self._store(diameter, [m.c for m in moduli], [m.h for m in moduli], sigmas)

    @classmethod
    def from_arrays(cls, diameter, c, h, sigmas):
        """Spec from per-step sequences c_t, h_t and sigma_t, copied into read-only arrays.

        Refuses the first step whose c_t or h_t breaks a QuadraticModulus
        rule, c before h, then checks D, the horizon, lengths and sigma.
        """
        spec = cls.__new__(cls)
        spec._store(diameter, c, h, sigmas)
        return spec

    def _store(self, diameter, c, h, sigmas):
        c, h, sigmas = (np.array(x, dtype=float) for x in (c, h, sigmas))
        # QuadraticModulus's rules, with its codes, at the first step that breaks one
        bad_c = np.flatnonzero(~((0 < c) & (c < math.inf)))[:1].tolist()
        bad_h = np.flatnonzero(~((0 <= h) & (h < math.inf)))[:1].tolist()
        if bad_c or bad_h:
            t = min(bad_c + bad_h)  # at one step, c is checked first
            if t in bad_c:
                message = f"step {t}: c must be strictly positive and finite, got {float(c[t])!r}"
                raise PreconditionError("modulus_c", message)
            raise PreconditionError("offset", f"step {t}: h must be nonnegative and finite, got {float(h[t])!r}")
        check(D=diameter, horizon=sigmas.size)
        require(c.shape == h.shape == sigmas.shape == (sigmas.size,), "lengths", "c, h and sigmas need one length")
        with np.errstate(over="ignore"):  # an infinite sigma^2 is refused below
            s2 = sigmas * sigmas
        normal = np.all(sigmas > 0) and np.all((s2 >= sys.float_info.min) & (s2 < math.inf))
        require(bool(normal), "sigma", "noise levels must be positive, sigma^2 a finite normal float")
        for name, arr in (("c", c), ("h", h), ("s2", s2)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "diameter", float(diameter))

    @classmethod
    def uniform(cls, diameter, horizon, modulus, sigma):
        """Spec with a single modulus and noise level repeated over the horizon."""
        check(horizon=horizon)
        require(isinstance(modulus, QuadraticModulus), "moduli", "modulus must be a QuadraticModulus")
        # broadcast views, which from_arrays copies into one array each
        steps = (np.broadcast_to(float(x), int(horizon)) for x in (modulus.c, modulus.h, sigma))
        return cls.from_arrays(diameter, *steps)

    @property
    def horizon(self) -> int:
        return len(self.s2)

    __setstate__ = _freeze_copy

    @cached_property
    def _g(self) -> tuple:
        """_tail_weights(c, s2): frexp mantissas and int64 exponents of g_0 .. g_{T-1}."""
        return _tail_weights(self.c, self.s2)


def _check_spec_horizon(horizon) -> int:
    """The horizon rule, then SPEC_MAX_HORIZON, before T-long arrays are built."""
    check(horizon=horizon)
    message = f"horizons above {SPEC_MAX_HORIZON} are not built step by step, got {horizon}"
    require(horizon <= SPEC_MAX_HORIZON, "horizon_too_large", message, required_value=SPEC_MAX_HORIZON)
    return int(horizon)


@dataclass(frozen=True, eq=False)  # arrays have no scalar ==
class ShiftSolution:
    """Levels u_0 .. u_T and shifts a_1 .. a_T as read-only float64 arrays, and the objective."""

    u: np.ndarray
    a: np.ndarray
    objective: float

    __setstate__ = _freeze_copy


def objective_E(spec: IterationSpec, u_inner) -> float:
    """Shift objective at interior levels u_1 .. u_{T-1} (endpoints implied).

    E(u) = sum_t (phi_{t-1}(u_{t-1}) - u_t)^2 / sigma_{t-1}^2 with u_0 = D
    and u_T = 0, the moduli evaluated by formula.  Defined on all of
    R^{T-1}; feasibility is not required here.
    """
    u_inner = np.asarray(u_inner, dtype=float)
    T = spec.horizon
    require(
        u_inner.shape == (T - 1,),
        "length",
        f"expected {T - 1} interior levels, got shape {u_inner.shape}",
    )
    u = np.concatenate(([spec.diameter], u_inner, [0.0]))
    return float(np.sum((_phi(spec, u[:-1]) - u[1:]) ** 2 / spec.s2))


def _phi(spec: IterationSpec, x: np.ndarray) -> np.ndarray:
    """phi_t(x_t) = sqrt(c_t * x_t^2 + h_t) for steps t = 0 .. T-1."""
    return np.sqrt(spec.c * x * x + spec.h)


def _solution(spec: IterationSpec, u: np.ndarray, a: np.ndarray | None = None) -> ShiftSolution:
    """ShiftSolution at levels u; the shifts a default to phi_{t-1}(u_{t-1}) - u_t."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        if a is None:
            a = _phi(spec, u[:-1]) - u[1:]
        objective = float(np.sum(a * a / spec.s2))
    # levels past the float range give inf shifts, or finite shifts where the weights grow past the levels
    message = "the shift objective or a level overflows the float range"
    require(objective < math.inf and float(np.max(u)) < math.inf, "out_of_range", message)
    u.flags.writeable = a.flags.writeable = False
    return ShiftSolution(u=u, a=a, objective=objective)


# Horizons below _BLOCK run the per-step loops _weight_steps and _levels, whose bits are the
# contract there.  Longer ones take one running product of the c_t and two running sums of
# positive terms (_weight_sums, _level_sums), _CHUNK steps at a time in rows of _BLOCK steps,
# each value a mantissa and an int32 exponent relative to a base within a chunk, each carry a _Wide.
_BLOCK = 256
_CHUNK = 65536
# a row of a running sum whose first partial sum lies this far below its scale is added step by step
_FLOOR = 2.0**-960


def _products(c: np.ndarray, carry: _Wide) -> tuple:
    """carry * c_0 * ... * c_i for i = 0 .. n-1: mantissas in [2^-512, 1) and int32 exponents relative to carry's.

    Cumprods of the frexp mantissas of c within rows of _BLOCK and of the
    rows' products across them, a cumsum of the exponents.  Also returns
    the last product, the next carry.
    """
    n, rows = len(c), -(-len(c) // _BLOCK)
    m, e = np.frexp(np.pad(c, (0, rows * _BLOCK - n), constant_values=1.0) if n % _BLOCK else c)
    np.cumsum(e, out=e)
    grid = np.multiply.accumulate(m.reshape(rows, _BLOCK), axis=1, out=m.reshape(rows, _BLOCK))
    lead, shift = np.frexp(grid[:, -1])
    before = np.concatenate(([1.0], np.multiply.accumulate(lead[:-1]))) * carry.m
    grid *= before[:, None]
    e.reshape(rows, _BLOCK)[1:] += np.cumsum(shift[:-1], dtype=np.intc)[:, None]
    return m[:n], e[:n], _Wide(float(m[n - 1]), carry.e + int(e[n - 1]))


def _sums(xm: np.ndarray, xe: np.ndarray, base: int, carry: _Wide) -> tuple:
    """carry + x_0 + ... + x_i for x_i = xm_i 2^(base + xe_i), 0 <= xm_i < 16, xe int32.

    A cumsum per row of _BLOCK on the scale of its largest term; the rows'
    totals join the carry one by one, and each row meets its carry on the
    larger scale.  A row's partial sums rise, so one whose first lies
    below _FLOOR, where its terms would lose digits, is added step by step.
    Returns frexp mantissas, int64 exponents relative to base, the last sum (the next carry).
    """
    n, rows = len(xm), -(-len(xm) // _BLOCK)
    grid, exps = ((np.pad(x, (0, rows * _BLOCK - n)) if n % _BLOCK else x).reshape(rows, _BLOCK) for x in (xm, xe))
    top = np.max(exps, axis=1, where=grid > 0.0, initial=-(2**30))  # -2^30 for a row of zero terms
    grid = np.ldexp(grid, exps - top[:, None])
    np.cumsum(grid, axis=1, out=grid)  # in place: a fresh array costs as much as the pass, in page faults
    starts, acc = [], carry
    for total, k in zip(grid[:, -1].tolist(), top.tolist()):
        starts.append(acc)
        acc = acc + _Wide(total, base + k)
    start_m, start_e = np.array([x.m for x in starts]), np.array([x.e for x in starts])
    start_e -= base
    scale = np.where(start_m > 0.0, np.maximum(top, start_e), top)
    grid *= _ldexp(np.ones(rows), top - scale)[:, None]
    grid += _ldexp(start_m, start_e - scale)[:, None]
    m, shift = np.frexp(grid)
    e = shift + scale[:, None]
    for r in np.flatnonzero(grid[:, 0] < _FLOOR).tolist():
        partial = starts[r]
        for i in range(r * _BLOCK, min(r * _BLOCK + _BLOCK, n)):
            partial = partial + _Wide(float(xm[i]), base + int(xe[i]))
            m[r, i - r * _BLOCK], e[r, i - r * _BLOCK] = partial.m, partial.e - base
    return m.ravel()[:n], e.ravel()[:n], acc


def _ldexp(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x 2^e for int64 e by numpy's faster int32 ldexp, e clipped to +-2^20 (0 or inf alike for x within 2^+-600)."""
    return np.ldexp(x, np.clip(e, -(2**20), 2**20).astype(np.intc))


def _tail_weights(c: np.ndarray, s2: np.ndarray) -> tuple:
    """Backward weights g_t = (s2_t + g_{t+1}) / c_t, g_T = 0, as read-only frexp mantissas and int64 exponents.

    No g_t leaves the floats, however large or small.  Read once per spec, via IterationSpec._g.
    """
    m, e = (_weight_steps if len(c) < _BLOCK else _weight_sums)(c, s2)
    m.flags.writeable = e.flags.writeable = False
    return m, e


def _weight_steps(c: np.ndarray, s2: np.ndarray) -> tuple:
    """The loop, t = T-1 .. 0, on _Wide, so every step rounds as a plain loop with an unbounded exponent range."""
    T = len(c)
    m, e = np.empty(T), np.empty(T, dtype=np.int64)
    g = _Wide(0.0)
    for t, st, ct in zip(range(T - 1, -1, -1), s2[::-1].tolist(), c[::-1].tolist()):
        g = (g + _Wide(st)) / ct
        m[t], e[t] = g.m, g.e
    return m, e


def _weight_sums(c: np.ndarray, s2: np.ndarray) -> tuple:
    """g_t = R_t / B_t with B_t = c_t ... c_{T-1} and R_t = sum_{j>=t} s2_j B_{j+1}, chunks from the end."""
    T = len(c)
    m, e = np.empty(T), np.empty(T, dtype=np.int64)
    product, total = _Wide(1.0), _Wide(0.0)  # B_T = 1, R_T = 0
    for hi in range(T, 0, -_CHUNK):
        lo = max(hi - _CHUNK, 0)
        # steps t = hi-1 .. lo, in contiguous copies (frexp reads reversed views four times slower)
        bm, be, last = _products(c[lo:hi][::-1].copy(), product)
        xm, xe = np.frexp(s2[lo:hi][::-1].copy())
        xm[0] *= product.m  # s2_t B_{t+1}
        xm[1:] *= bm[:-1]
        xe[1:] += be[:-1]
        rm, re, total = _sums(xm, xe, product.e, total)
        rm /= bm
        gm, shift = np.frexp(rm)
        re -= be
        re += shift
        m[lo:hi], e[lo:hi] = gm[::-1], re[::-1]
        product = last
    return m, e


def _levels(spec: IterationSpec, ratios: np.ndarray) -> np.ndarray:
    """The loop: u_0 = D, u_t = ratios[t-1] * phi_{t-1}(u_{t-1}) for 0 < t < T, u_T = 0, in plain floats."""
    u, level = np.zeros(spec.horizon + 1), spec.diameter
    u[0] = level
    for t, (ct, ht, rt) in enumerate(zip(*(arr[: spec.horizon - 1].tolist() for arr in (spec.c, spec.h, ratios))), 1):
        u[t] = level = rt * math.sqrt(ct * level * level + ht)
    return u


def _level_sums(spec: IterationSpec, m: np.ndarray, e: np.ndarray) -> tuple:
    """Levels u and shifts a from the prefix sum W_t = D^2 / g_0^2 + sum_{j<t} h_j C_{j+1} / (c_j g_j)^2.

    W_t = C_t u_t^2 / g_t^2 (the level ratio g_t / (s2_{t-1} + g_t) is
    g_t / (c_{t-1} g_{t-1})), so u_t = g_t sqrt(W_t / C_t) and a_t =
    s2_{t-1} sqrt(W_t / C_t), a_T included: no level is squared and no
    shift is a difference.  Exponents relative to C's and the chunk's first g.
    C_t is formed again, though it is B_0 / B_t of _weight_sums: keeping B would hold 16 bytes a step,
    16 MB at T = 1e6, past 5% of the certify benchmark's peak memory.
    """
    T = spec.horizon
    u, a = np.zeros(T + 1), np.empty(T)
    u[0] = spec.diameter
    ratio = _Wide(spec.diameter) / _Wide(float(m[0]), int(e[0]))
    product, total = _Wide(1.0), ratio * ratio  # C_0 = 1, W_0 = (D / g_0)^2
    for lo in range(0, T, _CHUNK):
        hi = min(lo + _CHUNK, T)
        base, ref = product.e, int(e[lo])
        cm, ce, product = _products(spec.c[lo:hi], product)  # C_{j+1}
        (hm, he), (km, ke) = np.frexp(spec.h[lo:hi]), np.frexp(spec.c[lo:hi])
        km *= m[lo:hi]  # c_j g_j, whose exponents differ by less than 2^31 within a chunk
        ke += (e[lo:hi] - ref).astype(np.intc)
        ke <<= 1
        he += ce
        he -= ke
        hm *= cm
        hm /= km * km
        wm, we, total = _sums(hm, he, base - 2 * ref, total)
        wm /= cm  # W_{j+1} / C_{j+1} = wm 2^(we - ce - 2 ref), whose root halves the exponent
        we -= ce
        root = np.sqrt(np.ldexp(wm, (we & 1).astype(np.intc)))
        we >>= 1
        we -= ref
        sm, se = np.frexp(spec.s2[lo:hi])
        stop = min(hi, T - 1) - lo
        with np.errstate(over="ignore"):  # refused in _solution
            a[lo:hi] = _ldexp(sm * root, se + we)
            inner = slice(lo + 1, lo + 1 + stop)  # u_{j+1} for j < T - 1
            u[inner] = _ldexp(m[inner] * root[:stop], e[inner] + we[:stop])
    return u, a


def _bound_terms(spec: IterationSpec) -> tuple:
    """renyi_bound_general's terms before alpha/2 scales them: the _Wide D^2 / g_0 and sum_t h_t / (c_t g_t).

    Each offset term is h / (c m) on frexp mantissas, _CHUNK rows at a time in one set of buffers.  A
    chunk sums its terms with the largest at 2^960, and the chunks' sums meet on the scale of the
    largest: where T <= _CHUNK and no term or partial sum leaves the normal floats, the plain float
    sum's bits.
    """
    m, e = spec._g
    T = spec.horizon
    mantissas, exponents = np.empty((2, min(T, _CHUNK))), np.empty((2, min(T, _CHUNK)), dtype=np.intc)
    sums = []
    for lo in range(0, T, _CHUNK):
        hi = min(lo + _CHUNK, T)
        (q, p), (qe, pe) = mantissas[:, : hi - lo], exponents[:, : hi - lo]
        np.frexp(spec.h[lo:hi], out=(q, qe))
        np.frexp(spec.c[lo:hi], out=(p, pe))
        p *= m[lo:hi]
        q /= p
        qe -= pe
        # e_t past 2^20 leaves a term below 2^(2100 - 2^20), which no alpha/2 lifts back into the floats
        qe -= np.minimum(e[lo:hi], 2**20, out=pe, casting="unsafe")
        scale = int(np.max(qe, where=q > 0.0, initial=-(2**30))) - 960  # -2^30 - 960 where every h_t is 0
        qe -= scale
        sums.append(_Wide(float(np.sum(np.ldexp(q, qe, out=q))), scale))
    top = max(x.e for x in sums)
    offset = _Wide(sum(math.ldexp(x.m, x.e - top) for x in sums), top)
    return _Wide(spec.diameter) * spec.diameter / _Wide(float(m[0]), int(e[0])), offset


def solve_closed_form(spec: IterationSpec) -> ShiftSolution:
    """Unique minimizer of the shift objective via the backward weight recursion.

    Backward pass: g_t = (sigma_t^2 + g_{t+1}) / c_t accumulates tail noise
    weights normalized by the running contraction product: with C_t =
    c_0 ... c_{t-1}, g_t = C_t sum_{j>=t} sigma_j^2 / C_{j+1}.  Forward
    pass: u_t is the tail-to-total weight ratio times phi_{t-1}(u_{t-1}),

        u_t = g_t / (sigma_{t-1}^2 + g_t) * phi_{t-1}(u_{t-1}),

    and every shift is a_t = sigma_{t-1}^2 / (sigma_{t-1}^2 + g_t) *
    phi_{t-1}(u_{t-1}), never phi_{t-1}(u_{t-1}) - u_t: a difference of
    two rounded levels would lose a shift far below them.  The objective
    sums a_t^2 / sigma_{t-1}^2.  Below _BLOCK steps both passes run step by
    step (_weight_steps, then _levels on the ratios g_t / (sigma_{t-1}^2 +
    g_t)), and those bits are the contract; a shift whose factor
    sigma_{t-1}^2 / (sigma_{t-1}^2 + g_t) is below the normal floats is
    taken on _Wide instead, where the float factor has lost its digits.
    From _BLOCK steps on, g is one suffix sum and the levels one prefix sum,
    W_t = C_t u_t^2 / g_t^2 = D^2 / g_0^2 + sum_{j<t} h_j C_{j+1} / (c_j
    g_j)^2, with u_t = g_t sqrt(W_t / C_t) and a_t = sigma_{t-1}^2
    sqrt(W_t / C_t) (_weight_sums, _level_sums): no level is squared, so
    levels and shifts far below 1e-154 keep their digits, and they agree
    with the per-step loops within 1e-12 relative wherever those keep
    theirs.
    """
    m, e = spec._g
    if spec.horizon >= _BLOCK:
        return _solution(spec, *_level_sums(spec, m, e))
    # sigma_{t-1}^2 and g_t as plain floats, as the loops ran before g became frexp pairs, unless g_t passes
    # 2^960: there both on the scale 2^e_t
    scale = np.where(e[1:] > 960, e[1:], 0)
    w, g = np.ldexp(spec.s2[:-1], -scale), np.ldexp(m[1:], e[1:] - scale)
    total = w + g
    u = _levels(spec, g / total)
    with np.errstate(over="ignore", invalid="ignore"):  # refused in _solution
        a = _phi(spec, u[:-1])
        factor = w / total
        # a factor below the normal floats has lost digits: those shifts on _Wide
        for t in np.flatnonzero(factor < sys.float_info.min).tolist():
            s2, gt = _Wide(float(spec.s2[t])), _Wide(float(m[t + 1]), int(e[t + 1]))
            a[t], factor[t] = float(s2 / (s2 + gt) * float(a[t])), 1.0
        a[:-1] *= factor
    return _solution(spec, u, a)


def stationarity_residuals(spec: IterationSpec, u) -> np.ndarray:
    """Residuals of the interior first-order conditions at levels u.

    For t = 1 .. T-1:

        (c_t s_{t-1}^2 + s_t^2) u_t - s_{t-1}^2 phi_t'(u_t) u_{t+1}
            - s_t^2 phi_{t-1}(u_{t-1})

    where s_t = sigma_t: dE/du_t times s_{t-1}^2 s_t^2 / 2, the derivative
    numeric_oracle searches with.  They vanish at the closed-form solution.
    """
    u = np.asarray(u, dtype=float)
    T = spec.horizon
    require(u.shape == (T + 1,), "length", f"expected {T + 1} levels, got {u.shape}")
    require(bool(np.all(u[:-1] >= 0.0)), "negative_delta", "levels must be nonnegative")
    return _residuals(spec, u)


def _residuals(spec: IterationSpec, u: np.ndarray) -> np.ndarray:
    c, s2 = spec.c[1:], spec.s2
    phi = _phi(spec, u[:-1])
    # one-sided derivative c_t u_t / phi_t(u_t); sqrt(c_t) at a kink
    dphi = np.sqrt(c)
    np.divide(c * u[1:-1], phi[1:], out=dphi, where=phi[1:] != 0.0)
    return (c * s2[:-1] + s2[1:]) * u[1:-1] - s2[:-1] * dphi * u[2:] - s2[1:] * phi[:-1]


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple

    def __bool__(self) -> bool:
        return self.feasible


def feasibility_check(spec: IterationSpec, u) -> FeasibilityReport:
    """Endpoint and interleaving checks for a level sequence u_0 .. u_T.

    Endpoints are compared exactly; nonnegativity gets a 1e-12 slack, and the
    interleaving phi_{t-1}(u_{t-1}) >= u_t a slack of 1e-12 * max(1, phi_{t-1}(u_{t-1})).
    """
    u = np.asarray(u, dtype=float)
    T = spec.horizon
    require(u.shape == (T + 1,), "length", f"expected {T + 1} levels, got {u.shape}")
    require(not np.isnan(u[:-1]).any(), "negative_delta", "levels must not be nan")
    violations = []
    if u[0] != spec.diameter:
        violations.append(f"u_0 != D (u_0={float(u[0])!r}, D={spec.diameter!r})")
    if u[T] != 0.0:
        violations.append(f"u_T != 0 (u_T={float(u[T])!r})")
    for t in np.flatnonzero(u < -FEASIBILITY_TOL).tolist():
        violations.append(f"u_{t}={float(u[t])!r} < 0")
    x = np.maximum(u[:-1], 0.0)
    with np.errstate(over="ignore"):  # where c x^2 overflows, as the long pass's levels near 1e300 make it, on x 2^-600
        phi = _phi(spec, x)
        big = phi == math.inf
        phi[big] = np.ldexp(np.sqrt(spec.c[big] * np.ldexp(x[big], -600) ** 2 + np.ldexp(spec.h[big], -1200)), 600)
    for t in (np.flatnonzero(phi < u[1:] - FEASIBILITY_TOL * np.maximum(phi, 1.0)) + 1).tolist():
        violations.append(f"phi_{t - 1}(u_{t - 1})={float(phi[t - 1])!r} < u_{t}={float(u[t])!r}")
    return FeasibilityReport(not violations, tuple(violations))


def _certify_stationary(grad, x, upper, f_best, tol):
    # First-order check of the gradient grad at x: interior coordinates need
    # a small gradient, coordinates pinned at a bound only a correctly signed one.
    limit = tol * max(1.0, abs(f_best))
    for i, g in enumerate(grad.tolist()):
        if x[i] < 1e-9:
            side, ok = "at 0", g >= -limit
        elif upper[i] - x[i] < 1e-9:
            side, ok = "at the upper bound", g <= limit
        else:
            side, ok = "interior", abs(g) <= limit
        if not ok:
            raise OracleConvergenceError(
                f"stationarity certificate failed at coordinate {i} ({side}): "
                f"gradient {g:.3e} misses the limit {limit:.3e} = tol * max(1, |f|)"
            )


def numeric_oracle(
    spec: IterationSpec,
    restarts: int = 8,
    tol: float = 1e-4,
    *,
    seed: int = 0,
) -> ShiftSolution:
    """Multistart bounded minimization of the shift objective.

    Independent of the closed form: starts are the linear interpolation of
    D down to 0, the box midpoint and seeded uniform draws inside the
    forward-reachable box [0, r_1] x ... x [0, r_{T-1}], r_0 = D and
    r_t = phi_{t-1}(r_{t-1}).  The search runs on the spec rescaled to
    D = 1 and max_t sigma_t = 1, so that the absolute tolerances fit every
    scale; a scale out of the float range is refused.  L-BFGS-B polishes
    each start with the analytic gradient dE/du_t = 2 r_t / (sigma_{t-1}^2
    sigma_t^2), r_t from stationarity_residuals: the first-order condition
    of E alone, not the closed form's recursion.  The winner is the
    smallest objective, ties broken by start index; unless its gradient
    passes a stationarity certificate with tolerance tol, relative to
    max(1, |objective|), OracleConvergenceError is raised: a
    PreconditionError with code oracle_not_certified.  L-BFGS-B stops
    where the float objective no longer resolves a descent, so a tol near
    1e-8 can be refused even at the exact optimum.
    """
    restarts = integer("restarts", restarts, "restarts", 1)
    # a relative tolerance of 1 or more passes a gradient as large as the objective
    require(0 < tol < 1, "tolerance", f"tol must lie strictly in (0, 1), got {tol!r}")
    seed = integer("seed", seed, "seed", 0)
    T = spec.horizon
    require(
        T <= ORACLE_MAX_HORIZON,
        "horizon_too_large",
        f"numeric oracle supports horizons up to {ORACLE_MAX_HORIZON}, got {T}",
        required_value=ORACLE_MAX_HORIZON,
    )
    if T == 1:
        return _solution(spec, np.array([spec.diameter, 0.0]))

    D = spec.diameter
    unit = float(np.max(spec.s2)) / D / D
    require(0 < unit < math.inf, "out_of_range", "the oracle's unit max sigma^2 / D^2 leaves the float range")
    # the search runs on the spec rescaled to D = 1 and max sigma = 1, whose
    # objective at levels v = u / D is E(u) * unit
    sigmas = np.sqrt(spec.s2 / np.max(spec.s2))
    message = "the oracle's rescaled noise levels sigma_t / max sigma leave the float range"
    require(bool(np.all(sigmas * sigmas >= sys.float_info.min)), "out_of_range", message)
    with np.errstate(over="ignore"):
        h = spec.h / D / D
        require(bool(np.all(h < math.inf)), "out_of_range", "the oracle's rescaled offsets h_t / D^2 overflow")
        scaled = IterationSpec.from_arrays(1.0, spec.c, h, sigmas)
        radii = _levels(scaled, np.ones(T - 1))[:-1]
        # the objective is at most sum_t r_t^2 / sigma_{t-1}^2 on the search box
        top = float(np.sum((scaled.c * radii**2 + scaled.h) / scaled.s2))
    require(top < math.inf, "out_of_range", "the oracle's search box overflows the float range")
    upper, s2 = radii[1:], scaled.s2

    from scipy import optimize  # here, so that pabi loads scipy only when a search runs

    def fun(v):
        return objective_E(scaled, v)

    def jac(v):
        return 2.0 * _residuals(scaled, np.concatenate(([1.0], v, [0.0]))) / s2[:-1] / s2[1:]

    rng = np.random.default_rng(seed)
    starts = [np.minimum(np.arange(T - 1, 0, -1) / T, upper), upper / 2.0]
    while len(starts) < restarts:
        starts.append(rng.uniform(0.0, upper))
    starts = starts[:restarts]
    bounds = [(0.0, float(b)) for b in upper]

    options = {"maxiter": 500, "maxfun": 20000, "ftol": 1e-15, "gtol": 1e-10}
    results = [
        optimize.minimize(fun, x0, method="L-BFGS-B", jac=jac, bounds=bounds, options=options)
        for x0 in starts
    ]
    best_idx = min(range(len(results)), key=lambda i: (results[i].fun, i))
    best = results[best_idx]
    x = np.clip(np.asarray(best.x, dtype=float), 0.0, upper)
    _certify_stationary(jac(x), x, upper, fun(x), tol)
    return _solution(spec, np.concatenate(([D], x * D, [0.0])))
