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

from ._util import check, integer, np, require
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
    The backward weights of _tail_weights, mantissas and exponents, are
    computed on first use and cached, read-only, on the spec, so that
    solve_closed_form and renyi_bound_general share one backward pass; a
    spec never changes, so the cache cannot go stale.
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
        """_tail_weights(c, s2): mantissas and exponents of g_0 .. g_{T-1}."""
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
    # levels past the float range (a diameter near 1e154 or more) give inf - inf shifts
    require(objective < math.inf, "out_of_range", "the shift objective overflows the float range")
    u.flags.writeable = a.flags.writeable = False
    return ShiftSolution(u=u, a=a, objective=objective)


# Both recursions run their first steps, fewer than _BLOCK, one by one and
# move each later block of _BLOCK steps by one affine map of _scan, built
# _CHUNK steps at a time so that temporaries stay O(_CHUNK); a block whose
# scaled values could leave their window, which ends at _TOP, first moves the
# carry's scale by 2^480 either way, and runs its per-step loop only where no
# single such move fits it.  So horizons below _BLOCK round exactly as those
# loops, and every horizon agrees with them within 1e-12 relative.
_BLOCK = 256
_CHUNK = 65536
_TOP = 2.0**960
# the one move of a carry's scale that _scan tries before a block's loop
_MOVE = 480
# relative margin on a block's bounds, far above the rounding of its map
_SLACK = 2.0**-40


def _scan(p, q, carry: tuple, steps, floor: float) -> tuple:
    """Blocks of the positive affine recursion x' = (x + q_i) / p_i, one map per block.

    q >= 0 and p, the products P_i = p_0 ... p_i > 0, hold one row per
    block, steps in the order the recursion runs; the carry (x, s) is the
    value x * 2^s.  From X at a block's start, step i gives (X + Q_i) /
    P_i with Q_i = sum_{j<=i} q_j P_{j-1}, P_{-1} = 1: the caller's cumprod
    and a cumsum, the blocked scan of Blelloch 1990.  As P > 0 and Q is
    nondecreasing, (x + Q_0 2^-s) / max P and (x + Q_last 2^-s) / min P
    bound the block's values on the carry's scale.  A block whose bounds
    leave [floor, _TOP] (from the least normal float where s = 0) first
    tries one exact move of the carry to the scale s + 480 or s - 480 (at
    floor 1, as for the weights, a move below s = 0 never fits: a block
    below the least normal float at s = 0 stays below 2^-542); a block
    whose P leaves the normal floats, or that no such move fits, runs
    steps(b, carry), which writes its own output and returns the next
    carry, perhaps on a new scale.  Returns the values on their block's
    scale, the scales and a mapped flag per block as columns, and the last
    carry.
    """
    sums = np.empty_like(p)  # Q
    sums[:, 0] = q[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked per block below
        np.multiply(q[:, 1:], p[:, :-1], out=sums[:, 1:])
        np.cumsum(sums, axis=1, out=sums)
    p_min, p_max = p.min(axis=1).tolist(), p.max(axis=1).tolist()
    q_first, q_last, p_last = sums[:, 0].tolist(), sums[:, -1].tolist(), p[:, -1].tolist()

    def fits(b, x, s) -> bool:
        # 2^-s past the float range (levels below 2^-512): inf or nan fails the window
        inv = math.ldexp(1.0, -s) if s > -1024 else math.inf
        low = floor if s else sys.float_info.min
        return (
            low <= (x + inv * q_first[b]) / p_max[b] * (1.0 - _SLACK)
            and (x + inv * q_last[b]) / p_min[b] * (1.0 + _SLACK) <= _TOP
        )

    x, s = carry
    blocks = []  # (mapped, x, s) at each block's start
    for b in range(len(p_last)):
        ok = sys.float_info.min <= p_min[b] and p_max[b] < math.inf
        if ok and not fits(b, x, s):
            for move in (_MOVE, -_MOVE):
                moved = x * 2.0**-move  # exact unless it leaves the normal floats, caught by the test below
                ok = moved * 2.0**move == x and fits(b, moved, s + move)
                if ok:
                    x, s = moved, s + move
                    break
        blocks.append((ok, x, s))
        if ok:
            x = (x + math.ldexp(1.0, -s) * q_last[b]) / p_last[b]
        else:
            x, s = steps(b, (x, s))
    mapped, xs, scales = (np.array(column)[:, None] for column in zip(*blocks))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # in blocks that ran step by step
        sums *= np.ldexp(1.0, -scales)
        sums += xs
        sums /= p
    return sums, scales, mapped, (x, s)


def _tail_weights(c: np.ndarray, s2: np.ndarray) -> tuple:
    """Backward weights g_t = (s2_t + g_{t+1}) / c_t, g_T = 0, for t = T-1 .. 0.

    Read-only float mantissas m and int64 exponents e, g_t = m_t * 2^e_t,
    e_t a multiple of 480 and m_t in [1, 2^960] wherever e_t > 0.  Steps
    t < T mod _BLOCK run the loop of _weight_steps; every other block is
    one map (G + R_i) / P_i of _scan, p = c and q = s2, on the carry's
    scale or on one 2^480 move of it, and runs the loop only where no such
    move fits it.  So horizons below _BLOCK round
    exactly as that loop, longer ones within 1e-12 relative of it.
    Read once per spec, via IterationSpec._g.
    """
    T = len(c)
    m, e = np.empty(T), np.empty(T, dtype=np.int64)
    first, carry = T % _BLOCK, (0.0, 0)
    for hi in range(T, first, -_CHUNK):
        lo = max(hi - _CHUNK, first)
        # rows are blocks, columns steps, both in the order the recursion runs: t descending
        c_rows, s2_rows, m_rows, e_rows = (x[lo:hi][::-1].reshape(-1, _BLOCK) for x in (c, s2, m, e))

        def steps(b, carry):
            return _weight_steps(c, s2, m, e, hi - (b + 1) * _BLOCK, hi - b * _BLOCK, carry)

        with np.errstate(over="ignore"):  # checked per block in _scan
            p = np.cumprod(c_rows, axis=1)
        values, scales, mapped, carry = _scan(p, s2_rows, carry, steps, 1.0)
        np.copyto(m_rows, values, where=mapped)
        np.copyto(e_rows, scales, where=mapped)
    _weight_steps(c, s2, m, e, 0, first, carry)
    m.flags.writeable = e.flags.writeable = False
    return m, e


def _weight_steps(c, s2, m, e, lo: int, hi: int, carry: tuple) -> tuple:
    """The loop: g_t for t = hi-1 .. lo into m, e, from the carry g_hi = acc * 2^scale.

    A plain-float loop with scale 0 until the running sum passes 2^960;
    from then on, while scale > 0, exact moves by 2^480 keep the sum in
    [1, 2^960], and s2_t enters as s2_t * 2^-scale (where that underflows,
    it lies below half an ulp of the sum).  Every step rounds as a plain
    loop with an unbounded exponent range would.  Returns the carry g_lo.
    """
    acc, scale = carry
    inv, low, start = math.ldexp(1.0, -scale), 1.0 if scale else 0.0, hi
    c_list, s2_list = c[lo:hi].tolist(), s2[lo:hi].tolist()
    for t in range(hi - 1, lo - 1, -1):
        total = s2_list[t - lo] * inv + acc
        acc = total / c_list[t - lo]
        if not low <= acc <= _TOP:  # out of the window or the float range: redo the step in frexp form
            e[t + 1 : start], start = scale, t + 1
            (tm, te), (cm, ce) = math.frexp(total), math.frexp(c_list[t - lo])
            bits = te - ce  # total / c_t = (tm / cm) * 2^bits, tm / cm in (1/2, 2)
            while bits >= 960 or (scale and bits < 1):
                step = 480 if bits >= 960 else -480
                bits, scale = bits - step, scale + step
            acc, inv, low = math.ldexp(tm / cm, bits), math.ldexp(1.0, -scale), 1.0 if scale else 0.0
        m[t] = acc
    e[lo:start] = scale
    return acc, scale


def _levels(spec: IterationSpec, ratios: np.ndarray) -> np.ndarray:
    """The forward pass u_0 = D, u_t = ratios[t-1] * phi_{t-1}(u_{t-1}) for 0 < t < T, u_T = 0.

    The first (T-1) mod _BLOCK steps run the loop of _level_steps; every
    other block is one map of _scan on the squared levels, v' = r_t^2 (c_t
    v + h_t) = (v + h_t / c_t) / p_t with p_t = 1 / (r_t^2 c_t), whose
    even scale 2^s keeps the squares of levels past 1e154 or below 1e-154,
    and runs the loop only where its values could leave [2^-960, 2^960]
    on the carry's scale and on each 2^480 move of it.  So horizons below
    _BLOCK round exactly as that loop, longer ones within 1e-12 relative
    of it.
    """
    T = spec.horizon
    u = np.empty(T + 1)
    u[0], u[-1] = spec.diameter, 0.0
    first = (T - 1) % _BLOCK
    carry = _level_steps(spec, ratios, u, 0, first, _split(spec.diameter))
    for lo in range(first, T - 1, _CHUNK):
        hi = min(lo + _CHUNK, T - 1)
        c, h, r = (x[lo:hi].reshape(-1, _BLOCK) for x in (spec.c, spec.h, ratios))
        # 1 / the cumprod of r^2 c, not a cumprod of 1 / (r^2 c), whose reciprocals,
        # rounded at every step, bias long runs of one c; checked per block in _scan
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            p = 1.0 / np.cumprod(r * r * c, axis=1)
            q = h / c

        def steps(b, carry):
            return _level_steps(spec, ratios, u, lo + b * _BLOCK, lo + (b + 1) * _BLOCK, carry)

        values, scales, mapped, carry = _scan(p, q, carry, steps, 1.0 / _TOP)
        with np.errstate(over="ignore", invalid="ignore"):  # in blocks that ran step by step
            levels = np.ldexp(np.sqrt(values), scales // 2)
        np.copyto(u[lo + 1 : hi + 1].reshape(q.shape), levels, where=mapped)
    return u


def _level_steps(spec: IterationSpec, ratios, u, lo: int, hi: int, carry: tuple) -> tuple:
    """The loop: u_{t+1} = ratios[t] * phi_t(u_t) for t = lo .. hi-1, in plain floats.

    Starts from u_lo^2 = x * 2^s, carry = (x, s) with s even, and returns
    the carry u_hi^2 = _split(u_hi).
    """
    x, s = carry
    try:
        level = math.ldexp(math.sqrt(x), s // 2)
    except OverflowError:
        level = math.inf
    out = []
    for ct, ht, rt in zip(*(arr[lo:hi].tolist() for arr in (spec.c, spec.h, ratios))):
        level = rt * math.sqrt(ct * level * level + ht)
        out.append(level)
    u[lo + 1 : hi + 1] = out
    return _split(level)


def _split(level: float) -> tuple:
    """level^2 as (x, s), level^2 = x * 2^s with s even: exact, as sqrt(x) * 2^(s/2) gives level back."""
    mantissa, exponent = math.frexp(level)
    return mantissa * mantissa, 2 * exponent


def solve_closed_form(spec: IterationSpec) -> ShiftSolution:
    """Unique minimizer of the shift objective via the backward weight recursion.

    Backward pass: g_t = (sigma_t^2 + g_{t+1}) / c_t accumulates tail noise
    weights normalized by the running contraction product (g_t equals the
    tail sum S_t = sum_{j>=t} sigma_j^2 prod_{l>j} c_l divided by
    prod_{l>=t} c_l).  Forward pass (_levels, given the ratios as one array):
    u_t is the tail-to-total weight ratio times phi_{t-1}(u_{t-1}),

        u_t = g_t / (sigma_{t-1}^2 + g_t) * phi_{t-1}(u_{t-1}),

    evaluated as m_t / (sigma_{t-1}^2 * 2^-e_t + m_t) on g_t = m_t * 2^e_t,
    so that a g_t past the float range still gives its own ratio.  Every
    shift is a_t = w_t * phi_{t-1}(u_{t-1}), with the complement w_t =
    sigma_{t-1}^2 2^-e_t / (sigma_{t-1}^2 2^-e_t + m_t) and w_T = 1, never
    phi_{t-1}(u_{t-1}) - u_t: a difference of two rounded levels would lose
    a shift far below them.  The objective sums a_t^2 / sigma_{t-1}^2.
    Precision: at horizons below _BLOCK the weights and levels round
    exactly as the per-step loops of _tail_weights and _levels; at every
    horizon they, and so the shifts and the objective, agree with those
    loops within 1e-12 relative.
    """
    m, e = (arr[1:] for arr in spec._g)
    w = np.ldexp(spec.s2[:-1], -e)  # sigma_{t-1}^2 on the scale of g_t
    total = w + m
    u = _levels(spec, m / total)
    with np.errstate(over="ignore", invalid="ignore"):  # refused in _solution
        a = _phi(spec, u[:-1])
        a[:-1] *= w / total
    del w, total
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
    phi = _phi(spec, np.maximum(u[:-1], 0.0))
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
