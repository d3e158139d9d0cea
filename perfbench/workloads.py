"""The three benchmark workloads: their inputs, operations and output checks.

Every input is derived from the workload seed.  Operations whose outputs
are checked against recorded values draw their inputs from fixed pools
(pool entry i is generated from a constant salt and i), and the seed picks
and orders the pool entries; that way any seed reproduces inputs whose
correct outputs were recorded from the seed commit in golden.json.

A workload runs in rounds.  One round holds a fixed number of operations
of each kind in a fixed order of kinds, so every round does the same
amount of work and runs of different seeds stay comparable (peak memory
included).  The cli deck is one pool, so there the seed sets the order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import pabi
import pabi.cli

REL_TOL = 1e-12  # scalar certificates vs recorded values
ORACLE_GAP = 1e-6  # A1: relative closed-form vs oracle gap
ORACLE_IMPROVEMENT = 1e-8  # A1: the oracle may not beat the closed form by more
PREFIX_CHAINS = 8  # rows of run_chains compared with a separate small run


@dataclass(frozen=True)
class Size:
    """Problem sizes; FULL is the benchmark, TINY the self-test."""

    step_horizons: tuple  # (T, per round) of per-step certificates
    long_horizon: int  # one per-step certificate per round at this T, the headline
    uniform_horizon: int
    special_horizon: int
    eps_batch: int
    sweep_grid: int
    validate_chains: int
    long_chains: int
    long_steps: int
    sgd_chains: int
    sgd_steps: int
    oracle_checks: int
    cli_deck: tuple  # names of the CLI_DECK entries used


@dataclass
class Op:
    """One timed operation and how to check what it returned."""

    kind: str
    key: str  # golden.json key of the recorded output
    run: Callable[[], Any]  # the timed call
    summary: Callable[[Any], Any]  # JSON-able output compared with the record
    rules: Callable[[Any], list] = lambda result: []  # checks that need no record
    exact: bool = True  # False: floats compared within REL_TOL
    work: int = 1  # units behind the workload's named rate
    in_process: bool = True


def digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


def compare(actual, expected, exact: bool) -> str | None:
    """None when actual matches the record, else a short description."""
    if exact:
        return None if actual == expected else f"got {actual!r}, recorded {expected!r}"
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return f"keys {sorted(actual)} differ from recorded {sorted(expected)}"
        for k in expected:
            err = compare(actual[k], expected[k], False)
            if err:
                return f"{k}: {err}"
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"length {len(actual)} differs from recorded {len(expected)}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            err = compare(a, e, False)
            if err:
                return f"[{i}]: {err}"
        return None
    if isinstance(expected, float):
        if not math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0):
            return f"{actual!r} differs from recorded {expected!r} by more than {REL_TOL:g} relative"
        return None
    return None if actual == expected else f"got {actual!r}, recorded {expected!r}"


class Workload:
    """Common plumbing: seeded pool order and optional spans."""

    name = ""
    headline: tuple = ()  # kinds behind op_p50_s
    alt: tuple = ()  # kinds behind alt_op_p50_s
    mix: dict  # kind -> (operations per round, pool size)

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self.tracer = None
        rng = np.random.default_rng([0xBE7C, seed])
        self.perm = {kind: rng.permutation(pool) for kind, (_, pool) in self.mix.items()}

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def pool_index(self, kind: str, round_index: int, j: int) -> int:
        per_round, pool = self.mix[kind]
        return int(self.perm[kind][(per_round * round_index + j) % pool])

    def round(self, round_index: int) -> list:
        return [
            self.make(kind, self.pool_index(kind, round_index, j))
            for kind, (per_round, _) in self.mix.items()
            for j in range(per_round)
        ]

    def all_ops(self):
        """Every pool entry once; used to record golden.json."""
        for kind, (_, pool) in self.mix.items():
            for index in range(pool):
                yield self.make(kind, index)

    def make(self, kind: str, index: int) -> Op:
        raise NotImplementedError

    def probes(self) -> list:
        """Extra operations of the traced run only, outside the rounds."""
        return []


# ---------------------------------------------------------------------------
# cli
#
# Why: this is how users query certificates.  Each operation is a fresh
# `python -m pabi.cli` process, so interpreter start-up and `import pabi`
# (numpy, scipy) dominate, and every compute module does almost no work.
# Stresses: import, cli argument handling and formatting.  Bypasses: long
# horizons and large Monte-Carlo runs.  Closed loop with one client: the
# next query starts when the previous one has exited.
# ---------------------------------------------------------------------------

# Every README example except `simulate validate-mixing`, plus refusals
# that must exit 2 with the given JSON code.  (name, argv, refusal code)
CLI_DECK = (
    ("bound", "bound --alpha 1 --D 1 --T 4 --sigma 1 --c 1 --h 0", None),
    ("bound-pla-kl", "bound --alpha 1 --D 1 --eta 0.25 --h 0 --T 1 --pla-kl", None),
    ("shifts", "shifts --D 1 --T 2 --sigma 1 --c 1.01,1 --h 4,4", None),
    ("shifts-oracle", "shifts --D 1 --T 2 --sigma 1 --c 1.01,1 --h 4,4 --oracle --format json", None),
    ("mixing-threshold", "mixing threshold --p 0.5 --M 2 --D 1", None),
    ("mixing-weakly-smooth",
     "mixing weakly-smooth --D 1 --eta 0.037037037037037035 --p 0.5 --M 2 --eps 0.5", None),
    ("mixing-dissipative",
     "mixing dissipative --D 1 --eta 0.5 --lam 0.1 --kappa 1 --beta 1 --eps 0.5", None),
    ("privacy-epsilon",
     "privacy epsilon --n 1000 --b 1 --L 1 --M 2 --p 1 --eta 0.01 --sigma 32 --alpha 2 "
     "--T 100000 --D 1 --format json", None),
    ("privacy-sweep",
     "privacy sweep --n 1000 --L 1 --M 2 --D 1 --p 0.2,0.4,0.6,1 "
     "--eta-grid geometric:1e-3,0.251,100", None),
    ("simulate-run",
     "simulate run --potential power --p 0.5 --M 2 --D 1 --eta 0.037 --T 27 --chains 1000 --seed 7",
     None),
    ("refuse-sampling-rate",
     "privacy epsilon --n 10 --b 5 --L 1 --M 2 --p 1 --eta 0.01 --sigma 32 --alpha 2 "
     "--T 100000 --D 1", "sampling_rate"),
    ("refuse-stepsize-threshold",
     "simulate validate-mixing --potential power --p 0.5 --M 2 --D 1 --eta 0.5",
     "stepsize_threshold"),
    ("refuse-log-upper-form", "bound --alpha 2 --D 1 --T 10 --sigma 1 --c 1.5 --h 0 --form log-upper",
     "form"),
    ("refuse-per-step-length", "shifts --D 1 --T 3 --sigma 1 --c 1,1 --h 0", "c"),
)


class CliWorkload(Workload):
    name = "cli"
    headline = ("query", "refusal")
    alt = ("refusal",)

    def __init__(self, seed: int, size: Size, root: str, in_process: bool = False):
        deck = [entry for entry in CLI_DECK if entry[0] in size.cli_deck]
        self.deck = {entry[0]: entry for entry in deck}
        self.mix = {"deck": (len(deck), len(deck))}
        super().__init__(seed, size)
        self.root = root
        # The traced run also calls pabi.cli.main in this process, so the
        # query time splits into start-up and main.
        self.in_process = in_process

    def round(self, round_index: int) -> list:
        ops = super().round(round_index)
        if not self.in_process:
            return ops
        out = []
        for op in ops:
            out.append(op)
            out.append(self._main_op(op.key.split("/", 1)[1]))
        return out

    def make(self, kind: str, index: int) -> Op:
        return self._query_op(list(self.deck)[index])

    def _rules(self, code):
        def rules(result):
            exit_code, _, stderr = result
            if code is None:
                return [] if exit_code == 0 else [f"exit {exit_code}: {stderr[-300:]!r}"]
            try:
                got = json.loads(stderr)["code"]
            except (ValueError, KeyError, TypeError):
                got = None
            if exit_code != 2 or got != code:
                return [f"expected exit 2 with code {code!r}, got exit {exit_code}, {stderr[-300:]!r}"]
            return []

        return rules

    @staticmethod
    def _summary(result):
        exit_code, stdout, _ = result
        return {"exit": exit_code, "stdout_sha256": hashlib.sha256(stdout).hexdigest()}

    def _query_op(self, name: str) -> Op:
        _, argv, code = self.deck[name]
        cmd = [sys.executable, "-m", "pabi.cli", *argv.split()]

        def run():
            # PYTHONPATH (./src) and the thread caps come from run.prepare
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")

        return Op(
            kind="query" if code is None else "refusal",
            key=f"cli/{name}",
            run=run,
            summary=self._summary,
            rules=self._rules(code),
            in_process=False,
        )

    def _main_op(self, name: str) -> Op:
        _, argv, code = self.deck[name]
        args = argv.split()

        def run():
            out, err = io.StringIO(), io.StringIO()
            with self.span(f"cli.{args[0]}.main"), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                exit_code = pabi.cli.main(args)
            return exit_code, out.getvalue().encode(), err.getvalue()

        return Op(
            kind="main",
            key=f"cli/{name}",
            run=run,
            summary=self._summary,
            rules=self._rules(code),
        )


# ---------------------------------------------------------------------------
# certify
#
# Why: long-horizon certificates, the library's main computation.  Most of
# the time goes to shifts (IterationSpec, solve_closed_form, the
# stationarity check), bounds (renyi_bound_general, the dissipative series)
# and moduli at horizons 1e4 to 1e9, and to the privacy accountant.
# Bypasses: simulate and scipy.optimize, and interpreter start-up.
# ---------------------------------------------------------------------------

SPECIAL_CS = (0.5, 0.9, 0.99, 0.999999)  # fixed so each op costs the same


def step_inputs(horizon: int, index: int):
    """Seeded random per-step spec, the conftest ranges at long horizons."""
    rng = np.random.default_rng([0xCE57, horizon, index])
    return {
        "diameter": float(rng.uniform(0.5, 4.0)),
        "alpha": float(rng.uniform(1.0, 4.0)),
        "c": rng.uniform(0.5, 1.5, horizon).tolist(),
        "h": rng.uniform(0.0, 2.0, horizon).tolist(),
        "sigma": rng.uniform(0.1, 2.0, horizon).tolist(),
    }


def privacy_spec(rng) -> pabi.PrivacySpec:
    """A7-style random accountant input (same recipe as the acceptance test)."""
    n = int(rng.integers(500, 50000))
    q = float(rng.uniform(0.001, 0.19))
    b = q * n
    L = float(rng.uniform(0.5, 2.0))
    sigma = (8.0 * math.sqrt(2.0) * L / b) * float(rng.uniform(1.05, 3.0))
    sigma_red = b * sigma / (2.0 * math.sqrt(2.0) * L)
    star = pabi.alpha_star(b / n, sigma_red)
    alpha = 1.0 + (min(star, 50.0) - 1.0) * float(rng.uniform(0.1, 0.9))
    eta = float(rng.uniform(1e-4, 0.1))
    M = float(rng.uniform(0.5, 4.0))
    p = float(rng.choice([0.0, 0.3, 0.7, 1.0]))
    D = float(rng.uniform(0.5, 2.0))
    tb = pabi.tbar(D, n, eta, L)
    cap = 2 * tb + pabi.v_term(D, M, tb, eta, p)
    T = int(max(tb + 1, 0.5 * cap)) if rng.random() < 0.5 else int(2.0 * cap) + 2
    return pabi.PrivacySpec(n=n, b=b, L=L, M=M, p=p, eta=eta, sigma=sigma, alpha=alpha, T=T, D=D)


EPS_POOL = 1000
EPS_BATCHES = 64


class CertifyWorkload(Workload):
    name = "certify"
    headline = ("step-long",)
    alt = ("epsilons",)

    def __init__(self, seed: int, size: Size):
        self.mix = {
            **{f"step-{T}": (per, 16) for T, per in size.step_horizons},
            "step-long": (1, 8),
            "uniform": (1, 16),
            "special": (1, 16),
            "epsilons": (2, EPS_BATCHES),
            "sweep": (1, 1),
        }
        super().__init__(seed, size)
        rng = np.random.default_rng(0xE95)
        self.privacy_specs = [privacy_spec(rng) for _ in range(EPS_POOL)]

    def make(self, kind: str, index: int) -> Op:
        size = self.size
        if kind.startswith("step-"):
            horizon = size.long_horizon if kind == "step-long" else int(kind[5:])
            return self._step_op(kind, horizon, index)
        if kind == "uniform":
            return self._uniform_op(index)
        if kind == "special":
            return self._special_op(index)
        if kind == "epsilons":
            return self._eps_op(index)
        return self._sweep_op()

    def _step_op(self, kind: str, horizon: int, index: int) -> Op:
        inputs = step_inputs(horizon, index)
        # The stationarity check costs as much as the rest of a
        # certificate; it runs below the headline horizon only.
        check_stationarity = kind != "step-long"

        def run():
            with self.span("shifts.iteration_spec"):
                spec = pabi.IterationSpec(
                    diameter=inputs["diameter"],
                    sigmas=tuple(inputs["sigma"]),
                    moduli=tuple(pabi.QuadraticModulus(c, h) for c, h in zip(inputs["c"], inputs["h"])),
                )
            sol = pabi.solve_closed_form(spec)
            bound = pabi.renyi_bound_general(inputs["alpha"], spec)
            residual = None
            if check_stationarity:
                residual = float(np.max(np.abs(pabi.stationarity_residuals(spec, sol.u))))
            return sol.objective, bound.value, residual, max(sol.u)

        def rules(result):
            objective, bound, residual, u_max = result
            errors = []
            if abs(bound - 0.5 * inputs["alpha"] * objective) > 1e-10 * bound:
                errors.append("renyi_bound_general != alpha/2 * closed-form objective")
            if residual is not None:
                scale = max(1.0, u_max) * max(inputs["sigma"]) ** 2 * 3.0
                if not residual <= 1e-9 * scale:
                    errors.append(f"stationarity residual {residual:.3e} too large")
            return errors

        return Op(
            kind=kind,
            key=f"certify/step/T={horizon}/i={index}",
            run=run,
            summary=lambda r: {"objective": r[0], "bound": r[1]},
            rules=rules,
            exact=False,
            work=horizon,
        )

    def _uniform_op(self, index: int) -> Op:
        horizon = self.size.uniform_horizon
        rng = np.random.default_rng([0x0F1, index])
        D, c, h, sigma, alpha = (float(x) for x in rng.uniform([0.5, 0.5, 0.0, 0.1, 1.0],
                                                                  [4.0, 1.5, 2.0, 2.0, 4.0]))

        def run():
            with self.span("shifts.iteration_spec"):
                spec = pabi.IterationSpec.uniform(D, horizon, pabi.QuadraticModulus(c, h), sigma)
            return pabi.renyi_bound_general(alpha, spec).value

        return Op("uniform", f"certify/uniform/T={horizon}/i={index}", run,
                  summary=lambda v: v, exact=False, work=horizon)

    def _special_op(self, index: int) -> Op:
        horizon = self.size.special_horizon
        exact_horizon = self.size.uniform_horizon
        rng = np.random.default_rng([0x5EC, index])
        alpha, D, h, sigma = (float(x) for x in rng.uniform([1.0, 0.5, 0.0, 0.1], [4.0, 4.0, 2.0, 2.0]))

        def run():
            values = []
            for c in SPECIAL_CS:
                for form in ("exact-sum", "log-upper"):
                    values.append(pabi.renyi_bound_dissipative(alpha, D, c, h, sigma, horizon, form).value)
            for T in (exact_horizon, horizon):
                values.append(pabi.renyi_bound_sqrt_shift(alpha, D, h, sigma, T).value)
            return values

        return Op("special", f"certify/special/T={horizon}/i={index}", run,
                  summary=lambda v: v, exact=False)

    def _eps_op(self, index: int) -> Op:
        # Batch i is a fixed subset of the recorded pool; the seed picks batches.
        rng = np.random.default_rng([0xE95, index])
        picks = rng.choice(EPS_POOL, self.size.eps_batch, replace=False).tolist()
        specs = [self.privacy_specs[i] for i in picks]

        def run():
            return [pabi.epsilon_nsgd(spec) for spec in specs]

        def summary(results):
            return {str(i): [r.epsilon, r.regime] for i, r in zip(picks, results)}

        return Op("epsilons", "certify/epsilons", run, summary, exact=False, work=len(specs))

    def _sweep_op(self) -> Op:
        # One large stepsize sweep around the acceptance test's base spec.
        base = pabi.PrivacySpec(n=1000, b=1.0, L=1.0, M=2.0, p=1.0, eta=0.001,
                                sigma=32.0, alpha=2.0, T=2, D=1.0)
        grid = np.geomspace(1e-3, 10.0 ** -0.6, self.size.sweep_grid).tolist()
        p_values = [0.2, 0.4, 0.6, 0.8, 1.0]

        def run():
            return pabi.privacy_curve_sweep(base, grid, p_values=p_values)

        def summary(rows):
            stride = max(1, len(rows) // 50)
            return {
                "rows": len(rows),
                "sum_bound": math.fsum(r["bound"] for r in rows),
                "sum_ln_bound": math.fsum(r["ln_bound"] for r in rows),
                "sampled_ln_bound": [r["ln_bound"] for r in rows[::stride]],
            }

        return Op("sweep", f"certify/sweep/G={len(grid)}", run, summary, exact=False)

    def all_ops(self):
        for kind, (_, pool) in self.mix.items():
            if kind == "epsilons":
                continue
            for index in range(pool):
                yield self.make(kind, index)
        # the whole pool, so any seeded subset has recorded values
        specs = self.privacy_specs
        yield Op("epsilons", "certify/epsilons",
                 lambda: [pabi.epsilon_nsgd(s) for s in specs],
                 lambda results: {str(i): [r.epsilon, r.regime] for i, r in enumerate(results)},
                 exact=False)


# ---------------------------------------------------------------------------
# witness
#
# Why: the independent checks that keep the certificates honest.  It uses
# shifts differently from certify (many tiny horizons through the scipy
# optimizer) and simulate in two shapes: validate_mixing_bound is wide
# (1e5 chains x 27 steps, stream set-up dominates) and run_chains is long
# (2000 chains x 5000 steps, stepping and projection dominate), so a fix
# for one shape that costs the other shows.  Bypasses: bounds, privacy
# and long horizons.
# ---------------------------------------------------------------------------

A1_SEED = 20240817
A1_INSTANCES = 200
VALIDATE_ETA = 0.037037037037037035  # t_star = ceil(1 / eta) = 27 at D = 1


def a1_instances() -> list:
    """The acceptance test's A1 instance set (conftest random_spec, T <= 8)."""
    rng = np.random.default_rng(A1_SEED)
    specs = []
    for _ in range(A1_INSTANCES):
        horizon = int(rng.integers(2, 9))
        c = rng.uniform(0.5, 1.5, horizon)
        h = rng.uniform(0.0, 2.0, horizon)
        sig = rng.uniform(0.1, 2.0, horizon)
        diameter = float(rng.uniform(0.5, 4.0))
        moduli = tuple(pabi.QuadraticModulus(float(a), float(b)) for a, b in zip(c, h))
        specs.append(pabi.IterationSpec(diameter=diameter, sigmas=tuple(float(s) for s in sig),
                                        moduli=moduli))
    return specs


def long_config(size: Size, index: int, sigma=None) -> tuple:
    rng = np.random.default_rng([0x10C, index])
    radius, angle = rng.uniform([0.0, 0.0], [0.45, 2.0 * math.pi])
    init = np.array([radius * math.cos(angle), radius * math.sin(angle)])
    eta = 0.01
    config = pabi.ChainConfig(
        dim=2, diameter=1.0, eta=eta, sigma=math.sqrt(2.0 * eta) if sigma is None else sigma,
        T=size.long_steps, n_chains=size.long_chains, seed=200 + index, kind="ball",
    )
    return config, init


def _sgd_grad(x, z):
    return x - z


class WitnessWorkload(Workload):
    name = "witness"
    headline = ("validate",)
    alt = ("chains",)

    def __init__(self, seed: int, size: Size):
        self.mix = {
            "validate": (2, 8),
            "chains": (2, 8),
            "sgd": (1, 8),
            "oracle": (size.oracle_checks, A1_INSTANCES),
        }
        super().__init__(seed, size)
        self.instances = a1_instances()
        self.potential = pabi.PowerWeaklySmooth(0.5, 2.0)

    def make(self, kind: str, index: int) -> Op:
        return getattr(self, f"_{kind}_op")(index)

    def _oracle_op(self, index: int) -> Op:
        spec = self.instances[index]

        def run():
            closed = pabi.solve_closed_form(spec)
            oracle = pabi.numeric_oracle(spec, restarts=8, tol=1e-4, seed=index)
            return closed.objective, oracle.objective

        def rules(result):
            closed, oracle = result
            gap = abs(oracle - closed) / closed
            if gap > ORACLE_GAP or closed - oracle > ORACLE_IMPROVEMENT:
                return [f"oracle gap {gap:.3e}, improvement {closed - oracle:.3e}"]
            return []

        return Op("oracle", f"witness/oracle/i={index}", run, summary=lambda r: r[0],
                  rules=rules, exact=False)

    def _validate_op(self, index: int) -> Op:
        n = self.size.validate_chains

        def run():
            return pabi.validate_mixing_bound(self.potential, 1.0, VALIDATE_ETA, n_chains=n,
                                              seed=300 + index)

        def rules(report):
            if report["pass"] is not True or report["config"]["t_star"] != 27:
                return [f"validate_mixing_bound: pass={report['pass']}, "
                        f"t_star={report['config']['t_star']}"]
            return []

        # seeded chains promise bit-identical reports
        return Op("validate", f"witness/validate/n={n}/i={index}", run,
                  summary=lambda report: json.dumps(report, sort_keys=True), rules=rules)

    def _chains_op(self, index: int, sigma=None) -> Op:
        config, init = long_config(self.size, index, sigma)

        def run():
            return pabi.run_chains(self.potential, config, init)

        def rules(samples):
            small = dataclasses.replace(config, n_chains=PREFIX_CHAINS)
            prefix = pabi.run_chains(self.potential, small, init)
            if not np.array_equal(samples[:PREFIX_CHAINS], prefix):
                return [f"first {PREFIX_CHAINS} chains differ from a separate {PREFIX_CHAINS}-chain run"]
            return []

        kind = "chains" if sigma is None else "chains-noiseless"
        return Op(kind, f"witness/{kind}/n={config.n_chains}/T={config.T}/i={index}", run,
                  summary=digest, rules=rules, work=config.n_chains * config.T)

    def _sgd_op(self, index: int) -> Op:
        size = self.size
        rng = np.random.default_rng([0x5CD, index])
        data = [float(z) for z in rng.uniform(-0.5, 0.5, 50)]
        eta = 0.05
        config = pabi.ChainConfig(dim=1, diameter=1.0, eta=eta, sigma=4.0 * eta, T=size.sgd_steps,
                                  n_chains=size.sgd_chains, seed=400 + index)

        def run():
            return pabi.run_noisy_sgd(data, _sgd_grad, config, 5.0, 0.0)

        return Op("sgd", f"witness/sgd/n={config.n_chains}/T={config.T}/i={index}", run,
                  summary=digest, work=config.n_chains * config.T)

    def probes(self) -> list:
        """The long shape again at sigma = 0: stepping without streams."""
        op = self._chains_op(int(self.perm["chains"][0]), sigma=0.0)
        inner = op.run

        def run():
            with self.span("simulate.run_chains_noiseless"):
                return inner()

        op.run = run
        return [op]

    def all_ops(self):
        yield from super().all_ops()
        for index in range(self.mix["chains"][1]):
            yield self._chains_op(index, sigma=0.0)


FULL = Size(
    step_horizons=((10**4, 4), (10**5, 1)),
    long_horizon=10**6,
    uniform_horizon=10**6,
    special_horizon=10**9,
    eps_batch=800,
    sweep_grid=20000,
    validate_chains=100_000,
    long_chains=2000,
    long_steps=5000,
    sgd_chains=2000,
    sgd_steps=200,
    oracle_checks=8,
    cli_deck=tuple(entry[0] for entry in CLI_DECK),
)

TINY = Size(
    step_horizons=((100, 1), (1000, 2)),
    long_horizon=10**4,
    uniform_horizon=10**4,
    special_horizon=10**6,
    eps_batch=20,
    sweep_grid=200,
    validate_chains=10_000,
    long_chains=64,
    long_steps=200,
    sgd_chains=64,
    sgd_steps=20,
    oracle_checks=2,
    cli_deck=("bound", "mixing-threshold", "refuse-sampling-rate"),
)


def make_workload(name: str, seed: int, size: Size, root: str, traced: bool = False) -> Workload:
    if name == "cli":
        return CliWorkload(seed, size, root, in_process=traced)
    if name == "certify":
        return CertifyWorkload(seed, size)
    if name == "witness":
        return WitnessWorkload(seed, size)
    raise ValueError(f"unknown workload {name!r}")


def load_golden(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check(op: Op, result, golden: dict) -> list:
    """Error messages for one operation's result; empty when correct."""
    errors = list(op.rules(result))
    if op.key not in golden:
        return errors + ["no recorded output"]
    expected = golden[op.key]
    actual = op.summary(result)
    if op.kind == "epsilons":  # a seeded subset of the recorded pool
        expected = {k: expected[k] for k in actual if k in expected}
    err = compare(actual, expected, op.exact)
    if err:
        errors.append(err)
    return errors
