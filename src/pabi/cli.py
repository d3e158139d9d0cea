"""Command-line frontend.

Subcommands: bound, shifts, mixing, privacy (epsilon, sweep), simulate.
Every run is fully determined by its flags plus the seed.  Every result
leaves once, through _emit: as one JSON line under --format json and from
the leaves with no CSV form (`shifts --oracle`, `simulate validate-mixing`),
else as CSV lines, which only then are formatted.  CSV floats carry 17
significant digits (_fmt); JSON floats use Python's exact shortest
round-trip representation, and every JSON the CLI prints is strict: a
float that is not finite is written as null.  --config reads a flat JSON
object (keys = flag names with dashes replaced by underscores) as the flags
it stands for, parsed ahead of the command line, whose flags win.
--echo-config prints the resolved configuration as JSON and exits, and that
output re-fed through --config reproduces the run.  Exit codes: 0 success,
2 violated precondition (JSON {code, message, required_value} on stderr;
code usage or config when argparse refuses the command line or a config
value, horizon_too_large above SPEC_MAX_HORIZON for `shifts` and c > 1
`bound`, out_of_range when finite inputs overflow, oracle_not_certified
when `shifts --oracle` cannot certify its optimum to --tol, eta_grid with
required_value _MAX_SWEEP_ROWS when a sweep table would hold more rows),
1 internal error.

Importing this module loads neither numpy nor scipy.  numpy loads only
when a query builds an array, and scipy only when `shifts --oracle`
searches, so scalar queries (mixing, privacy epsilon, --pla-kl, c = 1
bounds at any horizon, refusals) pay no numpy import at start-up.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .bounds import kl_bound_pla, renyi_bound_uniform
from ._util import check, np, out_of_range, require
from .errors import PreconditionError
from .mixing import mixing_time_dissipative, mixing_time_weakly_smooth, theta_threshold
from .privacy import PrivacySpec, epsilon_nsgd, privacy_curve_sweep
from .shifts import IterationSpec, _check_spec_horizon, numeric_oracle, solve_closed_form
from .simulate import (
    AbsLipschitz,
    ChainConfig,
    DissipativeQuadratic,
    PowerWeaklySmooth,
    QuadraticSmooth,
    run_chains,
    validate_mixing_bound,
)

_META_FLAGS = ("config", "echo_config", "output")
# rows of a privacy sweep table (grid points x p values), each under 1 KB of memory
_MAX_SWEEP_ROWS = 10**6


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _strict(value):
    """value for strict JSON, which has no nan or inf: each float that is not finite becomes None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def _emit(args, payload, csv=None) -> str:
    """payload as one strict JSON line under --format json or without a CSV form (csv None), else csv()'s lines."""
    if csv is None or args.format == "json":
        try:  # a payload is almost always finite: rebuild it with _strict only where it is not
            return json.dumps(payload, allow_nan=False) + "\n"
        except ValueError:
            return json.dumps(_strict(payload)) + "\n"
    return "\n".join(csv()) + "\n"


def _need(args, names):
    for name in names:
        if getattr(args, name, None) is None:
            flag = "--" + name.replace("_", "-")
            raise PreconditionError("missing_flag", f"{flag} is required for this subcommand")


def _float_list(text: str) -> list:
    try:
        out = [float(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise PreconditionError("flag_value", f"not a comma list of numbers: {text!r}") from None
    require(out, "flag_value", f"empty numeric list {text!r}")
    return out


def _parse_grid(text: str, p_count: int) -> list:
    """geometric:start,end,count (endpoints inclusive) or a comma list.

    The table has a row per grid point and p value; more than
    _MAX_SWEEP_ROWS is refused before the grid is built.
    """
    text = text.strip()
    geometric = text.startswith("geometric:")
    if geometric:
        parts = _float_list(text[len("geometric:"):])
        if len(parts) != 3:
            raise PreconditionError("eta_grid", "geometric grid needs start,end,count")
        start, end, count = parts
        if not (1 <= count < math.inf and int(count) == count):
            raise PreconditionError("eta_grid", "grid count must be a positive integer")
        n = int(count)
    else:
        grid = _float_list(text)
        n = len(grid)
    message = f"a sweep table holds at most {_MAX_SWEEP_ROWS} rows, got {n} grid points x {p_count} p values"
    require(n * p_count <= _MAX_SWEEP_ROWS, "eta_grid", message, required_value=_MAX_SWEEP_ROWS)
    if not geometric:
        return grid
    if not (0 < start < math.inf and 0 < end < math.inf):
        raise PreconditionError("eta_grid", "geometric grid endpoints must be positive and finite")
    if n == 1:
        return [start]
    return [float(x) for x in np.geomspace(start, end, n)]  # a math copy of geomspace differs in the last bits


def _per_step(text, horizon: int, name: str) -> list:
    values = _float_list(text)
    if len(values) == 1:
        return values * horizon
    if len(values) != horizon:
        raise PreconditionError(name, f"--{name} needs 1 or {horizon} comma-separated values")
    return values


def _build_potential(args, dim: int):
    kind = args.potential
    if kind == "abs":
        return AbsLipschitz(args.L if args.L is not None else 1.0)
    if kind == "power":
        _need(args, ["p", "M"])
        return PowerWeaklySmooth(args.p, args.M)
    if kind == "quad":
        _need(args, ["beta"])
        return QuadraticSmooth(args.beta)
    # "dissipative", the last of the choices that argparse enforces
    _need(args, ["kappa", "beta", "lam"])
    return DissipativeQuadratic(kappa=args.kappa, beta=args.beta, lam=args.lam, dim=dim)


def _run_bound(args) -> str:
    if args.pla_kl:
        _need(args, ["D", "eta", "h", "T"])
        if args.alpha is not None and args.alpha != 1.0:
            raise PreconditionError("alpha", "--pla-kl bounds KL, order alpha = 1", required_value=1.0)
        value = kl_bound_pla(args.D, args.eta, args.h, args.T)
        return _emit(args, {"kind": "kl-pla", "value": value}, lambda: [_fmt(value)])
    _need(args, ["alpha", "D", "T", "sigma", "c", "h"])
    res = renyi_bound_uniform(args.alpha, args.D, args.c, args.h, args.sigma, args.T, args.form)
    return _emit(args, dataclasses.asdict(res), lambda: [_fmt(res.value)])


def _run_shifts(args) -> str:
    _need(args, ["D", "T", "sigma", "c", "h"])
    horizon = _check_spec_horizon(args.T)
    cs = _per_step(args.c, horizon, "c")
    hs = _per_step(args.h, horizon, "h")
    sigmas = _per_step(args.sigma, horizon, "sigma")
    spec = IterationSpec.from_arrays(args.D, cs, hs, sigmas)
    sol = solve_closed_form(spec)
    u, a = sol.u.tolist(), sol.a.tolist()
    if args.oracle:
        # the relative gap divides by it; it is positive unless it underflowed
        require(sol.objective > 0.0, "out_of_range", "the closed-form objective underflows to 0")
        oracle = numeric_oracle(spec, restarts=args.restarts, tol=args.tol, seed=args.seed)
        gap = (oracle.objective - sol.objective) / sol.objective
        objectives = {"closed_objective": sol.objective, "oracle_objective": oracle.objective, "relative_gap": gap}
        return _emit(args, {"u": u, "a": a, **objectives})
    payload = {"u": u, "a": a, "objective": sol.objective}
    rows = (f"{t},{_fmt(ut)},{_fmt(at)}" for t, (ut, at) in enumerate(zip(u, a)))
    return _emit(args, payload, lambda: ["t,u,a", *rows, f"{horizon},{_fmt(u[-1])},"])


def _run_mixing(args) -> str:
    if args.subcommand == "threshold":
        _need(args, ["p", "M", "D"])
        theta = theta_threshold(args.p, args.M, args.D)
        return _emit(args, {"theta": theta}, lambda: [_fmt(theta)])
    if args.subcommand == "weakly-smooth":
        _need(args, ["D", "eta", "p", "M"])
        result = mixing_time_weakly_smooth(args.D, args.eta, args.p, args.M, args.eps)
    else:
        _need(args, ["D", "eta", "lam", "kappa", "beta"])
        result = mixing_time_dissipative(args.D, args.eta, args.lam, args.kappa, args.beta, args.eps)
    payload = {"t_mix": result.t_mix, **result.constituents, "regime_checks": result.regime_checks}
    return _emit(args, payload, lambda: [
        "t_mix,T_star,rounds", f"{payload['t_mix']},{payload['T_star']},{payload['rounds']}",
    ])


def _run_privacy_epsilon(args) -> str:
    _need(args, ["n", "b", "L", "M", "p", "eta", "sigma", "alpha", "T", "D"])
    spec = PrivacySpec(
        n=args.n, b=args.b, L=args.L, M=args.M, p=args.p,
        eta=args.eta, sigma=args.sigma, alpha=args.alpha, T=args.T, D=args.D,
    )
    res = epsilon_nsgd(spec)
    return _emit(args, dataclasses.asdict(res), lambda: [
        "epsilon,regime,tbar,v_term,alpha_star",
        f"{_fmt(res.epsilon)},{res.regime},{res.tbar},{_fmt(res.v_term)},{_fmt(res.alpha_star)}",
    ])


def _run_sweep(args) -> str:
    _need(args, ["n", "L", "M", "D", "p", "eta_grid"])
    ps = _float_list(args.p)
    grid = _parse_grid(args.eta_grid, len(ps))
    rows = privacy_curve_sweep(args, grid, ps)  # reads the flags n, L, M and D
    lines = (
        f"{_fmt(r['eta'])},{_fmt(r['p'])},{r['tbar']},{_fmt(r['v'])},{_fmt(r['bound'])},{_fmt(r['ln_bound'])}"
        for r in rows
    )
    return _emit(args, rows, lambda: ["eta,p,tbar,v,bound,ln_bound", *lines])


def _run_simulate(args) -> str:
    dim = args.dim
    potential = _build_potential(args, dim)
    if args.subcommand == "validate-mixing":
        _need(args, ["D", "eta"])
        report = validate_mixing_bound(
            potential, args.D, args.eta,
            n_chains=args.chains, seed=args.seed, dim=dim, bins=args.bins,
        )
        return _emit(args, report)
    _need(args, ["D", "eta", "T"])
    check(eta=args.eta)  # before the default sigma takes its square root
    sigma = args.sigma if args.sigma is not None else math.sqrt(2.0 * args.eta)
    config = ChainConfig(
        dim=dim, diameter=args.D, eta=args.eta, sigma=sigma,
        T=args.T, n_chains=args.chains, seed=args.seed, kind=args.kind,
    )
    samples = run_chains(potential, config, _float_list(args.init)).tolist()
    header = "chain," + ",".join(f"dim{j}" for j in range(config.dim))
    rows = (f"{i}," + ",".join(map(_fmt, x)) for i, x in enumerate(samples))
    return _emit(args, samples, lambda: [header, *rows])


def _add_common(parser: argparse.ArgumentParser, handler, default_format: str = "csv") -> None:
    """The flags every leaf takes; the parsed namespace carries the leaf and its handler."""
    parser.set_defaults(leaf=parser, handler=handler)
    parser.add_argument("--config", default=None, help="flat JSON file of flag values")
    parser.add_argument("--echo-config", action="store_true", help="print resolved config and exit")
    parser.add_argument("--output", default=None, help="write to this path instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default=default_format)


def _simulate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--potential", choices=("abs", "power", "quad", "dissipative"), default="abs")
    for flag in ("--L", "--p", "--M", "--beta", "--kappa", "--lam", "--D", "--eta"):
        parser.add_argument(flag, type=float, default=None)


class _Parser(argparse.ArgumentParser):
    """Raises PreconditionError (code usage) instead of exiting; subparsers inherit it."""

    def error(self, message):
        raise PreconditionError("usage", f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="pabi",
        description="Divergence bounds, mixing times, and privacy curves for projected noisy iterations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="Renyi bound for constant per-step parameters")
    for flag in ("--alpha", "--D", "--sigma", "--c", "--h", "--eta"):
        bound.add_argument(flag, type=float, default=None)
    bound.add_argument("--T", type=int, default=None)
    bound.add_argument("--form", choices=("exact", "log-upper"), default="exact")
    bound.add_argument("--pla-kl", action="store_true", help="KL bound for Langevin steps instead")
    _add_common(bound, _run_bound, "csv")

    shifts = sub.add_parser("shifts", help="optimal shift sequence and objective")
    shifts.add_argument("--D", type=float, default=None)
    shifts.add_argument("--T", type=int, default=None)
    for flag in ("--sigma", "--c", "--h"):
        shifts.add_argument(flag, default=None, help="scalar or comma list of length T")
    shifts.add_argument("--oracle", action="store_true", help="also run the numeric optimizer")
    shifts.add_argument("--restarts", type=int, default=8)
    shifts.add_argument("--tol", type=float, default=1e-4)
    shifts.add_argument("--seed", type=int, default=0)
    _add_common(shifts, _run_shifts, "csv")

    mixing = sub.add_parser("mixing", help="mixing-time estimates")
    mixing_sub = mixing.add_subparsers(dest="subcommand", required=True)
    threshold = mixing_sub.add_parser("threshold", help="inverse-stepsize threshold")
    for flag in ("--p", "--M", "--D"):
        threshold.add_argument(flag, type=float, default=None)
    _add_common(threshold, _run_mixing, "csv")
    weak = mixing_sub.add_parser("weakly-smooth")
    for flag in ("--D", "--eta", "--p", "--M"):
        weak.add_argument(flag, type=float, default=None)
    weak.add_argument("--eps", type=float, default=0.5)
    _add_common(weak, _run_mixing, "json")
    diss = mixing_sub.add_parser("dissipative")
    for flag in ("--D", "--eta", "--lam", "--kappa", "--beta"):
        diss.add_argument(flag, type=float, default=None)
    diss.add_argument("--eps", type=float, default=0.5)
    _add_common(diss, _run_mixing, "json")

    privacy = sub.add_parser("privacy", help="noisy-SGD privacy accounting")
    privacy_sub = privacy.add_subparsers(dest="subcommand", required=True)
    eps_cmd = privacy_sub.add_parser("epsilon", help="single-point accountant")
    eps_cmd.add_argument("--n", type=int, default=None)
    eps_cmd.add_argument("--T", type=int, default=None)
    for flag in ("--b", "--L", "--M", "--p", "--eta", "--sigma", "--alpha", "--D"):
        eps_cmd.add_argument(flag, type=float, default=None)
    _add_common(eps_cmd, _run_privacy_epsilon, "json")
    psweep = privacy_sub.add_parser("sweep", help="privacy-curve table over a stepsize grid")
    psweep.add_argument("--n", type=int, default=None)
    for flag in ("--L", "--M", "--D"):
        psweep.add_argument(flag, type=float, default=None)
    psweep.add_argument("--p", default=None, help="comma list of smoothness orders")
    psweep.add_argument("--eta-grid", default=None, help="geometric:start,end,count or comma list")
    _add_common(psweep, _run_sweep, "csv")

    simulate = sub.add_parser("simulate", help="Monte-Carlo runs and validation")
    simulate_sub = simulate.add_subparsers(dest="subcommand", required=True)
    run = simulate_sub.add_parser("run", help="sample final iterates")
    _simulate_flags(run)
    run.add_argument("--sigma", type=float, default=None, help="per-step noise std, default sqrt(2*eta)")
    run.add_argument("--T", type=int, default=None)
    run.add_argument("--chains", type=int, default=1000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--dim", type=int, default=1)
    run.add_argument("--kind", choices=("box", "ball"), default="box")
    run.add_argument("--init", default="0", help="scalar for every coordinate, or comma vector of dim; default 0")
    _add_common(run, _run_simulate, "csv")
    validate = simulate_sub.add_parser("validate-mixing", help="empirical check of the TV horizon")
    _simulate_flags(validate)
    validate.add_argument("--chains", type=int, default=100_000)
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--dim", type=int, default=1)
    validate.add_argument("--bins", type=int, default=None)
    _add_common(validate, _run_simulate, "json")

    return parser


def _config_flags(path: str, actions: dict) -> list:
    """The --config file, a flat JSON object, as the flags it stands for: each entry as --name=value.
    true sets a switch; false, and null for a flag without a default, set nothing; an integral
    number fills an integer flag, as JSON does not tell 2 from 2.0."""
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as err:  # missing or unreadable file, invalid JSON
        raise PreconditionError("config", f"cannot read --config: {err}") from None
    require(isinstance(loaded, dict), "config", "the config must be a flat JSON object")
    unknown = sorted(set(loaded) - set(actions))  # here, as argparse would take --alph for --alpha
    require(not unknown, "config", f"unknown config keys: {', '.join(unknown)}")
    flags = []
    for key, value in loaded.items():
        action = actions[key]
        if action.nargs == 0 and type(value) is bool:  # a switch
            flags += action.option_strings * value
        elif value is not None or action.default is not None:
            fits = type(value) in (str, int, float)
            require(fits, "config", f"config value {key}={value!r} does not fit its flag")
            integral = action.type is int and type(value) is float and value.is_integer()
            flags.append(f"{action.option_strings[0]}={int(value) if integral else value}")
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        leaf = args.leaf
        actions = {a.dest: a for a in leaf._actions if a.dest != "help"}
        if args.config is not None:
            flags = _config_flags(args.config, actions)
            depth = leaf.prog.count(" ")  # the command words ahead of the leaf's flags: "pabi mixing threshold"
            try:  # the file's flags ahead of the command line's, which therefore win
                args = parser.parse_args(argv[:depth] + flags + argv[depth:])
            except PreconditionError as err:  # a config value its flag does not take
                raise PreconditionError("config", f"a --config value does not fit its flag: {err}") from None
        if args.echo_config:
            resolved = {
                dest: getattr(args, dest)
                for dest in sorted(actions)
                if dest not in _META_FLAGS and getattr(args, dest) is not None
            }
            sys.stdout.write(json.dumps(resolved, sort_keys=True) + "\n")
            return 0
        text = args.handler(args)
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    fh.write(text)
            except OSError as err:
                raise PreconditionError("output", f"cannot write --output: {err}") from None
        else:
            sys.stdout.write(text)
        return 0
    except (PreconditionError, OverflowError) as err:
        if isinstance(err, OverflowError):  # finite inputs whose formula overflowed
            err = out_of_range(err)
        payload = {"code": err.code, "message": str(err), "required_value": _strict(err.required_value)}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 2
    except Exception as err:  # noqa: BLE001 - single exit-code boundary
        sys.stderr.write(json.dumps({"code": "internal", "message": str(err)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
