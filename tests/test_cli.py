import hashlib
import json
import math
import sys
import warnings

import numpy as np
import pytest

from pabi import ChainConfig, DissipativeQuadratic, run_chains
from pabi import cli
from pabi.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_nonexpansive_example(capsys):
    code, out, _ = run_cli(
        capsys,
        ["bound", "--alpha", "1", "--D", "1", "--T", "4", "--sigma", "1", "--c", "1", "--h", "0"],
    )
    assert code == 0
    assert out.strip() == "0.125"


@pytest.mark.parametrize(
    "argv, digest, finite",
    [
        (
            "privacy epsilon --n 1000 --b 1 --L 1 --M 2 --p 1 --eta 0.01 --sigma 32 --alpha 2 --T 100000 --D 1",
            "c6d48057969db662d944b5c568dd1dda743db9feb1785db3bfd6dc2c4b49dd8a",
            True,
        ),
        (
            "privacy epsilon --n 1000 --b 1 --L 1 --M 1e160 --p 0 --eta 0.01 --sigma 32 --alpha 2 --T 100000 --D 1",
            "dd883e94d59e608c4060d8c7c92c91d94919b355eacd39bb5a9f0a38278a8576",
            False,
        ),
    ],
)
def test_json_keeps_its_bytes_and_rebuilds_only_a_non_finite_payload(capsys, monkeypatch, argv, digest, finite):
    # the digests were recorded while every JSON payload was rebuilt by _strict before json.dumps; the second
    # payload holds inf (v_term, smoothness_term, epsilon_theorem), which strict JSON writes as null
    calls = []
    strict = cli._strict
    monkeypatch.setattr(cli, "_strict", lambda value: calls.append(value) or strict(value))
    code, out, _ = run_cli(capsys, argv.split() + ["--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert ("null" in out) is not finite
    assert (calls == []) is finite


def test_bound_json_breakdown(capsys):
    code, out, _ = run_cli(
        capsys,
        ["bound", "--alpha", "1", "--D", "1", "--T", "2", "--sigma", "1", "--c", "1",
         "--h", "4", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3.25
    assert sum(payload["breakdown"].values()) == payload["value"]


def test_bound_dissipative_route(capsys):
    code, out, _ = run_cli(
        capsys,
        ["bound", "--alpha", "1", "--D", "1", "--T", "2", "--sigma", "1",
         "--c", "0.5", "--h", "0.2"],
    )
    assert code == 0
    assert float(out) == pytest.approx(13.0 / 60.0, rel=1e-12)


def test_bound_pla_kl(capsys):
    code, out, _ = run_cli(
        capsys,
        ["bound", "--pla-kl", "--D", "1", "--eta", "0.25", "--h", "0", "--T", "1"],
    )
    assert code == 0
    assert out.strip() == "1"


def test_bound_expansive_requires_exact_form(capsys):
    code, out, err = run_cli(
        capsys,
        ["bound", "--alpha", "1", "--D", "1", "--T", "3", "--sigma", "1",
         "--c", "1.5", "--h", "0", "--form", "log-upper"],
    )
    assert code == 2
    assert json.loads(err)["code"]


def test_shifts_csv_table(capsys):
    code, out, _ = run_cli(
        capsys,
        ["shifts", "--D", "1", "--T", "3", "--sigma", "1,0.1,1", "--c", "1", "--h", "4"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("t,u,a")
    assert len(lines) == 5
    u1 = float(lines[2].split(",")[1])
    assert u1 == pytest.approx((1.01 / 2.01) * math.sqrt(5.0), rel=1e-12)
    assert lines[4].split(",")[1] == "0"


def test_shifts_oracle_agreement(capsys):
    code, out, _ = run_cli(
        capsys,
        ["shifts", "--D", "1", "--T", "3", "--sigma", "1,0.1,1", "--c", "1", "--h", "4",
         "--oracle", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["relative_gap"] <= 1e-6
    assert payload["oracle_objective"] >= payload["closed_objective"] - 1e-8


def test_mixing_threshold_example(capsys):
    code, out, _ = run_cli(capsys, ["mixing", "threshold", "--p", "0", "--M", "2", "--D", "1"])
    assert code == 0
    assert out.strip() == "27"


def test_mixing_weakly_smooth(capsys):
    code, out, _ = run_cli(
        capsys,
        ["mixing", "weakly-smooth", "--D", "1", "--eta", "0.037037037037037035",
         "--p", "0", "--M", "2"],
    )
    assert code == 0
    assert json.loads(out)["t_mix"] == 27


def test_mixing_dissipative(capsys):
    code, out, _ = run_cli(
        capsys,
        ["mixing", "dissipative", "--D", "1", "--eta", "0.5", "--lam", "0.1",
         "--kappa", "1", "--beta", "1"],
    )
    assert code == 0
    assert json.loads(out)["t_mix"] == 5


@pytest.mark.parametrize(
    "argv, rounds",
    [
        ("mixing weakly-smooth --D 1 --eta 0.01 --p 0.5 --M 2 --eps 1e-310", 1030),
        ("mixing weakly-smooth --D 1 --eta 0.01 --p 0.5 --M 2 --eps 5e-324", 1074),
        ("mixing dissipative --D 1 --eta 0.5 --lam 0.1 --kappa 1 --beta 1 --eps 1e-310", 4139),
    ],
)
def test_mixing_accepts_eps_whose_reciprocal_overflows(capsys, argv, rounds):
    code, out, err = run_cli(capsys, argv.split())
    assert (code, err) == (0, "")
    assert json.loads(out)["rounds"] == rounds


def test_mixing_precondition_exit_code(capsys):
    code, out, err = run_cli(
        capsys,
        ["mixing", "weakly-smooth", "--D", "1", "--eta", "0.5", "--p", "0", "--M", "2"],
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == "stepsize_threshold"
    assert payload["required_value"] == pytest.approx(27.0)


def test_privacy_epsilon_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["privacy", "epsilon", "--n", "1000", "--b", "1", "--L", "1", "--M", "2",
         "--p", "0.5", "--eta", "0.01", "--sigma", "32", "--alpha", "2", "--T", "30000",
         "--D", "1"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "growing"
    assert payload["tbar"] == 25000
    assert payload["epsilon"] == pytest.approx(
        2.0 * 2.0 * 1e-6 / (32.0 / (2.0 * math.sqrt(2.0))) ** 2 * 30000, rel=1e-12
    )
    assert "epsilon_theorem" in payload["breakdown"]


SWEEP_ARGV = [
    "privacy", "sweep", "--n", "1000", "--L", "1", "--M", "2", "--D", "1",
    "--p", "0.2,0.4,0.6,1", "--eta-grid", "geometric:1e-3,0.251,100",
]


def test_privacy_sweep_figure_command(capsys):
    code, out, _ = run_cli(capsys, SWEEP_ARGV)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eta,p,tbar,v,bound,ln_bound"
    assert len(lines) == 401
    first = lines[1].split(",")
    assert float(first[0]) == 1e-3
    assert float(first[1]) == 0.2


def test_top_level_sweep_is_not_a_command(capsys):
    code, out, err = run_cli(capsys, ["sweep"] + SWEEP_ARGV[2:])
    assert (code, out) == (2, "")
    assert json.loads(err)["code"] == "usage"


def test_echo_config_round_trip(capsys, tmp_path):
    _, table, _ = run_cli(capsys, SWEEP_ARGV)
    code, echoed, _ = run_cli(capsys, SWEEP_ARGV + ["--echo-config"])
    assert code == 0
    config_path = tmp_path / "sweep.json"
    config_path.write_text(echoed)
    code, table_again, _ = run_cli(
        capsys, ["privacy", "sweep", "--config", str(config_path)]
    )
    assert code == 0
    assert table_again == table


def test_config_flags_override_file(capsys, tmp_path):
    config_path = tmp_path / "bound.json"
    config_path.write_text(json.dumps(
        {"alpha": 1.0, "D": 1.0, "T": 4, "sigma": 1.0, "c": 1.0, "h": 0.0}
    ))
    code, out, _ = run_cli(capsys, ["bound", "--config", str(config_path)])
    assert code == 0
    assert out.strip() == "0.125"
    code, out, _ = run_cli(
        capsys, ["bound", "--config", str(config_path), "--alpha", "2"]
    )
    assert code == 0
    assert out.strip() == "0.25"


def test_config_unknown_key_rejected(capsys, tmp_path):
    config_path = tmp_path / "bad.json"
    # argparse would take the flag --alph for --alpha
    for config in ({"alpha": 1.0, "bogus": 3}, {"alph": 1.0}):
        config_path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, ["bound", "--config", str(config_path)])
        assert code == 2
        assert json.loads(err)["code"] == "config"


def test_config_missing_file_is_refused(capsys):
    code, _, err = run_cli(capsys, ["bound", "--config", "/nonexistent/x.json"])
    assert code == 2
    assert json.loads(err)["code"] == "config"


@pytest.mark.parametrize(
    "text",
    [
        "{bad json",
        "[1, 2]",
        '{"alpha": [1], "D": 1}',
        '{"format": "xml"}',
        '{"pla_kl": "yes"}',
        '{"pla_kl": 1}',
        '{"alpha": true}',
        '{"alpha": {"value": 1}}',
    ],
)
def test_config_that_does_not_fit_its_flags_is_refused(capsys, tmp_path, text):
    config_path = tmp_path / "bad.json"
    config_path.write_text(text)
    code, out, err = run_cli(capsys, ["bound", "--config", str(config_path)])
    assert (code, out) == (2, "")
    assert json.loads(err)["code"] == "config"


def test_config_directory_is_refused(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["bound", "--config", str(tmp_path)])
    assert code == 2
    assert json.loads(err)["code"] == "config"


def test_config_values_as_flag_strings_are_accepted(capsys, tmp_path):
    config_path = tmp_path / "bound.json"
    config_path.write_text(json.dumps(
        {"alpha": 1, "D": "1", "T": "4", "sigma": 1.0, "c": 1.0, "h": 0.0, "format": "csv", "pla_kl": False}
    ))
    assert run_cli(capsys, ["bound", "--config", str(config_path)])[:2] == (0, "0.125\n")


def test_output_directory_is_refused(capsys, tmp_path):
    argv = ["bound", "--alpha", "1", "--D", "1", "--T", "4", "--sigma", "1", "--c", "1", "--h", "0"]
    code, _, err = run_cli(capsys, argv + ["--output", str(tmp_path)])
    assert code == 2
    assert json.loads(err)["code"] == "output"


def test_missing_flag_reported(capsys):
    code, _, err = run_cli(capsys, ["bound", "--D", "1"])
    assert code == 2
    assert json.loads(err)["code"] == "missing_flag"


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "bound.txt"
    code, out, _ = run_cli(
        capsys,
        ["bound", "--alpha", "1", "--D", "1", "--T", "4", "--sigma", "1", "--c", "1",
         "--h", "0", "--output", str(target)],
    )
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == "0.125"


def test_simulate_validate_mixing_report(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "validate-mixing", "--potential", "abs", "--L", "1", "--D", "1",
         "--eta", "0.037", "--chains", "100000", "--seed", "7"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["bound"] == 0.5
    assert report["estimate"] <= 0.5 + report["half_width"]


def test_simulate_run_deterministic(capsys):
    argv = ["simulate", "run", "--potential", "quad", "--beta", "0", "--D", "1",
            "--eta", "0.1", "--sigma", "0", "--T", "3", "--chains", "4",
            "--init", "0.2"]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0
    for line in first.strip().split("\n")[1:]:
        assert line.split(",")[1] == "0.20000000000000001"
    code, second, _ = run_cli(capsys, argv)
    assert second == first


def test_simulate_run_csv_schema(capsys):
    # a header chain,dim0[,dim1], then one row per chain: its index and its coordinates
    base = "simulate run --potential quad --beta 0 --sigma 0 --eta 0.1 --T 1 --chains 2 "
    for argv, lines in (
        ("--D 2 --init 0.5", ["chain,dim0", "0,0.5", "1,0.5"]),
        ("--D 4 --dim 2 --init 0.5,-0.25", ["chain,dim0,dim1", "0,0.5,-0.25", "1,0.5,-0.25"]),
    ):
        code, out, _ = run_cli(capsys, (base + argv).split())
        assert (code, out) == (0, "\n".join(lines) + "\n")


def test_simulate_run_init_broadcasts_a_scalar_in_any_dim(capsys):
    # the box of diameter 1 in dim 2 has half-width 0.354: 0.0 and 0.1 lie inside, 0.5 does not
    argv = "simulate run --D 1 --eta 0.1 --T 3 --chains 2 --dim 2 --init".split()
    origin = run_cli(capsys, argv + ["0"])
    assert origin[0] == 0
    assert run_cli(capsys, argv + ["0.0"]) == origin
    assert run_cli(capsys, argv + ["0,0"]) == origin
    assert run_cli(capsys, argv + ["0.1"]) == run_cli(capsys, argv + ["0.1,0.1"])
    assert run_cli(capsys, argv + ["0.1"])[0] == 0
    for init, message in (("0.5", "init lies outside the domain"), ("0.1,0.2,0.3", "does not broadcast to (2, 2)")):
        code, out, err = run_cli(capsys, argv + [init])
        assert (code, out, json.loads(err)["code"]) == (2, "", "init")
        assert message in json.loads(err)["message"]


@pytest.mark.parametrize(
    "command",
    [
        pytest.param("shifts --D 1 --T 50 --sigma 1 --c 1.01 --h 0.5", id="shifts"),
        pytest.param(
            "privacy sweep --n 1000 --L 1 --M 2 --D 1 --p 0.2,1 --eta-grid geometric:1e-3,0.251,10", id="sweep"
        ),
        pytest.param(
            "simulate run --potential power --p 0.5 --M 2 --D 1 --eta 0.037 --T 27 --chains 20 --seed 7", id="simulate"
        ),
    ],
)
def test_json_output_formats_no_csv_row(capsys, monkeypatch, command):
    calls = []
    monkeypatch.setattr(cli, "_fmt", lambda value: calls.append(value) or f"{value:.17g}")
    code, out, _ = run_cli(capsys, command.split() + ["--format", "json"])
    assert (code, calls) == (0, [])
    json.loads(out, parse_constant=_reject_constant)
    code, _, _ = run_cli(capsys, command.split())
    assert code == 0 and calls  # the CSV form formats its rows


@pytest.mark.parametrize(
    "command",
    [
        "simulate run --D 1 --eta 0.1 --T 3 --chains 2",
        "simulate validate-mixing --D 1 --eta 0.037 --chains 10000",
    ],
)
def test_simulate_takes_an_integral_float_dim_from_the_config(capsys, tmp_path, command):
    # JSON does not tell 2 from 2.0, so an integral number fills the integer flag --dim
    config = tmp_path / "dim.json"
    config.write_text('{"dim": 2.0}')
    code, out, err = run_cli(capsys, command.split() + ["--config", str(config), "--format", "json"])
    assert (code, err) == (0, "")
    assert out


def _raise(err):
    def handler(args):
        raise err
    return handler


@pytest.mark.parametrize(
    "err, code, expected",
    [
        (OverflowError("math range error"), 2, "out_of_range"),
        (RuntimeError("boom"), 1, "internal"),
    ],
)
def test_a_handler_that_raises_exits_with_one_json_line(capsys, monkeypatch, err, code, expected):
    # an OverflowError that no library entry point turned into a refusal is out_of_range; anything else is internal
    monkeypatch.setattr(cli, "_run_mixing", _raise(err))
    result, out, stderr = run_cli(capsys, "mixing threshold --p 0.5 --M 2 --D 1".split())
    assert (result, out) == (code, "")
    payload = json.loads(stderr)
    assert payload["code"] == expected
    assert str(err) in payload["message"]


def test_unknown_subcommand_exits_two(capsys):
    code, out, err = run_cli(capsys, ["bogus"])
    assert (code, out) == (2, "")
    assert json.loads(err)["code"] == "usage"


@pytest.mark.parametrize(
    "command",
    ["bogus", "", "bound --zzz 1", "bound --T four", "mixing", "shifts --restarts 1.5"],
)
def test_argparse_errors_are_one_json_line(capsys, command):
    code, out, err = run_cli(capsys, command.split())
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["code"] == "usage"
    assert payload["message"].startswith("pabi")


def test_config_value_its_flag_cannot_parse_is_refused(capsys, tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"T": "four"}))
    code, out, err = run_cli(capsys, ["bound", "--config", str(config_path)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err)["code"] == "config"


@pytest.mark.parametrize("argv", [[], ["bound"], ["mixing", "threshold"]])
def test_help_still_exits_zero_with_argparse_text(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: pabi")
    assert err == ""


@pytest.mark.parametrize(
    "command",
    [
        "bound --alpha 1 --D 1 --T 1000000000000 --sigma 1 --c 1.5 --h 0.1",
        "shifts --D 1 --T 1000000000000 --sigma 1 --c 1 --h 0",
    ],
)
def test_horizon_past_the_cap_is_refused(capsys, command):
    code, out, err = run_cli(capsys, command.split())
    if command.startswith("bound"):  # the cap is for T-long arrays: the c > 1 bound is O(1) at any horizon
        assert (code, err) == (0, "") and 0.0 < float(out) < math.inf
        return
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["code"] == "horizon_too_large"
    assert payload["required_value"] == 10**7


BOUND = "bound --alpha 1 --D 1 --T 4 --sigma 1 --h=-1"


@pytest.mark.parametrize(
    "command",
    [
        BOUND + " --c 1",
        BOUND + " --c 0.5",
        BOUND + " --c 1.5",
        "bound --pla-kl --D 1 --eta 0.25 --T 4 --h=-1",
        "shifts --D 1 --T 2 --sigma 1 --c 1 --h=-1",
    ],
)
def test_negative_offset_has_one_code_on_every_route(capsys, command):
    code, out, err = run_cli(capsys, command.split())
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == "offset"


@pytest.mark.parametrize("c", ["0.5", "1", "1.5"])
def test_bound_diameter_past_float_range_prints_inf_on_every_route(capsys, c):
    code, out, err = run_cli(capsys, ["bound", "--alpha", "1", "--D", "1e200", "--T", "4",
                                      "--sigma", "1", "--c", c, "--h", "0"])
    assert (code, out, err) == (0, "inf\n", "")


@pytest.mark.parametrize(
    "command, required",
    [
        ("privacy epsilon --n 1000 --b 1 --L 1 --M 2 --p 1 --eta 5 --sigma 32 --alpha 2"
         " --T 100000 --D 1", 1.0),
        ("privacy sweep --n 1000 --L 1 --M 100 --D 1 --p 1 --eta-grid 0.2", 0.02),
    ],
)
def test_privacy_smooth_case_refuses_stepsize_above_two_over_M(capsys, command, required):
    code, out, err = run_cli(capsys, command.split())
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["code"] == "stepsize_smooth"
    assert payload["required_value"] == required


def test_bound_past_the_array_horizon_prints_the_recorded_value(capsys):
    # a long c = 1 horizon: the harmonic number from its digamma series, in O(1)
    argv = "bound --alpha 1 --D 1 --T 1000000000 --sigma 1 --c 1 --h 1".split()
    assert run_cli(capsys, argv) == (0, "10.650240751673973\n", "")


ORACLE = "shifts --D 1 --T 2 --sigma 1 --c 1 --h 0 --oracle"


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize(
    "flags, config, code",
    [
        ("--seed -1", None, "seed"),
        ("--restarts 0", None, "restarts"),
        # a config number is parsed by its flag's type, as --restarts 2.5 is (code usage)
        ("", {"restarts": 2.5}, "config"),
        ("", {"seed": 1.5}, "config"),
        ("--tol=inf", None, "tolerance"),
        ("--tol 1", None, "tolerance"),
        # null only unsets a flag that has no default
        ("", {"seed": None}, "config"),
        ("", {"restarts": None}, "config"),
        ("", {"tol": None}, "config"),
    ],
)
def test_oracle_search_settings_are_refused_with_exit_two(capsys, tmp_path, flags, config, code):
    argv = (ORACLE + " " + flags).split()
    if config is not None:
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        argv += ["--config", str(config_path)]
    code_, out, err = run_cli(capsys, argv)
    assert (code_, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err, parse_constant=_reject_constant)["code"] == code


def test_null_config_value_of_a_defaulted_simulate_flag_is_refused(capsys, tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"seed": None}))
    argv = ["simulate", "run", "--potential", "power", "--p", "0.5", "--M", "2", "--D", "1",
            "--eta", "0.037", "--T", "27", "--chains", "10", "--config", str(config_path)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["code"] == "config"


SMALL_SCALE = "--T 3 --sigma 1,0.1,1 --c 1 --h 0 --oracle"


@pytest.mark.parametrize(
    "command",
    [
        "shifts --D 1e-12 " + SMALL_SCALE,
        "shifts --D 1e-30 " + SMALL_SCALE,
        "shifts --D 1 --T 3 --sigma 1e8,1e7,1e8 --c 1 --h 0 --oracle",
        "shifts --D 1e-150 --T 4 --sigma 1,2,0.5,1 --c 1.2 --h 0 --oracle",
        "shifts --D 1e-150 --T 4 --sigma 1e-150,5e-151,2e-150,1e-150 --c 1.2,0.8,1,1.1 --h 0 --oracle",
    ],
)
def test_oracle_finds_the_optimum_at_small_scales(capsys, command):
    # the search runs in units of D and of D^2 / max sigma^2; in raw units
    # these stopped early with relative gaps of 0.005 and 1.4, and the raw
    # gradient 2 r_t / (sigma_{t-1}^2 sigma_t^2) of the last one overflows
    code, out, err = run_cli(capsys, command.split())
    assert (code, err) == (0, "")
    assert abs(json.loads(out)["relative_gap"]) <= 1e-12


@pytest.mark.parametrize(
    "command",
    [
        # the closed objective underflows to 0, so the relative gap is undefined
        "shifts --D 1e-170 --T 2 --sigma 1 --c 1 --h 0 --oracle",
        "shifts --D 1e-100 --T 2 --sigma 1 --c 1e-200 --h 0 --oracle",
        # the objective unit max sigma^2 / D^2 overflows
        "shifts --D 1e-10 --T 2 --sigma 1e150 --c 1 --h 0 --oracle",
        # sigma_0^2 / max sigma^2 is not a normal float
        "shifts --D 1 --T 2 --sigma 1e-150,1e20 --c 1 --h 0 --oracle",
    ],
)
def test_oracle_outside_the_float_scale_is_refused(capsys, command):
    code, out, err = run_cli(capsys, command.split())
    assert (code, out) == (2, "")
    assert json.loads(err, parse_constant=_reject_constant)["code"] == "out_of_range"


@pytest.mark.parametrize("flag", ["--sigma", "--c", "--h"])
def test_shifts_per_step_list_of_wrong_length_is_refused(capsys, flag):
    values = {"--sigma": "1", "--c": "1", "--h": "0", flag: "1,1"}
    argv = ["shifts", "--D", "1", "--T", "3"] + [x for kv in values.items() for x in kv]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["code"] == flag[2:]


# codes recorded while `pabi shifts` still built one QuadraticModulus per step
# before the spec: the first bad step's c, then its h, then D and sigma
@pytest.mark.parametrize(
    "flags, code",
    [
        ("--D 1 --T 3 --sigma 1 --c 1,2,-1 --h 0", "modulus_c"),
        ("--D 1 --T 3 --sigma 1 --c 1,-1,1 --h 0,0,-1", "modulus_c"),
        ("--D 1 --T 3 --sigma 1 --c 1,1,-1 --h 0,-1,0", "offset"),
        ("--D 1 --T 2 --sigma 1 --c 1,-1 --h 0,-1", "modulus_c"),
        ("--D 1 --T 3 --sigma 1,0,1 --c 1,-1,1 --h 0", "modulus_c"),
        ("--D 1 --T 3 --sigma 0 --c 1 --h -1", "offset"),
        ("--D 0 --T 3 --sigma 1 --c -1 --h 0", "modulus_c"),
        ("--D nan --T 3 --sigma 1 --c 1,nan,1 --h 0", "modulus_c"),
        ("--D 0 --T 2 --sigma 1 --c 1 --h 0,-1", "offset"),
        ("--D -1 --T 3 --sigma 0 --c 1 --h 0", "diameter"),
        ("--D 1 --T 3 --sigma 1 --c 1,-1 --h 0", "c"),
        ("--D 1 --T 3 --sigma 1,0 --c -1 --h -1", "sigma"),
    ],
)
def test_shifts_with_several_faults_refuses_the_first_in_the_recorded_order(capsys, flags, code):
    code_, out, err = run_cli(capsys, ["shifts", *flags.split()])
    assert (code_, out) == (2, "")
    assert json.loads(err)["code"] == code


def test_shifts_refusal_names_the_step_and_its_value(capsys):
    code, out, err = run_cli(capsys, "shifts --D 1 --T 3 --sigma 1 --c 1,2,-1 --h 0".split())
    assert (code, out) == (2, "")
    assert json.loads(err)["message"] == "step 2: c must be strictly positive and finite, got -1.0"


def test_oracle_refuses_rescaled_offsets_past_the_float_range(capsys):
    # h / D^2 overflows: refused as out of range, not as a bad offset of the caller's
    code, out, err = run_cli(capsys, "shifts --D 1e-5 --T 3 --c 1 --h 1e300 --sigma 1 --oracle".split())
    assert (code, out) == (2, "")
    assert json.loads(err)["code"] == "out_of_range"


SWEEP_BASE_ARGV = ["privacy", "sweep", "--n", "1000", "--L", "1", "--M", "2", "--D", "1", "--p", "0.5"]


@pytest.mark.parametrize("grid", ["geometric:1e-3,0.25", "geometric:1e-3,0.1,0.25,3"])
def test_geometric_grid_of_wrong_arity_is_refused(capsys, grid):
    code, out, err = run_cli(capsys, SWEEP_BASE_ARGV + ["--eta-grid", grid])
    assert (code, out) == (2, "")
    assert json.loads(err)["code"] == "eta_grid"


def test_geometric_grid_of_one_point_is_its_start(capsys):
    _, single, _ = run_cli(capsys, SWEEP_BASE_ARGV + ["--eta-grid", "geometric:0.01,0.2,1"])
    _, listed, _ = run_cli(capsys, SWEEP_BASE_ARGV + ["--eta-grid", "0.01"])
    assert single == listed
    assert single.count("\n") == 2


def test_sweep_at_small_n_is_not_refused_for_fields_it_does_not_read(capsys):
    # tbar = ceil(D n / (4 eta L)) = 2; any n >= 1 must be accepted
    code, out, err = run_cli(capsys, ["privacy", "sweep", "--n", "4", "--L", "1", "--M", "2", "--D", "1",
                                      "--p", "0.5", "--eta-grid", "0.5"])
    assert (code, err) == (0, "")
    assert out.split("\n")[1].split(",")[:3] == ["0.5", "0.5", "2"]


def test_sweep_has_no_batch_size_flag(capsys):
    code, out, err = run_cli(capsys, SWEEP_BASE_ARGV + ["--eta-grid", "0.01", "--b", "500"])
    assert (code, out) == (2, "")
    assert json.loads(err)["code"] == "usage"


SIMULATE_DISSIPATIVE = (
    "simulate run --potential dissipative --kappa 1 --beta 3 --lam 0.1 --D 1 --eta 0.05"
    " --T 20 --chains 50 --seed 3 --dim 2"
)


def test_simulate_run_json_holds_the_csv_values(capsys):
    code, csv_out, _ = run_cli(capsys, SIMULATE_DISSIPATIVE.split())
    assert code == 0
    code, json_out, _ = run_cli(capsys, SIMULATE_DISSIPATIVE.split() + ["--format", "json"])
    assert code == 0
    rows = [[float(v) for v in line.split(",")[1:]] for line in csv_out.strip().split("\n")[1:]]
    assert len(rows) == 50
    assert json.loads(json_out) == rows


def test_simulate_run_dissipative_is_run_chains(capsys):
    code, out, _ = run_cli(capsys, SIMULATE_DISSIPATIVE.split() + ["--format", "json"])
    assert code == 0
    config = ChainConfig(dim=2, diameter=1.0, eta=0.05, sigma=math.sqrt(2.0 * 0.05), T=20,
                         n_chains=50, seed=3, kind="box")
    potential = DissipativeQuadratic(kappa=1.0, beta=3.0, lam=0.1, dim=2)
    assert json.loads(out) == run_chains(potential, config, np.zeros(2)).tolist()


def test_simulate_ball_past_the_float_range_warns_no_invalid_value(capsys):
    # sigma = 1e308 sends a coordinate to inf, whose row the ball projection
    # scales by 0 before it replaces that row's nan with the projected point
    argv = ("simulate run --potential power --p 0.5 --M 2 --D 1 --eta 0.037 --T 3 --chains 3 --seed 7 "
            "--sigma 1e308 --kind ball").split()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out == "chain,dim0\n0,-0.5\n1,-0.5\n2,-0.5\n"
    assert not [w for w in caught if "invalid value" in str(w.message)]


def _per_step_shifts_argv(horizon, seed):
    rng = np.random.default_rng(seed)
    lists = {
        "--c": rng.uniform(0.9, 1.1, horizon),
        "--h": rng.uniform(0.0, 0.5, horizon),
        "--sigma": rng.uniform(0.5, 2.0, horizon),
    }
    argv = ["shifts", "--D", "1.5", "--T", str(horizon)]
    for flag, values in lists.items():
        argv += [flag, ",".join(repr(float(v)) for v in values)]
    return argv


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("csv", "61837a96351019bf1feab40c52fad6d58d2ebac3be0bf0e4a21d1b55da529b6a"),
        ("json", "a6ea5028223bd0ecf43a4e1e8a8802481d168fd769c629503d603eeccaedcf9a"),
    ],
)
def test_shifts_per_step_output_bytes_are_pinned(capsys, fmt, digest):
    # sha256 of the stdout recorded once every shift was w_t phi_{t-1}(u_{t-1}) and all
    # but the first partial block moved in block maps: the levels agree with the
    # per-step loop within 2.3e-15, and the shifts, some 1e-6 against levels near
    # 1.6, differ from the earlier phi - u by up to 2.2e-10, the rounding that phi - u lost
    code, out, err = run_cli(capsys, _per_step_shifts_argv(2000, 13) + ["--format", fmt])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


README_ORACLE = "shifts --D 1 --T 4 --sigma 1,0.5,2,1 --c 1.2,0.8,1,1.1 --h 1,0,2,0.5 --oracle --tol "


@pytest.mark.parametrize("command", [README_ORACLE + tol for tol in ("1e-9", "1e-12", "1e-15")])
def test_oracle_that_cannot_certify_its_optimum_exits_two(capsys, command):
    # L-BFGS-B stops where the float objective no longer resolves a descent:
    # the analytic gradient left at coordinate 1 reads 3.1e-8, the objective
    # 4.8, both in the oracle's units
    code, out, err = run_cli(capsys, command.split())
    assert (code, out) == (2, "")
    assert json.loads(err)["code"] == "oracle_not_certified"


def test_oracle_refusal_stderr_is_pinned(capsys):
    # sha256 of the stderr recorded while cli.main still wrapped the oracle's
    # exception in a PreconditionError of its own
    code, out, err = run_cli(capsys, (README_ORACLE + "1e-9").split())
    assert (code, out) == (2, "")
    assert hashlib.sha256(err.encode()).hexdigest() == "2cb6356ee64a0a00046c0fe038f6b40e21cb88a0b74667c86e774c6deba2c706"


def test_oracle_refuses_a_spec_too_ill_conditioned_to_search(capsys):
    # noise levels 1e40 apart weight the steps up to 1e80 apart, and L-BFGS-B
    # stops far from the optimum: refused, not certified
    argv = "shifts --D 1 --T 4 --sigma 1e-20,1e20,1e-20,1e20 --c 1.2,0.8,1,1.1 --h 1,0,0,1 --oracle"
    code, out, err = run_cli(capsys, argv.split())
    assert (code, out) == (2, "")
    assert json.loads(err)["code"] == "oracle_not_certified"


def test_oracle_certifies_its_optimum_at_the_tolerance_floor(capsys):
    code, out, err = run_cli(capsys, (README_ORACLE + "3e-8").split())
    assert (code, err) == (0, "")
    assert abs(json.loads(out)["relative_gap"]) <= 1e-15


@pytest.mark.parametrize("count", ["1e12", "1e30"])
def test_sweep_past_the_row_cap_is_refused_before_the_grid_is_built(capsys, count):
    code, out, err = run_cli(capsys, SWEEP_BASE_ARGV + ["--eta-grid", f"geometric:1e-3,0.25,{count}"])
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert (payload["code"], payload["required_value"]) == ("eta_grid", 10**6)


@pytest.mark.parametrize(
    "grid, code",
    [("geometric:1e-3,0.25,3", 0), ("0.01,0.02,0.03", 0), ("geometric:1e-3,0.25,4", 2), ("0.01,0.02,0.03,0.04", 2)],
)
def test_sweep_row_cap_counts_grid_points_times_p_values(capsys, monkeypatch, grid, code):
    monkeypatch.setattr(cli, "_MAX_SWEEP_ROWS", 6)
    argv = ["privacy", "sweep", "--n", "1000", "--L", "1", "--M", "2", "--D", "1", "--p", "0.5,1", "--eta-grid", grid]
    got, out, err = run_cli(capsys, argv)
    assert got == code
    if code:
        assert json.loads(err)["required_value"] == 6
    else:
        assert out.count("\n") == 1 + 6


# sha256 of each --help text at 80 columns, recorded before the leaves carried
# their own handlers (the top-level text once the `pabi sweep` alias was gone);
# argparse lays help out differently in other Pythons
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help layout of Python 3.11's argparse")
@pytest.mark.parametrize(
    "command, digest",
    [
        ("", "fa869643c17ace5d05fafcf02198eca79a6fb30f6715b1c0f44bcfd74c7e578a"),
        ("mixing", "85e6d60ede561015bf191f36b8ecd391d25d2dfc509d58aedbc5bd27967fb2bf"),
        ("privacy", "5053cbd86ae53ecf29f652a1fff4c12ff71dd61c779eb948615985797e31d117"),
        ("simulate", "1ca5b2322b147e2dabc56b506a34cb66715e29581b5082956318dc52e4697512"),
        ("bound", "bd7918051819f5d768a8d0b8c64b7dece13202a7a4aa1a5d85cd7b27a8566106"),
        ("shifts", "f3bd4ae35110adb5be4c8c1345130947ec2e5c8563993c64642e6e9e717c935f"),
        ("mixing threshold", "9bbb982c22ed7a21432226806e2a1374039ca4fc538faf62200e7c5a3e6621aa"),
        ("mixing weakly-smooth", "d3f9b74aad4c57c868ffdbcc7a8cabc9a576b319bae622b87cd8f142535057ac"),
        ("mixing dissipative", "160ebb4e089deb1d3e8a6643f361e9e1f753e334b992778acf9ef7a53ee8849e"),
        ("privacy epsilon", "63a0fa498a9dcb5738aeb9bcea8c0f2c4940290e4a9423ae7ecb1b852e3c1195"),
        ("privacy sweep", "5c3b57e3c0dfcb4b4dbb9fff151e505df9d798c9b28ccf5ad0ccfa6503c8d2e9"),
        ("simulate run", "45aaa2b87ab7ed93ed68d802ff0f2ebfd94eaef2ec2731655617215930dc8dee"),
        ("simulate validate-mixing", "56dcdce6202a3a30d2df99dd6aaa7d10883e81a1c086325ebb1143b3e5a35e62"),
    ],
)
def test_help_text_is_pinned(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(command.split() + ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


# one command per leaf, recorded as above
ECHO_CONFIG_PINS = [
    ("bound --alpha 1 --D 1 --T 4 --sigma 1 --c 1 --h 0",
     '{"D": 1.0, "T": 4, "alpha": 1.0, "c": 1.0, "form": "exact", "format": "csv", "h": 0.0, "pla_kl": false, "sigma": 1.0}\n'),
    ("shifts --D 1 --T 2 --sigma 1 --c 1.01,1 --h 4,4 --oracle",
     '{"D": 1.0, "T": 2, "c": "1.01,1", "format": "csv", "h": "4,4", "oracle": true, "restarts": 8, "seed": 0, "sigma": "1", "tol": 0.0001}\n'),
    ("mixing threshold --p 0.5 --M 2 --D 1",
     '{"D": 1.0, "M": 2.0, "format": "csv", "p": 0.5}\n'),
    ("mixing weakly-smooth --D 1 --eta 0.037037037037037035 --p 0.5 --M 2 --eps 0.5",
     '{"D": 1.0, "M": 2.0, "eps": 0.5, "eta": 0.037037037037037035, "format": "json", "p": 0.5}\n'),
    ("mixing dissipative --D 1 --eta 0.5 --lam 0.1 --kappa 1 --beta 1 --eps 0.5",
     '{"D": 1.0, "beta": 1.0, "eps": 0.5, "eta": 0.5, "format": "json", "kappa": 1.0, "lam": 0.1}\n'),
    ("privacy epsilon --n 1000 --b 1 --L 1 --M 2 --p 1 --eta 0.01 --sigma 32 --alpha 2 --T 100000 --D 1",
     '{"D": 1.0, "L": 1.0, "M": 2.0, "T": 100000, "alpha": 2.0, "b": 1.0, "eta": 0.01, "format": "json", "n": 1000, "p": 1.0, "sigma": 32.0}\n'),
    ("privacy sweep --n 1000 --L 1 --M 2 --D 1 --p 0.2,0.4,0.6,1 --eta-grid geometric:1e-3,0.251,100",
     '{"D": 1.0, "L": 1.0, "M": 2.0, "eta_grid": "geometric:1e-3,0.251,100", "format": "csv", "n": 1000, "p": "0.2,0.4,0.6,1"}\n'),
    ("simulate run --potential power --p 0.5 --M 2 --D 1 --eta 0.037 --T 27 --chains 1000 --seed 7",
     '{"D": 1.0, "M": 2.0, "T": 27, "chains": 1000, "dim": 1, "eta": 0.037, "format": "csv", "init": "0", "kind": "box", "p": 0.5, "potential": "power", "seed": 7}\n'),
    ("simulate validate-mixing --potential power --p 0.5 --M 2 --D 1 --eta 0.037037037037037035 --seed 7",
     '{"D": 1.0, "M": 2.0, "chains": 100000, "dim": 1, "eta": 0.037037037037037035, "format": "json", "p": 0.5, "potential": "power", "seed": 7}\n'),
]


@pytest.mark.parametrize("command, expected", ECHO_CONFIG_PINS)
def test_echo_config_output_is_pinned(capsys, command, expected):
    assert run_cli(capsys, command.split() + ["--echo-config"]) == (0, expected, "")


def _plain_json(words):
    """The flags in words as a config of plain JSON types: a switch as true,
    an integral number as an int, any other number as a float, else the text."""
    config = {}
    for flag, text in zip(words, words[1:] + ["--"]):
        if flag.startswith("--"):
            try:
                value = float(text)
                value = int(value) if value.is_integer() else value
            except ValueError:  # a switch, a comma list or a choice
                value = True if text.startswith("--") else text
            config[flag[2:].replace("-", "_")] = value
    return config


@pytest.mark.parametrize("command", [command for command, _ in ECHO_CONFIG_PINS])
def test_a_config_prints_the_bytes_of_the_flags_it_stands_for(capsys, tmp_path, command):
    words = command.split() + ["--format", "json"]
    if "validate-mixing" in words:
        words += ["--chains", "10000"]
    depth = next(i for i, word in enumerate(words) if word.startswith("--"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_plain_json(words[depth:])))
    expected = run_cli(capsys, words)
    assert expected[0] == 0
    assert run_cli(capsys, words[:depth] + ["--config", str(config)]) == expected


def test_a_config_init_of_zero_runs_from_the_origin(capsys, tmp_path):
    argv = "simulate run --D 1 --eta 0.1 --T 3 --chains 2 --dim 2".split()
    config = tmp_path / "init.json"
    config.write_text('{"init": 0}')
    expected = run_cli(capsys, argv + ["--init", "0"])
    assert expected[0] == 0
    assert run_cli(capsys, argv + ["--config", str(config)]) == expected
