import json
import math

import pytest

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


def test_sweep_alias_identical(capsys):
    _, direct, _ = run_cli(capsys, SWEEP_ARGV)
    _, alias, _ = run_cli(capsys, ["sweep"] + SWEEP_ARGV[2:])
    assert alias == direct


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
    config_path.write_text(json.dumps({"alpha": 1.0, "bogus": 3}))
    code, _, err = run_cli(capsys, ["bound", "--config", str(config_path)])
    assert code == 2
    assert json.loads(err)["code"] == "config"


def test_config_missing_file_is_internal_error(capsys):
    code, _, err = run_cli(capsys, ["bound", "--config", "/nonexistent/x.json"])
    assert code == 1
    assert json.loads(err)["code"] == "internal"


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


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


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
