"""Non-finite inputs to the iteration and bound layer are refused."""

import json
import math

import pytest

from pabi import (
    IterationSpec,
    PreconditionError,
    QuadraticModulus,
    kl_bound_pla,
    renyi_bound_dissipative,
    renyi_bound_sqrt_shift,
)
from pabi.cli import main

MOD = QuadraticModulus(1.0, 0.5)

# name -> (callable, valid keyword arguments); every float field is replaced in turn
CALLS = {
    "QuadraticModulus": (QuadraticModulus, {"c": 0.9, "h": 0.5}),
    "IterationSpec": (
        lambda diameter, sigma: IterationSpec(diameter=diameter, sigmas=(1.0, sigma), moduli=(MOD, MOD)),
        {"diameter": 1.0, "sigma": 1.0},
    ),
    "IterationSpec.uniform": (
        lambda diameter, horizon, sigma: IterationSpec.uniform(diameter, horizon, MOD, sigma),
        {"diameter": 1.0, "horizon": 4, "sigma": 1.0},
    ),
    "renyi_bound_sqrt_shift": (
        renyi_bound_sqrt_shift,
        {"alpha": 2.0, "diameter": 1.0, "h": 0.5, "sigma": 1.0, "horizon": 4},
    ),
    "renyi_bound_dissipative": (
        renyi_bound_dissipative,
        {"alpha": 2.0, "diameter": 1.0, "c": 0.5, "h": 0.5, "sigma": 1.0, "horizon": 4},
    ),
    "kl_bound_pla": (kl_bound_pla, {"diameter": 1.0, "eta": 0.1, "h": 0.5, "horizon": 4}),
}

CASES = [
    pytest.param(name, field, value, id=f"{name}-{field}-{value}")
    for name, (_, kwargs) in CALLS.items()
    for field in kwargs
    for value in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize("name, field, value", CASES)
def test_non_finite_field_is_refused(name, field, value):
    fn, kwargs = CALLS[name]
    fn(**kwargs)  # the valid baseline goes through
    with pytest.raises(PreconditionError):
        fn(**{**kwargs, field: value})


@pytest.mark.parametrize("sigma", [1e-160, 1e160])
def test_noise_level_whose_square_is_not_a_normal_float_is_refused(sigma):
    with pytest.raises(PreconditionError):
        IterationSpec.uniform(1.0, 4, MOD, sigma)
    with pytest.raises(PreconditionError):
        renyi_bound_sqrt_shift(2.0, 1.0, 0.5, sigma, 4)


def test_cli_infinite_diameter_exits_2(capsys):
    argv = ["bound", "--alpha", "1", "--D", "inf", "--T", "4", "--sigma", "1", "--c", "1", "--h", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["code"] == "diameter"
