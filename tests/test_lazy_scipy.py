"""scipy is imported only when the numeric oracle runs a search.

Each check runs in a fresh interpreter, because this test process has
scipy loaded already (tests/test_bounds.py imports it as a reference).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import pabi

SRC = str(pathlib.Path(pabi.__file__).resolve().parents[1])

REPORT = """
import json, sys
{body}
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({{"result": result, "scipy": scipy}}))
"""

CLI = """
import contextlib, io
from pabi.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main({argv!r})
result = [code, out.getvalue(), err.getvalue()]
"""


def _fresh(body: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", REPORT.format(body=body)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def _cli(command: str) -> dict:
    return _fresh(CLI.format(argv=command.split()))


@pytest.mark.parametrize("module", ["pabi", "pabi.cli"])
def test_import_leaves_scipy_unloaded(module):
    assert _fresh(f"import {module}\nresult = None")["scipy"] == []


# README queries and refusals other than --oracle (validate-mixing with fewer
# chains), the T > 2e6 harmonic branch of `bound`, and oracle refusals.
QUERIES = [
    "bound --alpha 1 --D 1 --T 4 --sigma 1 --c 1 --h 0",
    "bound --alpha 1 --D 1 --eta 0.25 --h 0 --T 1 --pla-kl",
    "bound --alpha 1 --D 1 --T 1000000000 --sigma 1 --c 1 --h 1",
    "bound --alpha 1 --D 1e200 --T 4 --sigma 1 --c 1.5 --h 0",
    "shifts --D 1 --T 2 --sigma 1 --c 1.01,1 --h 4,4",
    "mixing threshold --p 0.5 --M 2 --D 1",
    "mixing weakly-smooth --D 1 --eta 0.037037037037037035 --p 0.5 --M 2 --eps 0.5",
    "mixing dissipative --D 1 --eta 0.5 --lam 0.1 --kappa 1 --beta 1 --eps 0.5",
    "privacy epsilon --n 1000 --b 1 --L 1 --M 2 --p 1 --eta 0.01 --sigma 32 --alpha 2 --T 100000 --D 1"
    " --format json",
    "privacy sweep --n 1000 --L 1 --M 2 --D 1 --p 0.2,0.4,0.6,1 --eta-grid geometric:1e-3,0.251,100",
    "simulate run --potential power --p 0.5 --M 2 --D 1 --eta 0.037 --T 27 --chains 1000 --seed 7",
    "simulate validate-mixing --potential power --p 0.5 --M 2 --D 1 --eta 0.037037037037037035"
    " --chains 10000 --seed 7 --format json",
]
REFUSALS = [
    "bogus",
    "bound --T four",
    "privacy sweep --n 1000 --L 1 --M 100 --D 1 --p 1 --eta-grid 0.2",
    "mixing threshold --p 0.5 --M 1e308 --D 1",
    "bound --alpha 1 --D 1 --T 1000000000000 --sigma 1 --c 1.5 --h 0.1",
    "shifts --D 1 --T 13 --sigma 1 --c 1 --h 0 --oracle",
    "shifts --D 1 --T 2 --sigma 1 --c 1 --h 0 --oracle --seed -1",
    "shifts --D 1 --T 2 --sigma 1 --c 1 --h 0 --oracle --tol=inf",
    "shifts --D 1e-10 --T 2 --sigma 1e150 --c 1 --h 0 --oracle",
]


@pytest.mark.parametrize("command", QUERIES)
def test_query_leaves_scipy_unloaded(command):
    report = _cli(command)
    assert report["result"][0] == 0, report["result"][2]
    assert report["scipy"] == []


@pytest.mark.parametrize("command", REFUSALS)
def test_refusal_leaves_scipy_unloaded(command):
    report = _cli(command)
    assert report["result"][0] == 2
    assert report["scipy"] == []


ORACLE_CALL = """
from pabi import IterationSpec, PreconditionError, QuadraticModulus, numeric_oracle, solve_closed_form
spec = IterationSpec.uniform(1.5, {horizon}, QuadraticModulus(1.0, 1.0), 0.9)
try:
    result = numeric_oracle(spec) == solve_closed_form(spec)
except PreconditionError as err:
    result = err.code
"""


@pytest.mark.parametrize("horizon, result", [(13, "horizon_too_large"), (1, True)])
def test_oracle_without_a_search_leaves_scipy_unloaded(horizon, result):
    assert _fresh(ORACLE_CALL.format(horizon=horizon)) == {"result": result, "scipy": []}


def test_oracle_search_loads_scipy_and_keeps_its_answer():
    report = _cli("shifts --D 1 --T 2 --sigma 1 --c 1.01,1 --h 4,4 --oracle --format json")
    assert report["result"] == [
        0,
        '{"u": [1.0, 1.1191514642799696, 0.0], "a": [1.1191514642799696, 2.2918333272731677], '
        '"closed_objective": 6.504999999999999, "oracle_objective": 6.504999999999999, '
        '"relative_gap": 0.0}\n',
        "",
    ]
    assert "scipy.optimize" in report["scipy"]
