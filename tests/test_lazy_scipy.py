"""scipy is imported only when the numeric oracle runs a search, and numpy
only when a query builds an array.

Each check runs in a fresh interpreter, because this test process has
numpy and scipy loaded already (tests/test_bounds.py imports scipy as a
reference).
"""

import ast
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
loaded = {{name: sorted(m for m in sys.modules if m.split(".")[0] == name) for name in ("scipy", "numpy")}}
pabi = sorted(m for m in sys.modules if m.split(".")[0] == "pabi")
print(json.dumps({{"result": result, **loaded, "pabi": pabi}}))
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


@pytest.mark.parametrize("module", ["pabi", "pabi.cli"])
def test_import_leaves_numpy_unloaded_but_loads_every_module(module):
    report = _fresh(f"import {module}\nresult = None")
    assert report["numpy"] == []
    # the benchmark's tracer wraps functions in these modules after `import pabi`
    assert {"pabi.shifts", "pabi.bounds", "pabi.privacy", "pabi.simulate"} <= set(report["pabi"])


def _numpy_and_scipy_imports() -> list:
    """(file, enclosing function or None, package) of each numpy or scipy import in src/pabi."""
    found = []

    def visit(node, file, names, in_function):
        for child in ast.iter_child_nodes(node):
            modules = []
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                modules = [child.module]
            for package in sorted({m.split(".")[0] for m in modules} & {"numpy", "scipy"}):
                found.append((file, ".".join(names) if in_function else None, package))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, file, names + [child.name], True)
            elif isinstance(child, ast.ClassDef):
                visit(child, file, names + [child.name], in_function)
            else:
                visit(child, file, names, in_function)

    for path in sorted(pathlib.Path(SRC, "pabi").glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, [], False)
    return found


def test_numpy_is_imported_only_by_the_handle_and_nothing_at_module_level():
    assert _numpy_and_scipy_imports() == [
        ("_util.py", "_Numpy.__getattr__", "numpy"),
        ("shifts.py", "numeric_oracle", "scipy"),
    ]


TYPE_HINTS = """
import typing
import pabi
result = []
for name in pabi.__all__:
    try:
        typing.get_type_hints(getattr(pabi, name))
    except Exception as err:
        result.append(f"{name}: {err!r}")
"""


def test_type_hints_resolve_for_every_public_name():
    assert _fresh(TYPE_HINTS)["result"] == []


# Queries and refusals that build no array: the c = 1 bound at any horizon,
# --pla-kl, mixing and privacy epsilon.
SCALAR_QUERIES = [
    "bound --alpha 1 --D 1 --T 4 --sigma 1 --c 1 --h 0",
    "bound --alpha 1 --D 1 --eta 0.25 --h 0 --T 1 --pla-kl",
    "bound --alpha 1 --D 1 --T 1000 --sigma 1 --c 1 --h 1",
    "bound --alpha 1 --D 1 --T 1000000 --sigma 1 --c 1 --h 1",
    "bound --alpha 1 --D 1 --T 1000000000 --sigma 1 --c 1 --h 1",
    "mixing threshold --p 0.5 --M 2 --D 1",
    "mixing weakly-smooth --D 1 --eta 0.037037037037037035 --p 0.5 --M 2 --eps 0.5",
    "mixing dissipative --D 1 --eta 0.5 --lam 0.1 --kappa 1 --beta 1 --eps 0.5",
    "privacy epsilon --n 1000 --b 1 --L 1 --M 2 --p 1 --eta 0.01 --sigma 32 --alpha 2 --T 100000 --D 1"
    " --format json",
]
SCALAR_REFUSALS = [
    "bogus",
    "bound --T four",
    "mixing threshold --p 0.5 --M 1e308 --D 1",
    "bound --alpha 1 --D 1 --T 1000000000000 --sigma 1 --c 1.5 --h 0.1",
    "privacy epsilon --n 10 --b 5 --L 1 --M 2 --p 1 --eta 0.01 --sigma 32 --alpha 2 --T 100000 --D 1",
    "bound --alpha 2 --D 1 --T 10 --sigma 1 --c 1.5 --h 0 --form log-upper",
    "shifts --D 1 --T 3 --sigma 1 --c 1,1 --h 0",
    "privacy sweep --n 1000 --L 1 --M 100 --D 1 --p 1 --eta-grid 0.2",
    "simulate validate-mixing --potential power --p 0.5 --M 2 --D 1 --eta 0.5",
]
# positive controls: each builds an array, so it loads numpy
ARRAY_QUERIES = [
    "shifts --D 1 --T 2 --sigma 1 --c 1.01,1 --h 4,4",
    "privacy sweep --n 1000 --L 1 --M 2 --D 1 --p 0.2,0.4,0.6,1 --eta-grid geometric:1e-3,0.251,100",
    "simulate run --potential power --p 0.5 --M 2 --D 1 --eta 0.037 --T 27 --chains 1000 --seed 7",
]

# README queries and refusals other than --oracle (validate-mixing with fewer
# chains), and oracle refusals.
QUERIES = SCALAR_QUERIES + ARRAY_QUERIES + [
    "bound --alpha 1 --D 1e200 --T 4 --sigma 1 --c 1.5 --h 0",
    "simulate validate-mixing --potential power --p 0.5 --M 2 --D 1 --eta 0.037037037037037035"
    " --chains 10000 --seed 7 --format json",
]
REFUSALS = SCALAR_REFUSALS + [
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


@pytest.mark.parametrize("command", SCALAR_QUERIES)
def test_scalar_query_leaves_numpy_unloaded(command):
    report = _cli(command)
    assert report["result"][0] == 0, report["result"][2]
    assert report["numpy"] == []


@pytest.mark.parametrize("command", SCALAR_REFUSALS)
def test_scalar_refusal_leaves_numpy_unloaded(command):
    report = _cli(command)
    assert report["result"][0] == 2
    assert report["numpy"] == []


@pytest.mark.parametrize("command", ARRAY_QUERIES)
def test_array_query_loads_numpy(command):
    report = _cli(command)
    assert report["result"][0] == 0, report["result"][2]
    assert "numpy" in report["numpy"]


ORACLE_CALL = """
from pabi import IterationSpec, PreconditionError, QuadraticModulus, numeric_oracle, solve_closed_form
spec = IterationSpec.uniform(1.5, {horizon}, QuadraticModulus(1.0, 1.0), 0.9)
try:
    oracle, closed = numeric_oracle(spec), solve_closed_form(spec)
    result = [x.tolist() for x in (oracle.u, oracle.a)] == [x.tolist() for x in (closed.u, closed.a)]
    result = result and oracle.objective == closed.objective
except PreconditionError as err:
    result = err.code
"""


@pytest.mark.parametrize("horizon, result", [(13, "horizon_too_large"), (1, True)])
def test_oracle_without_a_search_leaves_scipy_unloaded(horizon, result):
    report = _fresh(ORACLE_CALL.format(horizon=horizon))
    assert (report["result"], report["scipy"]) == (result, [])


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
