"""Start-up budget: importing the library and its CLI loads no heavy scipy subpackage.
Also the public surface: the library exports only what the pipeline runs, and
the window tests depend on no fit.

`scipy.stats` alone pulls in stats, optimize, integrate, interpolate, ndimage,
spatial and fft, about half of a CLI call's start-up time and a third of its
memory; every smoothdiff process (a shell call, each table preset, the
simulate pool and its workers) would pay for it. The import runs in a fresh interpreter, since
this one has loaded `scipy.stats` for the test oracles.
"""

import ast
import importlib
import json
import subprocess
import sys
from types import ModuleType

import smoothdiff

MODULES = ("basis", "fitting", "simulate", "tdp", "toeplitz", "windows")
# the paper's alternative forms and the helpers only tests use live in tests/oracles.py
ORACLE_FORMS = (
    "closed_testing_oracle",
    "simes_test",
    "eval_basis",
    "band_form",
    "region",
    "build_pentadiagonal",
    "tridiag_dense",
    "dense_product_residual",
    "dense_inverse_rate",
)

HEAVY = (
    "scipy.stats",
    "scipy.optimize",
    "scipy.integrate",
    "scipy.interpolate",
    "scipy.ndimage",
    "scipy.spatial",
    "scipy.fft",
)


def test_import_loads_no_heavy_scipy_subpackage():
    code = (
        "import json, sys\n"
        "import smoothdiff, smoothdiff.cli\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == []


def test_public_names_resolve_and_exclude_the_oracle_forms():
    exported = set()
    for name in MODULES:
        module = importlib.import_module(f"smoothdiff.{name}")
        for member in module.__all__:
            assert hasattr(module, member), f"smoothdiff.{name}.__all__ names missing {member}"
        exported.update(module.__all__)
        assert not [f for f in ORACLE_FORMS if hasattr(module, f)], name
    package = {k for k, v in vars(smoothdiff).items() if not k.startswith("_") and not isinstance(v, ModuleType)}
    assert package - {"DomainError", "NumericalError", "ParameterError"} <= exported
    assert not hasattr(smoothdiff.BasisSpec, "basis_support")
    assert not hasattr(smoothdiff.BasisSpec, "region")
    assert not hasattr(smoothdiff.TridiagFactor, "dense")


def test_windows_imports_nothing_from_fitting():
    # the window tests take the coefficient difference and V's band, not fits
    import smoothdiff.windows

    with open(smoothdiff.windows.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported and not {name for name in imported if name.split(".")[-1] == "fitting"}
