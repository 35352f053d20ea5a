"""The package namespace re-exports exactly the submodules' public names,
and importing it (or running a stage without a spectrum) loads no SciPy."""

import importlib
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import zml

SUBMODULES = ("errors", "profiles", "potential", "zeromodes", "spectral",
              "reduction")


def test_every_exported_name_resolves():
    missing = [name for name in zml.__all__ if not hasattr(zml, name)]
    assert missing == []


def test_exports_are_the_submodule_exports():
    # a name removed from its submodule cannot linger in the package
    names = {"__version__"}
    for sub in SUBMODULES:
        names |= set(importlib.import_module(f"zml.{sub}").__all__)
    assert len(zml.__all__) == len(set(zml.__all__))
    assert set(zml.__all__) == names


def test_cli_import_leaves_out_scipy_integrate():
    # the mode norms use zml's own Simpson rule; scipy.integrate (with
    # scipy.special and scipy.optimize) was most of every CLI start
    src = str(pathlib.Path(zml.__file__).resolve().parents[1])
    code = "import sys, zml.cli; print('scipy.integrate' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"


def _fresh_python(code, *args):
    """stdout of ``python -c code args`` in a fresh interpreter."""
    src = str(pathlib.Path(zml.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    return done.stdout


def test_import_leaves_out_scipy():
    # LAPACK is imported by the first spectral call, not by the package
    code = "import sys, zml, zml.cli; print('scipy' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


LINE = {"kind": "box", "B0": 1.0, "a": 2.0}
RADIAL = {**LINE, "dimension": "radial-plane"}
GRID = {"x_lo": -17.0, "x_hi": 17.0, "n": 341}
R_GRID = {"x_lo": 0.0, "x_hi": 20.0, "n": 41}


@pytest.mark.parametrize("stage, cfg, loads_scipy", [
    ("flux", {"profile": LINE}, False),
    ("potential", {"profile": LINE, "grid": GRID}, False),
    ("potential", {"profile": RADIAL, "grid": R_GRID}, False),
    ("modes", {"profile": LINE, "grid": GRID, "sector": "b"}, False),
    ("scan", {"profile": LINE, "grid": GRID, "sector": "b",
              "k_list": [0.0, 2.5]}, False),
    ("modes2d", {"profile": RADIAL, "grid": R_GRID, "j_list": [0, 1]}, False),
    ("count", {"profile": LINE, "Ly": 2 * math.pi}, False),
    ("count", {"profile": RADIAL}, False),
    ("spectrum", {"profile": LINE, "grid": GRID, "k_y": 0.0}, True),
    ("verify", {"profile": LINE, "grid": {"x_lo": -32.0, "x_hi": 32.0,
                                          "n": 802},
                "Ly": 2 * math.pi, "n_range": [-3, 3]}, True),
], ids=["flux", "potential-line", "potential-radial", "modes", "scan",
        "modes2d", "count-line", "count-radial", "spectrum", "verify"])
def test_only_spectral_stages_load_scipy(tmp_path, stage, cfg, loads_scipy):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "out_dir": str(tmp_path / "o")}))
    code = ("import sys, zml.cli\n"
            "code = zml.cli.main(sys.argv[1:])\n"
            "print(code, 'scipy' in sys.modules, "
            "'scipy.linalg' in sys.modules)")
    last = _fresh_python(code, stage, "--config", str(path)).splitlines()[-1]
    assert last == f"0 {loads_scipy} {loads_scipy}"
