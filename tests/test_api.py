"""The package namespace re-exports exactly the submodules' public names."""

import importlib
import os
import pathlib
import subprocess
import sys

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
