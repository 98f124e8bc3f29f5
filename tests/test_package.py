"""The package loads each submodule on first use of one of its names."""

import importlib
import os
import subprocess
import sys

import pytest

import seqlab

# Standard modules that only the submodules need.
HEAVY = {"dataclasses", "decimal", "fractions", "json"}


def test_import_loads_no_submodule():
    src = os.path.dirname(os.path.dirname(seqlab.__file__))
    code = ("import sys; before = set(sys.modules); import seqlab; "
            "print(*sorted(set(sys.modules) - before)); print(seqlab.checks.__name__)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    *loaded, checks = proc.stdout.split()
    assert "seqlab" in loaded
    assert [m for m in loaded if m.startswith("seqlab.") or m in HEAVY] == []
    assert checks == "seqlab.checks"


def test_every_public_name_resolves_in_the_module_that_defines_it():
    for name in seqlab.__all__[1:]:
        home = importlib.import_module(f"seqlab.{seqlab._HOMES[name]}")
        value = getattr(seqlab, name)
        assert value is getattr(home, name)
        assert vars(seqlab)[name] is value  # looked up once, then bound
        # A name imported by another submodule resolves there too; the table
        # names the module that defines it.
        assert getattr(value, "__module__", home.__name__) == home.__name__


def test_star_import_dir_and_unknown_names():
    namespace = {}
    exec("from seqlab import *", namespace)
    assert set(seqlab.__all__) <= namespace.keys()
    assert set(seqlab.__all__) <= set(dir(seqlab))
    with pytest.raises(AttributeError, match="no_such_name"):
        seqlab.no_such_name
