"""Every package imports first, and the serving packages import light.

An import cycle between packages only bites when the wrong one is the
entry point, which a test session (one interpreter, collection order)
hides.  Each package is therefore imported alone in a fresh interpreter.

The same fresh interpreters hold the layering of DESIGN.md §2: a
serving package (and the generators the end-to-end benchmark drives it
with) loads none of the analyzer, the experiments or the paper's other
subsystems, and no numpy.
"""

import json
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

PACKAGES = sorted(f"repro.{init.parent.name}"
                  for init in (SRC / "repro").glob("*/__init__.py"))
#: Modules that import ``repro.analysis``, which imports them back.
CYCLE_MODULES = ["repro.compile.verify", "repro.compile.xmltable"]

SERVING = ["repro.core", "repro.xmldb", "repro.snap", "repro.wal",
           "repro.replica", "repro.scale", "repro.compile",
           "repro.gateway", "repro.datagen"]

ABOVE_SERVING = ("repro.analysis", "repro.bench", "repro.privacy",
                 "repro.rdfdb", "repro.semweb", "repro.wsa", "repro.p3p",
                 "repro.pubsub", "repro.xmlsec", "numpy")


def modules_after_import(package):
    result = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys, {package}; print(json.dumps(list(sys.modules)))"],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_every_package_is_listed():
    assert len(PACKAGES) >= 20
    assert set(SERVING) <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES + CYCLE_MODULES)
def test_package_imports_first_in_a_fresh_interpreter(package):
    assert package in modules_after_import(package)


@pytest.mark.parametrize("package", SERVING)
def test_serving_package_loads_no_higher_layer(package):
    loaded = [name for name in modules_after_import(package)
              if any(name == top or name.startswith(top + ".")
                     for top in ABOVE_SERVING)]
    assert loaded == []
