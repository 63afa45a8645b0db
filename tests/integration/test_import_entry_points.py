"""Every serving-stack package imports cleanly as the *first* import.

An import cycle between these packages only bites when the wrong one is
the entry point, which a test session (one interpreter, collection
order) hides.  Each package is therefore imported alone in a fresh
interpreter.
"""

import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("package", [
    "repro.core", "repro.scale", "repro.snap", "repro.gateway",
    "repro.wal", "repro.replica", "repro.compile", "repro.xmldb",
    "repro.xmlsec"])
def test_package_imports_first_in_a_fresh_interpreter(package):
    result = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=60)
    assert result.returncode == 0, result.stderr
