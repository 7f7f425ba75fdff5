"""Every subpackage (and each module in MODULES) imports on its own, in
a fresh interpreter.

The test session itself imports ``repro.graph`` first (conftest), which
would hide an import cycle that only breaks when a cycle is entered
from another package, so each import runs in its own subprocess.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


#: modules imported alone as well: repro.checking imports the algorithm
#: catalog, so the catalog must not import repro.checking at module level
MODULES = ["repro.algorithms.catalog"]


def test_every_subpackage_is_listed():
    assert {"repro.perfmodel", "repro.obs", "repro.sycl", "repro.frontier"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("package", SUBPACKAGES + MODULES)
def test_imports_alone(package):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
