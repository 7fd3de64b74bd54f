"""Package-level claims of the README."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# records the modules loaded at startup (.pth hooks included), imports the
# package and every module in it, and prints each new top-level name
IMPORT_ALL = """
import importlib, pkgutil, sys
before = set(sys.modules)
import wiretap
for info in pkgutil.iter_modules(wiretap.__path__, "wiretap."):
    importlib.import_module(info.name)
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_numpy_is_the_only_runtime_dependency():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = set(proc.stdout.split())
    assert {"numpy", "wiretap"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "wiretap"} == set()
