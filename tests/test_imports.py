"""Every module imports on its own: the package root imports nothing."""

import os
import subprocess
import sys
from pathlib import Path

import mobinc

PACKAGE_DIR = Path(mobinc.__file__).parent


def test_each_module_imports_in_a_fresh_interpreter():
    names = ["mobinc"] + sorted(
        f"mobinc.{path.stem}" for path in PACKAGE_DIR.glob("*.py")
        if path.stem != "__init__"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    for name in names:
        done = subprocess.run([sys.executable, "-c", f"import {name}"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, f"import {name} failed:\n{done.stderr}"
