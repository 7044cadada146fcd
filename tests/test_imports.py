"""Every module imports on its own: the package root imports nothing."""

import os
import subprocess
import sys
from pathlib import Path

import mobinc

PACKAGE_DIR = Path(mobinc.__file__).parent


def _fresh(code):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def test_each_module_imports_in_a_fresh_interpreter():
    names = ["mobinc"] + sorted(
        f"mobinc.{path.stem}" for path in PACKAGE_DIR.glob("*.py")
        if path.stem != "__init__"
    )
    for name in names:
        done = _fresh(f"import {name}")
        assert done.returncode == 0, f"import {name} failed:\n{done.stderr}"


def test_io_loads_neither_applications_nor_pivot():
    # The file loaders need the set types, not the algorithms that use them.
    done = _fresh("import sys, mobinc.io; print(*sorted(sys.modules))")
    loaded = set(done.stdout.split())
    assert done.returncode == 0 and "mobinc.io" in loaded and "mobinc.incidence" in loaded
    assert not loaded & {"mobinc.applications", "mobinc.pivot"}


def test_incidence_loads_no_pivot():
    # The group scan is the oracle of the pivot enumeration: it shares no code.
    done = _fresh("import sys, mobinc.incidence; print(*sorted(sys.modules))")
    loaded = set(done.stdout.split())
    assert done.returncode == 0 and "mobinc.incidence" in loaded
    assert "mobinc.pivot" not in loaded
