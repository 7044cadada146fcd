"""The CI gate runner, scripts/gates.py, and the workflow that calls it."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENERGY = "Energy of the affine group of F_31"


@pytest.fixture
def gates(monkeypatch):
    spec = importlib.util.spec_from_file_location("gates", ROOT / "scripts" / "gates.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "GATES", [row for row in module.GATES if row[0] == ENERGY])
    assert len(module.GATES) == 1
    return module


def test_runner_passes_a_gate_that_holds(gates, capsys):
    assert gates.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(rf"PASS {ENERGY} \(\d+\.\d\d s\)", lines[0])
    assert lines[1:] == ["1 of 1 gates passed"]


def _one_digit_more(stdout_is):
    return lambda self, *args, expected, **kwargs: stdout_is(
        self, *args, expected=expected.replace("804357000", "804357001"), **kwargs)


def _exit_code_one(run):
    return lambda self, *args, code=0, **kwargs: run(self, *args, code=code + 1, **kwargs)


@pytest.mark.parametrize("method, mutate, why", [
    ("stdout_is", _one_digit_more,
     "stdout 'size=930 energy=804357000', expected 'size=930 energy=804357001'"),
    ("run", _exit_code_one, "exit 0, expected 1"),
])
def test_runner_fails_a_gate_whose_check_does_not_hold(gates, capsys, monkeypatch,
                                                        method, mutate, why):
    # The same gate, expecting one digit more of the energy, or exit code 1.
    monkeypatch.setattr(gates.Run, method, mutate(getattr(gates.Run, method)))
    assert gates.main() == 1
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL {ENERGY} (")
    assert out.split("\n")[1] == f"  {why}"
    assert "size=930 energy=804357000" in out.split("--- stdout\n")[1]
    assert out.endswith("0 of 1 gates passed\n")


def test_workflow_runs_every_gate_through_the_script():
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    steps = re.split(r"\n\s+- (?=name:|uses:)", text)[1:]
    assert len([step for step in steps if "scripts/gates.py" in step]) == 1
    assert not [step for step in steps if "mobinc.cli" in step]
