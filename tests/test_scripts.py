"""Smoke tests: each demo script's main() runs to the end on small inputs."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_main(name: str, argv: list[str], monkeypatch) -> None:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    assert module.main() is None


@pytest.mark.parametrize(
    "name, argv",
    [
        ("synthetic_tracking_experiment", ["--frames", "20", "--seeds", "1"]),
        ("streamline_demo", ["--trials", "8"]),
    ],
)
def test_script_returns(name, argv, monkeypatch, capsys):
    run_main(name, argv, monkeypatch)
    assert capsys.readouterr().out


def test_fifo_sizing_experiment_reports_deadlock_and_sizing(monkeypatch, capsys):
    run_main("fifo_sizing_experiment", [], monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:5] == [
        "default depths: deadlock",
        "  blocked nodes: src, fork, bshort, acc, join",
        "  full edges:    e1, e2, e_in",
        "recommended depths: {'e_in': 1, 'e1': 1, 'e2': 15, 'e3': 8, 'e4': 8, 'e5': 1}",
        "at recommended depths: completed in 51 cycles",
    ]
