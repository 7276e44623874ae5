"""The demos and the README's library example run against this checkout."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spinlaw import charseries as cs

ROOT = Path(__file__).resolve().parents[1]


def checkout_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_straightening_walkthrough_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "straightening_walkthrough.py")],
        env=checkout_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "resolved by h_(1) (route: direct)" in proc.stdout


def run_tour(tmp_path, failing: str = "") -> subprocess.CompletedProcess:
    """Run ``demos/cli_tour.sh`` with this checkout's CLI as ``spinlaw``.

    The tour calls `spinlaw` from PATH, so a shim first on PATH runs this
    checkout's CLI.  The subcommand named ``failing`` still writes its report
    and artifact, then exits 1, as a check that reports ``ok: false`` does.
    """
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "spinlaw"
    shim.write_text(
        f'#!/bin/sh\n"{sys.executable}" -m spinlaw.cli "$@" || exit\n'
        f'[ "$1" = "{failing}" ] && exit 1\nexit 0\n'
    )
    shim.chmod(0o755)
    env = checkout_env()
    env["PATH"] = os.pathsep.join(p for p in (str(bin_dir), env.get("PATH")) if p)
    env["SPINLAW_OUT"] = str(tmp_path)
    return subprocess.run(
        ["sh", str(ROOT / "demos" / "cli_tour.sh")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )


def test_cli_tour_runs(tmp_path):
    proc = run_tour(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == [
        "character.json", "delannoy-check.json", "hasse.dot", "hasse.json",
        "obstructions.csv", "relations.csv", "straightened-check.json",
    ]
    assert "buchberger: True" in proc.stdout and "ok: True" in proc.stdout


@pytest.mark.parametrize(
    "failing",
    ["hasse", "straightened-check", "obstructions", "character", "delannoy-check"],
)
def test_cli_tour_stops_on_a_failing_call(tmp_path, failing):
    assert run_tour(tmp_path, failing).returncode != 0


def test_readme_library_example_runs():
    # the README's "Library" block, run statement by statement: its names and
    # the values of its bare expressions are the ones its comments state
    readme = (ROOT / "README.md").read_text()
    [block] = re.findall(r"## Library\n\n```python\n(.*?)```", readme, re.S)
    ns: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            shown.append(eval(code, ns))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    assert len(ns["rels"]) == 10 and shown == [True, 16]
    c = ns["c"]
    assert cs.format_laurent(c.num) == "1+5t+5t^2+t^3"
    assert cs.format_denominator(c.den) == "(1-t)^11"
    assert [layer.total() for layer in c.series(4)] == [1, 16, 126, 672, 2772]
