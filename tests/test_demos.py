"""The demos run to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
