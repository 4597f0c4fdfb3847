"""Smoke tests: the experiment scripts run end to end and print their results."""

import os
import re
import subprocess
import sys
from pathlib import Path

from skewlat.fixtures import FIXTURE_NAMES

ROOT = Path(__file__).resolve().parent.parent


def run_script(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_mindet_scan():
    out = run_script("mindet_scan.py")
    values = re.findall(r"min \|norm det\| = (\d+)", out)
    # division configuration at boxes 1 and 2, then the u = 1 sabotage
    assert values == ["9", "9", "0", "0"]


def test_worked_examples_report():
    out = run_script("worked_examples_report.py")
    for name in FIXTURE_NAMES:
        assert f"== {name} ==" in out
    assert len(re.findall(r"lattice equals dual-code lattice: (True|False)", out)) == len(
        FIXTURE_NAMES
    )
