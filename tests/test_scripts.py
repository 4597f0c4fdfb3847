"""Smoke tests: the experiment scripts run end to end and print their results."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    # Every fixture's algebra is proven a division algebra by invariants.
    assert out.count("   division algebra: proven by a local invariant\n") == len(FIXTURE_NAMES)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "args",
    [
        ["scripts/mindet_scan.py"],
        ["scripts/worked_examples_report.py"],
        ["-m", "skewlat", "verify-examples"],
    ],
    ids=["mindet_scan", "worked_examples_report", "verify-examples"],
)
def test_closed_stdout_fails_quietly(args, unbuffered):
    # The read end of the child's stdout is closed before the child starts,
    # so its first write or its final flush meets a closed pipe, whatever the
    # length of its output (a `| head` reader races with short output).
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
