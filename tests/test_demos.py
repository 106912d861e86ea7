"""The narrative demos run to completion with RuntimeWarning as an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(demo: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", ["decay_rate_tour.py", "screening_strategy.py",
                                  "variational_landscape.py"])
def test_demo_runs(demo):
    proc = _run_demo(demo)
    assert proc.returncode == 0, proc.stderr


def test_variational_profiles_are_symmetric():
    # each optimizer is symmetric about the box centre, so each sketch is a
    # palindrome: mirror nodes a roundoff apart get the same glyph.  The
    # walls, up to 7e226 deep, must not flatten the well: every sketch
    # shows the box ends, the well and the walls as at least 3 glyphs
    proc = _run_demo("variational_landscape.py")
    assert proc.returncode == 0, proc.stderr
    sketches = [line.split("|")[1] for line in proc.stdout.splitlines()
                if line.count("|") == 2]
    assert len(sketches) == 4
    assert all(s == s[::-1] for s in sketches), sketches
    assert all(len(set(s)) >= 3 for s in sketches), sketches
