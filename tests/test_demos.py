"""The demos run as scripts and exit cleanly.  Demo 03 is left out: its
full-size bit-oracle sweep takes tens of seconds, and the same attack
runs in tests/test_acceptance.py."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "name",
    [
        "01_scheme_basics.py",
        "02_one_query_key_recovery.py",
        "05_encoder_leak.py",
    ],
)
def test_demo_exits_cleanly(name):
    assert run_demo(name)


def test_equality_demo_recovers_bob_secrets():
    """Demo 04 exits cleanly, its attacker Alice reads Bob's r and input
    exactly, and the flooded session blocks her."""
    out = run_demo("04_equality_protocol_privacy.py")
    for label in ("recovered blinding r", "recovered Bob input"):
        match = re.search(rf"{label} = (-?\d+) \(truth (-?\d+)\)", out)
        assert match, out
        assert match.group(1) == match.group(2)
    assert "recovery failed" in out
