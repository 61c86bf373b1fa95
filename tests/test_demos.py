"""The demos, run end to end as a user runs them."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_tomography_demo():
    """Demo 03 runs the state, process and measurement MLEs and recovers the Bell state."""
    proc = _run_demo("03_tomography_and_gst.py")
    assert proc.returncode == 0, proc.stderr
    fidelity = re.search(r"fidelity to \|Phi\+>: ([0-9.]+)", proc.stdout)
    assert fidelity and float(fidelity.group(1)) >= 0.99


def test_pauli_learning_demo():
    """Demo 04 runs in a fresh interpreter and ends on the CNOT learnability verdict."""
    proc = _run_demo("04_pauli_learning.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "cycle-space dimension: 14 | gauge dimension: 2"
