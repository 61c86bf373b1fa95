"""The demos, run end to end as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pauli_learning_demo():
    """Demo 04 runs in a fresh interpreter and ends on the CNOT learnability verdict."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "04_pauli_learning.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "cycle-space dimension: 14 | gauge dimension: 2"
