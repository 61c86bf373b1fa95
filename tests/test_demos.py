"""The demos, run end to end as a user runs them."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


# the pattern each demo's last printed line matches
LAST_LINES = {
    "01_channels_and_metrics.py": r"unitarity of depolarizing 0\.1: 0\.81 ",
    "02_randomized_benchmarking.py": r"XEB fitted f = ",
    "05_circuit_fidelity_and_volumetrics.py": r"\d+\s+\d+\s+[0-9.]+\s+[0-9.]+\s+[0-9.]+\s+(all-pass|mixed|all-fail)$",
    "06_timedomain_and_rpe.py": r"\s*k_max\s+256: RMS ",
}


@pytest.mark.parametrize("name", sorted(LAST_LINES))
def test_demo_runs_to_its_last_line(name):
    """Demos 01, 02, 05 and 06 run in a fresh interpreter to their last line."""
    proc = _run_demo(name)
    assert proc.returncode == 0, proc.stderr
    assert re.match(LAST_LINES[name], proc.stdout.splitlines()[-1])
