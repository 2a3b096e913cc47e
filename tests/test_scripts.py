"""The bundled scripts run from a checkout and exit 0."""

from __future__ import annotations

import subprocess
import sys

from conftest import SCENARIO_DIR

SCRIPTS = SCENARIO_DIR.parent / "scripts"

# Violation counts only, so any change here is a change to the simulation.
NOISE_SWEEP_STDOUT = """\
amplitude violations  accurate
        0          0        54
        1         37        17
        2         45         9
        3         44        10
        4         48         6
"""

NOISE_SWEEP_SEED_3_STDOUT = """\
amplitude violations  accurate
        0          0        54
        1         31        23
        2         43        11
"""


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)


def test_run_scenarios_prints_every_bundled_batch():
    proc = run_script("run_scenarios.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["happy_path", "pressure_fault_hop2"]
    assert "CLEAN" in lines[0]
    assert "VIOLATIONS: Pressure=3" in lines[1]


def test_noise_sweep_default_output_is_pinned():
    proc = run_script("noise_sweep.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == NOISE_SWEEP_STDOUT


def test_noise_sweep_flags_change_the_seed_and_range():
    proc = run_script("noise_sweep.py", "--seed", "3", "--max-amplitude", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == NOISE_SWEEP_SEED_3_STDOUT
