"""The benchmark in ``perfbench/`` still runs against the library.

``perfbench`` wraps and reads library names from outside (``harness.nmpc_tick``,
``harness.inject_noise``, ``QuadrotorModel.step``/``discretize``,
``ShootingProblem.stages``, ``State.as_vector``, ``AdaptConfig(variant="exponential")``
and more), so deleting or renaming one of them breaks the benchmark without
failing any other test. These runs exercise every wrapper and check once
each: the self-test of the output checks, one traced round of ``saturated``
and the set-up of ``noise-sweep``. They write only under ``perfbench/out/``.
"""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300
    )


def test_selftest_passes():
    proc = run(str(PERFBENCH / "selftest.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_traced_saturated_round_is_correct():
    proc = run(str(PERFBENCH / "run.py"), "--workload", "saturated", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert '"correct": true' in proc.stdout


def test_noise_sweep_setup_runs():
    proc = run(str(PERFBENCH / "run.py"), "--workload", "noise-sweep", "--setup-only")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert float(proc.stdout.split()[-1]) > 0.0
