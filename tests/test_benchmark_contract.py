"""The benchmark in ``perfbench/`` still runs against the library.

``perfbench`` wraps and reads library names from outside (``harness.nmpc_tick``,
``harness.inject_noise``, ``QuadrotorModel.step``/``discretize``,
``ShootingProblem.stages``, ``ShootingProblem.alpha``, ``State.as_vector``,
``AdaptConfig(variant="exponential")`` and more), so deleting or renaming one of them breaks the benchmark without
failing any other test. These runs each check the benchmark once: the
self-test of its output checks, one traced round of ``saturated``, one
untraced round of ``track`` (the workload of the paper's nominal case), the
set-up of ``noise-sweep`` and, marked ``slow``, one untraced round of
``noise-sweep`` (its pool patch of ``harness.ProcessPoolExecutor``,
``run_experiment_grid``'s ``max_workers``, the report writer and the Table 3
renderer). A fast test keeps the call that pool patch replaces,
``harness.ProcessPoolExecutor(max_workers=N)`` used as a context manager,
without a process pool. Not run here: a traced ``track`` round, an untraced ``saturated``
round and the traced ``noise-sweep`` (its serial column). They write only
under ``perfbench/out/``.

The model's step must also pass the benchmark's replay check, which compares
every logged transition with the scalar RK4 oracle in ``perfbench/checks.py``;
a test here runs that comparison directly, in about a second. Another runs the
benchmark's dense QP oracle ``checks.check_qp``, which reads each stage through
``ShootingProblem.stages``, on QPs of a saturated run, and a third keeps that
per-stage view off the control tick.
"""

import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adaptive_nmpc
from adaptive_nmpc import AdaptConfig, ControllerConfig, controller, harness, preset
from adaptive_nmpc.dynamics import QUADROTOR
from adaptive_nmpc.transcription import Q_MIN, ShootingProblem
from helpers import SATURATED_BOX, random_unit_quat

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import checks  # noqa: E402 - the benchmark's own oracle, imported from its directory


def run(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300
    )


def test_root_exports_what_the_benchmark_imports_from_it():
    # every other name is imported from its module
    names = {name for name, v in vars(adaptive_nmpc).items() if not (name.startswith("_") or inspect.ismodule(v))}
    assert names == {"PRESET_NAMES", "preset", "AdaptConfig", "ControllerConfig", "ControlLimits"}


def test_selftest_passes():
    proc = run(str(PERFBENCH / "selftest.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_traced_saturated_round_is_correct():
    proc = run(str(PERFBENCH / "run.py"), "--workload", "saturated", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert '"correct": true' in proc.stdout


def test_untraced_track_round_is_correct():
    # the four presets in both modes at N=19, about 8 s on two CPUs
    proc = run(str(PERFBENCH / "run.py"), "--workload", "track", "--seconds", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert '"correct": true' in proc.stdout


def test_noise_sweep_setup_runs():
    proc = run(str(PERFBENCH / "run.py"), "--workload", "noise-sweep", "--setup-only")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert float(proc.stdout.split()[-1]) > 0.0


def test_grid_pool_is_created_as_the_benchmark_patches_it(monkeypatch):
    # PoolProbe replaces exactly harness.ProcessPoolExecutor(max_workers=N), used as a context manager;
    # a stand-in that maps in this process must give what the serial path gives
    events = []

    class SerialPool:
        def __init__(self, *args, **kwargs):
            events.append(("create", args, kwargs))

        def __enter__(self):
            events.append("enter")
            return self

        def __exit__(self, *exc):
            events.append("exit")

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.delenv(harness.THREADS_ENV, raising=False)
    grid = harness.GridSpec(("circle",), horizons=(8,), sub_horizons=(4,), sigmas=(1.0,))
    base = ControllerConfig(horizon=8)
    serial = harness.run_experiment_grid(grid, base, seed=3, max_workers=1)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    pooled = harness.run_experiment_grid(grid, base, seed=3, max_workers=2)
    assert events == [("create", (), {"max_workers": 2}), "enter", "exit"]
    assert pooled == serial
    assert [r.status for r in serial] == ["ok", "ok"]


@pytest.mark.slow
def test_noise_sweep_round_is_correct():
    # one round of the Table 3 grid, about 25 s on two CPUs
    proc = run(str(PERFBENCH / "run.py"), "--workload", "noise-sweep", "--seconds", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert '"correct": true' in proc.stdout


def test_step_matches_replay_oracle():
    # the check every benchmark run makes on each logged transition, here on
    # random states with controls inside and at the limits of the saturated box
    rng = np.random.default_rng(5)
    lo, hi = SATURATED_BOX.lower, SATURATED_BOX.upper
    worst = 0.0
    for i in range(200):
        x = np.concatenate([3.0 * rng.standard_normal(6), random_unit_quat(rng)])
        u = rng.uniform(lo, hi)
        if i % 2:
            pick = rng.integers(0, 3, 4)  # per component: lower limit, upper limit or the draw
            u = np.where(pick == 0, lo, np.where(pick == 1, hi, u))
        pred = np.array(checks.rk4_step(x.tolist(), u.tolist(), 0.05))
        got = QUADROTOR.step(x, u, 0.05)
        worst = max(worst, float(np.max(np.abs(pred - got) / np.maximum(1.0, np.abs(got)))))
    assert worst <= checks.ROUND_OFF, f"step is {worst:.2e} from the replay oracle"


def test_saturated_qps_pass_the_benchmark_oracle(monkeypatch):
    # every 10th QP of agg2 adaptive under the saturated box, as the benchmark samples them
    solves = []
    solve_qp = controller.solve_qp

    def keep(prob, *args, **kwargs):
        sol = solve_qp(prob, *args, **kwargs)
        solves.append((prob, sol))
        return sol

    monkeypatch.setattr(controller, "solve_qp", keep)
    cfg = ControllerConfig(limits=SATURATED_BOX, adapt=AdaptConfig())
    log = harness.run_closed_loop(preset("agg2"), cfg)
    assert log.failures == 0
    sampled = solves[9::10]
    assert sum(int(np.any(sol.active)) for _, sol in sampled) > len(sampled) // 2  # bounds bind
    for prob, sol in sampled:
        assert checks.check_qp(prob, sol, Q_MIN, cfg.qp_tol) == []


def test_tick_never_reads_per_stage_view(monkeypatch):
    def refuse(self):
        raise AssertionError("ShootingProblem.stages read on the tick path")

    monkeypatch.setattr(ShootingProblem, "stages", property(refuse))
    for adapt in (None, AdaptConfig()):
        log = harness.run_closed_loop(preset("agg1"), ControllerConfig(limits=SATURATED_BOX, adapt=adapt))
        assert log.failures == 0
