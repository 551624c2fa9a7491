"""Wrappers around the library's entry points, installed from outside the library.

``RunProbe`` times every control tick and keeps every closed-loop run's log
(both runs of a workload use it). ``Tracer`` records a span around each
layer's entry point (traced runs only). ``PoolProbe`` swaps the harness's
process pool for one that runs a ``RunProbe`` in every worker and times
each job there.
"""

from __future__ import annotations

import os
import resource
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import median

import numpy as np

from adaptive_nmpc import controller, harness
from adaptive_nmpc.dynamics import QuadrotorModel


class Patches:
    """Module or class attributes replaced by wrappers, restored by ``undo``."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr: str, make) -> None:
        orig = owner.__dict__[attr]
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def undo(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunRecord:
    """One closed-loop run as the harness ran it."""

    trajectory: str
    cfg: controller.ControllerConfig
    sigma: float
    log: harness.SimLog
    injections: list  # (x_in, x_out) per noise corruption


class RunProbe:
    """Times every tick at ``harness.nmpc_tick``/``baseline_tick`` and keeps every run.

    With ``qp_every > 0`` it also keeps every ``qp_every``-th
    ``(ShootingProblem, QpSolution, run index)`` the controller solves, up
    to ``qp_limit`` of them.
    """

    def __init__(self, qp_every: int = 0, qp_limit: int = 0):
        self.qp_every = qp_every
        self.qp_limit = qp_limit
        self.tick_s: list[float] = []
        self.runs: list[RunRecord] = []
        self.qp_pairs: list = []
        self._solves = 0
        self._injections: list = []
        self._patches = Patches()

    def install(self) -> "RunProbe":
        p = self._patches
        p.wrap(harness, "run_closed_loop", self._wrap_run)
        p.wrap(harness, "inject_noise", self._wrap_inject)
        p.wrap(harness, "nmpc_tick", self._wrap_tick)
        p.wrap(harness, "baseline_tick", self._wrap_tick)
        if self.qp_every:
            p.wrap(controller, "solve_qp", self._wrap_solve)
        return self

    def remove(self) -> None:
        self._patches.undo()

    def reset(self) -> None:
        self.tick_s, self.runs, self.qp_pairs = [], [], []

    def _wrap_tick(self, orig):
        def tick(*args, **kwargs):
            t0 = time.perf_counter()
            out = orig(*args, **kwargs)
            self.tick_s.append(time.perf_counter() - t0)
            return out

        return tick

    def _wrap_run(self, orig):
        def run_closed_loop(traj, cfg, noise=None, seed=0, x0=None):
            injections = []
            self._injections = injections
            log = orig(traj, cfg, noise=noise, seed=seed, x0=x0)
            sigma = noise.sigma if noise is not None else 0.0
            self.runs.append(RunRecord(traj.name, cfg, sigma, log, injections))
            return log

        return run_closed_loop

    def _wrap_inject(self, orig):
        def inject_noise(x, sigma, rng):
            out = orig(x, sigma, rng)
            self._injections.append((x.as_vector(), out.as_vector()))
            return out

        return inject_noise

    def _wrap_solve(self, orig):
        def solve_qp(prob, *args, **kwargs):
            sol = orig(prob, *args, **kwargs)
            self._solves += 1
            if self._solves % self.qp_every == 0 and len(self.qp_pairs) < self.qp_limit:
                self.qp_pairs.append((prob, sol, len(self.runs)))
            return sol

        return solve_qp


# ---------------------------------------------------------------------------
# Layer spans
# ---------------------------------------------------------------------------

#: (owner, attribute, span name) of every wrapped layer entry point.
ENTRY_POINTS = (
    (harness, "run_closed_loop", "run_closed_loop"),
    (harness, "nmpc_tick", "tick"),
    (harness, "baseline_tick", "tick"),
    (QuadrotorModel, "step", "step"),
    (QuadrotorModel, "discretize", "discretize"),
    (controller, "build_qp", "build_qp"),
    (controller, "solve_qp", "solve_qp"),
    (controller, "apply_step", "apply_step"),
    (controller, "compute_v", "compute_v"),
    (controller, "update_weights", "update_weights"),
)


class Tracer:
    """Records a span (name, start, end, parent span) around each layer entry point.

    Spans stay in memory; ``summary`` reduces them to per-layer totals and
    self times, ``write`` dumps them as CSV.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.solves: list[tuple] = []  # (tick span, u_pred, limits, solution) per QP
        self._stack: list[int] = []
        self._patches = Patches()

    def install(self) -> "Tracer":
        for owner, attr, name in ENTRY_POINTS:
            self._patches.wrap(owner, attr, lambda orig, name=name: self._span(name, orig))
        return self

    def remove(self) -> None:
        self._patches.undo()

    def _span(self, name: str, orig):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent)
            if name == "solve_qp":
                self.solves.append((parent, args[0].u_pred, args[0].limits, out))
            return out

        return wrapper

    def qp_figures(self) -> tuple[list[float], list[int]]:
        """First-round step norm of every tick, and the controls each QP solution holds at a limit."""
        first_norms, held = [], []
        last_tick = -1
        for tick, u_pred, limits, sol in self.solves:
            if tick != last_tick:
                last_tick = tick
                first_norms.append(sol.step_norm)
            u = u_pred + sol.du
            at = (np.abs(u - limits.lower) <= 1e-9) | (np.abs(u - limits.upper) <= 1e-9)
            held.append(int(at.sum()))
        return first_norms, held

    def summary(self) -> tuple[dict, dict, dict]:
        """(total seconds, self seconds, call count) per span name."""
        child = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total, own, count = defaultdict(float), defaultdict(float), defaultdict(int)
        for idx, (name, t0, t1, parent) in enumerate(self.spans):
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[idx]
            count[name] += 1
        return total, own, count

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for idx, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{idx},{name},{t0!r},{t1!r},{parent}\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-tick layer figures of a traced in-process run."""
    total, own, count = tracer.summary()
    first_norms, held = tracer.qp_figures()
    ticks = count["tick"]
    ms = 1000.0 / ticks
    return {
        "dynamics.discretize_ms_per_tick": total["discretize"] * ms,
        "dynamics.step_ms_per_tick": total["step"] * ms,
        "transcription.build_qp_self_ms_per_tick": own["build_qp"] * ms,
        "transcription.solve_qp_ms_per_call": 1000.0 * total["solve_qp"] / count["solve_qp"],
        "transcription.solve_qp_ms_per_tick": total["solve_qp"] * ms,
        "transcription.clamped_per_solve": sum(held) / len(held),
        "transcription.apply_step_ms_per_tick": total["apply_step"] * ms,
        "adaptation.update_ms_per_tick": (total["compute_v"] + total["update_weights"]) * ms,
        "controller.rounds_per_tick": count["solve_qp"] / ticks,
        "controller.first_step_norm_p50": median(first_norms),
        "controller.self_ms_per_tick": own["tick"] * ms,
        "harness.loop_self_ms_per_tick": own["run_closed_loop"] * ms,
    }


# ---------------------------------------------------------------------------
# Process pool
# ---------------------------------------------------------------------------

_worker_probe: RunProbe | None = None


def _start_worker() -> None:
    global _worker_probe
    _worker_probe = RunProbe().install()


@dataclass
class JobInfo:
    pid: int
    busy_s: float
    tick_s: list
    runs: list
    maxrss_mb: float


class TimedJob:
    """Runs the harness's job function in a worker and returns what its probe saw."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        _worker_probe.reset()
        t0 = time.perf_counter()
        out = self.fn(*args)
        busy = time.perf_counter() - t0
        info = JobInfo(os.getpid(), busy, _worker_probe.tick_s, _worker_probe.runs, maxrss_mb())
        return out, info


class PoolProbe:
    """Replaces ``harness.ProcessPoolExecutor`` with a pool whose jobs report back."""

    def __init__(self):
        self.jobs: list[JobInfo] = []
        self.wall_s = 0.0
        self._patches = Patches()

    def install(self) -> "PoolProbe":
        self._patches.wrap(harness, "ProcessPoolExecutor", lambda orig: self._pool)
        return self

    def remove(self) -> None:
        self._patches.undo()

    def _pool(self, max_workers=None):
        probe = self

        class Pool(ProcessPoolExecutor):
            def __init__(self):
                super().__init__(max_workers=max_workers, initializer=_start_worker)
                self.t0 = time.perf_counter()

            def map(self, fn, *iterables, **kwargs):
                for out, info in super().map(TimedJob(fn), *iterables, **kwargs):
                    probe.jobs.append(info)
                    yield out

            def __exit__(self, *exc):
                out = super().__exit__(*exc)
                probe.wall_s += time.perf_counter() - self.t0
                return out

        return Pool()

    def worker_rss_mb(self) -> float:
        """Sum over workers of each worker's peak resident memory."""
        peak: dict[int, float] = {}
        for info in self.jobs:
            peak[info.pid] = max(peak.get(info.pid, 0.0), info.maxrss_mb)
        return sum(peak.values())
