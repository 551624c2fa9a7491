"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs two short closed-loop runs (agg1 under the tight box of ``saturated``,
and agg1 with one noise corruption), shows that every check passes on their
outputs, then corrupts copies of them and shows that each check rejects its
corruption. Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import replace

import numpy as np

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import layers  # noqa: E402
from adaptive_nmpc import AdaptConfig, ControlLimits, ControllerConfig, harness, preset  # noqa: E402
from adaptive_nmpc.transcription import Q_MIN  # noqa: E402


def log_checks(log, cfg, traj) -> list[str]:
    e = harness.metric_total_error(log)
    tv = harness.metric_tv(log.u_applied)
    return checks.check_log(log, traj.xs, cfg) + checks.check_metrics(log, e, tv)


def main() -> int:
    traj = preset("agg1")
    tight = ControllerConfig(limits=ControlLimits(**run.TIGHT_BOX), adapt=AdaptConfig())
    probe = layers.RunProbe(qp_every=10, qp_limit=20).install()
    log = harness.run_closed_loop(traj, tight)
    noisy_cfg = ControllerConfig()
    noisy = harness.run_closed_loop(traj, noisy_cfg, noise=harness.NoiseConfig(sigma=2.0), seed=3)
    probe.remove()
    injections = probe.runs[1].injections
    held = [(p, s) for p, s, _ in probe.qp_pairs if np.any(np.abs(s.du - (p.limits.upper - p.u_pred)) <= checks.AT_BOUND)]
    prob, sol = held[0]
    free = np.argwhere(
        (np.abs(sol.du - (prob.limits.upper - prob.u_pred)) > checks.AT_BOUND)
        & (np.abs(sol.du - (prob.limits.lower - prob.u_pred)) > checks.AT_BOUND)
    )[0]

    def corrupt_state():
        bad = copy.deepcopy(log)
        bad.x_true[50, 0] += 1e-6
        return log_checks(bad, tight, traj)

    def corrupt_box():
        bad = copy.deepcopy(log)
        bad.u_applied[30, 0] = tight.limits.c_max + 0.1
        return log_checks(bad, tight, traj)

    def corrupt_quaternion():
        bad = copy.deepcopy(log)
        bad.x_true[70, 6:10] *= 1.0 + 1e-9
        return log_checks(bad, tight, traj)

    def failed_tick():
        bad = copy.deepcopy(log)
        bad.failures = 1
        bad.kkt[40] = np.nan
        return log_checks(bad, tight, traj)

    def wrong_e():
        return checks.check_metrics(log, harness.metric_total_error(log) * (1.0 + 1e-9), harness.metric_tv(log.u_applied))

    def wrong_du():
        du = sol.du.copy()
        du[tuple(free)] += 1e-3
        return checks.check_qp(prob, replace(sol, du=du), Q_MIN, tight.qp_tol)

    def wrong_held_du():
        du = sol.du.copy()
        k, i = np.argwhere(np.abs(sol.du - (prob.limits.upper - prob.u_pred)) <= checks.AT_BOUND)[0]
        du[k, i] -= 1e-3  # no longer at the bound, so the oracle treats it as free
        return checks.check_qp(prob, replace(sol, du=du), Q_MIN, tight.qp_tol)

    def noise_magnitude():
        x_in, x_out = injections[0]
        x_bad = x_out.copy()
        x_bad[:3] = x_in[:3] + 1.01 * (x_out[:3] - x_in[:3])
        return checks.check_noise(noisy, 2.0, [(x_in, x_bad)])

    def noise_count():
        return checks.check_noise(noisy, 2.0, injections * 2)

    def noise_velocity():
        x_in, x_out = injections[0]
        x_bad = x_out.copy()
        x_bad[4] += 1e-3
        return checks.check_noise(noisy, 2.0, [(x_in, x_bad)])

    clean = {
        "log checks, tight box": log_checks(log, tight, traj),
        "log checks, noisy run": log_checks(noisy, noisy_cfg, traj),
        "noise protocol": checks.check_noise(noisy, 2.0, injections),
        "dense QP oracle": [p for pr, so in held for p in checks.check_qp(pr, so, Q_MIN, tight.qp_tol)],
    }
    corrupted = {
        "perturbed x_true row": (corrupt_state, "replay"),
        "command outside the box": (corrupt_box, "box"),
        "attitude off unit norm": (corrupt_quaternion, "quaternion"),
        "failed tick": (failed_tick, "failed ticks"),
        "wrong e": (wrong_e, "metrics"),
        "wrong du in a QP solution": (wrong_du, "qp oracle"),
        "held control moved off its bound": (wrong_held_du, "qp oracle"),
        "noise of the wrong size": (noise_magnitude, "noise"),
        "two corruptions in one run": (noise_count, "noise"),
        "velocity changed by the noise": (noise_velocity, "noise"),
    }

    ok = True
    print(f"{len(held)} captured QPs hold controls at a bound")
    for name, problems in clean.items():
        good = not problems
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} clean {name} passes" + ("" if good else f": {problems}"))
    for name, (make, prefix) in corrupted.items():
        match = [p for p in make() if p.startswith(prefix)]
        ok &= bool(match)
        print(f"{'ok  ' if match else 'FAIL'} {name} is rejected by the {prefix} check" + (f": {match[0]}" if match else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
