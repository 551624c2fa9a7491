"""Closed-loop benchmark of the adaptive NMPC library.

    python3 perfbench/run.py --workload track|saturated|noise-sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/``. The workload repeats whole rounds of closed-loop runs until
``--seconds`` have passed, then checks every output. With ``--trace 0`` it
reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a second, traced run. The last line of standard output is one JSON object;
the lines before it name every metric with its unit. See README.md.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread per process, so pool workers do not oversubscribe the cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("track", "saturated", "noise-sweep")

#: Set-up is timed in this process and in this many fresh interpreters before
#: the timed phase, and as many after it, so that the samples of one run
#: span it.
SETUP_SAMPLES = 4

#: Keep every QP_EVERY-th solved QP of the first round for the dense oracle, up to QP_SAMPLES.
QP_EVERY = 40
QP_SAMPLES = 24

#: The control box of ``saturated``: below the reference's thrust and rate peaks
#: (16.6 m/s^2 and 3.9 rad/s on agg1/agg2), so the bounds bind on most ticks.
TIGHT_BOX = dict(c_min=7.0, c_max=12.5, omega_min=-1.0, omega_max=1.0)

#: Noise runs per Table 3 cell.
SWEEP_RUNS = 2

#: Seed of the noise draws in ``noise-sweep``: the ``table`` command's default.
#: It is the same for every benchmark seed, because one kick draw per
#: (trajectory, run) sets a large share of e: over benchmark seeds 0-5 the
#: fixed-weight e of the grid ranged from 122 to 211 m, wider than any
#: regression bound can be.
SWEEP_SEED = 0


@dataclass
class Job:
    """One closed-loop run of an in-process workload."""

    name: str
    mode: str
    traj: object
    cfg: object


@dataclass
class Inputs:
    """Everything a workload runs, built during set-up."""

    trajs: dict
    preset_s: list
    jobs: list = field(default_factory=list)  # in-process workloads
    grid: object = None  # noise-sweep
    base: object = None
    workers: int = 1
    seed: int = 0

    def ticks_per_round(self) -> int:
        if self.grid is None:
            return sum(len(job.traj) for job in self.jobs)
        return sum(cell.runs * len(self.trajs[cell.trajectory]) for cell in set(self.grid.cells()))

    def runs_per_round(self) -> int:
        if self.grid is None:
            return len(self.jobs)
        return sum(cell.runs for cell in set(self.grid.cells()))


def setup(workload: str, seed: int) -> tuple[Inputs, float]:
    """Import the library, generate the reference trajectories and build the configs."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import adaptive_nmpc
    from adaptive_nmpc import AdaptConfig, ControlLimits, ControllerConfig, cli, harness, preset

    if Path(adaptive_nmpc.__file__).resolve().parent != SRC / "adaptive_nmpc":
        raise ImportError(f"adaptive_nmpc imported from {adaptive_nmpc.__file__}, not from {SRC}")

    names = ("agg1", "agg2") if workload == "saturated" else adaptive_nmpc.PRESET_NAMES
    trajs, preset_s = {}, []
    for name in names:
        tp = time.perf_counter()
        trajs[name] = preset(name)
        preset_s.append(time.perf_counter() - tp)
    inputs = Inputs(trajs, preset_s, seed=seed)

    if workload == "noise-sweep":
        run_cfg = cli.RunConfig(runs=SWEEP_RUNS, seed=SWEEP_SEED)
        inputs.grid = cli.table_grid(3, run_cfg)
        inputs.base = run_cfg.controller_config()
        inputs.workers = harness.grid_workers(len(os.sched_getaffinity(0)))
    else:
        limits = ControlLimits(**TIGHT_BOX) if workload == "saturated" else ControlLimits()
        modes = {
            "fixed": ControllerConfig(limits=limits),
            "adaptive": ControllerConfig(limits=limits, adapt=AdaptConfig(lam=1.0, sub_horizon=8, variant="exponential")),
        }
        inputs.jobs = [Job(name, mode, trajs[name], cfg) for name in names for mode, cfg in modes.items()]
        random.Random(seed).shuffle(inputs.jobs)
    return inputs, time.perf_counter() - t0


def setup_in_fresh_interpreters(workload: str, seed: int, count: int) -> list[float]:
    """Set-up times of fresh interpreters that run set-up alone."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "ADAPTIVE_NMPC_THREADS": os.environ.get("ADAPTIVE_NMPC_THREADS"),
    }


def tick_percentiles(tick_s: list[float]) -> tuple[float, float]:
    """Median and 95th percentile of the tick times, in ms."""
    p95 = statistics.quantiles(tick_s, n=20)[-1]
    return 1000.0 * statistics.median(tick_s), 1000.0 * p95


# ---------------------------------------------------------------------------
# In-process workloads: track, saturated
# ---------------------------------------------------------------------------


def run_in_process(inputs: Inputs, seconds: float, trace: bool, out: Path) -> dict:
    import numpy as np

    import checks
    import layers
    from adaptive_nmpc import cli, harness
    from adaptive_nmpc.transcription import Q_MIN

    probe = layers.RunProbe(qp_every=QP_EVERY, qp_limit=QP_SAMPLES).install()
    tracer = layers.Tracer().install() if trace else None
    rounds = 0
    artifacts_s = 0.0
    t0 = time.perf_counter()
    while True:
        for job in inputs.jobs:
            log = harness.run_closed_loop(job.traj, job.cfg, seed=inputs.seed)
            ta = time.perf_counter()
            cli.write_simlog_csv(log, out / f"{job.name}-{job.mode}.csv", {"trajectory": job.name, "mode": job.mode})
            artifacts_s += time.perf_counter() - ta
        rounds += 1
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.remove()
    probe.remove()

    # output checks, after the timed phase; later rounds must repeat the first bit for bit
    J = len(inputs.jobs)
    first = probe.runs[:J]
    problems = {}
    sums = {"e_adaptive": 0.0, "e_fixed": 0.0, "tv_adaptive": 0.0, "tv_fixed": 0.0}
    for j, (job, rec) in enumerate(zip(inputs.jobs, first)):
        log = rec.log
        e = harness.metric_total_error(log)
        tv = harness.metric_tv(log.u_applied)
        sums[f"e_{job.mode}"] += e
        sums[f"tv_{job.mode}"] += tv
        problems[j] = checks.check_log(log, job.traj.xs, job.cfg) + checks.check_metrics(log, e, tv)
    for prob, sol, run_index in probe.qp_pairs:
        problems[run_index % J] += checks.check_qp(prob, sol, Q_MIN, inputs.jobs[0].cfg.qp_tol)
    for i, rec in enumerate(probe.runs[J:], start=J):
        ref = first[i % J].log
        if not all(np.array_equal(getattr(rec.log, a), getattr(ref, a)) for a in ("x_true", "u_applied", "kkt")):
            problems[i % J].append(f"round {i // J + 1} does not repeat the first round")
    failed = rounds * sum(1 for found in problems.values() if found)

    report_problems({f"{job.name}-{job.mode}": problems[j] for j, job in enumerate(inputs.jobs)})
    tick_p50, tick_p95 = tick_percentiles(probe.tick_s)
    result = {
        "attempted": len(probe.runs),
        "failed": failed,
        "ticks_per_s": rounds * inputs.ticks_per_round() / wall,
        "tick_ms_p50": tick_p50,
        "tick_ms_p95": tick_p95,
        **sums,
        "peak_rss_mb": layers.maxrss_mb(),
        "wall_s": wall,
        "rounds": rounds,
    }
    if tracer is not None:
        tracer.write(out / "spans.csv")
        total, _, count = tracer.summary()
        result["layers"] = {
            **layers.layer_metrics(tracer),
            "cli.artifacts_ms": 1000.0 * artifacts_s / rounds,
            "harness.jobs": J,
            "harness.run_cell_s_per_job": total["run_closed_loop"] / count["run_closed_loop"],
            "harness.pool_efficiency": total["run_closed_loop"] / wall,
        }
    return result


# ---------------------------------------------------------------------------
# noise-sweep: the Table 3 grid through run_experiment_grid and the process pool
# ---------------------------------------------------------------------------


def run_sweep(inputs: Inputs, seconds: float, trace: bool, out: Path) -> dict:
    import checks
    import layers
    from adaptive_nmpc import cli, harness

    pooled = inputs.workers > 1
    probe = (layers.PoolProbe() if pooled else layers.RunProbe()).install()
    echo = {"table": 3, "runs": SWEEP_RUNS, "seed": SWEEP_SEED}
    rounds = []
    artifacts_s = 0.0
    t0 = time.perf_counter()
    while True:
        results = harness.run_experiment_grid(inputs.grid, inputs.base, seed=SWEEP_SEED, max_workers=inputs.workers)
        ta = time.perf_counter()
        cli.write_report_csv(results, out / "table3_report.csv", echo)
        text = cli.render_table(results, list(cli.TABLE_SIGMAS), "sigma", noise=True)
        (out / "table3.txt").write_text(text)
        artifacts_s += time.perf_counter() - ta
        rounds.append(results)
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    probe.remove()

    if pooled:
        records = [rec for info in probe.jobs for rec in info.runs]
        tick_s = [t for info in probe.jobs for t in info.tick_s]
        rss = layers.maxrss_mb() + probe.worker_rss_mb()
    else:
        records, tick_s, rss = probe.runs, probe.tick_s, layers.maxrss_mb()

    # output checks on the first round; later rounds must repeat it bit for bit
    cells = list(dict.fromkeys(res.cell for res in rounds[0]))
    first = {res.cell: res for res in rounds[0]}
    by_key = {}
    for rec in records[: inputs.runs_per_round()]:
        mode = "fixed" if rec.cfg.adapt is None else "adaptive"
        by_key.setdefault((rec.trajectory, mode, rec.sigma), []).append(rec)
    problems = {}
    sums = {"e_adaptive": 0.0, "e_fixed": 0.0, "tv_adaptive": 0.0, "tv_fixed": 0.0}
    for cell in cells:
        res = first[cell]
        runs = by_key.get((cell.trajectory, cell.mode, cell.sigma), [])
        found = problems[cell] = []
        if res.status != "ok":
            found.append(f"cell status {res.status}: {res.message}")
            continue
        sums[f"e_{cell.mode}"] += res.report.e
        sums[f"tv_{cell.mode}"] += res.report.tv
        es = res.per_run_e
        if not (len(es) == cell.runs == len(runs)):
            found.append(f"{len(es)} run errors and {len(runs)} logged runs for {cell.runs} runs")
            continue
        if not (res.report.e_r is not None and abs(res.report.e_r - sum(es) / len(es)) <= checks.ROUND_OFF * res.report.e_r):
            found.append(f"e_r {res.report.e_r!r} is not the mean of the per-run errors {es!r}")
        ref_xs = inputs.trajs[cell.trajectory].xs
        tvs = []
        for rec, e in zip(runs, es):
            tvs.append(harness.metric_tv(rec.log.u_applied))
            found += checks.check_log(rec.log, ref_xs, rec.cfg)
            found += checks.check_metrics(rec.log, e, tvs[-1])
            found += checks.check_noise(rec.log, cell.sigma, rec.injections)
        if abs(res.report.tv - sum(tvs) / len(tvs)) > checks.ROUND_OFF * res.report.tv:
            found.append(f"tv {res.report.tv!r} is not the mean of the per-run TVs")
    if len(records) != len(rounds) * inputs.runs_per_round():
        problems[cells[0]].append(f"{len(records)} logged runs, expected {len(rounds) * inputs.runs_per_round()}")
    for later in rounds[1:]:
        for res in later:
            if res.per_run_e != first[res.cell].per_run_e:
                problems[res.cell].append("a later round does not repeat the first")

    layer = {}
    if trace:
        layer = serial_column(inputs, first, problems)
    failed = len(rounds) * sum(cell.runs for cell in cells if problems[cell])
    report_problems({f"{c.trajectory}-{c.mode}-sigma{c.sigma}": problems[c] for c in cells})
    tick_p50, tick_p95 = tick_percentiles(tick_s)
    result = {
        "attempted": len(rounds) * inputs.runs_per_round(),
        "failed": failed,
        "ticks_per_s": len(rounds) * inputs.ticks_per_round() / wall,
        "tick_ms_p50": tick_p50,
        "tick_ms_p95": tick_p95,
        **sums,
        "peak_rss_mb": rss,
        "wall_s": wall,
        "rounds": len(rounds),
    }
    if trace:
        busy = sum(info.busy_s for info in probe.jobs) if pooled else wall
        jobs = len(probe.jobs) / len(rounds) if pooled else len(cells)
        result["layers"] = {
            **layer,
            "harness.jobs": jobs,
            "harness.run_cell_s_per_job": busy / (jobs * len(rounds)),
            "harness.pool_efficiency": busy / (inputs.workers * probe.wall_s) if pooled else 1.0,
            "cli.artifacts_ms": 1000.0 * artifacts_s / len(rounds),
        }
    return result


def serial_column(inputs: Inputs, first: dict, problems: dict) -> dict:
    """Traced run: one sigma column of the grid again, serially in this process.

    Its per-run errors must equal the pool's bit for bit (results do not
    depend on the worker count); its spans give the per-layer figures.
    """
    import layers
    from adaptive_nmpc import cli, harness

    sigma = cli.TABLE_SIGMAS[inputs.seed % len(cli.TABLE_SIGMAS)]
    column = replace(inputs.grid, sigmas=(sigma,))
    probe = layers.RunProbe().install()
    tracer = layers.Tracer().install()
    serial = harness.run_experiment_grid(column, inputs.base, seed=SWEEP_SEED, max_workers=1)
    tracer.remove()
    probe.remove()
    for res in serial:
        if res.per_run_e != first[res.cell].per_run_e:
            problems[res.cell].append(f"serial per-run errors {res.per_run_e!r} differ from the pool's")
    return layers.layer_metrics(tracer)


def report_problems(problems: dict[str, list[str]]) -> None:
    for name, found in problems.items():
        for text in found:
            print(f"CHECK FAILED [{name}]: {text}", file=sys.stderr)


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "adaptive_nmpc" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'adaptive_nmpc'}", file=sys.stderr)
        return 2
    inputs, own_setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(own_setup_s))
        return 0
    setup_s = [own_setup_s] + setup_in_fresh_interpreters(args.workload, args.seed, SETUP_SAMPLES)

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = run_sweep if args.workload == "noise-sweep" else run_in_process
    result = run(inputs, args.seconds, bool(args.trace), out)
    setup_s += setup_in_fresh_interpreters(args.workload, args.seed, SETUP_SAMPLES)
    result["setup_s"] = statistics.median(setup_s)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = {**result["layers"], "trajectories.preset_ms": 1000.0 * statistics.mean(inputs.preset_s)}
        declared = spec["per_layer"]
    else:
        values = result
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {result['rounds']}  "
          f"timed {result['wall_s']:.2f} s  setup samples {', '.join(f'{s:.3f}' for s in setup_s)} s")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        # measured and kept in result.json, but not a gated metric: see README.md
        print(f"  {'tick_ms_p50':44s} {result['tick_ms_p50']:.6g} ms")
    print(f"  operations attempted {result['attempted']}  failed {result['failed']}")
    summary = {"correct": result["failed"] == 0, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    extra = {"tick_ms_p50": result["tick_ms_p50"], "environment": env, "setup_samples_s": setup_s}
    (out / "result.json").write_text(json.dumps({**summary, **extra}, indent=2) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
