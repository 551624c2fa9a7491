"""Benchmark command line: single runs, sweep tables, and plot-ready exports.

Subcommands
-----------
simulate   one closed-loop run; writes ``log.csv`` and ``summary.json``
table      one of the three benchmark sweeps; writes a report CSV and a
           rendered text table
plotdata   convert simulation logs into aligned column files for plotting

Every artifact embeds the fully resolved configuration and seed. Output is
deterministic: re-running with identical configuration and seed reproduces
byte-identical files. Exit codes: 0 success, 1 runtime failure, 2 usage
error. ``ADAPTIVE_NMPC_THREADS`` caps grid parallelism.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .adaptation import AdaptConfig
from .controller import ControllerConfig
from .harness import (
    Cell,
    CellResult,
    GridSpec,
    NoiseConfig,
    SimLog,
    metric_total_error,
    metric_tv,
    run_closed_loop,
    run_experiment_grid,
)
from .trajectories import PRESET_NAMES, ReferenceTrajectory, preset

SIMLOG_COLUMNS = (
    "t",
    "px",
    "py",
    "pz",
    "prx",
    "pry",
    "prz",
    "c",
    "wx",
    "wy",
    "wz",
    "d_i",
    "kkt",
    *[f"q{i}" for i in range(10)],
)

REPORT_COLUMNS = ("trajectory", "variant", "lambda", "N", "Ns", "sigma", "e", "tv", "e_r", "status")

_VARIANT_CLI_TO_INTERNAL = {"linear": "linear", "exp": "exponential"}
_VARIANT_INTERNAL_TO_CLI = {v: k for k, v in _VARIANT_CLI_TO_INTERNAL.items()}

#: JSON value types accepted for each RunConfig field type (ints are valid floats).
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}

TABLE_LAMBDAS = (0.01, 0.67, 1.67, 3.00)
TABLE_HORIZONS = (8, 14, 19, 24)
TABLE_SIGMAS = (0.5, 2.0, 3.5, 5.0)
TABLE1_SUB_HORIZONS = (2, 8, 12)
TABLE2_SUB_HORIZONS = (8, 14, 18)


@dataclass
class RunConfig:
    """Resolved run parameters; also the schema of the JSON config file."""

    trajectory: str = "circle"
    mode: str = "fixed"
    variant: str = "exp"
    lam: float = 1.0
    gamma: float = 0.0
    horizon: int = 19
    sub_horizon: int = 8
    alpha: float = 1.0
    alternations: int = 2
    dt: float = 0.05
    noise_sigma: float = 0.0
    runs: int = 1
    seed: int = 0
    out: str = "out"

    _FILE_KEYS = {"lambda": "lam"}

    def validate(self) -> None:
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(f"mode must be 'fixed' or 'adaptive', got {self.mode!r}")
        if self.variant not in _VARIANT_CLI_TO_INTERNAL:
            raise ValueError(f"variant must be one of {sorted(_VARIANT_CLI_TO_INTERNAL)}, got {self.variant!r}")
        if not (self.trajectory in PRESET_NAMES or self.trajectory.startswith("file:")):
            raise ValueError(f"trajectory must be a preset {PRESET_NAMES} or 'file:<path>', got {self.trajectory!r}")
        if self.noise_sigma < 0:
            raise ValueError("noise-sigma must be non-negative")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")

    def echo(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        d.pop("out")  # destination path is not part of the experiment definition
        return d

    def controller_config(self) -> ControllerConfig:
        adapt = None
        if self.mode == "adaptive":
            adapt = AdaptConfig(
                lam=self.lam,
                gamma=self.gamma,
                sub_horizon=self.sub_horizon,
                variant=_VARIANT_CLI_TO_INTERNAL[self.variant],
            )
        return ControllerConfig(
            horizon=self.horizon,
            dt=self.dt,
            alpha=self.alpha,
            adapt=adapt,
            alternations=self.alternations,
        )

    def load_trajectory(self) -> ReferenceTrajectory:
        if self.trajectory.startswith("file:"):
            return ReferenceTrajectory.from_csv(self.trajectory[5:])
        return preset(self.trajectory, dt=self.dt)


def resolve_config(args: argparse.Namespace, defaults: RunConfig | None = None) -> RunConfig:
    """Apply precedence defaults < config file < explicit flags."""
    cfg = defaults if defaults is not None else RunConfig()
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            data = json.load(fh)
        types = {f.name: f.type for f in fields(RunConfig)}
        for key, value in data.items():
            attr = RunConfig._FILE_KEYS.get(key, key)
            if attr not in types:
                raise ValueError(f"unknown config key {key!r}")
            # bool is an int subclass in Python, but JSON true/false is never a number here
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[types[attr]]):
                raise ValueError(f"config key {key!r} must be of type {types[attr]}, got {value!r}")
            setattr(cfg, attr, value)
    for f in fields(RunConfig):
        flag_val = getattr(args, f.name, None)
        if flag_val is not None:
            setattr(cfg, f.name, flag_val)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------


def _config_header(config: dict) -> str:
    return "# config: " + json.dumps(config, sort_keys=True)


def write_simlog_csv(log: SimLog, path: Path, config: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_config_header(config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(SIMLOG_COLUMNS)
        d = log.position_error
        for i in range(len(log)):
            row = [
                log.ts[i],
                *log.x_true[i, 0:3],
                *log.ref_xs[i, 0:3],
                *log.u_applied[i],
                d[i],
                log.kkt[i],
                *log.q_snapshot[i],
            ]
            writer.writerow([repr(float(v)) for v in row])


def read_simlog_csv(path: Path) -> tuple[dict, np.ndarray]:
    """Returns (config, data) with data columns as in SIMLOG_COLUMNS."""
    config = {}
    with open(path, newline="") as fh:
        first = fh.readline()
        if first.startswith("# config:"):
            config = json.loads(first[len("# config:") :])
        else:
            fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != SIMLOG_COLUMNS:
            raise ValueError(f"unexpected log CSV header in {path}")
        data = np.array([[float(v) for v in row] for row in reader])
    return config, data


def write_report_csv(results: list[CellResult], path: Path, config: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_config_header(config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for res in results:
            cell = res.cell
            variant = "fixed" if cell.mode == "fixed" else _VARIANT_INTERNAL_TO_CLI[cell.variant]
            rep = res.report
            writer.writerow(
                [
                    cell.trajectory,
                    variant,
                    "" if cell.lam is None else repr(float(cell.lam)),
                    cell.horizon,
                    "" if cell.sub_horizon is None else cell.sub_horizon,
                    repr(float(cell.sigma)),
                    "" if rep is None else repr(rep.e),
                    "" if rep is None else repr(rep.tv),
                    "" if rep is None or rep.e_r is None else repr(rep.e_r),
                    res.status,
                ]
            )


def _cell_text(res: CellResult, noise: bool) -> str:
    if res.status == "skipped":
        return "skipped"
    if res.status == "failed" or res.report is None:
        return "failed"
    if noise:
        return f"{res.report.e_r if res.report.e_r is not None else res.report.e:.2f}"
    return f"{res.report.e:.2f} | {res.report.tv:.2f}"


def render_table(results: list[CellResult], columns: list, column_label: str, noise: bool = False) -> str:
    """Fixed-width text table mirroring the benchmark layout (one block per trajectory)."""
    by_key = {}
    rows_seen: dict[str, None] = {}
    for res in results:
        cell = res.cell
        row = "fixed" if cell.mode == "fixed" else f"Ns={cell.sub_horizon}"
        col = cell.sigma if noise else (cell.lam if column_label == "lambda" else cell.horizon)
        # a fixed-weight cell has no lambda, so it is the baseline of every lambda column
        for c in columns if col is None else [col]:
            by_key[(cell.trajectory, row, c)] = res
        rows_seen.setdefault(row)

    trajectories = sorted({r.cell.trajectory for r in results})
    width = 16
    lines = []
    for traj in trajectories:
        lines.append(f"== {traj}")
        header = f"{'':12s}" + "".join(f"{column_label}={c:<{width - len(column_label) - 1}}" for c in columns)
        lines.append(header)
        for row in rows_seen:
            cells = []
            for c in columns:
                res = by_key.get((traj, row, c))
                cells.append(_cell_text(res, noise) if res is not None else "")
            lines.append(f"{row:12s}" + "".join(f"{c:<{width}}" for c in cells))
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    traj = cfg.load_trajectory()
    controller_cfg = cfg.controller_config()
    noise = NoiseConfig(sigma=cfg.noise_sigma) if cfg.noise_sigma > 0 else None
    log = run_closed_loop(traj, controller_cfg, noise=noise, seed=cfg.seed)

    e = metric_total_error(log)
    tv = metric_tv(log.u_applied)
    echo = cfg.echo()
    write_simlog_csv(log, out / "log.csv", echo)
    summary = {
        "e": e,
        "tv": tv,
        "seed": cfg.seed,
        "trajectory_length": len(log),
        "controller_failures": log.failures,
        "config": echo,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"e = {e:.4f}  tv = {tv:.4f}  -> {out / 'log.csv'}")
    if log.failures:
        print(f"warning: controller failed on {log.failures} ticks (held command)", file=sys.stderr)
        return 1
    return 0


def table_grid(table: int, cfg: RunConfig) -> GridSpec:
    trajectories = tuple(PRESET_NAMES)
    if table == 1:
        return GridSpec(
            trajectories=trajectories,
            lambdas=TABLE_LAMBDAS,
            horizons=(cfg.horizon,),
            sub_horizons=TABLE1_SUB_HORIZONS,
            variant=_VARIANT_CLI_TO_INTERNAL[cfg.variant],
            runs=cfg.runs,
            gamma=cfg.gamma,
        )
    if table == 2:
        return GridSpec(
            trajectories=trajectories,
            lambdas=(cfg.lam,),
            horizons=TABLE_HORIZONS,
            sub_horizons=TABLE2_SUB_HORIZONS,
            variant=_VARIANT_CLI_TO_INTERNAL[cfg.variant],
            runs=cfg.runs,
            gamma=cfg.gamma,
        )
    if table == 3:
        return GridSpec(
            trajectories=trajectories,
            lambdas=(cfg.lam,),
            horizons=(cfg.horizon,),
            sub_horizons=(cfg.sub_horizon,),
            sigmas=TABLE_SIGMAS,
            variant=_VARIANT_CLI_TO_INTERNAL[cfg.variant],
            runs=cfg.runs,
            gamma=cfg.gamma,
        )
    raise ValueError(f"table must be 1, 2 or 3, got {table}")


def cmd_table(args: argparse.Namespace) -> int:
    cfg = resolve_config(args, RunConfig(runs=15) if args.table == 3 else None)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    grid = table_grid(args.table, cfg)
    results = run_experiment_grid(grid, cfg.controller_config(), seed=cfg.seed)

    echo = cfg.echo()
    echo["table"] = args.table
    write_report_csv(results, out / f"table{args.table}_report.csv", echo)

    if args.table == 1:
        text = render_table(results, list(TABLE_LAMBDAS), "lambda")
    elif args.table == 2:
        text = render_table(results, list(TABLE_HORIZONS), "N")
    else:
        text = render_table(results, list(TABLE_SIGMAS), "sigma", noise=True)
    text = _config_header(echo) + "\n" + text
    (out / f"table{args.table}.txt").write_text(text)
    print(text)
    n_failed = sum(1 for r in results if r.status == "failed")
    return 1 if n_failed else 0


def cmd_plotdata(args: argparse.Namespace) -> int:
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    logs = []
    for path in args.log:
        if not Path(path).exists():
            print(f"error: log file not found: {path}", file=sys.stderr)
            return 1
        logs.append((Path(path), *read_simlog_csv(Path(path))))

    def write_cols(name: str, header: list[str], cols: list[np.ndarray], config: dict) -> None:
        with open(out / name, "w", newline="") as fh:
            fh.write(_config_header(config) + "\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in np.column_stack(cols):
                writer.writerow([repr(float(v)) for v in row])

    for path, config, data in logs:
        stem = path.stem if len(logs) > 1 else ""
        suffix = f"_{stem}" if stem else ""
        t = data[:, 0]
        write_cols(f"path{suffix}.csv", ["x", "y", "z", "ref_x", "ref_y", "ref_z"],
                   [data[:, 1], data[:, 2], data[:, 3], data[:, 4], data[:, 5], data[:, 6]], config)
        write_cols(f"position_vs_t{suffix}.csv", ["t", "px", "py", "pz", "prx", "pry", "prz"],
                   [t, data[:, 1], data[:, 2], data[:, 3], data[:, 4], data[:, 5], data[:, 6]], config)
        write_cols(f"controls_vs_t{suffix}.csv", ["t", "c", "wx", "wy", "wz"],
                   [t, data[:, 7], data[:, 8], data[:, 9], data[:, 10]], config)

    if len(logs) > 1:
        n_rows = {len(data) for _, _, data in logs}
        if len(n_rows) != 1:
            print(f"error: logs have differing lengths {sorted(n_rows)}; cannot merge", file=sys.stderr)
            return 1
        t0 = logs[0][2][:, 0]
        for _, _, data in logs[1:]:
            if not np.allclose(data[:, 0], t0, atol=1e-12):
                print("error: logs have differing time bases; cannot merge", file=sys.stderr)
                return 1
        header = ["t"]
        cols = [t0]
        for path, _, data in logs:
            for j, label in ((1, "px"), (2, "py"), (3, "pz"), (11, "d_i")):
                header.append(f"{label}_{path.stem}")
                cols.append(data[:, j])
        header += ["prx", "pry", "prz"]
        cols += [logs[0][2][:, 4], logs[0][2][:, 5], logs[0][2][:, 6]]
        write_cols("comparison.csv", header, cols, logs[0][1])
    print(f"plot data written to {out}/")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """Flags shared by ``simulate`` and ``table``."""
    p.add_argument("--config", help="JSON config file (defaults < file < flags)")
    p.add_argument("--variant", choices=sorted(_VARIANT_CLI_TO_INTERNAL))
    p.add_argument("--lambda", dest="lam", type=float, help="weight-update regularization strength")
    p.add_argument("--gamma", type=float)
    p.add_argument("--horizon", type=int)
    p.add_argument("--sub-horizon", dest="sub_horizon", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--alternations", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adaptive-nmpc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one closed-loop simulation")
    p_sim.add_argument("--trajectory", help="circle|diamond|agg1|agg2|file:<path>")
    p_sim.add_argument("--mode", choices=["fixed", "adaptive"])
    p_sim.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    _add_run_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_tab = sub.add_parser("table", help="run one of the three benchmark sweeps")
    p_tab.add_argument("--table", type=int, choices=[1, 2, 3], required=True)
    p_tab.add_argument("--runs", type=int, help="noise averaging runs (table 3 default: 15)")
    _add_run_flags(p_tab)
    p_tab.set_defaults(func=cmd_table)

    p_plot = sub.add_parser("plotdata", help="emit plot-ready column files from logs")
    p_plot.add_argument("--log", action="append", required=True, help="simulation log CSV (repeatable)")
    p_plot.add_argument("--out", help="output directory")
    p_plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
