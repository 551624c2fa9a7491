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
import math
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

#: plotdata's per-log files: file name -> {its column: the log.csv column it copies}
PLOT_FILES = {
    "path": {"x": "px", "y": "py", "z": "pz", "ref_x": "prx", "ref_y": "pry", "ref_z": "prz"},
    "position_vs_t": {c: c for c in ("t", "px", "py", "pz", "prx", "pry", "prz")},
    "controls_vs_t": {c: c for c in ("t", "c", "wx", "wy", "wz")},
}

REPORT_COLUMNS = ("trajectory", "variant", "lambda", "N", "Ns", "sigma", "e", "tv", "e_r", "status")

_VARIANT_CLI_TO_INTERNAL = {"linear": "linear", "exp": "exponential"}
_VARIANT_INTERNAL_TO_CLI = {v: k for k, v in _VARIANT_CLI_TO_INTERNAL.items()}

#: JSON value types accepted for each RunConfig field type (ints are valid floats).
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}

#: RunConfig fields whose config-file key and flag differ from the field name.
_FIELD_KEYS = {"lam": "lambda"}

#: RunConfig field a table can sweep -> (its GridSpec axis, its Cell attribute).
_SWEEP_AXES = {"lam": ("lambdas", "lam"), "horizon": ("horizons", "horizon"), "noise_sigma": ("sigmas", "sigma")}


@dataclass(frozen=True)
class TableSpec:
    """One benchmark sweep: the RunConfig field it sweeps and how its columns render."""

    field: str
    label: str  # column label of the rendered table
    values: tuple
    sub_horizons: tuple[int, ...] | None = None  # of the adaptive rows; None: the config's own
    runs: int = 1  # default noise averaging runs

    @property
    def unread(self) -> frozenset[str]:
        """RunConfig fields the table never reads: it runs every preset in both modes, noise only on Table 3."""
        own = () if self.sub_horizons is None else ("sub_horizon",)
        return frozenset(("trajectory", "mode", "noise_sigma", self.field, *own))


TABLE_SIGMAS = (0.5, 2.0, 3.5, 5.0)
TABLES = {
    1: TableSpec("lam", "lambda", (0.01, 0.67, 1.67, 3.00), sub_horizons=(2, 8, 12)),
    2: TableSpec("horizon", "N", (8, 14, 19, 24), sub_horizons=(8, 14, 18)),
    3: TableSpec("noise_sigma", "sigma", TABLE_SIGMAS, runs=15),
}


@dataclass
class RunConfig:
    """Resolved run parameters; also the schema of the JSON config file."""

    trajectory: str = "circle"
    mode: str = "fixed"
    variant: str = "exp"
    lam: float = 1.0
    horizon: int = 19
    sub_horizon: int = 8
    alpha: float = 1.0
    alternations: int = 2
    dt: float = 0.05
    noise_sigma: float = 0.0
    runs: int = 1
    seed: int = 0
    out: str = "out"

    def validate(self) -> None:
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{_FIELD_KEYS.get(f.name, f.name)} must be finite, got {getattr(self, f.name)!r}")
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self.controller_config()  # the controller's own checks: horizon, dt, alpha, lambda, sub-horizon >= 1

    def echo(self) -> dict:
        # the destination path is not part of the experiment definition
        return {_FIELD_KEYS.get(k, k): v for k, v in asdict(self).items() if k != "out"}

    def controller_config(self) -> ControllerConfig:
        # built whatever the mode, so that a bad lambda or sub-horizon fails before any run
        adapt = AdaptConfig(lam=self.lam, sub_horizon=self.sub_horizon, variant=_VARIANT_CLI_TO_INTERNAL[self.variant])
        return ControllerConfig(
            horizon=self.horizon,
            dt=self.dt,
            alpha=self.alpha,
            adapt=adapt if self.mode == "adaptive" else None,
            alternations=self.alternations,
        )

    def load_trajectory(self) -> ReferenceTrajectory:
        if self.trajectory.startswith("file:"):
            return ReferenceTrajectory.from_csv(self.trajectory[5:])
        return preset(self.trajectory, dt=self.dt)


def resolve_config(
    args: argparse.Namespace, defaults: RunConfig | None = None, unread: frozenset[str] = frozenset()
) -> RunConfig:
    """Apply precedence defaults < config file < explicit flags.

    Setting a field in ``unread``, which the command never reads, by flag is a
    usage error (exit 2) and by config key a ValueError. A command that reads
    the sub-horizon rejects one above the horizon, once every field has passed
    its own check: a horizon of 1 is blamed on the horizon, not on the sub-horizon.
    """
    for name in sorted(unread):
        if getattr(args, name, None) is not None:
            flag = "--" + _FIELD_KEYS.get(name, name).replace("_", "-")
            print(f"error: argument {flag}: not read by this command", file=sys.stderr)
            raise SystemExit(2)
    cfg = defaults if defaults is not None else RunConfig()
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file {config_path} must hold a JSON object")
        by_key = {_FIELD_KEYS.get(f.name, f.name): f for f in fields(RunConfig)}
        for key, value in data.items():
            f = by_key.get(key)
            if f is None:
                raise ValueError(f"unknown config key {key!r}")
            if f.name in unread:
                raise ValueError(f"config key {key!r} is not read by this command")
            # bool is an int subclass in Python, but JSON true/false is never a number here
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[f.type]):
                raise ValueError(f"config key {key!r} must be of type {f.type}, got {value!r}")
            setattr(cfg, f.name, value)
    for f in fields(RunConfig):
        flag_val = getattr(args, f.name, None)
        if flag_val is not None:
            setattr(cfg, f.name, flag_val)
    cfg.validate()
    if "sub_horizon" not in unread and cfg.sub_horizon > cfg.horizon:
        raise ValueError(f"sub-horizon {cfg.sub_horizon} exceeds horizon {cfg.horizon}")
    return cfg


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------


def _config_header(config: dict) -> str:
    return "# config: " + json.dumps(config, sort_keys=True)


def _write_csv(path: Path, config: dict, header, rows) -> None:
    """Every CSV artifact: the ``# config:`` line, the column names, then the rows.

    Every command's first artifact is a CSV, so a command that fails before it leaves no directory behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(_config_header(config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _float_rows(cols: list[np.ndarray]) -> list[list[str]]:
    """Side-by-side float columns as rows of round-trip text; NaN, a missing value, as an empty field."""
    return [["" if math.isnan(v) else repr(v) for v in row] for row in np.column_stack(cols).tolist()]


def write_simlog_csv(log: SimLog, path: Path, config: dict) -> None:
    cols = [log.ts, log.x_true[:, 0:3], log.ref_xs[:, 0:3], log.u_applied, log.position_error, log.kkt, log.q_snapshot]
    _write_csv(path, config, SIMLOG_COLUMNS, _float_rows(cols))


def read_simlog_csv(path: Path) -> tuple[dict, np.ndarray]:
    """Returns (config, data) with data columns as in SIMLOG_COLUMNS; an empty field reads as NaN."""
    config = {}
    with open(path, newline="") as fh:
        first = fh.readline()
        if first.startswith("# config:"):
            config = json.loads(first[len("# config:") :])
        else:
            fh.seek(0)
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != SIMLOG_COLUMNS:
            raise ValueError(f"missing or unexpected log CSV header in {path}")
        data = np.array([[float(v) if v else math.nan for v in row] for row in reader])
    if len(data) == 0:
        raise ValueError(f"log CSV {path} has no rows")
    return config, data


def _report_row(res: CellResult) -> list:
    cell, rep = res.cell, res.report
    return [
        cell.trajectory,
        "fixed" if cell.mode == "fixed" else _VARIANT_INTERNAL_TO_CLI[cell.variant],
        "" if cell.lam is None else repr(float(cell.lam)),
        cell.horizon,
        "" if cell.sub_horizon is None else cell.sub_horizon,
        repr(float(cell.sigma)),
        "" if rep is None else repr(rep.e),
        "" if rep is None else repr(rep.tv),
        "" if rep is None or rep.e_r is None else repr(rep.e_r),
        res.status,
    ]


def write_report_csv(results: list[CellResult], path: Path, config: dict) -> None:
    _write_csv(path, config, REPORT_COLUMNS, map(_report_row, results))


def _cell_text(res: CellResult, noise: bool) -> str:
    if res.status == "skipped":
        return "skipped"
    if res.status == "failed" or res.report is None:
        return "failed"
    if noise:
        return f"{res.report.e:.2f}"  # e_r, where set, equals e
    return f"{res.report.e:.2f} | {res.report.tv:.2f}"


def render_table(results: list[CellResult], columns: list, column_label: str, noise: bool = False) -> str:
    """Fixed-width text table mirroring the benchmark layout (one block per trajectory)."""
    attr = next(_SWEEP_AXES[t.field][1] for t in TABLES.values() if t.label == column_label)
    by_key = {}
    rows_seen: dict[str, None] = {}
    for res in results:
        cell = res.cell
        row = "fixed" if cell.mode == "fixed" else f"Ns={cell.sub_horizon}"
        col = getattr(cell, attr)
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
    cfg = resolve_config(args, unread=frozenset({"runs"}))
    controller_cfg = cfg.controller_config()
    out = Path(cfg.out)

    traj = cfg.load_trajectory()
    log = run_closed_loop(traj, controller_cfg, noise=NoiseConfig(cfg.noise_sigma), seed=cfg.seed)

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
        warning = f"warning: controller failed on {log.failures} ticks (held command); {log.first_failure_text}"
        print(warning, file=sys.stderr)
        return 1
    return 0


def table_grid(table: int, cfg: RunConfig) -> GridSpec:
    spec = TABLES[table]
    axes = {"lambdas": (cfg.lam,), "horizons": (cfg.horizon,)} | {_SWEEP_AXES[spec.field][0]: spec.values}
    return GridSpec(tuple(PRESET_NAMES), sub_horizons=spec.sub_horizons or (cfg.sub_horizon,),
                    variant=_VARIANT_CLI_TO_INTERNAL[cfg.variant], runs=cfg.runs, **axes)


def cmd_table(args: argparse.Namespace) -> int:
    spec = TABLES[args.table]
    cfg = resolve_config(args, RunConfig(runs=spec.runs), spec.unread)
    base = cfg.controller_config()
    grid = table_grid(args.table, cfg)
    out = Path(cfg.out)
    results = run_experiment_grid(grid, base, seed=cfg.seed)

    echo = {**cfg.echo(), "table": args.table}
    write_report_csv(results, out / f"table{args.table}_report.csv", echo)

    text = render_table(results, list(spec.values), spec.label, noise=spec.field == "noise_sigma")
    text = _config_header(echo) + "\n" + text
    (out / f"table{args.table}.txt").write_text(text)
    print(text)
    return 1 if any(r.status == "failed" for r in results) else 0


def cmd_plotdata(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.log]
    for path in paths:
        if not path.exists():
            print(f"error: log file not found: {path}", file=sys.stderr)
            return 1
    # each log is labelled by its file stem, or by its directory's name where stems repeat
    stems = [p.stem for p in paths]
    labels = [p.stem if stems.count(p.stem) == 1 else p.absolute().parent.name for p in paths]
    clash = [str(p) for p, label in zip(paths, labels) if labels.count(label) > 1]
    if clash:
        print(f"error: logs {clash} share both file stem and directory name; cannot label them", file=sys.stderr)
        return 1
    logs = [(config, dict(zip(SIMLOG_COLUMNS, data.T))) for config, data in map(read_simlog_csv, paths)]

    if len(logs) > 1:
        n_rows = {len(cols["t"]) for _, cols in logs}
        if len(n_rows) != 1:
            print(f"error: logs have differing lengths {sorted(n_rows)}; cannot merge", file=sys.stderr)
            return 1
        t0 = logs[0][1]["t"]
        if not all(np.allclose(cols["t"], t0, atol=1e-12) for _, cols in logs[1:]):
            print("error: logs have differing time bases; cannot merge", file=sys.stderr)
            return 1

    out = Path(args.out or "out")
    for label, (config, cols) in zip(labels, logs):
        suffix = f"_{label}" if len(logs) > 1 else ""
        for name, columns in PLOT_FILES.items():
            _write_csv(out / f"{name}{suffix}.csv", config, columns, _float_rows([cols[c] for c in columns.values()]))

    if len(logs) > 1:
        config, first = logs[0]
        merged = {"t": first["t"]}
        for label, (_, cols) in zip(labels, logs):
            merged |= {f"{c}_{label}": cols[c] for c in ("px", "py", "pz", "d_i")}
        merged |= {c: first[c] for c in ("prx", "pry", "prz")}
        _write_csv(out / "comparison.csv", config, merged, _float_rows(list(merged.values())))
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
    p_tab.add_argument("--table", type=int, choices=sorted(TABLES), required=True)
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
