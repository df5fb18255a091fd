"""Command-line front end.

Subcommands:

    simulate --config <file> [--out <file>] [--seed <u64>] [--trajectories <n>]
    reproduce <fig2|fig3> [--out <dir>]
    netlist-check <file>

Configs are YAML with all physical quantities in base SI units.  Results
are written as CSV with a `# meta:` header line and 17-significant-digit
floats so repeated runs with the same config and seed are bit-identical.

Exit codes: 0 success, 1 engine failure, 2 config/parse failure.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__, analytic, mc, pde
from .circuit import NetlistError, SingularNetworkError, parse_netlist, solve_operating_point


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass
class ResultTable:
    """Column-oriented numeric results with a metadata header."""

    meta: dict
    columns: list
    rows: np.ndarray  # (T, len(columns))

    def _text(self, sep: str, head: str) -> str:
        """The meta line, the column names after head and .17g rows, joined by sep."""
        meta = ";".join(f"{k}={v}" for k, v in sorted(self.meta.items()))
        lines = [f"# meta: {meta}", head + sep.join(self.columns)]
        lines += [sep.join(f"{x:.17g}" for x in row) for row in self.rows]
        return "\n".join(lines) + "\n"

    def to_csv_text(self) -> str:
        return self._text(",", "")

    def write_csv(self, path) -> None:
        Path(path).write_text(self.to_csv_text())

    def write_dat(self, path) -> None:
        """Gnuplot-compatible whitespace-separated variant."""
        Path(path).write_text(self._text(" ", "# "))

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]

    @classmethod
    def read_csv(cls, path) -> "ResultTable":
        text = Path(path).read_text().splitlines()
        if not text or not text[0].startswith("# meta:"):
            raise ValueError("missing '# meta:' header")
        meta = {}
        for item in text[0][len("# meta:"):].strip().split(";"):
            if item:
                k, _, v = item.partition("=")
                meta[k] = v
        columns = text[1].split(",")
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in text[2:] if line.strip()])
        return cls(meta, columns, rows.reshape(-1, len(columns)))


# --------------------------------------------------------------------------
# Configuration

def _require(cfg: dict, key: str, types, what: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{what}: missing required field '{key}'")
    val = cfg[key]
    if not isinstance(val, types):
        raise ConfigError(f"{what}: field '{key}' has wrong type "
                          f"({type(val).__name__})")
    return val


def _positive(cfg: dict, key: str, what: str = "config"):
    val = _require(cfg, key, (int, float), what)
    if val <= 0:
        raise ConfigError(f"{what}: field '{key}' must be positive")
    return float(val)


class _ConfigLoader(yaml.SafeLoader):
    """Safe loader that reads every float of the YAML 1.2 core schema, such
    as 1e-06, 1.0e5 or .5e3, as a float; PyYAML's YAML 1.1 resolver wants a
    dot and a signed exponent and leaves the others strings."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"))


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        cfg = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    return cfg


def _config_hash(cfg: dict) -> str:
    canon = yaml.safe_dump(cfg, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _series_params(cfg: dict) -> analytic.ConstantDriveParams:
    s = _require(cfg, "series", dict)
    kw = {}
    for key in ("C", "R0", "R1", "tau0", "V0", "Va"):
        kw[key] = _positive(s, key, "series")
    kw["q0"] = float(s.get("q0", 0.0))
    return analytic.ConstantDriveParams(**kw)


def _circuit(cfg: dict):
    """The config's `netlist:` file, else the circuit of its `series:` block;
    ConfigError for a netlist without a memristor, which no engine runs."""
    if "netlist" not in cfg:
        return _series_params(cfg).netlist
    netlist = parse_netlist(Path(_require(cfg, "netlist", str)).read_text())
    if not netlist.memristors:
        raise ConfigError(f"engine {cfg['engine']}: the netlist has no memristor (M line)")
    return netlist


def _output_times(cfg: dict) -> np.ndarray:
    t_end = _positive(cfg, "t_end")
    if "output_dt" in cfg:
        dt = _positive(cfg, "output_dt")
        # multiples of dt below t_end, then t_end itself (not a rounded multiple)
        return np.append(np.arange(0.0, t_end - 1e-9 * dt, dt), t_end)
    n = int(cfg.get("output_points", 50))
    if n < 2:
        raise ConfigError("output_points must be >= 2")
    return np.linspace(0.0, t_end, n)


# --------------------------------------------------------------------------
# Engines

def _run_analytic(cfg: dict, config: str) -> ResultTable:
    params = _series_params(cfg)
    times = _output_times(cfg)
    p0 = np.exp(-analytic.initial_hazard(params.netlist, times))
    rows = np.column_stack([times, p0, 1.0 - p0])
    meta = {"engine": "analytic", "prob_sum_tol": "1e-15",
            "config": config, "version": __version__}
    return ResultTable(meta, ["time", "p0", "p1"], rows)


def _run_pde(cfg: dict, config: str, netlist) -> ResultTable:
    times = _output_times(cfg)
    t_end = float(times[-1])
    n_cells = int(cfg.get("pde", {}).get("n_cells", 2000))
    c = pde.fixed_charges(netlist)   # NetlistError unless a single device
    mem, q0, g = netlist.memristors[0], netlist.capacitors[0].initial_charge, len(c)
    grid = pde.ChargeGrid.for_drive(c, netlist.sources[0].waveform, t_end, n_cells, q_extra=q0)
    result = pde.run(pde.DistributionField.from_delta(grid, g, mem.initial_state, q0), t_end,
                     times, netlist)
    cols = ["time"] + [f"p{i}" for i in range(g)]
    rows = np.column_stack([result.times, result.marginals])
    # what the solver did (its steps and dt range) rides along
    meta = {**result.diagnostics,
            "engine": "pde", "n_cells": n_cells, "prob_sum_tol": "1e-8",
            "mass_error": f"{result.max_mass_error:.3e}",
            "config": config, "version": __version__}
    return ResultTable(meta, cols, rows)


def _run_mc(cfg: dict, config: str, netlist, seed_override=None,
            traj_override=None) -> tuple:
    """The MC table and the ensemble statistics behind it."""
    mc_cfg = cfg.get("mc", {})
    n = int(traj_override if traj_override is not None
            else mc_cfg.get("trajectories", 1000))
    seed = int(seed_override if seed_override is not None
               else mc_cfg.get("seed", 0))
    times = _output_times(cfg)
    t_end = float(times[-1])
    stats = mc.run_ensemble(netlist, netlist.initial_state(), t_end, times, n, seed)
    occ = stats.occupancy[0]
    se = stats.stderr[0]
    g = occ.shape[1]
    cols = (["time"] + [f"p{i}" for i in range(g)]
            + [f"stderr{i}" for i in range(g)])
    rows = np.column_stack([stats.times, occ, se])
    # what the sampler did (windows, candidates, events) rides along
    meta = {**stats.diagnostics,
            "engine": "mc", "trajectories": stats.n, "seed": seed,
            "failed": stats.n_failed, "events_up": stats.events_up,
            "events_down": stats.events_down, "prob_sum_tol": "1e-12",
            "config": config, "version": __version__}
    return ResultTable(meta, cols, rows), stats


def _max_z(dev, sigma) -> float:
    """The largest |dev| / sigma where it is finite (0 if nowhere)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(dev) / sigma
    z = z[np.isfinite(z)]
    return float(z.max()) if z.size else 0.0


def _run_compare(cfg: dict, config: str, netlist, seed_override=None,
                 traj_override=None) -> ResultTable:
    """The initial state s's survival in closed form (`analytic.initial_hazard`)
    beside the PDE's and the MC's marginals of s; the header compares the
    closed form with the MC's survival and every state's marginal between
    the PDE and the MC."""
    times = _output_times(cfg)
    s = netlist.memristors[0].initial_state
    try:
        closed = np.exp(-analytic.initial_hazard(netlist, times))
    except analytic.RegimeError as exc:
        raise ConfigError(f"engine compare: {exc}") from None
    pd_ = _run_pde(cfg, config, netlist)
    mc_, stats = _run_mc(cfg, config, netlist, seed_override, traj_override)
    # the MC's survival of s: the share of trajectories without an event by t
    n, first = stats.n, stats.first_event_times
    survival = (n - (first[:, None] <= times).sum(axis=0)) / n
    g = pd_.rows.shape[1] - 1     # columns: time, p0..p(G-1) [, stderr0..stderr(G-1)]
    p_pde, p_mc, sem = pd_.rows[:, 1:], mc_.rows[:, 1:g + 1], mc_.rows[:, g + 1:]
    # what each engine did rides along under its prefix
    shared = {"engine", "prob_sum_tol", "config", "version"}
    meta = {**{f"{name}_{k}": v for name, table in (("pde", pd_), ("mc", mc_))
               for k, v in table.meta.items() if k not in shared},
            **{f"max_dev_pde_mc_p{i}": f"{_max_z(p_pde[:, i] - p_mc[:, i], sem[:, i]):.6e}"
               for i in range(g)},
            "engine": "compare",
            "max_abs_dev_pde": f"{np.max(np.abs(closed - p_pde[:, s])):.6e}",
            "max_dev_mc_over_stderr":
                f"{_max_z(closed - survival, np.sqrt(survival * (1.0 - survival) / n)):.6e}",
            "prob_sum_tol": "1e-8",
            "config": config, "version": __version__}
    rows = np.column_stack([times, closed, p_pde[:, s], p_mc[:, s], sem[:, s]])
    columns = ["time"] + [f"p{s}_{k}" for k in ("analytic", "pde", "mc", "mc_stderr")]
    return ResultTable(meta, columns, rows)


def cmd_simulate(cfg: dict, out=None, seed_override=None,
                 traj_override=None) -> ResultTable:
    engine = _require(cfg, "engine", str)
    config = _config_hash(cfg)  # one hash for every engine's header
    if engine == "analytic":
        table = _run_analytic(cfg, config)
    elif engine == "pde":
        table = _run_pde(cfg, config, _circuit(cfg))
    elif engine == "mc":
        table = _run_mc(cfg, config, _circuit(cfg), seed_override, traj_override)[0]
    elif engine == "compare":
        table = _run_compare(cfg, config, _circuit(cfg), seed_override, traj_override)
    else:
        raise ConfigError(f"unknown engine {engine!r} "
                          "(expected mc, pde, analytic or compare)")
    out = out or cfg.get("out")
    if out:
        table.write_csv(out)
    return table


# --------------------------------------------------------------------------
# Figure reproduction

FIG_T_STAR = 1.0  # characteristic saturation time used for the figures


def cmd_reproduce(figure: str, out_dir=".") -> ResultTable:
    params = analytic.ConstantDriveParams.figure2()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    times = np.linspace(0.0, 0.03, 301)
    p0 = np.exp(-analytic.initial_hazard(params.netlist, times))
    if figure == "fig2":
        rows = np.column_stack([times, p0, 1.0 - p0])
        meta = {"figure": "fig2", "C": params.C, "R0": params.R0,
                "Va": params.Va, "V0": params.V0, "tau0": params.tau0,
                "q0": params.q0, "version": __version__}
        table = ResultTable(meta, ["time", "p0", "p1"], rows)
    elif figure == "fig3":
        t1 = analytic.mean_switching_time(params, FIG_T_STAR)
        p0_star = analytic.p0_constant_voltage(params, FIG_T_STAR)
        decay = np.exp(-times / t1)
        decay_plateau = p0_star + (1.0 - p0_star) * decay
        rows = np.column_stack([times, p0, decay, decay_plateau])
        meta = {"figure": "fig3", "mean_switching_time": f"{t1:.17g}",
                "t_star": FIG_T_STAR, "p0_t_star": f"{p0_star:.17g}",
                "version": __version__}
        table = ResultTable(
            meta, ["time", "p0", "exp_decay", "exp_decay_to_plateau"], rows)
    else:
        raise ConfigError(f"unknown figure {figure!r} (expected fig2 or fig3)")
    table.write_csv(out_dir / f"{figure}.csv")
    table.write_dat(out_dir / f"{figure}.dat")
    return table


# --------------------------------------------------------------------------
# Netlist checking

def cmd_netlist_check(path) -> tuple:
    """(report text, ok flag)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return f"ERROR: cannot read {path}: {exc}", False
    try:
        netlist = parse_netlist(text)
    except (NetlistError, SingularNetworkError) as exc:
        return f"ERROR: {exc}", False
    lines = [f"components: {len(netlist.components())}",
             f"nodes (incl. ground): {len(netlist.nodes()) + (0 if '0' in netlist.nodes() else 1)}"]
    try:
        solve_operating_point(netlist, netlist.initial_state())
    except (SingularNetworkError, ValueError) as exc:
        return "\n".join(lines + [f"ERROR: operating point unsolvable: {exc}"]), False
    lines.append("operating point: solvable")
    return "OK\n" + "\n".join(lines), True


# --------------------------------------------------------------------------
# Entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memstoch",
        description="Stochastic memristor-capacitor circuit simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one engine from a config file")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--trajectories", type=int)

    rep = sub.add_parser("reproduce", help="regenerate a reference figure dataset")
    rep.add_argument("figure", choices=["fig2", "fig3"])
    rep.add_argument("--out", default=".")

    chk = sub.add_parser("netlist-check", help="validate a netlist file")
    chk.add_argument("path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = load_config(args.config)
            table = cmd_simulate(cfg, args.out, args.seed, args.trajectories)
            if not args.out and not cfg.get("out"):
                sys.stdout.write(table.to_csv_text())
            return 0
        if args.command == "reproduce":
            cmd_reproduce(args.figure, args.out)
            return 0
        if args.command == "netlist-check":
            report, ok = cmd_netlist_check(args.path)
            print(report)
            return 0 if ok else 2
    except (ConfigError, NetlistError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # engine failure
        print(f"engine error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
