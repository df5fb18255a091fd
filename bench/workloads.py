"""The four benchmark workloads.

Each workload builds its inputs from the workload seed (`build`, timed as
set-up), runs one pass of its operations through memstoch's public API
(`run`, timed as run_s), and checks the outputs of a pass against the
independent references in `reference.py` (`check`).  The program receives
only the generated inputs: netlist text, config file, model, grid and
initial field, and master seeds derived from the workload seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref


@dataclass
class Pass:
    """What one pass produced: outputs (hashed for the determinism check
    and read by `check`), operations attempted and failed, and the bytes
    of CSV written."""

    outputs: dict
    attempted: int
    failed: int
    csv_bytes: int = 0
    notes: list = field(default_factory=list)


def master_seed(workload: str, seed: int) -> int:
    """63-bit MC master seed derived from (workload, workload seed)."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class McConst:
    """Vector MC engine, Figure-2 series circuit, constant drive."""

    name = "mc_const"
    n = 10_000
    t_end = 1.0

    def build(self, ms, seed, workdir):
        p = ref.FIGURE2
        model = ms.MemristorModel.binary(p["R0"], p["R1"], p["tau0"], p["V0"])
        net = ms.series_mc(model, p["C"], ms.Waveform.constant(p["Va"]))
        return dict(net=net, times=np.linspace(0.0, self.t_end, 20),
                    seed=master_seed(self.name, seed))

    def run(self, ms, inp, probes, split):
        net = inp["net"]
        st = ms.mc.run_ensemble(net, net.initial_state(), self.t_end,
                                inp["times"], self.n, inp["seed"])
        return Pass(dict(times=st.times, occupancy=st.occupancy[0],
                         stderr=st.stderr[0], first_event=st.first_event_times,
                         counts=np.array([st.n, st.n_failed, st.events_up,
                                          st.events_down])), 1, 0)

    def check(self, inp, out):
        o = out.outputs
        p0 = ref.p0_series(o["times"], **ref.FIGURE2)
        n, n_failed, _, down = (int(x) for x in o["counts"])
        z = ref.z_excess(o["occupancy"][:, 0], p0, n)
        ks = ref.ks_distance(o["first_event"],
                             lambda t: 1.0 - ref.p0_series(t, **ref.FIGURE2), self.t_end)
        problems = []
        if z > ref.Z_BOUND:
            problems.append(f"p0_mc off the closed form by {z:.2f} sigma")
        if ks > ref.ks_critical(n):
            problems.append(f"first-event KS distance {ks:.4g} > {ref.ks_critical(n):.4g}")
        if down or n_failed:
            problems.append(f"{down} down events, {n_failed} failed trajectories")
        if not np.all(o["occupancy"].sum(axis=1) == 1.0):
            problems.append("occupancy rows do not sum exactly to 1")
        return problems, dict(z=z, ks=ks, ks_critical=ref.ks_critical(n))


class CliCompare:
    """`memstoch simulate` with engine: compare on the Figure-2 config."""

    name = "cli_compare"
    t_end = 0.01
    points = 21
    trajectories = 40_000
    n_cells = 2000
    # Largest |p0_pde - p0_ref| allowed: today's 1.089e-3 plus a quarter,
    # so that a PDE speed-up cannot be bought with accuracy.
    pde_dev_limit = 1.36e-3

    def build(self, ms, seed, workdir):
        p = ref.FIGURE2
        config = "\n".join([
            "engine: compare",
            "series:",
            *(f"  {k}: {p[k]:.16e}" for k in ("C", "R0", "R1", "tau0", "V0", "Va")),
            "  q0: 0.0",
            f"t_end: {self.t_end:.16e}",
            f"output_points: {self.points}",
            "mc:",
            f"  trajectories: {self.trajectories}",
            f"  seed: {master_seed(self.name, seed)}",
            "pde:",
            f"  n_cells: {self.n_cells}",
        ]) + "\n"
        cfg = Path(workdir) / "compare.yaml"
        cfg.write_text(config)
        out = str(Path(workdir) / "compare.csv")
        return dict(out=out, argv=["simulate", "--config", str(cfg), "--out", out])

    def run(self, ms, inp, probes, split):
        probes.last_table = None
        rc = ms.cli.main(inp["argv"])
        csv = Path(inp["out"]).read_bytes() if rc == 0 else b""
        table = probes.last_table
        outputs = dict(rc=np.array([rc]), csv=csv)
        if table is not None:
            outputs.update(columns=",".join(table.columns).encode(), rows=table.rows)
        return Pass(outputs, 1, int(rc != 0), csv_bytes=len(csv))

    def check(self, inp, out):
        o = out.outputs
        if int(o["rc"][0]) != 0 or "rows" not in o:
            return [f"memstoch simulate exited with {int(o['rc'][0])}"], {}
        columns = o["columns"].decode().split(",")
        rows = o["rows"]
        col = {name: rows[:, i] for i, name in enumerate(columns)}
        times = np.linspace(0.0, self.t_end, self.points)
        p0 = ref.p0_series(times, **ref.FIGURE2)
        problems = []
        if columns != ["time", "p0_analytic", "p0_pde", "p0_mc", "p0_mc_stderr"]:
            return [f"unexpected columns {columns}"], {}
        if not np.array_equal(col["time"], times):
            problems.append("time column differs from the configured grid")
        rel = float(np.max(np.abs(col["p0_analytic"] - p0) / p0))
        dev_pde = float(np.max(np.abs(col["p0_pde"] - p0)))
        z = ref.z_excess(col["p0_mc"], p0, self.trajectories)
        if rel > 1e-10:
            problems.append(f"p0_analytic off the reference by {rel:.2e} relative")
        if dev_pde > 1e-2:
            problems.append(f"p0_pde off the reference by {dev_pde:.3e} (> 1e-2)")
        if dev_pde > self.pde_dev_limit:
            problems.append(f"pde_p0_abs_dev {dev_pde:.4e} > {self.pde_dev_limit:g}")
        if z > ref.Z_BOUND:
            problems.append(f"p0_mc off the reference by {z:.2f} sigma")
        lines = o["csv"].decode().splitlines()
        parsed = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
        if (not lines[0].startswith("# meta:") or lines[1].split(",") != columns
                or parsed.shape != rows.shape or parsed.tobytes() != rows.tobytes()):
            problems.append("written CSV does not parse back to the table bit for bit")
        return problems, dict(p0_analytic_rel=rel, pde_p0_abs_dev=dev_pde, z_mc=z)


class NetlistMc:
    """Generic per-trajectory engine on a two-branch netlist given as text.

    A pass runs `ensembles` ensembles of n trajectories with distinct
    master seeds, so that the benchmark can calibrate between them; the
    checks pool them."""

    name = "netlist_mc"
    ensembles = 5
    n = 100
    t_end = 0.01
    r_series = 1e4
    device = "STATES=2 R=100k,10k TAUUP=300k VUP=0.02 TAUDOWN=300k VDOWN=0.02"
    text = (
        "# one DC source, branch a = M + C, branch b = R_s + M + C\n"
        "V1 in 0 DC 0.35\n"
        f"M1 in a {device}\n"
        "C1 a 0 1u\n"
        "R1 in b 10k\n"
        f"M2 b c {device}\n"
        "C2 c 0 1u\n"
    )

    def build(self, ms, seed, workdir):
        net = ms.parse_netlist(self.text)
        return dict(net=net, times=np.linspace(0.0, self.t_end, 11),
                    seeds=[master_seed(f"{self.name}.{i}", seed)
                           for i in range(self.ensembles)])

    def run(self, ms, inp, probes, split):
        net, outputs = inp["net"], {}
        for i, s in enumerate(inp["seeds"]):
            st = ms.mc.run_ensemble(net, net.initial_state(), self.t_end,
                                    inp["times"], self.n, s)
            outputs.update({f"times_{i}": st.times, f"occ_a_{i}": st.occupancy[0],
                            f"occ_b_{i}": st.occupancy[1],
                            f"counts_{i}": np.array([st.n, st.n_failed, st.events_up,
                                                     st.events_down])})
        return Pass(outputs, self.ensembles, 0)

    def check(self, inp, out):
        o = out.outputs
        idx = range(self.ensembles)
        n, n_failed, _, down = np.sum([o[f"counts_{i}"] for i in idx], axis=0)
        problems = []
        if n_failed or down:
            problems.append(f"{n_failed} failed trajectories, {down} down events")
        report = {}
        for branch, rs in (("a", 0.0), ("b", self.r_series)):
            p0 = ref.p0_series(o["times_0"], Rs=rs, **ref.FIGURE2)
            pooled = np.mean([o[f"occ_{branch}_{i}"][:, 0] for i in idx], axis=0)
            z = ref.z_excess(pooled, p0, int(n))
            report[f"z_{branch}"] = z
            if z > ref.Z_BOUND:
                problems.append(f"branch {branch}: p0 off its closed form by {z:.2f} sigma")
        return problems, report


class ReverseBiasG3:
    """Three-state device under a zero-offset sine: vector MC and the PDE.

    The inputs do not depend on the workload seed.  The vector engine's
    known fault (the jump direction is taken from the sign of vm at the
    interpolated event time, not from the rate that fired) aborts one of
    the eight ensembles below; seed-derived master seeds would make the
    failure count differ between seeds.

    The PDE run is one operation made of one `pde.run` call per output
    interval, each starting from the field the last one ended with; the
    stepping and the marginals are those of a single run, and the
    benchmark calibrates the machine's speed between the calls."""

    name = "reverse_bias_g3"
    seeds = tuple(range(100, 108))
    n = 20_000
    C = 1e-7
    t_end = 0.005   # one period of the 200 Hz drive
    n_cells = 1000

    def build(self, ms, seed, workdir):
        model = ms.MemristorModel.uniform((1e5, 3e4, 1e4), 10.0, 0.05)
        wave = ms.Waveform.sine(0.0, 0.4, 200.0)
        grid = ms.pde.ChargeGrid.for_drive(self.C, wave, self.t_end, self.n_cells)
        return dict(model=model, net=ms.series_mc(model, self.C, wave),
                    times=np.linspace(0.0, self.t_end, 21),
                    initial=ms.pde.DistributionField.from_delta(grid, 3, 0, 0.0),
                    circuit=ms.pde.SeriesCircuitParams(self.C, wave))

    def run(self, ms, inp, probes, split):
        net, times = inp["net"], inp["times"]
        outputs, notes, failed = {}, [], 0
        for s in self.seeds:
            try:
                st = ms.mc.run_ensemble(net, net.initial_state(), self.t_end,
                                        times, self.n, s)
            except ms.mc.TrajectoryFailure as exc:
                failed += 1
                notes.append(f"ensemble {s}: {exc}")
                outputs[f"failure_{s}"] = str(exc).encode()
            else:
                outputs[f"occ_{s}"] = st.occupancy[0]
                outputs[f"counts_{s}"] = np.array([st.n, st.n_failed, st.events_up,
                                                   st.events_down])
        field, marginals, mass_err, min_cell, min_field = inp["initial"], [], 0.0, [], []
        try:
            for k in range(1, times.size):
                res = ms.pde.run(field, times[k], times[k - 1:k + 1], inp["circuit"],
                                 inp["model"])
                field = res.fields[-1]
                marginals.append(res.marginals if k == 1 else res.marginals[1:])
                mass_err += res.max_mass_error
                min_cell.append(res.min_cell_value)
                min_field += [f.p.min() for f in res.fields]
                if k < times.size - 1:
                    split()
        except (ValueError, RuntimeError) as exc:
            failed += 1
            notes.append(f"pde: {exc}")
        else:
            outputs.update(pde_marginals=np.vstack(marginals),
                           pde_summary=np.array([min(min_cell), mass_err]),
                           pde_min_field=np.array(min_field))
        return Pass(outputs, len(self.seeds) + 1, failed, notes=notes)

    def check(self, inp, out):
        o = out.outputs
        problems = []
        ok = [s for s in self.seeds if f"occ_{s}" in o]
        for s in ok:
            if int(o[f"counts_{s}"][3]) == 0:
                problems.append(f"ensemble {s} has no down events")
        if "pde_marginals" not in o:
            return problems + ["the PDE run failed"], {}
        min_cell, mass_err = (float(x) for x in o["pde_summary"])
        if mass_err > 1e-8:    # sum over the pde.run calls: a bound on the whole run
            problems.append(f"PDE mass error {mass_err:.3e} > 1e-8")
        if min_cell < 0.0 or float(o["pde_min_field"].min()) < 0.0:
            problems.append("a PDE cell went below 0")
        report = dict(ensembles_ok=len(ok), pde_mass_error=mass_err)
        if not ok:
            return problems + ["every ensemble failed"], report
        pooled = np.mean([o[f"occ_{s}"] for s in ok], axis=0)
        n_pooled = sum(int(o[f"counts_{s}"][0]) for s in ok)
        z = ref.z_excess(pooled, o["pde_marginals"], n_pooled)
        report["z_pde_vs_mc"] = z
        if z > ref.Z_BOUND:
            problems.append(f"PDE marginals off pooled MC by {z:.2f} sigma")
        return problems, report


WORKLOADS = {w.name: w for w in (McConst(), CliCompare(), NetlistMc(), ReverseBiasG3())}
