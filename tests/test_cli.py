"""Command-line interface: configs, CSV output, exit codes."""

import numpy as np
import pytest
import yaml

from memstoch import analytic
from memstoch.circuit import parse_netlist
from memstoch.cli import ResultTable, cmd_netlist_check, load_config, main

GOOD_NETLIST = """
V1 in 0 DC 0.35
M1 in n1 STATES=2 R=100k,10k TAUUP=300k VUP=0.02 TAUDOWN=300k VDOWN=0.02
C1 n1 0 1u
"""

SERIES = {"C": 1e-6, "R0": 1e5, "R1": 1e4, "tau0": 3e5, "V0": 0.02,
          "Va": 0.35, "q0": 0.0}


def write_cfg(tmp_path, name="run.yaml", **overrides):
    cfg = {"engine": "analytic", "series": dict(SERIES), "t_end": 0.01,
           "output_points": 6}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


# -------------------------------------------------------------- tables

def test_result_table_roundtrip(tmp_path):
    t = ResultTable({"engine": "analytic", "seed": 3},
                    ["time", "p0"],
                    np.array([[0.0, 1.0], [0.125, 1.0 / 3.0]]))
    path = tmp_path / "out.csv"
    t.write_csv(path)
    back = ResultTable.read_csv(path)
    assert back.meta["engine"] == "analytic" and back.meta["seed"] == "3"
    assert back.columns == ["time", "p0"]
    assert np.array_equal(back.rows, t.rows)  # 17 digits: exact


def test_result_table_rejects_missing_meta(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,p0\n0,1\n")
    with pytest.raises(ValueError, match="meta"):
        ResultTable.read_csv(p)


# -------------------------------------------------------------- simulate

def test_simulate_analytic_matches_library(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "res.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    table = ResultTable.read_csv(out)
    params = analytic.ConstantDriveParams(**SERIES)
    for t, p0 in zip(table.column("time"), table.column("p0")):
        assert p0 == pytest.approx(
            analytic.p0_constant_voltage(params, float(t)), rel=1e-15)


def test_simulate_rerun_bit_identical(tmp_path):
    cfg = write_cfg(tmp_path, engine="mc",
                    mc={"trajectories": 300, "seed": 7})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_seed_override_changes_result(tmp_path):
    cfg = write_cfg(tmp_path, engine="mc", mc={"trajectories": 300, "seed": 7})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--config", str(cfg), "--out", str(out1)])
    main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "8"])
    t1, t2 = ResultTable.read_csv(out1), ResultTable.read_csv(out2)
    assert t1.meta["seed"] == "7" and t2.meta["seed"] == "8"
    assert not np.array_equal(t1.column("p0"), t2.column("p0"))


def test_simulate_trajectories_override(tmp_path):
    cfg = write_cfg(tmp_path, engine="mc", mc={"trajectories": 10, "seed": 1})
    out = tmp_path / "o.csv"
    main(["simulate", "--config", str(cfg), "--out", str(out),
          "--trajectories", "40"])
    assert ResultTable.read_csv(out).meta["trajectories"] == "40"


def test_simulate_pde_engine(tmp_path):
    cfg = write_cfg(tmp_path, engine="pde", pde={"n_cells": 200})
    out = tmp_path / "p.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    table = ResultTable.read_csv(out)
    probs = table.column("p0") + table.column("p1")
    assert np.allclose(probs, 1.0, atol=1e-8)
    assert float(table.meta["mass_error"]) < 1e-8
    # the solver's diagnostics ride along in the header
    steps = int(table.meta["steps"])
    assert steps > 0
    assert 0.0 < float(table.meta["dt_min"]) <= float(table.meta["dt_max"]) <= 0.01 / 5
    assert 1 <= int(table.meta["blocks"]) <= steps
    assert 0 < int(table.meta["cell_steps"]) <= steps * 200
    assert 0.0 <= float(table.meta["flushed_mass"]) <= 1e-12
    assert int(table.meta["drive_capped_steps"]) == 0  # a constant drive has no drive cap


def test_simulate_compare_engine(tmp_path):
    cfg = write_cfg(tmp_path, engine="compare", t_end=0.005, output_points=4,
                    mc={"trajectories": 400, "seed": 3},
                    pde={"n_cells": 300})
    out = tmp_path / "c.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    table = ResultTable.read_csv(out)
    assert float(table.meta["max_abs_dev_pde"]) < 0.05
    assert float(table.meta["max_dev_mc_over_stderr"]) < 6.0
    assert set(table.columns) == {"time", "p0_analytic", "p0_pde", "p0_mc",
                                  "p0_mc_stderr"}
    # the compare header carries what each engine did under its prefix
    assert set(table.meta) == {"engine", "max_abs_dev_pde", "max_dev_mc_over_stderr",
                               "max_dev_pde_mc_p0", "max_dev_pde_mc_p1",
                               "prob_sum_tol", "config", "version",
                               "pde_steps", "pde_dt_min", "pde_dt_max", "pde_n_cells",
                               "pde_mass_error", "pde_rate_ceiling_hits", "pde_blocks",
                               "pde_cell_steps", "pde_flushed_mass",
                               "pde_drive_capped_steps", "pde_weight_tables", "mc_windows",
                               "mc_candidates", "mc_accepted", "mc_rows_max",
                               "mc_runaway_failures", "mc_configurations",
                               "mc_rate_ceiling_hits", "mc_trajectories", "mc_seed",
                               "mc_failed", "mc_events_up", "mc_events_down"}
    assert int(table.meta["mc_windows"]) > 0 and int(table.meta["pde_steps"]) > 0


def test_simulate_netlist_input(tmp_path):
    net = tmp_path / "series.net"
    net.write_text(GOOD_NETLIST)
    cfg = write_cfg(tmp_path, engine="mc", mc={"trajectories": 100, "seed": 2},
                    netlist=str(net))
    # the netlist path replaces the series block for the mc and pde engines
    out = tmp_path / "n.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    meta = ResultTable.read_csv(out).meta
    assert meta["engine"] == "mc"
    # the engine's diagnostics are copied into the header
    assert int(meta["windows"]) > 0 and int(meta["accepted"]) > 0


SHUNTED_NETLIST = GOOD_NETLIST + "R2 n1 0 100k\n"


def test_simulate_pde_engine_reads_a_netlist(tmp_path):
    # the series netlist gives the series block's rows; a resistor across the
    # capacitor changes them, and the solver's diagnostics ride along
    rows = {}
    for name, text in (("series", GOOD_NETLIST), ("shunted", SHUNTED_NETLIST), (None, None)):
        extra = {}
        if name:
            (tmp_path / f"{name}.net").write_text(text)
            extra["netlist"] = str(tmp_path / f"{name}.net")
        cfg = write_cfg(tmp_path, f"{name}.yaml", engine="pde", pde={"n_cells": 200}, **extra)
        out = tmp_path / f"{name}.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        table = ResultTable.read_csv(out)
        assert np.allclose(table.column("p0") + table.column("p1"), 1.0, atol=1e-8)
        assert 0.0 <= float(table.meta["flushed_mass"]) <= 1e-12
        rows[name] = table.rows
    assert np.array_equal(rows["series"], rows[None])
    assert np.abs(rows["shunted"] - rows[None]).max() > 1e-3


def test_simulate_pde_engine_refuses_two_devices(tmp_path, capsys):
    net = tmp_path / "pair.net"
    net.write_text(TWO_DEVICE_NETLIST)
    cfg = write_cfg(tmp_path, engine="pde", netlist=str(net))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "one memristor, one capacitor and one source" in capsys.readouterr().err


# the capacitor starts at 0.7 V, so the 3-state device's vm starts at
# -0.3 V (down events from state 1) and rises through zero to +0.2 V
SIGN_CHANGE_NETLIST = """
V1 in 0 DC 0.4
M1 in n1 STATES=3 R=100k,30k,10k TAUUP=10,10 VUP=0.03,0.03 TAUDOWN=10,10 VDOWN=0.03,0.03 STATE=1
C1 n1 0 100n IC=70n
R2 n1 0 30k
"""


def test_simulate_compare_engine_reads_a_netlist(tmp_path):
    # every column is the netlist's: the closed form of its initial state's
    # survival and the pde and mc engines' marginals of that state
    def run(name, text=None, **extra):
        if text:
            (tmp_path / f"{name}.net").write_text(text)
            extra["netlist"] = str(tmp_path / f"{name}.net")
        cfg = write_cfg(tmp_path, f"{name}.yaml", t_end=0.005, output_points=4,
                        mc={"trajectories": 400, "seed": 3}, pde={"n_cells": 300}, **extra)
        out = tmp_path / f"{name}.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        return ResultTable.read_csv(out)

    series = run("series", engine="compare")
    for name, text, s, g in (("shunted", SHUNTED_NETLIST, 0, 2),
                             ("sign_change", SIGN_CHANGE_NETLIST, 1, 3)):
        table = run(name, text, engine="compare")
        assert table.columns == ["time", f"p{s}_analytic", f"p{s}_pde", f"p{s}_mc",
                                 f"p{s}_mc_stderr"]
        net = parse_netlist(text)
        closed = np.exp(-analytic.initial_hazard(net, table.column("time")))
        assert np.array_equal(table.column(f"p{s}_analytic"), closed)
        pde_rows, mc_rows = (run(f"{name}_{e}", text, engine=e) for e in ("pde", "mc"))
        assert np.array_equal(table.column(f"p{s}_pde"), pde_rows.column(f"p{s}"))
        assert np.array_equal(table.column(f"p{s}_mc"), mc_rows.column(f"p{s}"))
        assert np.array_equal(table.column(f"p{s}_mc_stderr"), mc_rows.column(f"stderr{s}"))
        if s == 0:
            assert np.abs(table.column("p0_pde") - series.column("p0_pde")).max() > 1e-3
        assert float(table.meta["max_dev_mc_over_stderr"]) < 6.0
        assert all(float(table.meta[f"max_dev_pde_mc_p{i}"]) < 6.0 for i in range(g))
        assert f"max_dev_pde_mc_p{g}" not in table.meta


def test_simulate_compare_engine_refuses_a_sine_netlist(tmp_path, capsys):
    # the closed form needs a constant or piecewise-constant source
    net = tmp_path / "sine.net"
    net.write_text(SIN_NETLIST)
    cfg = write_cfg(tmp_path, engine="compare", netlist=str(net),
                    mc={"trajectories": 400, "seed": 3}, pde={"n_cells": 300})
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "V1" in err and "sine" in err


@pytest.mark.parametrize("engine", ["mc", "compare", "pde"])
def test_simulate_refuses_a_netlist_without_memristor(tmp_path, capsys, engine):
    # an RC circuit has no state to sample: a config error, not an engine failure
    net = tmp_path / "rc.net"
    net.write_text("V1 in 0 SIN 0 0.4 200\nR1 in a 10k\nC1 a 0 1u\n")
    cfg = write_cfg(tmp_path, engine=engine, netlist=str(net),
                    mc={"trajectories": 10, "seed": 3}, pde={"n_cells": 100})
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert f"engine {engine}: the netlist has no memristor" in capsys.readouterr().err


def test_simulate_reads_exponent_floats_without_dot(tmp_path):
    # YAML 1.2 reads 1e-06 as a float; YAML 1.1 resolvers leave it a string
    text = "engine: analytic\nt_end: 0.01\noutput_points: 6\nseries:\n"
    text += "".join(f"  {k}: {v!r}\n" for k, v in SERIES.items())
    assert "C: 1e-06\n" in text
    path = tmp_path / "exp.yaml"
    path.write_text(text)
    out = tmp_path / "exp.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    table = ResultTable.read_csv(out)
    t_last = float(table.column("time")[-1])
    assert table.column("p0")[-1] == pytest.approx(analytic.p0_constant_voltage(
        analytic.ConstantDriveParams(**SERIES), t_last), rel=1e-15)
    # a quoted number stays a string and is still rejected
    path.write_text(text.replace("C: 1e-06", 'C: "1e-06"'))
    assert main(["simulate", "--config", str(path)]) == 2


def test_simulate_reads_yaml_12_floats_with_a_dot(tmp_path):
    # YAML 1.1 wants a signed exponent after a dot, so PyYAML leaves 1.0e5 a
    # string; the YAML 1.2 core schema reads all of these as floats
    path = tmp_path / "dot.yaml"
    values = ("1.0e5", "2.5e6", "1.5E3", ".5e3", "1.e5", "1e5", "1.0e+5", "-.5e-3")
    path.write_text("".join(f"x{i}: {v}\n" for i, v in enumerate(values)) + "q: '1.0e5'\n")
    cfg = load_config(path)
    assert [cfg[f"x{i}"] for i in range(len(values))] == [float(v) for v in values]
    assert cfg["q"] == "1.0e5"
    text = "engine: analytic\nt_end: 0.01\noutput_points: 6\nseries:\n"
    text += "".join(f"  {k}: {v}\n" for k, v in (("C", "1.0e-6"), ("R0", "1.0e5"), ("R1", "1.e4"),
                                                  ("tau0", "3.0e5"), ("V0", ".2e-1"), ("Va", "0.35")))
    path.write_text(text)
    out = tmp_path / "dot.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert ResultTable.read_csv(out).column("p0")[-1] == pytest.approx(
        analytic.p0_constant_voltage(analytic.ConstantDriveParams(**SERIES), 0.01), rel=1e-15)


@pytest.mark.parametrize("t_end, dt, count", [(0.3, 0.1, 4), (0.7, 0.1, 8), (0.6, 0.2, 4),
                                               (0.36, 0.1, 5), (0.35, 0.1, 5)])
def test_output_dt_ends_exactly_at_t_end(tmp_path, t_end, dt, count):
    # 0.3 / 0.1 is not an integer in floating point: the last output time
    # must still be the configured t_end, not 0.30000000000000004
    cfg = write_cfg(tmp_path, t_end=t_end, output_dt=dt)
    out = tmp_path / "dt.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    times = ResultTable.read_csv(out).column("time")
    assert times.size == count and times[-1] == t_end and np.all(np.diff(times) > 0)


SIN_NETLIST = """
V1 in 0 SIN 0.35 0.05 50
M1 in n1 STATES=2 R=100k,10k TAUUP=300k VUP=0.02 TAUDOWN=300k VDOWN=0.02
C1 n1 0 1u
"""


def test_simulate_sine_netlist_reports_thinning(tmp_path):
    # what the sampler did on a one-device SIN netlist rides along in the
    # header
    net = tmp_path / "sine.net"
    net.write_text(SIN_NETLIST)
    cfg = write_cfg(tmp_path, engine="mc", mc={"trajectories": 300, "seed": 2},
                    netlist=str(net))
    out = tmp_path / "s.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    meta = ResultTable.read_csv(out).meta
    count = {k: int(meta[k]) for k in ("windows", "candidates", "accepted", "rows_max",
                                       "rate_ceiling_hits", "runaway_failures", "failed",
                                       "events_up", "events_down")}
    assert count["windows"] > 0 and 0 < count["accepted"] <= count["candidates"]
    assert count["accepted"] == count["events_up"] + count["events_down"]
    assert 0 < count["rows_max"] <= 300
    assert count["rate_ceiling_hits"] == count["runaway_failures"] == count["failed"] == 0


TWO_DEVICE_NETLIST = """
V1 in 0 SIN 0 0.4 200
M1 in a STATES=2 R=100k,10k TAUUP=300k VUP=0.02 TAUDOWN=300k VDOWN=0.02
C1 a 0 1u
R1 in b 10k
M2 b c STATES=2 R=100k,10k TAUUP=300k VUP=0.02 TAUDOWN=300k VDOWN=0.02
C2 c 0 1u
"""


def test_simulate_two_device_netlist_reports_thinning(tmp_path):
    # a two-device netlist thins as well (two clocks, two modes), and
    # its counters ride along in the header
    net = tmp_path / "pair.net"
    net.write_text(TWO_DEVICE_NETLIST)
    cfg = write_cfg(tmp_path, engine="mc", mc={"trajectories": 300, "seed": 2},
                    netlist=str(net))
    out = tmp_path / "p.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    meta = ResultTable.read_csv(out).meta
    assert int(meta["configurations"]) > 1
    count = {k: int(meta[k]) for k in ("windows", "candidates", "accepted", "rows_max",
                                       "rate_ceiling_hits", "runaway_failures", "failed",
                                       "events_up", "events_down")}
    assert count["windows"] > 0 and 0 < count["accepted"] <= count["candidates"]
    assert count["accepted"] == count["events_up"] + count["events_down"]
    assert count["events_down"] > 0
    assert 0 < count["rows_max"] <= 300
    assert count["rate_ceiling_hits"] == count["runaway_failures"] == count["failed"] == 0


# ------------------------------------------------------------- exit codes

def test_exit_code_bad_engine(tmp_path, capsys):
    cfg = write_cfg(tmp_path, engine="quantum")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "engine" in capsys.readouterr().err


def test_exit_code_missing_field(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text(yaml.safe_dump({"engine": "analytic",
                                    "series": dict(SERIES)}))  # no t_end
    assert main(["simulate", "--config", str(path)]) == 2


def test_exit_code_unreadable_config(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_exit_code_invalid_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("engine: [unterminated\n")
    assert main(["simulate", "--config", str(path)]) == 2


def test_exit_code_engine_failure(tmp_path, capsys):
    # negative capacitance passes the YAML stage but breaks the engine
    cfg = write_cfg(tmp_path, series=dict(SERIES, C=-1.0))
    code = main(["simulate", "--config", str(cfg)])
    assert code == 2  # caught as a config-level error


# ------------------------------------------------------------- reproduce

def test_reproduce_saturation_dataset(tmp_path):
    assert main(["reproduce", "fig2", "--out", str(tmp_path)]) == 0
    table = ResultTable.read_csv(tmp_path / "fig2.csv")
    # the gnuplot file: the same header, its column names commented out, and
    # rows of the same floats separated by spaces
    dat = (tmp_path / "fig2.dat").read_text().splitlines()
    assert dat[:2] == [(tmp_path / "fig2.csv").read_text().splitlines()[0], "# time p0 p1"]
    assert np.array_equal(np.array([[float(x) for x in line.split(" ")] for line in dat[2:]]),
                          table.rows)
    p0 = table.column("p0")
    assert p0[0] == 1.0 and np.all(np.diff(p0) <= 0)
    params = analytic.ConstantDriveParams.figure2()
    t_last = float(table.column("time")[-1])
    assert p0[-1] == pytest.approx(
        analytic.p0_constant_voltage(params, t_last), rel=1e-12)
    # already near the long-time plateau of the survival probability
    assert p0[-1] == pytest.approx(0.446, abs=0.01)


def test_reproduce_decay_dataset(tmp_path):
    assert main(["reproduce", "fig3", "--out", str(tmp_path)]) == 0
    table = ResultTable.read_csv(tmp_path / "fig3.csv")
    assert float(table.meta["mean_switching_time"]) == pytest.approx(5.3e-3,
                                                                     abs=1e-4)
    assert {"time", "p0", "exp_decay", "exp_decay_to_plateau"} == set(table.columns)


# ---------------------------------------------------------- netlist-check

def test_netlist_check_ok(tmp_path):
    p = tmp_path / "ok.net"
    p.write_text(GOOD_NETLIST)
    report, ok = cmd_netlist_check(p)
    assert ok and report.startswith("OK")
    assert main(["netlist-check", str(p)]) == 0


def test_netlist_check_inductor(tmp_path, capsys):
    p = tmp_path / "ind.net"
    p.write_text("V1 in 0 DC 1\nL1 in 0 1m\n")
    assert main(["netlist-check", str(p)]) == 2
    assert "inductors not supported" in capsys.readouterr().out


def test_netlist_check_floating_node(tmp_path, capsys):
    p = tmp_path / "float.net"
    p.write_text("V1 in 0 DC 1\nR1 in 0 1k\nR2 x y 2k\n")
    assert main(["netlist-check", str(p)]) == 2
    assert "x" in capsys.readouterr().out


def test_netlist_check_missing_file(tmp_path):
    report, ok = cmd_netlist_check(tmp_path / "absent.net")
    assert not ok and "cannot read" in report
