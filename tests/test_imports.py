"""scipy stays off memstoch's import path.

Importing memstoch, and running the PDE and any MC ensemble, loads no
scipy module; the closed forms import `scipy.special` on first use.  A
fresh interpreter checks which scipy modules each stage loads, and its
results must equal, bit for bit, the same calls made here, where scipy
is already loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from memstoch import (ChargeGrid, ConstantDriveParams, Density1D, DistributionField,
                      MemristorModel, SeriesCircuitParams, Waveform,
                      p0_constant_voltage, parse_netlist, pde, run_ensemble,
                      series_mc, unidirectional_densities)

TESTS = Path(__file__).resolve().parent
DEV = "STATES=2 R=100k,10k TAUUP=300k VUP=0.02 TAUDOWN=300k VDOWN=0.02"


def numpy_only_runs():
    """A sine series ensemble, a constant-drive ensemble, a two-branch
    netlist ensemble and a 3-state PDE run."""
    model3 = MemristorModel.uniform((1e5, 3e4, 1e4), 10.0, 0.05)
    wave = Waveform.sine(0.0, 0.4, 200.0)
    series = series_mc(model3, 1e-7, wave)
    thin = run_ensemble(series, series.initial_state(), 0.005, [0.0025], 200, 5)
    p = ConstantDriveParams.figure2()
    model = MemristorModel.binary(p.R0, p.R1, p.tau0, p.V0)
    const = series_mc(model, p.C, Waveform.constant(p.Va), p.q0)
    constant = run_ensemble(const, const.initial_state(), 0.01, [0.005], 200, 7)
    net = parse_netlist(f"V1 in 0 DC 0.35\nM1 in a {DEV}\nC1 a 0 1u\n"
                        f"R1 in b 10k\nM2 b c {DEV}\nC2 c 0 1u\n")
    two = run_ensemble(net, net.initial_state(), 0.01, [0.005], 100, 6)
    grid = ChargeGrid.for_drive(1e-7, wave, 0.002, 100)
    field = DistributionField.from_delta(grid, 3, 0, 0.0)
    res = pde.run(field, 0.002, [0.001], SeriesCircuitParams(1e-7, wave), model3)
    return {"thinning": thin.occupancy[0], "constant": constant.occupancy[0],
            "netlist_m0": two.occupancy[0], "netlist_m1": two.occupancy[1],
            "pde": res.marginals}


def scipy_runs():
    """The constant-drive closed form, and the unidirectional solution of a
    delta under a PWL drive: its survival weight and switched density."""
    p = ConstantDriveParams.figure2()
    model = MemristorModel.binary(p.R0, p.R1, p.tau0, p.V0)
    wave = Waveform.pwl([(0.0, 0.2), (0.01, 0.4)])
    p0, p1 = unidirectional_densities(Density1D.delta(0.0), Density1D.zero(), model, p.C,
                                      wave, 0.005)
    return {"p0": np.array([p0_constant_voltage(p, t) for t in (1e-3, 5e-3)]),
            "unidirectional": np.array([p0.deltas[0][1], p1(5e-8)])}


CHILD = """
import json, sys
import numpy as np
import memstoch, memstoch.cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = [scipy_loaded()]
sys.path.insert(0, sys.argv[1])
import test_imports as t
out = t.numpy_only_runs()
seen.append(scipy_loaded())
out.update(t.scipy_runs())
seen.append(scipy_loaded())
np.savez(sys.argv[2], **out)
print(json.dumps(seen))
"""


def test_scipy_loads_only_where_it_is_called(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    out = tmp_path / "runs.npz"
    proc = subprocess.run([sys.executable, "-c", CHILD, str(TESTS), str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    on_import, after_numpy_only, after_scipy = json.loads(proc.stdout.splitlines()[-1])
    assert on_import == []
    assert after_numpy_only == []
    assert "scipy.special" in after_scipy
    assert not [m for m in after_scipy
                if m.startswith(("scipy.integrate", "scipy.optimize"))]

    here = {**numpy_only_runs(), **scipy_runs()}
    with np.load(out) as child:
        assert sorted(child.files) == sorted(here)
        for name, value in here.items():
            assert np.array_equal(child[name], value), name
