"""Benchmark of memstoch's three engines (analytic, pde, mc).

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: mc_const, cli_compare, netlist_mc, reverse_bias_g3 (see
workloads.py and README.md).  The run imports memstoch from the checkout's
`src/`, builds the workload's inputs from the seed, then repeats whole
passes of the workload until `--seconds` have passed (at least three).
Every pass is hashed and the first is checked against independent
references; `correct` is false if a check fails or two passes differ.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones (median over passes); with --trace 1 the run wraps the
layer functions listed in spans.py and reports per-layer metrics (median
over passes), and writes the spans of set-up and of the first pass to
bench/out/.  Lines before the last start with '# ' and record the
environment, each pass and the checks.
"""

import os

# Pinned before numpy is first imported, here and in the set-up children,
# which inherit the environment.
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

SETUP_SAMPLES = 5   # the run's own set-up, then four in fresh interpreters
MIN_PASSES = 3      # a median, and passes to compare for determinism
# Wall time of `calibrate` at the reference machine speed.  Every reported
# time is scaled by CAL_REF_S / (calibration time measured around it): the
# median of the CAL_NEAREST calibrations nearest in time to the segment of
# work it belongs to.  A calibration runs at every segment boundary that
# ends at least MIN_SEGMENT_S of work.
CAL_REF_S = 0.030
CAL_NEAREST = 6
MIN_SEGMENT_S = 0.02

# (metric, span, field, unit): per-layer metrics read off one span name.
SPAN_METRICS = (
    ("cli.cmd_simulate.self_s", "cli.cmd_simulate", "self_s", "s"),
    ("cli.write_csv.s", "cli.write_csv", "s", "s"),
    ("analytic.p0_constant_voltage.calls", "analytic.p0_constant_voltage", "calls", "count"),
    ("analytic.p0_constant_voltage.self_s", "analytic.p0_constant_voltage", "self_s", "s"),
    ("analytic.expint_ei.calls", "analytic.expint_ei", "calls", "count"),
    ("analytic.expint_ei.s", "analytic.expint_ei", "s", "s"),
    ("pde.run.self_s", "pde.run", "self_s", "s"),
    ("pde.step.calls", "pde.step", "calls", "count"),
    ("pde.step.self_s", "pde.step", "self_s", "s"),
    ("pde.admissible_dt.calls", "pde.admissible_dt", "calls", "count"),
    ("pde.admissible_dt.s", "pde.admissible_dt", "s", "s"),
    ("mc.run_ensemble.calls", "mc.run_ensemble", "calls", "count"),
    ("mc.run_ensemble.self_s", "mc.run_ensemble", "self_s", "s"),
    ("circuit.affine_dynamics.calls", "circuit.affine_dynamics", "calls", "count"),
    ("circuit.affine_dynamics.s", "circuit.affine_dynamics", "s", "s"),
    ("circuit.AffineDynamics.calls", "circuit.AffineDynamics", "calls", "count"),
    ("circuit.AffineDynamics.s", "circuit.AffineDynamics", "s", "s"),
    ("circuit.Waveform.calls", "circuit.Waveform", "calls", "count"),
    ("circuit.Waveform.s", "circuit.Waveform", "s", "s"),
    ("device.total_exit_rate.calls", "device.total_exit_rate", "calls", "count"),
    ("device.total_exit_rate.s", "device.total_exit_rate", "s", "s"),
    ("device.rate_array.calls", "device.rate_array", "calls", "count"),
    ("device.rate_array.s", "device.rate_array", "s", "s"),
)


def layer_metrics(summary, probes, csv_bytes, speed):
    """Per-layer metrics of one traced pass (value, unit); span times are
    scaled by `speed` like run_s.  A layer the workload does not use
    reads 0."""
    out = {metric: (summary[span][fld] * (speed if unit == "s" else 1), unit)
           for metric, span, fld, unit in SPAN_METRICS}
    steps = summary["pde.step"]["calls"]
    out["cli.csv_bytes"] = (csv_bytes, "B")
    out["pde.admissible_per_step"] = (
        summary["pde.admissible_dt"]["calls"] / steps if steps else 0.0, "1/step")
    out["pde.dt_mean_s"] = (summary["pde.step"]["value"] / steps if steps else 0.0, "s")
    out["mc.events"] = (probes["events"], "count")
    out["mc.events_per_trajectory"] = (
        probes["events"] / probes["trajectories"] if probes["trajectories"] else 0.0,
        "1/trajectory")
    out["mc.failed_trajectories"] = (probes["failed_trajectories"], "count")
    out["mc.failed_ensembles"] = (probes["failed_ensembles"], "count")
    return out


def calibrate() -> float:
    """Wall time of a fixed mix of interpreter work and small-array numpy
    work, the two kinds of work memstoch's engines do.

    The CPUs of a shared machine change speed by up to half within
    seconds, in step for this kernel and for the workloads, so raw pass
    times of one commit spread by 15-30 % between runs; scaled by this
    kernel's time they spread by 3-6 % (bench/README.md)."""
    import numpy as np
    x0 = np.linspace(0.0, 1.0, 4096)
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(90_000):
        acc += (i % 7) * 0.5
        table[i & 255] = acc
    x = x0
    for _ in range(1200):
        x = np.where(x > 0.5, np.exp(-x), 0.5 * x) + x0
    elapsed = time.perf_counter() - t0
    if not (acc > 0.0 and np.isfinite(x).all()):
        raise RuntimeError("calibration kernel went wrong")
    return elapsed


def set_up(workload, seed, workdir, trace):
    """Import memstoch and build the workload's inputs; returns
    (memstoch, workload, inputs, set-up seconds, tracer or None).  The
    set-up time counts the import and the build, not the installation of
    spans between them."""
    t0 = time.perf_counter()
    import memstoch
    import memstoch.cli  # noqa: F401  (the CLI workload and the probes use it)
    t_import = time.perf_counter() - t0
    if not Path(memstoch.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"memstoch was imported from {memstoch.__file__}, not from {SRC}")
    import spans
    import workloads
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload]
    tracer = spans.Tracer(memstoch) if trace else None
    t1 = time.perf_counter()
    if tracer:
        inputs = tracer.call("bench.setup", wl.build, memstoch, seed, workdir)
    else:
        inputs = wl.build(memstoch, seed, workdir)
    return memstoch, wl, inputs, t_import + time.perf_counter() - t1, tracer


def setup_in_child(args) -> float:
    """Scaled set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def digest(outputs: dict) -> str:
    """SHA-256 over a pass's outputs, bit for bit."""
    import numpy as np
    h = hashlib.sha256()
    for key in sorted(outputs):
        value = outputs[key]
        h.update(key.encode())
        if isinstance(value, bytes):
            h.update(value)
        else:
            arr = np.ascontiguousarray(value)
            h.update(f"{arr.dtype}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def git_commit():
    """Commit of the checkout read from .git, or None outside a git
    checkout (the benchmark reads nothing above the checkout's root)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy
    src = hashlib.sha256()
    for path in sorted((SRC / "memstoch").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {"git_commit": git_commit(), "memstoch_src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "blas_threads": PINNED_THREADS}


def write_spans(path, names, batches, env, args):
    """Gzipped text: one JSON header line, then one tab-separated line per
    span: index, name, start, end (perf_counter seconds), parent index
    (-1 for none)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        fh.write("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                                    "env": env}) + "\n")
        fh.write("index\tname\tstart_s\tend_s\tparent\n")
        offset = 0
        for ids, parent, start, end in batches:
            for i, (n, s, e, p) in enumerate(zip(ids.tolist(), start.tolist(),
                                                 end.tolist(), parent.tolist())):
                fh.write(f"{offset + i}\t{names[n]}\t{s!r}\t{e!r}\t"
                         f"{p + offset if p >= 0 else -1}\n")
            offset += ids.size


class Segments:
    """Times passes in segments of work separated by calibrations.

    Segment boundaries are set around every `mc.run_ensemble` call (by the
    probes), between other operations of a workload (its `split` calls)
    and at the end of each pass.  Calibration time is not part of any
    segment."""

    def __init__(self, probes, calibrate_fn):
        self.probes = probes
        self.calibrate_fn = calibrate_fn
        self.segments = []      # (start, end, probe counters)
        self.calibrations = []  # (midpoint, seconds)
        self._calibrate()
        self.begin()

    def _calibrate(self) -> None:
        t = time.perf_counter()
        c = self.calibrate_fn()
        self.calibrations.append((t + c / 2.0, c))

    def begin(self) -> None:
        self.probes.reset()
        self._t0 = time.perf_counter()

    def split(self) -> None:
        t = time.perf_counter()
        self.segments.append((self._t0, t, self.probes.snapshot()))
        if t - self._t0 >= MIN_SEGMENT_S:
            self._calibrate()
        self.begin()

    def speeds(self) -> list:
        """Speed factor of each segment: CAL_REF_S over the median of the
        CAL_NEAREST calibrations nearest to its midpoint."""
        mids = [m for m, _ in self.calibrations]
        out = []
        for start, end, _ in self.segments:
            mid = (start + end) / 2.0
            near = sorted(range(len(mids)), key=lambda i: abs(mids[i] - mid))[:CAL_NEAREST]
            out.append(CAL_REF_S / statistics.median(self.calibrations[i][1] for i in near))
        return out


def benchmark(args, workdir) -> dict:
    ms, wl, inputs, setup_s, tracer = set_up(args.workload, args.seed, workdir, args.trace)
    setups = [setup_s * CAL_REF_S / calibrate()]
    setups += [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    import reference
    import spans
    problems = [f"reference: {p}" for p in reference.self_check()]
    probes = spans.Probes(ms)
    if tracer:
        setup_raw, setup_summary = tracer.take()
        batches = [setup_raw]

    env = environment()
    print("# env " + json.dumps(env))
    seg = Segments(probes, tracer.wrap("bench.calibrate", calibrate) if tracer else calibrate)
    probes.boundary = seg.split
    passes, digests, layers = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        first = len(seg.segments)
        seg.begin()
        if tracer:
            res = tracer.call("bench.pass", wl.run, ms, inputs, probes, seg.split)
        else:
            res = wl.run(ms, inputs, probes, seg.split)
        seg.split()
        passes.append(range(first, len(seg.segments)))
        attempted += res.attempted
        failed += res.failed
        digests.append(digest(res.outputs))
        if tracer:
            raw, summary = tracer.take()
            layers.append((summary, res.csv_bytes))
            if len(batches) == 1:
                batches.append(raw)
        if len(passes) == 1:
            found, report = wl.check(inputs, res)
            problems += found
            for note in res.notes:
                print(f"# operation failed: {note}")
            print("# checks " + json.dumps(report))
        wall = sum(seg.segments[j][1] - seg.segments[j][0] for j in passes[-1])
        print(f"# pass {len(passes)}: wall {wall:.4f} s in {len(passes[-1])} segments, "
              f"sha256 {digests[-1][:16]}")
    if len(set(digests)) > 1:
        problems.append(f"passes of one seed differ: {len(set(digests))} distinct output hashes")
    for p in problems:
        print(f"# CHECK FAILED: {p}")

    speeds = seg.speeds()
    durations = [end - start for start, end, _ in seg.segments]
    counters = [c for _, _, c in seg.segments]
    walls = [sum(durations[j] for j in r) for r in passes]
    times = [sum(durations[j] * speeds[j] for j in r) for r in passes]
    rates = []
    for r in passes:
        ens_s = sum(counters[j]["ensemble_s"] * speeds[j] for j in r)
        rates.append(sum(counters[j]["trajectories"] for j in r) / ens_s if ens_s else 0.0)
    print(f"# run_s median: unscaled {statistics.median(walls)!r}, "
          f"scaled {statistics.median(times)!r}; calibration median "
          f"{statistics.median(c for _, c in seg.calibrations)!r} s "
          f"({len(seg.calibrations)} calibrations)")
    if tracer:
        per_pass = []
        for (summary, csv_bytes), r, wall, scaled in zip(layers, passes, walls, times):
            counts = {key: sum(counters[j][key] for j in r) for key in counters[r[0]]}
            per_pass.append(layer_metrics(summary, counts, csv_bytes, scaled / wall))
        metrics = {name: {"value": statistics.median(m[name][0] for m in per_pass),
                          "unit": per_pass[0][name][1]} for name in sorted(per_pass[0])}
        metrics["circuit.parse_netlist.s"] = {
            "value": setup_summary["circuit.parse_netlist"]["s"] * CAL_REF_S
            / seg.calibrations[0][1],
            "unit": "s"}
        write_spans(BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz",
                    tracer.names, batches, env, args)
    else:
        metrics = {
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "trajectories_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        }
        print("# setup samples (scaled) " + json.dumps(setups))
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only import and build the inputs; print the time taken")
    args = parser.parse_args(argv)
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            setup_s = set_up(args.workload, args.seed, workdir, False)[3]
            print(json.dumps({"setup_s": setup_s * CAL_REF_S / calibrate()}))
        else:
            print(json.dumps(benchmark(args, workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()   # only when no other run is using it
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
