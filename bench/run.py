"""Closed-loop benchmark of the ndlham verification chain.

One process, one client: the next operation starts when the previous one
returns.  Run from the repository root:

    python3 bench/run.py --workload exact-count --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run.  The end-to-end times are nominal: each timed
interval is scaled by the reference kernel of ``hostref.py``, run right
before and after it, so that the host's drifting speed cancels; the record
keeps the wall-clock values too.

The last line of standard output is the result object; the line before it
is the full record (provenance, every answer, failures, latencies), which is
also written under ``.bench_out/``.
"""

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SETUP_REPS = 5
# a fresh interpreter times the imports the way `ndlham` pays them at start-up
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, ndlham.cli; print(time.perf_counter() - t)"
)

# (name, unit, how the value is obtained): "nominal" is a measured wall time
# scaled to nominal host speed by hostref
END_TO_END = (
    ("ops_per_s", "1/s", "nominal"),
    ("op_s_p50", "s", "nominal"),
    ("setup_s", "s", "nominal"),
    ("peak_rss_mb", "MB", "measured"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["exact-count", "factor-sweep", "certify-scale"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "tiny"], default="full",
                   help="graph sizes; 'tiny' is for the self-test")
    p.add_argument("--golden", default=str(GOLDEN), help="golden answers file")
    return p.parse_args(argv)


def cap_blas_threads():
    """Cap BLAS pools at the CPUs this process may use; returns the cap."""
    cap = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(cap))
    return {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def provenance(args, blas):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "blas_threads": blas,
    }


def run_setup(wl, seed, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t = time.perf_counter()
    items = wl.setup(seed, str(workdir))
    return items, time.perf_counter() - t


def import_seconds(host):
    """Wall and nominal times of importing numpy and ndlham in SETUP_REPS
    fresh interpreters."""
    wall, nominal = [], []
    for _ in range(SETUP_REPS):
        res = subprocess.run([sys.executable, "-B", "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, timeout=120, check=True)
        wall.append(float(res.stdout))
        nominal.append(host.scale(wall[-1]))
    return wall, nominal


class Loop:
    """Runs ops, checks their answers against the reference, the golden file
    and the first answer for the same graph, and keeps the tallies."""

    def __init__(self, wl, items, seed, golden):
        self.wl, self.items, self.seed, self.golden = wl, items, seed, golden
        self.answers, self.failures, self.latencies = {}, [], []
        self.attempted = 0

    def attempt(self, item):
        from workloads import Mismatch, compare

        self.attempted += 1
        t = time.perf_counter()
        try:
            ans = self.wl.op(item, self.seed)
            first = self.answers.setdefault(item.label, ans)
            bad = compare(ans, self.golden.get(item.label, {})) + compare(ans, {k: first[k] for k in self.wl.golden_keys})
            if bad:
                raise Mismatch("; ".join(bad))
        except Exception as exc:  # any failure of one op is counted, the run goes on
            self.failures.append({"op": self.attempted - 1, "graph": item.label,
                                  "error": f"{type(exc).__name__}: {exc}"})
        latency = time.perf_counter() - t
        self.latencies.append(latency)
        return latency

    @property
    def failed(self):
        return len(self.failures)


def measure(loop, seconds, period, host):
    """Closed loop until ``seconds`` pass, ending on a whole period; returns
    the nominal latency of each op."""
    start = time.perf_counter()
    nominal = []
    i = 0
    while True:
        nominal.append(host.scale(loop.attempt(loop.items[i % len(loop.items)])))
        i += 1
        if i % period == 0 and time.perf_counter() - start >= seconds:
            return nominal


def measure_traced(loop, seconds, period, tracer):
    """Each item twice in a row, plain then traced; returns the total
    latency of each side."""
    start = time.perf_counter()
    plain = traced = 0.0
    i = 0
    while True:
        item = loop.items[i % len(loop.items)]
        plain += loop.attempt(item)
        tracer.install()
        try:
            with tracer.root("bench.op"):
                traced += loop.attempt(item)
        finally:
            tracer.uninstall()
        i += 1
        if i % period == 0 and time.perf_counter() - start >= seconds:
            return plain, traced, i


def import_package():
    """Import ndlham from this checkout's ``src/``; returns the import time
    and the layer modules.  Exits non-zero when the source is not there."""
    if not (SRC / "ndlham" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found at {SRC / 'ndlham'}")
    sys.dont_write_bytecode = True  # every run imports from source alike
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import numpy  # noqa: F401
    import ndlham
    from ndlham import cli, experiments, factors, graph, hamiltonize, mixing, permanent, spectral

    import_s = time.perf_counter() - t
    if Path(ndlham.__file__).resolve().parent != SRC / "ndlham":
        raise SystemExit(f"error: imported ndlham from {ndlham.__file__}, not {SRC}")
    modules = {"cli": cli, "graph": graph, "experiments": experiments, "spectral": spectral,
               "mixing": mixing, "permanent": permanent, "factors": factors,
               "hamiltonize": hamiltonize}
    return import_s, modules


def main(argv=None):
    args = parse_args(argv)
    blas = cap_blas_threads()
    import_s, modules = import_package()
    import hostref
    import tracing
    import workloads

    wl = workloads.make(args.workload, args.scale)
    golden_path = Path(args.golden)
    golden = json.loads(golden_path.read_text()) if golden_path.is_file() else {}
    golden = golden.get(args.workload, {})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        host = hostref.HostClock()
        reps, reps_nominal = [], []
        for _ in range(SETUP_REPS):
            items, dt = run_setup(wl, args.seed, workdir)
            reps.append(dt)
            reps_nominal.append(host.scale(dt))
        probes, probes_nominal = import_seconds(host)
        wall_setup_s = statistics.median(probes) + statistics.median(reps)
        setup_s = statistics.median(probes_nominal) + statistics.median(reps_nominal)
        wall = {"setup_s": wall_setup_s}
        loop = Loop(wl, items, args.seed, golden)
        spans = None
        if args.trace:
            tracer = tracing.Tracer(modules)
            tracer.install()
            try:
                with tracer.root("bench.setup"):
                    run_setup(wl, args.seed, workdir)
            finally:
                tracer.uninstall()
            graph_setup_s = sum(t for s, t in zip(tracer.spans, tracing.self_times(tracer.spans))
                                if s[3] == "graph")
            tracer.reset()
            plain, traced, pairs = measure_traced(loop, args.seconds, wl.period, tracer)
            values = tracing.layer_metrics(tracer.spans, tracer.counters, pairs,
                                           plain / traced, graph_setup_s)
            spec = tracing.PER_LAYER
            spans = tracing.span_table(tracer.spans)
        else:
            nominal = measure(loop, args.seconds, wl.period, host)
            correct = loop.attempted - loop.failed
            wall.update(ops_per_s=correct / sum(loop.latencies),
                        op_s_p50=statistics.median(loop.latencies))
            values = {
                "ops_per_s": correct / sum(nominal),
                "op_s_p50": statistics.median(nominal),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            spec = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "provenance": provenance(args, blas),
        "setup": {"import_s": probes, "import_nominal_s": probes_nominal,
                  "import_in_process_s": import_s, "reps_s": reps, "reps_nominal_s": reps_nominal,
                  "setup_s": setup_s},
        "ops": {"attempted": loop.attempted, "failed": loop.failed,
                "failed_frac": loop.failed / loop.attempted,
                "op_s_p50_samples": len(loop.latencies), "latencies_s": loop.latencies},
        "host": {"reference_s": host.refs, "nominal_s": hostref.NOMINAL_S,
                 "wall_metrics": wall},
        "golden_file": str(golden_path), "golden_graphs_checked": sorted(set(golden) & set(loop.answers)),
        "failures": loop.failures,
        "answers": loop.answers,
        "metrics": metrics,
        "labels": {name: label for name, _, label in spec},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans is not None:
        (OUT / f"{tag}-spans.json.gz").write_bytes(gzip.compress(json.dumps(spans).encode(), 1))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
