"""Run one workload on several seeds and summarise each metric.

    python3 bench/spread.py --workload exact-count --seeds 0-9 [--trace 0]

Each run is a separate process with BENCHMARK.json's run_seconds.  For every
metric it prints the median over the runs and the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of that median, next to the metric's bound.  The full records stay under
``.bench_out/``.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run
from make_golden import parse_seeds


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
        res = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900, check=True)
        result = json.loads(res.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:28s} median {med:.6g}  spread {spread:.4f}  bound {bounds.get(name)}  "
              f"values {' '.join(f'{v:.6g}' for v in vals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
