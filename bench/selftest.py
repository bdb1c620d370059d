"""Self-test of the benchmark at tiny graph sizes (under a minute).

    python3 bench/selftest.py

It checks that every workload, with --trace 0 and with --trace 1, prints a
result line with exactly the keys correct/attempted/failed/metrics and every
metric BENCHMARK.json names, with its unit; that golden answers recorded for
the tiny pools pass; and that the same golden file with one value corrupted
is reported as failed ops (failed_frac > 0, correct false).
"""

import json
import subprocess
import sys

import run

WORKLOADS = ("exact-count", "factor-sweep", "certify-scale")


def bench(*args):
    cmd = [sys.executable, str(run.ROOT / "bench" / "run.py"), "--scale", "tiny", "--seconds", "0.5", *args]
    res = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    if res.returncode != 0:
        raise AssertionError(f"{' '.join(args)}: exit {res.returncode}\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            _, result = bench("--workload", w, "--seed", "0", "--trace", str(trace))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{w} trace {trace}: {result['failed']} of {result['attempted']} ops failed")
            for m in want[trace]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{w} trace {trace}: metric {m['name']} [{m['unit']}] is {got}")

    golden = run.OUT / "selftest-golden.json"
    corrupt = run.OUT / "selftest-golden-corrupt.json"
    subprocess.run([sys.executable, str(run.ROOT / "bench" / "make_golden.py"), "--scale", "tiny",
                    "--seeds", "0", "--out", str(golden)], cwd=run.ROOT, check=True, timeout=300,
                   capture_output=True)
    data = json.loads(golden.read_text())
    for w in WORKLOADS:
        _, result = bench("--workload", w, "--seed", "0", "--golden", str(golden))
        if not result["correct"]:
            problems.append(f"{w}: fails against its own golden answers")
    label = sorted(data["exact-count"])[0]
    data["exact-count"][label]["permanent"] += 1
    corrupt.write_text(json.dumps(data))
    record, result = bench("--workload", "exact-count", "--seed", "0", "--golden", str(corrupt))
    if not record["ops"]["failed_frac"] > 0 or result["correct"]:
        problems.append(f"corrupted golden permanent of {label} not reported: {record['ops']}")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
