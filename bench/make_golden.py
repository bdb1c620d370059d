"""Write golden answers for every pool graph of the given workload seeds.

Each graph's answers come from one op, which also checks them against the
set-up reference answers and the package's own identities.  Run from the
repository root (about ten minutes at full scale on a 2-CPU Xeon):

    python3 bench/make_golden.py --seeds 0-9 --out bench/golden.json
"""

import argparse
import json
import os
import shutil
import sys

import run


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    p.add_argument("--scale", choices=["full", "tiny"], default="full")
    p.add_argument("--out", default=str(run.GOLDEN))
    args = p.parse_args(argv)
    run.import_package()
    import workloads

    golden = {}
    workdir = run.OUT / f"golden-{os.getpid()}"
    run.OUT.mkdir(exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, args.scale)
            entries = golden.setdefault(name, {})
            for seed in parse_seeds(args.seeds):
                items, _ = run.run_setup(wl, seed, workdir)
                for item in items:
                    if item.label not in entries:  # paley graphs recur in every pool
                        ans = wl.op(item, seed)
                        entries[item.label] = {k: ans[k] for k in wl.golden_keys}
                print(f"{name} seed {seed}: {len(entries)} graphs", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
