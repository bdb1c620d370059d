"""The three workloads: set-up (graphs, edge-list files, reference answers)
and one operation each, which calls the package and checks every answer.

Graphs come in a pool per run.  Pool member i of workload seed s is built
from graph seed s * pool + i, so the pools of different workload seeds never
share a random graph.  A pool evens out how much work one graph happens to
need (the Ryser early exit, the number of reachable DP states, the number of
2-factors), which otherwise moves a single-graph run by 20-30 % from seed to
seed.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

from ndlham import cli, factors, graph, hamiltonize, permanent, spectral

import oracles

LAMBDA_TOL = 1e-8

SCALES = {
    "full": {
        "exact-count": {"n": 20, "d": 4, "pool": 10},
        "factor-sweep": {"n": 16, "d": 4, "pool": 12},
        "certify-scale": {"q": 101, "n": 120, "d": 4, "pool": 4, "samples": 20000},
    },
    # a few seconds in all; used by the self-test
    "tiny": {
        "exact-count": {"n": 10, "d": 4, "pool": 2},
        "factor-sweep": {"n": 10, "d": 4, "pool": 2},
        "certify-scale": {"q": 13, "n": 20, "d": 4, "pool": 2, "samples": 200},
    },
}


class Mismatch(Exception):
    """An answer failed its check."""


def require(cond, msg):
    if not cond:
        raise Mismatch(msg)


@dataclass
class Item:
    """One pool graph: its label, the graph, its edge-list file and the
    reference answers computed at set-up."""

    label: str
    graph: object
    path: str
    ref: dict


def call_cli(argv):
    """Run ``ndlham.cli.main`` in-process; return (exit code, parsed JSON)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    try:
        return code, json.loads(out.getvalue())
    except json.JSONDecodeError:
        raise Mismatch(f"ndlham {argv[0]}: exit {code}, no JSON output; stderr {err.getvalue()!r}") from None


def _item(label, g, workdir, ref):
    path = os.path.join(workdir, f"{label}.txt")
    with open(path, "w") as fh:
        fh.write(graph.write_edge_list(g))
    return Item(label, g, path, ref)


def _random_pool(cfg, seed, workdir, reference):
    n, d, pool = cfg["n"], cfg["d"], cfg["pool"]
    items = []
    for i in range(pool):
        gs = seed * pool + i
        g = graph.random_regular(n, d, gs)
        items.append(_item(f"rr-{n}-{d}-{gs}", g, workdir, reference(g)))
    return items


def _permanent_ref(g):
    return {"permanent": oracles.permanent_meet_in_middle(g.rows, g.n)}


class ExactCount:
    """``ndlham report`` on rr(20,4): Ryser permanent, Hamilton DP and
    matching memo against every bound."""

    golden_keys = ("permanent", "h", "m")
    period = 1

    def __init__(self, cfg):
        self.cfg = cfg

    def setup(self, seed, workdir):
        return _random_pool(self.cfg, seed, workdir, _permanent_ref)

    def op(self, item, seed):
        code, rep = call_cli(["report", item.path])
        ex = rep["exact"]
        ans = {"permanent": int(ex["permanent"]), "h": int(ex["h"]), "m": int(ex["m"]),
               "lambda": rep["lambda"], "ok": rep["ok"]}
        require(code == 0, f"report exit {code}")
        require(rep["ok"] and all(rep["ok"].values()), f"report ok flags {rep['ok']}")
        require(ans["h"] <= math.comb(ans["m"], 2), "h > C(m, 2)")
        require(ans["permanent"] == item.ref["permanent"],
                f"permanent {ans['permanent']} != oracle {item.ref['permanent']}")
        return ans


class FactorSweep:
    """rr(16,4): the 2-factor histogram through the CLI, the enumerator, the
    rotation engine on every 2-factor with a replayed trace, and the
    permanent and Hamilton identities against the histogram."""

    golden_keys = ("counts", "total", "weighted_total", "permanent", "h")
    period = 1

    def __init__(self, cfg):
        self.cfg = cfg

    def setup(self, seed, workdir):
        return _random_pool(self.cfg, seed, workdir, _permanent_ref)

    def op(self, item, seed):
        g = item.graph
        code, hist = call_cli(["count", "factors", item.path])
        require(code == 0, f"count factors exit {code}")
        counts = {s: int(c) for s, c in hist["counts"].items()}
        total, weighted = int(hist["total"]), int(hist["weighted_total"])
        found = factors.enumerate_two_factors(g)
        cert = spectral.certify(g)
        successes = replacements = 0
        for f in found:
            trace = hamiltonize.two_factor_to_hamilton(g, f, cert)
            if trace.success:
                hamiltonize.replay(g, f, trace)  # raises InconsistentTrace
                successes += 1
            replacements += trace.replacements
        per = permanent.permanent_exact(permanent.adjacency_matrix_of(g))
        h = factors.hamilton_count_exact(g)
        ans = {"counts": counts, "total": total, "weighted_total": weighted, "permanent": per,
               "h": h, "enumerated": len(found), "successes": successes,
               "replacements": replacements}
        require(len(found) == total, f"enumerated {len(found)} != histogram total {total}")
        require(sum(counts.values()) == total, "histogram counts do not sum to its total")
        require(weighted == per, f"weighted total {weighted} != permanent {per}")
        require(counts.get("1", 0) == h, f"f(G,1) {counts.get('1', 0)} != h {h}")
        require(per == item.ref["permanent"], f"permanent {per} != oracle {item.ref['permanent']}")
        return ans


class CertifyScale:
    """``ndlham certify`` then ``ndlham mixing`` on one graph per op,
    alternating paley(101) with the rr(120,4) pool."""

    golden_keys = ("lambda", "pairs_checked", "violations")
    period = 2  # a run ends on whole (paley, rr) pairs

    def __init__(self, cfg):
        self.cfg = cfg

    def setup(self, seed, workdir):
        q = self.cfg["q"]
        pal = _item(f"paley-{q}", graph.paley(q), workdir, {"lambda": oracles.paley_lambda(q)})
        pool = _random_pool(self.cfg, seed, workdir,
                            lambda g: {"lambda": oracles.second_eigenvalue_bound(g)})
        return [it for rr in pool for it in (pal, rr)]

    def op(self, item, seed):
        samples = self.cfg["samples"]
        code, cert = call_cli(["certify", item.path])
        require(code == 0, f"certify exit {code}")
        code, mix = call_cli(["mixing", item.path, "--samples", str(samples), "--seed", str(seed)])
        require(code == 0, f"mixing exit {code}")
        ans = {"lambda": cert["lambda"], "pairs_checked": mix["pairs_checked"],
               "violations": mix["violations"],
               "max_normalized_defect": mix["max_normalized_defect"]}
        require(abs(ans["lambda"] - item.ref["lambda"]) <= LAMBDA_TOL,
                f"lambda {ans['lambda']!r} vs reference {item.ref['lambda']!r}")
        require(ans["violations"] == 0, f"{ans['violations']} mixing violations")
        want = oracles.mixing_pair_count(item.graph.n, samples)
        require(ans["pairs_checked"] == want, f"pairs_checked {ans['pairs_checked']} != {want}")
        return ans


WORKLOADS = {"exact-count": ExactCount, "factor-sweep": FactorSweep, "certify-scale": CertifyScale}


def make(name, scale):
    return WORKLOADS[name](SCALES[scale][name])


def compare(answers, expected):
    """Mismatch messages for each expected key; floats within LAMBDA_TOL."""
    bad = []
    for key, want in expected.items():
        got = answers.get(key)
        if isinstance(want, float):
            ok = isinstance(got, float) and abs(got - want) <= LAMBDA_TOL
        else:
            ok = got == want
        if not ok:
            bad.append(f"{key}: got {got!r}, expected {want!r}")
    return bad
