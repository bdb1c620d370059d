"""Command-line front end.

Each subcommand declares only the options that change its output, and
argparse rejects any other with exit 2.  ``gen`` and ``experiment`` take
one subcommand per graph family or experiment kind, each with the options
its function reads.  ``--epsilon`` (the constant of condition 1) is taken
by ``certify`` alone; ``--format csv`` is offered by ``certify``, ``count``
and ``report``, the subcommands that build CSV rows.  JSON output writes
a non-finite float as the string the text and CSV formats print ("inf",
"-inf" or "nan"), since JSON has no token for it.

``main`` builds the parser once per process, at its first call rather than
at import (importing this module builds nothing), and parses every later
argv with it; ``build_parser`` still returns a fresh parser.

Exit codes: 0 on success (including reported failures like an
unhamiltonizable input), 1 when a mathematical invariant is violated, 2 on
usage errors.
"""

import argparse
import functools
import json
import math
import random
import sys

from . import experiments, factors, graph, hamiltonize, mixing, permanent, spectral
from .errors import NdlError, check_seed


def _load_graph(path):
    with open(path) as fh:
        return graph.read_edge_list(fh.read())


def _emit(args, payload, csv_rows=None):
    if args.format == "json":
        print(json.dumps(_finite_json(payload), indent=2, sort_keys=True, allow_nan=False))
    elif args.format == "csv":
        for row in csv_rows:
            print(",".join(str(x) for x in row))
    else:
        _print_text(payload)


def _finite_json(x):
    """x with each non-finite float, at any depth of its dicts and lists,
    as its str: "inf", "-inf" or "nan"."""
    if isinstance(x, dict):
        return {k: _finite_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_json(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return x


def _print_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _print_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            _print_text(v, indent)
    else:
        print(f"{pad}{payload}")


def _cmd_gen(args):
    text = graph.write_edge_list(args.build(args))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_certify(args):
    cert = spectral.certify(_load_graph(args.input), args.epsilon)
    d = cert.to_json_dict()
    _emit(args, d, csv_rows=[d.keys(), [d[k] for k in d]])
    return 0


def _cmd_mixing(args):
    g = _load_graph(args.input)
    cert = spectral.certify(g)
    rep = mixing.verify_mixing(g, cert, sample_count=args.samples, seed=args.seed)
    _emit(args, rep.to_json_dict())
    return 1 if rep.violations else 0


def _cmd_permanent(args):
    g = _load_graph(args.input)
    per = permanent.permanent_exact(permanent.adjacency_matrix_of(g))
    payload = {"permanent": str(per), "bregman_upper": permanent.bregman_bound(g.degrees).to_json_dict()}
    if g.is_regular() and g.n >= 1 and g.degree(0) >= 1:
        d = g.degree(0)
        payload["vdw_lower"] = permanent.vdw_lower(g.n, d).to_json_dict()
        payload["regular_upper"] = permanent.regular_upper(g.n, d).to_json_dict()
    _emit(args, payload)
    return 0


def _cmd_count(args):
    g = _load_graph(args.input)
    if args.what == "hamilton":
        payload = {"hamilton_cycles": str(factors.hamilton_count_exact(g))}
        csv_rows = [["hamilton_cycles"], [payload["hamilton_cycles"]]]
    elif args.what == "matchings":
        payload = {"perfect_matchings": str(factors.perfect_matching_count(g))}
        csv_rows = [["perfect_matchings"], [payload["perfect_matchings"]]]
    else:  # factors
        hist = factors.factor_histogram(g)
        payload = hist.to_json_dict()
        csv_rows = [["s", "count"]] + [
            [s, c] for s, c in sorted(hist.counts.items())
        ]
    _emit(args, payload, csv_rows=csv_rows)
    return 0


def _cmd_phi(args):
    g = _load_graph(args.input)
    _emit(args, {"k": args.k, "phi": str(factors.phi(g, args.k))})
    return 0


def _cmd_hamiltonize(args):
    check_seed(args.factor_seed, "hamiltonize: --factor-seed")
    g = _load_graph(args.input)
    cert = spectral.certify(g)
    all_factors = factors.enumerate_two_factors(g)
    if not all_factors:
        _emit(args, {"error": "graph has no 2-factor"})
        return 0
    rng = random.Random(args.factor_seed)
    f = all_factors[rng.randrange(len(all_factors))]
    trace = hamiltonize.two_factor_to_hamilton(g, f, cert, args.budget_constant)
    if trace.success:
        hamiltonize.replay(g, f, trace)
    payload = trace.to_json_dict()
    payload["two_factor"] = [list(c) for c in f.components]
    _emit(args, payload)
    return 0


def _cmd_report(args):
    rep = experiments.bounds_report(_load_graph(args.input))
    d = rep.to_json_dict()
    csv_rows = [["bound", "value"]] + [[k, v] for k, v in rep.bounds.items()]
    _emit(args, d, csv_rows=csv_rows)
    return 0 if rep.all_ok else 1


def _cmd_experiment(args):
    _emit(args, args.run(args))
    return 0


def _gnm(n, m):
    value, is_zero = experiments.janson_expectation_gnm(n, m)
    return {"log_expectation": None if is_zero else value, "is_zero": is_zero}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ndlham",
        description="certify pseudo-random regular graphs and verify "
        "Hamilton-cycle counting identities exactly",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output_format(p, csv=False):
        choices = ["json", "csv", "text"] if csv else ["json", "text"]
        p.add_argument("--format", choices=choices, default="json")

    p = sub.add_parser("gen", help="generate a family graph as an edge list")
    families = p.add_subparsers(dest="family", required=True)

    def family(name, build, *options):
        f = families.add_parser(name)
        for opt in options:
            f.add_argument(opt, type=int, required=True)
        f.add_argument("-o", "--output")
        f.set_defaults(func=_cmd_gen, build=build)
        return f

    family("paley", lambda a: graph.paley(a.q), "--q")
    f = family("random-regular", lambda a: graph.random_regular(a.n, a.d, a.seed), "--n", "--d")
    f.add_argument("--seed", type=int, default=0)
    family("complete", lambda a: graph.complete(a.n), "--n")
    family("cycle", lambda a: graph.cycle(a.n), "--n")
    family("petersen", lambda a: graph.petersen())
    f = family("circulant", lambda a: graph.circulant(a.n, a.connection_set), "--n")
    f.add_argument("--connection-set", dest="connection_set", type=int, nargs="+", required=True)

    p = sub.add_parser("certify", help="spectral (n,d,lambda) certificate")
    p.add_argument("input")
    output_format(p, csv=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("mixing", help="verify the mixing inequality on sampled pairs")
    p.add_argument("input")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    output_format(p)
    p.set_defaults(func=_cmd_mixing)

    p = sub.add_parser("permanent", help="exact adjacency permanent and bounds")
    p.add_argument("input")
    output_format(p)
    p.set_defaults(func=_cmd_permanent)

    p = sub.add_parser("count", help="exact Hamilton/matching/2-factor counts")
    p.add_argument("what", choices=["hamilton", "matchings", "factors"])
    p.add_argument("input")
    output_format(p, csv=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("phi", help="max 2-factor count over induced k-subgraphs")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    output_format(p)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("hamiltonize", help="convert a random 2-factor to a Hamilton cycle")
    p.add_argument("input")
    p.add_argument("--factor-seed", dest="factor_seed", type=int, default=0)
    p.add_argument("--budget-constant", dest="budget_constant", type=float, default=10.0)
    output_format(p)
    p.set_defaults(func=_cmd_hamiltonize)

    p = sub.add_parser("report", help="exact counts against every bound")
    p.add_argument("input")
    output_format(p, csv=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("experiment", help="random-graph expectation baselines")
    kinds = p.add_subparsers(dest="kind", required=True)
    defaults = {"--n": 8, "--p": 0.5, "--m": 0, "--trials": 100, "--seed": 0}

    def kind(name, run, *options):
        k = kinds.add_parser(name)
        for opt in options:
            k.add_argument(opt, type=type(defaults[opt]), default=defaults[opt])
        output_format(k)
        k.set_defaults(func=_cmd_experiment, run=run)

    kind("gnp", lambda a: {"log_expectation": experiments.janson_expectation_gnp(a.n, a.p)},
         "--n", "--p")
    kind("gnm", lambda a: _gnm(a.n, a.m), "--n", "--m")
    kind("mc", lambda a: experiments.monte_carlo_gnp(a.n, a.p, a.trials, a.seed),
         "--n", "--p", "--trials", "--seed")
    kind("trend", lambda a: experiments.theorem_trend(seed=a.seed), "--seed")

    return parser


_shared_parser = functools.cache(build_parser)


def main(argv=None):
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except NdlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
