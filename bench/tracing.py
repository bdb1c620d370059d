"""Spans around the public functions of each ndlham module.

The tracer replaces every public function of a layer module with a wrapper
that records a span (qualified name, start, end, parent span, whether an
exception passed through).  Names that other layer modules bound with
``from .x import f`` are replaced too, so ``hamiltonize.validate_two_factor``
is traced like ``factors.validate_two_factor``.  Spans stay in memory and are
written out when the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

import functools
import time
import types
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "graph", "experiments", "spectral", "mixing", "permanent", "factors", "hamiltonize")

# called once per (S, T) pair: a span each would cost more than the work it times
PER_PAIR = frozenset({"mixing.mixing_defect", "mixing.edge_count"})

ENUMERATORS = frozenset({
    "factors.enumerate_two_factors",
    "factors.factor_histogram",
    "factors.weighted_cycle_cover_sum",
    "factors.two_factor_total",
})


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# work counters read at the span boundary: from the arguments (computed work)
# or from the returned value (exact counts)
COUNTERS = {
    "permanent.permanent_exact": lambda a, k, r: {"permanent.subsets": (1 << _first(a, k).n) - 1},
    "factors.hamilton_count_exact": lambda a, k, r: {
        "factors.dp_cells": _first(a, k).n << max(_first(a, k).n - 1, 0)
    },
    "spectral.spectrum": lambda a, k, r: {"spectral.order_sum": _first(a, k).n},
    "mixing.verify_mixing": lambda a, k, r: {"mixing.pairs": r.pairs_checked},
    "factors.enumerate_two_factors": lambda a, k, r: {"factors.two_factors": len(r)},
    "factors.factor_histogram": lambda a, k, r: {"factors.two_factors": r.total},
    "hamiltonize.two_factor_to_hamilton": lambda a, k, r: {
        "hamiltonize.replacements": r.replacements,
        "hamiltonize.successes": int(r.success),
    },
}

# (name, unit, how the value is obtained): "measured" by the clock,
# "exact" when counted from spans or read from the package's outputs,
# "computed" when derived from input sizes by formula
PER_LAYER = (
    [(f"{layer}.self_s", "s", "measured") for layer in LAYERS]
    + [(f"{layer}.calls", "count", "exact") for layer in LAYERS]
    + [(f"{layer}.errors", "count", "exact") for layer in LAYERS]
    + [
        ("graph.setup_s", "s", "measured"),
        ("spectral.order_sum", "count", "exact"),
        ("mixing.pairs", "count", "exact"),
        ("mixing.pairs_per_s", "1/s", "measured"),
        ("permanent.subsets", "count", "computed"),
        ("permanent.subsets_per_s", "1/s", "measured"),
        ("factors.hamilton_s", "s", "measured"),
        ("factors.dp_cells", "count", "computed"),
        ("factors.dp_bytes", "B", "computed"),
        ("factors.matching_s", "s", "measured"),
        ("factors.enum_s", "s", "measured"),
        ("factors.two_factors", "count", "exact"),
        ("factors.two_factors_per_s", "1/s", "measured"),
        ("hamiltonize.convert_s", "s", "measured"),
        ("hamiltonize.posa_s", "s", "measured"),
        ("hamiltonize.replay_s", "s", "measured"),
        ("hamiltonize.conversions", "count", "exact"),
        ("hamiltonize.replacements", "count", "exact"),
        ("hamiltonize.success_ratio", "ratio", "exact"),
        ("bench.self_s", "s", "measured"),
        ("trace.op_s", "s", "measured"),
        ("trace.spans", "count", "exact"),
        ("trace.overhead_ratio", "ratio", "measured"),
    ]
)

START, END = 4, 5  # span fields: [id, parent, qualname, layer, start, end, error]


class Tracer:
    """Installs and removes span wrappers on the given layer modules."""

    def __init__(self, modules):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                qual = f"{layer}.{name}"
                if (
                    isinstance(fn, types.FunctionType)
                    and not name.startswith("_")
                    and fn.__module__ == mod.__name__
                    and qual not in PER_PAIR
                ):
                    wrappers[fn] = self._wrap(layer, qual, fn)
        # the defining module's attribute and every `from .x import f` copy
        self._patches = [
            (mod, name, fn, wrappers[fn])
            for mod in modules.values()
            for name, fn in vars(mod).items()
            if isinstance(fn, types.FunctionType) and fn in wrappers
        ]

    def _wrap(self, layer, qual, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(qual)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, qual, layer, clock(), 0.0, False]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counters[key] += value
            return result

        return traced

    def install(self):
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original, _ in self._patches:
            setattr(mod, name, original)

    @contextmanager
    def root(self, name):
        """A span of the benchmark's own layer, parent of the spans inside it."""
        span = [len(self.spans), -1, name, "bench", time.perf_counter(), 0.0, False]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            yield
        except BaseException:
            span[6] = True
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def reset(self):
        self.spans.clear()
        self.counters.clear()


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[END] - s[START]
    return [s[END] - s[START] - child[s[0]] for s in spans]


def layer_metrics(spans, counters, ops, overhead_ratio, graph_setup_s):
    """Every PER_LAYER metric, per traced op unless it is a ratio or rate;
    ``graph_setup_s`` is the graph layer's self time in one traced set-up."""
    by_qual = defaultdict(float)
    by_layer = defaultdict(float)
    calls = defaultdict(int)
    errors = defaultdict(int)
    for s, self_s in zip(spans, self_times(spans)):
        by_qual[s[2]] += self_s
        by_layer[s[3]] += self_s
        calls[s[3]] += 1
        errors[s[3]] += s[6]
    roots = [s for s in spans if s[1] < 0]

    def per_op(x):
        return x / ops

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_op(by_layer[layer])
        m[f"{layer}.calls"] = per_op(calls[layer])
        m[f"{layer}.errors"] = per_op(errors[layer])
    hamilton_s = by_qual["factors.hamilton_count_exact"]
    enum_s = sum(by_qual[q] for q in ENUMERATORS)
    posa_s = by_qual["hamiltonize.posa_close"]
    replay_s = by_qual["hamiltonize.replay"]
    conversions = sum(1 for s in spans if s[2] == "hamiltonize.two_factor_to_hamilton")
    m.update({
        "graph.setup_s": graph_setup_s,
        "spectral.order_sum": per_op(counters["spectral.order_sum"]),
        "mixing.pairs": per_op(counters["mixing.pairs"]),
        "mixing.pairs_per_s": rate(counters["mixing.pairs"], by_layer["mixing"]),
        "permanent.subsets": per_op(counters["permanent.subsets"]),
        "permanent.subsets_per_s": rate(counters["permanent.subsets"], by_layer["permanent"]),
        "factors.hamilton_s": per_op(hamilton_s),
        "factors.dp_cells": per_op(counters["factors.dp_cells"]),
        # the DP table holds one int64 per (vertex subset, endpoint) cell
        "factors.dp_bytes": per_op(8 * counters["factors.dp_cells"]),
        "factors.matching_s": per_op(by_qual["factors.perfect_matching_count"]),
        "factors.enum_s": per_op(enum_s),
        "factors.two_factors": per_op(counters["factors.two_factors"]),
        "factors.two_factors_per_s": rate(counters["factors.two_factors"], enum_s),
        "hamiltonize.convert_s": per_op(by_layer["hamiltonize"] - posa_s - replay_s),
        "hamiltonize.posa_s": per_op(posa_s),
        "hamiltonize.replay_s": per_op(replay_s),
        "hamiltonize.conversions": per_op(conversions),
        "hamiltonize.replacements": per_op(counters["hamiltonize.replacements"]),
        "hamiltonize.success_ratio": rate(counters["hamiltonize.successes"], conversions),
        "bench.self_s": per_op(by_layer["bench"]),
        "trace.op_s": per_op(sum(s[END] - s[START] for s in roots)),
        "trace.spans": per_op(len(spans)),
        "trace.overhead_ratio": overhead_ratio,
    })
    return m


def span_table(spans):
    """Spans as a compact JSON-ready table, one row per span."""
    names = sorted({s[2] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    return {
        "fields": ["id", "parent", "name", "start", "end", "self_s", "error"],
        "names": names,
        "rows": [[s[0], s[1], index[s[2]], s[START], s[END], t, s[6]]
                 for s, t in zip(spans, self_times(spans))],
    }
