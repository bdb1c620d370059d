"""Per-graph bound reports and random-graph expectation baselines."""

import math
import random
from dataclasses import dataclass

from . import factors, permanent, spectral
from .errors import (
    GenerationTimeout, InvalidParameters, NotRegular, check_cap, check_seed, is_int, is_real,
)
from .graph import from_edges, random_regular

def _log_binom(n, k):
    """log C(n, k) for 0 <= k <= n."""
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


@dataclass(frozen=True)
class BoundsReport:
    n: int
    d: int
    lam: float
    exact: dict  # permanent / h / f_total / f_histogram / m, where computable
    bounds: dict  # natural-log domain
    normalized: dict  # per-vertex n-th root comparisons
    ok: dict  # each asserted inequality, by name

    @property
    def all_ok(self):
        return all(self.ok.values())

    def to_json_dict(self):
        exact = {
            k: (str(v) if isinstance(v, int) else v) for k, v in self.exact.items()
        }
        if "f_histogram" in self.exact:
            exact["f_histogram"] = {
                str(s): str(c) for s, c in sorted(self.exact["f_histogram"].items())
            }
        return {
            "n": self.n,
            "d": self.d,
            "lambda": self.lam,
            "exact": exact,
            "bounds": self.bounds,
            "normalized": self.normalized,
            "ok": self.ok,
        }


def bounds_report(g):
    """Exact counts next to every log-domain bound, with the sandwich
    inequalities checked wherever the exact value is available."""
    if not g.is_regular():
        raise NotRegular("bounds_report: graph is not regular")
    cert = spectral.certify(g)
    n, d = g.n, cert.d
    exact = {}
    ok = {}
    if n <= permanent.EXACT_CAP:
        exact["permanent"] = permanent.permanent_exact(permanent.adjacency_matrix_of(g))
    if n <= factors.HAMILTON_CAP:
        exact["h"] = factors.hamilton_count_exact(g)
    if n <= factors.ENUM_CAP:
        hist = factors.factor_histogram(g)
        exact["f_total"] = hist.total
        exact["f_histogram"] = dict(hist.counts)
    if n % 2 == 0 and n <= factors.MATCHING_CAP:
        exact["m"] = factors.perfect_matching_count(g)

    vdw = permanent.vdw_lower(n, d).value
    bounds = {
        "vdw_lower": vdw,
        "bregman_upper": permanent.bregman_bound(g.degrees).value,
        "regular_upper": permanent.regular_upper(n, d).value,
        "theorem_estimate": vdw,  # n! (d/n)^n, the target count in log domain
    }
    if n % 2 == 0:
        bounds["alon_friedland_upper"] = permanent.alon_friedland_upper(n, d).value

    # exact integer checks: each upper bound, raised to d or 2d, is (d!)^n
    top = math.factorial(d) ** n
    if "permanent" in exact:
        ok["vdw_le_per"] = exact["permanent"] * n**n >= math.factorial(n) * d**n
        ok["per_le_bregman"] = exact["permanent"] ** d <= top
    if "h" in exact:
        ok["h_le_regular_upper"] = exact["h"] ** d <= top
        if "f_total" in exact:
            ok["h_le_f"] = exact["h"] <= exact["f_total"]
    if "m" in exact:
        ok["m_le_alon_friedland"] = exact["m"] ** (2 * d) <= top
        if "h" in exact:
            ok["h_le_binom_m_2"] = exact["h"] <= exact["m"] * (exact["m"] - 1) // 2

    normalized = {
        "d_over_e": d / math.e,
        "target_root": math.exp(vdw / n),  # (n!)^(1/n) * d/n
    }
    if exact.get("h", 0) > 0:
        normalized["h_root"] = exact["h"] ** (1.0 / n)
        normalized["h_root_over_target_root"] = (
            normalized["h_root"] / normalized["target_root"]
        )
    return BoundsReport(
        n=n, d=d, lam=cert.lam, exact=exact, bounds=bounds, normalized=normalized, ok=ok
    )


# ---------------------------------------------------------------------------
# random-graph baselines


def janson_expectation_gnp(n, p):
    """log E[#Hamilton cycles] in G(n,p): log((n-1)!/2) + n log p."""
    if not is_int(n) or n < 3 or not is_real(p) or not 0 < p <= 1:
        raise InvalidParameters("janson_expectation_gnp: integer n >= 3, number 0 < p <= 1 required")
    return math.lgamma(n) - math.log(2) + n * math.log(p)


def janson_expectation_gnm(n, m):
    """log E[#Hamilton cycles] in G(n,m).

    Returns (value, is_zero); m < n means no Hamilton cycle fits and the
    expectation is exactly zero.
    """
    if not is_int(n) or n < 3:
        raise InvalidParameters("janson_expectation_gnm: integer n >= 3 required")
    big_n = n * (n - 1) // 2
    if not is_int(m) or not 0 <= m <= big_n:
        raise InvalidParameters("janson_expectation_gnm: integer m with 0 <= m <= C(n,2) required")
    if m < n:
        return -math.inf, True
    value = (
        math.lgamma(n)
        - math.log(2)
        + _log_binom(big_n - n, m - n)
        - _log_binom(big_n, m)
    )
    return value, False


def sample_gnp(n, p, rng):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return from_edges(n, edges)


def monte_carlo_gnp(n, p, trials, seed=0):
    """Empirical mean Hamilton-cycle count over G(n,p) samples versus the
    closed-form expectation.

    Per-trial RNG streams are derived from (seed, trial index), so the
    result is independent of evaluation order; ``seed`` is a non-negative
    int.
    """
    check_seed(seed, "monte_carlo_gnp: seed")
    if not is_int(n) or n < 3:
        raise InvalidParameters("monte_carlo_gnp: integer n >= 3 required")
    check_cap(n, 14, "monte_carlo_gnp")
    if not is_int(trials) or trials < 1 or not is_real(p) or not 0 <= p <= 1:
        raise InvalidParameters("monte_carlo_gnp: integer trials >= 1 and number 0 <= p <= 1 required")
    total = 0
    for t in range(trials):
        rng = random.Random((seed << 32) ^ t)
        total += factors.hamilton_count_exact(sample_gnp(n, p, rng))
    mean = total / trials
    expectation = 0.0 if p == 0 else math.exp(janson_expectation_gnp(n, p))
    ratio = mean / expectation if expectation > 0 else (math.inf if mean else math.nan)
    return {"empirical_mean": mean, "expectation": expectation, "ratio": ratio}


def theorem_trend(ns=range(10, 21, 2), ds=(4, 6), seed=0):
    """Trend table for the main counting estimate: h(G)^(1/n) against
    (n!)^(1/n) d/n over random regular graphs.  Diagnostic only; there is
    no finite-n pass/fail."""
    check_seed(seed, "theorem_trend: seed")
    ns, ds = tuple(ns), tuple(ds)
    if not all(map(is_int, ns + ds)):
        raise InvalidParameters("theorem_trend: integer n and d required")
    rows = []
    for d in ds:
        for n in ns:
            if (n * d) % 2:
                continue
            # small dense cases make the configuration model reject nearly
            # every pairing; advance deterministically to a working seed
            for s in range(seed, seed + 50):
                try:
                    g = random_regular(n, d, s)
                    break
                except GenerationTimeout:
                    continue
            else:
                continue
            h = factors.hamilton_count_exact(g)
            target_root = math.exp((math.lgamma(n + 1) + n * math.log(d / n)) / n)
            h_root = h ** (1.0 / n) if h > 0 else 0.0
            rows.append(
                {
                    "n": n,
                    "d": d,
                    "h": str(h),
                    "h_root": h_root,
                    "target_root": target_root,
                    "gap": h_root / target_root if target_root else math.nan,
                }
            )
    return rows
