import math

import numpy as np
import pytest

import ndlham as nh
from ndlham.errors import InvalidParameters, NotRegular, TooLarge
from conftest import induced, induced_phi, set_bits

SLACK = 1e-9  # float slack on each log-domain or lambda inequality


def test_bounds_report_k4():
    rep = nh.bounds_report(nh.complete(4))
    assert rep.exact["permanent"] == 9
    assert rep.exact["h"] == 3
    assert math.exp(rep.bounds["vdw_lower"]) == pytest.approx(7.59375, rel=1e-9)
    assert math.exp(rep.bounds["regular_upper"]) == pytest.approx(10.9027, abs=1e-3)
    assert rep.all_ok


def test_bounds_report_k6():
    rep = nh.bounds_report(nh.complete(6))
    assert rep.exact["h"] == 60
    assert rep.exact["permanent"] == 265
    assert math.exp(rep.bounds["regular_upper"]) == pytest.approx(120 ** 1.2, rel=1e-9)
    assert math.exp(rep.bounds["vdw_lower"]) == pytest.approx(720 * (5 / 6) ** 6, rel=1e-9)
    assert rep.all_ok


@pytest.mark.parametrize("k", [4, 6])
def test_bounds_report_bregman_equality(k):
    # K_{k,k}: per = (k!)^2 and m = k! meet their upper bounds exactly, and
    # log(per) exceeds the float Bregman bound by a rounding error
    g = nh.from_edges(2 * k, [(i, k + j) for i in range(k) for j in range(k)])
    rep = nh.bounds_report(g)
    assert rep.exact["permanent"] == math.factorial(k) ** 2
    assert rep.exact["m"] == math.factorial(k)
    assert rep.ok["per_le_bregman"] and rep.ok["m_le_alon_friedland"]
    assert rep.all_ok


def test_bounds_report_petersen():
    rep = nh.bounds_report(nh.petersen())
    assert rep.exact["h"] == 0
    assert rep.exact["m"] == 6
    assert rep.all_ok  # 0 <= every upper bound


def test_bounds_report_past_enum_cap():
    g = nh.random_regular(18, 4, 0)
    assert g.n > nh.factors.ENUM_CAP
    rep = nh.bounds_report(g)
    assert {"permanent", "h", "m"} <= rep.exact.keys()
    assert not {"f_total", "f_histogram"} & rep.exact.keys()
    assert "h_le_f" not in rep.ok
    assert rep.ok and all(rep.ok.values())


def test_bounds_report_rejects_irregular():
    with pytest.raises(NotRegular):
        nh.bounds_report(nh.from_edges(3, [(0, 1), (1, 2)]))


def test_bounds_report_corpus(corpus):
    for name, g in corpus:
        if g.n > 14:
            continue
        assert nh.bounds_report(g).all_ok, name


def test_tail_diagnostics_k4():
    diag = nh.tail_diagnostics(nh.complete(4))
    assert diag.s_star == pytest.approx(80 / math.log(3) ** 2, rel=1e-12)
    assert diag.s_star > 2
    assert diag.tail_empty
    assert diag.head_weight == 6


def test_tail_diagnostics_c6():
    diag = nh.tail_diagnostics(nh.cycle(6))
    assert diag.head_weight == 3
    assert diag.tail_weight == 0


def test_tail_partition_identity(corpus):
    for name, g in corpus:
        if g.n > 14:
            continue
        diag = nh.tail_diagnostics(g)
        per = nh.permanent_exact(nh.adjacency_matrix_of(g))
        assert diag.head_weighted + diag.tail_weight == per, name
        assert diag.tail_weight >= 0, name


def removed_set_chain(g, t):
    """The induced-permanent chain for a worst removed set U of t vertices:
    V0 = V \\ U is the first (n - t)-subset with the most 2-factors.  The
    edges inside U and from U to V0 are counted on the bitset rows, and
    each inequality of the chain is given by name in ``ok``."""
    cert = nh.certify(g)
    n, d, lam, k = g.n, cert.d, cert.lam, g.n - t
    best, kept = induced_phi(g, k)
    inside = sum(1 << v for v in kept)
    removed = ((1 << n) - 1) ^ inside
    e_v0 = sum((g.rows[v] & removed).bit_count() for v in set_bits(removed)) // 2
    e_v0_bound = t * t / 2.0 * d / n + lam * t
    e_cross = sum((g.rows[v] & inside).bit_count() for v in set_bits(removed))
    sub = induced(g, kept)
    per_a1 = nh.permanent_exact(nh.adjacency_matrix_of(sub))
    log_per = math.log(per_a1) if per_a1 else -math.inf
    bregman = nh.bregman_bound(sub.degrees)
    d1 = d * (1 - t / n) + 2 * lam * t / (n - t)
    ok = {
        "e_v0_le_bound": e_v0 <= e_v0_bound + SLACK,
        "e_cross_ge_lower": e_cross >= d * t - d * t * t / n - 2 * lam * t - SLACK,
        "phi_le_per_a1": best <= per_a1,
        "per_a1_le_bregman_rows": log_per <= bregman.value + SLACK or bregman.is_zero and per_a1 == 0,
    }
    if math.floor(d1) >= 1:
        d1_bound = k / math.floor(d1) * math.lgamma(math.ceil(d1) + 1)
        ok["per_a1_le_d1_bound"] = log_per <= d1_bound + SLACK
    return {"removed": set_bits(removed), "phi": best, "e_v0": e_v0, "e_v0_bound": e_v0_bound,
            "e_cross": e_cross, "d1": d1, "per_a1": per_a1, "ok": ok}


def test_phi_estimate_k4():
    rep = removed_set_chain(nh.complete(4), 1)
    assert rep["e_v0"] == 0
    assert rep["e_v0_bound"] == pytest.approx(0.5 * 0.75 + 1.0)
    assert rep["d1"] == pytest.approx(3 * 0.75 + 2 / 3, rel=1e-9)
    assert rep["per_a1"] == 2
    assert all(rep["ok"].values())


def test_phi_estimate_base_case():
    rep = removed_set_chain(nh.complete(4), 2)
    assert rep["per_a1"] == 1  # single edge
    assert all(rep["ok"].values())


def test_phi_estimate_corpus(corpus):
    for name, g in corpus:
        if g.n > 10:
            continue
        for t in (1, 2):
            if t > g.n - 2:
                continue
            rep = removed_set_chain(g, t)
            assert all(rep["ok"].values()), (name, t, rep["ok"])
            assert rep["phi"] == nh.phi(g, g.n - t), (name, t)
            removed = set(rep["removed"])
            inside = [(u, v) for u, v in g.edges() if u in removed and v in removed]
            cross = [(u, v) for u, v in g.edges() if (u in removed) != (v in removed)]
            assert (rep["e_v0"], rep["e_cross"]) == (len(inside), len(cross)), (name, t)


def test_janson_gnp():
    assert math.exp(nh.janson_expectation_gnp(4, 1.0)) == pytest.approx(3.0)
    assert math.exp(nh.janson_expectation_gnp(3, 1.0)) == pytest.approx(1.0)
    assert math.exp(nh.janson_expectation_gnp(5, 0.5)) == pytest.approx(0.375)
    for n in (4, 6, 9):
        assert nh.janson_expectation_gnp(n, 1.0) == pytest.approx(
            math.log(math.factorial(n - 1) / 2)
        )


def test_janson_gnm():
    value, is_zero = nh.janson_expectation_gnm(4, 6)
    assert not is_zero
    assert math.exp(value) == pytest.approx(3.0, rel=1e-9)
    value, is_zero = nh.janson_expectation_gnm(5, 5)
    assert math.exp(value) == pytest.approx(12 / 252, rel=1e-9)
    _, is_zero = nh.janson_expectation_gnm(5, 4)
    assert is_zero
    with pytest.raises(InvalidParameters):
        nh.janson_expectation_gnm(5, 11)


def test_monte_carlo_degenerate():
    res = nh.monte_carlo_gnp(4, 1.0, trials=5, seed=0)
    assert res["empirical_mean"] == 3
    assert res["ratio"] == pytest.approx(1.0)
    res = nh.monte_carlo_gnp(5, 0.0, trials=5, seed=0)
    assert res["empirical_mean"] == 0


def test_monte_carlo_converges():
    res = nh.monte_carlo_gnp(8, 0.5, trials=2000, seed=1)
    assert 0.8 <= res["ratio"] <= 1.25


def test_monte_carlo_cap():
    with pytest.raises(TooLarge, match="exceeds size cap 14"):
        nh.monte_carlo_gnp(15, 0.5, trials=1, seed=0)


def test_monte_carlo_deterministic():
    a = nh.monte_carlo_gnp(7, 0.6, trials=50, seed=3)
    b = nh.monte_carlo_gnp(7, 0.6, trials=50, seed=3)
    assert a == b


def test_theorem_trend_shape():
    rows = nh.theorem_trend(ns=(10, 12), ds=(4,), seed=0)
    assert len(rows) == 2
    for row in rows:
        assert 0 < row["gap"] < 2


def test_negative_seed_rejected():
    # random.Random takes abs(seed): seed -1 would silently repeat seed 1
    for call in (
        lambda: nh.random_regular(10, 3, -1),
        lambda: nh.monte_carlo_gnp(6, 0.5, trials=3, seed=-1),
        lambda: nh.theorem_trend(ns=(10,), ds=(4,), seed=-1),
        lambda: nh.random_regular(10, 3, 1.5),
    ):
        with pytest.raises(InvalidParameters, match="seed"):
            call()


# each call takes its integer argument as x; a bool would otherwise act as 0 or 1
INTEGER_ARGUMENTS = {
    "monte_carlo_gnp": lambda x: nh.monte_carlo_gnp(6, 0.5, x),
    "phi": lambda x: nh.phi(nh.complete(4), x),
}


@pytest.mark.parametrize("value", [2.0, 1.5, True, "2"])
@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_integer_argument_rejects_non_integer(name, value):
    with pytest.raises(InvalidParameters, match="integer"):
        INTEGER_ARGUMENTS[name](value)
    INTEGER_ARGUMENTS[name](np.int64(2))  # an integer of another type is accepted


# a number argument of the wrong type is refused as InvalidParameters, not
# computed with or left to escape as TypeError: each call and its message
NUMBER_ARGUMENTS = {
    "janson_expectation_gnp n": (lambda: nh.janson_expectation_gnp(6.5, 0.5), "integer n"),
    "janson_expectation_gnm m": (lambda: nh.janson_expectation_gnm(6, 9.5), "integer m"),
    "janson_expectation_gnm n": (lambda: nh.janson_expectation_gnm(6.0, 9), "integer n"),
    "monte_carlo_gnp n": (lambda: nh.monte_carlo_gnp(6.5, 0.5, 2), "integer n"),
    "theorem_trend ns": (lambda: nh.theorem_trend(ns=(10.0,)), "integer n and d"),
    "theorem_trend ds": (lambda: nh.theorem_trend(ns=(10,), ds=(True,)), "integer n and d"),
    "complete": (lambda: nh.complete(4.0), "integer n"),
    "cycle": (lambda: nh.cycle(5.0), "integer n"),
    "paley": (lambda: nh.paley(13.0), "integer prime"),
    "circulant n": (lambda: nh.circulant(6.0, (1,)), "integer n"),
    "circulant connection set": (lambda: nh.circulant(6, (1.0,)), "integers within"),
    "random_regular n": (lambda: nh.random_regular(10.0, 3, 0), "integers 2 <= d < n"),
    "random_regular d": (lambda: nh.random_regular(10, "3", 0), "integers 2 <= d < n"),
    "merge_budget bool": (lambda: nh.hamiltonize.merge_budget(10, 3, 1.0, True), "must be a number"),
    "merge_budget str": (lambda: nh.hamiltonize.merge_budget(10, 3, 1.0, "10"), "must be a number"),
    "janson_expectation_gnp p bool": (lambda: nh.janson_expectation_gnp(6, True), "number 0 < p"),
    "janson_expectation_gnp p str": (lambda: nh.janson_expectation_gnp(6, "0.5"), "number 0 < p"),
    "monte_carlo_gnp p bool": (lambda: nh.monte_carlo_gnp(6, True, 2), "number 0 <= p"),
    "monte_carlo_gnp p str": (lambda: nh.monte_carlo_gnp(6, "0.5", 2), "number 0 <= p"),
    "certify epsilon bool": (lambda: nh.certify(nh.petersen(), True), "must be a number"),
    "certify epsilon str": (lambda: nh.certify(nh.petersen(), "0.1"), "must be a number"),
}


@pytest.mark.parametrize("name", sorted(NUMBER_ARGUMENTS))
def test_number_argument_of_wrong_type_refused(name):
    call, match = NUMBER_ARGUMENTS[name]
    with pytest.raises(InvalidParameters, match=match):
        call()


# a raise that no other test reaches: each call, its exception type and message
_IRREGULAR = nh.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
GUARDS = {
    "certify n": (lambda: nh.certify(nh.from_edges(2, [(0, 1)])),
                  InvalidParameters, "certify: n >= 3 required"),
    "ZeroOneMatrix width": (lambda: nh.ZeroOneMatrix(2, (0b100, 0)),
                            InvalidParameters, "rows must be n bitsets of width n"),
    "bregman_bound": (lambda: nh.bregman_bound([2, -1]),
                      InvalidParameters, "bregman_bound: negative row sum"),
    "vdw_lower": (lambda: nh.vdw_lower(3, 4), InvalidParameters, "vdw_lower: 1 <= d <= n required"),
    "regular_upper": (lambda: nh.regular_upper(3, 0),
                      InvalidParameters, "regular_upper: d >= 1 required"),
    "alon_friedland_upper": (lambda: nh.alon_friedland_upper(4, 0),
                             InvalidParameters, "alon_friedland_upper: d >= 1 required"),
    "tail_diagnostics": (lambda: nh.tail_diagnostics(_IRREGULAR),
                         NotRegular, "tail_diagnostics: graph is not regular"),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_guard_raises(name):
    call, kind, message = GUARDS[name]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind
    assert str(err.value) == message


def _refused(build):
    with pytest.raises(InvalidParameters) as err:
        build()
    return str(err.value)


@pytest.mark.parametrize("run, want", [
    (lambda: nh.hamilton_count_exact(nh.from_edges(2, [(0, 1)])), 0),
    (lambda: _refused(lambda: nh.paley(1)),
     "paley: q must be an integer prime congruent to 1 mod 4"),
    (lambda: nh.theorem_trend(ns=(11,), ds=(3,)), []),
], ids=["hamilton-n2", "paley-1", "trend-odd-nd"])
def test_small_edge_cases(run, want):
    # statements no other test runs: h = 0 below 3 vertices, is_prime(q < 2),
    # and the trend's skip of an odd n*d
    assert run() == want
