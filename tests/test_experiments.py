import math

import pytest

import ndlham as nh
from ndlham.errors import InvalidParameters, NotRegular


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


def test_phi_estimate_k4():
    rep = nh.phi_estimate_report(nh.complete(4), 1)
    assert rep["e_v0"] == 0
    assert rep["e_v0_bound"] == pytest.approx(0.5 * 0.75 + 1.0)
    assert rep["d1"] == pytest.approx(3 * 0.75 + 2 / 3, rel=1e-9)
    assert rep["per_a1"] == "2"
    assert all(rep["ok"].values())


def test_phi_estimate_base_case():
    rep = nh.phi_estimate_report(nh.complete(4), 2)
    assert int(rep["per_a1"]) == 1  # single edge
    assert all(rep["ok"].values())


def test_phi_estimate_corpus(corpus):
    for name, g in corpus:
        if g.n > 10:
            continue
        for t in (1, 2):
            if t > g.n - 2:
                continue
            rep = nh.phi_estimate_report(g, t)
            assert all(rep["ok"].values()), (name, t, rep["ok"])
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
