import dataclasses
import math
import random
from itertools import combinations

import numpy as np
import pytest

import ndlham as nh
from ndlham.errors import InvalidParameters


def test_edge_count_examples():
    k4 = nh.complete(4)
    assert nh.edge_count(k4, [0, 1], [2, 3]) == 4
    assert nh.edge_count(k4, [0, 1, 2], [0, 1, 2]) == 6  # 2 * e(S)
    assert nh.edge_count(nh.cycle(5), [0], [1, 2]) == 1


def test_edge_count_symmetry_and_total(corpus):
    rng = random.Random(3)
    for name, g in corpus[:8]:
        full = list(range(g.n))
        assert nh.edge_count(g, full, full) == 2 * g.edge_count, name
        s = rng.sample(full, max(1, g.n // 2))
        t = rng.sample(full, max(1, g.n // 3))
        assert nh.edge_count(g, s, t) == nh.edge_count(g, t, s), name


def test_edge_count_monotone():
    g = nh.petersen()
    t = [5, 6, 7]
    prev = 0
    s = []
    for v in range(5):
        s.append(v)
        cur = nh.edge_count(g, s, t)
        assert cur >= prev
        prev = cur


def test_mixing_defect_k4():
    k4 = nh.complete(4)
    cert = nh.certify(k4)
    e, defect, bound = nh.mixing_defect(k4, cert, [0, 1], [2, 3])
    assert e == 4
    assert defect == pytest.approx(1.0)
    assert bound == pytest.approx(2.0)


def test_mixing_defect_full_sets_complete():
    for n in (4, 5, 6):
        g = nh.complete(n)
        cert = nh.certify(g)
        full = list(range(n))
        e, defect, _ = nh.mixing_defect(g, cert, full, full)
        assert e == n * (n - 1)
        assert defect == pytest.approx(0.0, abs=1e-9)


def test_verify_mixing_clean(corpus):
    for name, g in corpus:
        cert = nh.certify(g)
        rep = nh.verify_mixing(g, cert, sample_count=100, seed=11)
        assert rep.violations == 0, name


def test_verify_mixing_matches_adjacency_recount():
    g = nh.random_regular(20, 4, 0)
    cert = nh.certify(g)
    rep = nh.verify_mixing(g, cert, sample_count=500, seed=3)
    # the same pairs, drawn with the same calls, counted from the matrix
    adj = g.adjacency_matrix()
    rng = random.Random(3)
    full = list(range(20))
    pairs = [([i], [j]) for i in range(20) for j in range(20)] + [(full, full)]
    pairs += [(list(s), list(s)) for s in combinations(full, 2)]
    for _ in range(500):
        ks = rng.randint(1, 20)
        kt = rng.randint(1, 20)
        pairs.append((rng.sample(full, ks), rng.sample(full, kt)))
    worst, worst_pair, violations = 0.0, ([], []), 0
    for s, t in pairs:
        e = int(adj[np.ix_(s, t)].sum())
        defect = abs(e - cert.d / cert.n * len(s) * len(t))
        bound = cert.lam * math.sqrt(len(s) * len(t))
        if defect / bound > worst:
            worst, worst_pair = defect / bound, (s, t)
        violations += defect > bound + nh.mixing.DEFECT_TOL
    assert rep.pairs_checked == len(pairs)
    assert rep.violations == violations
    assert rep.max_normalized_defect == worst
    assert rep.worst_pair == worst_pair


def test_verify_mixing_negative_control():
    pet = nh.petersen()
    cert = nh.certify(pet)
    lied = dataclasses.replace(cert, lam=1.0)
    rep = nh.verify_mixing(pet, lied, sample_count=200, seed=0)
    assert rep.violations > 0
    # exhaustive confirmation that a genuinely violating pair exists:
    # independent 4-sets have e(S,S) = 0 but expectation 4.8 > bound 4
    found = False
    for a in range(1, 5):
        for s in combinations(range(10), a):
            e, defect, bound = nh.mixing_defect(pet, lied, list(s), list(s))
            if defect > bound + 1e-9:
                found = True
    assert found


def test_expansion_check():
    k4 = nh.complete(4)
    cert = nh.certify(k4)
    _, _, applicable = nh.expansion_check(k4, cert, [0])
    assert not applicable  # lam^2 n / d^2 = 4/9 < 1

    p13 = nh.paley(13)
    cert = nh.certify(p13)
    observed, required, applicable = nh.expansion_check(p13, cert, [0])
    assert applicable
    assert observed == 6
    assert required == pytest.approx((6 - 2 * cert.lam) ** 2 / (3 * cert.lam**2), rel=1e-9)
    assert observed >= required


def test_expansion_holds_when_applicable(corpus):
    for name, g in corpus:
        cert = nh.certify(g)
        for v in range(g.n):
            observed, required, applicable = nh.expansion_check(g, cert, [v])
            if applicable:
                assert observed >= required - 1e-9, name


def test_large_sets_edge():
    k4 = nh.complete(4)
    cert = nh.certify(k4)
    assert nh.large_sets_edge(k4, cert, [0, 1], [2, 3])

    p13 = nh.paley(13)
    cert13 = nh.certify(p13)
    rng = random.Random(5)
    for _ in range(50):
        verts = rng.sample(range(13), 10)
        assert nh.large_sets_edge(p13, cert13, verts[:5], verts[5:])
    with pytest.raises(InvalidParameters):
        nh.large_sets_edge(p13, cert13, [0], [1])
    with pytest.raises(InvalidParameters):
        nh.large_sets_edge(k4, cert, [0, 1], [1, 2])


def test_report_json():
    g = nh.petersen()
    rep = nh.verify_mixing(g, nh.certify(g), sample_count=10, seed=1)
    d = rep.to_json_dict()
    assert set(d) == {"pairs_checked", "max_normalized_defect", "worst_pair", "violations"}
    # 100 singleton pairs, the full pair, all (S,S) with 2 <= |S| <= 4, 10 samples
    assert d["pairs_checked"] == 100 + 1 + 45 + 120 + 210 + 10
