import dataclasses
import math
import random
from collections import Counter
from itertools import chain, combinations

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


def _battery_pairs(n):
    full = list(range(n))
    pairs = [([i], [j]) for i in range(n) for j in range(n)] + [(full, full)]
    for size in range(2, (4 if n <= 16 else 2) + 1):
        pairs += [(list(s), list(s)) for s in combinations(full, size)]
    return pairs


def _sampled_pairs(n, count, seed):
    pairs = []
    for s, t in nh.mixing._sample_blocks(n, count, seed):
        pairs += [(np.flatnonzero(a).tolist(), np.flatnonzero(b).tolist()) for a, b in zip(s, t)]
    return pairs


def _scalar(adj, cert, s, t):
    e = int(adj[np.ix_(s, t)].sum())
    defect = abs(e - cert.d / cert.n * len(s) * len(t))
    bound = cert.lam * math.sqrt(len(s) * len(t))
    return e, defect, bound


def _recount(g, cert, pairs):
    """(pairs_checked, max_normalized_defect, worst_pair, violations), each
    pair counted from the adjacency matrix with the scalar float formula."""
    adj = g.adjacency_matrix()
    worst, worst_pair, violations = 0.0, ([], []), 0
    for s, t in pairs:
        _, defect, bound = _scalar(adj, cert, s, t)
        if bound > 0:
            norm = defect / bound
        else:
            norm = 0.0 if defect <= nh.mixing.DEFECT_TOL else math.inf
        if norm > worst:
            worst, worst_pair = norm, (s, t)
        violations += defect > bound + nh.mixing.DEFECT_TOL
    return len(pairs), worst, worst_pair, violations


def _fields(rep):
    return rep.pairs_checked, rep.max_normalized_defect, rep.worst_pair, rep.violations


def test_verify_mixing_matches_adjacency_recount():
    # rr(20,4) runs the |S| = 2 battery, paley(13) the |S| <= 4 one
    for g, samples, seed in ((nh.random_regular(20, 4, 0), 500, 3), (nh.paley(13), 1500, 8)):
        cert = nh.certify(g)
        rep = nh.verify_mixing(g, cert, sample_count=samples, seed=seed)
        pairs = _battery_pairs(g.n) + _sampled_pairs(g.n, samples, seed)
        assert _fields(rep) == _recount(g, cert, pairs)
        # every pair, its defect and its bound, bit for bit, whether read
        # from A or computed by the kernel
        adj = g.adjacency_matrix()
        blocks = nh.mixing._pair_blocks(adj, cert, samples, seed)
        got = [
            (pair(i), (float(d), float(b)))
            for defect, bound, pair in blocks
            for i, (d, b) in enumerate(zip(defect, np.broadcast_to(bound, defect.shape)))
        ]
        assert got == [((s, t), _scalar(adj, cert, s, t)[1:]) for s, t in pairs]
        blocks = chain([(np.ones((1, g.n)),) * 2], nh.mixing._sample_blocks(g.n, samples, seed))
        kernel = [row for s, t in blocks for row in zip(*nh.mixing._defects(adj, cert, s, t))]
        assert kernel == [_scalar(adj, cert, s, t) for s, t in pairs[g.n**2 : g.n**2 + 1] + pairs[-samples:]]
        for s, t in pairs[:: len(pairs) // 50]:
            assert nh.mixing_defect(g, cert, s, t) == _scalar(adj, cert, s, t)


def test_verify_mixing_zero_bound():
    empty = nh.graph.from_edges(4, [])
    cert = nh.certify(empty)
    assert cert.lam == 0
    rep = nh.verify_mixing(empty, cert, sample_count=50, seed=0)
    assert (rep.max_normalized_defect, rep.worst_pair, rep.violations) == (0.0, ([], []), 0)

    pet = nh.petersen()
    zero = dataclasses.replace(nh.certify(pet), lam=0.0)
    rep = nh.verify_mixing(pet, zero, sample_count=50, seed=0)
    assert rep.max_normalized_defect == math.inf
    pairs = _battery_pairs(10) + _sampled_pairs(10, 50, 0)
    assert _fields(rep) == _recount(pet, zero, pairs)


def test_sampler_sizes_and_subsets_uniform():
    # n = 4: each size has probability 1/4 and each k-subset 1/(4 C(4,k));
    # 4800 pairs span several blocks
    n, count = 4, 4800
    pairs = _sampled_pairs(n, count, 1)
    assert len(pairs) == count
    freq = Counter(tuple(s) for pair in pairs for s in pair)
    assert len(freq) == 2**n - 1
    for subset, seen in freq.items():
        expected = 2 * count / (n * math.comb(n, len(subset)))
        assert abs(seen - expected) < 0.25 * expected, (subset, seen, expected)


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_sampler_block_sizes(delta):
    # a count just below, at and just above one block; the sizes are
    # replayed from the same generator: per block |S| and |T|, then the
    # keys of S and of T
    n, seed = 12, 4
    block = nh.mixing._BLOCK
    count = block + delta
    rng = np.random.default_rng(seed)
    rows = 0
    for s, t in nh.mixing._sample_blocks(n, count, seed):
        k = len(s)
        assert k == min(block, count - rows)
        sizes = rng.integers(1, n + 1, size=(2, k))
        rng.random((2, k, n))
        for got, want in zip((s, t), sizes):
            assert set(np.unique(got)) <= {0.0, 1.0}
            assert got.sum(axis=1).tolist() == want.tolist()
        rows += k
    assert rows == count
    g = nh.random_regular(n, 4, 0)
    rep = nh.verify_mixing(g, nh.certify(g), sample_count=count, seed=seed)
    assert rep.pairs_checked == len(_battery_pairs(n)) + count


def test_sampler_threshold_tie_redrawn():
    # row 0 ties at its threshold (the 3rd and 4th smallest keys are 0.5),
    # row 1 ties only below it, row 2 takes every column, row 3 ties at
    # |S| = 1
    keys = np.array([
        [0.5, 0.1, 0.5, 0.9, 0.3, 0.7],
        [0.2, 0.2, 0.4, 0.6, 0.8, 0.9],
        [0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
        [0.3, 0.3, 0.6, 0.7, 0.8, 0.9],
    ])
    sizes = np.array([3, 3, 6, 1])
    given = keys.copy()
    out = np.empty_like(keys)
    nh.mixing._subsets(np.random.default_rng(0), sizes, keys, np.empty_like(keys), out)
    assert out.sum(axis=1).tolist() == sizes.tolist()
    assert out[1].tolist() == [1, 1, 1, 0, 0, 0] and out[2].tolist() == [1] * 6
    assert (keys[[1, 2]] == given[[1, 2]]).all()
    assert (keys[[0, 3]] != given[[0, 3]]).all(axis=1).all()  # redrawn


def test_verify_mixing_rejects_bad_seed():
    g = nh.petersen()
    cert = nh.certify(g)
    for seed in (-1, 1.5, "0"):
        with pytest.raises(InvalidParameters, match="seed"):
            nh.verify_mixing(g, cert, sample_count=10, seed=seed)


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


def test_certificate_of_another_graph_rejected():
    g, other = nh.random_regular(20, 4, 0), nh.random_regular(24, 6, 0)
    cert = nh.certify(other)
    with pytest.raises(InvalidParameters, match="certificate is for n=24, graph has n=20"):
        nh.verify_mixing(g, cert, sample_count=10, seed=0)
    with pytest.raises(InvalidParameters, match="certificate is for n=24"):
        nh.mixing_defect(g, cert, [0], [1])
    with pytest.raises(InvalidParameters, match="certificate is for n=24"):
        nh.expansion_check(g, cert, [0])
    with pytest.raises(InvalidParameters, match="certificate is for n=24"):
        nh.large_sets_edge(g, cert, list(range(10)), list(range(10, 20)))
    g16 = nh.random_regular(16, 4, 0)  # small enough to enumerate its 2-factors
    f = nh.enumerate_two_factors(g16)[0]
    with pytest.raises(InvalidParameters, match="certificate is for n=24, graph has n=16"):
        nh.two_factor_to_hamilton(g16, f, cert)


def test_report_json():
    g = nh.petersen()
    rep = nh.verify_mixing(g, nh.certify(g), sample_count=10, seed=1)
    d = rep.to_json_dict()
    assert set(d) == {"pairs_checked", "max_normalized_defect", "worst_pair", "violations"}
    # 100 singleton pairs, the full pair, all (S,S) with 2 <= |S| <= 4, 10 samples
    assert d["pairs_checked"] == 100 + 1 + 45 + 120 + 210 + 10
