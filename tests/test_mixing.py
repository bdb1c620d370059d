import dataclasses
import math
import random
from collections import Counter
from itertools import chain, combinations

import numpy as np
import pytest

import ndlham as nh
from ndlham.errors import InvalidParameters
from conftest import resort_subsets


def _edge_count(g, s, t):
    """e(S,T) as the mixing kernel counts it: each edge with one end in S
    and the other in T, and each edge inside S ∩ T twice, so e(U,U) = 2 e(U)."""
    s, t = _row(g.n, s), _row(g.n, t)
    e, _, _ = nh.mixing._defects(g.adjacency_matrix(), nh.certify(g), s, t, s.sum(axis=1), t.sum(axis=1))
    return int(e[0])


def test_edge_count_examples():
    k4 = nh.complete(4)
    assert _edge_count(k4, [0, 1], [2, 3]) == 4
    assert _edge_count(k4, [0, 1, 2], [0, 1, 2]) == 6  # 2 * e(S)
    assert _edge_count(nh.cycle(5), [0], [1, 2]) == 1


def test_edge_count_symmetry_and_total(corpus):
    rng = random.Random(3)
    for name, g in corpus[:8]:
        full = list(range(g.n))
        assert _edge_count(g, full, full) == 2 * g.edge_count, name
        s = rng.sample(full, max(1, g.n // 2))
        t = rng.sample(full, max(1, g.n // 3))
        assert _edge_count(g, s, t) == _edge_count(g, t, s), name


def test_edge_count_monotone():
    g = nh.petersen()
    t = [5, 6, 7]
    prev = 0
    s = []
    for v in range(5):
        s.append(v)
        cur = _edge_count(g, s, t)
        assert cur >= prev
        prev = cur


def _row(n, members):
    """A one-row 0/1 membership block."""
    m = np.zeros((1, n))
    m[0, members] = 1.0
    return m


def test_defects_k4():
    k4 = nh.complete(4)
    s, t = _row(4, [0, 1]), _row(4, [2, 3])
    e, defect, bound = nh.mixing._defects(k4.adjacency_matrix(), nh.certify(k4), s, t, s.sum(axis=1), t.sum(axis=1))
    assert e.tolist() == [4]
    assert defect[0] == pytest.approx(1.0)
    assert bound[0] == pytest.approx(2.0)


def test_defects_full_sets_complete():
    for n in (4, 5, 6):
        g = nh.complete(n)
        full = _row(n, list(range(n)))
        sizes = full.sum(axis=1)
        e, defect, _ = nh.mixing._defects(g.adjacency_matrix(), nh.certify(g), full, full, sizes, sizes)
        assert e.tolist() == [n * (n - 1)]
        assert defect[0] == pytest.approx(0.0, abs=1e-9)


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
    for s, t, _, _ in nh.mixing._sample_blocks(n, count, seed):
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
        kernel = [
            row
            for s, t, *_ in blocks
            for row in zip(*nh.mixing._defects(adj, cert, s, t, s.sum(axis=1), t.sum(axis=1)))
        ]
        assert kernel == [_scalar(adj, cert, s, t) for s, t in pairs[g.n**2 : g.n**2 + 1] + pairs[-samples:]]


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
    # a count just below, at and just above one block; the draws are
    # replayed from the same generator: per block the k sizes |S| and the k
    # sizes |T|, then ceil(2kn/4) raw words, whose 16-bit quarters are the
    # keys of S's k rows and then of T's (no row of this seed ties at its
    # threshold, which the replay checks, so nothing is redrawn); the sizes
    # the block hands out are the replayed ones
    n, seed = 12, 4
    block = nh.mixing._BLOCK
    count = block + delta
    rng = np.random.default_rng(seed)
    rows = 0
    for s, t, size_s, size_t in nh.mixing._sample_blocks(n, count, seed):
        k = len(s)
        assert k == min(block, count - rows)
        sizes = rng.integers(1, n + 1, size=(2, k))
        words = rng.bit_generator.random_raw(-(-2 * k * n // 4))
        keys = words.view(np.uint16)[: 2 * k * n].reshape(2, k, n)
        assert size_s.tolist() == sizes[0].tolist() and size_t.tolist() == sizes[1].tolist()
        for got, want, key in zip((s, t), sizes, keys):
            assert got.dtype == np.float32 and set(np.unique(got)) <= {0.0, 1.0}
            assert got.sum(axis=1).tolist() == want.tolist()
            srt = np.sort(key, axis=1)
            thresh = srt[np.arange(k), want - 1]
            untied = srt[np.arange(k), np.minimum(want, n - 1)] != thresh
            assert (untied | (want == n)).all()
            assert (got == (key <= thresh[:, None])).all()
        rows += k
    assert rows == count
    g = nh.random_regular(n, 4, 0)
    rep = nh.verify_mixing(g, nh.certify(g), sample_count=count, seed=seed)
    assert rep.pairs_checked == len(_battery_pairs(n)) + count


def test_sampler_threshold_tie_redrawn():
    # row 0 ties at its threshold (the 3rd and 4th smallest keys are 5),
    # row 1 ties only below it, row 2 takes every column, row 3 ties at
    # |S| = 1
    keys = np.array([
        [5, 1, 5, 9, 3, 7],
        [2, 2, 4, 6, 8, 9],
        [5, 5, 5, 5, 5, 5],
        [3, 3, 6, 7, 8, 9],
    ], dtype=np.uint16)
    sizes = np.array([3, 3, 6, 1])
    given = keys.copy()
    out = np.empty(keys.shape)
    nh.mixing._subsets(np.random.default_rng(0), sizes, keys, np.empty_like(keys), out)
    assert out.sum(axis=1).tolist() == sizes.tolist()
    assert out[1].tolist() == [1, 1, 1, 0, 0, 0] and out[2].tolist() == [1] * 6
    assert (keys[[1, 2]] == given[[1, 2]]).all()
    assert (keys[[0, 3]] != given[[0, 3]]).all(axis=1).all()  # redrawn


def test_sampler_redraw_matches_whole_block_resort(monkeypatch):
    # keys % 5 tie at most thresholds, so rows are redrawn over several
    # rounds; sorting only the redrawn rows must give the sets, the final
    # keys and the generator state that sorting the whole block every
    # round gives
    keys_of, calls, most = nh.mixing._keys, [], 0

    def low_keys(rng, dtype, *shape):
        calls.append(shape)
        return keys_of(rng, dtype, *shape) % 5

    monkeypatch.setattr(nh.mixing, "_keys", low_keys)
    for case in range(300):
        meta = np.random.default_rng([7, case])
        n, k = int(meta.integers(2, 9)), int(meta.integers(1, 40))
        sizes = meta.integers(1, n + 1, size=k)
        dtype = (np.uint16, np.uint32)[case % 2]
        runs = []
        for subsets in (nh.mixing._subsets, resort_subsets):
            rng = np.random.default_rng(case)
            keys = nh.mixing._keys(rng, dtype, k, n)
            out = np.empty((k, n), np.float32)
            calls.clear()
            subsets(rng, sizes, keys, np.empty_like(keys), out)
            runs.append((out, keys, rng.bit_generator.random_raw(), calls[:]))
        (out, keys, word, redraws), ref = runs
        assert (out == ref[0]).all() and (keys == ref[1]).all() and (word, redraws) == ref[2:], case
        assert out.sum(axis=1).tolist() == sizes.tolist()
        most = max(most, len(redraws))
    assert most >= 4  # some block was redrawn over several rounds


def test_sampler_width_rule():
    # 16-bit keys and float32 blocks while n^2 < 2^24, 32-bit keys and
    # float64 blocks from n = 4096 on
    for n, key, block in ((4095, np.uint16, np.float32), (4096, np.uint32, np.float64)):
        assert nh.mixing._widths(n) == (key, block)
        s, t, _, _ = next(nh.mixing._sample_blocks(n, 1, 0))
        assert s.dtype == t.dtype == block


def test_defects_exact_at_float32_limit():
    # n = 4095 is the largest n with n^2 < 2^24: e(V,V) of an all-ones
    # float32 matrix is 4095^2, and every partial sum of it fits float32
    n = 4095
    full = np.ones((1, n), np.float32)
    cert = dataclasses.replace(nh.certify(nh.complete(4)), n=n, d=n)
    sizes = full.sum(axis=1)
    e, defect, bound = nh.mixing._defects(np.ones((n, n), np.float32), cert, full, full, sizes, sizes)
    assert e.dtype == np.float64 and e.tolist() == [n * n]
    assert defect.tolist() == [0.0] and bound.tolist() == [float(n)]


def test_verify_mixing_seeded_report_pinned():
    # paley(17)'s worst pair comes from the samples, so a change to which
    # pairs a seed draws changes these figures
    g = nh.paley(17)
    rep = nh.verify_mixing(g, nh.certify(g), sample_count=200, seed=0)
    assert rep.pairs_checked == 17 * 17 + 1 + 136 + 200
    assert rep.max_normalized_defect == 0.4133522151552783
    assert rep.worst_pair == ([9], [1, 10, 11, 13])
    assert rep.violations == 0


@pytest.mark.parametrize("seed, defect, worst_pair", [
    (0, 0.27684095728354213, (
        [1, 2, 3, 5, 6, 7, 9, 11, 21, 27, 29, 33, 38, 41, 44, 52, 60, 65, 69, 70, 73, 78, 80, 84, 88, 93, 95, 96],
        [1, 3, 11, 27, 35, 36, 38, 39, 41, 44, 45, 58, 62, 67, 68, 70, 78, 80, 83, 88, 95],
    )),
    (1, 0.2521676149895622, ([9, 13, 14, 17, 25, 28, 30, 34, 47, 68, 69, 74, 77, 80, 83, 84, 91, 98], [76])),
])
def test_verify_mixing_pinned_at_benchmark_scale(seed, defect, worst_pair):
    # the benchmark's paley(101) check: both worst pairs come from the
    # 20000 samples, whose 79 blocks redraw tied rows about two dozen times
    # a seed at n = 101, so these figures pin the redraw path's draws at
    # full scale
    g = nh.paley(101)
    rep = nh.verify_mixing(g, nh.certify(g), sample_count=20000, seed=seed)
    assert _fields(rep) == (101 * 101 + 1 + 5050 + 20000, defect, worst_pair, 0)


def test_verify_mixing_rejects_bad_seed():
    g = nh.petersen()
    cert = nh.certify(g)
    for seed in (-1, 1.5, "0", True):
        with pytest.raises(InvalidParameters, match="seed"):
            nh.verify_mixing(g, cert, sample_count=10, seed=seed)


def test_verify_mixing_rejects_bad_sample_count():
    g = nh.petersen()
    cert = nh.certify(g)
    for count in (0, -1, 2.5, "10", True, None):
        with pytest.raises(InvalidParameters, match="sample_count must be an integer >= 1"):
            nh.verify_mixing(g, cert, sample_count=count, seed=0)
    rep = nh.verify_mixing(g, cert, sample_count=np.int64(3), seed=0)
    assert rep.pairs_checked == 100 + 1 + 45 + 120 + 210 + 3


def test_verify_mixing_negative_control():
    pet = nh.petersen()
    cert = nh.certify(pet)
    lied = dataclasses.replace(cert, lam=1.0)
    rep = nh.verify_mixing(pet, lied, sample_count=200, seed=0)
    assert rep.violations > 0
    # exhaustive confirmation that a genuinely violating pair exists:
    # independent 4-sets have e(S,S) = 0 but expectation 4.8 > bound 4
    adj = pet.adjacency_matrix()
    found = False
    for a in range(1, 5):
        for s in combinations(range(10), a):
            e, defect, bound = _scalar(adj, lied, list(s), list(s))
            if defect > bound + 1e-9:
                found = True
    assert found


def _neighborhood_size(g, xs):
    """|N(X)|, the vertices outside X with a neighbor in X."""
    x = reach = 0
    for v in xs:
        x |= 1 << v
        reach |= g.rows[v]
    return (reach & ~x).bit_count()


def _expansion(g, cert, xs):
    """(|N(X)|, the required (d - 2 lam)^2 / (3 lam^2) |X|, whether
    |X| <= lam^2 n / d^2 makes the small-set expansion corollary apply)."""
    lam, d, n = cert.lam, cert.d, cert.n
    applicable = lam > 0 and len(xs) <= lam * lam * n / (d * d)
    required = (d - 2 * lam) ** 2 / (3 * lam * lam) * len(xs) if lam > 0 else math.inf
    return _neighborhood_size(g, xs), required, applicable


def test_expansion_check():
    k4 = nh.complete(4)
    _, _, applicable = _expansion(k4, nh.certify(k4), [0])
    assert not applicable  # lam^2 n / d^2 = 4/9 < 1

    p13 = nh.paley(13)
    cert = nh.certify(p13)
    observed, required, applicable = _expansion(p13, cert, [0])
    assert applicable
    assert observed == 6
    assert required == pytest.approx((6 - 2 * cert.lam) ** 2 / (3 * cert.lam**2), rel=1e-9)
    assert observed >= required


def test_expansion_holds_when_applicable(corpus):
    for name, g in corpus:
        cert = nh.certify(g)
        for v in range(g.n):
            observed, required, applicable = _expansion(g, cert, [v])
            if applicable:
                assert observed >= required - 1e-9, name


def _has_edge_between(g, xs, ys):
    y = sum(1 << v for v in ys)
    return any(g.rows[v] & y for v in xs)


def test_large_sets_edge(corpus):
    # disjoint X, Y with |X|, |Y| > lam n / d always have an edge between them
    k4 = nh.complete(4)
    assert _has_edge_between(k4, [0, 1], [2, 3])  # 2 > lam n / d = 4/3
    rng = random.Random(5)
    checked = 0
    for name, g in corpus + [("paley13", nh.paley(13))]:
        cert = nh.certify(g)
        size = math.floor(cert.lam * cert.n / cert.d) + 1
        if 2 * size > g.n:
            continue
        for _ in range(50):
            verts = rng.sample(range(g.n), 2 * size)
            assert _has_edge_between(g, verts[:size], verts[size:]), name
        checked += 1
    assert checked


def test_certificate_of_another_graph_rejected():
    g, other = nh.random_regular(20, 4, 0), nh.random_regular(24, 6, 0)
    cert = nh.certify(other)
    with pytest.raises(InvalidParameters, match="certificate is for n=24, graph has n=20"):
        nh.verify_mixing(g, cert, sample_count=10, seed=0)
    g16 = nh.random_regular(16, 4, 0)  # small enough to enumerate its 2-factors
    f = nh.enumerate_two_factors(g16)[0]
    with pytest.raises(InvalidParameters, match="certificate is for n=24, graph has n=16"):
        nh.two_factor_to_hamilton(g16, f, cert)
    # same n, another d: the check ran against d = 6 with 0 violations, and
    # the conversion with K14's budget
    with pytest.raises(InvalidParameters, match="verify_mixing: certificate is for d=6, graph has d=4"):
        nh.verify_mixing(g, nh.certify(nh.random_regular(20, 6, 1)), sample_count=10, seed=0)
    g14 = nh.random_regular(14, 4, 0)
    f = nh.enumerate_two_factors(g14)[0]
    with pytest.raises(InvalidParameters, match="two_factor_to_hamilton: certificate is for d=13, graph has d=4"):
        nh.two_factor_to_hamilton(g14, f, nh.certify(nh.complete(14)))


@pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0, 5.0, "x", True])
def test_malformed_lambda_rejected(lam):
    # nan and inf passed the mixing check with 0 violations, and nan, "x"
    # escaped the merge budget as bare ValueError and TypeError; d = 4 here
    g = nh.random_regular(12, 4, 0)
    bad = dataclasses.replace(nh.certify(g), lam=lam)
    f = nh.enumerate_two_factors(g)[0]
    msg = "lambda must be a number with 0 <= lambda <= d=4"
    with pytest.raises(InvalidParameters, match=f"verify_mixing: {msg}"):
        nh.verify_mixing(g, bad, sample_count=10, seed=0)
    with pytest.raises(InvalidParameters, match=f"two_factor_to_hamilton: {msg}"):
        nh.two_factor_to_hamilton(g, f, bad)
    with pytest.raises(InvalidParameters, match=f"merge_budget: {msg}"):
        nh.hamiltonize.merge_budget(12, 4, lam, 10.0)


@pytest.mark.parametrize("lam", [0.0, 4.0, 4])
def test_lambda_bounds_accepted(lam):
    # both ends of 0 <= lambda <= d, where the budget falls back to n
    g = nh.random_regular(12, 4, 0)
    cert = dataclasses.replace(nh.certify(g), lam=lam)
    nh.verify_mixing(g, cert, sample_count=10, seed=0)
    assert nh.two_factor_to_hamilton(g, nh.enumerate_two_factors(g)[0], cert).budget == 12
    assert nh.hamiltonize.merge_budget(12, 4, lam, 10.0) == 12


def test_report_json():
    g = nh.petersen()
    rep = nh.verify_mixing(g, nh.certify(g), sample_count=10, seed=1)
    d = rep.to_json_dict()
    assert set(d) == {"pairs_checked", "max_normalized_defect", "worst_pair", "violations"}
    # 100 singleton pairs, the full pair, all (S,S) with 2 <= |S| <= 4, 10 samples
    assert d["pairs_checked"] == 100 + 1 + 45 + 120 + 210 + 10
