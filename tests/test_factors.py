import math
import random
import tracemalloc

import pytest

import ndlham as nh
from ndlham.errors import InvalidParameters, TooLarge
from ndlham.factors import _hamilton_dp, is_hamilton_cycle, validate_two_factor
from conftest import (
    backtrack_two_factors,
    brute_hamilton_count,
    brute_matching_count,
    brute_two_factors,
    ie_hamilton_count,
)


@pytest.fixture(scope="module", name="oracle_factors")
def oracle_factors_fixture(corpus):
    """The plain backtracking oracle's 2-factors of the corpus graphs up to
    n = 12 (rr(12,6,0) among them) and of rr(16,4,0..1)."""
    graphs = [(name, g) for name, g in corpus if g.n <= 12]
    graphs += [(f"rr(16,4,{s})", nh.random_regular(16, 4, s)) for s in (0, 1)]
    return [(name, g, backtrack_two_factors(g)) for name, g in graphs]


def tallies(found):
    """(counts, weighted_by_s) of a list of 2-factors."""
    counts, weighted = {}, {}
    for f in found:
        s = f.num_components
        counts[s] = counts.get(s, 0) + 1
        weighted[s] = weighted.get(s, 0) + (1 << f.num_long_cycles)
    return counts, weighted


def test_k4_enumeration():
    fs = nh.enumerate_two_factors(nh.complete(4))
    assert len(fs) == 6
    cycles = [f for f in fs if f.num_components == 1]
    matchings = [f for f in fs if f.num_components == 2]
    assert len(cycles) == 3 and len(matchings) == 3
    assert all(f.num_long_cycles == 1 for f in cycles)
    assert all(f.num_long_cycles == 0 for f in matchings)


def test_c5_c3_single_factor():
    assert len(nh.enumerate_two_factors(nh.cycle(5))) == 1
    assert len(nh.enumerate_two_factors(nh.complete(3))) == 1


def test_enumeration_matches_brute_force(corpus):
    for name, g in corpus:
        if g.n > 7:
            continue
        mine = {frozenset(f.edges()) for f in nh.enumerate_two_factors(g)}
        assert mine == brute_two_factors(g), name


def test_enumeration_no_duplicates(corpus):
    for name, g in corpus:
        if g.n > 10:
            continue
        fs = nh.enumerate_two_factors(g)
        assert len({f.components for f in fs}) == len(fs), name
        for f in fs:
            validate_two_factor(g, f)


def test_enumeration_matches_backtracking_oracle(oracle_factors):
    for name, g, expected in oracle_factors:
        # the same 2-factors in the same order
        assert nh.enumerate_two_factors(g) == expected, name


def test_histogram_matches_backtracking_oracle(oracle_factors):
    cases = oracle_factors + [
        (f"K{n}", nh.complete(n), backtrack_two_factors(nh.complete(n)))
        for n in range(3, 10)
    ]
    for name, g, found in cases:
        hist = nh.factor_histogram(g)
        counts, weighted = tallies(found)
        assert hist.counts == counts, name
        assert hist.weighted_by_s == weighted, name
        assert hist.total == len(found), name


def test_factor_core_edge_cases():
    star = nh.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    path = nh.from_edges(3, [(0, 1), (1, 2)])
    k4 = nh.complete(4)
    two_k4 = nh.from_edges(8, list(k4.edges()) + [(u + 4, v + 4) for u, v in k4.edges()])
    cases = [
        (nh.from_edges(0, []), [()], {0: 1}, {0: 1}),
        (nh.complete(2), [((0, 1),)], {1: 1}, {1: 1}),
        (star, [], {}, {}),
        (path, [], {}, {}),
        (two_k4, None, {2: 9, 3: 18, 4: 9}, {2: 36, 3: 36, 4: 9}),
    ]
    for g, comps, counts, weighted in cases:
        found = nh.enumerate_two_factors(g)
        assert found == backtrack_two_factors(g)
        if comps is not None:
            assert [f.components for f in found] == comps
        hist = nh.factor_histogram(g)
        assert hist.counts == counts
        assert hist.weighted_by_s == weighted
        assert hist.total == len(found)
        assert hist.weighted_total == nh.permanent_exact(nh.adjacency_matrix_of(g))


def test_validate_two_factor_messages():
    k4 = nh.complete(4)
    c4 = nh.cycle(4)  # edges 01 12 23 30
    validate_two_factor(k4, nh.TwoFactor(((0, 1), (2, 3))))
    cases = [
        (k4, ((0, 1), (1, 2, 3)), "partition"),  # overlap
        (k4, ((0, 1, 2),), "partition"),  # missing vertex
        (k4, ((0, 1), (2, 4)), "partition"),  # out of range
        (k4, ((0, 1), (-1, 2, 3)), "partition"),  # negative
        (k4, ((0, 1, 2), (3,)), "shorter than 2"),
        (c4, ((0, 2), (1, 3)), "non-edge component"),
        (c4, ((0, 2, 1, 3),), r"non-edge \(0,2\) in component"),
        (c4, ((0, 1, 3, 2),), r"non-edge \(1,3\) in component"),
    ]
    for g, comps, msg in cases:
        with pytest.raises(InvalidParameters, match=msg):
            validate_two_factor(g, nh.TwoFactor(comps))


def test_weighted_sum_examples():
    assert nh.factor_histogram(nh.complete(4)).weighted_total == 9
    assert nh.factor_histogram(nh.cycle(5)).weighted_total == 2
    assert nh.factor_histogram(nh.cycle(4)).weighted_total == 4


def test_histogram_examples():
    assert nh.factor_histogram(nh.complete(4)).counts == {1: 3, 2: 3}
    assert nh.factor_histogram(nh.cycle(5)).counts == {1: 1}
    assert nh.factor_histogram(nh.cycle(6)).counts == {1: 1, 3: 2}


def test_histogram_consistency(corpus):
    for name, g in corpus:
        if g.n > 14:
            continue
        hist = nh.factor_histogram(g)
        assert hist.total == sum(hist.counts.values()), name
        # Glynn's formula shares no code with the 2-factor enumerator
        assert hist.weighted_total == nh.permanent_exact(nh.adjacency_matrix_of(g)), name
        assert hist.weighted_total >= hist.total, name


def test_hamilton_complete_graphs():
    for n in range(4, 9):
        assert nh.hamilton_count_exact(nh.complete(n)) == math.factorial(n - 1) // 2


def test_hamilton_cycles_and_petersen():
    for n in range(3, 11):
        assert nh.hamilton_count_exact(nh.cycle(n)) == 1
    assert nh.hamilton_count_exact(nh.petersen()) == 0


def test_hamilton_matches_brute(corpus):
    for name, g in corpus:
        if g.n > 8:
            continue
        assert nh.hamilton_count_exact(g) == brute_hamilton_count(g), name


def test_hamilton_equals_single_component_count(corpus):
    for name, g in corpus:
        if g.n > 14 or g.n < 3:
            continue
        hist = nh.factor_histogram(g)
        assert hist.counts.get(1, 0) == nh.hamilton_count_exact(g), name


def test_hamilton_dp_residues():
    # mod 3 most cells are 0 and pruned; the residues stay those of 2h
    for g in (nh.complete(7), nh.petersen(), nh.random_regular(12, 4, 5)):
        h = nh.factor_histogram(g).counts.get(1, 0)
        assert _hamilton_dp(g) == 2 * h
        for q in (3, 251):
            assert _hamilton_dp(g, q) == 2 * h % q


def test_hamilton_matches_inclusion_exclusion():
    # beyond the corpus (n <= 14) and the permutation brute force
    graphs = [nh.random_regular(18, 4, s) for s in (0, 1)]
    graphs += [nh.circulant(18, (1, 2, 3, 4)), nh.paley(17)]
    for g in graphs:
        h = ie_hamilton_count(g)
        assert nh.hamilton_count_exact(g) == h
        assert _hamilton_dp(g, 251) == 2 * h % 251


def test_hamilton_dp_empty_layers():
    # a vertex whose only neighbor is 0, or a layer with no live mask
    cases = [
        nh.from_edges(4, [(0, 1), (0, 2), (0, 3)]),  # star K_{1,3}
        nh.from_edges(4, [(0, 1), (1, 2), (2, 3)]),  # path P4
        nh.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),  # 2 K3
        nh.from_edges(4, [(1, 2), (2, 3), (1, 3)]),  # vertex 0 isolated
    ]
    for g in cases:
        h = brute_hamilton_count(g)
        assert _hamilton_dp(g) == 2 * h
        assert _hamilton_dp(g, 251) == 2 * h % 251


@pytest.mark.parametrize(
    "g, h, passes",
    [
        # 2h = 22! > 2^69, so only the CRT gives it; a cell holds up to
        # 21! > 2^63 paths, so the mod-PRIME pass must reduce its sums (below
        # n = 23 every cell is at most 20! < 2^63)
        (nh.complete(23), math.factorial(22) // 2, 2),
        # deg(0) (max degree - 1)^20 = 8 * 7^20 < 2^61: one int64 pass
        (nh.circulant(22, (1, 2, 3, 4)), 11243025019, 1),
    ],
    ids=["K23", "circulant22"],
)
def test_hamilton_pass_count(monkeypatch, g, h, passes):
    moduli = []

    def counted(graph, p=None):
        moduli.append(p)
        return _hamilton_dp(graph, p)

    monkeypatch.setattr(nh.factors, "_hamilton_dp", counted)
    assert nh.hamilton_count_exact(g) == h
    assert moduli == [None, nh.factors.PRIME][:passes]


def test_hamilton_live_state_memory():
    # the live masks need about 20 MB here, a dense two-layer table 131 MB
    g = nh.random_regular(22, 4, 0)
    tracemalloc.start()
    try:
        h = nh.hamilton_count_exact(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == 4518
    assert peak < 64 * 2**20


def test_is_hamilton_cycle():
    c5 = nh.cycle(5)
    assert is_hamilton_cycle(c5, (0, 1, 2, 3, 4))
    assert is_hamilton_cycle(c5, [2, 1, 0, 4, 3])
    assert is_hamilton_cycle(nh.complete(3), (0, 1, 2))
    for g, seq in [
        (c5, (0, 1, 2, 3, 3)),  # duplicate vertex
        (c5, (0, 1, 2, 3, -1)),  # negative vertex
        (c5, (0, -4, 2, 3, 4)),  # negative vertex, -4 = 1 mod 5
        (c5, (0, 1, 2, 3, 5)),  # out of range
        (c5, (0, 1, 7, 3, 4)),  # out of range
        (c5, (0, 1, 2, 3)),  # too short
        (c5, (0, 1, 2, 3, 4, 0)),  # too long
        (nh.complete(2), (0, 1)),  # n < 3
        (c5, (0, 2, 1, 3, 4)),  # 0-2 is no edge
        (c5, (0, 1, 2, 4, 3)),  # 2-4 is no edge
    ]:
        assert not is_hamilton_cycle(g, seq), seq


def test_matching_counts():
    assert nh.perfect_matching_count(nh.complete(4)) == 3
    assert nh.perfect_matching_count(nh.cycle(6)) == 2
    assert nh.perfect_matching_count(nh.petersen()) == 6
    with pytest.raises(InvalidParameters):
        nh.perfect_matching_count(nh.complete(5))


def test_matching_matches_brute(corpus):
    for name, g in corpus:
        if g.n % 2 or g.n > 10:
            continue
        assert nh.perfect_matching_count(g) == brute_matching_count(g), name


def test_phi_examples():
    k4 = nh.complete(4)
    assert nh.phi(k4, 4) == 6
    assert nh.phi(k4, 3) == 1
    assert nh.phi(k4, 2) == 1
    with pytest.raises(InvalidParameters):
        nh.phi(k4, 1)


def test_near_hamilton_counts():
    k4 = nh.complete(4)
    h = next(f for f in nh.enumerate_two_factors(k4) if f.num_components == 1)
    assert nh.two_factors_near_hamilton(k4, h, 0) == 1
    assert nh.two_factors_near_hamilton(k4, h, 2) <= math.comb(4, 2) * 3**4

    k5 = nh.complete(5)
    h5 = next(f for f in nh.enumerate_two_factors(k5) if f.num_components == 1)
    assert nh.two_factors_near_hamilton(k5, h5, 1) <= 5 * 4**2


def test_near_hamilton_rejects_non_cycle():
    k4 = nh.complete(4)
    matching = next(f for f in nh.enumerate_two_factors(k4) if f.num_components == 2)
    with pytest.raises(InvalidParameters):
        nh.two_factors_near_hamilton(k4, matching, 1)
    cycle = next(f for f in nh.enumerate_two_factors(k4) if f.num_components == 1)
    for k in (-1, 4):
        with pytest.raises(InvalidParameters, match="0 <= k <= 3"):
            nh.two_factors_near_hamilton(k4, cycle, k)


def test_relabel_invariance():
    rng = random.Random(13)
    g = nh.random_regular(10, 3, 4)
    h = nh.hamilton_count_exact(g)
    w = nh.factor_histogram(g).weighted_total
    m = nh.perfect_matching_count(g)
    for _ in range(3):
        perm = list(range(10))
        rng.shuffle(perm)
        gp = g.relabeled(perm)
        assert nh.hamilton_count_exact(gp) == h
        assert nh.factor_histogram(gp).weighted_total == w
        assert nh.perfect_matching_count(gp) == m


def test_caps():
    big = nh.cycle(17)
    with pytest.raises(TooLarge):
        nh.enumerate_two_factors(big)
    with pytest.raises(TooLarge):
        nh.factor_histogram(big)


def test_histogram_json():
    d = nh.factor_histogram(nh.complete(4)).to_json_dict()
    assert d == {"counts": {"1": "3", "2": "3"}, "total": "6", "weighted_total": "9"}
