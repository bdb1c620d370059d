import math
import random
import tracemalloc

import numpy as np
import pytest

import ndlham as nh
from ndlham.errors import InvalidParameters, TooLarge
from ndlham.factors import (
    _component_masks,
    _hamilton_dp,
    validate_two_factor,
)
from ndlham.permanent import PRIMES, bregman_below
from conftest import (
    backtrack_two_factors,
    brute_hamilton_count,
    brute_matching_count,
    brute_two_factors,
    complement,
    ie_hamilton_count,
    induced_phi,
    is_hamilton_cycle,
    near_hamilton_distances,
    reference_component_masks,
    relabeled,
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
        (k4, ((0, 1), (2.0, 3)), "partition"),  # not an integer
        (k4, ((0, 1), (2, 3.5)), "partition"),
        (k4, ((0, 1, 2), (3,)), "shorter than 2"),
        (k4, ((0, 1, 2, 3), ()), "shorter than 2"),
        (c4, ((0, 2), (1, 3)), "non-edge component"),
        (c4, ((0, 2, 1, 3),), r"non-edge \(0,2\) in component"),
        (c4, ((0, 1, 3, 2),), r"non-edge \(1,3\) in component"),
        # mixed faults: the partition first, then each component in order,
        # its length before its edges
        (c4, ((0, 2), (1,), (3,)), "non-edge component"),
        (c4, ((1,), (0, 2), (3,)), "shorter than 2"),
        (c4, ((0, 2), (2, 3)), "partition"),  # a non-edge and an overlap
    ]
    for g, comps, msg in cases:
        f = nh.TwoFactor(comps)
        with pytest.raises(InvalidParameters, match=msg) as want:
            validate_two_factor(g, f)
        # the rotation engine and the trace audit check the factor the same
        # way, with the same message
        cert = nh.certify(g)
        valid = nh.TwoFactor(((0, 1), (2, 3)))
        trace = nh.two_factor_to_hamilton(g, valid, cert)
        for check in (lambda: nh.two_factor_to_hamilton(g, f, cert),
                      lambda: nh.replay(g, f, trace)):
            with pytest.raises(InvalidParameters) as got:
                check()
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_validate_numpy_integer_vertices():
    g = nh.random_regular(10, 4, 2)
    for f in nh.enumerate_two_factors(g)[:40]:
        validate_two_factor(g, nh.TwoFactor(tuple(map(tuple, map(np.array, f.components)))))
    k4 = nh.complete(4)
    for comps, msg in [(((0, 1), (2, 4)), "partition"), (((0, 1), (2.0, 3)), "partition"),
                       (((0, 1, 2, 3),), None)]:
        f = nh.TwoFactor(tuple(tuple(np.array(c)) for c in comps))
        if msg is None:
            validate_two_factor(k4, f)
        else:
            with pytest.raises(InvalidParameters, match=msg):
                validate_two_factor(k4, f)


def _mutated(g, comps, rng):
    """``comps`` changed once at random: a component reversed, shuffled,
    merged with the next, split in two (at a point, or into its even and
    odd positions) or an empty one inserted, or one vertex replaced by -1,
    n, 2.0, "x", None, True, np.True_ or its np.int64, or every vertex by
    its np.int64."""
    comps = [list(c) for c in comps]
    i = rng.randrange(len(comps))
    c = comps[i]
    kind = rng.randrange(9)
    if kind == 0:
        c.reverse()
    elif kind == 1:
        rng.shuffle(c)
    elif kind == 2 and len(comps) > 1:
        c += comps.pop((i + 1) % len(comps))
    elif kind == 3 and len(c) > 1:
        k = rng.randrange(1, len(c))
        comps[i : i + 1] = [c[:k], c[k:]]
    elif kind == 4:
        comps[i : i + 1] = [c[::2], c[1::2]]
    elif kind == 5:
        comps.insert(rng.randrange(len(comps) + 1), [])
    elif c:
        j = rng.randrange(len(c))
        if kind == 6:
            c[j] = rng.choice((-1, g.n, 2.0, "x", None, True, np.True_))
        elif kind == 7:
            c[j] = np.int64(c[j]) if isinstance(c[j], int) else c[j]
        else:
            comps = [[np.int64(v) if isinstance(v, int) else v for v in c] for c in comps]
    return tuple(map(tuple, comps))


def _masks_outcome(check, g, f, have):
    """The message ``check`` raises, or the masks it returns and the rows it
    fills in ``have``."""
    try:
        out = check(g, f, have)
    except InvalidParameters as exc:
        return str(exc)
    assert all(type(m) is int for m, _ in out)
    return out, have


def test_component_masks_match_message_order_reference():
    # the one walk against a reference that checks the partition, then each
    # component's length, then its edges, with and without ``have``
    rng = random.Random(2011)
    graphs = [nh.complete(4), nh.cycle(4), nh.cycle(6), nh.petersen(),
              nh.random_regular(10, 4, 2), nh.random_regular(12, 3, 1), nh.cycle(70)]
    outcomes = []
    for g in graphs:
        if g.n <= nh.factors.ENUM_CAP:
            base = [f.components for f in nh.enumerate_two_factors(g)]
        else:
            base = [(tuple(range(g.n)),)]
        for _ in range(430):
            comps = rng.choice(base)
            for _ in range(rng.randint(1, 2)):
                comps = _mutated(g, comps, rng)
            f = nh.TwoFactor(comps)
            for fill in (False, True):
                got = _masks_outcome(_component_masks, g, f, [0] * g.n if fill else None)
                want = _masks_outcome(reference_component_masks, g, f, [0] * g.n if fill else None)
                assert got == want, (g.n, comps)
            outcomes.append(got if isinstance(got, str) else "valid")
    assert len(outcomes) == 7 * 430
    for part in ("valid", "partition", "shorter than 2", "non-edge component", "non-edge ("):
        assert any(part in got for got in outcomes), part


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


def a002137(n):
    """2-factors of K_n (OEIS A002137): a(n) = (n-1)(a(n-1) + a(n-2)) -
    C(n-1,2) a(n-3), with a(0..2) = 1, 0, 1."""
    a = [1, 0, 1]
    for m in range(3, n + 1):
        a.append((m - 1) * (a[-1] + a[-2]) - math.comb(m - 1, 2) * a[-3])
    return a[n]


def derangements(n):
    """D_n = per(J - I) by D_n = n D_(n-1) + (-1)^n."""
    d = 1
    for m in range(1, n + 1):
        d = m * d + (-1) ** m
    return d


def test_closed_form_values():
    assert [a002137(n) for n in range(7)] == [1, 0, 1, 1, 6, 22, 130]
    assert (a002137(10), a002137(12), a002137(14)) == (499_194, 60_222_844, 10_157_945_044)
    assert [derangements(n) for n in range(7)] == [1, 0, 1, 2, 9, 44, 265]


@pytest.mark.parametrize("n", range(2, 15))
def test_histogram_complete_graphs_closed_forms(n):
    hist = nh.factor_histogram(nh.complete(n))
    assert hist.total == a002137(n)
    assert hist.weighted_total == derangements(n)
    if n >= 3:
        assert hist.counts[1] == math.factorial(n - 1) // 2


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


def test_hamilton_dp_complete_graphs():
    # 2h(K_n) = (n-1)!: the join reads its second factor from the stored
    # layer for odd n and from the step's own sums for even n; n = 3 and 4
    # join straight from layer 1
    for n in range(3, 13):
        g = nh.complete(n)
        assert _hamilton_dp(g) == math.factorial(n - 1) % 2**64, n
        for q in (3, 251, PRIMES[0]):
            assert _hamilton_dp(g, q) == math.factorial(n - 1) % q, (n, q)


def test_hamilton_matches_inclusion_exclusion():
    # beyond the corpus (n <= 14) and the permutation brute force, with the
    # sparse odd n = 17
    graphs = [nh.random_regular(18, 4, s) for s in (0, 1)] + [nh.random_regular(17, 4, 0)]
    graphs += [nh.circulant(18, (1, 2, 3, 4)), nh.paley(17)]
    for g in graphs:
        h = ie_hamilton_count(g)
        assert nh.hamilton_count_exact(g) == h
        assert _hamilton_dp(g, 251) == 2 * h % 251


def test_hamilton_dense_step_matches_inclusion_exclusion():
    # complement(rr(n,4)) is (n-5)-regular: from n = 10 some endpoints, and
    # from n = 11 all, have fewer non-neighbors than neighbors and take the
    # column total less the non-neighbors' rows
    for n in (10, 11, 12, 14, 16):
        for s in (0, 1):
            g = complement(nh.random_regular(n, 4, s))
            h = ie_hamilton_count(g)
            assert nh.hamilton_count_exact(g) == h, (n, s)
            assert _hamilton_dp(g) == 2 * h % 2**64
            for q in (3, 251, PRIMES[0]):
                assert _hamilton_dp(g, q) == 2 * h % q, (n, s, q)


def test_hamilton_dp_empty_layers():
    # a vertex whose only neighbor is 0, or a layer with no live mask
    cases = [
        nh.from_edges(4, [(0, 1), (0, 2), (0, 3)]),  # star K_{1,3}
        nh.from_edges(4, [(0, 1), (1, 2), (2, 3)]),  # path P4
        nh.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),  # 2 K3
        nh.from_edges(4, [(1, 2), (2, 3), (1, 3)]),  # vertex 0 isolated
        nh.cycle(5),  # C5: one cycle, odd n
        nh.complete(3),  # the triangle, joined straight from layer 1
    ]
    for g in cases:
        h = brute_hamilton_count(g)
        assert _hamilton_dp(g) == 2 * h
        assert _hamilton_dp(g, 251) == 2 * h % 251


def test_bregman_below_2_64():
    m = 1 << 64
    # (17!)^(22/17) is 2^62.55, (18!)^(22/18) 2^64.18
    assert bregman_below([17] * 22, m) and not bregman_below([18] * 22, m)
    # three 17s and nineteen 18s give 2^63.96 (L = 306), two and twenty
    # 2^64.03 (L = 153)
    assert bregman_below([17] * 3 + [18] * 19, m)
    assert not bregman_below([17] * 2 + [18] * 20, m)
    assert bregman_below([0, 23, 23], m)  # a zero row makes per(A) = 0
    # distinct degrees 1..23: L bits(2^64) exceeds 2^22, so no answer
    assert not bregman_below(list(range(1, 24)) + [1], m)


def test_bregman_below_a_residue_modulus():
    # permanent_exact's second modulus 2^(65-n) p at n = 20: (15!)^(20/15)
    # is 2^53.7, (19!)^(20/19) 2^59.0, and 2^45 (2^31 - 1) is 2^76
    m = (1 << 45) * PRIMES[0]
    assert bregman_below([15] * 20, m) and not bregman_below([15] * 20, 1 << 45)
    assert bregman_below([19] * 20, m) and not bregman_below([19] * 20, 1 << 58)


@pytest.mark.parametrize(
    "g, h, passes",
    [
        # 2h = 22! > 2^69, so only the CRT gives it; a cell holds up to
        # 21! > 2^63 paths, so the mod-p pass must reduce its sums (below
        # n = 23 every cell is at most 20! < 2^63)
        (nh.complete(23), math.factorial(22) // 2, 2),
        # 21! > 2^64, but Bregman (8!)^(22/8) < 2^42.1: one int64 pass
        (nh.circulant(22, (1, 2, 3, 4)), 11243025019, 1),
        # 17-regular: 21! > 2^64, but Bregman (17!)^(22/17) < 2^62.6:
        # h is what the two-pass CRT gives
        (complement(nh.random_regular(22, 4, 0)), 246102495956955897, 1),
    ],
    ids=["K23", "circulant22", "complement-rr22"],
)
def test_hamilton_pass_count(monkeypatch, g, h, passes):
    moduli = []

    def counted(graph, p=None):
        moduli.append(p)
        return _hamilton_dp(graph, p)

    monkeypatch.setattr(nh.factors, "_hamilton_dp", counted)
    assert nh.hamilton_count_exact(g) == h
    assert moduli == [None, PRIMES[0]][:passes]


def test_hamilton_live_state_memory():
    # the live masks need about 12 MB here, a dense two-layer table 131 MB
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
    # the reference that the set-based trace audit uses
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


def test_matchings_are_half_n_factors(corpus):
    # a 2-factor with n/2 components has only edge components
    graphs = [(name, g) for name, g in corpus if g.n % 2 == 0]
    graphs += [(f"rr(16,4,{s})", nh.random_regular(16, 4, s)) for s in (0, 1)]
    for name, g in graphs:
        hist = nh.factor_histogram(g)
        m = nh.perfect_matching_count(g)
        assert hist.counts.get(g.n // 2, 0) == m, name
        assert hist.weighted_by_s.get(g.n // 2, 0) == m, name


@pytest.mark.parametrize(
    "g, k",
    [
        (nh.paley(13), 11),
        (nh.random_regular(14, 4, 0), 7),
        (nh.random_regular(14, 4, 0), 12),
        (nh.random_regular(14, 4, 0), 13),
        (nh.random_regular(12, 6, 0), 10),
        (nh.random_regular(16, 4, 0), 15),
    ],
    ids=["paley13-11", "rr14-7", "rr14-12", "rr14-13", "rr12-6-10", "rr16-15"],
)
def test_phi_matches_induced_histograms(g, k):
    assert nh.phi(g, k) == induced_phi(g, k)[0]


def test_phi_dense_matches_induced_histograms():
    # 7-regular, denser than every case above
    g = complement(nh.random_regular(12, 4, 0))
    assert nh.phi(g, 8) == induced_phi(g, 8)[0]


def test_phi_examples():
    k4 = nh.complete(4)
    assert nh.phi(k4, 4) == 6
    assert nh.phi(k4, 3) == 1
    assert nh.phi(k4, 2) == 1
    with pytest.raises(InvalidParameters):
        nh.phi(k4, 1)


def first_hamilton_cycle(g):
    """H: the one component of the first Hamilton cycle in enumeration order."""
    return next(f for f in nh.enumerate_two_factors(g) if f.num_components == 1).components[0]


def test_near_hamilton_counts():
    for g, want in [
        (nh.complete(4), [1, 0, 4, 0, 1]),
        (nh.complete(5), [1, 0, 10, 5, 5, 1]),
        (nh.complete(6), [1, 0, 18, 28, 42, 30, 11]),
        (nh.random_regular(16, 4, 0),
         [1, 0, 6, 27, 73, 230, 538, 1014, 1425, 1621, 1485, 1076, 624, 285, 99, 16, 1]),
    ]:
        got = near_hamilton_distances(g, first_hamilton_cycle(g))
        assert got == want, g.n
        assert sum(got) == nh.factor_histogram(g).total
        assert got[1] == 0  # a 2-factor with n - 1 edges of H is H
        d = g.degree(0)
        for k in range(g.n + 1):
            assert sum(got[: k + 1]) <= math.comb(g.n, k) * d ** (2 * k), (g.n, k)


def test_near_hamilton_matches_brute_distances(corpus):
    rr8 = next(g for name, g in corpus if name.startswith("rr(n=8,"))
    for g in (nh.complete(5), nh.complete(6), rr8):
        h = first_hamilton_cycle(g)
        h_edges = nh.TwoFactor((h,)).edges()
        expected = [0] * (g.n + 1)
        for f in brute_two_factors(g):
            expected[len(h_edges - f)] += 1
        assert near_hamilton_distances(g, h) == expected, g.n


def test_relabel_invariance():
    rng = random.Random(13)
    g = nh.random_regular(10, 3, 4)
    h = nh.hamilton_count_exact(g)
    w = nh.factor_histogram(g).weighted_total
    m = nh.perfect_matching_count(g)
    for _ in range(3):
        perm = list(range(10))
        rng.shuffle(perm)
        gp = relabeled(g, perm)
        assert nh.hamilton_count_exact(gp) == h
        assert nh.factor_histogram(gp).weighted_total == w
        assert nh.perfect_matching_count(gp) == m


def test_caps():
    big = nh.cycle(17)
    with pytest.raises(TooLarge):
        nh.enumerate_two_factors(big)
    with pytest.raises(TooLarge):
        nh.factor_histogram(big)
    with pytest.raises(TooLarge):
        nh.phi(big, 2)
    # n = 16 is within the cap: C16 has its cycle and two perfect matchings
    c16 = nh.cycle(16)
    assert nh.phi(c16, 16) == 3
    assert nh.phi(c16, 8) == 1


def test_histogram_json():
    d = nh.factor_histogram(nh.complete(4)).to_json_dict()
    assert d == {"counts": {"1": "3", "2": "3"}, "total": "6", "weighted_total": "9"}
