import math
import random

import numpy as np
import pytest

import ndlham as nh
import ndlham.permanent
from ndlham.errors import InvalidParameters, InvariantViolation, TooLarge
from ndlham.permanent import PRIMES, _glynn, _split
from conftest import brute_permanent, complement, ryser_permanent


def test_identity_and_ones():
    ident = nh.ZeroOneMatrix(5, tuple(1 << i for i in range(5)))
    assert nh.permanent_exact(ident) == 1
    ones = nh.ZeroOneMatrix(4, (0b1111,) * 4)
    assert nh.permanent_exact(ones) == 24


def test_k4_k5_adjacency():
    assert nh.permanent_exact(nh.adjacency_matrix_of(nh.complete(4))) == 9
    assert nh.permanent_exact(nh.adjacency_matrix_of(nh.complete(5))) == 44


def test_zero_row_short_circuit():
    m = nh.ZeroOneMatrix(3, (0b011, 0b000, 0b110))
    assert nh.permanent_exact(m) == 0


def test_against_brute_force_random_matrices():
    rng = random.Random(42)
    for n in range(1, 7):
        for _ in range(20):
            rows = tuple(rng.getrandbits(n) for _ in range(n))
            m = nh.ZeroOneMatrix(n, rows)
            assert nh.permanent_exact(m) == brute_permanent(rows), rows


def test_glynn_matches_ryser(corpus):
    graphs = corpus + [(f"rr(18,4,{s})", nh.random_regular(18, 4, s)) for s in (0, 1)]
    for name, g in graphs:
        assert nh.permanent_exact(nh.adjacency_matrix_of(g)) == ryser_permanent(
            g.rows, g.n
        ), name


def int64_matrix(g):
    return np.array([[r >> j & 1 for j in range(g.n)] for r in g.rows], dtype=np.int64)


def test_glynn_residues():
    # 2^(n-1) per(A) is below 2^64 here, so the wraparound pass gives it whole
    for g in (nh.complete(7), nh.petersen(), nh.random_regular(12, 4, 5)):
        a = int64_matrix(g)
        glynn_sum = 2 ** (g.n - 1) * ryser_permanent(g.rows, g.n)
        assert _glynn(a) == glynn_sum
        for q in (3, 251):
            assert _glynn(a, q) == glynn_sum % q


def zero_column():
    """rr(12,4,0)'s adjacency matrix with column 5 cleared: per(A) = 0."""
    return nh.ZeroOneMatrix(12, tuple(r & ~(1 << 5) for r in nh.random_regular(12, 4, 0).rows))


def row0_only_column():
    """rr(12,4,1)'s adjacency matrix whose column 3 has its only 1 in row 0."""
    rows = [r & ~(1 << 3) for r in nh.random_regular(12, 4, 1).rows]
    rows[0] |= 1 << 3
    return nh.ZeroOneMatrix(12, tuple(rows))


# (matrix, (low, high)): how many columns the split gives wholly to the low
# and to the high half, or None where at least one column is folded
SPLIT_CASES = {
    **{f"rr({n},4,{s})": (nh.random_regular(n, 4, s), None) for n in (12, 14, 16) for s in (0, 1)},
    "paley13": (nh.paley(13), None),  # d = 6
    "circulant(16,(1,2))": (nh.circulant(16, (1, 2)), None),
    "petersen": (nh.petersen(), None),  # odd degree: folds, drops nothing
    "complement-rr(14,4,0)": (complement(nh.random_regular(14, 4, 0)), (0, 0)),
    "zero-column": (zero_column(), None),
    "row0-only-column": (row0_only_column(), None),
}


@pytest.mark.parametrize("name", SPLIT_CASES)
def test_glynn_drop_and_fold(name):
    m, sides = SPLIT_CASES[name]
    a = int64_matrix(m)
    low, high, low_cols, high_cols = _split(a)
    assert sorted(low + high) == list(range(1, m.n))
    assert (len(low), len(high)) == (m.n // 2, (m.n - 1) // 2)
    assert low_cols == int(a[low].any(axis=0) @ (1 << np.arange(m.n)))
    assert high_cols == int(a[high].any(axis=0) @ (1 << np.arange(m.n)))
    folded = (m.n - high_cols.bit_count(), (high_cols & ~low_cols).bit_count())
    if sides is None:
        assert sum(folded) > 0, folded
    else:
        assert folded == sides
    glynn_sum = 2 ** (m.n - 1) * ryser_permanent(m.rows, m.n)
    assert _glynn(a) == glynn_sum % 2**64
    for q in (3, 251, PRIMES[0]):
        assert _glynn(a, q) == glynn_sum % q


def test_split_keeps_dense_order():
    # in J every pick opens and closes as many columns as any other
    for n in (2, 3, 10, 11):
        a = np.ones((n, n), dtype=np.int64)
        assert _split(a)[:2] == (list(range(1, n // 2 + 1)), list(range(n // 2 + 1, n)))


def derangements(n):
    """D(n) = per(J - I), by D(k) = (k - 1) (D(k - 1) + D(k - 2))."""
    d = [1, 0]
    for k in range(2, n + 1):
        d.append((k - 1) * (d[-1] + d[-2]))
    return d[n]


@pytest.mark.parametrize(
    "m, per, passes",
    [
        # Bregman 24^5 < 2^23 is below 2^(65-20): the int64 pass alone
        (nh.adjacency_matrix_of(nh.random_regular(20, 4, 0)), 207956, 1),
        # 22! > 2^43, but Bregman (8!)^(22/8) < 2^42.1 is below 2^(65-22)
        (nh.adjacency_matrix_of(nh.circulant(22, (1, 2, 3, 4))), 672535917712, 1),
        # 15-regular: Bregman (15!)^(20/15) is 2^53.7, between 2^45 and 2^45 p
        (nh.adjacency_matrix_of(complement(nh.random_regular(20, 4, 0))), 9100412799106368, 2),
        # every column sum is n: per(J) = 20! is 2^61.1, between 2^45 and 2^45 p
        (nh.ZeroOneMatrix(20, ((1 << 20) - 1,) * 20), math.factorial(20), 2),
        # Bregman (23!)^(24/23) is 2^77.3, between 2^41 p and 2^41 p p'
        (nh.adjacency_matrix_of(nh.complete(24)), derangements(24), 3),
    ],
    ids=["rr20", "circulant22", "complement-rr20", "J20", "K24"],
)
def test_permanent_pass_count(monkeypatch, m, per, passes):
    moduli = []

    def counted(a, p=None):
        moduli.append(p)
        return _glynn(a, p)

    monkeypatch.setattr(ndlham.permanent, "_glynn", counted)
    assert nh.permanent_exact(m) == per
    assert moduli == [None, *PRIMES][:passes]


def test_glynn_sum_not_divisible_raises(monkeypatch):
    real_prod = np.prod
    calls = []

    def corrupted(x, axis):
        out = real_prod(x, axis=axis)
        if not calls:
            out[0] += 1
        calls.append(axis)
        return out

    monkeypatch.setattr(np, "prod", corrupted)
    with pytest.raises(InvariantViolation, match="not divisible"):
        nh.permanent_exact(nh.adjacency_matrix_of(nh.petersen()))


def permuted(m, row_perm, col_perm):
    """``m`` with row i moved to row_perm[i] and column j to col_perm[j]."""
    rows = [0] * m.n
    for i, r in enumerate(m.rows):
        rows[row_perm[i]] = sum(1 << col_perm[j] for j in range(m.n) if r >> j & 1)
    return nh.ZeroOneMatrix(m.n, tuple(rows))


def test_permutation_invariance():
    # the chosen split follows the row order, so a sparse matrix takes a
    # different split under each permutation
    rng = random.Random(9)
    dense = nh.ZeroOneMatrix(6, tuple(rng.getrandbits(6) for _ in range(6)))
    sparse = nh.adjacency_matrix_of(nh.random_regular(12, 4, 2))
    for m in (dense, sparse):
        base = nh.permanent_exact(m)
        for _ in range(5):
            rp = list(range(m.n))
            cp = list(range(m.n))
            rng.shuffle(rp)
            rng.shuffle(cp)
            assert nh.permanent_exact(permuted(m, rp, cp)) == base


def test_size_cap():
    identity = nh.ZeroOneMatrix(29, tuple(1 << i for i in range(29)))
    with pytest.raises(TooLarge, match="n=29 exceeds size cap 28"):
        nh.permanent_exact(identity)


def test_bregman_bound_values():
    b = nh.bregman_bound([3, 3, 3, 3])
    assert b.value == pytest.approx(4 / 3 * math.log(6), rel=1e-12)
    assert math.exp(b.value) == pytest.approx(10.9027, abs=1e-3)
    assert nh.bregman_bound([1, 1, 1]).value == pytest.approx(0.0)
    z = nh.bregman_bound([2, 0, 2])
    assert z.is_zero


def test_vdw_lower_values():
    v = nh.vdw_lower(4, 3)
    assert math.exp(v.value) == pytest.approx(24 * (3 / 4) ** 4, rel=1e-12)  # 7.59375
    # tight at d = n
    assert math.exp(nh.vdw_lower(5, 5).value) == pytest.approx(120, rel=1e-9)
    # cubic-graph case against an exact permanent
    per_pet = nh.permanent_exact(nh.adjacency_matrix_of(nh.petersen()))
    assert math.exp(nh.vdw_lower(10, 3).value) <= per_pet


def test_regular_upper_values():
    assert math.exp(nh.regular_upper(4, 3).value) == pytest.approx(6 ** (4 / 3), rel=1e-12)
    assert math.exp(nh.regular_upper(5, 4).value) == pytest.approx(24 ** 1.25, rel=1e-12)
    assert math.exp(nh.regular_upper(5, 4).value) >= 44  # per(A(K5))
    assert nh.regular_upper(7, 1).value == pytest.approx(0.0)


def test_alon_friedland_values():
    assert math.exp(nh.alon_friedland_upper(4, 3).value) == pytest.approx(
        6 ** (2 / 3), rel=1e-12
    )
    assert math.exp(nh.alon_friedland_upper(2, 1).value) == pytest.approx(1.0)
    with pytest.raises(InvalidParameters):
        nh.alon_friedland_upper(5, 2)


def test_sandwich_on_regular_corpus(corpus):
    for name, g in corpus:
        if not g.is_regular() or g.n > 16:
            continue
        d = g.degree(0)
        per = nh.permanent_exact(nh.adjacency_matrix_of(g))
        lo = nh.vdw_lower(g.n, d).value
        hi = nh.bregman_bound(g.degrees).value
        logp = math.log(per)
        assert lo <= logp + 1e-9, name
        assert logp <= hi + 1e-9, name
