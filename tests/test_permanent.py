import math
import random

import numpy as np
import pytest

import ndlham as nh
import ndlham.permanent
from ndlham.errors import InvalidParameters, InvariantViolation, TooLarge
from ndlham.permanent import _glynn, _split_dot
from conftest import brute_permanent, ryser_permanent


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


def test_glynn_dtype_paths_agree():
    for g in (nh.complete(7), nh.petersen(), nh.random_regular(12, 4, 5)):
        m = nh.adjacency_matrix_of(g)
        assert _glynn(m, object) == _glynn(m, np.int64) == ryser_permanent(g.rows, g.n)


@pytest.fixture(name="glynn_paths")
def glynn_paths_fixture(monkeypatch):
    """The dtype of every ``_glynn`` call ``permanent_exact`` makes."""
    paths = []

    def spy(m, dtype):
        paths.append(dtype)
        return _glynn(m, dtype)

    monkeypatch.setattr(ndlham.permanent, "_glynn", spy)
    return paths


def test_glynn_guard_sends_large_products_to_object(glynn_paths):
    # column sums 16: 16^16 = 2^64, so a single product can overflow
    ones = nh.ZeroOneMatrix(16, ((1 << 16) - 1,) * 16)
    assert nh.permanent_exact(ones) == math.factorial(16)
    # per(J - I) counts the derangements: D(k) = (k - 1) (D(k - 1) + D(k - 2));
    # 15^16 < 2^63, so every product fits and the tables are int64
    derangements = [1, 0]
    for k in range(2, 17):
        derangements.append((k - 1) * (derangements[-1] + derangements[-2]))
    assert nh.permanent_exact(nh.adjacency_matrix_of(nh.complete(16))) == derangements[16]
    assert glynn_paths == [object, np.int64]


def test_glynn_int64_past_a_plain_dot_bound(glynn_paths):
    # 8-regular: 8^18 = 2^54 fits, 8^18 * 2^9 = 2^63 does not
    g = nh.circulant(18, (1, 2, 3, 4))
    m = nh.adjacency_matrix_of(g)
    expected = ryser_permanent(g.rows, 18)
    assert nh.permanent_exact(m) == expected
    assert glynn_paths == [np.int64]
    assert _glynn(m, object) == expected


def test_split_dot_is_exact_past_int64():
    big = (1 << 63) - 1
    prods = np.array([big, big, big, -big, 1 << 62, -(1 << 62)] * 3, dtype=np.int64)
    sign = np.array([1, 1, 1, -1, 1, -1] * 3, dtype=np.int64)
    expected = sum(int(s) * int(p) for s, p in zip(sign, prods))
    assert expected > 1 << 63
    assert _split_dot(sign, prods) == expected
    assert _split_dot(-sign, prods) == -expected


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
    rng = random.Random(9)
    m = nh.ZeroOneMatrix(6, tuple(rng.getrandbits(6) for _ in range(6)))
    base = nh.permanent_exact(m)
    for _ in range(5):
        rp = list(range(6))
        cp = list(range(6))
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
