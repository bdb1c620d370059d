import pytest

import ndlham as nh
from ndlham.errors import InvalidParameters, ParseError


def test_complete_k4():
    g = nh.complete(4)
    assert g.n == 4
    assert g.degrees == [3, 3, 3, 3]
    assert g.edge_count == 6


def test_paley5_is_c5():
    g = nh.paley(5)
    assert g.degrees == [2] * 5
    # quadratic residues mod 5 are {1, 4}: cyclic adjacency
    assert sorted(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_paley_rejects_bad_q():
    for q in (4, 7, 9, 15):
        with pytest.raises(InvalidParameters):
            nh.paley(q)


def test_paley_regularity():
    for q in (5, 13, 17, 29):
        g = nh.paley(q)
        assert g.degrees == [(q - 1) // 2] * q


def test_petersen_shape():
    g = nh.petersen()
    assert g.n == 10
    assert g.degrees == [3] * 10
    assert g.edge_count == 15


def test_random_regular_postconditions():
    g = nh.random_regular(10, 3, seed=1)
    assert g.degrees == [3] * 10
    # determinism
    assert nh.random_regular(10, 3, seed=1).rows == g.rows
    assert nh.random_regular(10, 3, seed=2).rows != g.rows


def test_random_regular_many_seeds_regular():
    for seed in range(10):
        g = nh.random_regular(12, 4, seed)
        assert g.degrees == [4] * 12


def test_random_regular_rejects():
    with pytest.raises(InvalidParameters):
        nh.random_regular(9, 3, 0)  # odd n*d
    with pytest.raises(InvalidParameters):
        nh.random_regular(4, 1, 0)


def test_circulant():
    g = nh.circulant(6, (1, 3))
    assert g.degrees == [3] * 6
    with pytest.raises(InvalidParameters):
        nh.circulant(6, (0,))
    with pytest.raises(InvalidParameters):
        nh.circulant(6, (4,))


def test_symmetry_and_loops_enforced():
    with pytest.raises(InvalidParameters):
        nh.Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(InvalidParameters):
        nh.Graph(1, (0b1,))  # loop


def test_edge_list_roundtrip(corpus):
    for name, g in corpus:
        assert nh.read_edge_list(nh.write_edge_list(g)).rows == g.rows, name


def test_edge_list_k3_exact_text():
    assert nh.write_edge_list(nh.complete(3)) == "3 3\n0 1\n0 2\n1 2\n"
    assert nh.read_edge_list("3 3\n0 1\n0 2\n1 2").rows == nh.complete(3).rows


def test_edge_list_comments_ignored():
    g = nh.read_edge_list("# triangle\n3 3\n0 1\n0 2\n# middle\n1 2\n")
    assert g.rows == nh.complete(3).rows


def test_edge_list_errors():
    with pytest.raises(ParseError):
        nh.read_edge_list("2 1\n0 0")  # self-loop
    with pytest.raises(ParseError):
        nh.read_edge_list("2 2\n0 1\n1 0")  # duplicate
    with pytest.raises(ParseError):
        nh.read_edge_list("2 1\n0 5")  # out of range
    with pytest.raises(ParseError):
        nh.read_edge_list("2 2\n0 1")  # count mismatch
    with pytest.raises(ParseError):
        nh.read_edge_list("garbage")


def test_induced_subgraph():
    k4 = nh.complete(4)
    sub = k4.induced([1, 2, 3])
    assert sub.rows == nh.complete(3).rows
