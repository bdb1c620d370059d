import numpy as np
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


@pytest.mark.parametrize("text, message", [
    ("", "empty edge list"),
    ("# only a comment\n\n", "empty edge list"),
    ("garbage", "bad header line: 'garbage'"),
    ("2 x\n", "bad header line: '2 x'"),
    ("2 2\n0 1", "header declares 2 edges, found 1"),
    ("3 1\n0 1 2", "bad edge line: '0 1 2'"),
    ("3 1\n 0 a", "bad edge line: ' 0 a'"),
    ("2 1\n0 5", "vertex out of range in line '0 5'"),
    ("2 1\n-1 0", "vertex out of range in line '-1 0'"),
    ("2 1\n0 0", "self-loop in line '0 0'"),
    ("2 2\n0 1\n# c\n1 0 ", "duplicate edge in line '1 0 '"),
])
def test_edge_list_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        nh.read_edge_list(text)
    assert str(err.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: nh.read_edge_list("-1 0"), "adjacency must have one row per vertex"),
    (lambda: nh.Graph(2, (0b10,)), "adjacency must have one row per vertex"),
    (lambda: nh.Graph(2, (0b100, 0)), "row 0 references vertices >= n"),
    (lambda: nh.Graph(2, (0b10, -1)), "row 1 references vertices >= n"),
    (lambda: nh.Graph(2, (0b10, 0b11)), "self-loop at vertex 1"),
    (lambda: nh.Graph(2, (0b10, 0)), "adjacency not symmetric at (0,1)"),
    (lambda: nh.Graph(3, (0, 0b001, 0)), "adjacency not symmetric at (1,0)"),
    (lambda: nh.from_edges(2, [(0, 2)]), "edge (0,2) out of range for n=2"),
    (lambda: nh.from_edges(2, [(1, 1)]), "self-loop at vertex 1"),
])
def test_graph_error_messages(build, message):
    with pytest.raises(InvalidParameters) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("g", [
    nh.paley(101),  # rows wider than 64 bits
    nh.random_regular(120, 4, 0),
    *(nh.from_edges(k, []) for k in (0, 1, 2)),
], ids=["paley101", "rr120", "empty0", "empty1", "empty2"])
def test_adjacency_matrix_matches_edges(g):
    want = np.zeros((g.n, g.n))
    for u, v in g.edges():
        want[u, v] = want[v, u] = 1.0
    got = g.adjacency_matrix()
    assert got.dtype == np.float64 and got.shape == (g.n, g.n)
    assert (got == want).all()


def test_induced_subgraph():
    k4 = nh.complete(4)
    sub = k4.induced([1, 2, 3])
    assert sub.rows == nh.complete(3).rows


@pytest.mark.parametrize("build, message", [
    (lambda g: g.induced([0, 1, 99]), "vertex 99 is not an integer in 0..9"),
    (lambda g: g.induced([-1, 0, 1]), "vertex -1 is not an integer in 0..9"),
    (lambda g: g.induced([0, 1.0]), "vertex 1.0 is not an integer in 0..9"),
    (lambda g: g.induced([True, 2]), "vertex True is not an integer in 0..9"),
    (lambda g: g.induced([0, 0, 1]), "induced: repeated vertex"),
    (lambda g: g.relabeled(list(range(9)) + [0]), "relabeled: perm must be a permutation of 0..9"),
    (lambda g: g.relabeled([0] * 10), "relabeled: perm must be a permutation of 0..9"),
    (lambda g: g.relabeled(range(9)), "relabeled: perm must be a permutation of 0..9"),
    (lambda g: g.relabeled(range(11)), "relabeled: perm must be a permutation of 0..9"),
    (lambda g: g.relabeled(["0", *range(1, 10)]), "vertex '0' is not an integer in 0..9"),
], ids=["induced-99", "induced--1", "induced-float", "induced-bool", "induced-repeat",
        "relabeled-repeat", "relabeled-constant", "relabeled-short", "relabeled-long",
        "relabeled-str"])
def test_vertex_lists_checked(build, message):
    # each of these returned a wrong graph, or raised a misleading message
    with pytest.raises(InvalidParameters) as err:
        build(nh.petersen())
    assert str(err.value) == message


def test_vertex_lists_take_any_order_and_numpy_integers():
    pet = nh.petersen()
    sub = pet.induced([5, 2, 1, 0])
    assert sub.edges() == [(0, 1), (0, 3), (1, 2)]
    assert pet.induced(np.array([0, 1, 2, 5])).rows == sub.rows
    flip = pet.relabeled(np.arange(10)[::-1])
    assert flip.edge_count == 15
    assert flip.relabeled(range(9, -1, -1)).rows == pet.rows
