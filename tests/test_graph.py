import dataclasses
import functools

import numpy as np
import pytest

import ndlham as nh
from ndlham.errors import InconsistentTrace, InvalidParameters, NdlError, ParseError


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
    # a triple escaped as ValueError and a missing edge list as TypeError
    (lambda: nh.from_edges(3, [(0, 1, 2)]), "from_edges: edges must be (u, v) pairs"),
    (lambda: nh.from_edges(3, None), "from_edges: edges must be (u, v) pairs"),
    (lambda: nh.from_edges(3, [(0, 1), 2]), "from_edges: edges must be (u, v) pairs"),
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


@pytest.mark.parametrize("build, message", [
    (lambda: nh.Graph(2, (np.int64(2), np.int64(1))), "a graph's size and adjacency rows must be ints"),
    (lambda: nh.Graph(2, (2, True)), "a graph's size and adjacency rows must be ints"),
    (lambda: nh.Graph(2.0, (2, 1)), "a graph's size and adjacency rows must be ints"),
    (lambda: nh.Graph(True, (0,)), "a graph's size and adjacency rows must be ints"),
    (lambda: nh.from_edges(2.5, []), "from_edges: n must be an integer, got 2.5"),
    (lambda: nh.from_edges(True, []), "from_edges: n must be an integer, got True"),
], ids=["numpy-rows", "bool-row", "float-n", "bool-n", "from-edges-float-n", "from-edges-bool-n"])
def test_sizes_and_rows_must_be_ints(build, message):
    # numpy rows raised AttributeError, a float size TypeError, and a bool
    # row was kept
    with pytest.raises(InvalidParameters) as err:
        build()
    assert str(err.value) == message
    g = nh.from_edges(np.int64(3), [(0, 1)])
    assert type(g.n) is int and g.rows == (2, 1, 0)


# ---------------------------------------------------------------------------
# the vertex rule: every entry point that takes vertices from a caller
# refuses what is no vertex with its own message, and answers for numpy
# integers as for their ints


def _partition(v, n):
    return InvalidParameters, "two-factor components must partition the vertex set"


@functools.cache
def _setting(n):
    """The graph (K4, or C70 past bit 63), its certificate, its Hamilton
    factor on 0..n-1 and that factor's trace."""
    g = nh.complete(n) if n == 4 else nh.cycle(n)
    cert = nh.certify(g)
    f = nh.TwoFactor((tuple(range(n)),))
    return g, cert, f, nh.two_factor_to_hamilton(g, f, cert)


# each entry takes vs, a Hamilton cycle 0..n-1 of the graph as a list,
# possibly with vs[1] replaced, and gives its refusal of a bad vs[1]
VERTEX_ENTRIES = {
    "from_edges": (lambda g, c, f, tr, vs: nh.from_edges(g.n, zip(vs, vs[1:] + vs[:1])),
                   lambda v, n: (InvalidParameters, f"edge (0,{v}) out of range for n={n}")),
    "validate_two_factor": (lambda g, c, f, tr, vs: nh.factors.validate_two_factor(g, nh.TwoFactor((tuple(vs),))),
                            _partition),
    "two_factor_to_hamilton": (
        lambda g, c, f, tr, vs: nh.two_factor_to_hamilton(g, nh.TwoFactor((tuple(vs),)), c),
        _partition),
    "replay-ops": (
        lambda g, c, f, tr, vs: nh.replay(g, f, dataclasses.replace(
            tr, success=False, trace=(("delete", vs[0], vs[1]), ("insert", vs[0], vs[1])))),
        lambda v, n: (InconsistentTrace, f"delete names a vertex outside 0..{n - 1}: {(0, v)}")),
    "replay-cycle": (
        lambda g, c, f, tr, vs: nh.replay(g, f, dataclasses.replace(tr, hamilton_cycle=tuple(vs))),
        lambda v, n: (InconsistentTrace, "recorded cycle is not a Hamilton cycle")),
}


def _answer(call):
    """What ``call`` returns, with its repr, or the type and message of the
    library error it raises."""
    try:
        out = call()
    except NdlError as exc:
        return type(exc), str(exc)
    return out, repr(out)


@pytest.mark.parametrize("entry", list(VERTEX_ENTRIES))
def test_every_entry_point_keeps_the_vertex_rule(entry):
    call, refusal = VERTEX_ENTRIES[entry]
    g, cert, f, tr = _setting(4)
    for v in (True, np.True_, 1.0, 1.5, "1", None, -1, 4):
        with pytest.raises(NdlError) as err:
            call(g, cert, f, tr, [0, v, 2, 3])
        assert (type(err.value), str(err.value)) == refusal(v, 4), v
    # a numpy integer answers as its int, inside 0..n-1 or not, past bit 63 too
    for n in (4, 70):
        setting = _setting(n)
        for second in (1, -1, n):
            vs = [0, second, *range(2, n)]
            want = _answer(lambda: call(*setting, vs))
            assert _answer(lambda: call(*setting, list(map(np.int64, vs)))) == want, (n, second)
