import collections
import dataclasses
import hashlib
import math

import numpy as np
import pytest

import ndlham as nh
from conftest import eager_rotate, set_replay, two_factor_from_components
from ndlham.errors import InconsistentTrace, InvalidParameters
from ndlham.hamiltonize import merge_budget


def hamilton_factor(g):
    return next(f for f in nh.enumerate_two_factors(g) if f.num_components == 1)


def rotate(g, path, budget):
    """The rotation search from ``path`` with every other vertex outside."""
    inside = sum(1 << v for v in path)
    return nh.hamiltonize._rotate(g.rows, path, ((1 << g.n) - 1) & ~inside, inside, budget)


def test_rotate_adjacent_endpoints():
    kind, path, rots = rotate(nh.complete(4), (0, 1, 2, 3), budget=5)
    assert kind == "cycle"
    assert rots == []


def test_rotate_extendable():
    kind, path, rots = rotate(nh.cycle(5), (0, 1), budget=5)
    assert kind == "extendable"
    assert rots == []


def test_rotate_petersen_spanning_path_never_closes():
    pet = nh.petersen()
    # a Hamilton path of the Petersen graph
    hp = (0, 1, 2, 3, 4, 9, 6, 8, 5, 7)
    for a, b in zip(hp, hp[1:]):
        assert pet.has_edge(a, b)
    kind, _, _ = rotate(pet, hp, budget=100)
    assert kind == "failure"


def test_trivial_single_cycle():
    c6 = nh.cycle(6)
    cert = nh.certify(c6)
    f = hamilton_factor(c6)
    tr = nh.two_factor_to_hamilton(c6, f, cert)
    assert tr.success
    assert tr.replacements == 0


def test_k6_two_triangles():
    k6 = nh.complete(6)
    cert = nh.certify(k6)
    f = two_factor_from_components([(0, 1, 2), (3, 4, 5)])
    tr = nh.two_factor_to_hamilton(k6, f, cert)
    assert tr.success
    assert tr.replacements <= 4
    nh.replay(k6, f, tr)


def test_petersen_all_factors_fail():
    pet = nh.petersen()
    cert = nh.certify(pet)
    for f in nh.enumerate_two_factors(pet):
        tr = nh.two_factor_to_hamilton(pet, f, cert)
        assert not tr.success


def test_all_factors_small_complete_graphs():
    for n in range(4, 8):
        g = nh.complete(n)
        cert = nh.certify(g)
        for f in nh.enumerate_two_factors(g):
            tr = nh.two_factor_to_hamilton(g, f, cert)
            assert tr.success, (n, f)
            nh.replay(g, f, tr)
            assert all(x <= tr.budget for x in tr.per_merge_replacements)


def test_determinism():
    g = nh.random_regular(10, 4, 2)
    cert = nh.certify(g)
    fs = nh.enumerate_two_factors(g)[:20]
    for f in fs:
        a = nh.two_factor_to_hamilton(g, f, cert)
        b = nh.two_factor_to_hamilton(g, f, cert)
        assert a == b


def failure_counts(graphs, budget_constant=10.0):
    """Outcome counts ("" for success) over every 2-factor of ``graphs``;
    every trace, failed ones too, must replay to the edge set that the
    set-based replay finds."""
    counts = collections.Counter()
    for g in graphs:
        cert = nh.certify(g)
        for f in nh.enumerate_two_factors(g):
            tr = nh.two_factor_to_hamilton(g, f, cert, budget_constant)
            assert nh.replay(g, f, tr) == set_replay(g, f, tr), (f.components, tr)
            counts[tr.failure_reason] += 1
    return counts


def test_failures_two_disjoint_k4():
    two_k4 = nh.from_edges(
        8, [(u, v) for b in (0, 4) for u in range(b, b + 4) for v in range(u + 1, b + 4)]
    )
    # the component through vertex 0 is a 4-cycle (no edge leaves it) or
    # one of two digons, which absorbs the other and then closes
    assert failure_counts([two_k4]) == {
        "initial component has no external neighbor": 18,
        "closed cycle has no edge to remaining components": 18,
    }


def test_failure_when_no_rotation_reaches_an_edge():
    # once the digon (1, 11) is absorbed, no end of the path 9, 2, ..., 0, 11, 1
    # sees 4 or 8, and the one rotation left to the merge neither reaches them
    # nor closes the path
    g = nh.random_regular(14, 3, 0)
    f = nh.TwoFactor(((0, 3, 5, 10, 7, 6, 13, 12, 2, 9), (1, 11), (4, 8)))
    tr = nh.two_factor_to_hamilton(g, f, nh.certify(g), budget_constant=0.05)
    assert not tr.success
    assert tr.failure_reason == "no rotation reaches an absorbing or closing edge"
    assert (tr.budget, tr.replacements, tr.per_merge_replacements) == (2, 2, (2,))
    assert tr.trace == (("delete", 0, 9), ("insert", 0, 11))
    assert nh.replay(g, f, tr) == set_replay(g, f, tr)


@pytest.mark.parametrize(
    "budget_constant, want",
    [
        (0.01, {"": 1125, "per-merge budget exhausted": 657,
                "per-merge budget exhausted during closure": 1061,
                "spanning path cannot be closed": 239}),
        (0.5, {"": 2854, "per-merge budget exhausted": 8,
               "spanning path cannot be closed": 220}),
    ],
)
def test_failures_under_small_budgets(budget_constant, want):
    graphs = [nh.random_regular(12, 4, s) for s in range(3)]
    assert failure_counts(graphs, budget_constant) == want


def test_traces_pinned():
    # any change to tie-breaking, rotation order or trace layout moves this
    # digest; it was taken from the set-based engine the bitset one replaced
    h = hashlib.sha256()
    for g in (nh.random_regular(10, 4, 2), nh.random_regular(12, 6, 0)):
        cert = nh.certify(g)
        for f in nh.enumerate_two_factors(g):
            tr = nh.two_factor_to_hamilton(g, f, cert)
            h.update(repr((f.components, tr)).encode())
    assert h.hexdigest() == (
        "0e5215d04ed648dbabf67232547c8473818d623aa8d611b51b33d29fef934a06"
    )
    # the factor-sweep benchmark graph: 8,521 2-factors, digest taken from
    # the engine before its rewrite into one function over masks
    h = hashlib.sha256()
    g = nh.random_regular(16, 4, 0)
    cert = nh.certify(g)
    for f in nh.enumerate_two_factors(g):
        h.update(repr((f.components, nh.two_factor_to_hamilton(g, f, cert))).encode())
    assert h.hexdigest() == (
        "f90797716dd05d6c1886b7a53efbb04c8f298e7069778acc1938255dca21bbdb"
    )


@pytest.mark.parametrize(
    "budget_constant, digest",
    [
        (0.5, "e5bd416c484a17267ab0ba00a4c6d4fb923c7f065227440fb5b89d1562e3f86c"),
        (0.01, "9228b0cf9b16db106ecb0b6c68c0491812f87747c0d4b282cd280a64e0183734"),
    ],
)
def test_traces_pinned_under_small_budgets(budget_constant, digest):
    # the runs where the rotation budget decides: digests taken from the
    # engine that built every rotation successor as soon as it was generated
    h = hashlib.sha256()
    for s in range(3):
        g = nh.random_regular(12, 4, s)
        cert = nh.certify(g)
        for f in nh.enumerate_two_factors(g):
            tr = nh.two_factor_to_hamilton(g, f, cert, budget_constant)
            h.update(repr((f.components, tr)).encode())
    assert h.hexdigest() == digest


def test_rotate_matches_eager_reference(monkeypatch):
    # every search the engine makes while converting all 2-factors of
    # rr(12,4,0..2), under a budget that rarely binds and two that often do,
    # and of rr(16,4,0), the factor-sweep benchmark graph, at C = 10, gives
    # the reference's (kind, path, rotations)
    calls = collections.Counter()
    lazy = nh.hamiltonize._rotate
    searches = []

    def both(rows, path, outside, inside, budget):
        got = lazy(rows, path, outside, inside, budget)
        assert got == eager_rotate(rows, path, outside, inside, budget), (path, budget)
        calls[got[0]] += 1
        searches.append((rows, path, outside, inside))
        return got

    monkeypatch.setattr(nh.hamiltonize, "_rotate", both)
    for budget_constant in (10.0, 0.5, 0.01):
        for s in range(3):
            g = nh.random_regular(12, 4, s)
            cert = nh.certify(g)
            for f in nh.enumerate_two_factors(g):
                nh.two_factor_to_hamilton(g, f, cert, budget_constant)
    g = nh.random_regular(16, 4, 0)
    cert = nh.certify(g)
    for f in nh.enumerate_two_factors(g):
        nh.two_factor_to_hamilton(g, f, cert, 10.0)
    assert set(calls) == {"extendable", "cycle", "failure"}
    # the Petersen spanning path never closes: the search runs out of
    # budget at every depth
    pet = nh.petersen()
    hp = (0, 1, 2, 3, 4, 9, 6, 8, 5, 7)
    for budget in range(1, 5):
        got = rotate(pet, hp, budget)
        assert got[0] == "failure"
        assert got == eager_rotate(pet.rows, hp, 0, (1 << 10) - 1, budget)
    # each search again at budget 1: the start's successors are tested, none
    # is queued, and the search ends before it builds a queue
    monkeypatch.setattr(nh.hamiltonize, "deque", None)
    calls.clear()
    for rows, path, outside, inside in searches:
        got = lazy(rows, path, outside, inside, 1)
        assert got == eager_rotate(rows, path, outside, inside, 1), path
        calls[got[0]] += 1
    assert set(calls) == {"extendable", "cycle", "failure"}


def test_budget_formula():
    assert merge_budget(10, 3, 2.0, 10.0) == math.ceil(
        10 * math.log(10) / math.log(1.5)
    )
    assert merge_budget(12, 2, 2.0, 10.0) == 12  # degenerate d/lambda


@pytest.mark.parametrize("c", [math.nan, math.inf, 0.0, -3.0])
def test_budget_constant_must_be_finite_positive(c):
    with pytest.raises(InvalidParameters, match="finite and > 0"):
        merge_budget(10, 3, 2.0, c)
    with pytest.raises(InvalidParameters, match="finite and > 0"):
        merge_budget(12, 2, 2.0, c)  # checked before the degenerate fallback
    k6 = nh.complete(6)
    f = two_factor_from_components([(0, 1, 2), (3, 4, 5)])
    with pytest.raises(InvalidParameters, match="finite and > 0"):
        nh.two_factor_to_hamilton(k6, f, nh.certify(k6), c)


def test_replay_rejects_corrupt_trace():
    k6 = nh.complete(6)
    cert = nh.certify(k6)
    f = two_factor_from_components([(0, 1, 2), (3, 4, 5)])
    tr = nh.two_factor_to_hamilton(k6, f, cert)
    import dataclasses

    bad = dataclasses.replace(tr, trace=tr.trace + (("insert", 0, 1),))
    with pytest.raises(InconsistentTrace):
        nh.replay(k6, f, bad)
    pet = nh.petersen()
    fp = nh.enumerate_two_factors(pet)[0]
    bad2 = dataclasses.replace(tr, trace=(("insert", 0, 2),))  # non-edge of Petersen
    with pytest.raises(InconsistentTrace):
        nh.replay(pet, fp, bad2)


@pytest.mark.parametrize("op", ["insert", "delete"])
@pytest.mark.parametrize("v", [-1, 6, 2.0, 3.5, "a"])
def test_replay_rejects_out_of_range_vertex(op, v):
    # a failed trace is still audited: -1 must not index the last row, 6 = n
    # must not raise IndexError, and a float inside 0..5 or a string must
    # not raise TypeError
    k6 = nh.complete(6)
    f = two_factor_from_components([(0, 1, 2), (3, 4, 5)])
    tr = nh.two_factor_to_hamilton(k6, f, nh.certify(k6))
    bad = dataclasses.replace(tr, success=False, trace=((op, v, 3),))
    with pytest.raises(InconsistentTrace, match="outside 0..5"):
        nh.replay(k6, f, bad)
    with pytest.raises(InconsistentTrace, match="outside 0..5"):
        nh.replay(k6, f, dataclasses.replace(bad, trace=((op, 3, v),)))


def test_numpy_integer_vertices():
    # a 2-factor with np.int64 vertices converts and replays as its int copy
    g = nh.random_regular(10, 4, 2)
    cert = nh.certify(g)
    for f in nh.enumerate_two_factors(g):
        f64 = nh.TwoFactor(tuple(tuple(np.int64(v) for v in c) for c in f.components))
        tr, tr64 = nh.two_factor_to_hamilton(g, f, cert), nh.two_factor_to_hamilton(g, f64, cert)
        assert tr64 == tr
        assert all(type(v) is int for v in tr64.hamilton_cycle)
        assert nh.replay(g, f64, tr64) == nh.replay(g, f, tr)
        failed = dataclasses.replace(tr, success=False)
        assert nh.replay(g, f64, failed) == nh.replay(g, f, failed)
    # past bit 63 a numpy mask would wrap; the ints' masks do not
    c70 = nh.cycle(70)
    f = nh.TwoFactor((tuple(np.int64(v) for v in range(70)),))
    tr = nh.two_factor_to_hamilton(c70, f, nh.certify(c70))
    assert tr.success and tr.hamilton_cycle == tuple(range(70))
    assert nh.replay(c70, f, tr) == f.edges()
    # and mixed with ints: the int masks must not meet a numpy vertex's bit
    for f in [nh.TwoFactor((tuple(range(69)) + (np.int64(69),),)),
              nh.TwoFactor((tuple(np.int64(v) for v in range(3)) + tuple(range(3, 70)),))]:
        nh.factors.validate_two_factor(c70, f)
        tr = nh.two_factor_to_hamilton(c70, f, nh.certify(c70))
        assert tr.success and tr.hamilton_cycle == tuple(range(70))
        assert nh.replay(c70, f, tr) == f.edges()
    # operator.index refuses a numpy bool, as it refuses a float
    with pytest.raises(InvalidParameters, match="partition"):
        nh.factors.validate_two_factor(nh.cycle(3), nh.TwoFactor(((0, np.True_, 2),)))


def test_replay_numpy_integer_trace_vertices():
    # a trace naming numpy integers replays as its int copy, past bit 63 too
    c70 = nh.cycle(70)
    f = nh.TwoFactor((tuple(range(70)),))
    tr = nh.two_factor_to_hamilton(c70, f, nh.certify(c70))
    ops = (("delete", 68, 69), ("insert", 68, 69))
    failed = dataclasses.replace(tr, success=False, trace=ops)
    failed64 = dataclasses.replace(failed, trace=tuple((op, np.int64(u), np.int64(v)) for op, u, v in ops))
    assert nh.replay(c70, f, failed64) == nh.replay(c70, f, failed) == f.edges()
    for cyc in (tuple(np.arange(70)), tuple(range(69)) + (np.int64(69),)):
        assert nh.replay(c70, f, dataclasses.replace(tr, hamilton_cycle=cyc)) == nh.replay(c70, f, tr)
    # below bit 63, where a numpy row is no int for ``_bits``
    c10 = nh.cycle(10)
    f10 = nh.TwoFactor((tuple(range(10)),))
    gone = dataclasses.replace(failed, trace=(("delete", np.int64(3), np.int64(4)),))
    assert nh.replay(c10, f10, gone) == f10.edges() - {(3, 4)}
    # and a fault is named as in the int copy
    for g, bad in ((c70, (("delete", np.int64(68), np.int64(69)),) * 2),
                   (c10, (("insert", np.int64(3), np.int64(5)),)),
                   (c70, (("insert", np.int64(70), 0),))):
        with pytest.raises(InconsistentTrace) as want:
            nh.replay(g, nh.TwoFactor((tuple(range(g.n)),)),
                      dataclasses.replace(failed, trace=tuple((op, int(u), int(v)) for op, u, v in bad)))
        with pytest.raises(InconsistentTrace) as got:
            nh.replay(g, nh.TwoFactor((tuple(range(g.n)),)), dataclasses.replace(failed, trace=bad))
        assert str(got.value) == str(want.value)
    wrong = dataclasses.replace(tr, hamilton_cycle=tuple(np.arange(68)) + (np.int64(69), np.int64(68)))
    with pytest.raises(InconsistentTrace, match="recorded cycle is not a Hamilton cycle"):
        nh.replay(c70, f, wrong)


def _mutated(g, tr):
    """Traces that each break ``tr`` once: an op dropped, duplicated, turned
    from insert to delete or back, sent to a non-neighbor, to vertex -1 or
    n, or renamed; and recorded cycles that are wrong or reversed."""
    ops, n = tr.trace, g.n
    for k, (op, u, v) in enumerate(ops):
        other = {"insert": "delete", "delete": "insert"}[op]
        far = next((w for w in range(n) if w != u and not g.has_edge(u, w)), v)
        for new in ((), ((op, u, v),) * 2, ((other, u, v),), ((op, u, far),),
                    ((op, -1, v),), ((op, u, n),), (("flip", u, v),)):
            yield dataclasses.replace(tr, trace=ops[:k] + new + ops[k + 1 :])
    cyc = tr.hamilton_cycle or tuple(range(n))
    for wrong in (cyc[1:2] + cyc[:1] + cyc[2:], cyc[::-1], tuple(range(n))):
        yield dataclasses.replace(tr, success=True, hamilton_cycle=wrong)


def _outcome(audit, g, f, tr):
    try:
        return sorted(audit(g, f, tr))
    except InconsistentTrace as exc:
        return str(exc)


def test_replay_agrees_with_set_replay_on_mutated_traces():
    # the bitset replay against the set-based one it replaced: the same
    # message or the same final edge set on every broken trace
    outcomes = []
    for g in (nh.complete(6), nh.petersen(), nh.random_regular(10, 4, 2)):
        cert = nh.certify(g)
        for f in nh.enumerate_two_factors(g)[:40]:
            tr = nh.two_factor_to_hamilton(g, f, cert)
            for bad in (tr, *_mutated(g, tr)):
                got = _outcome(nh.replay, g, f, bad)
                assert got == _outcome(set_replay, g, f, bad), (f.components, bad)
                outcomes.append(str(got))
    # every check of the audit fired, and some traces replayed to the end
    for part in ("[(", "outside", "non-edge", "already-present", "absent", "unknown op",
                 "not a Hamilton cycle", "differs"):
        assert any(part in got for got in outcomes), part


def test_replay_rejects_recorded_non_cycles():
    # the one walk over the recorded cycle rejects what is_hamilton_cycle
    # rejects, and returns the cycle's edges otherwise
    c5 = nh.cycle(5)
    f = hamilton_factor(c5)
    tr = nh.two_factor_to_hamilton(c5, f, nh.certify(c5))
    for seq in [(2, 1, 0, 4, 3), (1, 2, 3, 4, 0)]:
        good = dataclasses.replace(tr, hamilton_cycle=seq)
        assert nh.replay(c5, f, good) == set_replay(c5, f, good) == f.edges()
    for seq in [(0, 1, 2, 3, 3), (0, 1, 2, 3, -1), (0, -4, 2, 3, 4), (0, 1, 2, 3, 5),
                (0, 1, 7, 3, 4), (0, 1, 2, 3), (0, 1, 2, 3, 4, 0), (0, 2, 1, 3, 4),
                (-1, 1, 2, 3, 4), (5, 1, 2, 3, 4), (0, 1, 2.0, 3, 4), (), None]:
        bad = dataclasses.replace(tr, hamilton_cycle=seq)
        with pytest.raises(InconsistentTrace, match="not a Hamilton cycle"):
            nh.replay(c5, f, bad)


def test_replay_rejects_wrong_factor():
    k6 = nh.complete(6)
    cert = nh.certify(k6)
    f = two_factor_from_components([(0, 1, 2), (3, 4, 5)])
    tr = nh.two_factor_to_hamilton(k6, f, cert)
    other = two_factor_from_components([(0, 1, 3), (2, 4, 5)])
    with pytest.raises(InconsistentTrace):
        nh.replay(k6, other, tr)


def test_trace_json_shape():
    k6 = nh.complete(6)
    cert = nh.certify(k6)
    f = two_factor_from_components([(0, 1, 2), (3, 4, 5)])
    d = nh.two_factor_to_hamilton(k6, f, cert).to_json_dict()
    assert d["success"] is True
    assert all(set(op) == {"op", "u", "v"} for op in d["trace"])
