import collections
import dataclasses
import hashlib
import math

import pytest

import ndlham as nh
from conftest import set_replay, two_factor_from_components
from ndlham.errors import InconsistentTrace, InvalidParameters
from ndlham.hamiltonize import merge_budget


def hamilton_factor(g):
    return next(f for f in nh.enumerate_two_factors(g) if f.num_components == 1)


def test_posa_close_adjacent_endpoints():
    k4 = nh.complete(4)
    kind, path, rots = nh.posa_close(k4, (0, 1, 2, 3), budget=5)
    assert kind == "cycle"
    assert rots == []


def test_posa_close_extendable():
    kind, path, rots = nh.posa_close(nh.cycle(5), (0, 1), budget=5)
    assert kind == "extendable"
    assert rots == []


def test_posa_close_petersen_spanning_path_never_closes():
    pet = nh.petersen()
    # a Hamilton path of the Petersen graph
    hp = (0, 1, 2, 3, 4, 9, 6, 8, 5, 7)
    for a, b in zip(hp, hp[1:]):
        assert pet.has_edge(a, b)
    kind, _, _ = nh.posa_close(pet, hp, budget=100)
    assert kind == "failure"


def test_posa_close_rejects_bad_path():
    with pytest.raises(InvalidParameters):
        nh.posa_close(nh.cycle(5), (0, 2), budget=3)


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
    every trace must replay."""
    counts = collections.Counter()
    for g in graphs:
        cert = nh.certify(g)
        for f in nh.enumerate_two_factors(g):
            tr = nh.two_factor_to_hamilton(g, f, cert, budget_constant)
            nh.replay(g, f, tr)
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
@pytest.mark.parametrize("v", [-1, 6])
def test_replay_rejects_out_of_range_vertex(op, v):
    # a failed trace is still audited: -1 must not index the last row, and
    # 6 = n must not raise IndexError
    k6 = nh.complete(6)
    f = two_factor_from_components([(0, 1, 2), (3, 4, 5)])
    tr = nh.two_factor_to_hamilton(k6, f, nh.certify(k6))
    bad = dataclasses.replace(tr, success=False, trace=((op, v, 3),))
    with pytest.raises(InconsistentTrace, match="outside 0..5"):
        nh.replay(k6, f, bad)
    with pytest.raises(InconsistentTrace, match="outside 0..5"):
        nh.replay(k6, f, dataclasses.replace(bad, trace=((op, 3, v),)))


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
