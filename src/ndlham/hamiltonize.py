"""Convert a 2-factor into a Hamilton cycle by cycle merging and rotation.

The engine opens one component into a path, absorbs the remaining
components through connecting edges, and falls back to breadth-first
rotation search (the classical endpoint-rotation move) whenever neither
endpoint of the current path sees an unabsorbed vertex.  Every edge
deletion and insertion is logged, and each component merge is charged
against a budget proportional to log(n)/log(d/lambda).

Vertex sets are bitsets: the engine keeps the unabsorbed vertices and each
component as masks, and ``replay`` holds the edge set as one bitset row per
vertex, so each logged operation flips one bit in each endpoint's row.
"""

import math
from collections import deque
from dataclasses import dataclass

from .errors import InconsistentTrace, InvalidParameters, check_certificate
from .factors import is_hamilton_cycle, validate_two_factor
from .graph import _bits, _mask


@dataclass(frozen=True)
class RotationTrace:
    success: bool
    hamilton_cycle: tuple
    replacements: int
    per_merge_replacements: tuple
    budget: int
    trace: tuple  # of ("delete"|"insert", u, v)
    failure_reason: str = ""

    def to_json_dict(self):
        return {
            "success": self.success,
            "hamilton_cycle": list(self.hamilton_cycle),
            "replacements": self.replacements,
            "per_merge_replacements": list(self.per_merge_replacements),
            "budget": self.budget,
            "trace": [{"op": op, "u": u, "v": v} for op, u, v in self.trace],
            "failure_reason": self.failure_reason,
        }


def merge_budget(n, d, lam, budget_constant):
    """Per-merge replacement budget ceil(C log n / log(d/lambda)); falls
    back to n outside the formula's domain d > lambda.  The constant C must
    be finite and positive."""
    if not 0 < budget_constant < math.inf:
        raise InvalidParameters(
            f"merge_budget: budget constant must be finite and > 0, got {budget_constant}"
        )
    if lam <= 0 or d <= lam:
        return n
    return max(2, math.ceil(budget_constant * math.log(n) / math.log(d / lam)))


def posa_close(g, path, budget):
    """Breadth-first rotation search from ``path``.

    Returns (kind, new_path, rotations) where kind is one of:
      "extendable" - an endpoint of new_path has a neighbor outside V(path);
      "cycle"      - the endpoints of new_path are adjacent (length >= 3);
      "failure"    - neither is reachable within ``budget`` rotations.

    Each rotation is one edge deletion plus one edge insertion, so the
    caller's trace grows by at most 2*budget entries.
    """
    path = tuple(path)
    if len(path) < 2 or len(set(path)) != len(path):
        raise InvalidParameters("posa_close: not a simple path")
    inside = _mask(path, g.n)
    rows = g.rows
    for a, b in zip(path, path[1:]):
        if not rows[a] >> b & 1:
            raise InvalidParameters("posa_close: not a path in the graph")
    if budget < 1:
        raise InvalidParameters("posa_close: budget >= 1 required")
    return _rotate(rows, path, ((1 << g.n) - 1) & ~inside, inside, budget)


def _rotate(rows, path, outside, inside, budget):
    """The search of ``posa_close`` on a checked simple path (a tuple of at
    least two vertices) with vertex mask ``inside``; ``outside`` is the mask
    of the other vertices and ``budget`` >= 1.

    A path and its reverse are one node.  The successors of a node come
    from its tail end, then its head end, smaller pivots first; a pivot is a
    path vertex adjacent to the end other than the end's own path neighbor.
    A queue entry is (path, depth, link); link is None at the start and
    ((pivot, pivot's old successor, end), parent link) below it, so each
    node stores one rotation.  Acceptance depends only on the endpoints and
    no seen node is accepted, so a successor is tested before its lookup.
    """
    closable = len(path) >= 3

    def accept(a, b):
        if (rows[a] | rows[b]) & outside:
            return "extendable"
        if closable and rows[a] >> b & 1:
            return "cycle"
        return None

    kind = accept(path[0], path[-1])
    if kind:
        return kind, path, []
    seen = {path if path[0] < path[-1] else path[::-1]}
    queue = deque([(path, 0, None)])
    while queue:
        cur, depth, link = queue.popleft()
        if depth >= budget:
            continue
        for seq in (cur, cur[::-1]):
            end = seq[-1]
            for piv in _bits(rows[end] & inside & ~(1 << seq[-2])):
                i = seq.index(piv)
                rot = (piv, seq[i + 1], end)
                nxt = seq[: i + 1] + seq[: i : -1]
                kind = accept(seq[0], seq[i + 1])
                if kind:
                    return kind, nxt, _unwind((rot, link))
                key = nxt if nxt[0] < nxt[-1] else nxt[::-1]
                if key not in seen:
                    seen.add(key)
                    queue.append((nxt, depth + 1, (rot, link)))
    return "failure", path, []


def _unwind(link):
    """The rotations on the parent links from ``link`` back to the start,
    first rotation first: the rotation at ``pivot`` deletes the edge to its
    old path successor and inserts the edge to the end."""
    rots = []
    while link:
        (piv, old, end), link = link
        rots.append((("delete", *_e(piv, old)), ("insert", *_e(end, piv))))
    return rots[::-1]


def _e(u, v):
    return (u, v) if u < v else (v, u)


def two_factor_to_hamilton(g, f, cert, budget_constant=10.0):
    """Merge the components of a 2-factor into a Hamilton cycle.

    Deterministic: all choices tie-break on the smallest vertex label.
    Failure (budget exhausted, or no closing/extending edge exists) is a
    reported outcome, not an exception.

    The path starts as the component of vertex 0, opened at its smallest
    vertex with an unabsorbed neighbor.  Each merge absorbs the smallest
    unabsorbed vertex adjacent to an endpoint (the tail on ties) with its
    component; when neither endpoint has one, rotations first reach an
    endpoint that does, or adjacent endpoints, which are closed into a
    cycle and reopened.  A last merge closes the spanning path, rotating
    if its endpoints are not adjacent.  ``trace[start:]`` holds the
    operations of the current merge.
    """
    check_certificate(g, cert, "two_factor_to_hamilton")
    validate_two_factor(g, f)
    n, rows = g.n, g.rows
    budget = merge_budget(n, cert.d, cert.lam, budget_constant)
    trace, per_merge, start = [], [], 0

    def end(cycle=(), failure_reason=""):
        """The trace so far, ending at ``cycle`` or failing for the reason."""
        return RotationTrace(
            success=not failure_reason,
            hamilton_cycle=tuple(cycle),
            replacements=len(trace),
            per_merge_replacements=tuple(per_merge),
            budget=budget,
            trace=tuple(trace),
            failure_reason=failure_reason,
        )

    comps = sorted(f.components, key=min)
    if len(comps) == 1 and n >= 3:  # already a Hamilton cycle
        per_merge.append(0)
        return end(comps[0])

    # a validated 2-factor partitions V: the unabsorbed vertices ``rest``
    # are exactly the vertices off the path, and each pending component
    # carries its mask
    full = (1 << n) - 1
    pending = [(sum(1 << v for v in c), c) for c in comps[1:]]
    rest = sum(m for m, _ in pending)
    path = tuple(comps[0])
    if len(path) > 2:  # a 2-cycle is its own path
        hooked = [v for v in path if rows[v] & rest]
        if not hooked:
            return end(failure_reason="initial component has no external neighbor")
        path = _open_cycle_at(trace, path, min(hooked))

    while rest:
        tail, head = rows[path[-1]] & rest, rows[path[0]] & rest
        if not (tail or head):
            # rotate until an endpoint sees ``rest`` ("extendable") or the
            # endpoints are adjacent ("cycle")
            room = max(1, (budget - (len(trace) - start) - 2) // 2)
            kind, path, rots = _rotate(rows, path, rest, full & ~rest, room)
            if kind == "failure":
                return end(failure_reason="no rotation reaches an absorbing or closing edge")
            for rot in rots:
                trace += rot
            if kind == "cycle":
                # close, then reopen at a vertex with an unabsorbed neighbor
                trace.append(("insert", *_e(path[0], path[-1])))
                hooked = [v for v in path if rows[v] & rest]
                if not hooked:
                    return end(failure_reason="closed cycle has no edge to remaining components")
                path = _open_cycle_at(trace, path, min(hooked))
            tail, head = rows[path[-1]] & rest, rows[path[0]] & rest
        if not tail or (head and (head & -head) < (tail & -tail)):
            path, tail = path[::-1], head
        u = (tail & -tail).bit_length() - 1
        mask, comp = next(mc for mc in pending if mc[0] >> u & 1)
        rest &= ~mask
        trace.append(("insert", *_e(path[-1], u)))
        if len(comp) == 2:
            path += (u, comp[0] if comp[1] == u else comp[1])
        else:
            path += _open_cycle_at(trace, comp, u)[::-1]
        if len(trace) - start > budget:
            return end(failure_reason="per-merge budget exhausted")
        per_merge.append(len(trace) - start)
        start = len(trace)

    # the closing merge starts with no operations
    if len(path) < 3 or not rows[path[0]] >> path[-1] & 1:
        kind, path, rots = _rotate(rows, path, 0, full, max(1, (budget - 2) // 2))
        if kind != "cycle":
            return end(failure_reason="spanning path cannot be closed")
        for rot in rots:
            trace += rot
    trace.append(("insert", *_e(path[0], path[-1])))
    if len(trace) - start > budget:
        return end(failure_reason="per-merge budget exhausted during closure")
    per_merge.append(len(trace) - start)
    return end(path)


def _open_cycle_at(trace, cyc, v):
    """Delete the cycle edge from v to the larger-labeled of its two cycle
    neighbors and log it; returns the path left, from that neighbor around
    the cycle to v."""
    cyc = tuple(cyc)
    i = cyc.index(v)
    prev, nxt = cyc[i - 1], cyc[(i + 1) % len(cyc)]
    trace.append(("delete", *_e(v, max(prev, nxt))))
    if nxt > prev:
        return cyc[i + 1 :] + cyc[: i + 1]
    return (cyc[i:] + cyc[:i])[::-1]


def _edge_rows(n, cycles):
    """Per-vertex bitset rows of the edges of ``cycles``, a 2-vertex cycle
    being one edge."""
    rows = [0] * n
    for cyc in cycles:
        u = cyc[-1]
        for v in cyc:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            u = v
    return rows


def replay(g, f, trace):
    """Audit a RotationTrace: apply its edge operations to the edge set of
    the 2-factor, held as per-vertex bitset rows, and check the recorded
    outcome.

    Returns the final edge set as (u, v) pairs with u < v.  Raises
    InconsistentTrace on any discrepancy (a vertex outside 0..n-1,
    inserting a non-edge of G or an edge already present, deleting an
    absent edge, an unknown op, or a successful trace not ending at the
    recorded Hamilton cycle).
    """
    validate_two_factor(g, f)
    n, rows = g.n, g.rows
    have = _edge_rows(n, f.components)
    for op, u, v in trace.trace:
        if not (0 <= u < n and 0 <= v < n):
            raise InconsistentTrace(f"{op} names a vertex outside 0..{n - 1}: {_e(u, v)}")
        if op == "insert":
            if not rows[u] >> v & 1:
                raise InconsistentTrace(f"inserted non-edge {_e(u, v)}")
            if have[u] >> v & 1:
                raise InconsistentTrace(f"inserted already-present edge {_e(u, v)}")
        elif op == "delete":
            if not have[u] >> v & 1:
                raise InconsistentTrace(f"deleted absent edge {_e(u, v)}")
        else:
            raise InconsistentTrace(f"unknown op {op!r}")
        have[u] ^= 1 << v
        have[v] ^= 1 << u
    if not trace.success:
        return {(u, v) for u in range(n) for v in _bits(have[u] >> u + 1 << u + 1)}
    cyc = trace.hamilton_cycle
    if not is_hamilton_cycle(g, list(cyc)):
        raise InconsistentTrace("recorded cycle is not a Hamilton cycle")
    if have != _edge_rows(n, [cyc]):
        raise InconsistentTrace("replayed edge set differs from recorded cycle")
    return {_e(u, v) for u, v in zip(cyc, cyc[1:] + cyc[:1])}  # the rows' edges
