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

from .errors import InconsistentTrace, InvalidParameters, check_certificate, check_lambda, is_int, is_real
from .factors import _component_masks
from .graph import _bits, _vertex


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
    be finite and positive, and lambda a number in 0..d."""
    if not is_real(budget_constant) or not 0 < budget_constant < math.inf:
        raise InvalidParameters(
            f"merge_budget: budget constant must be a number, finite and > 0, got {budget_constant!r}"
        )
    check_lambda(lam, d, "merge_budget")
    if lam <= 0 or d <= lam:
        return n
    return max(2, math.ceil(budget_constant * math.log(n) / math.log(d / lam)))


def _rotate(rows, path, outside, inside, budget):
    """Breadth-first rotation search from ``path``, a checked simple path (a
    tuple of at least two vertices) with vertex mask ``inside``; ``outside``
    is the mask of the other vertices and ``budget`` >= 1.

    Returns (kind, new_path, rotations) where kind is one of:
      "extendable" - an endpoint of new_path has a neighbor in ``outside``;
      "cycle"      - the endpoints of new_path are adjacent (length >= 3);
      "failure"    - neither is reachable within ``budget`` rotations.
    Each rotation is one edge deletion plus one edge insertion, so the
    caller's trace grows by at most 2*budget entries.

    A path and its reverse are one node.  The successors of a node come
    from its tail end, then its head end, smaller pivots first; a pivot is a
    path vertex adjacent to the end other than the end's own path neighbor.
    Rotating ``seq`` at the pivot ``seq[i]`` gives ``seq[:i + 1] +
    seq[:i:-1]``, whose ends are ``seq[0]`` and ``seq[i + 1]``.

    Acceptance depends only on those ends, so each successor is tested when
    it is generated but built only when it is accepted or popped.  A queue
    entry is (oriented parent, pivot index, depth, parent link), and a
    successor at the budget's depth, which would never be expanded, is not
    queued.  The start is expanded first, before any search state exists:
    most searches accept one of its successors, and with budget 1 none is
    queued.  Only then do ``seen``, holding the start, and a FIFO queue of
    the queued depth-1 entries exist, as if the start had been popped from
    a queue of its own.  A popped node is built and dropped if
    ``seen`` holds it; otherwise it gets its link, ((pivot, pivot's old
    successor, end), parent link), so each node stores one rotation.  This
    gives the result of a search that looks up each successor when it is
    generated: the first copy of a node keeps its orientation, depth, link
    and FIFO position, and a later copy is popped only after the first was
    expanded, so its successors were all generated, and tested, then.  A
    node is queued only if neither endpoint sees ``outside``, so a
    successor, which keeps the head ``seq[0]``, is extendable exactly when
    its new end sees ``outside``.
    """
    closable = len(path) >= 3
    a, b = path[0], path[-1]
    if (rows[a] | rows[b]) & outside:
        return "extendable", path, []
    if closable and rows[a] >> b & 1:
        return "cycle", path, []
    queue, seen = [], None
    cur, depth, link = path, 1, None
    while True:
        grow = depth < budget
        for seq in (cur, cur[::-1]):
            head = rows[seq[0]] if closable else 0
            end = seq[-1]
            pivots = rows[end] & inside & ~(1 << seq[-2])
            while pivots:
                low = pivots & -pivots
                pivots ^= low
                i = seq.index(low.bit_length() - 1)
                b = seq[i + 1]
                if rows[b] & outside:
                    kind = "extendable"
                elif head >> b & 1:
                    kind = "cycle"
                else:
                    if grow:
                        queue.append((seq, i, depth, link))
                    continue
                return kind, seq[: i + 1] + seq[: i : -1], _unwind(((seq[i], b, end), link))
        if seen is None:  # the start is expanded; a search begins if it queued
            if not queue:
                return "failure", path, []
            seen, queue = {path if path[0] < path[-1] else path[::-1]}, deque(queue)
        while True:  # pop the next node not seen yet
            if not queue:
                return "failure", path, []
            seq, i, depth, link = queue.popleft()
            cur = seq[: i + 1] + seq[: i : -1]
            size = len(seen)
            seen.add(cur if cur[0] < cur[-1] else cur[::-1])
            if len(seen) > size:
                break
        link = ((seq[i], seq[i + 1], seq[-1]), link)
        depth += 1


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
    comps = _component_masks(g, f)
    n, rows = g.n, g.rows
    budget = merge_budget(n, cert.d, cert.lam, budget_constant)
    if len(comps) == 1 and n >= 3:  # already a Hamilton cycle
        return RotationTrace(True, tuple(comps[0][1]), 0, (0,), budget, ())
    trace, per_merge, start = [], [], 0

    # a validated 2-factor partitions V: the unabsorbed vertices ``rest``
    # are exactly the vertices off the path, and each pending component
    # carries its mask; components are taken in the order of their lowest
    # vertex
    full = (1 << n) - 1
    comps.sort(key=_lowest_bit)
    first, *pending = comps
    rest = full & ~first[0]
    path = first[1]
    if len(path) > 2:  # a 2-cycle is its own path
        hooked = [v for v in path if rows[v] & rest]
        if not hooked:
            return _failed(budget, trace, per_merge, "initial component has no external neighbor")
        path = _open_cycle_at(trace, path, min(hooked))

    while rest:
        tail, head = rows[path[-1]] & rest, rows[path[0]] & rest
        if not (tail or head):
            # rotate until an endpoint sees ``rest`` ("extendable") or the
            # endpoints are adjacent ("cycle")
            room = max(1, (budget - (len(trace) - start) - 2) // 2)
            kind, path, rots = _rotate(rows, path, rest, full & ~rest, room)
            if kind == "failure":
                return _failed(budget, trace, per_merge, "no rotation reaches an absorbing or closing edge")
            for rot in rots:
                trace += rot
            if kind == "cycle":
                # close, then reopen at a vertex with an unabsorbed neighbor
                trace.append(("insert", *_e(path[0], path[-1])))
                hooked = [v for v in path if rows[v] & rest]
                if not hooked:
                    return _failed(budget, trace, per_merge, "closed cycle has no edge to remaining components")
                path = _open_cycle_at(trace, path, min(hooked))
            tail, head = rows[path[-1]] & rest, rows[path[0]] & rest
        if not tail or (head and (head & -head) < (tail & -tail)):
            path, tail = path[::-1], head
        u = (tail & -tail).bit_length() - 1
        for mask, comp in pending:
            if mask >> u & 1:
                break
        rest &= ~mask
        last = path[-1]
        trace.append(("insert", last, u) if last < u else ("insert", u, last))
        if len(comp) == 2:
            path += (u, comp[0] if comp[1] == u else comp[1])
        else:
            path += _open_cycle_at(trace, comp, u)[::-1]
        if len(trace) - start > budget:
            return _failed(budget, trace, per_merge, "per-merge budget exhausted")
        per_merge.append(len(trace) - start)
        start = len(trace)

    # the closing merge starts with no operations
    if len(path) < 3 or not rows[path[0]] >> path[-1] & 1:
        kind, path, rots = _rotate(rows, path, 0, full, max(1, (budget - 2) // 2))
        if kind != "cycle":
            return _failed(budget, trace, per_merge, "spanning path cannot be closed")
        for rot in rots:
            trace += rot
    trace.append(("insert", *_e(path[0], path[-1])))
    if len(trace) - start > budget:
        return _failed(budget, trace, per_merge, "per-merge budget exhausted during closure")
    per_merge.append(len(trace) - start)
    return RotationTrace(True, tuple(path), len(trace), tuple(per_merge), budget, tuple(trace))


def _lowest_bit(component):
    """The sort key of a (mask, vertices) component: its lowest vertex's bit."""
    mask = component[0]
    return mask & -mask


def _failed(budget, trace, per_merge, reason):
    """The failed RotationTrace of a conversion, its operations so far."""
    return RotationTrace(False, (), len(trace), tuple(per_merge), budget, tuple(trace), reason)


def _open_cycle_at(trace, cyc, v):
    """Delete the cycle edge from v to the larger-labeled of its two cycle
    neighbors and log it; returns the path left, from that neighbor around
    the cycle to v."""
    cyc = tuple(cyc)
    i = cyc.index(v)
    prev, nxt = cyc[i - 1], cyc[(i + 1) % len(cyc)]
    far = max(prev, nxt)
    trace.append(("delete", v, far) if v < far else ("delete", far, v))
    if nxt > prev:
        return cyc[i + 1 :] + cyc[: i + 1]
    return (cyc[i:] + cyc[:i])[::-1]


def replay(g, f, trace):
    """Audit a RotationTrace: apply its edge operations to the edge set of
    the 2-factor, held as per-vertex bitset rows, and check the recorded
    outcome.

    Returns the final edge set as (u, v) pairs with u < v.  Raises
    InconsistentTrace on any discrepancy (a vertex outside 0..n-1,
    inserting a non-edge of G or an edge already present, deleting an
    absent edge, an unknown op, or a successful trace not ending at the
    recorded Hamilton cycle).  A vertex of an op or of the recorded cycle
    that is no int is decided by ``graph._vertex``: a numpy integer is
    taken as its int, and anything else is outside 0..n-1.
    """
    n, rows = g.n, g.rows
    have = [0] * n
    _component_masks(g, f, have)
    for op, u, v in trace.trace:
        if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
            try:
                u, v = _vertex(u, n), _vertex(v, n)
            except InvalidParameters:
                shown = tuple(int(w) if is_int(w) else w for w in (u, v))
                raise InconsistentTrace(f"{op} names a vertex outside 0..{n - 1}: {shown}") from None
        row, mine, bit = rows[u], have[u], 1 << v
        if op == "insert":
            if not row & bit:
                raise InconsistentTrace(f"inserted non-edge {_e(u, v)}")
            if mine & bit:
                raise InconsistentTrace(f"inserted already-present edge {_e(u, v)}")
        elif op == "delete":
            if not mine & bit:
                raise InconsistentTrace(f"deleted absent edge {_e(u, v)}")
        else:
            raise InconsistentTrace(f"unknown op {op!r}")
        have[u] = mine ^ bit
        have[v] ^= 1 << u
    if not trace.success:
        return {(u, v) for u in range(n) for v in _bits(have[u] >> u + 1 << u + 1)}
    # one walk over the recorded cycle: each step b -> c is an edge of G, the
    # bits of the steps fill the vertex mask, and each row holds exactly the
    # vertex's two cycle neighbours a and c; each vertex's bit is shifted
    # once and carried along as a's and b's
    cyc = trace.hamilton_cycle
    seen, same, out = 0, True, set()
    try:
        if len(cyc) == n >= 3:
            a, b = cyc[-2], cyc[-1]
            if type(a) is not int or type(b) is not int:
                a, b = _vertex(a, n), _vertex(b, n)
            abit, bbit = 1 << a, 1 << b
            for c in cyc:
                if type(c) is not int:
                    c = _vertex(c, n)
                # a vertex >= n is in no row, a negative one fails the shift
                cbit = 1 << c
                if not rows[b] & cbit:
                    break
                seen |= cbit
                if have[b] != abit | cbit:
                    same = False
                out.add((b, c) if b < c else (c, b))
                abit, bbit, b = bbit, cbit, c
    except (IndexError, InvalidParameters, TypeError, ValueError):  # no sequence, or no vertex
        seen = 0
    if seen != (1 << n) - 1:
        raise InconsistentTrace("recorded cycle is not a Hamilton cycle")
    if not same:
        raise InconsistentTrace("replayed edge set differs from recorded cycle")
    return out
