"""Convert a 2-factor into a Hamilton cycle by cycle merging and rotation.

The engine opens one component into a path, absorbs the remaining
components through connecting edges, and falls back to breadth-first
rotation search (the classical endpoint-rotation move) whenever neither
endpoint of the current path sees an unabsorbed vertex.  Every edge
deletion and insertion is logged, and each component merge is charged
against a budget proportional to log(n)/log(d/lambda).
"""

import math
from collections import deque
from dataclasses import dataclass, field

from .errors import InconsistentTrace, InvalidParameters
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
    outside = ((1 << g.n) - 1) & ~inside

    def accept(p):
        a, b = p[0], p[-1]
        if (rows[a] | rows[b]) & outside:
            return "extendable"
        if len(p) >= 3 and rows[a] >> b & 1:
            return "cycle"
        return None

    kind = accept(path)
    if kind:
        return kind, path, []
    # a queue entry is (path, depth, link); link is None at the start and
    # (rotation, parent link) below it, so each node stores one rotation
    seen = {_canon_path(path)}
    queue = deque([(path, 0, None)])
    while queue:
        cur, depth, link = queue.popleft()
        if depth >= budget:
            continue
        for nxt, rot in _successors(rows, cur, inside):
            key = _canon_path(nxt)
            if key in seen:
                continue
            seen.add(key)
            kind = accept(nxt)
            if kind:
                return kind, nxt, _unwind((rot, link))
            queue.append((nxt, depth + 1, (rot, link)))
    return "failure", path, []


def _canon_path(p):
    return p if p[0] < p[-1] else tuple(reversed(p))


def _successors(rows, path, inside):
    """The single-rotation successors of ``path`` with their rotations, one
    at a time, smaller pivot vertices first, the tail end before the head.

    A pivot is a path vertex adjacent to the end other than the end's own
    path neighbor; ``inside`` is the path's vertex mask.
    """
    for seq in (path, path[::-1]):
        end = seq[-1]
        for piv in _bits(rows[end] & inside & ~(1 << seq[-2])):
            i = seq.index(piv)
            rot = (("delete", *_e(piv, seq[i + 1])), ("insert", *_e(end, piv)))
            yield seq[: i + 1] + seq[: i : -1], rot


def _unwind(link):
    """The rotations on the parent links from ``link`` back to the start,
    first rotation first."""
    rots = []
    while link:
        rot, link = link
        rots.append(rot)
    return rots[::-1]


def _e(u, v):
    return (u, v) if u < v else (v, u)


@dataclass
class _Engine:
    budget: int
    trace: list = field(default_factory=list)
    per_merge: list = field(default_factory=list)
    ops_this_merge: int = 0

    def op(self, kind, u, v):
        self.trace.append((kind, *_e(u, v)))
        self.ops_this_merge += 1

    def ops(self, rots):
        for rot in rots:
            for op in rot:
                self.op(*op)

    def close_merge(self):
        self.per_merge.append(self.ops_this_merge)
        self.ops_this_merge = 0

    def end(self, cycle=(), failure_reason=""):
        """The trace so far, ending at ``cycle`` or failing for the reason."""
        return RotationTrace(
            success=not failure_reason,
            hamilton_cycle=tuple(cycle),
            replacements=len(self.trace),
            per_merge_replacements=tuple(self.per_merge),
            budget=self.budget,
            trace=tuple(self.trace),
            failure_reason=failure_reason,
        )


def two_factor_to_hamilton(g, f, cert, budget_constant=10.0):
    """Merge the components of a 2-factor into a Hamilton cycle.

    Deterministic: all choices tie-break on the smallest vertex label.
    Failure (budget exhausted, or no closing/extending edge exists) is a
    reported outcome, not an exception.
    """
    validate_two_factor(g, f)
    n, rows = g.n, g.rows
    eng = _Engine(budget=merge_budget(n, cert.d, cert.lam, budget_constant))
    comps = sorted(f.components, key=min)
    if len(comps) == 1 and n >= 3:  # already a Hamilton cycle
        eng.close_merge()
        return eng.end(comps[0])

    # a 2-factor partitions V, so the unabsorbed vertices are exactly the
    # vertices off the path
    rest = ((1 << n) - 1) & ~_mask(comps[0], n)
    comp_of = {v: c for c in comps[1:] for v in c}
    path = _open_at_hook(eng, rows, comps[0], rest)
    if path is None:
        return eng.end(failure_reason="initial component has no external neighbor")

    while rest:
        hook = _absorb_edge(rows, path, rest)
        if hook is None:
            # neither endpoint sees ``rest``: rotate until one does
            # ("extendable") or until the endpoints are adjacent ("cycle")
            kind, path, rots = posa_close(g, path, budget=_rotation_room(eng))
            if kind == "failure":
                return eng.end(failure_reason="no rotation reaches an absorbing or closing edge")
            eng.ops(rots)
            if kind == "cycle":
                # close, then reopen at a vertex with an unabsorbed neighbor
                eng.op("insert", path[0], path[-1])
                path = _open_at_hook(eng, rows, path, rest)
                if path is None:
                    return eng.end(failure_reason="closed cycle has no edge to remaining components")
            hook = _absorb_edge(rows, path, rest)
        u, side = hook
        if side == "head":
            path = path[::-1]
        comp = comp_of[u]
        rest &= ~_mask(comp, n)
        path = _absorb(eng, path, comp, u)
        if eng.ops_this_merge > eng.budget:
            return eng.end(failure_reason="per-merge budget exhausted")
        eng.close_merge()
    return _final_close(g, eng, path)


def _rotation_room(eng):
    room = (eng.budget - eng.ops_this_merge - 2) // 2
    return max(1, room)


def _open_at_hook(eng, rows, cyc, rest):
    """Open a cycle into a path ending at its smallest vertex with a
    neighbor in ``rest``, or None if it has none.  A 2-cycle is its own
    path."""
    if len(cyc) == 2:
        return tuple(cyc)
    hooked = [v for v in cyc if rows[v] & rest]
    if not hooked:
        return None
    return _open_cycle_at(eng, cyc, min(hooked))


def _open_cycle_at(eng, comp, v):
    """Delete one cycle edge at v, producing a path with endpoint v; of the
    two cycle neighbors the larger-labeled edge is deleted."""
    comp = list(comp)
    i = comp.index(v)
    prev = comp[i - 1]
    nxt = comp[(i + 1) % len(comp)]
    drop = max(prev, nxt)
    eng.op("delete", v, drop)
    if drop == nxt:
        seq = [v] + [comp[(i - k) % len(comp)] for k in range(1, len(comp))]
    else:
        seq = [v] + [comp[(i + k) % len(comp)] for k in range(1, len(comp))]
    return tuple(reversed(seq))  # endpoint v last; head is the far end


def _absorb_edge(rows, path, rest):
    """Smallest unabsorbed vertex adjacent to an endpoint, with the side;
    ties prefer the tail endpoint."""
    tail, head = rows[path[-1]] & rest, rows[path[0]] & rest
    if tail and (not head or _low(tail) <= _low(head)):
        return _low(tail), "tail"
    if head:
        return _low(head), "head"
    return None


def _low(x):
    return (x & -x).bit_length() - 1


def _absorb(eng, path, comp, u):
    """Append component ``comp`` to the path through the edge (tail, u)."""
    eng.op("insert", path[-1], u)
    if len(comp) == 2:
        other = comp[0] if comp[1] == u else comp[1]
        return path + (u, other)
    tail = _open_cycle_at(eng, comp, u)  # path ending at u
    return path + tail[::-1]


def _final_close(g, eng, path):
    if len(path) >= 3 and g.has_edge(path[0], path[-1]):
        eng.op("insert", path[0], path[-1])
        eng.close_merge()
        return eng.end(path)
    kind, closed, rots = posa_close(g, path, budget=_rotation_room(eng))
    if kind != "cycle":
        return eng.end(failure_reason="spanning path cannot be closed")
    eng.ops(rots)
    eng.op("insert", closed[0], closed[-1])
    if eng.ops_this_merge > eng.budget:
        return eng.end(failure_reason="per-merge budget exhausted during closure")
    eng.close_merge()
    return eng.end(closed)


def replay(g, f, trace):
    """Audit a RotationTrace: apply its edge operations to the edge set of
    the 2-factor and check the recorded outcome.

    Returns the final edge set.  Raises InconsistentTrace on any
    discrepancy (a vertex outside 0..n-1, inserting a non-edge of G,
    deleting an absent edge, or a successful trace not ending at the
    recorded Hamilton cycle).
    """
    validate_two_factor(g, f)
    edges = set(f.edges())
    for op, u, v in trace.trace:
        key = _e(u, v)
        if key[0] < 0 or key[1] >= g.n:
            raise InconsistentTrace(f"{op} names a vertex outside 0..{g.n - 1}: {key}")
        if op == "insert":
            if not g.has_edge(u, v):
                raise InconsistentTrace(f"inserted non-edge {key}")
            if key in edges:
                raise InconsistentTrace(f"inserted already-present edge {key}")
            edges.add(key)
        elif op == "delete":
            if key not in edges:
                raise InconsistentTrace(f"deleted absent edge {key}")
            edges.remove(key)
        else:
            raise InconsistentTrace(f"unknown op {op!r}")
    if trace.success:
        cyc = trace.hamilton_cycle
        if not is_hamilton_cycle(g, list(cyc)):
            raise InconsistentTrace("recorded cycle is not a Hamilton cycle")
        want = {
            _e(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))
        }
        if edges != want:
            raise InconsistentTrace("replayed edge set differs from recorded cycle")
    return edges
