"""Deterministic checkers for the structural invariant families.

Each checker evaluates one lettered clause family (B, P, D, S, Q)
literally against a graph and the relevant structures, returning a
PropertyReport: one verdict per clause, a concrete re-checkable witness
for every false verdict, and the numeric parameters used. Checkers are
pure functions; nothing here mutates game state.

Clauses that encode asymptotic size or degree bounds (B never, but P2,
P5, D4 and the degree windows) are marked diagnostic: their
thresholds are evaluated exactly at the given (n, eps), yet small boards
routinely miss them, so `all_passed` ignores them and harness reports
aggregate their pass frequencies instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .breaker import BadSetDecomposition, SuccessiveBadSets, q_violations
from .connector import Decomposition, TreeEmbedding, alpha_table
from .engine import BREAKER, GameResult, replay_states
from .errors import ParameterError
from .graph import Edge, Graph, edge

Witness = Dict[str, object]


def _jsonable(value):
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class Clause:
    """Verdict for one lettered clause. A false verdict carries a witness
    pinpointing a violating vertex or edge; diagnostic clauses are
    asymptotic bounds excluded from `all_passed`."""

    passed: bool
    witness: Optional[Witness] = None
    diagnostic: bool = False

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"passed": self.passed}
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness)
        if self.diagnostic:
            out["diagnostic"] = True
        return out


@dataclass
class PropertyReport:
    family: str
    params: Dict[str, object]
    clauses: Dict[str, Clause] = field(default_factory=dict)

    def all_passed(self) -> bool:
        """True when every non-diagnostic clause passed."""
        return all(c.passed for c in self.clauses.values() if not c.diagnostic)

    def failures(self) -> List[str]:
        return sorted(name for name, c in self.clauses.items() if not c.passed)

    def to_dict(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "params": _jsonable(self.params),
            "clauses": {name: c.to_dict() for name, c in sorted(self.clauses.items())},
            "all_passed": self.all_passed(),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _first_internal_edge(g: Graph, vertices: Set[int]) -> Optional[Edge]:
    for u in sorted(vertices):
        for v in sorted(g.neighbors(u) & vertices):
            if u < v:
                return (u, v)
    return None


# ---------------------------------------------------------------------------
# B family: one bad-set decomposition against a protected set


def check_b(g: Graph, dec: BadSetDecomposition, m_set: Iterable[int]) -> PropertyReport:
    """B1: the first layer is exactly the center's neighborhood and spans
    no edge. B2: every deeper-layer vertex has exactly two neighbors
    among the layers up to its own. B3: every vertex outside the bad set
    (and not the center) sees at most one bad vertex. B4: the bad set
    avoids the protected set and its neighborhood."""
    x = dec.x
    mset = set(m_set)
    off = [v for v in mset if not 0 <= v < g.n]
    if off:
        raise ParameterError(f"protected vertex {min(off)} out of range")
    bad = set(dec.union)
    report = PropertyReport(
        family="B",
        params={"n": g.n, "x": x, "m": sorted(mset), "r_x": dec.r_x},
    )

    first = set(dec.layers[0])
    nx = set(g.neighbors(x))
    if first != nx:
        v = min(first.symmetric_difference(nx))
        report.clauses["B1"] = Clause(False, {"vertex": v, "reason": "first layer != neighborhood"})
    else:
        bad_edge = _first_internal_edge(g, first)
        if bad_edge is not None:
            report.clauses["B1"] = Clause(False, {"edge": bad_edge, "reason": "edge inside first layer"})
        else:
            report.clauses["B1"] = Clause(True)

    b2 = Clause(True)
    union: Set[int] = set()
    for idx, layer in enumerate(dec.layers):
        i = idx + 1
        union |= layer
        if i < 2 or not b2.passed:
            continue
        for v in sorted(layer):
            d = len(g.neighbors(v) & union)
            if d != 2:
                b2 = Clause(False, {"vertex": v, "layer": i, "degree": d})
                break
    report.clauses["B2"] = b2

    b3 = Clause(True)
    for v in range(g.n):
        if v == x or v in bad:
            continue
        d = len(g.neighbors(v) & bad)
        if d > 1:
            b3 = Clause(False, {"vertex": v, "degree": d})
            break
    report.clauses["B3"] = b3

    closed = set(mset)
    for u in mset:
        closed |= g.neighbors(u)
    overlap = bad & closed
    if overlap:
        report.clauses["B4"] = Clause(False, {"vertex": min(overlap)})
    else:
        report.clauses["B4"] = Clause(True)
    return report


# ---------------------------------------------------------------------------
# P family: successive bad sets with exclusion


def regime_ok(n: int, eps: float) -> bool:
    """Whether eps sits in the regime the P-family bounds are promised
    for; below it the report is informational only."""
    if n < 3:
        return False
    return eps >= 7.0 * math.log(math.log(n)) / math.log(n)


def check_p(g: Graph, succ: SuccessiveBadSets, eps: float) -> PropertyReport:
    """Clauses over the successive decompositions, each evaluated for
    every candidate j and layer i up to min(r_j, ceil(1/eps)).

    P1: each later candidate sits outside the closed neighborhood of the
    previously accumulated bad set. P2 (diagnostic): layer sizes below
    n^((1-i*eps)/3). P3: layers span no edge. P4: layers avoid the closed
    neighborhood of the prior accumulated bad set. P5 (diagnostic): the
    outside vertices with at least s neighbors in the accumulated set,
    s in {0..3}, number at most (2j/eps + i) * n^((3-s(1+eps))/3).
    P6: layering depth stopped by ceil(1/eps)."""
    if eps <= 0:
        raise ParameterError(f"the P bounds need eps > 0, got {eps}")
    n = g.n
    t = len(succ.candidates)
    cap = math.ceil(1.0 / eps)
    report = PropertyReport(
        family="P",
        params={
            "n": n,
            "eps": eps,
            "t": t,
            "depth_cap": cap,
            "regime_ok": regime_ok(n, eps),
        },
    )

    def tilde_r(j: int) -> int:
        return min(succ.decomps[j - 1].r_x, cap)

    p1 = Clause(True)
    p4 = Clause(True)
    for j in range(2, t + 1):
        prior = set(succ.union_through(j - 1, succ.decomps[j - 2].r_x))
        closed = set(prior)
        for u in prior:
            closed |= g.neighbors(u)
        xj = succ.candidates[j - 1]
        if p1.passed and xj in closed:
            p1 = Clause(False, {"candidate": j, "vertex": xj})
        if p4.passed:
            for i in range(1, tilde_r(j) + 1):
                overlap = set(succ.decomps[j - 1].layers[i - 1]) & closed
                if overlap:
                    p4 = Clause(False, {"candidate": j, "layer": i, "vertex": min(overlap)})
                    break
    report.clauses["P1"] = p1
    report.clauses["P4"] = p4

    p2 = Clause(True, diagnostic=True)
    p3 = Clause(True)
    for j in range(1, t + 1):
        for i in range(1, tilde_r(j) + 1):
            layer = set(succ.decomps[j - 1].layers[i - 1])
            bound = n ** ((1.0 - i * eps) / 3.0)
            if p2.passed and not len(layer) < bound:
                p2 = Clause(
                    False,
                    {"candidate": j, "layer": i, "size": len(layer), "bound": bound},
                    diagnostic=True,
                )
            if p3.passed:
                bad_edge = _first_internal_edge(g, layer)
                if bad_edge is not None:
                    p3 = Clause(False, {"candidate": j, "layer": i, "edge": bad_edge})
    report.clauses["P2"] = p2
    report.clauses["P3"] = p3

    p5 = Clause(True, diagnostic=True)
    for j in range(1, t + 1):
        if not p5.passed:
            break
        for i in range(1, tilde_r(j) + 1):
            accumulated = set(succ.union_through(j, i))
            counts = [0, 0, 0, 0]
            for v in range(n):
                if v in accumulated:
                    continue
                d = len(g.neighbors(v) & accumulated)
                for s in range(4):
                    if d >= s:
                        counts[s] += 1
            stop = False
            for s in range(4):
                bound = (2.0 * j / eps + i) * n ** ((3.0 - s * (1.0 + eps)) / 3.0)
                if counts[s] > bound:
                    p5 = Clause(
                        False,
                        {"candidate": j, "layer": i, "s": s, "size": counts[s], "bound": bound},
                        diagnostic=True,
                    )
                    stop = True
                    break
            if stop:
                break
    report.clauses["P5"] = p5

    p6 = Clause(True)
    for j in range(1, t + 1):
        r = succ.decomps[j - 1].r_x
        if r > cap:
            p6 = Clause(False, {"candidate": j, "r": r, "cap": cap})
            break
    report.clauses["P6"] = p6
    return report


# ---------------------------------------------------------------------------
# D family: levelled decomposition


def check_d(dec: Decomposition, eps: Optional[float] = None) -> PropertyReport:
    """D1: selections sit inside their cells. D3: on levels above the
    first, every selected vertex keeps a skeleton neighbor in each child
    selection. D4 (diagnostic, needs eps): skeleton degrees
    from child selections upward stay below n^((alpha_i - alpha_{i-1}) *
    eps). D5: first-level selections are skeleton-adjacent to the center.
    D6: every skeleton edge lies between some selection and its children's
    union."""
    k = dec.k
    n = dec.n
    h = dec.h
    alphas = alpha_table(k)
    report = PropertyReport(
        family="D",
        params={"n": n, "k": k, "x": dec.x, "alphas": list(alphas), "eps": eps},
    )

    d1 = Clause(True)
    d3 = Clause(True)
    d4 = Clause(True, diagnostic=True)
    d5 = Clause(True)
    spans: List[Tuple[Set[int], FrozenSet[int]]] = []

    for (i, j, l), m in dec.msets:
        cell = dec.cell((i, j, l))
        c1 = dec.mset((i - 1, 2 * j - 1, l))
        c2 = dec.mset((i - 1, 2 * j, l))
        spans.append((set(c1) | set(c2), m))
        if d1.passed and not m <= cell:
            d1 = Clause(False, {"key": (i, j, l), "vertex": min(m - cell)})
        if i >= 2:
            if d3.passed:
                for v in sorted(m):
                    if not (h.neighbors(v) & c1) or not (h.neighbors(v) & c2):
                        d3 = Clause(False, {"key": (i, j, l), "vertex": v})
                        break
            if eps is not None and d4.passed:
                bound = n ** ((alphas[i - 1] - alphas[i - 2]) * eps)
                for v in sorted(set(c1) | set(c2)):
                    d = len(h.neighbors(v) & m)
                    if d > bound:
                        d4 = Clause(
                            False,
                            {"key": (i, j, l), "vertex": v, "degree": d, "bound": bound},
                            diagnostic=True,
                        )
                        break
        if i == 1 and d5.passed:
            for v in sorted(m):
                if not h.has_edge(v, dec.x):
                    d5 = Clause(False, {"key": (i, j, l), "vertex": v})
                    break

    report.clauses["D1"] = d1
    report.clauses["D3"] = d3
    if eps is not None:
        report.clauses["D4"] = d4
    report.clauses["D5"] = d5

    d6 = Clause(True)
    for u, v in h.sorted_edges():
        ok = any(
            (u in children and v in m) or (v in children and u in m)
            for children, m in spans
        )
        if not ok:
            d6 = Clause(False, {"edge": (u, v)})
            break
    report.clauses["D6"] = d6
    return report


# ---------------------------------------------------------------------------
# S family: the pivot-plus-trees structure


def check_s(
    g: Graph,
    blocked: Iterable[Edge],
    m_set: Iterable[int],
    a1: Iterable[int],
    x: int,
    z: int,
    trees: Sequence[TreeEmbedding],
) -> PropertyReport:
    """S1: the target stays outside every tree. S2: each root hangs off
    the pivot through an unblocked edge. S3: tree arcs are unblocked or
    lead into the tolerated set. S4: leaf-to-target edges are unblocked.
    Plus the structural side conditions: the pivot is reachable from a1
    through an unblocked edge, and the trees are pairwise disjoint and
    avoid the pivot."""
    blk = set(blocked)
    mset = set(m_set)
    a1set = set(a1)
    report = PropertyReport(
        family="S",
        params={"n": g.n, "x": x, "z": z, "count": len(trees)},
    )

    pivot_ok = any(
        g.has_edge(a, z) and edge(a, z) not in blk for a in a1set if a != z
    )
    report.clauses["pivot"] = Clause(
        pivot_ok, None if pivot_ok else {"vertex": z, "reason": "no unblocked edge from a1"}
    )

    s1 = Clause(True)
    s2 = Clause(True)
    s3 = Clause(True)
    s4 = Clause(True)
    for idx, tree in enumerate(trees):
        if s1.passed and x in tree.vertices():
            s1 = Clause(False, {"tree": idx, "vertex": x})
        r = tree.root
        if s2.passed and (not g.has_edge(z, r) or edge(z, r) in blk):
            s2 = Clause(False, {"tree": idx, "root": r})
        if s3.passed:
            for u, w in tree.arcs():
                if not g.has_edge(u, w):
                    s3 = Clause(False, {"tree": idx, "edge": edge(u, w), "reason": "not a graph edge"})
                    break
                if edge(u, w) in blk and w not in mset:
                    s3 = Clause(False, {"tree": idx, "edge": edge(u, w)})
                    break
        if s4.passed:
            for leaf in tree.leaves():
                if not g.has_edge(leaf, x) or edge(leaf, x) in blk:
                    s4 = Clause(False, {"tree": idx, "vertex": leaf})
                    break
    report.clauses["S1"] = s1
    report.clauses["S2"] = s2
    report.clauses["S3"] = s3
    report.clauses["S4"] = s4

    disjoint = Clause(True)
    seen: Dict[int, int] = {}
    for idx, tree in enumerate(trees):
        for v in tree.vertices():
            if v == z:
                disjoint = Clause(False, {"tree": idx, "vertex": v, "reason": "tree contains pivot"})
                break
            if v in seen:
                disjoint = Clause(False, {"tree": idx, "vertex": v, "also_in": seen[v]})
                break
            seen[v] = idx
        if not disjoint.passed:
            break
    report.clauses["disjoint"] = disjoint
    return report


# ---------------------------------------------------------------------------
# Q family: transcript-level isolation audit


def check_q(g: Graph, result: GameResult, dec: BadSetDecomposition) -> PropertyReport:
    """Replays a finished game and audits the isolation defense of dec's
    center: `isolated` holds when the center never joined Connector
    territory, `cleared` when no violation edge survived any of Breaker's
    replies."""
    isolated = Clause(True)
    cleared = Clause(True)
    if dec.x == result.start_vertex:
        isolated = Clause(False, {"round": 0, "reason": "center is the start vertex"})
    for rnd, role, state in replay_states(result, g):
        if isolated.passed and dec.x in state.v_c:
            isolated = Clause(False, {"round": rnd})
        if role == BREAKER and cleared.passed and isolated.passed:
            viol = q_violations(state, dec)
            if viol:
                cleared = Clause(False, {"round": rnd, "edges": [list(e) for e in viol]})
    report = PropertyReport(
        family="Q",
        params={"n": g.n, "x": dec.x, "rounds": result.rounds, "winner": result.winner},
    )
    report.clauses["isolated"] = isolated
    report.clauses["cleared"] = cleared
    return report


# ---------------------------------------------------------------------------
# Degree diagnostics: the typical-board bounds


def check_degree_upper(g: Graph, eps: float) -> PropertyReport:
    """Diagnostic: max degree below 2 * n^(1/3 - eps), the typical bound
    on boards sparse enough for the isolation strategy."""
    bound = 2.0 * g.n ** (1.0 / 3.0 - eps)
    clause = Clause(True, diagnostic=True)
    for v in range(g.n):
        if g.degree(v) >= bound:
            clause = Clause(False, {"vertex": v, "degree": g.degree(v), "bound": bound}, diagnostic=True)
            break
    report = PropertyReport(family="degree-upper", params={"n": g.n, "eps": eps, "bound": bound})
    report.clauses["max-degree"] = clause
    return report


def check_degree_into(g: Graph, a_set: Iterable[int], eps: float) -> PropertyReport:
    """Diagnostic: every vertex outside a_set has more than n^(eps/2)
    neighbors inside it, the typical supply bound on boards dense enough
    for the spanning strategy."""
    aset = set(a_set)
    bound = g.n ** (eps / 2.0)
    clause = Clause(True, diagnostic=True)
    for v in range(g.n):
        if v in aset:
            continue
        d = len(g.neighbors(v) & aset)
        if d <= bound:
            clause = Clause(False, {"vertex": v, "degree": d, "bound": bound}, diagnostic=True)
            break
    report = PropertyReport(family="degree-into", params={"n": g.n, "eps": eps, "bound": bound})
    report.clauses["min-degree"] = clause
    return report
