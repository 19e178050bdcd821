"""Deterministic checkers for the structural invariant families.

Each checker evaluates one lettered clause family literally against a
graph and the relevant structures, returning a PropertyReport: one
verdict per clause, a concrete re-checkable witness for every false
verdict, and the numeric parameters used. Checkers are pure functions;
nothing here mutates game state. B checks the paper Breaker's bad-set
layering (`find_candidate` runs it on every candidate), D the
Connector's levelled decomposition, and Q walks a finished game's
transcript to audit the isolation defense.

D4 encodes an asymptotic degree bound: its threshold is evaluated
exactly at the given (n, eps), yet small boards routinely miss it, so it
is marked diagnostic and `all_passed` ignores it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from .breaker import BadSetDecomposition, _check_vertices
from .connector import Decomposition, alpha_table
from .engine import BREAKER, CONNECTOR, GameResult
from .errors import ParameterError
from .graph import Edge, Graph, edge, is_integer

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
        for v in g.row(u):
            if u < v and v in vertices:
                return (u, v)
    return None


def _mask(g: Graph, vertices: Iterable[int]) -> np.ndarray:
    out = np.zeros(g.n, dtype=bool)
    out[list(vertices)] = True
    return out


# ---------------------------------------------------------------------------
# B family: one bad-set decomposition against a protected set


def check_b(g: Graph, dec: BadSetDecomposition, m_set: Iterable[int]) -> PropertyReport:
    """B1: the first layer is exactly the center's neighborhood and spans
    no edge. B2: every deeper-layer vertex has exactly two neighbors
    among the layers up to its own. B3: every vertex outside the bad set
    (and not the center) sees at most one bad vertex. B4: the bad set
    avoids the protected set and its neighborhood."""
    x = dec.x
    if not (is_integer(x) and 0 <= x < g.n):
        raise ParameterError(f"center {x!r} is not a vertex of the board")
    mset = set(_check_vertices(g, "protected", m_set))
    bad = dec.union
    _check_vertices(g, "bad", bad)
    report = PropertyReport(
        family="B",
        params={"n": g.n, "x": x, "m": sorted(mset), "r_x": dec.r_x},
    )

    first = set(dec.layers[0])
    nx = set(g.row(x))
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
    union = _mask(g, first)
    for i, layer in enumerate(dec.layers[1:], start=2):
        members = sorted(layer)
        union[members] = True
        deg = g.counts_in(union)
        wrong = [v for v in members if deg[v] != 2]
        if wrong:
            b2 = Clause(False, {"vertex": wrong[0], "layer": i, "degree": int(deg[wrong[0]])})
            break
    report.clauses["B2"] = b2

    b3 = Clause(True)
    bad_mask = _mask(g, bad)
    deg = g.counts_in(bad_mask)
    outside = ~bad_mask
    outside[x] = False
    hits = np.flatnonzero(outside & (deg > 1))
    if len(hits):
        b3 = Clause(False, {"vertex": int(hits[0]), "degree": int(deg[hits[0]])})
    report.clauses["B3"] = b3

    closed = set(mset)
    for u in mset:
        closed.update(g.row(u))
    overlap = bad & closed
    if overlap:
        report.clauses["B4"] = Clause(False, {"vertex": min(overlap)})
    else:
        report.clauses["B4"] = Clause(True)
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
                    row = h.row(v)
                    if c1.isdisjoint(row) or c2.isdisjoint(row):
                        d3 = Clause(False, {"key": (i, j, l), "vertex": v})
                        break
            if eps is not None and d4.passed:
                bound = n ** ((alphas[i - 1] - alphas[i - 2]) * eps)
                for v in sorted(set(c1) | set(c2)):
                    d = sum(w in m for w in h.row(v))
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
# Q family: transcript-level isolation audit


def check_q(g: Graph, result: GameResult, dec: BadSetDecomposition) -> PropertyReport:
    """Audit the isolation defense of dec's center x in one walk over the
    transcript `run_game` checked; a move out of turn raises ParameterError.
    `isolated`: x never joined Connector territory. `cleared`: no Breaker
    reply made while x was outside left a `breaker.q_violations` edge free."""
    moves = result.transcript
    never = len(moves)
    joined = {} if result.start_vertex is None else {result.start_vertex: -1}
    claimed: Dict[Edge, int] = {}  # edge -> index of the move claiming it
    for i, (rnd, role, edges) in enumerate(moves):
        if role != (BREAKER if i % 2 else CONNECTOR):
            raise ParameterError(f"transcript out of turn at round {rnd}: {role} cannot move")
        for e in edges:
            claimed[e] = i
            if role == CONNECTOR:
                joined.setdefault(e[0], i)
                joined.setdefault(e[1], i)
    isolated = cleared = Clause(True)
    end = joined.get(dec.x, never)
    if dec.x == result.start_vertex:
        isolated = Clause(False, {"round": 0, "reason": "center is the start vertex"})
    elif end < never:
        isolated = Clause(False, {"round": moves[end][0]})
    # an edge vw from a layer vertex v to a w on no strictly earlier layer
    # (or off the layers) is a violation after Breaker move t exactly when
    # joined[w] <= t < min(joined[v], claimed[vw], joined[x]); as w joined at
    # -1 or an even index, t0 = max(joined[w] + 1, 1) is Breaker's next move
    levels = dec.levels
    spans = []
    for v, lv in levels.items():
        for w in g.row(v):
            if w in joined and levels.get(w, lv) >= lv:
                e = edge(v, w)
                hi = min(joined.get(v, never), claimed.get(e, never), end)
                spans.append((max(joined[w] + 1, 1), hi, e))
    first = min((t0 for t0, hi, _ in spans if t0 < hi), default=never)
    if first < never:
        viol = sorted({e for t0, hi, e in spans if t0 <= first < hi})
        cleared = Clause(False, {"round": moves[first][0], "edges": [list(e) for e in viol]})
    params = {"n": g.n, "x": dec.x, "rounds": result.rounds, "winner": result.winner}
    return PropertyReport("Q", params, {"isolated": isolated, "cleared": cleared})
