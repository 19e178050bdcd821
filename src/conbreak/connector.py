"""Connector's tree-guided spanning strategy.

Connector grows her territory one target vertex at a time. For each target
x she first secures a structure that survives Breaker's interference: a
full binary tree rooted in her territory whose leaves all see x, with
every tree edge still claimable. Each round she claims the two edges
entering the next tree level; Breaker's reply can poison at most two of
the four surviving branch pairs, so two good branches always remain and
the tree shrinks by one level per round until a leaf hands her the edge
into x.

Targets come in two alternating flavours: stage I picks the lowest missing
vertex from two fixed reservoirs (a small core A1 and a larger ring A2,
then anything), stage II picks the vertex Breaker has loaded with the most
claimed edges. While A1 is incomplete the structure is a single tree found
by direct search; once A1 sits in territory the structure is a pivot
vertex z adjacent to A1 plus four disjoint trees hanging off z; once A2 is
complete a single free edge into the territory suffices. Any missing
structure is a forfeit: this strategy only promises wins on boards dense
enough to feed it.

The decomposition machinery (`decompose`, `extract_tree`) builds the same
kind of trees from a levelled family of vertex cells around x; it backs
the verifier pipeline.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .engine import GameState, Move
from .errors import ParameterError
from .graph import Edge, Graph, edge, edges_between
from .rng import MASK64, Rng

log = logging.getLogger(__name__)

Position = Tuple[int, int]
CellKey = Tuple[int, int, int]


def tree_positions(k: int) -> List[Position]:
    """All (level, index) positions of the full binary tree with k levels,
    root (k, 1) first, then level by level downward."""
    if k < 1:
        raise ParameterError(f"tree must have at least one level, got k={k}")
    out = []
    for i in range(k, 0, -1):
        for j in range(1, 2 ** (k - i) + 1):
            out.append((i, j))
    return out


@dataclass(frozen=True)
class TreeEmbedding:
    """An injective placement of the full binary tree with k levels.

    Position (i, j) is the j-th node on level i; the root is (k, 1), the
    children of (i, j) are (i-1, 2j-1) and (i-1, 2j), leaves live on
    level 1. `heap` lists the vertices in heap order: node h (root h=1)
    has children 2h and 2h+1, so position (i, j) is node 2^(k-i) + j - 1.
    """

    k: int
    heap: Tuple[int, ...]

    def __post_init__(self):
        if self.k < 1 or len(self.heap) != 2**self.k - 1:
            raise ParameterError(f"embedding does not cover the {self.k}-level tree")
        if len(set(self.heap)) != len(self.heap):
            raise ParameterError("embedding reuses a vertex")

    @staticmethod
    def of(k: int, mapping: Mapping[Position, int]) -> "TreeEmbedding":
        want = tree_positions(k)
        if sorted(mapping) != sorted(want):
            raise ParameterError(f"embedding does not cover the {k}-level tree")
        # tree_positions lists the positions in heap order
        return TreeEmbedding(k, tuple(mapping[pos] for pos in want))

    @property
    def root(self) -> int:
        return self.heap[0]

    def vertex_at(self, i: int, j: int) -> int:
        return self.heap[2 ** (self.k - i) + j - 2]

    def vertices(self) -> FrozenSet[int]:
        return frozenset(self.heap)

    def leaves(self) -> List[int]:
        return list(self.heap[2 ** (self.k - 1) - 1 :])

    def arcs(self) -> List[Tuple[int, int]]:
        """(parent vertex, child vertex) pairs, top level first."""
        t = self.heap
        inner = range(1, 2 ** (self.k - 1))
        return [(t[h - 1], t[c - 1]) for h in inner for c in (2 * h, 2 * h + 1)]

    def subtree(self, i: int, j: int) -> "TreeEmbedding":
        """The embedded subtree rooted at position (i, j), re-indexed so
        its own root is (i, 1)."""
        h = 2 ** (self.k - i) + j - 1
        heap = []
        for d in range(i):
            first = h * 2**d
            heap.extend(self.heap[first - 1 : first - 1 + 2**d])
        return TreeEmbedding(i, tuple(heap))


def validate_embedding(g: Graph, t: TreeEmbedding) -> bool:
    """True when every parent-child pair of the embedding is an edge."""
    return all(g.has_edge(u, w) for u, w in t.arcs())


def _tree_survives(t: TreeEmbedding, x: int, state: GameState) -> bool:
    """Every tree edge is unclaimed by Breaker or already leads into
    territory, and every leaf has an edge to x that Breaker has not
    claimed."""
    g = state.graph
    eb = state.breaker_edges
    vc = state.v_c
    for u, w in t.arcs():
        if edge(u, w) in eb and w not in vc:
            return False
    for leaf in t.leaves():
        if not g.has_edge(leaf, x) or edge(leaf, x) in eb:
            return False
    return True


def is_good_tree(t: TreeEmbedding, x: int, state: GameState) -> bool:
    """A tree is good for reaching x when x is outside it, every tree edge
    is either unclaimed by Breaker or already leads into territory, and
    every leaf has an unblocked edge to x."""
    return (
        x not in t.vertices()
        and validate_embedding(state.graph, t)
        and _tree_survives(t, x, state)
    )


def base_strategy_step(state: GameState, t: TreeEmbedding, x: int) -> Move:
    """One round of tree descent on a good tree whose root is in territory.

    With two levels, finish: take a leaf already in territory straight to
    x, or enter a leaf and continue to x in the same move. With more
    levels, claim the edges from the root to its two children (skipping
    children already in territory); the caller re-selects branches after
    Breaker's reply.
    """
    if x in state.v_c:
        raise ParameterError(f"target {x} is already in Connector territory")
    if t.root not in state.v_c:
        raise ParameterError("tree root is not in Connector territory")
    if not is_good_tree(t, x, state):
        raise ParameterError("tree is not good for this state")
    if t.k == 2:
        for leaf in t.leaves():
            if leaf in state.v_c and state.is_free(edge(leaf, x)):
                return Move((edge(leaf, x),))
        for leaf in t.leaves():
            if state.is_free(edge(t.root, leaf)) and state.is_free(edge(leaf, x)):
                return Move((edge(t.root, leaf), edge(leaf, x)))
        raise ParameterError("no playable leaf on a good two-level tree")
    # heap nodes 2 and 3 are the root's children
    return Move(tuple(edge(t.root, c) for c in t.heap[1:3] if c not in state.v_c))


class _Capped(Exception):
    """Internal: expansion budget exhausted during a structure search."""


def _find_tree(
    g: Graph,
    blocked: Set[Edge],
    root: int,
    x: int,
    k: int,
    rng: Rng,
    budget: List[int],
    tolerate_into: Optional[Set[int]] = None,
    banned: FrozenSet[int] = frozenset(),
) -> Optional[TreeEmbedding]:
    """Backtracking embedding search below a fixed root.

    Arcs must avoid `blocked`, except arcs whose child lies in
    `tolerate_into` when that set is given. Leaves additionally need an
    edge to x avoiding `blocked`. Vertices in `banned`, plus x, are not
    used. `budget` is a one-element list of remaining expansions, shared
    across calls; exhausting it raises _Capped.
    """
    if root == x or root in banned:
        return None
    if k == 1:
        if g.has_edge(root, x) and edge(root, x) not in blocked:
            return TreeEmbedding.of(1, {(1, 1): root})
        return None

    leaf_pool = {
        v
        for v in g.neighbors(x)
        if v != root and v not in banned and edge(v, x) not in blocked
    }
    if len(leaf_pool) < 2 ** (k - 1):
        return None

    positions = tree_positions(k)[1:]
    assign: Dict[Position, int] = {(k, 1): root}
    used = {root}
    order_cache: Dict[int, List[int]] = {}
    rank_cache: Dict[int, Dict[int, int]] = {}

    def ordered_neighbors(u: int) -> List[int]:
        got = order_cache.get(u)
        if got is None:
            got = sorted(g.neighbors(u))
            rng.shuffle(got)
            order_cache[u] = got
            rank_cache[u] = {v: i for i, v in enumerate(got)}
        return got

    def arc_ok(u: int, w: int) -> bool:
        if edge(u, w) not in blocked:
            return True
        return tolerate_into is not None and w in tolerate_into

    def fill(idx: int) -> bool:
        if idx == len(positions):
            return True
        i, j = positions[idx]
        parent = assign[(i + 1, (j + 1) // 2)]
        sibling_rank = -1
        if j % 2 == 0:
            # positions run level by level, so the left sibling is placed
            sibling_rank = rank_cache[parent][assign[(i, j - 1)]]
        for c in ordered_neighbors(parent):
            if budget[0] <= 0:
                raise _Capped()
            budget[0] -= 1
            if c in used or c == x or c in banned:
                continue
            if j % 2 == 0 and rank_cache[parent][c] <= sibling_rank:
                continue
            if i == 1 and c not in leaf_pool:
                continue
            if not arc_ok(parent, c):
                continue
            assign[(i, j)] = c
            used.add(c)
            if fill(idx + 1):
                return True
            del assign[(i, j)]
            used.remove(c)
        return False

    if fill(0):
        return TreeEmbedding.of(k, assign)
    return None


def find_tree_stage1(
    g: Graph,
    blocked: Iterable[Edge],
    root: int,
    x: int,
    k: int,
    seed: int = 0,
    cap: int = 10**6,
) -> Optional[TreeEmbedding]:
    """Search for a k-level tree rooted at `root`, avoiding blocked edges
    entirely, with every leaf adjacent to x through an unblocked edge and
    x outside the tree. Returns None when none is found or when the
    expansion cap runs out (logged)."""
    blk = set(blocked)
    budget = [cap]
    try:
        return _find_tree(g, blk, root, x, k, Rng(seed), budget)
    except _Capped:
        log.debug("stage-1 tree search capped at %d expansions (root=%d x=%d)", cap, root, x)
        return None


def find_structure_stage2(
    g: Graph,
    blocked: Iterable[Edge],
    m_set: Iterable[int],
    a1: Iterable[int],
    x: int,
    k2: int,
    seed: int = 0,
    cap: int = 10**6,
) -> Optional[Tuple[int, List[TreeEmbedding]]]:
    """Search for a pivot z adjacent to A1 through an unblocked edge, plus
    four vertex-disjoint k2-level trees rooted at distinct unblocked
    neighbors of z. Tree arcs may ride a blocked edge only into `m_set`;
    leaf-to-x edges must be unblocked and x stays outside every tree.
    Returns (z, trees) or None (not found, or expansion cap hit)."""
    blk = set(blocked)
    mset = set(m_set)
    a1set = set(a1)
    rng = Rng(seed)
    budget = [cap]

    z_cands = set()
    for a in a1set:
        for w in g.neighbors(a):
            if w != x and w not in a1set and edge(a, w) not in blk:
                z_cands.add(w)
    z_order = sorted(z_cands)
    rng.shuffle(z_order)

    try:
        for z in z_order:
            roots = [
                r
                for r in sorted(g.neighbors(z))
                if r != x and edge(z, r) not in blk
            ]
            rng.shuffle(roots)
            trees: List[TreeEmbedding] = []
            used: Set[int] = {z}
            for r in roots:
                if r in used:
                    continue
                t = _find_tree(
                    g,
                    blk,
                    r,
                    x,
                    k2,
                    rng,
                    budget,
                    tolerate_into=mset,
                    banned=frozenset(used),
                )
                if t is not None:
                    trees.append(t)
                    used |= t.vertices()
                    if len(trees) == 4:
                        return (z, trees)
    except _Capped:
        log.debug("stage-2 structure search capped at %d expansions (x=%d)", cap, x)
        return None
    return None


# ---------------------------------------------------------------------------
# Levelled decomposition around a vertex


def alpha_table(k: int) -> Tuple[int, ...]:
    """The level exponents 1, 4, 10, 22, ...: a(1)=1, a(i+1)=2(a(i)+1)."""
    if k < 1:
        raise ParameterError(f"alpha table needs k >= 1, got {k}")
    return tuple(3 * 2 ** (i - 1) - 2 for i in range(1, k + 1))


def default_size_targets(n: int, eps: float, k: int) -> Tuple[float, ...]:
    """Asymptotic per-level set sizes; far below 1 at desk scale, so real
    runs override them."""
    alphas = alpha_table(k)
    return tuple(
        n ** (1.0 / 3.0 + a * eps) * math.log(n) ** (-2.0 * a) for a in alphas
    )


def cell_keys(k: int) -> List[CellKey]:
    out = []
    for i in range(1, k + 1):
        for j in range(1, 2 ** (k - i) + 1):
            for l in range(1, 5):
                out.append((i, j, l))
    return out


def make_cells(
    n: int, x: int, k: int, seed: int = 0, cell_size: Optional[int] = None
) -> Dict[CellKey, FrozenSet[int]]:
    """Disjoint equal-size vertex cells avoiding x, one per (level, index,
    branch) key; the leftover vertices are simply unused. Cell size
    defaults to n / 2^(k+4) rounded down."""
    keys = cell_keys(k)
    if cell_size is None:
        cell_size = n // 2 ** (k + 4)
    if cell_size < 1:
        raise ParameterError(
            f"cell size {cell_size} is not positive; n={n} is too small for k={k}"
        )
    pool = [v for v in range(n) if v != x]
    if len(keys) * cell_size > len(pool):
        raise ParameterError(
            f"{len(keys)} cells of size {cell_size} exceed the {len(pool)} available vertices"
        )
    rng = Rng(seed)
    rng.shuffle(pool)
    cells = {}
    at = 0
    for key in keys:
        cells[key] = frozenset(pool[at : at + cell_size])
        at += cell_size
    return cells


@dataclass(frozen=True)
class Decomposition:
    """Levelled vertex sets around x with their connecting edge skeleton.

    `msets[(i, j, l)]` is the selected set inside cell (i, j, l); level-0
    references resolve to {x}. `h` is the skeleton graph holding exactly
    the selection edges between consecutive levels (including x's edges to
    level 1)."""

    x: int
    k: int
    n: int
    cells: Tuple[Tuple[CellKey, FrozenSet[int]], ...]
    msets: Tuple[Tuple[CellKey, FrozenSet[int]], ...]
    h: Graph
    targets: Optional[Tuple[float, ...]]

    def cell(self, key: CellKey) -> FrozenSet[int]:
        return dict(self.cells)[key]

    def mset(self, key: CellKey) -> FrozenSet[int]:
        i, j, l = key
        if i == 0:
            return frozenset((self.x,))
        return dict(self.msets)[key]

    def mset_map(self) -> Dict[CellKey, FrozenSet[int]]:
        return dict(self.msets)

    def level_union(self, i: int) -> FrozenSet[int]:
        """All selected vertices on level i (level 0 is {x})."""
        if i == 0:
            return frozenset((self.x,))
        acc: Set[int] = set()
        for (ii, _, _), m in self.msets:
            if ii == i:
                acc |= m
        return frozenset(acc)

    def branch_union(self, l: int) -> FrozenSet[int]:
        """All selected vertices across levels in branch l."""
        acc: Set[int] = set()
        for (_, _, ll), m in self.msets:
            if ll == l:
                acc |= m
        return frozenset(acc)

    def branch_of(self, v: int) -> Optional[int]:
        for (_, _, l), m in self.msets:
            if v in m:
                return l
        return None


def decompose(
    g: Graph,
    x: int,
    cells: Mapping[CellKey, Iterable[int]],
    k: int,
    size_targets: Optional[Sequence[float]] = None,
    seed: int = 0,
) -> Optional[Decomposition]:
    """Select the levelled sets bottom-up and collect their skeleton.

    Level-1 selections are the cell vertices adjacent to x; a level-i
    selection keeps the cell vertices with at least one neighbor in each
    of its two child selections. When a level's size target is given and
    the selection reaches it, the selection is down-sampled (seeded) to
    exactly the target, rounded down. Returns None as soon as any
    selection comes up empty. Cells must be disjoint, equal-sized and
    avoid x."""
    keys = cell_keys(k)
    if set(cells.keys()) != set(keys):
        raise ParameterError("cell keys do not match the (level, index, branch) grid")
    cellmap = {key: frozenset(cells[key]) for key in keys}
    sizes = {len(c) for c in cellmap.values()}
    if len(sizes) > 1:
        raise ParameterError(f"cells are not equal-sized: {sorted(sizes)}")
    seen: Set[int] = set()
    for key, c in cellmap.items():
        if x in c:
            raise ParameterError(f"cell {key} contains the center vertex {x}")
        if c & seen:
            raise ParameterError(f"cell {key} overlaps another cell")
        if any(not (0 <= v < g.n) for v in c):
            raise ParameterError(f"cell {key} has out-of-range vertices")
        seen |= c

    if size_targets is not None and len(size_targets) != k:
        raise ParameterError(f"need one size target per level, got {len(size_targets)}")

    rng = Rng(seed)
    msets: Dict[CellKey, FrozenSet[int]] = {}
    h_edges: Set[Edge] = set()

    def mset_at(i: int, j: int, l: int) -> FrozenSet[int]:
        if i == 0:
            return frozenset((x,))
        return msets[(i, j, l)]

    for i in range(1, k + 1):
        for j in range(1, 2 ** (k - i) + 1):
            for l in range(1, 5):
                c1 = mset_at(i - 1, 2 * j - 1, l)
                c2 = mset_at(i - 1, 2 * j, l)
                picked = sorted(
                    v
                    for v in cellmap[(i, j, l)]
                    if (g.neighbors(v) & c1) and (g.neighbors(v) & c2)
                )
                if not picked:
                    return None
                if size_targets is not None and len(picked) >= size_targets[i - 1]:
                    goal = int(math.floor(size_targets[i - 1]))
                    if goal == 0:
                        return None
                    picked = sorted(rng.sample(picked, goal))
                sel = frozenset(picked)
                msets[(i, j, l)] = sel
                h_edges |= edges_between(g, c1 | c2, sel)

    return Decomposition(
        x=x,
        k=k,
        n=g.n,
        cells=tuple(sorted(cellmap.items())),
        msets=tuple(sorted(msets.items())),
        h=Graph(g.n, h_edges),
        targets=tuple(size_targets) if size_targets is not None else None,
    )


def extract_tree(dec: Decomposition, v: int) -> Optional[TreeEmbedding]:
    """Greedy tree below a top-level selected vertex v, walking the
    skeleton: each node takes its lowest-index skeleton neighbor in each
    child selection. None when some node has no neighbor in a child
    selection."""
    l = None
    for ll in range(1, 5):
        if v in dec.mset((dec.k, 1, ll)):
            l = ll
            break
    if l is None:
        raise ParameterError(f"vertex {v} is not in any top-level selection")
    h = dec.h
    assign: Dict[Position, int] = {(dec.k, 1): v}
    level_nodes = [(dec.k, 1)]
    for i in range(dec.k, 1, -1):
        next_nodes = []
        for (ii, jj) in level_nodes:
            u = assign[(ii, jj)]
            for cj in (2 * jj - 1, 2 * jj):
                pool = sorted(h.neighbors(u) & dec.mset((ii - 1, cj, l)))
                if not pool:
                    return None
                assign[(ii - 1, cj)] = pool[0]
                next_nodes.append((ii - 1, cj))
        level_nodes = next_nodes
    return TreeEmbedding.of(dec.k, assign)


# ---------------------------------------------------------------------------
# Per-game plan and move driver


def tree_depth_for(eps: float, k_cap: int = 4) -> int:
    """Smallest tree depth k >= 2 whose density requirement
    1 / (9 * 2^(k-2) - 3) is at most eps, capped at k_cap. Non-positive
    eps (graphs at or below the base density) gets the cap."""
    if k_cap < 2:
        raise ParameterError(f"depth cap must be at least 2, got {k_cap}")
    if eps <= 0:
        return k_cap
    for k in range(2, k_cap + 1):
        if 1.0 / (9 * 2 ** (k - 2) - 3) <= eps:
            return k
    return k_cap


FORFEIT_NO_STRUCTURE = "connector-no-structure"
FORFEIT_BROKEN = "connector-structure-broken"
FORFEIT_BUDGET = "connector-budget-exceeded"
FORFEIT_NO_EDGE = "connector-no-edge"


@dataclass
class _Branch:
    """A surviving branch: an edge from territory vertex `parent` into
    `child`, plus the embedded subtree hanging below `child`."""

    parent: int
    child: int
    sub: TreeEmbedding


def _root_branches(t: TreeEmbedding) -> List[_Branch]:
    """The two branches below t's root."""
    subs = (t.subtree(t.k - 1, 1), t.subtree(t.k - 1, 2))
    return [_Branch(t.root, sub.root, sub) for sub in subs]


def _branch_good(br: _Branch, x: int, state: GameState) -> bool:
    if br.child not in state.v_c and not state.is_free(edge(br.parent, br.child)):
        return False
    return _tree_survives(br.sub, x, state)


def _two_good(cands: Iterable[_Branch], x: int, state: GameState) -> Optional[List[_Branch]]:
    """The first two candidates still good for reaching x, or None when
    fewer survive (the structure is broken)."""
    good = list(islice((br for br in cands if _branch_good(br, x, state)), 2))
    return good if len(good) == 2 else None


@dataclass
class ConnectorPlan:
    """Mutable per-game strategy state for `connector_move`.

    a1/a2 are the two reservoir vertex sets; k1/k2 the tree depths for the
    two structure cases; budget the per-target round allowance. stage
    alternates between "I" (reservoir fill) and "II" (Breaker-pressure
    relief) each time a target lands in territory. `chase` descends the
    current target's structure once it is acquired."""

    a1: FrozenSet[int]
    a2: FrozenSet[int]
    k1: int
    k2: int
    budget: int
    seed: int = 0
    expansion_cap: int = 10**6
    stage: str = "I"
    target: Optional[int] = None
    rounds_used: int = 0
    chase: Optional[TargetChase] = None
    pending_pivot: Optional[Tuple[int, List[TreeEmbedding]]] = None
    case: int = 0
    vc_order: List[int] = None  # type: ignore[assignment]
    targets_done: int = 0

    def __post_init__(self):
        if self.k1 < 2 or self.k2 < 2:
            raise ParameterError("tree depths must be at least 2")
        if self.vc_order is None:
            self.vc_order = []


def make_plan(
    g: Graph,
    m: int = 2,
    p_hint: Optional[float] = None,
    k_cap: int = 4,
    expansion_cap: int = 10**6,
    seed: int = 0,
) -> ConnectorPlan:
    """Build a plan for one game on g. The density exponent offset eps is
    derived from p_hint (or the empirical edge density when absent) as
    ln(p)/ln(n) + 2/3; it fixes the tree depths and the per-target round
    budget."""
    n = g.n
    if m < 2:
        raise ParameterError(f"the tree strategy needs Connector bias >= 2, got {m}")
    if n >= 3:
        if p_hint is None:
            total = n * (n - 1) // 2
            p_hint = g.edge_count() / total if total else 0.0
        if p_hint > 0 and n > 1:
            eps = math.log(p_hint) / math.log(n) + 2.0 / 3.0
        else:
            eps = 0.0
        k_struct = tree_depth_for(eps, k_cap)
    else:
        k_struct = 2
    a1_size = max(1, math.ceil(n ** (1.0 / 3.0)))
    a1_size = min(a1_size, n)
    a2_size = min(math.ceil(n ** (2.0 / 3.0)), n - a1_size)
    a1 = frozenset(range(a1_size))
    a2 = frozenset(range(a1_size, a1_size + max(a2_size, 0)))
    return ConnectorPlan(
        a1=a1,
        a2=a2,
        k1=k_struct + 1,
        k2=k_struct,
        budget=k_struct + 3,
        seed=seed,
        expansion_cap=expansion_cap,
    )


def select_target(state: GameState, plan: ConnectorPlan) -> int:
    """Stage I: lowest missing vertex from a1, else a2, else anywhere.
    Stage II: the missing vertex with the most Breaker edges, lowest
    index on ties."""
    vc = state.v_c
    if plan.stage == "I":
        for pool in (plan.a1, plan.a2, range(state.graph.n)):
            missing = [v for v in pool if v not in vc]
            if missing:
                return min(missing)
        raise ParameterError("no target: territory already spans the board")
    missing = [v for v in range(state.graph.n) if v not in vc]
    if not missing:
        raise ParameterError("no target: territory already spans the board")
    # max keeps the first, so the lowest index wins ties
    return max(missing, key=state.breaker_degrees.__getitem__)


def _forfeit(reason: str) -> Move:
    return Move((), flags=(reason,), forfeit=True)


def connector_move(state: GameState, plan: ConnectorPlan) -> Move:
    """Propose Connector's next move, advancing the plan in place.

    Per round: refresh bookkeeping, grab a free edge straight into the
    target when one exists, otherwise acquire the target's structure and
    hand its first two branches to a TargetChase, which descends one level
    per round. A missing or broken structure, or a blown round budget, is
    an explicit forfeit carrying a reason flag."""
    g = state.graph
    vc = state.v_c
    for v in sorted(vc.difference(plan.vc_order)):
        plan.vc_order.append(v)

    if plan.target is not None and plan.target in vc:
        plan.stage = "II" if plan.stage == "I" else "I"
        plan.target = None
        plan.targets_done += 1

    if len(vc) == g.n:
        return Move(())
    if not vc:
        # free opening: no territory constraint yet, grab the lowest edge
        opening = state.lowest_free(1)
        return Move(tuple(opening)) if opening else _forfeit(FORFEIT_NO_EDGE)

    if plan.target is None:
        plan.target = select_target(state, plan)
        plan.rounds_used = 0
        plan.chase = None
        plan.pending_pivot = None
        if not plan.a1 <= vc:
            plan.case = 1
        elif not plan.a2 <= vc:
            plan.case = 2
        else:
            plan.case = 3

    x = plan.target
    search_seed = (plan.seed + plan.targets_done) & MASK64
    plan.rounds_used += 1
    if plan.rounds_used > plan.budget:
        return _forfeit(FORFEIT_BUDGET)

    # a free edge straight into the target beats any structure; prefer the
    # a2 reservoir side so the endgame case stays on its guaranteed supply
    for pool in (sorted(g.neighbors(x) & plan.a2), sorted(g.neighbors(x) - plan.a2)):
        for w in pool:
            if w in vc and state.is_free(edge(w, x)):
                return Move((edge(w, x),))

    if plan.case == 3:
        # every reservoir is in territory; a single free edge must exist
        return _forfeit(FORFEIT_NO_EDGE)

    if plan.chase is None:
        if plan.case == 1:
            budget = [plan.expansion_cap]
            tree = None
            try:
                for r in plan.vc_order:
                    tree = _find_tree(
                        g,
                        set(state.breaker_edges),
                        r,
                        x,
                        plan.k1,
                        Rng(search_seed),
                        budget,
                    )
                    if tree is not None:
                        break
            except _Capped:
                log.debug("stage-1 acquisition capped (target=%d)", x)
                tree = None
            if tree is None:
                return _forfeit(FORFEIT_NO_STRUCTURE)
            branches = _root_branches(tree)
        else:
            if plan.pending_pivot is not None:
                found, plan.pending_pivot = plan.pending_pivot, None
                if found[0] not in vc:
                    return _forfeit(FORFEIT_BROKEN)
            else:
                found = find_structure_stage2(
                    g,
                    state.breaker_edges,
                    vc,
                    plan.a1,
                    x,
                    plan.k2,
                    seed=search_seed,
                    cap=plan.expansion_cap,
                )
                if found is None:
                    return _forfeit(FORFEIT_NO_STRUCTURE)
                z = found[0]
                if z not in vc:
                    # claim the pivot first; its trees are checked next round
                    for a in sorted(plan.a1 & vc):
                        if a != z and g.has_edge(a, z) and state.is_free(edge(a, z)):
                            plan.pending_pivot = found
                            return Move((edge(a, z),))
                    return _forfeit(FORFEIT_BROKEN)
            z, trees = found
            branches = _two_good([_Branch(z, t.root, t) for t in trees], x, state)
            if branches is None:
                return _forfeit(FORFEIT_BROKEN)
        plan.chase = TargetChase(None, x, branches)
    return plan.chase.step(state)


@dataclass
class TargetChase:
    """Drives one good tree toward a single target vertex, one proposed
    move per Connector turn, following the recursive branch descent.

    The first call claims the entry edges of the root's two branches (or
    finishes outright from a depth-2 tree); each later call re-selects two
    branches the Breaker left intact, descends one level, and finishes by
    claiming a leaf-to-target edge. Proposals are forfeits (with a reason
    flag) when fewer than two branches survive a reply, which cannot
    happen against a Breaker bound by bias 2 while the tree was good.

    `connector_move` starts its chases past the first move, with no tree
    and the two `branches` whose entry edges it claims next.
    """

    tree: Optional[TreeEmbedding]
    x: int
    branches: Optional[List[_Branch]] = None
    needs_expand: bool = False

    def __post_init__(self):
        if self.tree is not None and self.x in self.tree.vertices():
            raise ParameterError(f"target {self.x} lies inside the tree")

    def copy(self) -> "TargetChase":
        return replace(self, branches=None if self.branches is None else list(self.branches))

    def done(self, state: GameState) -> bool:
        return self.x in state.v_c

    def propose(self, state: GameState) -> Move:
        if self.x in state.v_c:
            return Move(())
        if self.branches is None:
            move = base_strategy_step(state, self.tree, self.x)
            if self.tree.k > 2:
                self.branches = _root_branches(self.tree)
                self.needs_expand = True
            return move
        return self.step(state)

    def step(self, state: GameState) -> Move:
        """One round of descent from the held branches: after Breaker's
        reply to a level claim, re-select two good branches one level
        down; then finish from depth 1 or claim the next entry edges."""
        vc = state.v_c
        x = self.x
        if self.needs_expand:
            self.needs_expand = False
            cands = [b for br in self.branches if br.child in vc for b in _root_branches(br.sub)]
            good = _two_good(cands, x, state)
            if good is None:
                return _forfeit(FORFEIT_BROKEN)
            self.branches = good
        if self.branches[0].sub.k == 1:
            for br in self.branches:
                leaf = br.child
                lx = edge(leaf, x)
                if leaf in vc and state.is_free(lx):
                    return Move((lx,))
                pe = edge(br.parent, leaf)
                if state.is_free(pe) and state.is_free(lx):
                    return Move((pe, lx))
            return _forfeit(FORFEIT_BROKEN)
        claims = []
        for br in self.branches:
            if br.child not in vc:
                pe = edge(br.parent, br.child)
                if not state.is_free(pe):
                    return _forfeit(FORFEIT_BROKEN)
                claims.append(pe)
        self.needs_expand = True
        return Move(tuple(claims))
