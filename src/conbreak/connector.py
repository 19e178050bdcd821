"""Connector's tree-guided spanning strategy.

Connector grows her territory one target vertex at a time. For each target
x she first secures a structure that survives Breaker's interference: a
full binary tree rooted in her territory whose leaves all see x, with
every tree edge still claimable. Each round she claims the two edges
entering the next tree level; Breaker's reply can poison at most two of
the four branches below them, so two good branches always remain and
the tree shrinks by one level per round until a leaf hands her the edge
into x. A branch is named by its node index in the tree the search
returned, and each round assumes her previous move was applied to the
position it is given.

Targets come in two alternating flavours, by the parity of the number of
targets reached: stage I picks the lowest missing vertex, stage II the
vertex Breaker has loaded with the most claimed edges. Two reservoirs, a
small core A1 and a larger ring A2, are the lowest vertex ids, so the
lowest missing vertex also tells how far they are filled. While A1 is
incomplete the structure is a single tree found by direct search; once A1
sits in territory the structure is a pivot vertex z adjacent to A1 plus
four disjoint trees hanging off z; once A2 is complete a single free edge
into the territory suffices. Any missing structure is a forfeit: this
strategy only promises wins on boards dense enough to feed it.
"""

from __future__ import annotations

import heapq
import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from .engine import BREAKER, GameState, Move, check_biases
from .errors import ParameterError
from .graph import Edge, Graph, edge, edges_between
from .rng import MASK64, Rng

log = logging.getLogger(__name__)

CellKey = Tuple[int, int, int]

# budget of search expansions per structure
EXPANSION_CAP = 10**6


@dataclass(frozen=True)
class TreeEmbedding:
    """An injective placement of the full binary tree with k levels, in
    heap order: node h (root h=1) sits on vertex heap[h-1] and has
    children 2h and 2h+1; the leaves are the nodes h >= 2^(k-1)."""

    k: int
    heap: Tuple[int, ...]

    def __post_init__(self):
        if self.k < 1 or len(self.heap) != 2**self.k - 1:
            raise ParameterError(f"embedding does not cover the {self.k}-level tree")
        if len(set(self.heap)) != len(self.heap):
            raise ParameterError("embedding reuses a vertex")

    @property
    def root(self) -> int:
        return self.heap[0]

    def vertices(self) -> FrozenSet[int]:
        return frozenset(self.heap)


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
    """Backtracking search for a k-level tree (k >= 2) below a fixed
    root, placing nodes 2 .. 2^k-1 in heap order, each from its parent's
    shuffled neighbor order.

    Arcs must avoid `blocked`, except arcs whose child lies in
    `tolerate_into` when that set is given. Leaves additionally need an
    edge to x avoiding `blocked`. Vertices in `banned`, plus x, are not
    used. `budget` is a one-element list of remaining expansions, shared
    across calls; exhausting it raises _Capped.

    Every candidate a scan passes costs one expansion. A scan visits only
    the positions whose vertex passes the filters fixed for the call (one
    list per parent and leaf-or-inner level) and charges the candidates it
    skips in bulk: reaching position `at` from `cur` costs at - cur + 1,
    and the tail past the last such position costs the rest of the order.
    A charge the budget cannot cover sets it to 0 and raises _Capped, as
    one charge per candidate would; a right child's skipped prefix is
    charged up front and, if uncovered, raises with the budget untouched.

    A leaf pair is doomed when its parent P has fewer than two free
    leaves, i.e. potential leaves (P's leaf-pool neighbours through an
    allowed arc, fixed for the call) not yet placed. Two rules charge
    what walking doomed pairs would cost instead of walking them, and
    draw P's shuffle where the walk would first scan P's order (len L):
    - B: if the parent P of the left leaf h+1 has at most one free leaf
      before node h's scan, every unused candidate costs its reach plus
      its pair's cost, L or 2L, so the scan is charged at once: up to the
      first unused candidate, then P's draw, then the rest. With one free
      leaf this needs the budget to cover the whole scan, or the walk's
      right-leaf prefix might have capped; otherwise the scan is walked.
    - C: at node 2^(k-1) - 2 (k >= 4), when the first leaf parent P0 has
      no free leaf, the scan and its right siblings' scans (rule B) cost
      (N + 1)L + deg(P0)N(N-1)/2 for N unused candidates in an order of
      length L, with P0's shuffle drawn if N >= 2. They are one charge
      when the budget covers it, and are walked otherwise, so that a cap
      fires where it would.
    Walking is the reference: every placement, charge, cap and Rng draw
    is the walk's.
    """
    if root == x or root in banned:
        return None
    leaf_pool = {
        v
        for v in g.row(x)
        if v != root and v not in banned and edge(v, x) not in blocked
    }
    if len(leaf_pool) < 2 ** (k - 1):
        return None

    first_leaf = 2 ** (k - 1)
    heap = [root]
    # picked[h-1]: where node h's vertex sits in its parent's order
    picked = [0]
    never = {root, x, *banned}
    used = set(never)
    order_cache: Dict[int, List[int]] = {}
    # (parent, leaf level?) -> the parent's shuffled order and the ascending
    # positions in it whose vertex passes every filter but `used`
    scans: Dict[Tuple[int, bool], Tuple[List[int], List[int]]] = {}
    # vertex -> its potential leaves; they need no shuffle, so no draw
    potential: Dict[int, List[int]] = {}

    def fits(u: int, c: int, leaf: bool) -> bool:
        """Whether c passes every filter fixed for the call below u."""
        if c in never or (leaf and c not in leaf_pool):
            return False
        return edge(u, c) not in blocked or (tolerate_into is not None and c in tolerate_into)

    def order_of(u: int) -> List[int]:
        order = order_cache.get(u)
        if order is None:
            order = list(g.row(u))
            rng.shuffle(order)
            order_cache[u] = order
        return order

    def scan(u: int, leaf: bool) -> Tuple[List[int], List[int]]:
        order = order_of(u)
        good = [at for at, c in enumerate(order) if fits(u, c, leaf)]
        scans[(u, leaf)] = order, good
        return order, good

    def free_leaves(p: int, most: int) -> List[int]:
        """Up to `most` of p's potential leaves that are not placed."""
        pot = potential.get(p)
        if pot is None:
            pot = potential[p] = [w for w in g.row(p) if fits(p, w, True)]
        return list(islice((w for w in pot if w not in used), most))

    def charge(n: int) -> None:
        if budget[0] < n:
            budget[0] = 0
            raise _Capped()
        budget[0] -= n

    def fill(h: int) -> bool:
        if h == 2 * first_leaf:
            return True
        key = (heap[h // 2 - 1], h >= first_leaf)
        order, good = scans.get(key) or scan(*key)
        cur = 0
        if h % 2:
            # a right child comes after its left sibling in the parent's
            # order; the skipped prefix still costs one expansion a vertex,
            # and one the budget cannot cover raises with the budget untouched
            cur = picked[h - 2] + 1
            if budget[0] < cur:
                raise _Capped()
            budget[0] -= cur
        # used stays as it is across this scan: each candidate placed below
        # is removed again before the next
        unused = [at for at in islice(good, bisect_left(good, cur), None) if order[at] not in used]
        if h % 2 and first_leaf <= h + 1 < 2 * first_leaf:
            # node h+1 is the left leaf below p, node (h+1)/2
            p = heap[h // 2]
            free = free_leaves(p, 2)
            if len(free) < 2 and unused:
                # rule B: every candidate's pair is doomed and costs p's
                # order once, or twice when a free leaf is left beside it
                pairs = len(unused) * (1 + len(free)) - sum(order[at] in free for at in unused)
                cost = len(order) - cur + len(g.row(p)) * pairs
                if not free or budget[0] >= cost:
                    reach = unused[0] - cur + 1
                    charge(reach)
                    order_of(p)
                    charge(cost - reach)
                    return False
        elif k >= 4 and h == first_leaf - 2:
            # rule C; node h is a left child, so cur is 0
            p0 = heap[first_leaf // 2 - 1]
            n = len(unused)
            cost = (n + 1) * len(order) + len(g.row(p0)) * n * (n - 1) // 2
            if budget[0] >= cost and not free_leaves(p0, 1):
                if n >= 2:
                    order_of(p0)
                budget[0] -= cost
                return False
        for at in unused:
            # the candidates from cur through at, skipped or not
            charge(at - cur + 1)
            cur = at + 1
            c = order[at]
            heap.append(c)
            picked.append(at)
            used.add(c)
            if fill(h + 1):
                return True
            heap.pop()
            picked.pop()
            used.remove(c)
        charge(len(order) - cur)
        return False

    try:
        if fill(2):
            return TreeEmbedding(k, tuple(heap))
        return None
    finally:
        # fill refers to itself; unbinding it lets the search state go now
        # rather than at the next full garbage collection
        del fill


def find_tree_stage1(
    g: Graph,
    blocked: Set[Edge],
    roots: Iterable[int],
    x: int,
    k: int,
    seed: int = 0,
) -> Optional[TreeEmbedding]:
    """The first k-level tree rooted at one of `roots`, tried in order:
    every arc avoids `blocked` (read in place, not copied), every leaf has
    an unblocked edge to x, and x stays outside the tree. Each root's
    search draws from a fresh Rng(seed); all roots share one budget of
    EXPANSION_CAP expansions, read at the call. Returns None when no root
    has a tree or when the cap runs out (logged), even if a later root
    has one."""
    if k < 2:
        raise ParameterError(f"tree search needs k >= 2 levels, got {k}")
    budget = [EXPANSION_CAP]
    try:
        for r in roots:
            tree = _find_tree(g, blocked, r, x, k, Rng(seed), budget)
            if tree is not None:
                return tree
    except _Capped:
        log.debug("stage-1 tree search capped at %d expansions (x=%d)", EXPANSION_CAP, x)
    return None


def find_structure_stage2(
    g: Graph,
    blocked: Set[Edge],
    m_set: Set[int],
    a1: Iterable[int],
    x: int,
    k2: int,
    seed: int = 0,
) -> Optional[Tuple[int, List[TreeEmbedding]]]:
    """Search for a pivot z adjacent to A1 through an unblocked edge, plus
    four vertex-disjoint k2-level trees rooted at distinct unblocked
    neighbors of z. Tree arcs may ride a blocked edge only into `m_set`;
    leaf-to-x edges must be unblocked and x stays outside every tree.
    `blocked` and `m_set` are read in place, not copied. Returns
    (z, trees) or None (not found, or the EXPANSION_CAP budget, read at
    the call, ran out)."""
    if k2 < 2:
        raise ParameterError(f"tree search needs k2 >= 2 levels, got {k2}")
    a1set = set(a1)
    rng = Rng(seed)
    budget = [EXPANSION_CAP]

    z_cands = set()
    for a in a1set:
        for w in g.row(a):
            if w != x and w not in a1set and edge(a, w) not in blocked:
                z_cands.add(w)
    z_order = sorted(z_cands)
    rng.shuffle(z_order)

    try:
        for z in z_order:
            roots = [r for r in g.row(z) if r != x and edge(z, r) not in blocked]
            rng.shuffle(roots)
            trees: List[TreeEmbedding] = []
            # a root already in a tree is banned: _find_tree refuses it
            # before any draw or charge
            used = frozenset((z,))
            for r in roots:
                t = _find_tree(
                    g, blocked, r, x, k2, rng, budget, tolerate_into=m_set, banned=used
                )
                if t is not None:
                    trees.append(t)
                    used |= t.vertices()
                    if len(trees) == 4:
                        return (z, trees)
    except _Capped:
        log.debug("stage-2 structure search capped at %d expansions (x=%d)", EXPANSION_CAP, x)
        return None
    return None


# ---------------------------------------------------------------------------
# Levelled decomposition around a vertex


def alpha_table(k: int) -> Tuple[int, ...]:
    """The level exponents 1, 4, 10, 22, ...: a(1)=1, a(i+1)=2(a(i)+1)."""
    if k < 1:
        raise ParameterError(f"alpha table needs k >= 1, got {k}")
    return tuple(3 * 2 ** (i - 1) - 2 for i in range(1, k + 1))


def cell_keys(k: int) -> List[CellKey]:
    out = []
    for i in range(1, k + 1):
        for j in range(1, 2 ** (k - i) + 1):
            for l in range(1, 5):
                out.append((i, j, l))
    return out


def make_cells(n: int, x: int, k: int, seed: int = 0) -> Dict[CellKey, FrozenSet[int]]:
    """Disjoint equal-size vertex cells avoiding x, one per (level, index,
    branch) key; the leftover vertices are simply unused. Cells hold
    n / 2^(k+4) vertices, rounded down, so the 4(2^k - 1) of them never
    use more than n/4 vertices."""
    if not 0 <= x < n:
        raise ParameterError(f"center vertex {x} is not on the {n}-vertex board")
    if k < 1:
        raise ParameterError(f"decomposition depth must be at least 1, got k={k}")
    # a shift takes O(1) time for any k, where 2 ** (k + 4) grows with k;
    # checked before cell_keys builds its 4(2^k - 1) keys
    cell_size = n >> (k + 4)
    if cell_size < 1:
        raise ParameterError(
            f"cell size {cell_size} is not positive; n={n} is too small for k={k}"
        )
    keys = cell_keys(k)
    pool = [v for v in range(n) if v != x]
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

    # lookup tables, built once on first use; a cached_property lives in
    # the instance dict, outside the dataclass fields, == and hash
    @cached_property
    def _cell_table(self) -> Dict[CellKey, FrozenSet[int]]:
        return dict(self.cells)

    @cached_property
    def _mset_table(self) -> Dict[CellKey, FrozenSet[int]]:
        return dict(self.msets)

    def cell(self, key: CellKey) -> FrozenSet[int]:
        return self._cell_table[key]

    def mset(self, key: CellKey) -> FrozenSet[int]:
        i, j, l = key
        if i == 0:
            return frozenset((self.x,))
        return self._mset_table[key]


def decompose(
    g: Graph,
    x: int,
    cells: Mapping[CellKey, Iterable[int]],
    k: int,
    seed: int = 0,
) -> Optional[Decomposition]:
    """Select the levelled sets bottom-up and collect their skeleton.

    Level-1 selections are the cell vertices adjacent to x; a level-i
    selection keeps the cell vertices with at least one neighbor in each
    of its two child selections. Returns None as soon as any selection
    comes up empty. Cells must be disjoint, equal-sized and avoid x.
    The selection draws nothing at random: `seed` is accepted and
    ignored, because benchmark and acceptance callers still pass it."""
    if not 0 <= x < g.n:
        raise ParameterError(f"center vertex {x} is not on the {g.n}-vertex board")
    if k < 1:
        raise ParameterError(f"decomposition depth must be at least 1, got k={k}")
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
                sel = frozenset(
                    v
                    for v in cellmap[(i, j, l)]
                    if not c1.isdisjoint(g.row(v)) and not c2.isdisjoint(g.row(v))
                )
                if not sel:
                    return None
                msets[(i, j, l)] = sel
                h_edges |= edges_between(g, c1 | c2, sel)

    return Decomposition(
        x=x,
        k=k,
        n=g.n,
        cells=tuple(sorted(cellmap.items())),
        msets=tuple(sorted(msets.items())),
        h=Graph(g.n, h_edges),
    )


# ---------------------------------------------------------------------------
# Per-game plan and move driver


# the largest depth tree_depth_for picks, whatever the density
K_CAP = 4


def tree_depth_for(eps: float) -> int:
    """Smallest tree depth k >= 2 whose density requirement
    1 / (9 * 2^(k-2) - 3) is at most eps, capped at K_CAP. Non-positive
    eps (graphs at or below the base density) gets the cap."""
    if eps <= 0:
        return K_CAP
    for k in range(2, K_CAP + 1):
        if 1.0 / (9 * 2 ** (k - 2) - 3) <= eps:
            return k
    return K_CAP


FORFEIT_NO_STRUCTURE = "connector-no-structure"
FORFEIT_BROKEN = "connector-structure-broken"
FORFEIT_BUDGET = "connector-budget-exceeded"
FORFEIT_NO_EDGE = "connector-no-edge"


# A branch (v, t, h) is node h of tree t entered from vertex v by the
# edge (v, t.heap[h-1]), and covers t's subtree below node h. v is in
# territory by the time a step picks the branch.
Branch = Tuple[int, TreeEmbedding, int]


def _branch_good(br: Branch, x: int, state: GameState) -> bool:
    """Whether a branch can still lead to x: its entry edge and every arc
    below node h is unclaimed by Breaker or leads into territory, and
    every leaf below h has an edge to x that Breaker has not claimed. One
    walk down the levels of the subtree."""
    v, t, h = br
    heap = t.heap
    eb = state.breaker_edges
    vc = state.v_c
    first_leaf = 1 << (t.k - 1)
    # (parent vertex, node) for every node of the current level
    level = [(v, h)]
    while True:
        for u, c in level:
            w = heap[c - 1]
            if w not in vc and edge(u, w) in eb:
                return False
        if level[0][1] >= first_leaf:
            break
        level = [(heap[c - 1], d) for _, c in level for d in (2 * c, 2 * c + 1)]
    g = state.graph
    return all(
        g.has_edge(heap[c - 1], x) and edge(heap[c - 1], x) not in eb for _, c in level
    )


def _two_good(cands: Iterable[Branch], x: int, state: GameState) -> Optional[List[Branch]]:
    """The first two candidates still good for reaching x, or None when
    fewer survive (the structure is broken)."""
    good = list(islice((br for br in cands if _branch_good(br, x, state)), 2))
    return good if len(good) == 2 else None


@dataclass
class ConnectorPlan:
    """Mutable per-game strategy state for `connector_move`.

    a1/a2 are the two reservoirs, the lowest vertex ids; k the structure
    depth, from which follow the tree depths k1/k2 of the two structure
    cases and the per-target round allowance `budget`. `stage` is "I"
    (reservoir fill) or "II" (Breaker-pressure relief) by the parity of
    `targets_done`, the number of targets that have landed in territory.
    `case` is the structure case of the current target, set at its
    selection. `chase` descends the current target's structure from the
    round that acquires it; in case 2 that round may claim only the
    pivot's edge. `vc_order` lists the territory, each batch of new
    vertices sorted, as the case-1 roots. Each round assumes the move the
    plan proposed last was applied to the position it is given.

    `select_target` keeps its per-game state here, outside equality:
    `low`, the lowest vertex outside territory (territory only grows, so
    it only moves forward), and for stage II the Breaker `degrees` it
    counts, the number `moves_read` of `GameState.moves` entries counted
    and the min-heap of the ints v - deg(v) * n. Such an int orders as the
    pair (-deg(v), v), and divmod by n gives that pair back."""

    a1: range
    a2: range
    k: int
    seed: int = 0
    target: Optional[int] = None
    rounds_used: int = 0
    chase: Optional[TargetChase] = None
    case: int = 0
    vc_order: List[int] = field(default_factory=list)
    targets_done: int = 0
    low: int = field(default=0, repr=False, compare=False)
    degrees: Optional[List[int]] = field(default=None, repr=False, compare=False)
    degree_heap: Optional[List[int]] = field(default=None, repr=False, compare=False)
    moves_read: int = field(default=0, repr=False, compare=False)

    @property
    def stage(self) -> str:
        return "II" if self.targets_done % 2 else "I"

    @property
    def k1(self) -> int:
        return self.k + 1

    @property
    def k2(self) -> int:
        return self.k

    @property
    def budget(self) -> int:
        return self.k + 3


def check_bias(m: int) -> None:
    """Refuse a Connector bias the tree strategy cannot play: each of its
    rounds claims two edges."""
    check_biases(m)
    if m < 2:
        raise ParameterError(f"the tree strategy needs Connector bias >= 2, got {m}")


def make_plan(
    g: Graph,
    m: int = 2,
    p_hint: Optional[float] = None,
    seed: int = 0,
) -> ConnectorPlan:
    """Build a plan for one game on g. The density exponent offset eps is
    derived from p_hint (or the empirical edge density when absent) as
    ln(p)/ln(n) + 2/3; it fixes the tree depths and the per-target round
    budget."""
    n = g.n
    check_bias(m)
    if n >= 3:
        if p_hint is None:
            p_hint = g.edge_count() / (n * (n - 1) // 2)
        if p_hint > 0:
            eps = math.log(p_hint) / math.log(n) + 2.0 / 3.0
        else:
            eps = 0.0
        k_struct = tree_depth_for(eps)
    else:
        k_struct = 2
    a1_size = min(max(1, math.ceil(n ** (1.0 / 3.0))), n)
    a2_size = min(math.ceil(n ** (2.0 / 3.0)), n - a1_size)
    a1 = range(a1_size)
    a2 = range(a1_size, a1_size + a2_size)
    return ConnectorPlan(a1=a1, a2=a2, k=k_struct, seed=seed)


def select_target(state: GameState, plan: ConnectorPlan) -> int:
    """Stage I: the lowest missing vertex, which is the lowest missing
    vertex of a1, else of a2, else of the board, as the reservoirs are the
    lowest ids. Stage II: the missing vertex with the most Breaker edges,
    lowest index on ties. Either way the plan's case follows from where
    the lowest missing vertex falls: 1 in a1, 2 in a2, 3 past them.

    The states passed to one plan must be successive positions of one
    game: the lowest missing vertex is a cursor `low` that moves past
    territory, and stage II reads a lazy heap of ints v - deg(v) * n,
    which order as (-deg(v), v). The plan counts the degrees: its first
    stage-II call from `state.breaker_edges`, each later call from the
    Breaker moves applied since, pushing one entry at the count so far
    per outside endpoint of each claim. An entry is dropped when its
    vertex has joined the territory or gained Breaker edges since (a
    newer entry holds the new degree)."""
    vc = state.v_c
    n = state.graph.n
    low = plan.low
    while low < n and low in vc:
        low += 1
    plan.low = low
    if low == n:
        raise ParameterError("no target: territory already spans the board")
    plan.case = 1 if low in plan.a1 else 2 if low in plan.a2 else 3
    if plan.stage == "I":
        return low
    heap = plan.degree_heap
    if heap is None:
        deg = plan.degrees = [0] * n
        for u, w in state.breaker_edges:
            deg[u] += 1
            deg[w] += 1
        heap = plan.degree_heap = [v - deg[v] * n for v in range(n) if v not in vc]
        heapq.heapify(heap)
    else:
        deg = plan.degrees
        for _, role, edges in state.moves[plan.moves_read:]:
            if role == BREAKER:
                for e in edges:
                    for w in e:
                        deg[w] += 1
                        if w not in vc:
                            heapq.heappush(heap, w - deg[w] * n)
    plan.moves_read = len(state.moves)
    # every missing vertex has an entry with its current degree, and low
    # is missing, so the heap holds a live entry
    while True:
        d, v = divmod(heap[0], n)
        if v not in vc and -d == deg[v]:
            return v
        heapq.heappop(heap)


def _forfeit(reason: str) -> Move:
    return Move((), flags=(reason,), forfeit=True)


def connector_move(state: GameState, plan: ConnectorPlan) -> Move:
    """Propose Connector's next move, advancing the plan in place.

    Per round: refresh bookkeeping, grab a free edge straight into the
    target when one exists, otherwise acquire the target's structure and
    hand two of its branches to a TargetChase, which descends one level
    per round. The direct edge comes from one ascending pass over the
    target's row, O(deg x): the first free edge from a territory vertex
    in a2, else the first free edge from any other territory vertex; the
    pass stops past a2 once it holds the latter. A
    missing or broken structure, or a blown round budget, is an explicit
    forfeit carrying a reason flag."""
    g = state.graph
    vc = state.v_c
    # the territory only grows, so its entries past len(vc_order) are new
    plan.vc_order.extend(sorted(state.territory[len(plan.vc_order):]))

    if plan.target is not None and plan.target in vc:
        plan.target = None
        plan.targets_done += 1

    if len(vc) == g.n:
        return Move(())
    if not vc:
        # free opening: no territory constraint yet, grab the lowest edge
        opening = state.first_free(1)
        return Move(tuple(opening)) if opening else _forfeit(FORFEIT_NO_EDGE)

    if plan.target is None:
        plan.target = select_target(state, plan)
        plan.rounds_used = 0
        plan.chase = None

    x = plan.target
    search_seed = (plan.seed + plan.targets_done) & MASK64
    plan.rounds_used += 1
    if plan.rounds_used > plan.budget:
        return _forfeit(FORFEIT_BUDGET)

    # a free edge straight into the target beats any structure; prefer the
    # a2 reservoir side so the endgame case stays on its guaranteed supply
    claimed, blocked = state.connector_edges, state.breaker_edges
    fallback = None
    a2_stop = plan.a2.stop
    for w in g.row(x):
        if fallback is not None and w >= a2_stop:
            break
        if w in vc:
            e = (w, x) if w < x else (x, w)
            if e not in claimed and e not in blocked:
                if w in plan.a2:
                    return Move((e,))
                if fallback is None:
                    fallback = e
    if fallback is not None:
        return Move((fallback,))

    if plan.case == 3:
        # every reservoir is in territory; a single free edge must exist
        return _forfeit(FORFEIT_NO_EDGE)

    if plan.chase is None:
        if plan.case == 1:
            tree = find_tree_stage1(
                g, state.breaker_edges, plan.vc_order, x, plan.k1, seed=search_seed
            )
            if tree is None:
                return _forfeit(FORFEIT_NO_STRUCTURE)
            plan.chase = TargetChase.of(tree, x)
        else:
            found = find_structure_stage2(
                g, state.breaker_edges, vc, plan.a1, x, plan.k2, seed=search_seed
            )
            if found is None:
                return _forfeit(FORFEIT_NO_STRUCTURE)
            z, trees = found
            plan.chase = TargetChase(x, [(z, t, 1) for t in trees])
            if z not in vc:
                # claim the pivot first and descend from it next round. In
                # case 2 all of a1 is in territory
                for a in plan.a1:
                    if g.has_edge(a, z) and state.is_free(edge(a, z)):
                        return Move((edge(a, z),))
                return _forfeit(FORFEIT_BROKEN)
    return plan.chase.step(state)


@dataclass
class TargetChase:
    """Drives one good structure toward a single target vertex, one
    proposed move per Connector turn, following the recursive branch
    descent.

    `candidates` are the branches the next `step` picks from: the two
    below a tree's root, the four trees below a pivot, or the four
    children of the two branches the last step entered. Each step picks
    the first two good candidates, then either finishes through them
    when they are leaves, claiming a leaf-to-target edge, or claims their
    entry edges and keeps their four children as the next candidates. A
    step assumes the move the previous step returned was applied, so the
    branches it entered are in territory. A step is a forfeit (with a
    reason flag) when fewer than two candidates are good, which cannot
    happen against a Breaker bound by bias 2 while the structure was
    good.
    """

    x: int
    candidates: List[Branch]

    @staticmethod
    def of(tree: TreeEmbedding, x: int) -> "TargetChase":
        """The chase down a whole tree whose root is in territory."""
        if tree.k < 2 or x in tree.vertices():
            raise ParameterError(f"no chase toward {x} down this {tree.k}-level tree")
        return TargetChase(x, [(tree.root, tree, 2), (tree.root, tree, 3)])

    def step(self, state: GameState) -> Move:
        """One round of descent toward x, which must be outside territory:
        pick two good candidates, then finish through the first when they
        are leaves, or claim both entry edges."""
        vc = state.v_c
        x = self.x
        good = _two_good(self.candidates, x, state)
        if good is None:
            return _forfeit(FORFEIT_BROKEN)
        # x is outside territory, so a good branch entered from outside it
        # has a free entry edge, and a good leaf a free edge to x
        claims = []
        self.candidates = []
        for v, t, h in good:
            c = t.heap[h - 1]
            if c not in vc:
                claims.append(edge(v, c))
            if h >= 1 << (t.k - 1):
                return Move((*claims, edge(c, x)))
            self.candidates += [(c, t, 2 * h), (c, t, 2 * h + 1)]
        return Move(tuple(claims))
