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
"""

from __future__ import annotations

import heapq
import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .engine import BREAKER, GameState, Move
from .errors import ParameterError
from .graph import Edge, Graph, edge, edges_between
from .rng import MASK64, Rng

log = logging.getLogger(__name__)

CellKey = Tuple[int, int, int]

# default budget of search expansions per structure
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

    def leaves(self) -> List[int]:
        return list(self.heap[2 ** (self.k - 1) - 1 :])

    def arcs(self) -> List[Tuple[int, int]]:
        """(parent vertex, child vertex) pairs, top level first."""
        t = self.heap
        inner = range(1, 2 ** (self.k - 1))
        return [(t[h - 1], t[c - 1]) for h in inner for c in (2 * h, 2 * h + 1)]

    def subtree(self, h: int) -> "TreeEmbedding":
        """The embedded subtree rooted at node h, re-indexed so its own
        root is node 1."""
        if not 1 <= h < 2**self.k:
            raise ParameterError(f"no node {h} in the {self.k}-level tree")
        k = self.k - h.bit_length() + 1
        heap = []
        for d in range(k):
            first = h << d
            heap.extend(self.heap[first - 1 : first - 1 + 2**d])
        return TreeEmbedding(k, tuple(heap))


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
    """
    if root == x or root in banned:
        return None
    leaf_pool = {
        v
        for v in g.neighbors(x)
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

    def arc_ok(u: int, w: int) -> bool:
        if edge(u, w) not in blocked:
            return True
        return tolerate_into is not None and w in tolerate_into

    def scan(u: int, leaf: bool) -> Tuple[List[int], List[int]]:
        order = order_cache.get(u)
        if order is None:
            order = sorted(g.neighbors(u))
            rng.shuffle(order)
            order_cache[u] = order
        good = [
            at
            for at, c in enumerate(order)
            if c not in never and (not leaf or c in leaf_pool) and arc_ok(u, c)
        ]
        scans[(u, leaf)] = order, good
        return order, good

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
            # order; the skipped prefix still costs one expansion a vertex
            cur = picked[h - 2] + 1
            if budget[0] < cur:
                raise _Capped()
            budget[0] -= cur
        for at in islice(good, bisect_left(good, cur), None):
            # the candidates from cur through at, skipped or not
            charge(at - cur + 1)
            cur = at + 1
            c = order[at]
            if c in used:
                continue
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
    cap: int = EXPANSION_CAP,
) -> Optional[TreeEmbedding]:
    """The first k-level tree rooted at one of `roots`, tried in order:
    every arc avoids `blocked` (read in place, not copied), every leaf has
    an unblocked edge to x, and x stays outside the tree. Each root's
    search draws from a fresh Rng(seed); all roots share one budget of
    `cap` expansions. Returns None when no root has a tree or when the cap
    runs out (logged), even if a later root has one."""
    if k < 2:
        raise ParameterError(f"tree search needs k >= 2 levels, got {k}")
    budget = [cap]
    try:
        for r in roots:
            tree = _find_tree(g, blocked, r, x, k, Rng(seed), budget)
            if tree is not None:
                return tree
    except _Capped:
        log.debug("stage-1 tree search capped at %d expansions (x=%d)", cap, x)
    return None


def find_structure_stage2(
    g: Graph,
    blocked: Iterable[Edge],
    m_set: Iterable[int],
    a1: Iterable[int],
    x: int,
    k2: int,
    seed: int = 0,
    cap: int = EXPANSION_CAP,
) -> Optional[Tuple[int, List[TreeEmbedding]]]:
    """Search for a pivot z adjacent to A1 through an unblocked edge, plus
    four vertex-disjoint k2-level trees rooted at distinct unblocked
    neighbors of z. Tree arcs may ride a blocked edge only into `m_set`;
    leaf-to-x edges must be unblocked and x stays outside every tree.
    Returns (z, trees) or None (not found, or expansion cap hit)."""
    if k2 < 2:
        raise ParameterError(f"tree search needs k2 >= 2 levels, got {k2}")
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
    if not 0 <= x < n:
        raise ParameterError(f"center vertex {x} is not on the {n}-vertex board")
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
                    if (g.neighbors(v) & c1) and (g.neighbors(v) & c2)
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


@dataclass
class _Branch:
    """A surviving branch: an edge from territory vertex `parent` into
    `child`, plus the embedded subtree hanging below `child`."""

    parent: int
    child: int
    sub: TreeEmbedding


def _root_branches(t: TreeEmbedding) -> List[_Branch]:
    """The two branches below t's root."""
    subs = (t.subtree(2), t.subtree(3))
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
    current target's structure once it is acquired. `vc_order` lists the
    territory, each batch of new vertices sorted, as the case-1 roots.

    `select_target` keeps its per-game state here, outside equality:
    one cursor per stage-I pool (territory only grows, so they only move
    forward), and the stage-II max-heap of (-Breaker degree, vertex) with
    the number of claim-log entries it has read."""

    a1: FrozenSet[int]
    a2: FrozenSet[int]
    k1: int
    k2: int
    budget: int
    seed: int = 0
    expansion_cap: int = EXPANSION_CAP
    stage: str = "I"
    target: Optional[int] = None
    rounds_used: int = 0
    chase: Optional[TargetChase] = None
    pending_pivot: Optional[Tuple[int, List[TreeEmbedding]]] = None
    case: int = 0
    vc_order: List[int] = None  # type: ignore[assignment]
    targets_done: int = 0
    pools: Optional[Tuple[Sequence[int], ...]] = field(default=None, repr=False, compare=False)
    cursors: List[int] = field(default_factory=lambda: [0, 0, 0], repr=False, compare=False)
    degree_heap: Optional[List[Tuple[int, int]]] = field(
        default=None, repr=False, compare=False
    )
    log_read: int = field(default=0, repr=False, compare=False)

    def __post_init__(self):
        if self.k1 < 2 or self.k2 < 2:
            raise ParameterError("tree depths must be at least 2")
        if self.vc_order is None:
            self.vc_order = []


def make_plan(
    g: Graph,
    m: int = 2,
    p_hint: Optional[float] = None,
    expansion_cap: int = EXPANSION_CAP,
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
        k_struct = tree_depth_for(eps)
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
    index on ties.

    The states passed to one plan must be successive positions of one
    game: stage I advances per-pool cursors past territory, and stage II
    reads a lazy heap fed with the Breaker claims logged since its last
    call. An entry is dropped when its vertex has joined the territory or
    gained Breaker edges since (a newer entry holds the new degree)."""
    vc = state.v_c
    if plan.stage == "I":
        if plan.pools is None:
            plan.pools = (sorted(plan.a1), sorted(plan.a2), range(state.graph.n))
        for i, pool in enumerate(plan.pools):
            c = plan.cursors[i]
            while c < len(pool) and pool[c] in vc:
                c += 1
            plan.cursors[i] = c
            if c < len(pool):
                return pool[c]
        raise ParameterError("no target: territory already spans the board")
    deg = state.breaker_degrees
    heap = plan.degree_heap
    if heap is None:
        heap = plan.degree_heap = [(-deg[v], v) for v in range(state.graph.n) if v not in vc]
        heapq.heapify(heap)
    else:
        for role, e in state.log[plan.log_read:]:
            if role == BREAKER:
                for w in e:
                    heapq.heappush(heap, (-deg[w], w))
    plan.log_read = len(state.log)
    while heap:
        d, v = heap[0]
        if v not in vc and -d == deg[v]:
            return v
        heapq.heappop(heap)
    raise ParameterError("no target: territory already spans the board")


def _forfeit(reason: str) -> Move:
    return Move((), flags=(reason,), forfeit=True)


def connector_move(state: GameState, plan: ConnectorPlan) -> Move:
    """Propose Connector's next move, advancing the plan in place.

    Per round: refresh bookkeeping, grab a free edge straight into the
    target when one exists, otherwise acquire the target's structure and
    hand two of its branches to a TargetChase, which descends one level
    per round. A missing or broken structure, or a blown round budget, is
    an explicit forfeit carrying a reason flag."""
    g = state.graph
    vc = state.v_c
    # the territory only grows, so its entries past len(vc_order) are new
    plan.vc_order.extend(sorted(state.territory[len(plan.vc_order):]))

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
            tree = find_tree_stage1(
                g,
                state.breaker_edges,
                plan.vc_order,
                x,
                plan.k1,
                seed=search_seed,
                cap=plan.expansion_cap,
            )
            if tree is None:
                return _forfeit(FORFEIT_NO_STRUCTURE)
            plan.chase = TargetChase.of(tree, x)
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
            plan.chase = TargetChase(x, branches)
    return plan.chase.step(state)


@dataclass
class TargetChase:
    """Drives one good tree toward a single target vertex, one proposed
    move per Connector turn, following the recursive branch descent.

    `branches` are the two branches whose entry edges the next `step`
    claims (or, at depth 1, the two leaves it finishes through). Each
    later step re-selects two branches the Breaker left intact, descends
    one level, and finishes by claiming a leaf-to-target edge. A step is
    a forfeit (with a reason flag) when fewer than two branches survive a
    reply, which cannot happen against a Breaker bound by bias 2 while
    the tree was good.
    """

    x: int
    branches: List[_Branch]
    needs_expand: bool = False

    @staticmethod
    def of(tree: TreeEmbedding, x: int) -> "TargetChase":
        """The chase down a whole tree whose root is in territory."""
        if x in tree.vertices():
            raise ParameterError(f"target {x} lies inside the tree")
        return TargetChase(x, _root_branches(tree))

    def copy(self) -> "TargetChase":
        return replace(self, branches=list(self.branches))

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
