"""Independent reference implementations the tests compare against.

Everything here is deliberately written in the most literal style
possible (whole-move enumeration, per-iteration set comprehensions,
permutation-based isomorphism) and shares no code with the package
internals beyond the Graph container and the game-over conventions.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from conbreak import Graph
from conbreak.graph import edge


# ---------------------------------------------------------------------------
# graph corpora


def naive_gen_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) from one draw of the seed's whole pair vector, thresholded
    at p: the single-shot generator the blocked GnpDraws replaced."""
    import numpy as np

    from conbreak.rng import uniforms_at

    hits = np.flatnonzero(uniforms_at(seed, n * (n - 1) // 2) < p)
    # pair (i, j) is draw number starts[i] + (j - i - 1) in that order
    i = np.arange(n, dtype=np.int64)
    starts = i * n - i * (i + 1) // 2
    rows = np.searchsorted(starts, hits, side="right") - 1
    cols = hits - starts[rows] + rows + 1
    return Graph(n, np.column_stack((rows, cols)))


def sort_modulo_csr(n: int, u, v):
    """The CSR adjacency (off, nbr) of the canonical edge arrays u < v,
    built as Graph once built it: each edge keyed both ways round as
    endpoint * n + neighbour, the 2m keys sorted, the neighbours read
    back with % n and the offsets summed from the degrees."""
    import numpy as np

    both = np.sort(np.concatenate((v * n + u, u * n + v)))
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=off[1:])
    return off, both % n


def all_labeled_graphs(n: int) -> List[Graph]:
    """Every labeled simple graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        out.append(Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]))
    return out


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in set(g.row(v)):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def canonical_form(g: Graph) -> FrozenSet[Tuple[int, int]]:
    """Lexicographically least edge set over all vertex relabelings."""
    best = None
    for perm in permutations(range(g.n)):
        relabeled = frozenset(edge(perm[u], perm[v]) for u, v in g.sorted_edges())
        key = tuple(sorted(relabeled))
        if best is None or key < best[0]:
            best = (key, relabeled)
    return best[1]


@lru_cache(maxsize=None)
def connected_graph_classes(n: int) -> Tuple[Graph, ...]:
    """One representative per isomorphism class of connected graphs on n
    vertices, in a deterministic order.  Cached: several tests share the
    same corpus.

    Orbit enumeration on edge bitmasks: each connected mask not seen yet
    has its whole orbit under the n! relabelings marked as seen, and the
    representative is the numerically least mask of its class. Masks are
    visited in ascending order, so the first member of an orbit met is
    that least mask."""
    pairs = list(combinations(range(n), 2))
    idx = {pq: i for i, pq in enumerate(pairs)}
    tables = []
    for perm in permutations(range(n)):
        tables.append(tuple(idx[edge(perm[u], perm[v])] for (u, v) in pairs))

    def mask_connected(mask: int) -> bool:
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        m = mask
        while m:
            bit = m & -m
            m ^= bit
            u, v = pairs[bit.bit_length() - 1]
            parent[find(u)] = find(v)
        # vacuous on 0 or 1 vertices: the empty board is one class
        return all(find(v) == find(0) for v in range(1, n))

    seen: Set[int] = set()
    reps: List[Graph] = []
    for mask in range(1 << len(pairs)):
        if mask in seen or not mask_connected(mask):
            continue
        bits = [i for i in range(len(pairs)) if (mask >> i) & 1]
        seen.update(sum(1 << tab[i] for i in bits) for tab in tables)
        reps.append(Graph(n, [pairs[i] for i in bits]))
    reps.sort(key=lambda g: (g.edge_count(), g.sorted_edges()))
    return tuple(reps)


def connected_graph_classes_slow(n: int) -> List[Graph]:
    """Same classes via explicit per-permutation edge-set relabeling, the
    cross-check for the bitmask enumerator; the representatives differ,
    the classes agree up to isomorphism."""
    seen: Set[FrozenSet[Tuple[int, int]]] = set()
    reps = []
    for g in all_labeled_graphs(n):
        if not is_connected(g):
            continue
        canon = canonical_form(g)
        if canon in seen:
            continue
        seen.add(canon)
        reps.append(Graph(n, canon))
    reps.sort(key=lambda g: (g.edge_count(), g.sorted_edges()))
    return reps


def spanning_pair_oracle(g: Graph) -> bool:
    """Brute force: does g contain an edge whose endpoints dominate all
    other vertices jointly?"""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                continue
            ok = True
            for w in range(g.n):
                if w in (u, v):
                    continue
                if not (g.has_edge(w, u) and g.has_edge(w, v)):
                    ok = False
                    break
            if ok:
                return True
    return False


def common_neighbour_hn(g: Graph) -> Optional[Tuple[int, int]]:
    """The package's `contains_hn` before it tested degrees: the first
    edge in sorted order whose endpoints' common neighbourhood holds
    every other vertex."""
    for u, v in g.sorted_edges():
        common = set(g.row(u)) & set(g.row(v))
        if len(common - {u, v}) == g.n - 2:
            return (u, v)
    return None


# ---------------------------------------------------------------------------
# whole-move game value


def _subgraph_spans(g: Graph, edges: FrozenSet[Tuple[int, int]]) -> bool:
    if g.n <= 1:
        return True
    if not edges:
        return False
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        parent[find(u)] = find(v)
    root = find(0)
    return all(find(v) == root for v in range(g.n))


def oracle_game_value(
    g: Graph,
    m: int,
    b: int,
    first: str = "C",
    goal="spanning",
    start_vertex: Optional[int] = None,
) -> str:
    """Winner under optimal play, by plain recursive whole-move minimax.

    Memoized on (Connector's claims, Breaker's claims, mover, whether the
    previous move passed), and nothing else; no per-edge factoring: each
    turn enumerates every claimable edge SET (all orders collapsed after
    legality filtering), including the empty pass. Two consecutive passes
    end the game in Breaker's favor, as does a fully claimed board without
    a spanning Connector subgraph. Shares no code with the package solver.
    """
    all_edges = g.sorted_edges()

    def vc_of(cedges: FrozenSet) -> Set[int]:
        vs = set() if start_vertex is None else {start_vertex}
        for u, v in cedges:
            vs.add(u)
            vs.add(v)
        return vs

    def goal_met(cedges: FrozenSet) -> bool:
        if goal == "spanning":
            return _subgraph_spans(g, cedges)
        if isinstance(goal, tuple) and goal[0] == "reach":
            return goal[1] in vc_of(cedges)
        raise ValueError(f"bad goal {goal!r}")

    def connector_sets(cedges: FrozenSet, bedges: FrozenSet) -> List[FrozenSet]:
        """All edge sets claimable in one Connector move of up to m edges,
        each edge touching territory as it is claimed."""
        results = [frozenset()]
        frontier = [(frozenset(), vc_of(cedges))]
        seen = {frozenset()}
        for _ in range(m):
            nxt = []
            for claimed, vc in frontier:
                for e in all_edges:
                    if e in cedges or e in bedges or e in claimed:
                        continue
                    u, v = e
                    if vc and u not in vc and v not in vc:
                        continue
                    ncl = claimed | {e}
                    if ncl in seen:
                        continue
                    seen.add(ncl)
                    nvc = vc | {u, v}
                    nxt.append((ncl, nvc))
                    results.append(ncl)
            frontier = nxt
        return results

    def breaker_sets(cedges: FrozenSet, bedges: FrozenSet) -> List[FrozenSet]:
        free = [e for e in all_edges if e not in cedges and e not in bedges]
        out: List[FrozenSet] = [frozenset()]
        for r in range(1, min(b, len(free)) + 1):
            out.extend(frozenset(c) for c in combinations(free, r))
        return out

    # claims only grow and two passes end the game, so no position
    # recurs below itself
    @lru_cache(maxsize=None)
    def value(cedges: FrozenSet, bedges: FrozenSet, mover: str, prev_empty: bool) -> bool:
        """True when Connector wins from here."""
        if mover == "C":
            for mv in connector_sets(cedges, bedges):
                if mv:
                    if goal_met(cedges | mv):
                        return True
                    if value(cedges | mv, bedges, "B", False):
                        return True
                else:
                    if prev_empty:
                        continue  # passing now ends the game, a loss
                    if value(cedges, bedges, "B", True):
                        return True
            return False
        for mv in breaker_sets(cedges, bedges):
            if mv:
                if not value(cedges, bedges | mv, "C", False):
                    return False
            else:
                if prev_empty:
                    return False  # Breaker passes back, game over
                if not value(cedges, bedges, "C", True):
                    return False
        return True

    if goal_met(frozenset()):
        return "C"
    return "C" if value(frozenset(), frozenset(), first, False) else "B"


# ---------------------------------------------------------------------------
# literal layering oracle


def oracle_bad_layers(
    g: Graph, x: int, excluded: Iterable[int] = ()
) -> Tuple[List[Set[int]], int]:
    """Recompute the bad-set layers by restating the membership rule as a
    set comprehension each iteration."""
    excl = set(excluded)
    layers = [set(g.row(x)) - excl]
    union = set(layers[0])
    while True:
        nxt = {
            v
            for v in range(g.n)
            if v not in union
            and v != x
            and v not in excl
            and len(set(g.row(v)) & union) >= 2
        }
        if not nxt:
            break
        layers.append(nxt)
        union |= nxt
    return layers, len(layers)


def naive_build_bad_set(g: Graph, x: int, excluded: Iterable[int] = ()):
    """The bad-set layering as a loop over every vertex per layer, each
    counting its neighbours in the bad set so far: the package's
    `build_bad_set` before it counted with numpy."""
    from conbreak.breaker import BadSetDecomposition

    excl = frozenset(excluded)
    b1 = frozenset(set(g.row(x)) - excl)
    layers = [b1]
    union = set(b1)
    while True:
        nxt = set()
        for v in range(g.n):
            if v == x or v in union or v in excl:
                continue
            cnt = 0
            for w in set(g.row(v)):
                if w in union:
                    cnt += 1
                    if cnt == 2:
                        break
            if cnt >= 2:
                nxt.add(v)
        if not nxt:
            break
        layers.append(frozenset(nxt))
        union |= nxt
    return BadSetDecomposition(x=x, layers=tuple(layers))


def naive_find_candidate(g: Graph, m_set: Iterable[int], seed: int = 0):
    """The candidate search without the early return: every sampled
    candidate outside the earlier bad sets gets its full layering and all
    four B clauses, the package's `find_candidate` before it rejected
    candidates whose neighbourhood spans an edge up front."""
    from conbreak.breaker import CANDIDATES, build_bad_set
    from conbreak.rng import Rng
    from conbreak.verifier import check_b

    m_fixed = frozenset(m_set)
    excluded: set = set()
    for x in Rng(seed).sample(range(g.n), CANDIDATES):
        if x in excluded:
            continue
        dec = build_bad_set(g, x, excluded)
        excluded |= dec.union
        if check_b(g, dec, m_fixed).all_passed():
            return (x, dec)
    return None


def reference_breaker_move(state, dec, edges=None):
    """The paper Breaker's isolating move as first written: the level map
    rebuilt inline, the violations gathered into a set and sorted, then two
    hand-written filler loops (x's free edges by layer and other end, the
    first layer's free edges ascending) before the first free edges of
    `edges`, the lowest free edges overall when it is None."""
    from conbreak.engine import Move

    g = state.graph
    vc = state.v_c
    levels = {dec.x: 0}
    for i, layer in enumerate(dec.layers, start=1):
        for v in layer:
            levels[v] = i
    viol = set()
    for v, lv in levels.items():
        if v in vc:
            continue
        for w in g.row(v):
            e = edge(v, w)
            if w in vc and state.is_free(e) and levels.get(w, lv) >= lv:
                viol.add(e)
    viol = sorted(viol)
    b = state.b
    flags = ("breaker-violation-overflow",) if len(viol) > b else ()
    picked = list(viol[:b])
    chosen = set(picked)

    far = g.n + 1
    if len(picked) < b:
        x_edges = []
        for w in g.row(dec.x):
            e = edge(dec.x, w)
            if e not in chosen and state.is_free(e):
                x_edges.append((levels.get(w, far), w, e))
        for _, _, e in sorted(x_edges):
            if len(picked) >= b:
                break
            picked.append(e)
            chosen.add(e)

    if len(picked) < b and dec.layers:
        b1_edges = set()
        for v in dec.layers[0]:
            for w in g.row(v):
                e = edge(v, w)
                if e not in chosen and state.is_free(e):
                    b1_edges.add(e)
        for e in sorted(b1_edges):
            if len(picked) >= b:
                break
            picked.append(e)
            chosen.add(e)

    if len(picked) < b:
        for e in g.edges_from() if edges is None else edges:
            if e not in chosen and state.is_free(e):
                picked.append(e)
                if len(picked) == b:
                    break
    return Move(tuple(picked), flags=flags)


# ---------------------------------------------------------------------------
# exhaustive adversary for the box-game defensive rule


def box_rule_survives_all_maker_play(capacities: Sequence[int], p: int) -> bool:
    """Search every BoxMaker line (claim multisets of size 0..p) against the
    deterministic defensive rule. True when no line ever fills a box."""
    from itertools import combinations_with_replacement

    from conbreak.boxgame import Box, BoxState, boxbreaker_move_s

    n = len(capacities)
    memo: Dict[Tuple[Tuple[int, int], ...], bool] = {}

    def key(boxes) -> Tuple[Tuple[int, int], ...]:
        return tuple((b.maker, b.breaker) for b in boxes)

    def survives(boxes) -> bool:
        k = key(boxes)
        hit = memo.get(k)
        if hit is not None:
            return hit
        memo[k] = True  # claim-counts only grow, so no cycles to poison
        ok = True
        free_idx = [i for i, b in enumerate(boxes) if b.free() > 0]
        for size in range(0, p + 1):
            for claims in combinations_with_replacement(free_idx, size):
                nxt = [Box(b.capacity, b.maker, b.breaker) for b in boxes]
                legal = True
                for i in claims:
                    if nxt[i].free() <= 0:
                        legal = False
                        break
                    nxt[i].maker += 1
                if not legal:
                    continue
                if any(b.maker == b.capacity for b in nxt):
                    ok = False
                    break
                if all(b.free() == 0 for b in nxt):
                    continue  # exhausted without a full BoxMaker box
                j = boxbreaker_move_s(BoxState(nxt, p, "breaker"))
                nxt[j].breaker += 1
                if all(b.free() == 0 for b in nxt):
                    continue
                if not survives(nxt):
                    ok = False
                    break
            if not ok:
                break
        memo[k] = ok
        return ok

    return survives([Box(c) for c in capacities])


def greedy_maker(state, rng) -> List[int]:
    """A BoxMaker adversary: load the most-loaded box BoxBreaker has not
    defended yet; fall back to any free box. Claims the full allowance."""
    claims: List[int] = []
    extra = [0] * len(state.boxes)
    for _ in range(state.p):
        best = None
        best_load = -1
        for i, box in enumerate(state.boxes):
            if box.free() - extra[i] <= 0 or box.breaker > 0:
                continue
            load = box.maker + extra[i]
            if load > best_load:
                best, best_load = i, load
        if best is None:
            for i, box in enumerate(state.boxes):
                if box.free() - extra[i] > 0:
                    best = i
                    break
        if best is None:
            break
        extra[best] += 1
        claims.append(best)
    return claims


# ---------------------------------------------------------------------------
# helpers only tests need


def is_spanning_connected(g: Graph, edge_subset: Iterable[Tuple[int, int]]) -> bool:
    """True when the subgraph on the given edges connects all n vertices.
    Raises ParameterError for a pair that is not an edge of g."""
    from conbreak import ParameterError

    subset = list(edge_subset)
    edges = frozenset(g.sorted_edges())
    for e in subset:
        if edge(*e) not in edges:
            raise ParameterError(f"edge {e} is not an edge of the graph")
    if g.n <= 1:
        return True
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = g.n
    for u, v in subset:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps == 1


def free_edge_count(state) -> int:
    """Edges of the board neither player has claimed."""
    return (
        state.graph.edge_count()
        - len(state.connector_edges)
        - len(state.breaker_edges)
    )


def copy_chase(chase):
    """A copy of a TargetChase whose candidate list can change
    independently."""
    from dataclasses import replace

    return replace(chase, candidates=list(chase.candidates))


def hand_cells(
    n: int, x: int, k: int, size: int, seed: int = 0
) -> Dict[Tuple[int, int, int], FrozenSet[int]]:
    """Decomposition cells of a hand-picked size, for boards too small
    for `make_cells`'s derived size n // 2^(k+4): the vertices other than
    x, shuffled by Rng(seed), cut into consecutive runs of `size` in
    `cell_keys(k)` order, as `make_cells` lays out its own cells."""
    from conbreak.connector import cell_keys
    from conbreak.rng import Rng

    keys = cell_keys(k)
    assert len(keys) * size <= n - 1, "the cells do not fit on the board"
    pool = [v for v in range(n) if v != x]
    Rng(seed).shuffle(pool)
    return {key: frozenset(pool[i * size : (i + 1) * size]) for i, key in enumerate(keys)}


# ---------------------------------------------------------------------------
# embedded trees and the subtree-based descent


def tree_arcs(t) -> List[Tuple[int, int]]:
    """(parent vertex, child vertex) pairs of an embedded tree, top level
    first."""
    h = t.heap
    return [(h[p - 1], h[c - 1]) for p in range(1, 2 ** (t.k - 1)) for c in (2 * p, 2 * p + 1)]


def tree_leaves(t) -> List[int]:
    """The vertices of an embedded tree's leaves, left to right."""
    return list(t.heap[2 ** (t.k - 1) - 1 :])


def subtree(t, h: int):
    """The embedded subtree rooted at node h, re-indexed so its own root
    is node 1."""
    from conbreak.connector import TreeEmbedding

    k = t.k - h.bit_length() + 1
    heap: List[int] = []
    for d in range(k):
        first = h << d
        heap.extend(t.heap[first - 1 : first - 1 + 2**d])
    return TreeEmbedding(k, tuple(heap))


def reference_tree_survives(t, x: int, state) -> bool:
    """Every arc of t is free of Breaker or leads into territory, and every
    leaf has an edge to x that Breaker has not claimed."""
    for u, w in tree_arcs(t):
        if edge(u, w) in state.breaker_edges and w not in state.v_c:
            return False
    return all(
        state.graph.has_edge(leaf, x) and edge(leaf, x) not in state.breaker_edges
        for leaf in tree_leaves(t)
    )


def reference_branch_good(branch, x: int, state) -> bool:
    """A branch (parent vertex, child vertex, subtree below the child) is
    good when its entry edge is free or leads into territory and its
    subtree survives."""
    parent, child, sub = branch
    if child not in state.v_c and not state.is_free(edge(parent, child)):
        return False
    return reference_tree_survives(sub, x, state)


def reference_two_good(cands, x: int, state):
    """The first two good candidates, or None when fewer are good."""
    good = [br for br in cands if reference_branch_good(br, x, state)][:2]
    return good if len(good) == 2 else None


def reference_root_branches(t):
    """The two branches below t's root, each with its subtree re-embedded."""
    return [(t.root, sub.root, sub) for sub in (subtree(t, 2), subtree(t, 3))]


class ReferenceChase:
    """The tree descent with every branch held as a re-embedded subtree:
    after a level claim the next step expands the entered branches into
    their root branches and re-selects two good ones; a chase down a whole
    tree starts from its two root branches as they are."""

    def __init__(self, x: int, branches, needs_expand: bool = False):
        self.x = x
        self.branches = branches
        self.needs_expand = needs_expand

    @staticmethod
    def of(tree, x: int) -> "ReferenceChase":
        return ReferenceChase(x, reference_root_branches(tree))

    def step(self, state):
        from conbreak import Move
        from conbreak.connector import FORFEIT_BROKEN

        broken = Move((), flags=(FORFEIT_BROKEN,), forfeit=True)
        vc = state.v_c
        x = self.x
        if self.needs_expand:
            self.needs_expand = False
            cands = [
                b
                for _, child, sub in self.branches
                if child in vc
                for b in reference_root_branches(sub)
            ]
            good = reference_two_good(cands, x, state)
            if good is None:
                return broken
            self.branches = good
        if self.branches[0][2].k == 1:
            for parent, leaf, _ in self.branches:
                lx = edge(leaf, x)
                if leaf in vc and state.is_free(lx):
                    return Move((lx,))
                pe = edge(parent, leaf)
                if state.is_free(pe) and state.is_free(lx):
                    return Move((pe, lx))
            return broken
        claims = []
        for parent, child, _ in self.branches:
            if child not in vc:
                pe = edge(parent, child)
                if not state.is_free(pe):
                    return broken
                claims.append(pe)
        self.needs_expand = True
        return Move(tuple(claims))


class ReferenceStructure:
    """One target's structure rounds, with the stage-II pivot held over a
    round: the round that claims the pivot edge keeps (z, trees) pending,
    and the next structure round rechecks that z is in territory and picks
    two good trees among the four. `move` is called on every round of the
    target that gets past the direct edge in a reservoir case, and returns
    the move with the names of the paths it took."""

    def __init__(self):
        self.chase: Optional[ReferenceChase] = None
        self.pending = None

    def move(self, state, plan):
        from conbreak import Move
        from conbreak.connector import (
            FORFEIT_BROKEN,
            FORFEIT_NO_STRUCTURE,
            find_structure_stage2,
            find_tree_stage1,
        )
        from conbreak.rng import MASK64

        g = state.graph
        vc = state.v_c
        x = plan.target
        seed = (plan.seed + plan.targets_done) & MASK64
        stage = "stage-I chase" if plan.case == 1 else "stage-II chase"
        if self.chase is None:
            if plan.case == 1:
                tree = find_tree_stage1(
                    g, state.breaker_edges, plan.vc_order, x, plan.k1, seed=seed
                )
                if tree is None:
                    return Move((), flags=(FORFEIT_NO_STRUCTURE,), forfeit=True), ()
                self.chase = ReferenceChase.of(tree, x)
            else:
                if self.pending is not None:
                    found, self.pending = self.pending, None
                    if found[0] not in vc:
                        return Move((), flags=(FORFEIT_BROKEN,), forfeit=True), ()
                else:
                    found = find_structure_stage2(
                        g, state.breaker_edges, vc, plan.a1, x, plan.k2, seed=seed
                    )
                    if found is None:
                        return Move((), flags=(FORFEIT_NO_STRUCTURE,), forfeit=True), ()
                    z = found[0]
                    if z not in vc:
                        for a in plan.a1:
                            if a != z and g.has_edge(a, z) and state.is_free(edge(a, z)):
                                self.pending = found
                                return Move((edge(a, z),)), ("pivot claim",)
                        return Move((), flags=(FORFEIT_BROKEN,), forfeit=True), ()
                z, trees = found
                branches = reference_two_good([(z, t.root, t) for t in trees], x, state)
                if branches is None:
                    return Move((), flags=(FORFEIT_BROKEN,), forfeit=True), ()
                self.chase = ReferenceChase(x, branches)
        move = self.chase.step(state)
        paths = (stage,)
        if not move.forfeit and any(x in e for e in move.edges):
            paths += ("leaf finish",)
        return move, paths


# ---------------------------------------------------------------------------
# exhaustive adversary for the tree-descent chase


def chase_survives_all_breaker_play(
    g: Graph, tree, x: int, root_start: int, b: int = 2
) -> bool:
    """Search every Breaker reply line (claim sets of size 0..b over the
    free edges, each applied through the engine) against the
    deterministic chase. True when the chase reaches x on every line
    within k-1 Connector moves and never proposes an illegal move."""
    from itertools import combinations

    from conbreak import GameState, Move, validate_and_apply
    from conbreak.connector import TargetChase

    limit = max(1, tree.k - 1)

    def run(chase, state, moves_made: int) -> bool:
        mv = chase.step(state)
        if mv.forfeit:
            return False
        try:
            state = validate_and_apply(state, mv)
        except Exception:
            return False
        moves_made += 1
        if x in state.v_c:
            return moves_made <= limit
        if moves_made >= limit:
            return False
        free = state.free_edges()
        for size in range(0, b + 1):
            for claims in combinations(free, size):
                nxt = validate_and_apply(state, Move(claims))
                if not run(copy_chase(chase), nxt, moves_made):
                    return False
        return True

    return run(TargetChase.of(tree, x), GameState(g, m=2, b=b, start_vertex=root_start), 0)


def chase_witness(k: int, extra_edges: Iterable[Tuple[int, int]] = ()):
    """A board that is exactly the k-level tree plus every leaf-to-target
    edge: vertices 0..2^k-2 are the tree, node h on vertex h-1 (0 the
    root), and the target x is vertex 2^k-1. Returns (graph, embedding, x)."""
    from conbreak.connector import TreeEmbedding

    nodes = 2**k - 1
    x = nodes
    t = TreeEmbedding(k, tuple(range(nodes)))
    edges = tree_arcs(t)
    edges += [(leaf, x) for leaf in tree_leaves(t)]
    edges += list(extra_edges)
    return Graph(nodes + 1, edges), t, x


def naive_find_tree(
    g: Graph,
    blocked: Set[Tuple[int, int]],
    root: int,
    x: int,
    k: int,
    rng,
    budget: List[int],
    tolerate_into: Optional[Set[int]] = None,
    banned: FrozenSet[int] = frozenset(),
):
    """The tree search by (level, index) positions, with a per-parent rank
    table for the right sibling's skip: every candidate the parent's
    shuffled order offers costs one expansion, skipped or not. Raises the
    package's _Capped when `budget` runs out, as the package search does,
    with 0 left, except that a cap inside a right child's skipped prefix
    leaves the budget as that child's scan found it."""
    from conbreak.connector import TreeEmbedding, _Capped

    def tree_positions(k: int) -> List[Tuple[int, int]]:
        return [(i, j) for i in range(k, 0, -1) for j in range(1, 2 ** (k - i) + 1)]

    if root == x or root in banned:
        return None
    if k == 1:
        if g.has_edge(root, x) and edge(root, x) not in blocked:
            return TreeEmbedding(1, (root,))
        return None

    leaf_pool = {
        v
        for v in set(g.row(x))
        if v != root and v not in banned and edge(v, x) not in blocked
    }
    if len(leaf_pool) < 2 ** (k - 1):
        return None

    positions = tree_positions(k)[1:]
    assign: Dict[Tuple[int, int], int] = {(k, 1): root}
    used = {root}
    order_cache: Dict[int, List[int]] = {}
    rank_cache: Dict[int, Dict[int, int]] = {}

    def ordered_neighbors(u: int) -> List[int]:
        got = order_cache.get(u)
        if got is None:
            got = sorted(set(g.row(u)))
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
        found = budget[0]
        for c in ordered_neighbors(parent):
            if budget[0] <= 0:
                if rank_cache[parent][c] <= sibling_rank:
                    budget[0] = found
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
        # tree_positions lists the positions in heap order
        return TreeEmbedding(k, tuple(assign[pos] for pos in tree_positions(k)))
    return None


# ---------------------------------------------------------------------------
# baseline strategies by full-board rescan


def naive_random_move(rng, role: str, state) -> Tuple[Tuple[int, int], ...]:
    """RandomStrategy's move by rescanning every edge: Breaker samples
    the free list (popping each draw from a copy of it), Connector chooses
    among the legal free edges one claim at a time. Consumes the same
    draws from `rng`."""
    free = [e for e in state.graph.sorted_edges() if state.is_free(e)]
    bias = state.bias(role)
    if role == "B":
        pool = list(free)
        return tuple(pool.pop(rng.randrange(len(pool))) for _ in range(min(bias, len(free))))
    claims: List = []
    vc = set(state.v_c)
    taken = set()
    for _ in range(bias):
        cands = [
            e
            for e in free
            if e not in taken and (not vc or e[0] in vc or e[1] in vc)
        ]
        if not cands:
            break
        e = rng.choice(cands)
        taken.add(e)
        claims.append(e)
        vc.update(e)
    return tuple(claims)


def naive_greedy_move(role: str, state) -> Tuple[Tuple[int, int], ...]:
    """GreedyDegreeStrategy's move by rescanning every edge: Breaker takes
    the free edges with the largest endpoint degree sums, Connector the
    legal edge whose new endpoint has the largest degree, lowest edge on
    ties, one claim at a time."""
    g = state.graph
    free = [e for e in g.sorted_edges() if state.is_free(e)]
    bias = state.bias(role)
    if role == "B":
        ranked = sorted(free, key=lambda e: (-(g.degree(e[0]) + g.degree(e[1])), e))
        return tuple(ranked[:bias])
    claims: List = []
    vc = set(state.v_c)
    taken = set()
    for _ in range(bias):
        best = None
        best_key = None
        for e in free:
            if e in taken:
                continue
            u, v = e
            if vc and u not in vc and v not in vc:
                continue
            outside = [w for w in e if w not in vc]
            gain = max((g.degree(w) for w in outside), default=-1)
            key = (-gain, e)
            if best_key is None or key < best_key:
                best, best_key = e, key
        if best is None:
            break
        taken.add(best)
        claims.append(best)
        vc.update(best)
    return tuple(claims)


def naive_select_target(state, plan) -> int:
    """select_target by scanning every vertex: stage I takes the lowest
    missing vertex of a1, then a2, then the board; stage II the missing
    vertex with the most Breaker edges, lowest index on ties."""
    vc = state.v_c
    n = state.graph.n
    if plan.stage == "I":
        for pool in (plan.a1, plan.a2, range(n)):
            missing = [v for v in pool if v not in vc]
            if missing:
                return min(missing)
        raise ValueError("no target")
    missing = [v for v in range(n) if v not in vc]
    if not missing:
        raise ValueError("no target")
    count = dict.fromkeys(missing, 0)
    for e in state.breaker_edges:
        for w in e:
            if w in count:
                count[w] += 1
    return max(missing, key=count.__getitem__)


def naive_direct_edge(state, plan, x: int) -> Optional[Tuple[int, int]]:
    """The Connector's direct edge into target x by set operations: the
    territory's neighbours of x split into those in a2 and the rest, each
    part sorted, and the first free edge from a2's part, else from the
    rest's; None when no territory edge into x is free."""
    near = state.v_c.intersection(state.graph.row(x))
    for pool in (sorted(near.intersection(plan.a2)), sorted(near.difference(plan.a2))):
        for w in pool:
            if state.is_free(edge(w, x)):
                return edge(w, x)
    return None


def naive_case(state, plan) -> int:
    """The structure case by subset tests: 1 while a1 is not all in
    territory, else 2 while a2 is not, else 3."""
    vc = state.v_c
    if not set(plan.a1) <= vc:
        return 1
    if not set(plan.a2) <= vc:
        return 2
    return 3


# ---------------------------------------------------------------------------
# finished games, replayed


def replay_states(result, graph: Graph) -> Iterator[Tuple[int, str, object]]:
    """Replay a recorded game, checking each move as the game loop does,
    and yield (round, role, state) after each move, a fresh state each
    time. A move out of turn raises ParameterError; an illegal or
    unreadable move raises the game loop's ConbreakError."""
    from conbreak import GameState, Move, ParameterError, validate_and_apply

    state = GameState(graph, m=result.m, b=result.b, start_vertex=result.start_vertex)
    for rnd, role, edges in result.transcript:
        if role != state.to_move:
            raise ParameterError(
                f"transcript out of turn at round {rnd}: {role} cannot move"
            )
        state = validate_and_apply(state, Move(edges))
        yield rnd, role, state


def naive_check_q(g: Graph, result, dec):
    """The isolation audit as a replay: ask `q_violations` after every
    Breaker move while the center stays outside Connector territory."""
    from conbreak.breaker import q_violations
    from conbreak.engine import BREAKER
    from conbreak.verifier import Clause, PropertyReport

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
