from __future__ import annotations

import dataclasses
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conbreak import (
    GameState,
    Graph,
    Move,
    ParameterError,
    TargetChase,
    TreeEmbedding,
    alpha_table,
    decompose,
    find_structure_stage2,
    find_tree_stage1,
    gen_gnp,
    make_cells,
    make_plan,
    select_target,
    tree_depth_for,
    validate_and_apply,
)
from conbreak.connector import (
    EXPANSION_CAP,
    FORFEIT_BUDGET,
    FORFEIT_NO_EDGE,
    FORFEIT_NO_STRUCTURE,
    _two_good,
    _Capped,
    _find_tree,
    connector_move,
)
from conbreak import connector, strategies
from conbreak.engine import run_game
from conbreak.rng import Rng
from conbreak.strategies import make_strategy

from oracles import (
    ReferenceStructure,
    chase_survives_all_breaker_play,
    chase_witness,
    copy_chase,
    hand_cells,
    naive_direct_edge,
    naive_find_tree,
    tree_arcs,
    tree_leaves,
)


# ---------------------------------------------------------------------------
# embeddings


def small_tree() -> TreeEmbedding:
    return TreeEmbedding(2, (0, 1, 2))


def test_embedding_accessors():
    t = small_tree()
    assert t.root == 0
    assert t.heap[2] == 2
    assert t.vertices() == frozenset({0, 1, 2})
    assert tree_leaves(t) == [1, 2]
    assert tree_arcs(t) == [(0, 1), (0, 2)]


def test_embedding_validation():
    with pytest.raises(ParameterError):
        TreeEmbedding(2, (0, 1))  # missing node
    with pytest.raises(ParameterError):
        TreeEmbedding(2, (0, 1, 1))  # reused vertex
    with pytest.raises(ParameterError):
        TreeEmbedding(0, ())


# ---------------------------------------------------------------------------
# good trees and the first descent step


def root_branches(t: TreeEmbedding):
    return [(t.root, t, 2), (t.root, t, 3)]


def good_branches(t: TreeEmbedding, x: int, state: GameState):
    return _two_good(root_branches(t), x, state)


def test_is_good_tree():
    g, t, x = chase_witness(2)
    s = GameState(g, m=2, b=2, start_vertex=t.root)
    assert good_branches(t, x, s) == root_branches(t)
    # breaker on an arc whose child is outside territory: not good
    s2 = GameState(g, m=2, b=2, start_vertex=t.root, breaker_edges=[(0, 2)])
    assert good_branches(t, x, s2) is None
    # another branch entering territory does not excuse it
    s3 = GameState(
        g, m=2, b=2, start_vertex=t.root,
        connector_edges=[(0, 1)], breaker_edges=[(0, 2)],
    )
    assert good_branches(t, x, s3) is None
    # breaker on an arc whose child joined territory by another edge:
    # an arc into territory is tolerated
    g4 = Graph(5, list(g.sorted_edges()) + [(2, 4)])
    s4 = GameState(g4, m=2, b=2, connector_edges=[(2, 4)], breaker_edges=[(0, 2)])
    assert good_branches(t, x, s4) == root_branches(t)
    # breaker on a leaf-to-target edge: not good
    s5 = GameState(g, m=2, b=2, start_vertex=t.root, breaker_edges=[(1, 3)])
    assert good_branches(t, x, s5) is None
    # leaf without the target edge: not good
    g6 = Graph(4, [(0, 1), (0, 2), (1, 3)])
    assert good_branches(t, x, GameState(g6, start_vertex=0)) is None
    # one level deeper: breaker on an arc below a branch root breaks it
    g3, t3, x3 = chase_witness(3)
    s6 = GameState(g3, m=2, b=2, start_vertex=t3.root, breaker_edges=[(1, 3)])
    assert good_branches(t3, x3, s6) is None
    # and so does breaker on a leaf-to-target edge below it
    s7 = GameState(g3, m=2, b=2, start_vertex=t3.root, breaker_edges=[(3, 7)])
    assert good_branches(t3, x3, s7) is None


def test_base_step_two_levels():
    g, t, x = chase_witness(2)
    s = GameState(g, m=2, b=2, start_vertex=t.root)
    assert TargetChase.of(t, x).step(s) == Move(((0, 1), (1, 3)))
    # leaf already in territory: finish with the single target edge
    s2 = GameState(g, m=2, b=2, start_vertex=t.root, connector_edges=[(0, 1)])
    assert TargetChase.of(t, x).step(s2) == Move(((1, 3),))


def test_base_step_deeper_claims_entry_edges():
    g, t, x = chase_witness(3)
    s = GameState(g, m=2, b=2, start_vertex=t.root)
    mv = TargetChase.of(t, x).step(s)
    assert set(mv.edges) == {(0, 1), (0, 2)}
    # a child already in territory is not claimed again
    s2 = GameState(g, m=2, b=2, start_vertex=t.root, connector_edges=[(0, 1)])
    mv2 = TargetChase.of(t, x).step(s2)
    assert mv2.edges == ((0, 2),)


# ---------------------------------------------------------------------------
# the chase against adversarial Breakers


def test_chase_rejects_target_inside_tree():
    _, t, _ = chase_witness(2)
    with pytest.raises(ParameterError):
        TargetChase.of(t, t.root)
    # a lone root has no branches to descend
    with pytest.raises(ParameterError):
        TargetChase.of(TreeEmbedding(1, (0,)), 1)


def test_chase_survives_every_breaker_line_small():
    for k in (2, 3):
        g, t, x = chase_witness(k)
        assert chase_survives_all_breaker_play(g, t, x, root_start=t.root), k


def test_chase_survives_every_breaker_line_k4():
    g, t, x = chase_witness(4)
    assert chase_survives_all_breaker_play(g, t, x, root_start=t.root)


def test_chase_survives_with_distractor_edges():
    # extra non-tree edges only give Breaker more ways to waste claims
    g, t, x = chase_witness(3, extra_edges=[(1, 2), (3, 5), (4, 6)])
    assert chase_survives_all_breaker_play(g, t, x, root_start=t.root)


def test_chase_beats_random_breakers_k5():
    g, t, x = chase_witness(5)
    for seed in range(60):
        rng = Rng(seed)
        chase = TargetChase.of(t, x)
        state = GameState(g, m=2, b=2, start_vertex=t.root)
        moves = 0
        while x not in state.v_c:
            mv = chase.step(state)
            assert not mv.forfeit, seed
            state = validate_and_apply(state, mv)
            moves += 1
            assert moves <= t.k - 1, seed
            if x in state.v_c:
                break
            free = state.free_edges()
            claims = rng.sample(free, min(2, len(free)))
            state = validate_and_apply(state, Move(tuple(claims)))
        assert x in state.v_c


def test_chase_beats_tree_hunting_breaker_k5():
    # adversary that always claims the two lowest free tree arcs
    g, t, x = chase_witness(5)
    arcs = sorted(
        {tuple(sorted(a)) for a in tree_arcs(t)} | {tuple(sorted((l, x))) for l in tree_leaves(t)}
    )
    chase = TargetChase.of(t, x)
    state = GameState(g, m=2, b=2, start_vertex=t.root)
    moves = 0
    while x not in state.v_c:
        mv = chase.step(state)
        assert not mv.forfeit
        state = validate_and_apply(state, mv)
        moves += 1
        assert moves <= t.k - 1
        if x in state.v_c:
            break
        claims = [e for e in arcs if state.is_free(e)][:2]
        state = validate_and_apply(state, Move(tuple(claims)))
    assert x in state.v_c


def test_chase_copy_is_independent():
    g, t, x = chase_witness(3)
    chase = TargetChase.of(t, x)
    state = GameState(g, m=2, b=2, start_vertex=t.root)
    state = validate_and_apply(state, chase.step(state))
    dup = copy_chase(chase)
    state2 = state.copy()
    mv_a = chase.step(state)
    mv_b = dup.step(state2)
    assert mv_a == mv_b


# ---------------------------------------------------------------------------
# stage searches


def is_embedded(g: Graph, t: TreeEmbedding) -> bool:
    return all(g.has_edge(u, w) for u, w in tree_arcs(t))


def test_find_tree_stage1_on_witness():
    g, t, x = chase_witness(3)
    found = find_tree_stage1(g, set(), [t.root], x, 3, seed=1)
    assert found is not None
    assert found.root == t.root
    assert is_embedded(g, found)
    for leaf in tree_leaves(found):
        assert g.has_edge(leaf, x)
    # blocking one subtree entry forces the search around it or kills it;
    # here the board is exactly the tree, so blocking both entries kills it
    assert find_tree_stage1(g, {(0, 1), (0, 2)}, [t.root], x, 3, seed=1) is None
    # a too-deep request outgrows the board
    assert find_tree_stage1(g, set(), [t.root], x, 4, seed=1) is None


def test_find_tree_stage1_respects_blocked_leaf_edges():
    g, t, x = chase_witness(2)
    assert find_tree_stage1(g, {(1, 3)}, [t.root], x, 2, seed=0) is None
    # only one leaf blocked: a 2-level tree needs two leaves, still dead
    g2, t2, x2 = chase_witness(2, extra_edges=[(0, 3)])
    assert find_tree_stage1(g2, {(1, 3)}, [t2.root], x2, 2, seed=0) is None


def test_find_tree_stage1_dense_random():
    g = gen_gnp(40, 0.5, 9)
    x = 39
    for root in range(3):
        found = find_tree_stage1(g, set(), [root], x, 3, seed=root)
        if found is None:
            continue
        assert found.root == root
        assert x not in found.vertices()
        assert is_embedded(g, found)
        for leaf in tree_leaves(found):
            assert g.has_edge(leaf, x)
        return
    pytest.fail("no stage-1 tree found on a dense board")


def test_find_tree_stage1_roots_share_the_cap_and_reseed(monkeypatch):
    # two wide dead roots (no vertex of their fans reaches x) before the
    # real tree's root: searching one spends expansions and finds no tree
    k = 3
    g0, t, x = chase_witness(k)
    edges = list(g0.sorted_edges())
    dead = []
    n = g0.n
    for _ in range(2):
        fan = list(range(n + 1, n + 9))
        edges += [(n, w) for w in fan]
        edges += [(u, w) for i, u in enumerate(fan) for w in fan[i + 1 :]]
        dead.append(n)
        n += 1 + len(fan)
    g = Graph(n, edges)
    alone = find_tree_stage1(g, set(), [t.root], x, k, seed=5)
    assert alone is not None and alone.root == t.root
    # an ample cap: dead roots cost nothing but expansions, and the live
    # root's search is reseeded, so it finds the very same tree (with one
    # Rng shared across roots, seed 5 gives a mirrored tree)
    assert find_tree_stage1(g, set(), [*dead, t.root], x, k, seed=5) == alone

    def capped(roots, cap):
        monkeypatch.setattr(connector, "EXPANSION_CAP", cap)
        return find_tree_stage1(g, set(), roots, x, k, seed=5)

    def smallest_cap(roots):
        return next(cap for cap in range(1, 2000) if capped(roots, cap) == alone)

    # every root's expansions count against the one cap
    live = smallest_cap([t.root])
    one_dead = smallest_cap([dead[0], t.root])
    assert live < one_dead - 1
    assert one_dead < smallest_cap([*dead, t.root])
    # one short, the budget left after the dead root's failed search runs
    # out, although the later root alone finds its tree within that cap
    assert capped([t.root], one_dead - 1) == alone
    assert capped([dead[0], t.root], one_dead - 1) is None


def search_outcome(search, g, blocked, root, x, k, seed, budget, tolerate_into, banned):
    """What one search call shows: the tree, None or "capped", then the
    budget left and the next draw of its Rng."""
    rng = Rng(seed)
    left = [budget]
    try:
        tree = search(g, blocked, root, x, k, rng, left, tolerate_into, banned)
    except _Capped:
        tree = "capped"
    return tree, left[0], rng.u64()


# the uncapped need above this counts as this; budgets then stop just past it
NEED_LIMIT = 3000
# the same for sparse boards, whose failing searches run longer
SPARSE_NEED_LIMIT = 30000


@st.composite
def search_cases(draw, sparse=False):
    """A search call and a budget near what it needs. Dense boards (n just
    above the tree's size, p >= 0.4) rarely leave a leaf parent with fewer
    than two free leaves; sparse ones (k 3 to 5, n up to 96, p <= 0.35)
    often do, so they reach the search's doomed-pair charges."""
    if sparse:
        k = draw(st.integers(3, 5))
        n = draw(st.sampled_from([40, 64, 96] if k == 5 else [24, 40, 64]))
        board_seed = draw(st.integers(0, 2**32))
        g = gen_gnp(n, draw(st.sampled_from([0.15, 0.25, 0.35])), board_seed)
    else:
        k = draw(st.integers(2, 4))
        n = draw(st.integers(2**k, 2**k + 5))
        board_seed = draw(st.integers(0, 2**32))
        g = gen_gnp(n, draw(st.sampled_from([1.0, 0.8, 0.6, 0.4])), board_seed)
    coin = Rng(board_seed)
    rate = draw(st.sampled_from([0.0, 0.1, 0.25]))
    blocked = {e for e in g.sorted_edges() if coin.random() < rate}
    root = draw(st.integers(0, n - 1))
    x = (root + draw(st.integers(1, n - 1))) % n
    tolerate_into = draw(st.none() | st.sets(st.integers(0, n - 1), max_size=n))
    banned = frozenset(draw(st.sets(st.integers(0, n - 1), max_size=2)) - {root})
    seed = draw(st.integers(0, 2**64 - 1))
    args = (g, blocked, root, x, k, seed)
    limit = SPARSE_NEED_LIMIT if sparse else NEED_LIMIT
    need = search_outcome(naive_find_tree, *args, limit, tolerate_into, banned)
    need = limit if need[0] == "capped" else limit - need[1]
    if sparse:
        # half the need caps mid-search; the search's own cap is ample for
        # a search that ends within the limit
        ample = EXPANSION_CAP if need < limit else need
        near = st.sampled_from([need - 1, need, need + 1, need // 2, ample])
        return args + (max(draw(near), 1), tolerate_into, banned)
    # the exact need and its neighbours are where a miscounted charge shows
    near = st.sampled_from([need - 1, need, need + 1]).map(lambda b: max(b, 1))
    budget = draw(near | st.integers(1, need + 2))
    return args + (budget, tolerate_into, banned)


def witness_case(k, budget, blocked=(), banned=(), target=None):
    g, t, x = chase_witness(k)
    x = x if target is None else target
    return (g, set(blocked), t.root, x, k, 3, budget, None, frozenset(banned))


# root 0 reaches leaves 1 and 2 of x=3, but (0, 2) is blocked; Rng(2)
# orders the root's neighbors [2, 1], so the failing search spends its
# last 2 of 4 expansions on node 3's skipped prefix; with 3, the 1 left
# cannot cover that prefix and the cap leaves it untouched
DEAD_END = (Graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]), {(0, 2)}, 0, 3, 2, 2)

# The cases below place the cap where a search that charges skipped
# candidates in bulk could miscount. "Good" positions are those whose
# vertex passes every filter that cannot change during the call (not the
# root, x or banned, in the leaf pool at a leaf level, an arc allowed).

# x=1 sees 2 and 3 only; Rng(2) orders the root's neighbors [3, 5, 6, 4, 2],
# good at 0 and 4. With 3 expansions node 3's prefix leaves 1, spent on 5:
# the cap fires on 6, inside the skipped run. The tree needs 6.
SKIP_RUN = (Graph(7, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3)]), set(), 0, 1, 2, 2)

# as SKIP_RUN but the root does not see 3: Rng(2) orders its neighbors
# [2, 4, 6, 5], good at 0 only. The failing search costs 8: 1 to place 2
# as node 2, 1 for node 3's prefix, 3 for node 3's scan of the tail past
# the root's last good position, and 3 for node 2's scan of the same tail.
# 3 expansions cap in the first tail, 6 in the second, and 8 return None
# with nothing left.
TAIL = (Graph(7, [(0, 2), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3)]), set(), 0, 1, 2, 2)

# k=3 below root 0 with inner nodes 1 and 2 and x=8: leaves 3, 4 and 7 hang
# off 1, leaves 3 and 5 off 2, and 6 is a non-leaf neighbor of 2. Rng(16)
# puts 3 below 1 first, so 2's order [0, 6, 3, 5] (good at 2 and 3) meets 3
# while it is used; with 9 expansions the cap fires on exactly that
# position, after 0 and 6 are skipped. The search then backtracks until 3
# hangs off 2: the tree needs 23.
USED_GOOD = (
    Graph(9, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 7), (2, 3), (2, 5), (2, 6)]
          + [(3, 8), (4, 8), (5, 8), (7, 8)]),
    set(), 0, 8, 3, 16,
)

# stage-2 mode, x=1: leaf 7 is banned, the blocked arc (0, 3) is tolerated
# and (0, 8) is not. Rng(3) orders the root's neighbors [8, 2, 4, 7, 3, 5],
# good at 1 and 4; with 5 expansions the cap fires on the banned 7, between
# them. The tree (0, 2, 3) needs 7.
STAGE2 = (
    Graph(9, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 7), (0, 8), (1, 2), (1, 3), (1, 7), (1, 8)]),
    {(0, 3), (0, 8)}, 0, 1, 2, 3,
)


@example(case=(*SKIP_RUN, 3, None, frozenset()))
@example(case=(*SKIP_RUN, 6, None, frozenset()))
@example(case=(*TAIL, 3, None, frozenset()))
@example(case=(*TAIL, 6, None, frozenset()))
@example(case=(*TAIL, 8, None, frozenset()))
@example(case=(*USED_GOOD, 9, None, frozenset()))
@example(case=(*USED_GOOD, 23, None, frozenset()))
@example(case=(*STAGE2, 5, {3}, frozenset({7})))
@example(case=(*STAGE2, 7, {3}, frozenset({7})))
@example(case=witness_case(3, 10**4))
@example(case=witness_case(3, 1))
@example(case=witness_case(3, 10**4, blocked=[(1, 3)]))
@example(case=witness_case(2, 10**4, banned=[2]))
@example(case=witness_case(2, 10**4, target=0))  # the root itself
@example(case=(*DEAD_END, 3, None, frozenset()))
@example(case=(*DEAD_END, 4, None, frozenset()))
@settings(max_examples=250, deadline=None)
@given(case=search_cases())
def test_find_tree_matches_the_position_search(case):
    """The heap-indexed search visits, places and caps exactly like the
    (level, index) search it replaced: the same tree or None, the same
    _Capped, and the same budget and Rng state left when it returns. After
    _Capped the budget left is 0, or untouched when the cap fired on a
    right child's skipped prefix."""
    assert search_outcome(_find_tree, *case) == search_outcome(naive_find_tree, *case)


# The cases below meet leaf pairs that cannot be filled: their parent has
# fewer than two free leaves (leaf-pool neighbours through an allowed arc
# that are not placed yet). k=3 below root 0 with x=9: inner vertices 1 and
# 2 hold leaves 3, 4 and 5, 6; the root's third neighbour 7 also sees 8,
# which is not a leaf. Rng(0) and Rng(3) put 7 first in the root's order.
DOOMED = [(0, 1), (0, 2), (0, 7), (1, 3), (1, 4), (2, 5), (2, 6), (7, 8)]
DOOMED += [(v, 9) for v in (3, 4, 5, 6)]

# 7 has no free leaf: with 7 as node 2, each of node 3's candidates 1 and
# 2 costs 1 plus 7's whole order [0, 8], and Rng(0) draws that order after
# the first of them is reached. The tree needs 20; with 5 the cap fires in
# the charge for the pairs, and with 2 on reaching 1, before the draw.
NO_FREE_LEAF = (Graph(10, DOOMED), set(), 0, 9, 3, 0)

# 7 also sees the leaf 3, its one free leaf: Rng(3) orders 7's neighbors
# [8, 3, 0], so each pair below 7 costs 2 to reach 3, 2 for the right
# leaf's skipped prefix and 1 + 1 for the two tails. The tree needs 26,
# and that budget covers node 3's whole scan, which is charged at once.
# With 6 the scan is walked, and the cap fires on that prefix, leaving
# the 1 it found.
ONE_FREE_LEAF = (Graph(10, DOOMED + [(3, 7)]), set(), 0, 9, 3, 3)

# stage-2 mode on the same board: (0, 1) and (3, 7) are blocked, and both
# are tolerated, so 3 is still 7's free leaf; 8 is banned but still costs
# its place in 7's order. The same tree needs 26. Tolerating 1 alone
# leaves 7 with no free leaf.
STAGE2_FREE_LEAF = (Graph(10, DOOMED + [(3, 7)]), {(0, 1), (3, 7)}, 0, 9, 3, 3)


# k=4 below root 0 with x=19, whose leaves are 10 .. 17: 2 sees 5, 6 and
# 7, and 1 sees 3, 4 and 8; 7 sees only 18, not a leaf, so it has no free
# leaf. Rng(5) puts 2 below the root first and 7 first below 2, so with
# node 4 on 7, nodes 6 and 7 below 1 (order [0, 4, 8, 3], three unused
# candidates) cost 4 + 3 * 4 + 2 * 3 = 22 at once, and Rng(5) draws 7's
# order there, once. The tree needs 76. With 19, 13 are left there, so
# the pair is walked, and the cap fires on node 7's skipped prefix with 2
# left.
SIBLINGS = [(0, 1), (0, 2), (1, 3), (1, 4), (1, 8), (2, 5), (2, 6), (2, 7), (3, 9), (7, 18)]
SIBLINGS += [(4, 10), (4, 11), (8, 12), (8, 13), (5, 14), (5, 15), (6, 16), (6, 17)]
SIBLINGS += [(v, 19) for v in range(10, 18)]
DOOMED_SIBLINGS = (Graph(20, SIBLINGS), set(), 0, 19, 4, 5)

# as above, but 2 sees 5 and 7, and 1 sees 4 and 5 only. Rng(4) orders 2's
# neighbors [0, 7, 5]: with 7 on node 4 and 5 on node 5, node 6 has one
# unused candidate below 1, so nodes 6 and 7 cost 3 + 3 at once and draw
# nothing, for node 7 never gets a candidate. The search fails after 21.
ONE_SIBLING = [(0, 1), (0, 2), (1, 4), (1, 5), (2, 5), (2, 7), (7, 18)]
ONE_SIBLING += [(4, 10), (4, 11), (5, 12), (5, 13)] + [(v, 19) for v in range(10, 18)]
ONE_SIBLING = (Graph(20, ONE_SIBLING), set(), 0, 19, 4, 4)

# k=5 below root 0 with x=31: the full tree with node h on vertex h-1, so
# v's children are 2v+1 and 2v+2 and the leaves are 15 .. 30, plus a third
# child 32 of 3 that sees only 33, not a leaf. Rng(12) orders 3's
# neighbours [32, 8, 7, 1], so 32 is node 8, the first leaf parent, with
# no free leaf, while 8 and then 7 are tried as node 9. Each time nodes 2
# .. 13 are placed, nodes 14 and 15 below 6 (order [14, 13, 2], two unused
# candidates) cost 3 + 2 * 3 + 2 * 1 = 11 at once; the first time draws 32's
# order. The tree needs 117; with 116 the cap fires on the last charge.
FIVE_LEVELS = [(v, 2 * v + c) for v in range(15) for c in (1, 2)]
FIVE_LEVELS += [(v, 31) for v in range(15, 31)] + [(3, 32), (32, 33)]
DOOMED_FIVE_LEVELS = (Graph(34, FIVE_LEVELS), set(), 0, 31, 5, 12)


@example(case=(*NO_FREE_LEAF, 20, None, frozenset()))
@example(case=(*NO_FREE_LEAF, 5, None, frozenset()))
@example(case=(*NO_FREE_LEAF, 2, None, frozenset()))
@example(case=(*ONE_FREE_LEAF, 26, None, frozenset()))
@example(case=(*ONE_FREE_LEAF, 6, None, frozenset()))
@example(case=(*STAGE2_FREE_LEAF, 26, {1, 3}, frozenset({8})))
@example(case=(*STAGE2_FREE_LEAF, 26, {1}, frozenset({8})))
@example(case=(*DOOMED_SIBLINGS, 76, None, frozenset()))
@example(case=(*DOOMED_SIBLINGS, 19, None, frozenset()))
@example(case=(*ONE_SIBLING, 10**4, None, frozenset()))
@example(case=(*DOOMED_FIVE_LEVELS, 117, None, frozenset()))
@example(case=(*DOOMED_FIVE_LEVELS, 116, None, frozenset()))
@settings(max_examples=300, deadline=None)
@given(case=search_cases(sparse=True))
def test_find_tree_matches_the_position_search_on_sparse_boards(case):
    """As above, on boards sparse enough that many leaf pairs are doomed:
    the same tree, budget and next Rng draw, or the same cap."""
    assert search_outcome(_find_tree, *case) == search_outcome(naive_find_tree, *case)


def test_public_searches_need_two_levels():
    g, t, x = chase_witness(2)
    with pytest.raises(ParameterError):
        find_tree_stage1(g, set(), [t.root], x, 1)
    with pytest.raises(ParameterError):
        find_structure_stage2(g, [], m_set={0}, a1={0}, x=x, k2=1)


def test_find_structure_stage2_witness():
    # pivot z=1 adjacent to a1={0}; four disjoint 2-level trees below z
    n = 30
    edges = [(0, 1)]
    x = 29
    roots = [2, 3, 4, 5]
    leaf = 6
    for r in roots:
        edges.append((1, r))
        leaves = [leaf, leaf + 1]
        leaf += 2
        for w in leaves:
            edges.append((r, w))
            edges.append((w, x))
    g = Graph(n, edges)
    found = find_structure_stage2(g, [], m_set={0}, a1={0}, x=x, k2=2, seed=4)
    assert found is not None
    z, trees = found
    assert z == 1
    assert len(trees) == 4
    seen = set()
    for t in trees:
        assert t.k == 2
        assert is_embedded(g, t)
        assert not (t.vertices() & seen)
        seen |= t.vertices()
    # blocking the a1-z edge removes the only pivot
    assert (
        find_structure_stage2(g, [(0, 1)], m_set={0}, a1={0}, x=x, k2=2, seed=4)
        is None
    )


def test_find_structure_stage2_tolerates_blocked_into_mset():
    # same witness, but one tree arc is blocked; it leads into the m_set,
    # which the search tolerates
    n = 30
    edges = [(0, 1)]
    x = 29
    roots = [2, 3, 4, 5]
    leaf = 6
    for r in roots:
        edges.append((1, r))
        leaves = [leaf, leaf + 1]
        leaf += 2
        for w in leaves:
            edges.append((r, w))
            edges.append((w, x))
    g = Graph(n, edges)
    blocked = [(2, 6)]
    assert (
        find_structure_stage2(g, blocked, m_set={0}, a1={0}, x=x, k2=2, seed=4) is None
    )
    found = find_structure_stage2(g, blocked, m_set={0, 6}, a1={0}, x=x, k2=2, seed=4)
    assert found is not None


# ---------------------------------------------------------------------------
# decomposition


def test_alpha_table():
    assert alpha_table(4) == (1, 4, 10, 22)
    got = alpha_table(12)
    for i in range(11):
        assert got[i + 1] == 2 * (got[i] + 1)
    with pytest.raises(ParameterError):
        alpha_table(0)


def test_make_cells_checks_sizes_before_building_keys(monkeypatch):
    # k=30 asks for 4(2^30 - 1) cells; building their keys first ran for
    # minutes, so the keys must not be built at all
    def no_keys(k):
        raise AssertionError("cell_keys called before the size checks")

    monkeypatch.setattr(connector, "cell_keys", no_keys)
    # the size itself must not take 2^(k+4) either: at k=10^12 that power
    # alone needs more memory than any machine has
    for k in (30, 10**12):
        with pytest.raises(ParameterError, match="cell size 0 is not positive"):
            make_cells(64, x=0, k=k)
    # a depth below 1 once gave a float cell size (128.0 at k=-5) and no
    # cells, or an empty decomposition
    g = Graph(64, [(0, 1)])
    for k in (0, -5):
        with pytest.raises(ParameterError, match=f"depth must be at least 1, got k={k}"):
            make_cells(64, x=0, k=k)
        with pytest.raises(ParameterError, match=f"depth must be at least 1, got k={k}"):
            decompose(g, 0, {}, k)


def test_make_cells_layout():
    cells = make_cells(200, x=7, k=2, seed=0)
    # k=2: eight level-1 cells and four level-2 cells
    assert len(cells) == 12
    assert {len(c) for c in cells.values()} == {200 // 2**6}
    seen = set()
    for c in cells.values():
        assert 7 not in c
        assert not (c & seen)
        seen |= c
    assert make_cells(200, x=7, k=2, seed=0) == cells
    assert make_cells(200, x=7, k=2, seed=1) != cells
    # the hand-sized cells of the small-board tests share this layout
    assert hand_cells(200, 7, 2, 200 // 2**6, seed=0) == cells
    with pytest.raises(ParameterError):
        make_cells(50, x=0, k=2)  # the derived size collapses to zero
    for off_board in (-1, 200):
        with pytest.raises(ParameterError):
            make_cells(200, x=off_board, k=2)


def test_make_cells_never_outgrow_the_board():
    # 4(2^k - 1) cells of n // 2^(k+4) vertices use at most n/4 of them;
    # depths start at 1, below which make_cells refuses
    for n in (16, 17, 100, 999, 4099):
        for k in range(1, 9):
            if n // 2 ** (k + 4) < 1:
                continue
            cells = make_cells(n, x=n - 1, k=k, seed=k)
            assert sum(len(c) for c in cells.values()) <= n / 4


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_decompose_on_complete_graph():
    g = complete_graph(25)
    cells = hand_cells(25, 0, 2, 2, seed=2)
    dec = decompose(g, 0, cells, 2)
    assert dec is not None
    assert dec.x == 0 and dec.k == 2 and dec.n == 25
    # complete adjacency keeps every cell vertex
    for key, cell in dec.cells:
        assert dec.mset(key) == cell
    assert dec.mset((0, 1, 1)) == frozenset({0})
    # level-1 skeleton edges all touch x
    for l in range(1, 5):
        for j in (1, 2):
            for v in dec.mset((1, j, l)):
                assert dec.h.has_edge(0, v)


def test_decomposition_lookups_leave_equality_alone():
    g = complete_graph(25)
    cells = hand_cells(25, 0, 2, 2, seed=2)
    dec = decompose(g, 0, cells, 2)
    twin = decompose(g, 0, cells, 2)
    for key, cell in dec.cells:
        assert dec.cell(key) == cell and dec.mset(key) == dict(dec.msets)[key]
    # the lookup tables built above are not part of the value
    assert dec == twin and hash(dec) == hash(twin) and repr(dec) == repr(twin)
    assert dataclasses.astuple(dec) == dataclasses.astuple(twin)


def test_decompose_returns_none_when_starved():
    # isolated center: no level-1 selection anywhere
    g = Graph(25)
    cells = hand_cells(25, 0, 2, 2, seed=2)
    assert decompose(g, 0, cells, 2) is None


def test_decompose_input_validation():
    g = complete_graph(25)
    cells = hand_cells(25, 0, 2, 2, seed=2)
    bad = dict(cells)
    bad.pop((1, 1, 1))
    with pytest.raises(ParameterError):
        decompose(g, 0, bad, 2)
    bad = dict(cells)
    bad[(1, 1, 1)] = frozenset(list(bad[(1, 1, 1)])[:1])
    with pytest.raises(ParameterError):
        decompose(g, 0, bad, 2)  # unequal sizes
    bad = dict(cells)
    bad[(1, 1, 1)] = bad[(1, 2, 1)]
    with pytest.raises(ParameterError):
        decompose(g, 0, bad, 2)  # overlap
    bad = dict(cells)
    bad[(1, 1, 1)] = frozenset([0, 1])
    with pytest.raises(ParameterError):
        decompose(g, 0, bad, 2)  # contains x
    with pytest.raises(ParameterError):
        decompose(g, 25, cells, 2)  # center off the board


# ---------------------------------------------------------------------------
# plan plumbing


def test_tree_depth_for():
    assert tree_depth_for(1.0) == 2
    assert tree_depth_for(0.2) == 2
    assert tree_depth_for(0.1) == 3
    assert tree_depth_for(0.05) == 4
    assert tree_depth_for(0.01) == 4  # capped
    assert tree_depth_for(0.0) == 4
    assert tree_depth_for(-0.3) == 4


def test_make_plan_parameters():
    g = gen_gnp(100, 0.2, 0)
    plan = make_plan(g, m=2, p_hint=0.2)
    # eps = ln(0.2)/ln(100) + 2/3 is about 0.317, comfortably depth 2
    assert plan.k2 == 2 and plan.k1 == 3 and plan.budget == 5
    assert plan.a1 == range(5)  # ceil(100^(1/3)) = 5
    assert len(plan.a2) == math.ceil(100 ** (2 / 3))
    assert plan.a2 == range(5, 5 + len(plan.a2))
    assert plan.stage == "I"
    for m in (1, 2.5, True):
        with pytest.raises(ParameterError):
            make_plan(g, m=m)
    # empirical density fallback gives the same depths here
    plan2 = make_plan(g, m=2)
    assert plan2.k2 == plan.k2


def test_select_target_stage1():
    g = complete_graph(12)
    plan = make_plan(g, m=2, p_hint=0.9)
    plan.a1 = range(3)
    plan.a2 = range(3, 6)
    s = GameState(g, connector_edges=[(0, 2)])
    assert select_target(s, plan) == 1
    s = GameState(g, connector_edges=[(0, 1), (1, 2)])
    assert select_target(s, plan) == 3
    s = GameState(g, connector_edges=[(u, u + 1) for u in range(5)])
    assert select_target(s, plan) == 6


def test_select_target_stage2_most_breaker_edges():
    g = complete_graph(8)

    def stage2_target(state: GameState) -> int:
        # a plan serves successive positions of one game, so each
        # unrelated position gets a fresh one
        plan = make_plan(g, m=2, p_hint=0.9)
        plan.targets_done = 1
        return select_target(state, plan)

    s = GameState(
        g,
        connector_edges=[(0, 1)],
        breaker_edges=[(4, 5), (4, 6), (5, 6), (2, 7), (3, 7)],
    )
    assert stage2_target(s) == 4  # ties with 5 and 6 break low
    s2 = GameState(g, connector_edges=[(0, 1)], breaker_edges=[(2, 7), (3, 7)])
    assert stage2_target(s2) == 7


def test_select_target_exhausted_board():
    g = complete_graph(4)
    plan = make_plan(g, m=2, p_hint=0.9)
    s = GameState(g, connector_edges=[(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ParameterError):
        select_target(s, plan)
    plan.targets_done = 1
    with pytest.raises(ParameterError):
        select_target(s, plan)


def test_connector_move_opening_and_fast_paths():
    g = complete_graph(12)
    plan = make_plan(g, m=2, p_hint=0.9)
    s = GameState(g, m=2, b=2)
    assert connector_move(s, plan) == Move(((0, 1),))  # lowest free edge
    # spanned board: empty move
    spanned = GameState(g, connector_edges=[(u, u + 1) for u in range(11)])
    plan2 = make_plan(g, m=2, p_hint=0.9)
    assert connector_move(spanned, plan2) == Move(())
    # target adjacent through territory: claim that one edge
    plan3 = make_plan(g, m=2, p_hint=0.9)
    s3 = GameState(g, m=2, b=2, connector_edges=[(0, 1)])
    mv = connector_move(s3, plan3)
    assert plan3.target == 2
    assert mv.edges in (((1, 2),), ((0, 2),))


def test_connector_move_direct_edge_prefers_a2_then_lowest():
    g = complete_graph(12)
    # n=12: a1 = range(3), a2 = range(3, 9); stage I targets vertex 1
    plan = make_plan(g, m=2, p_hint=0.9)
    s = GameState(g, m=2, b=2, connector_edges=[(0, 4), (4, 9)])
    # the a2 edge (1, 4) beats the lower free edge (0, 1) from a1
    assert connector_move(s, plan) == Move(((1, 4),))
    assert plan.target == 1
    assert naive_direct_edge(s, plan, 1) == (1, 4)
    # with (1, 4) taken by Breaker the lowest other territory edge is next
    plan2 = make_plan(g, m=2, p_hint=0.9)
    s2 = GameState(
        g, m=2, b=2, connector_edges=[(0, 4), (4, 9)], breaker_edges=[(1, 4)]
    )
    assert connector_move(s2, plan2) == Move(((0, 1),))
    assert naive_direct_edge(s2, plan2, 1) == (0, 1)


def test_connector_move_stage_flips_when_target_lands():
    g = complete_graph(12)
    plan = make_plan(g, m=2, p_hint=0.9)
    plan.target = 2
    s = GameState(g, m=2, b=2, connector_edges=[(0, 2)])
    connector_move(s, plan)
    assert plan.stage == "II"
    assert plan.targets_done == 1


def test_connector_move_forfeits_without_structure():
    # path graph: no branching tree toward a far target exists, and the
    # target is not adjacent to territory, so the fast path cannot save it
    g = Graph(12, [(u, u + 1) for u in range(11)])
    plan = make_plan(g, m=2, p_hint=0.05)
    s = GameState(g, m=2, b=2, connector_edges=[(3, 4)])
    mv = connector_move(s, plan)
    # vertex 0, three steps from the territory, lies in a1 = range(3)
    assert plan.case == 1 and plan.target == 0
    assert mv.forfeit
    assert FORFEIT_NO_STRUCTURE in mv.flags


def test_connector_move_budget_forfeit():
    g = complete_graph(12)
    plan = make_plan(g, m=2, p_hint=0.9)
    plan.a1 = range(1)
    plan.a2 = range(1, 2)
    s = GameState(g, m=2, b=2, connector_edges=[(6, 7)])
    # replay the same unprogressed state past the budget: the plan burns a
    # round per call and eventually resigns
    last = None
    for _ in range(plan.budget + 1):
        last = connector_move(s, plan)
    assert last.forfeit
    assert FORFEIT_BUDGET in last.flags


def test_connector_move_case3_needs_single_edge():
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4), (0, 4), (2, 3)])
    plan = make_plan(g, m=2, p_hint=0.9)
    plan.a1 = range(2)
    plan.a2 = range(2, 3)
    s = GameState(g, m=2, b=2, connector_edges=[(0, 1), (1, 2)])
    mv = connector_move(s, plan)
    assert plan.case == 3
    assert mv.edges in (((2, 3),), ((0, 4),))
    # same position with those edges gone: forfeit
    plan2 = make_plan(g, m=2, p_hint=0.9)
    plan2.a1 = range(2)
    plan2.a2 = range(2, 3)
    s2 = GameState(
        g, m=2, b=2, connector_edges=[(0, 1), (1, 2)],
        breaker_edges=[(2, 3), (0, 4)],
    )
    mv2 = connector_move(s2, plan2)
    assert mv2.forfeit
    assert FORFEIT_NO_EDGE in mv2.flags


def test_chase_matches_subtree_descent_on_paper_games(monkeypatch):
    """Recorded paper-connector games near the crossing, n 200 and 400,
    against the paper and random Breakers. Every round that gets past the
    direct edge in a reservoir case is checked against the subtree-based
    descent in `oracles`, which holds the stage-II pivot over a round.
    Each path is reached: a stage-I chase, a stage-II pivot claim, a
    stage-II chase and a finish at the leaves."""
    real = strategies.connector_move
    paths = Counter()
    held = {}

    def checked(state, plan):
        move = real(state, plan)
        if not state.v_c or plan.rounds_used > plan.budget or plan.case == 3:
            return move
        if naive_direct_edge(state, plan, plan.target) is not None:
            return move
        if held.get("plan") is not plan or held["done"] != plan.targets_done:
            held.update(plan=plan, done=plan.targets_done, ref=ReferenceStructure())
        want, took = held["ref"].move(state, plan)
        assert move == want
        paths.update(took)
        return move

    monkeypatch.setattr(strategies, "connector_move", checked)
    for n in (200, 400):
        for e in (-0.5, -0.45):
            for seed in range(4):
                g = gen_gnp(n, n**e, seed)
                for bid in ("paper-breaker", "random"):
                    run_game(
                        g,
                        make_strategy("paper-connector", p_hint=n**e),
                        make_strategy(bid),
                        start_vertex=0,
                        seed=seed,
                    )
    assert set(paths) == {"stage-I chase", "pivot claim", "stage-II chase", "leaf finish"}
