from __future__ import annotations

import dataclasses
import math

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
    FORFEIT_BUDGET,
    FORFEIT_NO_EDGE,
    FORFEIT_NO_STRUCTURE,
    _root_branches,
    _two_good,
    _Capped,
    _find_tree,
    connector_move,
)
from conbreak.rng import Rng

from oracles import chase_survives_all_breaker_play, chase_witness, naive_find_tree


# ---------------------------------------------------------------------------
# embeddings


def small_tree() -> TreeEmbedding:
    return TreeEmbedding(2, (0, 1, 2))


def test_embedding_accessors():
    t = small_tree()
    assert t.root == 0
    assert t.heap[2] == 2
    assert t.vertices() == frozenset({0, 1, 2})
    assert t.leaves() == [1, 2]
    assert t.arcs() == [(0, 1), (0, 2)]


def test_embedding_validation():
    with pytest.raises(ParameterError):
        TreeEmbedding(2, (0, 1))  # missing node
    with pytest.raises(ParameterError):
        TreeEmbedding(2, (0, 1, 1))  # reused vertex
    with pytest.raises(ParameterError):
        TreeEmbedding(0, ())


def test_subtree_reindexes():
    _, t, _ = chase_witness(3)
    # node h sits on vertex h-1 in the witness
    assert t.subtree(1) == t
    left = t.subtree(2)
    assert left.k == 2
    assert left.heap == (1, 3, 4)
    right = t.subtree(3)
    assert right.heap == (2, 5, 6)
    leaf = t.subtree(6)
    assert leaf.k == 1 and leaf.root == 5
    for bad in (0, 8):
        with pytest.raises(ParameterError):
            t.subtree(bad)


# ---------------------------------------------------------------------------
# good trees and the first descent step


def good_branches(t: TreeEmbedding, x: int, state: GameState):
    return _two_good(_root_branches(t), x, state)


def test_is_good_tree():
    g, t, x = chase_witness(2)
    s = GameState(g, m=2, b=2, start_vertex=t.root)
    assert good_branches(t, x, s) == _root_branches(t)
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
    g4 = Graph(5, sorted(g.edges) + [(2, 4)])
    s4 = GameState(g4, m=2, b=2, connector_edges=[(2, 4)], breaker_edges=[(0, 2)])
    assert good_branches(t, x, s4) == _root_branches(t)
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
    arcs = sorted({tuple(sorted(a)) for a in t.arcs()} | {tuple(sorted((l, x))) for l in t.leaves()})
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
    dup = chase.copy()
    state2 = state.copy()
    mv_a = chase.step(state)
    mv_b = dup.step(state2)
    assert mv_a == mv_b


# ---------------------------------------------------------------------------
# stage searches


def is_embedded(g: Graph, t: TreeEmbedding) -> bool:
    return all(g.has_edge(u, w) for u, w in t.arcs())


def test_find_tree_stage1_on_witness():
    g, t, x = chase_witness(3)
    found = find_tree_stage1(g, set(), [t.root], x, 3, seed=1)
    assert found is not None
    assert found.root == t.root
    assert is_embedded(g, found)
    for leaf in found.leaves():
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
        for leaf in found.leaves():
            assert g.has_edge(leaf, x)
        return
    pytest.fail("no stage-1 tree found on a dense board")


def test_find_tree_stage1_roots_share_the_cap_and_reseed():
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

    def smallest_cap(roots):
        return next(
            cap
            for cap in range(1, 2000)
            if find_tree_stage1(g, set(), roots, x, k, seed=5, cap=cap) == alone
        )

    # every root's expansions count against the one cap
    live = smallest_cap([t.root])
    one_dead = smallest_cap([dead[0], t.root])
    assert live < one_dead - 1
    assert one_dead < smallest_cap([*dead, t.root])
    # one short, the budget left after the dead root's failed search runs
    # out, although the later root alone finds its tree within that cap
    assert find_tree_stage1(g, set(), [t.root], x, k, seed=5, cap=one_dead - 1) == alone
    assert find_tree_stage1(g, set(), [dead[0], t.root], x, k, seed=5, cap=one_dead - 1) is None


def search_outcome(search, g, blocked, root, x, k, seed, budget, tolerate_into, banned):
    """What one search call shows: "capped" and the budget left, or the
    tree (or None), the budget left and the next draw of its Rng."""
    rng = Rng(seed)
    left = [budget]
    try:
        tree = search(g, blocked, root, x, k, rng, left, tolerate_into, banned)
    except _Capped:
        return "capped", left[0]
    return tree, left[0], rng.u64()


# the uncapped need above this counts as this; budgets then stop just past it
NEED_LIMIT = 3000


@st.composite
def search_cases(draw):
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
    need = search_outcome(naive_find_tree, *args, NEED_LIMIT, tolerate_into, banned)
    need = NEED_LIMIT if need[0] == "capped" else NEED_LIMIT - need[1]
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
    with pytest.raises(ParameterError):
        make_cells(50, x=0, k=2)  # default size collapses to zero
    explicit = make_cells(50, x=0, k=2, cell_size=4)
    assert {len(c) for c in explicit.values()} == {4}
    with pytest.raises(ParameterError):
        make_cells(40, x=0, k=2, cell_size=4)  # 48 slots from 39 vertices
    for off_board in (-1, 200):
        with pytest.raises(ParameterError):
            make_cells(200, x=off_board, k=2)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_decompose_on_complete_graph():
    g = complete_graph(25)
    cells = make_cells(25, x=0, k=2, seed=2, cell_size=2)
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
    cells = make_cells(25, x=0, k=2, seed=2, cell_size=2)
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
    cells = make_cells(25, x=0, k=2, seed=2, cell_size=2)
    assert decompose(g, 0, cells, 2) is None


def test_decompose_input_validation():
    g = complete_graph(25)
    cells = dict(make_cells(25, x=0, k=2, seed=2, cell_size=2))
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
    assert plan.a1 == frozenset(range(5))  # ceil(100^(1/3)) = 5
    assert len(plan.a2) == math.ceil(100 ** (2 / 3))
    assert plan.a2 == frozenset(range(5, 5 + len(plan.a2)))
    assert plan.stage == "I"
    with pytest.raises(ParameterError):
        make_plan(g, m=1)
    # empirical density fallback gives the same depths here
    plan2 = make_plan(g, m=2)
    assert plan2.k2 == plan.k2


def test_select_target_stage1():
    g = complete_graph(12)
    plan = make_plan(g, m=2, p_hint=0.9)
    plan.a1 = frozenset({0, 1, 2})
    plan.a2 = frozenset({3, 4, 5})
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
        plan.stage = "II"
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
    plan.stage = "II"
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


def test_connector_move_stage_flips_when_target_lands():
    g = complete_graph(12)
    plan = make_plan(g, m=2, p_hint=0.9)
    plan.target = 2
    plan.stage = "I"
    s = GameState(g, m=2, b=2, connector_edges=[(0, 2)])
    connector_move(s, plan)
    assert plan.stage == "II"
    assert plan.targets_done == 1


def test_connector_move_forfeits_without_structure():
    # path graph: no branching tree toward a far target exists, and the
    # target is not adjacent to territory, so the fast path cannot save it
    g = Graph(12, [(u, u + 1) for u in range(11)])
    plan = make_plan(g, m=2, p_hint=0.05)
    plan.a1 = frozenset({7})
    plan.a2 = frozenset({8})
    s = GameState(g, m=2, b=2, connector_edges=[(0, 1)])
    mv = connector_move(s, plan)
    assert plan.case == 1 and plan.target == 7
    assert mv.forfeit
    assert FORFEIT_NO_STRUCTURE in mv.flags


def test_connector_move_budget_forfeit():
    g = complete_graph(12)
    plan = make_plan(g, m=2, p_hint=0.9)
    plan.a1 = frozenset({0})
    plan.a2 = frozenset({1})
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
    plan.a1 = frozenset({0, 1})
    plan.a2 = frozenset({2})
    s = GameState(g, m=2, b=2, connector_edges=[(0, 1), (1, 2)])
    mv = connector_move(s, plan)
    assert plan.case == 3
    assert mv.edges in (((2, 3),), ((0, 4),))
    # same position with those edges gone: forfeit
    plan2 = make_plan(g, m=2, p_hint=0.9)
    plan2.a1 = frozenset({0, 1})
    plan2.a2 = frozenset({2})
    s2 = GameState(
        g, m=2, b=2, connector_edges=[(0, 1), (1, 2)],
        breaker_edges=[(2, 3), (0, 4)],
    )
    mv2 = connector_move(s2, plan2)
    assert mv2.forfeit
    assert FORFEIT_NO_EDGE in mv2.flags
