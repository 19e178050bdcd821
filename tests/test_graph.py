from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conbreak import (
    FormatError,
    Graph,
    ParameterError,
    build_bad_set,
    check_b,
    contains_hn,
    gen_gnp,
    graph,
    read_edge_list,
)
from conbreak.graph import GnpDraws, edge, edges_between
from conbreak.rng import MASK64, Rng

from oracles import (
    all_labeled_graphs,
    common_neighbour_hn,
    connected_graph_classes,
    is_spanning_connected,
    naive_gen_gnp,
    sort_modulo_csr,
    spanning_pair_oracle,
)
from test_cli import write_graph


def assert_csr_matches_oracle(g):
    """g's arrays are int64 and read-only, its CSR is the sort-and-modulo
    build of its edge arrays, and its degrees and rows read that CSR."""
    for arr in (g.u, g.v, g.off, g.nbr):
        assert arr.dtype == np.int64 and not arr.flags.writeable
    off, nbr = sort_modulo_csr(g.n, g.u, g.v)
    assert np.array_equal(g.off, off) and np.array_equal(g.nbr, nbr)
    bounds = off.tolist()
    assert [g.degree(w) for w in range(g.n)] == np.diff(off).tolist()
    for w in range(g.n):
        assert g.row(w) == tuple(nbr[bounds[w] : bounds[w + 1]].tolist()), w


def test_edge_canonicalizes():
    assert edge(3, 1) == (1, 3)
    assert edge(1, 3) == (1, 3)
    with pytest.raises(ParameterError):
        edge(2, 2)


def test_graph_basic_accessors():
    g = Graph(4, [(0, 1), (2, 1), (1, 2)])  # duplicate collapses
    assert g.n == 4
    assert g.edge_count() == 2
    assert g.sorted_edges() == ((0, 1), (1, 2))
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert set(g.row(1)) == frozenset({0, 2})
    assert g.degree(1) == 2 and g.degree(3) == 0


def test_graph_validation():
    with pytest.raises(ParameterError):
        Graph(-1)
    with pytest.raises(ParameterError):
        Graph(3, [(0, 3)])
    with pytest.raises(ParameterError):
        Graph(3, [(1, 1)])
    # non-integer vertices fail before any cast could truncate them
    for bad in (
        [(0.5, 1)],
        [("a", 1)],
        [(0, 1), (1.0, 2)],
        [(0, 1, 2)],
        [(0,)],
        [None],
        np.array([(0.5, 1.0)]),
        [(0, 2**70)],
        # a bool is not a vertex, alone or among integers (numpy would cast
        # it to one), nor is a numpy bool
        [(True, False)],
        [(True, 2)],
        ((0, 1), (2, False)),
        [(np.True_, 2)],
        np.array([(True, False)]),
    ):
        with pytest.raises(ParameterError):
            Graph(3, bad)
    with pytest.raises(ParameterError):
        Graph(2.0)
    # the first offending pair names the error, as it always did
    with pytest.raises(ParameterError, match=r"loop edge \(2,2\)"):
        Graph(3, [(0, 1), (2, 2), (0, 3)])
    with pytest.raises(ParameterError, match=r"edge \(0, 3\) out of range for n=3"):
        Graph(3, [(0, 1), (3, 0), (2, 2)])
    # integer arrays of any width and numpy scalars are accepted
    want = ((0, 1), (1, 2))
    assert Graph(3, np.array([(1, 0), (1, 2)], dtype=np.uint8)).sorted_edges() == want
    assert Graph(3, [(np.int32(2), 1), (0, np.int64(1))]).sorted_edges() == want


def test_graph_arrays_are_read_only():
    g = Graph(4, [(2, 3), (0, 1)])
    for arr in (g.u, g.v, g.off, g.nbr):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert g.u.tolist() == [0, 2] and g.v.tolist() == [1, 3]
    assert g.off.tolist() == [0, 1, 2, 3, 4] and g.nbr.tolist() == [1, 0, 3, 2]


def test_graph_eq_hash():
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(1, 0)])
    c = Graph(4, [(0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != c


@st.composite
def edge_lists(draw):
    """A vertex count in 0..30 and a list of its vertex pairs, in any
    orientation, with repeats."""
    n = draw(st.integers(0, 30))
    if n < 2:
        return n, []
    vertex = st.integers(0, n - 1)
    pairs = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(pairs, max_size=80))


@example(case=(0, []), seed=0)
@example(case=(5, []), seed=1)
@example(case=(4, [(1, 0), (0, 1), (1, 0), (3, 2)]), seed=2)
@settings(max_examples=150, deadline=None)
@given(case=edge_lists(), seed=st.integers(0, 2**32 - 1))
def test_graph_matches_set_reference(case, seed):
    n, pairs = case
    canon = {(min(e), max(e)) for e in pairs}
    adj = {w: {b if a == w else a for a, b in canon if w in (a, b)} for w in range(n)}
    g = Graph(n, pairs)
    assert g.n == n
    assert_csr_matches_oracle(g)
    assert g.sorted_edges() == tuple(sorted(canon))
    assert g.edge_count() == len(canon)
    for w in range(n):
        assert g.degree(w) == len(adj[w])
        assert type(g.degree(w)) is int
        assert all(type(x) is int for x in g.row(w))
        assert list(g.row(w)) == sorted(adj[w])
    for a in range(-2, n + 2):
        for b in range(-2, n + 2):
            if a != b:
                assert g.has_edge(a, b) == ((min(a, b), max(a, b)) in canon), (a, b)
    assert all(type(x) is int for e in g.sorted_edges() for x in e)
    # two shuffles of the edge list, with pairs flipped, give equal graphs
    shuffles = []
    for k in (0, 1):
        xs = list(pairs)
        Rng(seed + k).shuffle(xs)
        flipped = [(b, a) if (i + k) % 2 else (a, b) for i, (a, b) in enumerate(xs)]
        shuffles.append(Graph(n, flipped))
    assert shuffles[0] == shuffles[1] == g
    assert hash(shuffles[0]) == hash(shuffles[1]) == hash(g)
    assert Graph(n, sorted(canon)) == g
    assert Graph(n + 1, pairs) != g
    if canon:
        fewer = sorted(canon)[1:]
        assert Graph(n, fewer) != g


def test_gnp_determinism_and_extremes():
    g1 = gen_gnp(30, 0.3, 42)
    g2 = gen_gnp(30, 0.3, 42)
    assert g1 == g2
    assert gen_gnp(30, 0.3, 43) != g1  # overwhelmingly likely by design
    assert gen_gnp(10, 0.0, 7).edge_count() == 0
    assert gen_gnp(10, 1.0, 7).edge_count() == 45
    assert gen_gnp(0, 0.5, 1).n == 0
    assert gen_gnp(1, 0.5, 1).edge_count() == 0


def test_gnp_parameter_validation():
    with pytest.raises(ParameterError):
        gen_gnp(5, -0.1, 0)
    with pytest.raises(ParameterError):
        gen_gnp(5, 1.1, 0)
    with pytest.raises(ParameterError):
        gen_gnp(-2, 0.5, 0)
    with pytest.raises(ParameterError):
        gen_gnp(5, 0.5, -1)
    # p follows TrialConfig's rule: a real number, and a bool is not one
    draws = GnpDraws(6, 1, 0.5)
    for bad in (True, False, np.True_, "0.5", None, 0.5j, float("nan")):
        with pytest.raises(ParameterError, match="edge probability"):
            gen_gnp(6, bad, 1)
        with pytest.raises(ParameterError, match="edge probability"):
            GnpDraws(6, 1, bad)
        with pytest.raises(ParameterError, match="edge probability"):
            draws.board(bad)
        with pytest.raises(ParameterError, match="edge probability"):
            gen_gnp(6, bad, 1, draws)
    for p in (0, 1, np.float32(0.5), np.float64(0.25), np.int64(0)):
        assert gen_gnp(6, p, 1) == naive_gen_gnp(6, float(p), 1)


def test_gnp_draws_reject_mismatched_use():
    draws = GnpDraws(20, 5, 0.3)
    with pytest.raises(ParameterError):
        draws.board(0.31)
    with pytest.raises(ParameterError):
        draws.board(-0.1)
    with pytest.raises(ParameterError):
        gen_gnp(20, 0.31, 5, draws)
    with pytest.raises(ParameterError):
        gen_gnp(21, 0.2, 5, draws)
    with pytest.raises(ParameterError):
        gen_gnp(20, 0.2, 6, draws)
    assert gen_gnp(20, 0.3, 5, draws) == gen_gnp(20, 0.3, 5)
    with pytest.raises(ParameterError):
        GnpDraws(20, 5, 1.5)
    with pytest.raises(ParameterError):
        GnpDraws(-1, 5, 0.5)
    with pytest.raises(ParameterError):
        GnpDraws(20, -5, 0.5)
    with pytest.raises(ParameterError):
        GnpDraws(2.5, 5, 0.5)


@example(n=0, seed=0, block=graph.BLOCK, p_max=1.0, ps=[0.0])
@example(n=2, seed=MASK64, block=1, p_max=1.0, ps=[0.0, 2.0**-53, 1.0])
@example(n=80, seed=0, block=7, p_max=0.5, ps=[0.5, 0.0, 0.25, 0.5])
@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(0, 80),
    seed=st.sampled_from([0, 1, MASK64]) | st.integers(0, MASK64),
    block=st.sampled_from([1, 2, 7, 64, 1000, graph.BLOCK]),
    p_max=st.sampled_from([0.0, 2.0**-53, 0.05, 0.3, 1.0]) | st.floats(0.0, 1.0),
    ps=st.lists(st.sampled_from([0.0, 2.0**-53, 0.01, 0.2, 0.5, 1.0]), max_size=5),
)
def test_gnp_draws_cut_the_oracle_boards_nested_in_p(n, seed, block, p_max, ps):
    """Every board cut from one GnpDraws, blocks of any size, equals the
    single-shot generator's board, and the boards grow with p."""
    cut = sorted({p for p in ps if p <= p_max} | {0.0, p_max})
    saved = graph.BLOCK
    graph.BLOCK = block
    try:
        draws = GnpDraws(n, seed, p_max)
        boards = [draws.board(p) for p in cut]
    finally:
        graph.BLOCK = saved
    for p, g in zip(cut, boards):
        assert g == naive_gen_gnp(n, p, seed), p
        assert g == gen_gnp(n, p, seed)
        assert_csr_matches_oracle(g)
    for lo, hi in zip(boards, boards[1:]):
        assert frozenset(lo.sorted_edges()) <= frozenset(hi.sorted_edges())


def test_gnp_draws_span_several_blocks():
    # 600 vertices are 179,700 pairs, three default blocks; rows cross
    # block boundaries
    n, seed = 600, 77
    ps = (0.001, 0.02, 0.1)
    draws = GnpDraws(n, seed, max(ps))
    for p in ps:
        assert draws.board(p) == naive_gen_gnp(n, p, seed)


def kept_draw_arrays(draws):
    """Copies of the numpy arrays a GnpDraws holds, by slot name."""
    held = {s: getattr(draws, s, None) for s in type(draws).__slots__}
    return {s: a.copy() for s, a in held.items() if isinstance(a, np.ndarray)}


@pytest.mark.parametrize("n, seed, p_max", [(600, 77, 0.1), (1000, 2026, 0.45)])
def test_multi_block_boards_match_the_sort_modulo_csr(n, seed, p_max):
    """Boards cut from one GnpDraws over several blocks (n=1000 is 499,500
    pairs, eight default blocks) have the oracle's edges and CSR, and
    cutting them never writes to the draws' arrays, which the p_max board
    may share."""
    draws = GnpDraws(n, seed, p_max)
    top = draws.board(p_max)
    before = kept_draw_arrays(draws)
    assert before
    for p in (0.0, p_max / 7, p_max / 2, p_max):
        g = draws.board(p)
        assert g == naive_gen_gnp(n, p, seed), p
        assert_csr_matches_oracle(g)
    assert g == top and np.array_equal(g.nbr, top.nbr)
    after = kept_draw_arrays(draws)
    assert after.keys() == before.keys()
    for name, arr in before.items():
        assert np.array_equal(after[name], arr), name


def test_gnp_vector_path_matches_scalar_recipe():
    # replay the documented scalar recipe and demand the identical edge set,
    # from empty boards up to n=120 (7140 pairs)
    seed = 2024
    for n, p in ((0, 0.4), (1, 0.4), (2, 0.4), (5, 0.4), (20, 0.4), (90, 0.07), (120, 0.07)):
        g = gen_gnp(n, p, seed)
        rng = Rng(seed)
        expect = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    expect.add((i, j))
        assert g.n == n and frozenset(g.sorted_edges()) == expect, n


def test_gnp_mean_edge_count():
    # 400 graphs at n=60, p=0.1: total edge count is Binomial(400*1770, .1)
    total = sum(gen_gnp(60, 0.1, s).edge_count() for s in range(400))
    ntrials = 400 * 1770
    mean = ntrials * 0.1
    sigma = math.sqrt(ntrials * 0.1 * 0.9)
    assert abs(total - mean) < 5 * sigma


def test_edges_between():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (2, 3), (3, 4)])
    assert edges_between(g, {0}, {1, 2, 3}) == frozenset({(0, 1), (0, 2), (0, 3)})
    assert edges_between(g, {2, 3}, {0, 4}) == frozenset({(0, 2), (0, 3), (3, 4)})
    assert edges_between(g, {1}, {4}) == frozenset()
    # overlapping sets never produce loops
    assert edges_between(g, {0, 1}, {0, 1}) == frozenset({(0, 1)})


def test_is_spanning_connected():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert is_spanning_connected(g, [(0, 1), (1, 2), (2, 3)])
    assert not is_spanning_connected(g, [(0, 1), (2, 3)])
    assert not is_spanning_connected(g, [])
    assert is_spanning_connected(Graph(1), [])
    assert is_spanning_connected(Graph(0), [])
    with pytest.raises(ParameterError):
        is_spanning_connected(g, [(0, 2)])


def test_contains_hn_examples():
    # triangle: every edge is a spanning pair
    assert contains_hn(Graph(3, [(0, 1), (1, 2), (0, 2)])) == (0, 1)
    # path on 3: no edge has both endpoints adjacent to the third vertex
    assert contains_hn(Graph(3, [(0, 1), (1, 2)])) is None
    # K4 minus one edge: (u,v) must itself be an edge with full common reach
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert contains_hn(g) == (0, 1)
    # star has no edge between two dominating vertices
    assert contains_hn(Graph(4, [(0, 1), (0, 2), (0, 3)])) is None
    with pytest.raises(ParameterError):
        contains_hn(Graph(2, [(0, 1)]))


def test_contains_hn_matches_pair_oracle_exhaustive():
    for n in (3, 4, 5):
        for g in all_labeled_graphs(n):
            got = contains_hn(g)
            assert (got is not None) == spanning_pair_oracle(g), (n, g.sorted_edges())
            if got is not None:
                u, v = got
                assert g.has_edge(u, v)
                assert set(g.row(u)) & set(g.row(v)) >= set(range(g.n)) - {u, v}


def test_contains_hn_matches_pair_oracle_classes_n6():
    for g in connected_graph_classes(6):
        assert (contains_hn(g) is not None) == spanning_pair_oracle(g)


def complete(n: int, drop=()) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in drop])


def test_contains_hn_by_degree_matches_the_common_neighbour_search():
    boards = []
    for n in range(3, 9):
        boards.append(complete(n))
        boards += [complete(n, drop={(u, v)}) for u in range(n) for v in range(u + 1, n)]
    for n in (3, 5, 8, 13, 21):
        for p in (0.8, 0.9, 0.95, 0.99):
            boards += [gen_gnp(n, p, seed) for seed in range(6)]
    found = 0
    for g in boards:
        got = contains_hn(g)
        assert got == common_neighbour_hn(g), g.sorted_edges()
        found += got is not None
    # the corpus holds boards with and without a spanning pair
    assert 0 < found < len(boards)


def test_degree_views_build_no_edge_tuple():
    g = gen_gnp(30, 0.9, 4)
    contains_hn(g)
    hash(g)
    check_b(g, build_bad_set(g, 3), {5})
    assert g._sorted is None


def test_edge_list_roundtrip(tmp_path):
    g = gen_gnp(12, 0.4, 5)
    path = write_graph(tmp_path / "g.edges", g.n, g.sorted_edges())
    assert read_edge_list(path) == g
    empty = Graph(3)
    path = write_graph(tmp_path / "g.edges", empty.n, empty.sorted_edges())
    assert read_edge_list(path) == empty


def test_edge_list_format_errors(tmp_path):
    def load(text):
        p = tmp_path / "bad.edges"
        p.write_text(text)
        return read_edge_list(str(p))

    for text in (
        "",
        "m 3\n0 1\n",
        "n\n",
        "n x\n",
        "n -2\n",
        "n 3\n0\n",
        "n 3\n0 one\n",
        "n 3\n1 1\n",
        "n 3\n2 1\n",
        "n 3\n0 3\n",
        "n 3\n0 1\n0 1\n",
        # plain decimal digits only: int() would read these as numbers
        "n 1_000\n0 1\n",
        "n 20\n0 1_0\n",
        "n +3\n0 1\n",
        "n 3\n+0 1\n",
    ):
        with pytest.raises(FormatError):
            load(text)
    p = tmp_path / "latin1.edges"
    p.write_bytes(b"n 3\n0 1\n1 2 \xe9\n")
    with pytest.raises(FormatError, match="latin1.edges: edge-list file holds a non-ASCII byte"):
        read_edge_list(str(p))
    g = load("n 3\n\n0 1\n 1 2 \n")  # blank lines and padding are fine
    assert g.sorted_edges() == ((0, 1), (1, 2))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_rows_are_the_ascending_neighbourhoods(n, p, seed):
    g = gen_gnp(n, p, seed)
    assert_csr_matches_oracle(g)
    edges = g.sorted_edges()
    for w in range(n):
        assert g.row(w) == tuple(sorted(b if a == w else a for a, b in edges if w in (a, b)))
        assert all(type(x) is int for x in g.row(w))
    assert g.row(0) is g.row(0)


@pytest.mark.parametrize("v", [-1, 4])
def test_vertex_views_reject_off_board_vertices(v):
    # a negative vertex used to wrap round onto vertex n + v
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(ParameterError, match=f"vertex {v} is not on the 4-vertex board"):
        g.row(v)
    assert not g.has_edge(v, 0) and not g.has_edge(0, v)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 25), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_edge_tests_agree_with_the_edge_list(n, p, seed):
    g = gen_gnp(n, p, seed)
    pairs = [(a, b) for a in range(-2, n + 2) for b in range(-2, n + 2) if a != b]
    by_rows = [g.has_edge(a, b) for a, b in pairs]
    edges = frozenset(g.sorted_edges())
    assert by_rows == [(min(a, b), max(a, b)) in edges for a, b in pairs]
    with pytest.raises(ParameterError):
        g.has_edge(1, 1)
