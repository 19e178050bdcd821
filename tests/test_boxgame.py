from __future__ import annotations

import math

import pytest

from conbreak import (
    IllegalMoveError,
    NoMoveError,
    ParameterError,
    boxbreaker_move_s,
    corollary_bound_holds,
    random_maker,
    run_box_game,
)
from conbreak.boxgame import Box, BoxState, BREAKER, MAKER

from oracles import box_rule_survives_all_maker_play, greedy_maker


def test_state_validation():
    with pytest.raises(ParameterError):
        BoxState.fresh([2, 2], 0)
    with pytest.raises(ParameterError):
        BoxState.fresh([], 1)
    with pytest.raises(ParameterError):
        BoxState.fresh([2, 0], 1)


def test_rule_s_prefers_loaded_untouched_box():
    s = BoxState([Box(3, maker=1), Box(3, maker=2), Box(3, maker=2)], p=1)
    assert boxbreaker_move_s(s) == 1  # max maker count, lowest index tie
    s.boxes[1].breaker = 1
    assert boxbreaker_move_s(s) == 2  # box 1 no longer untouched
    for b in s.boxes:
        b.breaker = 1
    assert boxbreaker_move_s(s) == 0  # fallback: lowest index with space
    # fallback skips full boxes
    t = BoxState([Box(2, maker=1, breaker=1), Box(3, maker=1, breaker=1)], p=1)
    assert boxbreaker_move_s(t) == 1
    for b in s.boxes:
        b.maker = b.capacity - b.breaker
    with pytest.raises(NoMoveError):
        boxbreaker_move_s(s)


def test_rule_s_survives_all_maker_play_when_bound_holds():
    # uniform capacity m strictly above p*(ln n + 1) in each case
    cases = [
        ([2], 1),
        ([2, 2], 1),
        ([3, 3, 3], 1),
        ([3, 3, 3, 3], 1),
        ([4, 4, 4, 4], 1),
        ([3], 2),
        ([4, 4], 2),
    ]
    for caps, p in cases:
        assert len(caps) * [caps[0]] == list(caps)
        assert caps[0] > p * (math.log(len(caps)) + 1.0)
        assert box_rule_survives_all_maker_play(caps, p), (caps, p)


def test_maker_wins_when_bound_fails():
    assert not box_rule_survives_all_maker_play([2, 2], 2)
    assert not box_rule_survives_all_maker_play([1], 1)
    res = run_box_game([2, 2], 2, greedy_maker)
    assert res.winner == MAKER
    res = run_box_game([1], 1, greedy_maker)
    assert res.winner == MAKER


def test_run_box_game_examples():
    res = run_box_game([2, 2], 1, greedy_maker)
    assert res.winner == BREAKER
    assert res.capacities == (2, 2) and res.p == 1
    res = run_box_game([3, 3, 3], 1, greedy_maker)
    assert res.winner == BREAKER
    # trace alternates and claims stay within bias
    for i, (role, claims) in enumerate(res.trace):
        assert role == (MAKER if i % 2 == 0 else BREAKER)
        assert len(claims) <= (res.p if role == MAKER else 1)


def test_random_maker_deterministic_and_loses_small():
    r1 = run_box_game([3, 3, 3], 1, random_maker, seed=5)
    r2 = run_box_game([3, 3, 3], 1, random_maker, seed=5)
    assert r1.trace == r2.trace
    assert r1.winner == BREAKER


def test_run_box_game_rejects_bad_maker():
    def too_many(state, rng):
        return [0, 0, 0]

    with pytest.raises(IllegalMoveError):
        run_box_game([5, 5], 2, too_many)

    def unknown_box(state, rng):
        return [7]

    with pytest.raises(IllegalMoveError):
        run_box_game([5, 5], 2, unknown_box)

    def overfill(state, rng):
        return [0, 0]

    with pytest.raises(IllegalMoveError):
        run_box_game([1, 5], 2, overfill)


def test_corollary_bound_on_played_games():
    for caps, p in (([3, 3, 3], 1), ([4, 4, 4, 4], 1), ([4, 4], 2)):
        for seed in range(10):
            res = run_box_game(caps, p, random_maker, seed=seed)
            assert corollary_bound_holds(res.trace, len(caps), p)
        res = run_box_game(caps, p, greedy_maker)
        assert corollary_bound_holds(res.trace, len(caps), p)


def test_corollary_bound_violation_and_exemption():
    # n=2, p=1: ceiling is ln(2)+1, about 1.69, so two claims in an
    # untouched box breach it
    bad = [(MAKER, (0,)), (MAKER, (0,))]
    assert not corollary_bound_holds(bad, 2, 1)
    # the same second claim is fine once BoxBreaker has touched the box
    ok = [(MAKER, (0,)), (BREAKER, (0,)), (MAKER, (0,)), (MAKER, (1,))]
    assert corollary_bound_holds(ok, 2, 1)
    assert corollary_bound_holds([], 1, 1)


def test_corollary_bound_input_validation():
    with pytest.raises(ParameterError):
        corollary_bound_holds([], 0, 1)
    with pytest.raises(ParameterError):
        corollary_bound_holds([(MAKER, (3,))], 2, 1)
    with pytest.raises(ParameterError):
        corollary_bound_holds([("judge", (0,))], 2, 1)
