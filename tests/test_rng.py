from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conbreak import ParameterError, Rng, derive
from conbreak.graph import BLOCK
from conbreak.rng import GOLDEN, MASK64, check_seed, mix64, outputs_at, uniforms_at

# splitmix64 reference outputs for seed 0, widely published for the
# algorithm (e.g. the test vectors shipped with the original C source).
SEED0_FIRST3 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_seed0_reference_vector():
    rng = Rng(0)
    assert [rng.u64() for _ in range(3)] == SEED0_FIRST3


def test_counter_form_matches_stateful():
    # the i-th output is mix64(seed + i*GOLDEN); the docstring promises it
    for seed in (0, 1, 42, MASK64):
        rng = Rng(seed)
        for i in range(1, 20):
            assert rng.u64() == mix64((seed + i * GOLDEN) & MASK64)


def test_vectorized_outputs_match_scalar():
    for seed in (0, 7, 123456789, 2**63):
        rng = Rng(seed)
        scalar = [rng.u64() for _ in range(500)]
        vec = outputs_at(seed, 500)
        assert vec.dtype == np.uint64
        assert scalar == vec.tolist()


def test_uniforms_match_random():
    rng = Rng(99)
    scalar = [rng.random() for _ in range(200)]
    vec = uniforms_at(99, 200)
    assert scalar == vec.tolist()
    assert all(0.0 <= u < 1.0 for u in scalar)


@functools.lru_cache(maxsize=None)
def scalar_uniforms(seed: int, count: int):
    rng = Rng(seed)
    return [rng.random() for _ in range(count)]


@pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_offset_draws_are_slices_of_the_stream(count):
    longest = 2 * BLOCK + 3 * BLOCK + 5
    for seed in (0, MASK64):
        full = uniforms_at(seed, longest)
        words = outputs_at(seed, longest)
        for start in (0, 1, BLOCK - 1, 2 * BLOCK):
            got = uniforms_at(seed, count, start)
            assert got.dtype == np.float64 and len(got) == count
            assert np.array_equal(got, full[start : start + count])
            assert np.array_equal(outputs_at(seed, count, start), words[start : start + count])
    stream = scalar_uniforms(31, BLOCK + 3 * BLOCK + 5)
    for start in (1, BLOCK):
        assert uniforms_at(31, count, start).tolist() == stream[start : start + count]


def test_offset_draws_reject_negative_ranges():
    with pytest.raises(ParameterError):
        uniforms_at(31, -1)
    with pytest.raises(ParameterError):
        outputs_at(31, 4, -1)


def test_derive_is_mix_of_seed_and_tag():
    assert derive(5, 17) == mix64(5 ^ mix64(17))
    # different tags give different streams from the same base seed
    assert derive(5, 17) != derive(5, 18)
    assert derive(5, 17) != 5


@given(st.integers(min_value=0, max_value=MASK64))
def test_mix64_stays_in_range(z):
    assert 0 <= mix64(z) <= MASK64


@given(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=1, max_value=10**6))
def test_randrange_in_bounds(seed, k):
    assert 0 <= Rng(seed).randrange(k) < k


def test_seed_validation():
    for bad in (-1, MASK64 + 1, 1.5, "7", None, True):
        with pytest.raises(ParameterError):
            check_seed(bad)
    assert check_seed(0) == 0
    assert check_seed(MASK64) == MASK64


def test_randrange_rejects_nonpositive():
    with pytest.raises(ParameterError):
        Rng(0).randrange(0)
    with pytest.raises(ParameterError):
        Rng(0).randrange(-3)


def test_randrange_refuses_a_non_integer_bound():
    # 2.5 would return a float, True a draw from [0, 1), "3" a raw TypeError
    for bad in (2.5, True, "3", None, np.float64(3.0), np.bool_(True)):
        with pytest.raises(ParameterError, match="integer bound"):
            Rng(0).randrange(bad)
    # numpy integers stay accepted and draw as the same int does
    assert Rng(5).randrange(np.int64(7)) == Rng(5).randrange(7)


def test_choice_and_sample_errors():
    with pytest.raises(ParameterError):
        Rng(0).choice([])
    with pytest.raises(ParameterError):
        Rng(0).sample([1, 2], 3)
    # a negative count would draw nothing, True one element, 1.5 crash
    for k in (-2, -1, True, False, 1.5, 2.0, "1", None):
        with pytest.raises(ParameterError, match="sample needs a count"):
            Rng(1).sample([1, 2, 3], k)
    assert Rng(1).sample([1, 2, 3], np.int64(2)) == Rng(1).sample([1, 2, 3], 2)
    assert Rng(1).sample([1, 2, 3], 0) == []


def test_shuffle_and_sample_deterministic():
    xs = list(range(10))
    Rng(11).shuffle(xs)
    ys = list(range(10))
    Rng(11).shuffle(ys)
    assert xs == ys
    assert sorted(xs) == list(range(10))
    assert Rng(12).sample(range(20), 5) == Rng(12).sample(range(20), 5)
    picked = Rng(13).sample(range(20), 20)
    assert sorted(picked) == list(range(20))


def test_sample_matches_pool_pop_reference():
    """Each draw indexes the elements not drawn yet, in their order: the
    same draws and elements as popping from a shrinking copy."""
    for seed in range(40):
        for n in (1, 2, 5, 30):
            for k in {0, 1, min(3, n), n}:
                ref = Rng(seed)
                pool = [10 * x for x in range(n)]
                want = [pool.pop(ref.randrange(len(pool))) for _ in range(k)]
                rng = Rng(seed)
                assert rng.sample([10 * x for x in range(n)], k) == want
                assert rng.u64() == ref.u64()
