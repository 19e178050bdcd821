"""Deterministic 64-bit pseudorandom streams.

Everything random in this project (graph generation, strategy tie-breaking,
experiment seeds) flows through the single generator specified here, so any
run can be replayed bit for bit from its seed, including from a
reimplementation in another language. The core sequence is splitmix64:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output <- z XOR (z >> 31)

The i-th output (1-based) is therefore a pure function of the seed and i:
mix64(seed + i * 0x9E3779B97F4A7C15).  That counter form is what lets
`outputs_at` produce the identical stream vectorised, and start anywhere:
`outputs_at(seed, count, start)` is outputs start+1 .. start+count, so a
long stream can be walked in blocks whose concatenation is the whole
vector.  Uniform doubles take the top 53 bits: u = (output >> 11) * 2^-53,
giving values in [0, 1); `uniforms_at` takes the same offset.

Derived streams use  derive(seed, tag) = mix64(seed XOR mix64(tag)),
documented here because the experiment harness leans on it for per-role
and per-purpose sub-seeds.
"""

from __future__ import annotations

import bisect

import numpy as np

from .errors import ParameterError

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# A Seed is a 64-bit unsigned integer; plain ints are used throughout and
# validated at the boundaries.
Seed = int


def check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    if seed < 0 or seed > MASK64:
        raise ParameterError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive(seed: int, tag: int) -> int:
    """Derived sub-seed for an independent stream. See module docstring."""
    return mix64((seed ^ mix64(tag & MASK64)) & MASK64)


def outputs_at(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Outputs start+1 .. start+count of the stream, as a uint64 array.

    Bit-identical to calling Rng(seed).u64() `start + count` times and
    keeping the last `count`; used to vectorise bulk draws such as edge
    generation, a block at a time. The arithmetic runs in place on the
    output, and the three xor-shifts share one scratch array."""
    check_seed(seed)
    if count < 0 or start < 0:
        raise ParameterError(f"need count >= 0 and start >= 0, got {count} and {start}")
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    t = np.empty_like(z)
    z *= np.uint64(GOLDEN)
    z += np.uint64(seed)
    z ^= np.right_shift(z, np.uint64(30), out=t)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def uniforms_at(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Uniform doubles in [0,1) at stream positions start+1 .. start+count,
    matching Rng.random()."""
    z = outputs_at(seed, count, start)
    z >>= np.uint64(11)
    # one ufunc call converts to float64 and scales, both exact: z < 2^53
    return np.multiply(z, 2.0**-53)


class Rng:
    """Stateful view of the splitmix64 stream for a seed."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = check_seed(seed)

    def u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def random(self) -> float:
        return (self.u64() >> 11) * 2.0**-53

    def randrange(self, k: int) -> int:
        """Integer in [0, k). Uses a plain modulo reduction; the tiny
        modulo bias is irrelevant here, determinism is what matters."""
        if k <= 0:
            raise ParameterError(f"randrange needs a positive bound, got {k}")
        return self.u64() % k

    def choice(self, xs):
        if not xs:
            raise ParameterError("choice on an empty sequence")
        return xs[self.randrange(len(xs))]

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.randrange(i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def sample(self, xs, k: int) -> list:
        """k distinct elements of the sequence xs, drawn without
        replacement: draw i is randrange(len(xs) - i), an index into the
        elements not drawn yet, in their order. Reads len(xs) and the k
        drawn elements only."""
        n = len(xs)
        if k > n:
            raise ParameterError(f"cannot sample {k} from {n} items")
        taken: list = []  # indices into xs drawn so far, ascending
        out = []
        for i in range(k):
            r = self.randrange(n - i)
            for t in taken:
                if t > r:
                    break
                r += 1
            bisect.insort(taken, r)
            out.append(xs[r])
        return out
