"""Counter-based random streams for reproducible parallel sampling.

Streams are keyed by (seed, stream_id) and advance a block counter, so a
stream can be reconstructed from three integers anywhere in a run and
replays identically on any platform and in any order of reads.  Each
draw call builds a fresh Philox generator jumped to the current counter;
Philox emits four 64-bit words per counter block, so consumption rounds
up to whole blocks.  Any stretch of a run can therefore be read on its
own, from a computed counter (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11): experiments stream their blocks chunk by chunk
this way and still draw the values a whole-block draw would.  A stream
reads as doubles or as the raw 64-bit words behind them: the double of
word w is exactly (w >> 11) * 2**-53, so a sampler can decide each
``uniform < p`` on w with an integer comparison, bit for bit.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random import Generator, Philox

_MASK64 = (1 << 64) - 1
_DRAWS_PER_BLOCK = 4  # 64-bit outputs per Philox counter increment


def _splitmix64(x: int) -> int:
    """Bijective 64-bit mix; decorrelates derived stream ids."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _key(name: str, value, bits: int = 64) -> int:
    """An integer in [0, 2**bits); a larger one would alias a smaller one."""
    if isinstance(value, bool):  # operator.index would take True as 1
        raise TypeError(f"{name} must be an integer, got {value!r}")
    key = operator.index(value)
    if not 0 <= key < 1 << bits:
        raise ValueError(f"{name} must be in [0, 2**{bits}), got {key}")
    return key


class RngStream:
    """One independent stream of uniform draws.

    The state is exactly (seed, stream_id, counter); two streams with the
    same state produce the same values in the same order.
    """

    __slots__ = ("seed", "stream_id", "counter")

    def __init__(self, seed: int, stream_id: int = 0, counter: int = 0):
        self.seed = _key("seed", seed)
        self.stream_id = _key("stream_id", stream_id)
        self.counter = _key("counter", counter, 256)  # Philox's counter wraps at 2**256

    def _draw(self, n: int) -> Philox:
        """A Philox standing at the counter, which moves past the n draws."""
        if n < 0:
            raise ValueError("cannot draw a negative number of values")
        bg = Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))
        if self.counter:
            bg.advance(self.counter)
        self.counter += -(-n // _DRAWS_PER_BLOCK)
        return bg

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1); advances the counter by ceil(n/4) blocks."""
        return Generator(self._draw(n)).random(n)

    def words(self, n: int) -> np.ndarray:
        """The n raw uint64 words behind :meth:`uniforms`, with the same advance."""
        return self._draw(n).random_raw(n)

    def after(self, n: int) -> "RngStream":
        """A copy standing where this stream will after drawing n values.

        A draw rounds up to whole counter blocks, so for n a multiple of 4
        the copy's values are exactly values n, n + 1, ... of this stream.
        This stream does not move.
        """
        if n < 0:
            raise ValueError("cannot draw a negative number of values")
        return RngStream(self.seed, self.stream_id, self.counter + -(-n // _DRAWS_PER_BLOCK))

    def words_at(self, draw: int, n: int) -> np.ndarray:
        """Words draw .. draw + n - 1 of this stream; its counter does not move.

        Reads from counter block draw // 4 and drops the first draw % 4
        words, so a run read in chunks equals the run drawn at once.
        """
        skip = draw % _DRAWS_PER_BLOCK
        return self.after(draw - skip).words(skip + n)[skip:]

    def substream(self, index: int) -> "RngStream":
        """Derived stream i: deterministic, distinct for distinct indices."""
        index = _key("substream index", index)
        child = _splitmix64((self.stream_id * 0x9E3779B97F4A7C15 + index + 1) & _MASK64)
        return RngStream(self.seed, child)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, counter={self.counter})"
