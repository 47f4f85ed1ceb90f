"""Counter-based random streams for reproducible parallel sampling.

Streams are keyed by (seed, stream_id) and advance a block counter, so a
stream can be reconstructed from three integers anywhere in a run and replays
identically on any platform and in any order of reads.  Philox emits four
64-bit words per counter block, so consumption rounds up to whole blocks.  Any
stretch of a run can therefore be read on its own, from a computed counter
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), and
whole blocks read on from one stream are the words of one draw: experiments
read each block so, chunk by chunk, and a stream keeps the Philox of its last
whole-block read to read on from while its counter stands where that read left
it; any other read (after a partial block, a counter set by hand, a copy)
opens a Philox at the counter.  Words come as little-endian uint64 on any CPU,
and samplers split them into the bits they need: LHV pair i reads word i, the
circle law its low half and the sphere law both 32-bit halves
(:mod:`boolebell.realism`); the quantum samplers take 64 fair signs or two
cosine-law outcomes per word (:mod:`boolebell.sampler`).  No command reads
:meth:`RngStream.uniforms`, the double (w >> 11) * 2**-53 of word w.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random import Philox

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

    __slots__ = ("seed", "stream_id", "counter", "_kept")

    def __init__(self, seed: int, stream_id: int = 0, counter: int = 0):
        self.seed = _key("seed", seed)
        self.stream_id = _key("stream_id", stream_id)
        self.counter = _key("counter", counter, 256)  # Philox's counter wraps at 2**256
        self._kept = (None, None)  # (a Philox, the counter it stands at); no state

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), (w >> 11) * 2**-53 of each word w as numpy's
        Philox gives them; advances the counter by ceil(n/4) blocks."""
        return (self.words(n) >> 11) * 2.0**-53

    def words(self, n: int) -> np.ndarray:
        """n raw words, little-endian uint64 on any CPU; advances the counter by ceil(n/4)
        blocks, and keeps the Philox for the next read when they end a counter block."""
        end = self.after(n).counter
        bg, at = self._kept
        if at != self.counter:
            bg = Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64),
                        counter=self.counter)
        values = bg.random_raw(n).astype("<u8", copy=False)  # all n words or, on an error, none
        self.counter = end
        self._kept = (bg, end) if n % _DRAWS_PER_BLOCK == 0 else (None, None)
        return values

    def after(self, n: int) -> "RngStream":
        """A copy standing where this stream will after drawing n values.

        A draw rounds up to whole counter blocks, so for n a multiple of 4
        the copy's values are exactly values n, n + 1, ... of this stream.
        This stream does not move.
        """
        if n < 0:
            raise ValueError("cannot draw a negative number of values")
        counter = (self.counter + -(-n // _DRAWS_PER_BLOCK)) % 2**256  # wraps as Philox's does
        return RngStream(self.seed, self.stream_id, counter)

    def substream(self, index: int) -> "RngStream":
        """Derived stream i: deterministic, distinct for distinct indices."""
        index = _key("substream index", index)
        child = _splitmix64((self.stream_id * 0x9E3779B97F4A7C15 + index + 1) & _MASK64)
        return RngStream(self.seed, child)

    def __reduce__(self):
        # copies and pickles carry the state, not the kept Philox it would share
        return RngStream, (self.seed, self.stream_id, self.counter)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, counter={self.counter})"
