"""The random streams checked against a pure-Python Philox4x64-10.

The reference follows the generator's specification (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) as numpy's Philox
keys and orders it: key = (seed, stream_id), a 256-bit counter of four
little-endian 64-bit words that is incremented before each block and wraps
at 2**256, and the four words of each block in order.  It shares no code
with :mod:`boolebell.rng`, so these tests pin what a seed means without
trusting numpy's layout.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolebell.geometry import UnitVector3
from boolebell.realism import _circle_points, _sphere_angles, _sphere_points
from boolebell.rng import RngStream
from boolebell.sampler import _events, random_signs

_M64 = (1 << 64) - 1
_ROUNDS = 10
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_KEY_INCREMENTS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _block(counter: int, key: tuple[int, int]) -> list[int]:
    """The four output words of one counter value."""
    c0, c1, c2, c3 = ((counter >> shift) & _M64 for shift in (0, 64, 128, 192))
    k0, k1 = key
    for round_ in range(_ROUNDS):
        if round_:
            k0 = (k0 + _KEY_INCREMENTS[0]) & _M64
            k1 = (k1 + _KEY_INCREMENTS[1]) & _M64
        p0, p1 = _MULTIPLIERS[0] * c0, _MULTIPLIERS[1] * c2  # hi and lo of 128-bit products
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _M64, (p0 >> 64) ^ c3 ^ k1, p0 & _M64
    return [c0, c1, c2, c3]


def reference_words(seed: int, stream_id: int, counter: int, n: int) -> list[int]:
    """The first n words of the stream standing at ``counter``."""
    words = []
    while len(words) < n:
        counter = (counter + 1) % 2**256
        words += _block(counter, (seed, stream_id))
    return words[:n]


def reference_substream_id(stream_id: int, index: int) -> int:
    """splitmix64 of the parent id and index, as substreams derive their ids."""
    x = (stream_id * 0x9E3779B97F4A7C15 + index + 1) & _M64
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


KEYS = st.integers(0, 2**64 - 1)
# counters anywhere, and just below the wrap at 2**256
COUNTERS = st.one_of(st.integers(0, 2**256 - 1), st.integers(2**256 - 12, 2**256 - 1))
COUNTS = st.integers(0, 24)
FAST = settings(max_examples=40, deadline=None)


@FAST
@given(KEYS, KEYS, COUNTERS, COUNTS)
@example(0, 0, 0, 8)
@example(3, 12345678901234567, 7, 9)
@example(2**64 - 1, 5, 2**200 + 3, 5)
@example(3, 5, 2**256 - 1, 8)
def test_words_equal_the_reference(seed, stream_id, counter, n):
    s = RngStream(seed, stream_id, counter)
    assert s.words(n).tolist() == reference_words(seed, stream_id, counter, n)
    assert s.counter == (counter + math.ceil(n / 4)) % 2**256


@FAST
@given(KEYS, KEYS, COUNTERS, st.integers(0, 40), COUNTS)
def test_after_equals_the_reference(seed, stream_id, counter, k, n):
    # a draw of k values rounds up to whole four-word blocks
    skipped = 4 * math.ceil(k / 4)
    run = reference_words(seed, stream_id, counter, skipped + n)
    assert RngStream(seed, stream_id, counter).after(k).words(n).tolist() == run[skipped:]


@FAST
@given(KEYS, KEYS, KEYS, COUNTS)
def test_substream_equals_the_reference(seed, stream_id, index, n):
    child = RngStream(seed, stream_id, 9).substream(index)
    assert (child.seed, child.counter) == (seed, 0)
    assert child.stream_id == reference_substream_id(stream_id, index)
    assert child.words(n).tolist() == reference_words(seed, child.stream_id, 0, n)


def reference_threshold(p: float) -> int:
    """K(p): the exact p * 2**32 rounded to nearest, ties to even, clipped
    to [0, 2**32]."""
    whole, rest = divmod(Fraction(p) * 2**32, 1)
    up = rest > Fraction(1, 2) or (rest == Fraction(1, 2) and whole % 2 == 1)
    return min(max(whole + up, 0), 2**32)


@FAST
@given(KEYS, KEYS, COUNTERS, st.integers(1, 150), st.floats(-0.5, 1.5))
@example(3, 5, 7, 130, 3 * 2**-33)  # p * 2**32 = 1.5, a tie
@example(3, 5, 2**256 - 1, 9, 0.5)
def test_signs_and_events_decode_the_words_as_documented(seed, stream_id, counter, n, p):
    words = reference_words(seed, stream_id, counter, -(-n // 2))
    # sign i is bit i mod 64 of word i // 64, lowest bit first
    signs = random_signs(n, RngStream(seed, stream_id, counter))
    assert list(signs) == [1 if words[i // 64] >> (i % 64) & 1 else -1 for i in range(n)]
    # event i is 32-bit half i mod 2 of word i // 2, low half first, below K(p)
    halves = [w >> shift & 0xFFFFFFFF for w in words for shift in (0, 32)]
    events = _events(n, p, RngStream(seed, stream_id, counter))
    k = reference_threshold(p)
    assert [events >> i & 1 for i in range(n)] == [int(h < k) for h in halves[:n]]


@FAST
@given(KEYS, KEYS, COUNTERS, COUNTS)
@example(3, 5, 2**256 - 1, 9)
def test_sphere_points_decode_the_words_as_documented(seed, stream_id, counter, n):
    # pair i keeps word i and decodes z = (lo + 1/2) 2**-31 - 1 from its low
    # 32-bit half, exactly, and phi = (hi + 1/2) (2 pi 2**-32) from its high
    # half, the exact product rounded once to the nearest double
    words = reference_words(seed, stream_id, counter, n)
    points = _sphere_points(n, RngStream(seed, stream_id, counter))
    assert points.words.tolist() == words
    z, phi = _sphere_angles(points.words)
    two_pi_cell = Fraction(2 * math.pi) / 2**32
    assert z.tolist() == [float(Fraction(2 * (w & 0xFFFFFFFF) + 1, 2**32) - 1) for w in words]
    assert phi.tolist() == [float(Fraction(2 * (w >> 32) + 1, 2) * two_pi_cell) for w in words]


@FAST
@given(KEYS, KEYS, COUNTERS, COUNTS)
@example(3, 5, 2**256 - 1, 9)
def test_circle_points_decode_the_words_as_documented(seed, stream_id, counter, n):
    # pair i reads word i: its cell w is the word's low 32-bit half, held as
    # contiguous uint32, and lambdas() puts it at psi = (w + 1/2) (2 pi 2**-32),
    # the exact product rounded once; the x-y frame makes lambda (cos, sin, 0)
    words = reference_words(seed, stream_id, counter, n)
    frame = (UnitVector3(1, 0, 0), UnitVector3(0, 1, 0))
    points = _circle_points(frame, n, RngStream(seed, stream_id, counter))
    cells = [w & 0xFFFFFFFF for w in words]
    assert points.w.dtype == np.uint32 and points.w.flags.c_contiguous
    assert points.w.tolist() == cells
    two_pi_cell = Fraction(2 * math.pi) / 2**32
    psi = np.array([float(Fraction(2 * w + 1, 2) * two_pi_cell) for w in cells])
    assert points.lambdas().tolist() == [[c, s, 0.0] for c, s in zip(np.cos(psi), np.sin(psi))]
