"""Outcome-sequence samplers with quantum statistics.

Two sources are modeled.  A prepared source carries a fixed axis ``a`` and
pre-committed signs ``u``; measuring along ``alpha`` yields x_i = +1 with
probability (1 + u_i (a.alpha))/2 so that E[u_i x_i] = a.alpha, the
spin-1/2 cosine law.  A singlet pair measured along (alpha, beta) follows
the joint law P(A=s, B=t) = (1 - s t (alpha.beta))/4: unbiased marginals,
E[AB] = -alpha.beta, and perfect anticorrelation at alpha = beta.

Every sampler reads little-endian 64-bit words from an
:class:`~boolebell.rng.RngStream`, so runs are reproducible from
(seed, stream_id, counter) alone, and it reads only the bits an outcome
needs.  A fair sign is one bit: sign i is bit i mod 64 of word i // 64,
little-endian, so n signs take ceil(n/64) words.  An outcome of
probability p takes 32 bits: event i reads half i mod 2 of word i // 2,
low half first, and happens when that half is below K(p), p * 2**32
rounded to the nearest integer (ties to even) and clipped to [0, 2**32].
The event's probability is then p rounded to the nearest 2**-32, off by
at most 2**-33; a p within 2**-33 of 0 or 1 decides as 0 or 1 does, so a
source measured along its own axis still returns u exactly through float
dust in a.alpha.  Such certain events read no words, but they still move
the stream's counter past the words they would have read, so every later
draw is the one a drawing call would leave.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import UnitVector3, clamp_unit_dot
from .rng import RngStream
from .sequences import SignSequence


@dataclass(frozen=True)
class PreparedSource:
    """Spin-1/2 stream prepared along ``axis`` with sign pattern ``u``.

    Particle i is prepared along u_i * axis; ``u`` must be fixed before
    any measurement direction is chosen (the commitment protocol in
    :mod:`boolebell.realism` enforces this in experiments).
    """

    axis: UnitVector3
    u: SignSequence


_SIGNS_PER_WORD = 64  # one bit each
_OUTCOMES_PER_WORD = 2  # one 32-bit half each
_HALF = 1 << 32  # the values a half can take


def _threshold(p: float) -> int:
    """K(p): p * 2**32, exact in floats, rounded to nearest and clipped."""
    return min(max(round(p * _HALF), 0), _HALF)


def _events(n: int, p: float, rng: RngStream) -> int:
    """n independent events of probability K(p) / 2**32, as bits: bit i
    is set when 32-bit half i of the drawn words, low half first, is below
    K(p).  At K(p) = 0 or 2**32 no half can change an event, so none is
    drawn; the stream still moves past the words they would have taken."""
    count, k = -(-n // _OUTCOMES_PER_WORD), _threshold(p)
    if k in (0, _HALF):
        rng.counter = rng.after(count).counter
        return (1 << n) - 1 if k else 0
    return SignSequence.from_array(rng.words(count).view("<u4")[:n] < k).bits


def random_signs(n: int, rng: RngStream) -> SignSequence:
    """n fair independent signs, 64 per drawn word."""
    if n < 1:
        raise ValueError("need at least one sign")
    words = rng.words(-(-n // _SIGNS_PER_WORD))
    return SignSequence(n, int.from_bytes(words.tobytes(), "little"))


def sample_prepared(src: PreparedSource, alpha: UnitVector3, rng: RngStream) -> SignSequence:
    """Measure the prepared stream along ``alpha``.

    Independently per index, x_i = +1 with probability
    (1 + u_i (a.alpha))/2: x_i agrees with u_i with probability
    (1 + a.alpha)/2.  At alpha = axis this collapses to x = u exactly.
    """
    c = clamp_unit_dot(src.axis.dot(alpha))
    agree = _events(src.u.length, 0.5 * (1.0 + c), rng)
    return SignSequence(src.u.length, ~(src.u.bits ^ agree))


def sample_singlet(
    alpha: UnitVector3, beta: UnitVector3, n: int, rng: RngStream
) -> tuple[SignSequence, SignSequence]:
    """One singlet run of n pairs measured along (alpha, beta).

    A is a fair coin per pair (:func:`random_signs`); B then disagrees with
    A with probability (1 + alpha.beta)/2 (:func:`sample_singlet_partner`),
    reproducing the joint law with that probability rounded to the
    nearest 2**-32.
    """
    if n < 1:
        raise ValueError("need at least one pair")
    a_seq = random_signs(n, rng)
    return a_seq, sample_singlet_partner(a_seq, alpha, beta, rng)


def sample_singlet_partner(
    fixed: SignSequence,
    fixed_direction: UnitVector3,
    other_direction: UnitVector3,
    rng: RngStream,
) -> SignSequence:
    """Other wing of a singlet run whose first wing is already known.

    Conditioned on one wing's outcomes along ``fixed_direction``, the other
    wing along ``other_direction`` flips each sign with probability
    (1 + fixed_direction.other_direction)/2.  Sampling A then B this way,
    or B then A, realizes the same joint law.
    """
    c = clamp_unit_dot(fixed_direction.dot(other_direction))
    return SignSequence(fixed.length, fixed.bits ^ _events(fixed.length, 0.5 * (1.0 + c), rng))
