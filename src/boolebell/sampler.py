"""Outcome-sequence samplers with quantum statistics.

Two sources are modeled.  A prepared source carries a fixed axis ``a`` and
pre-committed signs ``u``; measuring along ``alpha`` yields x_i = +1 with
probability (1 + u_i (a.alpha))/2 so that E[u_i x_i] = a.alpha, the
spin-1/2 cosine law.  A singlet pair measured along (alpha, beta) follows
the joint law P(A=s, B=t) = (1 - s t (alpha.beta))/4: unbiased marginals,
E[AB] = -alpha.beta, and perfect anticorrelation at alpha = beta.

Every sampler consumes one 64-bit word per outcome from an
:class:`~boolebell.rng.RngStream`, so runs are reproducible from
(seed, stream_id, counter) alone.  An outcome of probability p is decided
as ``uniform < p`` exactly, by an integer threshold on the word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


_ONE = 1 << 53  # the word w stands for the double (w >> 11) / 2**53


def _below(words: np.ndarray, p: float) -> np.ndarray:
    """The bools ``uniform < p`` of the words' doubles, bit for bit.

    m * 2**-53 < p exactly when the integer m = w >> 11 is below the exact
    k = ceil(p * 2**53), i.e. when w < k << 11.
    """
    k = math.ceil(p * _ONE)
    return words < (max(k, 0) << 11) if k < _ONE else np.ones(words.shape, dtype=bool)


def fair_signs(words: np.ndarray) -> SignSequence:
    """One fair sign per word: +1 where the word is below 2**63."""
    return SignSequence.from_array(words < 2**63)


def random_signs(n: int, rng: RngStream) -> SignSequence:
    """n fair independent signs."""
    if n < 1:
        raise ValueError("need at least one sign")
    return fair_signs(rng.words(n))


def sample_prepared(src: PreparedSource, alpha: UnitVector3, rng: RngStream) -> SignSequence:
    """Measure the prepared stream along ``alpha``.

    Independently per index, x_i = +1 with probability
    (1 + u_i (a.alpha))/2; at alpha = axis this collapses to x = u exactly.
    """
    c = clamp_unit_dot(src.axis.dot(alpha))
    w = rng.words(src.u.length)
    plus, minus = (SignSequence.from_array(_below(w, 0.5 * (1.0 + s))).bits for s in (c, -c))
    return SignSequence(src.u.length, (src.u.bits & plus) | (~src.u.bits & minus))


def sample_singlet(
    alpha: UnitVector3, beta: UnitVector3, n: int, rng: RngStream
) -> tuple[SignSequence, SignSequence]:
    """One singlet run of n pairs measured along (alpha, beta).

    A is a fair coin per pair (:func:`random_signs`); B then disagrees with
    A with probability (1 + alpha.beta)/2 (:func:`sample_singlet_partner`),
    reproducing the joint law exactly.
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
    flip = SignSequence.from_array(_below(rng.words(fixed.length), 0.5 * (1.0 + c)))
    return SignSequence(fixed.length, fixed.bits ^ flip.bits)
