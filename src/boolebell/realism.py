"""Local deterministic response models and the commitment-order protocol.

An :class:`LhvModel` draws a shared hidden unit vector lambda per particle
pair and answers every direction query with a deterministic sign, so
measured and counterfactual (unperformed) values all exist as genuine +-1
sequences.  Any triple of such sequences therefore satisfies the
three-sequence bound exactly; what such a model cannot do is reproduce the
cosine correlations, and the experiments module quantifies that failure.

A block's hidden state is kept compactly, not as an n x 3 array: the
great-circle law keeps a 32-bit cell w per pair (lambda at its midpoint
angle psi in the plane frame) and answers by testing w against a wrapped
half turn of cells.  The sphere law keeps its pairs' 64-bit words and a
float32 filter of lambda; a response takes the sign of the filter's
projection and decodes the exact float64 coordinates from the words only
for the answers within ``_TAU`` of the boundary, so it gives the bytes of
the exact law with almost no float64 work.  This state is the only record
a run retains: :func:`sample_lhv` returns it, its arrays read-only, and
counterfactual queries replay from it.  The n x 3 lambdas are built,
exactly, only on request, by the state's ``lambdas()`` (``lhv
--dump-lambdas``).  The plane frame is plain floats and the array work
elementwise, so no byte depends on the CPU's BLAS kernel.

Pair i of a stream reads word i alone, through the 32-bit halves of the
little-endian word, low half first: the circle law's w is the low half, and
the sphere law's z = (lo + 1/2) 2**-31 - 1 and phi = (hi + 1/2) 2 pi 2**-32
are the cell midpoints of the low and high halves.  A block's chunks are
read on, in order, from the block's stream, so a block's first m pairs are
the same draws at any n >= m, and experiments hold a chunk or two of hidden
state at a time, whatever n is; a dump builds its lambdas a slice at a time.

The commitment protocol is the bookkeeping half: preparation signs must be
committed before a measurement direction is chosen, and a token is spent
by measuring.  Out-of-order use raises :class:`OrderingViolation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import MODEL_NAMES  # defined in the package, where the CLI parser reads it
from .geometry import COLINEAR_TOL, UnitVector3, perpendicular
from .rng import RngStream
from .sequences import SignSequence


class MissingHiddenState(ValueError):
    """Counterfactual queries need the hidden state of a prior run."""


class OrderingViolation(RuntimeError):
    """The commit -> choose-direction -> measure order was broken."""


class _CircleDraws:
    """Great-circle hidden state: cells w, at psi = (w + 1/2) 2 pi 2**-32, in a frame.

    lambda = cos(psi) e1 + sin(psi) e2, so d . lambda = R cos(psi - phi_d)
    with phi_d = atan2(e2 . d, e1 . d) and R >= 0.  d answers +1 on the 2**31
    cells whose midpoints lie on [lo, lo + 1/2) mod 1, lo = phi_d / (2 pi) - 1/4:
    from K = ceil(lo 2**32 - 1/2) mod 2**32 on, one wrapped uint32 comparison.
    """

    __slots__ = ("w", "e1", "e2")

    def __init__(self, w: np.ndarray, e1: UnitVector3, e2: UnitVector3):
        w.setflags(write=False)  # retained draws are frozen
        self.w = w
        self.e1 = e1
        self.e2 = e2

    def __len__(self) -> int:
        return len(self.w)

    def nonnegative(self, direction: UnitVector3) -> np.ndarray:
        p, q = self.e1.dot(direction), self.e2.dot(direction)
        if p == 0.0 and q == 0.0:
            # d is normal to the plane: d . lambda = 0 and sign(0) := +1
            return np.ones(len(self.w), dtype=bool)
        lo = (math.atan2(q, p) / (2.0 * math.pi) - 0.25) % 1.0  # may round to 1.0
        k = np.uint32(math.ceil(lo * 2.0**32 - 0.5) % 2**32)
        return self.w - k < np.uint32(2**31)  # the subtraction wraps mod 2**32

    def lambdas(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        psi = (self.w[start:stop] + 0.5) * (2.0 * math.pi * 2.0**-32)  # rounded once
        e1, e2 = self.e1.as_array(), self.e2.as_array()
        return np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2


def _sphere_angles(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the exact float64 z and phi of these little-endian words, low half first
    halves = words.view("<u4")
    z = halves[0::2] * 2.0**-31
    z += 2.0**-32 - 1.0  # (lo + 1/2) 2**-31 - 1, exactly
    phi = halves[1::2] + 0.5
    phi *= 2.0 * math.pi * 2.0**-32  # rounded once
    return z, phi


def _sphere_xyz(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the exact float64 coordinates of the sphere points of these words
    z, phi = _sphere_angles(words)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    x = np.cos(phi)
    x *= r
    y = np.sin(phi)
    y *= r
    return x, y, z


# Half-width of the band around d . lambda = 0 left to the exact expression:
# the float32 filter errs by about 1e-6 at most (6.3e-7 measured over 6.7e7
# answers), and a uniform-sphere projection falls in the band with
# probability _TAU, so about one answer in 1e5 is recomputed.
_TAU = 1e-5


class _SphereDraws:
    """Uniform-sphere hidden state: the pairs' words plus a float32 filter.

    The filter, xy = r (cos phi, sin phi) and zf = z, takes 12 of the 20 B a
    pair.  It is built in float32 from the halves: r^2's factors 1 + z =
    (2 lo + 1) 2**-32 and 1 - z = (2 (~lo) + 1) 2**-32 are integers rounded
    once, so r keeps its precision at the poles; phi = (hi + 1/2) float32(2 pi
    2**-32).  Answers whose float32 sum is within ``_TAU`` of 0 are recomputed
    from the decoded words in float64, so all are those of ``lambdas``.
    """

    __slots__ = ("words", "xy", "zf")

    def __init__(self, words: np.ndarray):
        halves = words.view("<u4")
        twice = np.left_shift(halves[0::2], 1, dtype=np.uint64)
        twice |= 1  # 2 lo + 1
        r = twice.astype(np.float32)  # 2**32 (1 + z)
        np.subtract(2**33, twice, out=twice)  # 2 (~lo) + 1
        minus = twice.astype(np.float32)  # 2**32 (1 - z)
        del twice
        self.zf = r - minus
        self.zf *= np.float32(2.0**-33)
        r *= minus
        del minus
        np.sqrt(r, out=r)
        r *= np.float32(2.0**-32)
        # x and y in one block: measured to take fewer page faults than two
        x, y = self.xy = np.empty((2, len(words)), np.float32)
        np.add(halves[1::2], np.float32(0.5), out=x, dtype=np.float32)  # phi
        x *= np.float32(2.0 * math.pi * 2.0**-32)
        np.sin(x, out=y)
        np.cos(x, out=x)
        self.xy *= r
        self.words = words
        for column in (words, self.xy, self.zf):
            column.setflags(write=False)  # retained draws are frozen

    def __len__(self) -> int:
        return len(self.words)

    def nonnegative(self, direction: UnitVector3) -> np.ndarray:
        s = self.xy[0] * np.float32(direction.x)
        t = self.xy[1] * np.float32(direction.y)
        s += t
        np.multiply(self.zf, np.float32(direction.z), out=t)
        s += t
        signs = s >= 0.0
        near = np.flatnonzero(np.abs(s, out=t) < _TAU)
        if near.size:
            # d . lambda from the exact coordinates, in the one order every
            # exact answer uses
            s, y, z = _sphere_xyz(self.words[near])
            s *= direction.x
            s += y * direction.y
            s += z * direction.z
            signs[near] = s >= 0.0
        return signs

    def lambdas(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        return np.column_stack(_sphere_xyz(self.words[start:stop]))


HiddenDraws = _CircleDraws | _SphereDraws


def _sign_response(hidden: HiddenDraws, direction: UnitVector3) -> np.ndarray:
    # sign(direction . lambda) with sign(0) := +1, as True for +1
    return hidden.nonnegative(direction)


def _circle_frame(alpha: UnitVector3, beta: UnitVector3) -> tuple[UnitVector3, UnitVector3]:
    # colinear axes: beta becomes the coordinate axis least aligned with alpha
    if abs(alpha.dot(beta)) >= 1.0 - COLINEAR_TOL:
        pivot = min(range(3), key=lambda i: abs(alpha.as_list()[i]))
        beta = UnitVector3(*(float(i == pivot) for i in range(3)))
    return alpha, perpendicular(alpha, beta)


def _circle_points(frame: tuple[UnitVector3, UnitVector3], n: int, rng: RngStream) -> _CircleDraws:
    return _CircleDraws(rng.words(n).astype(np.uint32), frame[0], frame[1])


def _sphere_points(n: int, rng: RngStream) -> _SphereDraws:
    return _SphereDraws(rng.words(n))


@dataclass(frozen=True)
class LhvModel:
    """Hidden-variable law plus one deterministic response map per wing.

    Built-in models: "sign-circle" and "sign-sphere".  Both answer
    sign(direction . lambda) on one wing and its negation on the other;
    they differ in the lambda law (great circle through the two queried
    directions vs uniform sphere).  Either way the pair correlation at
    angle theta is -1 + 2 theta/pi.

    ``draw_lambdas(alpha, beta, n, rng)`` returns the compact hidden state
    (see the module docstring) of the n pairs that start where ``rng``
    stands, pair i from word i; ``len`` of it is the number of pairs.  The
    circle law draws on the plane of its (alpha, beta), so one stream keeps
    one law by passing the same pair.  ``response_a``/``response_b`` take
    (hidden state, own direction) only and return a bool array, True for
    +1, so a wing's values cannot depend on the far setting; that is the
    locality property the tests check by permuting the far direction.
    """

    name: str

    def __post_init__(self) -> None:
        if self.name not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.name!r}; choose from {MODEL_NAMES}")

    def draw_lambdas(self, alpha: UnitVector3, beta: UnitVector3, n: int,
                     rng: RngStream) -> HiddenDraws:
        if self.name == "sign-circle":
            return _circle_points(_circle_frame(alpha, beta), n, rng)
        return _sphere_points(n, rng)

    def response_a(self, hidden: HiddenDraws, direction: UnitVector3) -> np.ndarray:
        return _sign_response(hidden, direction)

    def response_b(self, hidden: HiddenDraws, direction: UnitVector3) -> np.ndarray:
        return ~_sign_response(hidden, direction)


make_lhv_model = LhvModel


def sign_model_correlation(theta: float) -> float:
    """Closed-form pair correlation of the built-in models at angle theta."""
    return -1.0 + 2.0 * theta / math.pi


def sample_lhv(
    model: LhvModel, alpha: UnitVector3, beta: UnitVector3, n: int, rng: RngStream
) -> tuple[SignSequence, SignSequence, HiddenDraws]:
    """One run: draw the hidden state, answer both wings, retain the state.

    The third element is the compact state ``model.draw_lambdas`` drew, its
    arrays read-only; assigned values must not change once produced, and
    counterfactual queries replay from it.  Its ``lambdas()`` builds the
    n x 3 lambdas on request.
    """
    if n < 1:
        raise ValueError("need at least one pair")
    hidden = model.draw_lambdas(alpha, beta, n, rng)
    a_seq = SignSequence.from_array(model.response_a(hidden, alpha))
    b_seq = SignSequence.from_array(model.response_b(hidden, beta))
    return a_seq, b_seq, hidden


def counterfactual_values(
    model: LhvModel,
    hidden: HiddenDraws | None,
    direction: UnitVector3,
    side: str,
) -> SignSequence:
    """Signs the model assigns to an unperformed measurement.

    ``side`` picks the wing ("A" or "B") whose response map answers; the
    result is fully determined by the retained hidden state, as
    :func:`sample_lhv` or ``model.draw_lambdas`` returned it.  The state
    goes to the response maps as it is, so a model may bring its own.
    """
    if hidden is None or len(hidden) == 0:
        raise MissingHiddenState("no retained hidden-variable draws")
    wing = side.upper()
    if wing == "A":
        return SignSequence.from_array(model.response_a(hidden, direction))
    if wing == "B":
        return SignSequence.from_array(model.response_b(hidden, direction))
    raise ValueError("side must be 'A' or 'B'")


class CommitmentToken:
    """Single-use record of the commit -> choose -> measure chain: ``commit(u)``
    fixes the preparation signs; nothing about a direction exists yet, so ``alpha``
    is None until a direction is chosen, and ``spent`` is set by measuring."""

    __slots__ = ("u", "alpha", "spent")

    def __init__(self, u: SignSequence):
        if not isinstance(u, SignSequence):
            raise OrderingViolation("commitment requires a sign sequence")
        self.u = u
        self.alpha: UnitVector3 | None = None
        self.spent = False


commit = CommitmentToken


def choose_direction(token: CommitmentToken, alpha: UnitVector3) -> CommitmentToken:
    """Attach a measurement direction to an already-committed token."""
    if not isinstance(token, CommitmentToken):
        raise OrderingViolation("direction chosen before any signs were committed")
    if token.alpha is not None:
        raise OrderingViolation("a direction was already chosen on this token")
    token.alpha = alpha
    return token


def measure(
    token: CommitmentToken, sampler: Callable[[SignSequence, UnitVector3], SignSequence]
) -> SignSequence:
    """Spend the token: run the sampler on (u, alpha) exactly once."""
    if not isinstance(token, CommitmentToken):
        raise OrderingViolation("measurement attempted without a committed token")
    if token.alpha is None:
        raise OrderingViolation("measurement attempted before choosing a direction")
    if token.spent:
        raise OrderingViolation("token already spent by a measurement")
    token.spent = True
    return sampler(token.u, token.alpha)
