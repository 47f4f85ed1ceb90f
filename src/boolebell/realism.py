"""Local deterministic response models and the commitment-order protocol.

An :class:`LhvModel` draws a shared hidden unit vector lambda per particle
pair and answers every direction query with a deterministic sign, so
measured and counterfactual (unperformed) values all exist as genuine +-1
sequences.  Any triple of such sequences therefore satisfies the
three-sequence bound exactly; what such a model cannot do is reproduce the
cosine correlations, and the experiments module quantifies that failure.

A block's hidden state is kept in angle form, not as an n x 3 array: the
great-circle law keeps its uniform draws t (lambda at angle 2 pi t in the
plane frame) and answers sign(d . lambda) by comparing t with an arc of
half a turn.  The sphere law keeps lambda's z and azimuth phi in float64
and r cos phi, r sin phi in float32 from float32 trig; a response takes
the sign of a float32 projection and recomputes with the exact float64
coordinates only the answers within ``_TAU`` of the boundary, so it gives
the bytes of the exact law with almost no float64 trig.  The n x 3
lambdas are built, exactly, only on request (:func:`sample_lhv`,
``lhv --dump-lambdas``).  The plane frame is plain floats and the array
work elementwise, so no byte depends on the CPU's BLAS kernel.

A block can also be drawn one chunk of pairs at a time: ``draw_lambdas``
called with the block's stream moved to the chunk's first pair
(``RngStream.after``) and the block's size draws exactly that chunk of the
whole-block draw, so experiments hold one chunk of hidden state at a time,
whatever n is.

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
    """Counterfactual queries need the lambda draws of a prior run."""


class OrderingViolation(RuntimeError):
    """The commit -> choose-direction -> measure order was broken."""


class _CircleDraws:
    """Great-circle hidden state: uniforms t, with psi = 2 pi t, in a frame.

    lambda = cos(psi) e1 + sin(psi) e2, so d . lambda = R cos(psi - phi_d)
    with phi_d = atan2(e2 . d, e1 . d) and R >= 0.  The sign is therefore
    a test of whether t lies on the closed half-turn arc centred on
    phi_d / (2 pi): a modular comparison, with no trig per draw.
    """

    __slots__ = ("t", "e1", "e2")

    def __init__(self, t: np.ndarray, e1: UnitVector3, e2: UnitVector3):
        self.t = t
        self.e1 = e1
        self.e2 = e2

    def __len__(self) -> int:
        return len(self.t)

    def nonnegative(self, direction: UnitVector3) -> np.ndarray:
        p, q = self.e1.dot(direction), self.e2.dot(direction)
        if p == 0.0 and q == 0.0:
            # d is normal to the plane: d . lambda = 0 and sign(0) := +1
            return np.ones(len(self.t), dtype=bool)
        lo = (math.atan2(q, p) / (2.0 * math.pi) - 0.25) % 1.0
        hi = lo + 0.5
        if hi <= 1.0:
            return (self.t >= lo) & (self.t <= hi)
        return (self.t >= lo) | (self.t <= hi - 1.0)

    def lambdas(self) -> np.ndarray:
        psi = 2.0 * math.pi * self.t
        e1, e2 = self.e1.as_array(), self.e2.as_array()
        return np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2


def _dot(x: np.ndarray, y: np.ndarray, z: np.ndarray, direction: UnitVector3) -> np.ndarray:
    # d . lambda from coordinate columns, in the one order every exact
    # answer uses
    s = x * direction.x
    s += y * direction.y
    s += z * direction.z
    return s


def _sphere_xy(z: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the exact float64 x and y of a sphere point from its z and phi
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    x = np.cos(phi)
    x *= r
    y = np.sin(phi)
    y *= r
    return x, y


class _VectorDraws:
    """Hidden unit vectors held as three coordinate columns."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: np.ndarray, y: np.ndarray, z: np.ndarray):
        self.x = x
        self.y = y
        self.z = z

    def __len__(self) -> int:
        return len(self.z)

    def nonnegative(self, direction: UnitVector3) -> np.ndarray:
        return _dot(self.x, self.y, self.z, direction) >= 0.0


# Half-width of the band around d . lambda = 0 that the float32 filter
# leaves to the exact expression.  The filter's error is about 5e-7 at
# most (3.5e-7 measured over 5e7 answers), and a uniform-sphere
# projection falls in the band with probability _TAU, so about one
# answer in 1e5 is recomputed.
_TAU = 1e-5


class _SphereDraws:
    """Uniform-sphere hidden state: exact (z, phi) plus a float32 filter.

    lambda = (r cos phi, r sin phi, z) with r = sqrt(1 - z^2).  z and phi
    are kept in float64; xf and yf are r cos phi and r sin phi in float32,
    from float32 trig, so the state takes 24 B per pair.  A response takes
    the sign of xf dx + yf dy + z dz summed in float32 and recomputes every
    answer whose sum is within ``_TAU`` of 0 from z and phi with the exact
    float64 expression; the answers are therefore those of the exact
    coordinates that ``lambdas`` returns.
    """

    __slots__ = ("z", "phi", "xf", "yf")

    def __init__(self, z: np.ndarray, phi: np.ndarray):
        self.z = z
        self.phi = phi
        # r from 1 - z^2 taken in float64: in float32 its rounding near the
        # poles would put up to 2e-4 into r
        r = np.subtract(1.0, z * z, out=np.empty(len(z), np.float32), casting="same_kind")
        np.sqrt(r, out=r)
        self.xf = phi.astype(np.float32)
        self.yf = np.sin(self.xf)
        np.cos(self.xf, out=self.xf)
        self.xf *= r
        self.yf *= r

    def __len__(self) -> int:
        return len(self.z)

    def nonnegative(self, direction: UnitVector3) -> np.ndarray:
        s = self.xf * np.float32(direction.x)
        s += self.yf * np.float32(direction.y)
        t = self.z.astype(np.float32)
        t *= np.float32(direction.z)
        s += t
        signs = s >= 0.0
        near = np.flatnonzero(np.abs(s, out=t) < _TAU)
        if near.size:
            z = self.z[near]
            signs[near] = _dot(*_sphere_xy(z, self.phi[near]), z, direction) >= 0.0
        return signs

    def lambdas(self) -> np.ndarray:
        return np.column_stack((*_sphere_xy(self.z, self.phi), self.z))


HiddenDraws = _CircleDraws | _SphereDraws | _VectorDraws


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
    return _CircleDraws(rng.uniforms(n), frame[0], frame[1])


def _sphere_points(n: int, rng: RngStream, block: int | None = None) -> _SphereDraws:
    # z takes a block's first run of draws and phi the run after it, so a
    # chunk of a larger block finds its phi one whole-block z run ahead
    phi_rng = rng if block is None else rng.after(block)
    z = rng.uniforms(n)
    z *= 2.0
    z -= 1.0
    phi = phi_rng.uniforms(n)
    phi *= 2.0 * math.pi
    return _SphereDraws(z, phi)


@dataclass(frozen=True)
class LhvModel:
    """Hidden-variable law plus one deterministic response map per wing.

    ``draw_lambdas(alpha, beta, n, rng, block=None)`` returns the hidden
    state of n pairs in its compact form (see the module docstring); ``len``
    of it is the number of pairs.  With ``block`` given, the n pairs are
    the chunk of a block of ``block`` pairs that starts where ``rng`` stands.
    The circle law draws on the plane of its (alpha, beta), so one stream
    keeps one law by passing the same pair.  ``response_a``/``response_b``
    take (hidden state, own direction) only and return a bool array, True
    for +1, so a wing's values cannot depend on the far setting; that is the
    locality property the tests check by permuting the far direction.
    """

    name: str

    def __post_init__(self) -> None:
        if self.name not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.name!r}; choose from {MODEL_NAMES}")

    def draw_lambdas(self, alpha: UnitVector3, beta: UnitVector3, n: int, rng: RngStream,
                     block: int | None = None) -> _CircleDraws | _SphereDraws:
        if self.name == "sign-circle":
            return _circle_points(_circle_frame(alpha, beta), n, rng)
        return _sphere_points(n, rng, block)

    def response_a(self, hidden: HiddenDraws, direction: UnitVector3) -> np.ndarray:
        return _sign_response(hidden, direction)

    def response_b(self, hidden: HiddenDraws, direction: UnitVector3) -> np.ndarray:
        return ~_sign_response(hidden, direction)


def make_lhv_model(name: str) -> LhvModel:
    """Built-in models: "sign-circle" and "sign-sphere".

    Both answer sign(direction . lambda) on one wing and its negation on
    the other; they differ in the lambda law (great circle through the two
    queried directions vs uniform sphere).  Either way the pair correlation
    at angle theta is -1 + 2 theta/pi.
    """
    return LhvModel(name)


def sign_model_correlation(theta: float) -> float:
    """Closed-form pair correlation of the built-in models at angle theta."""
    return -1.0 + 2.0 * theta / math.pi


def sample_lhv(
    model: LhvModel, alpha: UnitVector3, beta: UnitVector3, n: int, rng: RngStream
) -> tuple[SignSequence, SignSequence, np.ndarray]:
    """One run: draw the hidden state, answer both wings, retain lambdas.

    The returned n x 3 lambda buffer is built from the hidden state and
    marked read-only; assigned values must not change once produced, and
    counterfactual queries replay from it.
    """
    if n < 1:
        raise ValueError("need at least one pair")
    hidden = model.draw_lambdas(alpha, beta, n, rng)
    a_seq = SignSequence.from_array(model.response_a(hidden, alpha))
    b_seq = SignSequence.from_array(model.response_b(hidden, beta))
    lambdas = hidden.lambdas()
    lambdas.setflags(write=False)
    return a_seq, b_seq, lambdas


def counterfactual_values(
    model: LhvModel,
    lambdas: np.ndarray | HiddenDraws | None,
    direction: UnitVector3,
    side: str,
) -> SignSequence:
    """Signs the model assigns to an unperformed measurement.

    ``side`` picks the wing ("A" or "B") whose response map answers; the
    result is fully determined by the retained draws: the n x 3 lambdas
    of :func:`sample_lhv`, or the hidden state ``model.draw_lambdas``
    returned.
    """
    if isinstance(lambdas, np.ndarray):
        lambdas = _VectorDraws(*lambdas.T) if lambdas.size else None
    if lambdas is None or len(lambdas) == 0:
        raise MissingHiddenState("no retained hidden-variable draws")
    wing = side.upper()
    if wing == "A":
        return SignSequence.from_array(model.response_a(lambdas, direction))
    if wing == "B":
        return SignSequence.from_array(model.response_b(lambdas, direction))
    raise ValueError("side must be 'A' or 'B'")


_COMMITTED = "committed"
_DIRECTION_CHOSEN = "direction-chosen"
_MEASURED = "measured"


class CommitmentToken:
    """Single-use record of the commit -> choose -> measure chain."""

    __slots__ = ("u", "alpha", "_state")

    def __init__(self, u: SignSequence):
        if not isinstance(u, SignSequence):
            raise OrderingViolation("commitment requires a sign sequence")
        self.u = u
        self.alpha: UnitVector3 | None = None
        self._state = _COMMITTED


def commit(u: SignSequence) -> CommitmentToken:
    """Fix the preparation signs; nothing about a direction exists yet."""
    return CommitmentToken(u)


def choose_direction(token: CommitmentToken, alpha: UnitVector3) -> CommitmentToken:
    """Attach a measurement direction to an already-committed token."""
    if not isinstance(token, CommitmentToken):
        raise OrderingViolation("direction chosen before any signs were committed")
    if token._state != _COMMITTED:
        raise OrderingViolation(f"cannot choose a direction on a {token._state} token")
    token.alpha = alpha
    token._state = _DIRECTION_CHOSEN
    return token


def measure(
    token: CommitmentToken, sampler: Callable[[SignSequence, UnitVector3], SignSequence]
) -> SignSequence:
    """Spend the token: run the sampler on (u, alpha) exactly once."""
    if not isinstance(token, CommitmentToken):
        raise OrderingViolation("measurement attempted without a committed token")
    if token._state == _COMMITTED:
        raise OrderingViolation("measurement attempted before choosing a direction")
    if token._state == _MEASURED:
        raise OrderingViolation("token already spent by a measurement")
    token._state = _MEASURED
    return sampler(token.u, token.alpha)
