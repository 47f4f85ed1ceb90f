"""Unit vectors in R^3 and violation witnesses for the three-sequence bound.

An ideal spin-1/2 run along axis ``a``, measured along ``alpha``, shows the
cosine (Malus) correlation a.alpha.  Plugging the three pairwise cosines of
directions (a, b, alpha) into the bound |<f,g> - <f,h>| + <g,h> <= 1 gives
three candidate left-hand sides, one per way of pouring the sequences
(x measured along alpha, u along a, v along b) into the slots (f, g, h).
For any two distinct axes some in-plane ``alpha`` pushes the best candidate
above 1; :func:`geometric_witness` builds that direction in closed form and
:func:`optimal_witness` finds the best one.

The best direction has a closed form too, so nothing is searched.  Alpha
enters each candidate only through p = a.alpha and q = b.alpha, as |L| + M
with L and M affine in p and q.  That is the larger of M + L and M - L, two
linear forms in alpha, so every candidate peaks at alpha along a - b, b - a
or a + b, and the best value over the sphere is
max(a.b + ||a - b||, ||a + b|| - a.b).  Both optimizers read one table of
the candidates at those three directions and keep the first largest:
:func:`optimal_witness` over all three assignments, :func:`assignment_optimum`
over one.

Everything here is plain floats; numpy is imported only by
:meth:`UnitVector3.as_array`, so the witness commands start without it.  The
two records are ``__slots__`` classes on :class:`_Frozen` rather than frozen
dataclasses, so they start without ``dataclasses`` and the ``inspect``,
``ast`` and ``dis`` modules it loads.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    import numpy as np


class ColinearAxes(ValueError):
    """The witness construction needs two genuinely distinct axes."""


class InvalidProbability(ValueError):
    """A correlation target left [-1, 1] by more than the tolerance."""


_DOT_TOL = 1e-9


def clamp_unit_dot(value: float) -> float:
    """Snap a cosine to [-1, 1]; reject genuine excursions.

    Unit-vector dot products can exceed 1 by rounding dust; this is the one
    place that clamps them.  Adding 0.0 turns a -0.0 into 0.0, so a zero
    cosine never prints as -0.
    """
    if not abs(value) <= 1.0 + _DOT_TOL:  # a NaN is no cosine either
        raise InvalidProbability(f"{value} is not a unit-vector cosine")
    return max(-1.0, min(1.0, value)) + 0.0


COLINEAR_TOL = 1e-9
_RIGHT_ANGLE_TOL = 1e-9

# Slot assignments: position strings name which sequence occupies (f, g, h)
# in |<f,g> - <f,h>| + <g,h>.  'x' is measured along alpha, 'u' along the
# first axis, 'v' along the second.
SLOT_ASSIGNMENTS = ("xuv", "uxv", "vux")


class _Frozen:
    """A record of the fields named in ``__slots__``, as a frozen dataclass
    would give it: equal only to a record of its own type with equal fields,
    hashed and shown by its fields, closed to assignment, and pickled and
    copied field by field without running ``__init__`` again."""

    __slots__ = ()

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self) -> int:
        return hash(self.__getstate__())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class UnitVector3(_Frozen):
    """Direction in R^3, renormalized to unit length on construction."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        squared = x * x + y * y + z * z
        if not sys.float_info.min <= squared < math.inf and all(map(math.isfinite, (x, y, z))):
            # the squares under- or overflowed, or their sum is subnormal and
            # lost bits; scaling by the largest |component| first (a zero
            # vector stays zero) keeps them in range
            scale = max(abs(x), abs(y), abs(z)) or 1.0
            x, y, z = x / scale, y / scale, z / scale
            squared = x * x + y * y + z * z
        norm = math.sqrt(squared)
        if not math.isfinite(norm) or norm == 0.0:
            raise ValueError("direction must be a finite non-zero vector")
        object.__setattr__(self, "x", x / norm)
        object.__setattr__(self, "y", y / norm)
        object.__setattr__(self, "z", z / norm)

    @classmethod
    def from_iterable(cls, xyz: Iterable[float]) -> "UnitVector3":
        x, y, z = xyz
        return cls(float(x), float(y), float(z))

    def dot(self, other: "UnitVector3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def as_array(self) -> np.ndarray:
        import numpy as np
        return np.array([self.x, self.y, self.z])

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.z]

    def __neg__(self) -> "UnitVector3":
        return UnitVector3(-self.x, -self.y, -self.z)


def cosine_targets(
    a: UnitVector3, b: UnitVector3, alpha: UnitVector3
) -> tuple[float, float, float]:
    """The cosine targets (a.alpha, b.alpha, a.b) of the correlations <u,x>,
    <v,x> and <u,v>, each clamped by :func:`clamp_unit_dot`."""
    return clamp_unit_dot(a.dot(alpha)), clamp_unit_dot(b.dot(alpha)), clamp_unit_dot(a.dot(b))


def angle_between(a: UnitVector3, b: UnitVector3) -> float:
    """Angle in [0, pi]; the cosine is clamped against |dot| = 1 + eps."""
    return math.acos(clamp_unit_dot(a.dot(b)))


def _candidates(a: UnitVector3, b: UnitVector3, alpha: UnitVector3, c: float) -> tuple:
    # one candidate left-hand side per slot assignment, from p = a.alpha and
    # q = b.alpha, clamped here, and c = a.b, clamped by the caller
    p, q = clamp_unit_dot(a.dot(alpha)), clamp_unit_dot(b.dot(alpha))
    return (abs(p - q) + c, abs(p - c) + q, abs(c - q) + p)


def _best(values: tuple) -> tuple[float, str]:
    # the largest candidate and its assignment; ties go to the first
    value = max(values)
    return value, SLOT_ASSIGNMENTS[values.index(value)]


def malus_lhs_all_assignments(
    a: UnitVector3, b: UnitVector3, alpha: UnitVector3
) -> tuple[float, str]:
    """Best of the three candidate left-hand sides under cosine correlations.

    Returns (max_value, assignment); ties go to the first assignment in
    :data:`SLOT_ASSIGNMENTS` order.
    """
    return _best(_candidates(a, b, alpha, clamp_unit_dot(a.dot(b))))


class WitnessReport(_Frozen):
    """A measurement direction and the bound value it certifies."""

    __slots__ = ("alpha", "case_label", "lhs_value", "assignment")

    def __init__(self, alpha: UnitVector3, case_label: str, lhs_value: float,
                 assignment: str) -> None:
        self.__setstate__((alpha, case_label, lhs_value, assignment))


def _axes(a: UnitVector3, b: UnitVector3) -> tuple[float, str]:
    """(a.b clamped, case label) of two axes with a witness: the label is
    "right", "acute" or "obtuse" by the angle between them, and colinear
    axes, which have no witness, raise :class:`ColinearAxes`."""
    d = a.dot(b)
    if abs(d) >= 1.0 - COLINEAR_TOL:
        raise ColinearAxes("axes are colinear; no witness direction exists")
    label = "right" if abs(d) <= _RIGHT_ANGLE_TOL else "acute" if d > 0 else "obtuse"
    return clamp_unit_dot(d), label


def perpendicular(a: UnitVector3, b: UnitVector3) -> UnitVector3:
    """Unit b - (a.b) a: in the plane of a and b, at a right angle to a, on
    b's side.  Plain float arithmetic, so the bits do not depend on the CPU."""
    d = a.dot(b)
    return UnitVector3(b.x - d * a.x, b.y - d * a.y, b.z - d * a.z)


def geometric_witness(
    a: UnitVector3, b: UnitVector3, *, orthogonal_to: str = "a"
) -> WitnessReport:
    """Closed-form witness direction, split by the angle between the axes.

    With theta the angle between a and b:
      - acute: alpha orthogonal to one axis, the other inside the sector;
        the best candidate reaches cos(theta) + sin(theta) > 1
      - right: alpha bisects the axes; the best candidate reaches sqrt(2)
      - obtuse: same orthogonal construction; value sin(theta) + |cos(theta)|

    ``orthogonal_to`` selects which axis alpha is perpendicular to in the
    non-right cases ("a" or "b"); both give the same value.
    """
    c, label = _axes(a, b)
    if orthogonal_to not in ("a", "b"):
        raise ValueError("orthogonal_to must be 'a' or 'b'")
    if label == "right":
        alpha = UnitVector3(a.x + b.x, a.y + b.y, a.z + b.z)
    else:
        alpha = perpendicular(a, b) if orthogonal_to == "a" else perpendicular(b, a)
    value, assignment = _best(_candidates(a, b, alpha, c))
    return WitnessReport(alpha=alpha, case_label=label, lhs_value=value, assignment=assignment)


def _witness_table(a: UnitVector3, b: UnitVector3) -> tuple[str, list]:
    """The case label of two axes and their witness table: a row (alpha,
    candidates at alpha) for alpha along a - b, b - a and a + b, in that
    order; both optimizers keep the first row of the largest value.

    Every candidate is the larger of two linear forms (+-a +- b).alpha plus a
    constant, each largest along its own vector, and a + b only enters with
    a plus sign (``(a + b).alpha - a.b`` in "uxv" and "vux").
    """
    c, label = _axes(a, b)
    directions = (
        UnitVector3(a.x - b.x, a.y - b.y, a.z - b.z),
        UnitVector3(b.x - a.x, b.y - a.y, b.z - a.z),
        UnitVector3(a.x + b.x, a.y + b.y, a.z + b.z),
    )
    return label, [(alpha, _candidates(a, b, alpha, c)) for alpha in directions]


def optimal_witness(a: UnitVector3, b: UnitVector3) -> WitnessReport:
    """Exactly maximized witness: max(a.b + ||a - b||, ||a + b|| - a.b)."""
    label, table = _witness_table(a, b)
    alpha, values = max(table, key=lambda row: max(row[1]))
    value, assignment = _best(values)
    return WitnessReport(alpha=alpha, case_label=label, lhs_value=value, assignment=assignment)


def assignment_optimum(
    a: UnitVector3, b: UnitVector3, assignment: str
) -> tuple[float, UnitVector3]:
    """Maximum of a single slot assignment's candidate over the sphere.

    "xuv" peaks at a.b + ||a - b|| along a - b; "uxv" and "vux" reach the
    larger of that (along b - a and a - b) and ||a + b|| - a.b (along a + b).
    """
    index = SLOT_ASSIGNMENTS.index(assignment)
    alpha, values = max(_witness_table(a, b)[1], key=lambda row: row[1][index])
    return values[index], alpha
