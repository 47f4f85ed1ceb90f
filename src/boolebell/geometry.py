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
max(a.b + ||a - b||, ||a + b|| - a.b).  The optimizers evaluate the
candidates at those three directions and keep the largest.

Everything here is plain floats; numpy is imported only by
:meth:`UnitVector3.as_array`, so the witness commands start without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

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
    if abs(value) > 1.0 + _DOT_TOL:
        raise InvalidProbability(f"|{value}| > 1 is not a unit-vector cosine")
    return max(-1.0, min(1.0, value)) + 0.0


COLINEAR_TOL = 1e-9
_RIGHT_ANGLE_TOL = 1e-9

# Slot assignments: position strings name which sequence occupies (f, g, h)
# in |<f,g> - <f,h>| + <g,h>.  'x' is measured along alpha, 'u' along the
# first axis, 'v' along the second.
SLOT_ASSIGNMENTS = ("xuv", "uxv", "vux")


@dataclass(frozen=True)
class UnitVector3:
    """Direction in R^3, renormalized to unit length on construction."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        x, y, z = self.x, self.y, self.z
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


def _candidate_values(p, q, c):
    # p = a.alpha, q = b.alpha, c = a.b, all floats; one value per slot assignment.
    return (abs(p - q) + c, abs(p - c) + q, abs(c - q) + p)


def malus_lhs_all_assignments(
    a: UnitVector3, b: UnitVector3, alpha: UnitVector3
) -> tuple[float, str]:
    """Best of the three candidate left-hand sides under cosine correlations.

    Returns (max_value, assignment); ties go to the first assignment in
    :data:`SLOT_ASSIGNMENTS` order.
    """
    values = _candidate_values(*cosine_targets(a, b, alpha))
    best = max(range(3), key=lambda i: (values[i], -i))
    return values[best], SLOT_ASSIGNMENTS[best]


@dataclass(frozen=True)
class WitnessReport:
    """A measurement direction and the bound value it certifies."""

    alpha: UnitVector3
    case_label: str
    lhs_value: float
    assignment: str


def _case_label(dot_ab: float) -> str:
    if abs(dot_ab) <= _RIGHT_ANGLE_TOL:
        return "right"
    return "acute" if dot_ab > 0 else "obtuse"


def _check_distinct(a: UnitVector3, b: UnitVector3) -> float:
    d = a.dot(b)
    if abs(d) >= 1.0 - COLINEAR_TOL:
        raise ColinearAxes("axes are colinear; no witness direction exists")
    return d


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
    d = _check_distinct(a, b)
    if orthogonal_to not in ("a", "b"):
        raise ValueError("orthogonal_to must be 'a' or 'b'")
    label = _case_label(d)
    if label == "right":
        alpha = UnitVector3(a.x + b.x, a.y + b.y, a.z + b.z)
    else:
        alpha = perpendicular(a, b) if orthogonal_to == "a" else perpendicular(b, a)
    value, assignment = malus_lhs_all_assignments(a, b, alpha)
    return WitnessReport(alpha=alpha, case_label=label, lhs_value=value, assignment=assignment)


def _best_direction(a: UnitVector3, b: UnitVector3, evaluate: Callable[..., tuple]) -> tuple:
    """``(*evaluate(alpha), alpha)`` with the largest first item, over alpha
    along a - b, b - a and a + b; ties go to the first in that order.

    Every candidate is the larger of two linear forms (+-a +- b).alpha plus a
    constant, each largest along its own vector, and a + b only enters with
    a plus sign (``(a + b).alpha - a.b`` in "uxv" and "vux").
    """
    _check_distinct(a, b)
    directions = (
        UnitVector3(a.x - b.x, a.y - b.y, a.z - b.z),
        UnitVector3(b.x - a.x, b.y - a.y, b.z - a.z),
        UnitVector3(a.x + b.x, a.y + b.y, a.z + b.z),
    )
    return max(((*evaluate(alpha), alpha) for alpha in directions), key=lambda best: best[0])


def optimal_witness(a: UnitVector3, b: UnitVector3) -> WitnessReport:
    """Exactly maximized witness: max(a.b + ||a - b||, ||a + b|| - a.b)."""
    value, assignment, alpha = _best_direction(
        a, b, lambda alpha: malus_lhs_all_assignments(a, b, alpha)
    )
    return WitnessReport(
        alpha=alpha, case_label=_case_label(a.dot(b)), lhs_value=value, assignment=assignment
    )


def assignment_optimum(
    a: UnitVector3, b: UnitVector3, assignment: str
) -> tuple[float, UnitVector3]:
    """Maximum of a single slot assignment's candidate over the sphere.

    "xuv" peaks at a.b + ||a - b|| along a - b; "uxv" and "vux" reach the
    larger of that (along b - a and a - b) and ||a + b|| - a.b (along a + b).
    """
    index = SLOT_ASSIGNMENTS.index(assignment)
    c = a.dot(b)
    return _best_direction(
        a, b, lambda alpha: (_candidate_values(a.dot(alpha), b.dot(alpha), c)[index],)
    )
