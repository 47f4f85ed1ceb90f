"""Unit vectors in R^3 and violation witnesses for the three-sequence bound.

An ideal spin-1/2 run along axis ``a``, measured along ``alpha``, shows the
cosine (Malus) correlation a.alpha.  Plugging the three pairwise cosines of
directions (a, b, alpha) into the bound |<f,g> - <f,h>| + <g,h> <= 1 gives
three candidate left-hand sides, one per way of pouring the sequences
(x measured along alpha, u along a, v along b) into the slots (f, g, h).
For any two distinct axes some in-plane ``alpha`` pushes the best candidate
above 1; :func:`geometric_witness` builds that direction in closed form and
:func:`optimal_witness` maximizes numerically.

The numerical search has no tunables.  Alpha enters the candidates only
through its cosines with the two axes, which trace an ellipse as alpha turns
in the plane of the axes, so the search is over one in-plane angle.  It
evaluates a fixed grid of angles 0.1 degrees apart in one numpy pass (the
grid's cosines and sines are computed once, on first use), then refines the
best grid angle with 30 golden-section steps in plain Python floats
(``math.cos``, ``math.sin``, ``abs``, ``max``).  Both passes call the same
candidate function, so they perform the same IEEE operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "UnitVector3",
    "WitnessReport",
    "ColinearAxes",
    "InvalidProbability",
    "SLOT_ASSIGNMENTS",
    "clamp_unit_dot",
    "angle_between",
    "malus_lhs_all_assignments",
    "geometric_witness",
    "optimal_witness",
    "assignment_optimum",
]


class ColinearAxes(ValueError):
    """The witness construction needs two genuinely distinct axes."""


class InvalidProbability(ValueError):
    """A correlation target left [-1, 1] by more than the tolerance."""


_DOT_TOL = 1e-9


def clamp_unit_dot(value: float) -> float:
    """Snap a cosine to [-1, 1]; reject genuine excursions.

    Unit-vector dot products can exceed 1 by rounding dust; this is the one
    place that clamps them.
    """
    if abs(value) > 1.0 + _DOT_TOL:
        raise InvalidProbability(f"|{value}| > 1 is not a unit-vector cosine")
    return max(-1.0, min(1.0, value))


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
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if not math.isfinite(norm) or norm == 0.0:
            raise ValueError("direction must be a finite non-zero vector")
        object.__setattr__(self, "x", self.x / norm)
        object.__setattr__(self, "y", self.y / norm)
        object.__setattr__(self, "z", self.z / norm)

    @classmethod
    def from_iterable(cls, xyz: Iterable[float]) -> "UnitVector3":
        x, y, z = xyz
        return cls(float(x), float(y), float(z))

    def dot(self, other: "UnitVector3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.z]

    def __neg__(self) -> "UnitVector3":
        return UnitVector3(-self.x, -self.y, -self.z)


def angle_between(a: UnitVector3, b: UnitVector3) -> float:
    """Angle in [0, pi]; the cosine is clamped against |dot| = 1 + eps."""
    return math.acos(clamp_unit_dot(a.dot(b)))


def _candidate_values(p, q, c):
    # p = a.alpha, q = b.alpha, c = a.b; one value per slot assignment.
    # p and q are floats or numpy arrays of equal shape.
    return (abs(p - q) + c, abs(p - c) + q, abs(c - q) + p)


def malus_lhs_all_assignments(
    a: UnitVector3, b: UnitVector3, alpha: UnitVector3
) -> tuple[float, str]:
    """Best of the three candidate left-hand sides under cosine correlations.

    Returns (max_value, assignment); ties go to the first assignment in
    :data:`SLOT_ASSIGNMENTS` order.
    """
    values = _candidate_values(
        clamp_unit_dot(a.dot(alpha)), clamp_unit_dot(b.dot(alpha)), clamp_unit_dot(a.dot(b))
    )
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


def _unit(arr: np.ndarray) -> UnitVector3:
    return UnitVector3(float(arr[0]), float(arr[1]), float(arr[2]))


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
        raw = a.as_array() + b.as_array()
    elif orthogonal_to == "a":
        raw = b.as_array() - d * a.as_array()
    else:
        raw = a.as_array() - d * b.as_array()
    alpha = _unit(raw / np.linalg.norm(raw))
    value, assignment = malus_lhs_all_assignments(a, b, alpha)
    return WitnessReport(alpha=alpha, case_label=label, lhs_value=value, assignment=assignment)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f: Callable[[float], float], lo: float, hi: float, iters: int) -> float:
    """Golden-section maximizer; ties shrink toward the left (first) peak."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def _plane_frame(a: UnitVector3, b: UnitVector3) -> tuple[np.ndarray, np.ndarray, float]:
    """Orthonormal frame (a, e) of the plane spanned by the axes."""
    d = _check_distinct(a, b)
    e = b.as_array() - d * a.as_array()
    e /= np.linalg.norm(e)
    return a.as_array(), e, d


# The in-plane search: a grid of angles 0.1 degrees apart, then 30
# golden-section steps within one grid step either side of the best grid
# angle.
_GRID_STEP = math.radians(0.1)
_REFINE_ITERS = 30


@cache
def _grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid angles with their cosines and sines, built on first use.

    They never change, so every search shares this one read-only copy.
    """
    phi = np.arange(0.0, 2.0 * math.pi, _GRID_STEP)
    columns = (phi, np.cos(phi), np.sin(phi))
    for column in columns:
        column.flags.writeable = False
    return columns


def _maximize_in_plane(
    a: UnitVector3, b: UnitVector3, candidates: Callable[..., tuple]
) -> tuple[float, UnitVector3]:
    """Grid-plus-golden-section maximum of the largest of ``candidates(p, q)``.

    The candidates depend on alpha only through p = a.alpha and q = b.alpha,
    and over the unit sphere that pair ranges over an ellipse traced by the
    in-plane angle phi, so a one-dimensional search is exhaustive.  The same
    ``candidates`` runs on the grid's arrays, reduced with ``np.maximum``,
    and on the refinement's Python floats, reduced with ``max``, so both do
    the same IEEE arithmetic on the cosines.
    """
    basis_a, basis_e, d = _plane_frame(a, b)
    s = math.sqrt(max(0.0, 1.0 - d * d))

    grid, grid_cos, grid_sin = _grid()
    values = reduce(np.maximum, candidates(grid_cos, d * grid_cos + s * grid_sin))
    k = int(np.argmax(values))  # first maximum on ties
    grid_phi = float(grid[k])

    def scalar(phi: float) -> float:
        p = math.cos(phi)
        return max(candidates(p, d * p + s * math.sin(phi)))

    refined = _golden_max(scalar, grid_phi - _GRID_STEP, grid_phi + _GRID_STEP, _REFINE_ITERS)
    best_phi = refined if scalar(refined) >= values[k] else grid_phi
    alpha_arr = math.cos(best_phi) * basis_a + math.sin(best_phi) * basis_e
    return scalar(best_phi), _unit(alpha_arr / np.linalg.norm(alpha_arr))


def optimal_witness(a: UnitVector3, b: UnitVector3) -> WitnessReport:
    """Numerically maximized witness; at least as strong as the closed form."""
    c = a.dot(b)
    _, alpha = _maximize_in_plane(a, b, lambda p, q: _candidate_values(p, q, c))
    value, assignment = malus_lhs_all_assignments(a, b, alpha)
    return WitnessReport(
        alpha=alpha, case_label=_case_label(c), lhs_value=value, assignment=assignment
    )


def assignment_optimum(
    a: UnitVector3, b: UnitVector3, assignment: str
) -> tuple[float, UnitVector3]:
    """Maximum of a single slot assignment's candidate over the sphere.

    For "xuv" the optimum has the closed form a.b + ||a - b|| at
    alpha = (a - b)/||a - b||, which the grid search must reproduce.
    """
    index = SLOT_ASSIGNMENTS.index(assignment)
    c = a.dot(b)
    return _maximize_in_plane(a, b, lambda p, q: (_candidate_values(p, q, c)[index],))
