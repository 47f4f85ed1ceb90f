"""The closed-form witness optimizers against exact values and a search.

``optimal_witness`` and ``assignment_optimum`` evaluate the candidates at
the directions a - b, b - a and a + b.  Their values must agree, to a few
ulp, with max(a.b + ||a - b||, ||a + b|| - a.b) (and each assignment's own
closed form) evaluated to 60 digits in ``decimal``, and no numerical search
may beat them by more than rounding.  ``_reference_maximize`` is that
search: a 0.1 degree grid evaluated with numpy, then a 30-step
golden-section refinement whose every evaluation pushes a one-element
array through the same ufuncs.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from boolebell.geometry import (
    SLOT_ASSIGNMENTS,
    UnitVector3,
    assignment_optimum,
    malus_lhs_all_assignments,
    optimal_witness,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _reference_golden_max(f, lo, hi, iters):
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


def _reference_maximize(a, b, objective, grid_step_deg=0.1, refine_iters=30):
    d = a.dot(b)
    basis_a = a.as_array()
    basis_e = b.as_array() - d * a.as_array()
    basis_e /= np.linalg.norm(basis_e)
    s = math.sqrt(max(0.0, 1.0 - d * d))

    def cosines(phi):
        p = np.cos(phi)
        q = d * np.cos(phi) + s * np.sin(phi)
        return p, q

    step = math.radians(grid_step_deg)
    grid = np.arange(0.0, 2.0 * math.pi, step)
    values = objective(*cosines(grid))
    k = int(np.argmax(values))

    def scalar(phi):
        return float(objective(*cosines(np.array([phi])))[0])

    refined = _reference_golden_max(scalar, grid[k] - step, grid[k] + step, refine_iters)
    best_phi = refined if scalar(refined) >= values[k] else float(grid[k])
    alpha_arr = math.cos(best_phi) * basis_a + math.sin(best_phi) * basis_e
    alpha_arr = alpha_arr / np.linalg.norm(alpha_arr)
    return scalar(best_phi), UnitVector3(*(float(x) for x in alpha_arr))


def _reference_optimal_witness(a, b):
    def objective(p, q):
        c = a.dot(b)
        return np.maximum(np.abs(p - q) + c, np.maximum(np.abs(p - c) + q, np.abs(c - q) + p))

    _, alpha = _reference_maximize(a, b, objective)
    value, assignment = malus_lhs_all_assignments(a, b, alpha)
    return alpha, value, assignment


def _reference_assignment_optimum(a, b, assignment):
    index = SLOT_ASSIGNMENTS.index(assignment)
    c = a.dot(b)

    def objective(p, q):
        return (np.abs(p - q) + c, np.abs(p - c) + q, np.abs(c - q) + p)[index]

    return _reference_maximize(a, b, objective)


def _planar_pairs():
    pairs = []
    for half_deg in range(1, 360):  # 0.5 .. 179.5 degrees
        t = math.radians(half_deg / 2)
        pairs.append((UnitVector3(1, 0, 0), UnitVector3(math.cos(t), math.sin(t), 0)))
    return pairs


def _random_pairs(count=500, seed=20240):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        a, b = (UnitVector3.from_iterable(rng.normal(size=3)) for _ in range(2))
        if abs(a.dot(b)) < 0.999:
            pairs.append((a, b))
    return pairs


def _near_colinear_pairs():
    # 5e-5 rad keeps |a.b| = 1 - 1.25e-9 clear of the colinearity tolerance
    pairs = []
    rng = np.random.default_rng(7)
    frames = [(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))]
    for _ in range(3):
        e1, e2 = np.linalg.qr(rng.normal(size=(3, 2)))[0].T
        frames.append((e1, e2))
    for e1, e2 in frames:
        for eps in (5e-5, 1e-4, 1e-3):
            for t in (eps, math.pi - eps):
                b = math.cos(t) * e1 + math.sin(t) * e2
                pairs.append((UnitVector3.from_iterable(e1), UnitVector3.from_iterable(b)))
    return pairs


PAIRS = {
    "planar": _planar_pairs(),
    "random": _random_pairs(),
    "near_colinear": _near_colinear_pairs(),
}

ULP_EXACT = 4  # the closed form's own rounding against 60 digits
# How far the search's direction may come out above it.  The search is
# judged by the candidate at the alpha it returns: its own objective takes
# b.alpha from sqrt(1 - (a.b)**2), which near colinear axes is thousands of
# ulp off in either direction.
ULP_SEARCH = 12


def _exact_optima(a, b):
    """60-digit a.b + ||a - b|| and ||a + b|| - a.b of the stored components."""
    ua, ub = ([Decimal(c) for c in v.as_list()] for v in (a, b))
    with localcontext() as context:
        context.prec = 60
        c = sum(x * y for x, y in zip(ua, ub))
        minus = sum((x - y) ** 2 for x, y in zip(ua, ub)).sqrt()
        plus = sum((x + y) ** 2 for x, y in zip(ua, ub)).sqrt()
        return c + minus, plus - c


def _exact_assignment_optimum(a, b, assignment):
    minus, plus = _exact_optima(a, b)
    return float(minus if assignment == "xuv" else max(minus, plus))


def _ulps(value, exact):
    return abs(value - exact) / math.ulp(exact)


def _assert_unit_in_plane(alpha, a, b):
    # a few roundings of the components; the normal a x b is left unscaled,
    # as a unit normal would magnify its own rounding near colinear axes
    assert abs(math.fsum(c * c for c in alpha.as_list()) - 1.0) <= 1e-15
    assert abs(alpha.as_array() @ np.cross(a.as_array(), b.as_array())) <= 1e-15


def _candidate(a, b, alpha, assignment):
    p, q, c = a.dot(alpha), b.dot(alpha), a.dot(b)
    return (abs(p - q) + c, abs(p - c) + q, abs(c - q) + p)[SLOT_ASSIGNMENTS.index(assignment)]


@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_optimal_witness_is_the_exact_maximum(kind):
    for a, b in PAIRS[kind]:
        report = optimal_witness(a, b)
        exact = float(max(_exact_optima(a, b)))
        assert _ulps(report.lhs_value, exact) <= ULP_EXACT, (a, b)
        _, value, _ = _reference_optimal_witness(a, b)
        assert value - report.lhs_value <= ULP_SEARCH * math.ulp(exact), (a, b)
        assert malus_lhs_all_assignments(a, b, report.alpha) == (
            report.lhs_value, report.assignment
        )
        _assert_unit_in_plane(report.alpha, a, b)


@pytest.mark.parametrize("assignment", SLOT_ASSIGNMENTS)
@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_assignment_optimum_is_the_exact_maximum(kind, assignment):
    for a, b in PAIRS[kind]:
        value, alpha = assignment_optimum(a, b, assignment)
        exact = _exact_assignment_optimum(a, b, assignment)
        assert _ulps(value, exact) <= ULP_EXACT, (a, b)
        _, reference_alpha = _reference_assignment_optimum(a, b, assignment)
        reference = _candidate(a, b, reference_alpha, assignment)
        assert reference - value <= ULP_SEARCH * math.ulp(exact), (a, b)
        assert value == _candidate(a, b, alpha, assignment)
        _assert_unit_in_plane(alpha, a, b)


def test_ties_go_to_a_minus_b_then_b_minus_a():
    # at 90 degrees the candidates tie exactly across the three directions
    a, b = UnitVector3(1, 0, 0), UnitVector3(0, 1, 0)
    report = optimal_witness(a, b)
    assert (report.alpha, report.assignment) == (UnitVector3(1, -1, 0), "xuv")
    expected = {"xuv": UnitVector3(1, -1, 0), "uxv": UnitVector3(-1, 1, 0),
                "vux": UnitVector3(1, -1, 0)}
    for assignment, alpha in expected.items():
        assert assignment_optimum(a, b, assignment)[1] == alpha
