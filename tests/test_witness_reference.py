"""The in-plane witness search against its numpy reference, bit for bit.

``_reference_maximize`` is the search as it was first written: a 0.1 degree
grid evaluated with numpy, then a 30-step golden-section refinement whose
every evaluation pushes a one-element array through the same ufuncs.  The
library's search must return exactly the same floats (value and alpha) and
the same assignment for every input below.
"""

import math

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


PAIRS = {"planar": _planar_pairs(), "random": _random_pairs()}


@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_optimal_witness_equals_reference(kind):
    for a, b in PAIRS[kind]:
        report = optimal_witness(a, b)
        alpha, value, assignment = _reference_optimal_witness(a, b)
        assert (report.alpha, report.lhs_value, report.assignment) == (alpha, value, assignment)


@pytest.mark.parametrize("assignment", SLOT_ASSIGNMENTS)
@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_assignment_optimum_equals_reference(kind, assignment):
    for a, b in PAIRS[kind]:
        assert assignment_optimum(a, b, assignment) == _reference_assignment_optimum(
            a, b, assignment
        )
