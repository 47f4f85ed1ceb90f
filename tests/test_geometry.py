import copy
import math
import pickle

import numpy as np
import pytest

from boolebell.geometry import (
    SLOT_ASSIGNMENTS,
    ColinearAxes,
    UnitVector3,
    WitnessReport,
    angle_between,
    assignment_optimum,
    geometric_witness,
    malus_lhs_all_assignments,
    optimal_witness,
)

from test_witness_reference import PAIRS

RNG = np.random.default_rng(415)

# the two optimizers, each assignment_optimum call on its own
OPTIMIZERS = {
    "optimal": optimal_witness,
    **{
        f"assignment-{name}": lambda a, b, name=name: assignment_optimum(a, b, name)
        for name in SLOT_ASSIGNMENTS
    },
}


def planar_pair(theta_deg: float) -> tuple[UnitVector3, UnitVector3]:
    t = math.radians(theta_deg)
    return UnitVector3(1, 0, 0), UnitVector3(math.cos(t), math.sin(t), 0)


def random_direction() -> UnitVector3:
    v = RNG.normal(size=3)
    return UnitVector3.from_iterable(v)


def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


class TestUnitVector3:
    def test_renormalizes(self):
        v = UnitVector3(3, 4, 0)
        assert v.as_list() == pytest.approx([0.6, 0.8, 0.0])
        assert abs(v.dot(v) - 1.0) <= 1e-12

    def test_norm_close_to_one_for_random_inputs(self):
        for _ in range(100):
            v = random_direction()
            assert abs(np.linalg.norm(v.as_array()) - 1.0) <= 1e-9

    def test_rejects_zero_and_non_finite(self):
        with pytest.raises(ValueError):
            UnitVector3(0, 0, 0)
        with pytest.raises(ValueError):
            UnitVector3(math.inf, 0, 0)
        with pytest.raises(ValueError):
            UnitVector3(math.nan, 1, 0)

    @pytest.mark.parametrize("xyz", [(0, 0, 0), (math.inf, 0, 0), (math.nan, 1, 0),
                                     (-math.inf, math.inf, 0), (1e300, math.nan, 0)])
    def test_rejection_message(self, xyz):
        with pytest.raises(ValueError, match="^direction must be a finite non-zero vector$"):
            UnitVector3(*xyz)

    @pytest.mark.parametrize("xyz, plain", [
        ((1e200, 1e200, 0), (1, 1, 0)),  # the squares overflow
        ((1e-200, 0, 0), (1, 0, 0)),  # the square underflows
        ((0, -5e-324, 0), (0, -1, 0)),  # the smallest subnormal
        ((1.7e308, 1.7e308, -1.7e308), (1, 1, -1)),
    ])
    def test_rescales_when_the_squares_leave_the_float_range(self, xyz, plain):
        assert UnitVector3(*xyz) == UnitVector3(*plain)

    def test_negation(self):
        v = UnitVector3(1, 2, 2)
        assert (-v).as_list() == pytest.approx([-x for x in v.as_list()])


def _records():
    # (record, its field names, its repr)
    alpha = UnitVector3(1, 2, 2)
    return [(alpha, ["x", "y", "z"],
             "UnitVector3(x=0.3333333333333333, y=0.6666666666666666, z=0.6666666666666666)"),
            (WitnessReport(alpha, "right", 1.25, "uxv"),
             ["alpha", "case_label", "lhs_value", "assignment"],
             "WitnessReport(alpha=UnitVector3(x=0.3333333333333333, y=0.6666666666666666, "
             "z=0.6666666666666666), case_label='right', lhs_value=1.25, assignment='uxv')")]


RECORD_IDS = ["UnitVector3", "WitnessReport"]


class TestRecords:
    """Both records behave as the frozen dataclasses they replaced."""

    @pytest.mark.parametrize("record, names, shown", _records(), ids=RECORD_IDS)
    def test_equality_hash_and_repr(self, record, names, shown):
        twin = eval(shown)  # the repr rebuilds an equal record
        assert record == twin and not record != twin
        assert hash(record) == hash(twin)
        assert repr(record) == shown
        fields = [getattr(record, name) for name in names]
        assert record != tuple(fields) and record != fields

    def test_equal_vectors_hash_alike(self):
        assert UnitVector3(3, 4, 0) == UnitVector3(0.6, 0.8, 0)
        assert hash(UnitVector3(3, 4, 0)) == hash(UnitVector3(0.6, 0.8, 0))
        assert hash(UnitVector3(1, 2, 2)) == hash((1 / 3, 2 / 3, 2 / 3))

    @pytest.mark.parametrize("record, names, _", _records(), ids=RECORD_IDS)
    def test_fields_cannot_be_assigned_or_added(self, record, names, _):
        name = names[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(AttributeError):
            delattr(record, name)

    @pytest.mark.parametrize("record, names, _", _records(), ids=RECORD_IDS)
    def test_pickle_and_deepcopy_keep_every_field(self, record, names, _):
        for copied in [copy.deepcopy(record), copy.copy(record),
                       *(pickle.loads(pickle.dumps(record, protocol))
                         for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]:
            assert type(copied) is type(record) and copied == record
            assert [getattr(copied, name) for name in names] == [
                getattr(record, name) for name in names]

    def test_unpickling_does_not_renormalize(self):
        # a renormalized unit vector can move by an ulp; a copy must not
        v = UnitVector3(1, 1, 7)
        assert pickle.loads(pickle.dumps(v)).as_list() == v.as_list()
        assert UnitVector3(*v.as_list()).as_list() != v.as_list()


class TestAngleBetween:
    def test_same_direction(self):
        assert angle_between(UnitVector3(1, 0, 0), UnitVector3(1, 0, 0)) == 0.0
        v = random_direction()
        # arccos amplifies the ~1e-16 dot rounding to ~1e-8 near the ends
        assert angle_between(v, v) <= 1e-7

    def test_orthogonal(self):
        assert angle_between(UnitVector3(1, 0, 0), UnitVector3(0, 1, 0)) == pytest.approx(
            math.pi / 2
        )

    def test_opposite(self):
        v = random_direction()
        assert angle_between(v, -v) == pytest.approx(math.pi)


class TestMalusAssignments:
    def test_coincident_directions_give_one(self):
        v = UnitVector3(1, 1, 1)
        value, assignment = malus_lhs_all_assignments(v, v, v)
        assert value == 1.0
        assert assignment == "xuv"  # exact three-way tie goes to the first slot order

    def test_right_angle_bisector_reaches_sqrt2(self):
        a, b = planar_pair(90)
        alpha = UnitVector3(1, 1, 0)
        value, assignment = malus_lhs_all_assignments(a, b, alpha)
        assert value == pytest.approx(math.sqrt(2), abs=1e-12)
        assert assignment == "uxv"  # an exact tie with "vux" goes to the first

    def test_sixty_degree_orthogonal_direction(self):
        a, b = planar_pair(60)
        alpha = UnitVector3(0, 1, 0)  # orthogonal to a, on b's side
        value, _ = malus_lhs_all_assignments(a, b, alpha)
        assert value == pytest.approx(math.cos(math.radians(60)) + math.sin(math.radians(60)))
        assert value == pytest.approx(1.366025, abs=1e-6)


class TestGeometricWitness:
    def test_right_angle_case(self):
        report = geometric_witness(*planar_pair(90))
        assert report.case_label == "right"
        assert report.lhs_value == pytest.approx(math.sqrt(2), abs=1e-9)
        assert report.assignment == "uxv"

    def test_acute_case_sixty_degrees(self):
        report = geometric_witness(*planar_pair(60))
        assert report.case_label == "acute"
        expected = math.cos(math.radians(60)) + math.sin(math.radians(60))
        assert report.lhs_value == pytest.approx(expected, abs=1e-9)

    def test_obtuse_case_120_degrees(self):
        report = geometric_witness(*planar_pair(120))
        assert report.case_label == "obtuse"
        t = math.radians(120)
        assert report.lhs_value == pytest.approx(math.sin(t) + abs(math.cos(t)), abs=1e-9)

    @pytest.mark.parametrize("theta", range(1, 180))
    def test_sweep_always_violates(self, theta):
        a, b = planar_pair(theta)
        report = geometric_witness(a, b)
        assert report.lhs_value > 1.0
        t = math.radians(theta)
        closed = math.sqrt(2) if theta == 90 else math.sin(t) + abs(math.cos(t))
        if theta < 90:
            closed = math.cos(t) + math.sin(t)
        assert report.lhs_value == pytest.approx(closed, abs=1e-9)

    def test_witness_is_unit_and_in_plane(self):
        for theta in (10, 47, 90, 133, 171):
            a, b = planar_pair(theta)
            alpha = geometric_witness(a, b).alpha
            det = np.linalg.det(np.column_stack([a.as_array(), b.as_array(), alpha.as_array()]))
            assert abs(det) <= 1e-9
            assert abs(np.linalg.norm(alpha.as_array()) - 1.0) <= 1e-9

    def test_orthogonal_to_b_variant_matches(self):
        for theta in (30, 60, 120, 150):
            a, b = planar_pair(theta)
            va = geometric_witness(a, b, orthogonal_to="a")
            vb = geometric_witness(a, b, orthogonal_to="b")
            assert va.lhs_value == pytest.approx(vb.lhs_value, abs=1e-9)
            # each variant is orthogonal to its chosen axis
            assert abs(a.dot(va.alpha)) <= 1e-9
            assert abs(b.dot(vb.alpha)) <= 1e-9

    def test_colinear_axes_rejected(self):
        v = random_direction()
        with pytest.raises(ColinearAxes):
            geometric_witness(v, v)
        with pytest.raises(ColinearAxes):
            geometric_witness(v, -v)

    def test_bad_orthogonal_to_flag(self):
        with pytest.raises(ValueError):
            geometric_witness(*planar_pair(60), orthogonal_to="c")

    def test_rotation_invariance(self):
        a, b = planar_pair(72)
        base = geometric_witness(a, b).lhs_value
        for _ in range(20):
            rot = rotation_matrix(RNG.normal(size=3), float(RNG.uniform(0, 2 * math.pi)))
            ra = UnitVector3.from_iterable(rot @ a.as_array())
            rb = UnitVector3.from_iterable(rot @ b.as_array())
            assert geometric_witness(ra, rb).lhs_value == pytest.approx(base, abs=1e-12)


class TestOptimalWitness:
    def test_right_angle_at_least_sqrt2(self):
        report = optimal_witness(*planar_pair(90))
        assert report.lhs_value >= math.sqrt(2) - 1e-9

    @pytest.mark.parametrize("theta", range(5, 180, 5))
    def test_dominates_geometric_witness(self, theta):
        a, b = planar_pair(theta)
        assert optimal_witness(a, b).lhs_value >= geometric_witness(a, b).lhs_value - 1e-9

    def test_first_assignment_optimum_closed_form(self):
        # max over alpha of |a.alpha - b.alpha| + a.b sits at the normalized
        # difference direction with value a.b + ||a - b||.
        a, b = planar_pair(60)
        value, alpha = assignment_optimum(a, b, "xuv")
        assert value == pytest.approx(1.5, abs=1e-6)
        expected = (a.as_array() - b.as_array()) / np.linalg.norm(a.as_array() - b.as_array())
        assert min(
            np.linalg.norm(alpha.as_array() - expected),
            np.linalg.norm(alpha.as_array() + expected),
        ) <= 1e-3

    @pytest.mark.parametrize("theta", [17, 45, 90, 101, 160])
    def test_first_assignment_matches_difference_direction(self, theta):
        a, b = planar_pair(theta)
        value, _ = assignment_optimum(a, b, "xuv")
        closed = a.dot(b) + float(np.linalg.norm(a.as_array() - b.as_array()))
        assert value == pytest.approx(closed, abs=1e-6)

    def test_near_colinear_value_approaches_one(self):
        small = optimal_witness(*planar_pair(0.5)).lhs_value
        smaller = optimal_witness(*planar_pair(0.1)).lhs_value
        assert 1.0 < smaller < small < 1.02

    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_colinear_rejected(self, name):
        v = random_direction()
        with pytest.raises(ColinearAxes):
            OPTIMIZERS[name](v, v)
        with pytest.raises(ColinearAxes):
            OPTIMIZERS[name](v, -v)

    @pytest.mark.parametrize("kind", sorted(PAIRS))
    def test_both_optimizers_read_one_table(self, kind):
        for a, b in PAIRS[kind]:
            report = optimal_witness(a, b)
            optima = [assignment_optimum(a, b, name) for name in SLOT_ASSIGNMENTS]
            # the winning assignment's own optimum is the report, direction and all
            assert optima[SLOT_ASSIGNMENTS.index(report.assignment)] == (
                report.lhs_value, report.alpha
            ), (a, b)
            assert report.lhs_value == max(value for value, _ in optima), (a, b)

    def test_in_plane_and_unit(self):
        a, b = planar_pair(77)
        alpha = optimal_witness(a, b).alpha
        det = np.linalg.det(np.column_stack([a.as_array(), b.as_array(), alpha.as_array()]))
        assert abs(det) <= 1e-9
        assert abs(np.linalg.norm(alpha.as_array()) - 1.0) <= 1e-9

    def test_rotation_invariance(self):
        a, b = planar_pair(40)
        base = optimal_witness(a, b).lhs_value
        rot = rotation_matrix(np.array([1.0, 2.0, 3.0]), 1.234)
        ra = UnitVector3.from_iterable(rot @ a.as_array())
        rb = UnitVector3.from_iterable(rot @ b.as_array())
        assert optimal_witness(ra, rb).lhs_value == pytest.approx(base, abs=1e-12)

    def test_tied_directions_go_to_the_first(self):
        # at an exact right angle a - b, b - a and a + b all reach sqrt(2)
        a, b = UnitVector3(1, 0, 0), UnitVector3(0, 1, 0)
        report = optimal_witness(a, b)
        assert (report.alpha, report.assignment) == (UnitVector3(1, -1, 0), "xuv")
        # "xuv" is the same along a - b and b - a
        assert assignment_optimum(a, b, "xuv")[1] == UnitVector3(1, -1, 0)
        assert assignment_optimum(b, a, "xuv")[1] == UnitVector3(-1, 1, 0)

    def test_assignment_labels_cover_slot_orders(self):
        assert SLOT_ASSIGNMENTS == ("xuv", "uxv", "vux")
        with pytest.raises(ValueError):
            assignment_optimum(*planar_pair(60), "zzz")
