import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolebell.geometry import InvalidProbability, UnitVector3, clamp_unit_dot
from boolebell.rng import RngStream
from boolebell.sampler import (
    PreparedSource,
    _below,
    random_signs,
    sample_prepared,
    sample_singlet,
    sample_singlet_partner,
)
from boolebell.sequences import SignSequence, coincidence_probability, correlation

X_HAT = UnitVector3(1, 0, 0)
Z_HAT = UnitVector3(0, 0, 1)


def plane_direction(theta_deg: float) -> UnitVector3:
    t = math.radians(theta_deg)
    return UnitVector3(math.cos(t), math.sin(t), 0)


class TestPrepared:
    def test_all_plus_along_axis_is_deterministic(self):
        src = PreparedSource(X_HAT, SignSequence.from_text("+" * 500))
        x = sample_prepared(src, X_HAT, RngStream(1))
        assert x.to_text() == "+" * 500
        assert correlation(src.u, x).value == 1.0

    def test_mixed_u_along_axis_reproduces_u(self):
        u = random_signs(1000, RngStream(2))
        src = PreparedSource(X_HAT, u)
        x = sample_prepared(src, X_HAT, RngStream(3))
        assert x == u

    def test_opposite_axis_negates_u(self):
        u = random_signs(1000, RngStream(4))
        x = sample_prepared(PreparedSource(X_HAT, u), -X_HAT, RngStream(5))
        assert x == -u

    def test_cosine_law_at_45_degrees(self):
        n = 1_000_000
        u = random_signs(n, RngStream(6, 0))
        src = PreparedSource(X_HAT, u)
        x = sample_prepared(src, plane_direction(45), RngStream(6, 1))
        target = math.cos(math.radians(45))
        stderr = math.sqrt((1 - target**2) / n)
        assert abs(correlation(u, x).value - target) <= 4 * stderr

    def test_direction_sweep_with_five_sigma_budget(self):
        n = 100_000
        u = random_signs(n, RngStream(7, 0))
        src = PreparedSource(X_HAT, u)
        outliers = 0
        for k in range(12):
            alpha = plane_direction(30.0 * k)
            x = sample_prepared(src, alpha, RngStream(7, k + 1))
            target = clamp_unit_dot(X_HAT.dot(alpha))
            stderr = math.sqrt((1 - target**2) / n)
            if abs(correlation(u, x).value - target) > 5 * stderr:
                outliers += 1
        assert outliers <= 1

    def test_deterministic_given_state(self):
        u = random_signs(256, RngStream(8))
        src = PreparedSource(X_HAT, u)
        x1 = sample_prepared(src, plane_direction(30), RngStream(9, 2))
        x2 = sample_prepared(src, plane_direction(30), RngStream(9, 2))
        assert x1 == x2


class TestSinglet:
    def test_equal_directions_anticorrelate_exactly(self):
        a_seq, b_seq = sample_singlet(Z_HAT, Z_HAT, 5000, RngStream(10))
        assert b_seq == -a_seq
        assert coincidence_probability(a_seq, b_seq) == 0

    def test_opposite_directions_correlate_exactly(self):
        a_seq, b_seq = sample_singlet(Z_HAT, -Z_HAT, 5000, RngStream(11))
        assert b_seq == a_seq

    def test_orthogonal_directions_uncorrelated(self):
        n = 1_000_000
        a_seq, b_seq = sample_singlet(X_HAT, Z_HAT, n, RngStream(12))
        assert abs(correlation(a_seq, b_seq).value) <= 4 / math.sqrt(n)

    @pytest.mark.parametrize("theta", [30, 60, 120])
    def test_cosine_anticorrelation(self, theta):
        n = 200_000
        a_seq, b_seq = sample_singlet(X_HAT, plane_direction(theta), n, RngStream(13, theta))
        c = math.cos(math.radians(theta))
        stderr = math.sqrt((1 - c * c) / n)
        assert abs(correlation(a_seq, b_seq).value + c) <= 4 * stderr

    def test_marginals_are_unbiased(self):
        n = 250_000
        a_seq, b_seq = sample_singlet(X_HAT, plane_direction(60), n, RngStream(14))
        bound = 5 / math.sqrt(n)
        assert abs(np.mean(a_seq.to_array())) <= bound
        assert abs(np.mean(b_seq.to_array())) <= bound

    def test_no_signaling_in_marginals(self):
        # A's distribution must not depend on which direction B is measured
        # along; compare means across two beta choices at 5 sigma.
        n = 250_000
        a1, _ = sample_singlet(X_HAT, plane_direction(30), n, RngStream(15))
        a2, _ = sample_singlet(X_HAT, plane_direction(150), n, RngStream(16))
        diff = abs(float(np.mean(a1.to_array())) - float(np.mean(a2.to_array())))
        assert diff <= 5 * math.sqrt(2.0 / n)

    def test_partner_sampling_matches_joint_law(self):
        n = 200_000
        b_seq = random_signs(n, RngStream(17, 0))
        a_seq = sample_singlet_partner(b_seq, plane_direction(60), X_HAT, RngStream(17, 1))
        c = math.cos(math.radians(60))
        stderr = math.sqrt((1 - c * c) / n)
        assert abs(correlation(a_seq, b_seq).value + c) <= 4 * stderr

    def test_deterministic_given_state(self):
        first = sample_singlet(X_HAT, Z_HAT, 999, RngStream(18, 5))
        second = sample_singlet(X_HAT, Z_HAT, 999, RngStream(18, 5))
        assert first == second

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            sample_singlet(X_HAT, Z_HAT, 0, RngStream(19))
        with pytest.raises(ValueError):
            random_signs(0, RngStream(19))


class TestClamp:
    def test_snaps_rounding_noise(self):
        assert clamp_unit_dot(1.0 + 5e-10) == 1.0
        assert clamp_unit_dot(-1.0 - 5e-10) == -1.0
        assert clamp_unit_dot(0.25) == 0.25

    def test_rejects_real_excursions(self):
        with pytest.raises(InvalidProbability):
            clamp_unit_dot(1.1)
        with pytest.raises(InvalidProbability):
            clamp_unit_dot(-1.000001)


# own-axis cosines a.a of unit vectors: float dust below 1 (the clamp
# takes dust above 1 to 1.0), as [1,1,0] gives 1 - 2**-52
DUSTY_C = [1 - 2**-53, 1 - 2**-52, 1 - 3 * 2**-53, 1 - 2**-51]
AXIS_PAIRS = [
    ((1, 1, 0), (1, 1, 0)),  # dusty own axis
    ((1, 0, 0), (1, 0, 0)),
    ((1, 0, 0), (-1, 0, 0)),
    ((1, 0, 0), (0, 1, 0)),
    ((1, 0, 0), (1, 1, 0)),
    ((0.3, 0.4, 0.5), (0.1, -0.9, 0.2)),
]
THRESHOLDS = [0.0, 5e-324, 2**-53, 0.5, 1 - 2**-53, 1.0] + [
    0.5 * (1.0 + s * c) for c in DUSTY_C for s in (1.0, -1.0)
]


def uniform_below(words: np.ndarray, p: float) -> np.ndarray:
    """The rule the samplers must reproduce: numpy's Philox double < p."""
    return ((words >> 11) * 2**-53) < p


class TestIntegerThreshold:
    def test_dusty_cosines_are_own_axis_dust(self):
        own = UnitVector3(1, 1, 0)
        assert clamp_unit_dot(own.dot(own)) in DUSTY_C
        assert 0 < min(THRESHOLDS[6:]) < 2**-50

    @pytest.mark.parametrize("p", THRESHOLDS)
    def test_matches_the_uniform_rule_at_the_threshold(self, p):
        edge = math.ceil(p * 2**53) << 11
        words = np.array(
            [w for w in (edge - 1, edge, edge + 2047, 0, 2**64 - 1) if 0 <= w < 2**64],
            dtype=np.uint64,
        )
        assert np.array_equal(_below(words, p), uniform_below(words, p))

    @given(
        st.floats(-0.5, 1.5, allow_nan=False),
        st.integers(0, 2**64 - 1),
        st.integers(-4096, 4096),
    )
    def test_matches_the_uniform_rule(self, p, word, offset):
        # a random word, and one near the threshold, where a slip would show
        near = (max(math.ceil(p * 2**53), 0) << 11) + offset
        w = np.array([word] + [near] * (0 <= near < 2**64), dtype=np.uint64)
        assert np.array_equal(_below(w, p), uniform_below(w, p))

    @pytest.mark.parametrize("axis, alpha", AXIS_PAIRS)
    def test_prepared_sample_is_the_uniform_rule(self, axis, alpha):
        # the float formula the sampler used to evaluate, on the same stream
        axis, alpha = UnitVector3(*axis), UnitVector3(*alpha)
        c = clamp_unit_dot(axis.dot(alpha))
        u = random_signs(1001, RngStream(30))
        x = sample_prepared(PreparedSource(axis, u), alpha, RngStream(31, 2, counter=3))
        p_plus = 0.5 * (1.0 + u.to_array().astype(np.float64) * c)
        assert x == SignSequence.from_array(RngStream(31, 2, counter=3).uniforms(1001) < p_plus)

    @pytest.mark.parametrize("fixed, other", AXIS_PAIRS)
    def test_singlet_partner_is_the_uniform_rule(self, fixed, other):
        fixed, other = UnitVector3(*fixed), UnitVector3(*other)
        c = clamp_unit_dot(fixed.dot(other))
        a = random_signs(1001, RngStream(32))
        b = sample_singlet_partner(a, fixed, other, RngStream(33))
        flip = RngStream(33).uniforms(1001) < 0.5 * (1.0 + c)
        assert b == SignSequence.from_array(np.where(flip, -a.to_array(), a.to_array()))

    def test_fair_signs_are_the_uniform_rule(self):
        assert random_signs(1001, RngStream(34)) == SignSequence.from_array(
            RngStream(34).uniforms(1001) < 0.5
        )
