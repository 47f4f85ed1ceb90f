import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolebell.geometry import InvalidProbability, UnitVector3, clamp_unit_dot
from boolebell.rng import RngStream
from boolebell.sampler import (
    PreparedSource,
    _events,
    _threshold,
    random_signs,
    sample_prepared,
    sample_singlet,
    sample_singlet_partner,
)
from boolebell.sequences import SignSequence, coincidence_probability, correlation
from stats import assert_law
from test_philox_reference import reference_threshold

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


def popcount(bits: int) -> int:
    return bin(bits).count("1")


def every_64th(n: int, first: int) -> int:
    """The mask of bits first, first + 64, first + 128, ... below n."""
    return sum(1 << i for i in range(first, n, 64))


class TestLaws:
    """Each test counts events over 20 seeds and checks the totals against
    their exact binomial laws (tests/stats.py), failing a true law with
    probability at most 1e-9.  They pin no bytes, so they hold for any
    stream format that draws the laws right."""

    N = 100_000
    THETAS = [0, 30, 60, 90, 135, 180]

    def test_fair_signs(self):
        n = 64 * 1000  # 1 000 words' worth, whatever the format

        def draw(seed):
            s = random_signs(n, RngStream(seed, 40)).bits
            # bit i of s ^ (s >> 1) is set when signs i and i + 1 differ
            same = ~(s ^ (s >> 1))
            return [
                (popcount(s), n),
                (popcount(same & ((1 << (n - 1)) - 1)), n - 1),
                # sign 63 against 64, 127 against 128, ...: across 64-bit words
                (popcount(same & every_64th(n - 1, 63)), n // 64 - 1),
            ]

        assert_law(draw, 0.5, 0.5, 0.5)

    @pytest.mark.parametrize("theta", THETAS)
    def test_prepared(self, theta):
        # x_i = +1 with probability (1 + u_i c)/2, given u
        alpha = plane_direction(theta)
        c = clamp_unit_dot(X_HAT.dot(alpha))
        mask = (1 << self.N) - 1

        def draw(seed):
            u = random_signs(self.N, RngStream(seed, 50))
            x = sample_prepared(PreparedSource(X_HAT, u), alpha, RngStream(seed, 51))
            n_plus = popcount(u.bits)
            return [
                (popcount(u.bits & x.bits), n_plus),
                (popcount(~u.bits & x.bits & mask), self.N - n_plus),
            ]

        assert_law(draw, 0.5 * (1 + c), 0.5 * (1 - c))

    @pytest.mark.parametrize("theta", THETAS)
    def test_singlet(self, theta):
        # B disagrees with A with probability (1 + c)/2; both wings are fair
        beta = plane_direction(theta)
        p = 0.5 * (1 + clamp_unit_dot(X_HAT.dot(beta)))
        pairs = (1 << self.N) // 3  # bits 0, 2, 4, ...: one per pair of neighbours

        def draw(seed):
            a, b = sample_singlet(X_HAT, beta, self.N, RngStream(seed, 60))
            flips = a.bits ^ b.bits
            return [
                (popcount(flips), self.N),
                (popcount(a.bits), self.N),
                (popcount(b.bits), self.N),
                # neighbours 2i and 2i + 1 flip independently
                (popcount(flips & (flips >> 1) & pairs), self.N // 2),
            ]

        assert_law(draw, p, 0.5, 0.5, p * p)


class TestClamp:
    def test_snaps_rounding_noise(self):
        assert clamp_unit_dot(1.0 + 5e-10) == 1.0
        assert clamp_unit_dot(-1.0 - 5e-10) == -1.0
        assert clamp_unit_dot(0.25) == 0.25

    def test_rejects_real_excursions(self):
        # a NaN fails every comparison, so it must not pass the guard as a cosine
        for value in (1.1, -1.000001, math.nan, -math.nan):
            with pytest.raises(InvalidProbability):
                clamp_unit_dot(value)


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
# the edges, a tie (p * 2**32 = 1.5) and both sides of own-axis dust
THRESHOLDS = [0.0, 5e-324, 2**-40, 2**-33, 3 * 2**-33, 0.5, 1 - 2**-40, 1.0] + [
    0.5 * (1.0 + s * c) for c in DUSTY_C for s in (1.0, -1.0)
]


def halves(rng: RngStream, n: int) -> list[int]:
    """The first n 32-bit halves of the stream's words, low half first."""
    words = rng.words(-(-n // 2)).tolist()
    return [w >> shift & 0xFFFFFFFF for w in words for shift in (0, 32)][:n]


class TestIntegerThreshold:
    """Outcomes against plain-int references: the 32-bit halves of the
    words, low half first, below K(p) = p * 2**32 rounded to nearest."""

    def test_dusty_cosines_are_own_axis_dust(self):
        own = UnitVector3(1, 1, 0)
        assert clamp_unit_dot(own.dot(own)) in DUSTY_C
        assert 0 < min(THRESHOLDS[8:]) < 2**-50

    def test_threshold_edges(self):
        assert [_threshold(p) for p in (0.0, 2**-40, 0.5, 1 - 2**-40, 1.0)] == [
            0, 0, 2**31, 2**32, 2**32
        ]
        # ties go to even: 0.5 -> 0, 1.5 -> 2, 2**31 + 0.5 -> 2**31
        assert [_threshold(p) for p in (2**-33, 3 * 2**-33, 0.5 + 2**-33)] == [0, 2, 2**31]
        # own-axis dust decides as c = 1 would: x = u, never a flip
        for c in DUSTY_C:
            assert (_threshold(0.5 * (1 + c)), _threshold(0.5 * (1 - c))) == (2**32, 0)

    @given(st.floats(-0.5, 1.5, allow_nan=False))
    def test_threshold_is_the_reference(self, p):
        assert _threshold(p) == reference_threshold(p)

    @pytest.mark.parametrize("p", THRESHOLDS)
    def test_events_at_the_threshold(self, p):
        rng = RngStream(31, 2, counter=3)
        events = _events(1001, p, rng)
        k = reference_threshold(p)
        want = [h < k for h in halves(RngStream(31, 2, counter=3), 1001)]
        assert [bool(events >> i & 1) for i in range(1001)] == want
        assert rng.counter == 3 + 126  # 501 words, rounded up to counter blocks

    @pytest.mark.parametrize("axis, alpha", AXIS_PAIRS)
    def test_prepared_sample_is_the_half_word_rule(self, axis, alpha):
        # x_i = u_i where the half is below K((1 + c)/2), else -u_i
        axis, alpha = UnitVector3(*axis), UnitVector3(*alpha)
        k = reference_threshold(0.5 * (1.0 + clamp_unit_dot(axis.dot(alpha))))
        u = random_signs(1001, RngStream(30))
        x = sample_prepared(PreparedSource(axis, u), alpha, RngStream(31, 2, counter=3))
        hs = halves(RngStream(31, 2, counter=3), 1001)
        assert list(x) == [ui if h < k else -ui for ui, h in zip(u, hs)]

    @pytest.mark.parametrize("fixed, other", AXIS_PAIRS)
    def test_singlet_partner_is_the_half_word_rule(self, fixed, other):
        # b_i = -a_i where the half is below K((1 + c)/2), else a_i
        fixed, other = UnitVector3(*fixed), UnitVector3(*other)
        k = reference_threshold(0.5 * (1.0 + clamp_unit_dot(fixed.dot(other))))
        a = random_signs(1001, RngStream(32))
        b = sample_singlet_partner(a, fixed, other, RngStream(33))
        assert list(b) == [-ai if h < k else ai for ai, h in zip(a, halves(RngStream(33), 1001))]

    def test_fair_signs_are_the_bits_of_the_words(self):
        # sign i is bit i mod 64 of word i // 64, lowest bit first
        words = RngStream(34).words(16).tolist()
        want = [1 if words[i // 64] >> (i % 64) & 1 else -1 for i in range(1001)]
        assert list(random_signs(1001, RngStream(34))) == want


# (sampler, first direction, second direction, the exact outcome of signs s):
# the own axis, dusty or clean, and a singlet's equal and opposite wings
CERTAIN = {
    "own-axis": (lambda s, d, e, rng: sample_prepared(PreparedSource(d, s), e, rng),
                 X_HAT, X_HAT, lambda s: s),
    "dusty-own-axis": (lambda s, d, e, rng: sample_prepared(PreparedSource(d, s), e, rng),
                       UnitVector3(1, 1, 0), UnitVector3(1, 1, 0), lambda s: s),
    "opposite-axis": (lambda s, d, e, rng: sample_prepared(PreparedSource(d, s), e, rng),
                      X_HAT, -X_HAT, lambda s: -s),
    "singlet-equal": (sample_singlet_partner, Z_HAT, Z_HAT, lambda s: -s),
    "singlet-opposite": (sample_singlet_partner, Z_HAT, -Z_HAT, lambda s: s),
}


def _no_words(self, n):
    raise AssertionError(f"a certain outcome drew {n} words")


class TestCertainOutcomes:
    """At K(p) = 0 or 2**32 a sampler draws no word, yet leaves its stream
    where a drawing call would: at the counter past ceil(n/2) words, so the
    next words are the ones that follow them."""

    @pytest.mark.parametrize("n", [1, 7, 1001, 1 << 15])
    @pytest.mark.parametrize("case", CERTAIN)
    def test_exact_outcomes_from_no_words(self, monkeypatch, case, n):
        sample, d, e, want = CERTAIN[case]
        p = 0.5 * (1.0 + clamp_unit_dot(d.dot(e)))
        assert _threshold(p) in (0, 2**32)
        s = random_signs(n, RngStream(40))
        rng = RngStream(41, 2, counter=3)
        rng.words(8)  # the stream keeps a Philox, which the skip must not read on from
        with monkeypatch.context() as m:
            m.setattr(RngStream, "words", _no_words)
            out = sample(s, d, e, rng)
        assert out == want(s)
        drawn = RngStream(41, 2, counter=5)
        drawn.words(-(-n // 2))  # what a drawing call reads
        assert rng.counter == drawn.counter
        assert np.array_equal(rng.words(9), drawn.words(9))

    @pytest.mark.parametrize("case", CERTAIN)
    def test_draws_after_a_certain_call_are_the_computed_ones(self, case):
        # a tilted call, a certain one, a tilted one: the last reads the
        # words at the counter two drawing calls of 1,500 words leave
        sample, d, e, _ = CERTAIN[case]
        tilted = plane_direction(50)
        s = random_signs(3000, RngStream(42))
        rng = RngStream(43)
        first, _, last = (sample(s, d, f, rng) for f in (tilted, e, tilted))
        assert first == sample(s, d, tilted, RngStream(43))
        assert last == sample(s, d, tilted, RngStream(43, 0, 2 * 375))
        assert last != first
