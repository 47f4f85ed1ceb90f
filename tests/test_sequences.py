"""Exactness and bound tests for the sign-sequence core.

The oracles here recompute every quantity from plain Python lists and
fractions, independently of the bit-packed implementation.
"""

from fractions import Fraction

import numpy as np
import pytest

from boolebell.sequences import (
    BRUTE_FORCE_MAX_LENGTH,
    EmptySequence,
    LengthMismatch,
    LengthTooLarge,
    SignSequence,
    boole_bell_lhs,
    boole_bell_lhs_exact,
    boole_bell_lhs_prob,
    brute_force_max_lhs,
    coincidence_probability,
    concatenate,
    correlation,
)

RNG = np.random.default_rng(20260817)


def random_sequence(n: int) -> SignSequence:
    return SignSequence.from_array(RNG.integers(0, 2, size=n) == 1)


def oracle_correlation(f: SignSequence, g: SignSequence) -> Fraction:
    return Fraction(sum(a * b for a, b in zip(f, g)), len(f))


def oracle_lhs(f: SignSequence, g: SignSequence, h: SignSequence) -> Fraction:
    """Pointwise oracle: average f g - f h + g h and its mirror, take the max."""
    n = len(f)
    forward = Fraction(sum(a * b - a * c + b * c for a, b, c in zip(f, g, h)), n)
    mirror = Fraction(sum(a * c - a * b + b * c for a, b, c in zip(f, g, h)), n)
    assert forward <= 1 and mirror <= 1  # each pointwise term is at most 1
    return max(forward, mirror)


def all_sequences(n: int):
    return [SignSequence(n, bits) for bits in range(1 << n)]


class TestSignSequence:
    def test_text_round_trip(self):
        s = SignSequence.from_text("++-+-")
        assert s.to_text() == "++-+-"
        assert list(s) == [1, 1, -1, 1, -1]

    def test_unicode_minus_parses_and_emits_ascii(self):
        s = SignSequence.from_text("+−+−")
        assert s.to_text() == "+-+-"

    def test_text_matches_the_array_rendering(self):
        # whole last bytes, partial last bytes, the shortest and a long sequence
        lengths = [1, 100_003, *(8 * RNG.integers(1, 200, 40)),
                   *(8 * RNG.integers(0, 200, 80) + RNG.integers(1, 8, 80))]
        for n in lengths:
            s = random_sequence(int(n))
            text = s.to_text()
            signs = np.where(s.to_array() > 0, ord("+"), ord("-")).astype(np.uint8)
            assert text == bytes(signs).decode()
            assert SignSequence.from_text(text) == s

    @pytest.mark.parametrize("n", [1, 32, 33, 1_000_000])
    def test_repr_shows_at_most_32_entries(self, n):
        s = random_sequence(n)
        text = s.to_text()
        shown = text if n <= 32 else text[:29] + "..."
        assert repr(s) == f"SignSequence(length={n}, text='{shown}')"

    def test_from_text_rejects_garbage(self):
        # '1' and '_' would pass int(., 2) after the sign translation; spaces raise int's message
        for text, bad in [("+-x", "x"), ("+1-", "1"), ("+0-", "0"), ("+_-", "_"),
                          ("+ -", " "), ("+\t-", "\t")]:
            with pytest.raises(ValueError) as info:
                SignSequence.from_text(text)
            assert str(info.value) == f"unexpected character {bad!r} in sign text"

    def test_array_round_trip(self):
        values = RNG.integers(0, 2, size=1000) * 2 - 1
        s = SignSequence.from_array(values)
        assert np.array_equal(s.to_array(), values.astype(np.int8))

    def test_from_array_rejects_other_values(self):
        with pytest.raises(ValueError):
            SignSequence.from_array(np.array([1, 2, -1]))

    def test_from_array_rejects_a_two_dimensional_array(self):
        with pytest.raises(ValueError, match="^expected a one-dimensional array$"):
            SignSequence.from_array(np.ones((2, 3), dtype=np.int8))

    def test_stray_high_bits_are_cleared(self):
        assert SignSequence(3, 0b11111) == SignSequence(3, 0b111)

    def test_empty_rejected(self):
        with pytest.raises(EmptySequence):
            SignSequence(0, 0)
        with pytest.raises(EmptySequence):
            SignSequence.from_text("  ")

    def test_indexing_and_slicing(self):
        s = SignSequence.from_text("+-+--+")
        assert s[0] == 1 and s[1] == -1 and s[-1] == 1
        assert s[1:4].to_text() == "-+-"
        with pytest.raises(IndexError):
            s[6]
        with pytest.raises(EmptySequence):
            s[3:3]
        with pytest.raises(ValueError):
            s[::2]

    def test_negation(self):
        s = SignSequence.from_text("++-")
        assert (-s).to_text() == "--+"
        assert -(-s) == s

    def test_concatenate(self):
        parts = [SignSequence.from_text(t) for t in ("+-", "-", "+++")]
        assert concatenate(parts).to_text() == "+--+++"
        with pytest.raises(EmptySequence):
            concatenate([])


class TestCorrelation:
    def test_identical_sequences(self):
        s = SignSequence.from_text("+--+")
        est = correlation(s, s)
        assert est.value == 1.0 and est.stderr == 0.0 and est.n == 4

    def test_opposite_sequences(self):
        s = SignSequence.from_text("+--+")
        assert correlation(s, -s).value == -1.0

    def test_half_agreement(self):
        f = SignSequence.from_text("++--")
        g = SignSequence.from_text("+-+-")
        est = correlation(f, g)
        assert est.value == 0.0 and est.sum_products == 0
        assert est.stderr == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            correlation(SignSequence.from_text("+"), SignSequence.from_text("++"))

    @pytest.mark.parametrize("n", [1, 2, 17, 100, 1001])
    def test_matches_oracle(self, n):
        f, g = random_sequence(n), random_sequence(n)
        est = correlation(f, g)
        assert est.as_fraction() == oracle_correlation(f, g)
        assert est.value == float(est.as_fraction())

    def test_coincidence_identity_is_exact(self):
        # P(f_i = g_i) = (1 + <f,g>)/2 holds in exact rational arithmetic,
        # including lengths like 3 where floats would already drift.
        for n in (1, 2, 3, 6, 97, 1000):
            f, g = random_sequence(n), random_sequence(n)
            est = correlation(f, g)
            assert coincidence_probability(f, g) - (1 + est.as_fraction()) / 2 == 0

    def test_coincidence_of_negation_complements(self):
        f, g = random_sequence(51), random_sequence(51)
        assert coincidence_probability(f, g) + coincidence_probability(f, -g) == 1

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 1000])
    def test_coincidence_matches_count_oracle(self, n):
        # around a 64-bit word boundary, and with the all-agree and all-disagree pairs
        f, g = random_sequence(n), random_sequence(n)
        for a, b in [(f, g), (f, f), (f, -f)]:
            agreements = sum(x == y for x, y in zip(a, b))
            assert coincidence_probability(a, b) == Fraction(agreements, n)


PAIRWISE = [correlation, coincidence_probability]
TRIPLEWISE = [boole_bell_lhs_exact, boole_bell_lhs, boole_bell_lhs_prob]


@pytest.mark.parametrize(
    "function, lengths",
    [(fn, lengths) for fn in PAIRWISE for lengths in [(3, 5), (5, 3)]]
    + [(fn, lengths) for fn in TRIPLEWISE
       for lengths in [(5, 3, 3), (3, 5, 3), (3, 3, 5), (3, 5, 5), (2, 3, 4), (4, 4, 2)]],
    ids=lambda v: getattr(v, "__name__", None) or "-".join(map(str, v)),
)
def test_length_mismatch_names_the_first_unequal_pair(function, lengths):
    """Each argument position may carry the odd length; the message names
    the first pair, in argument order (f,g), (f,h), (g,h), that differs."""
    args = [random_sequence(n) for n in lengths]
    a, b = next((a, b) for i, a in enumerate(lengths) for b in lengths[i + 1:] if a != b)
    with pytest.raises(LengthMismatch) as info:
        function(*args)
    assert str(info.value) == f"lengths differ: {a} vs {b}"


class TestBooleBound:
    def test_all_equal_saturates(self):
        s = SignSequence.from_text("+-++-")
        assert boole_bell_lhs(s, s, s) == 1.0

    def test_g_equals_h_prob_form_ties_at_zero(self):
        f, g = random_sequence(10), random_sequence(10)
        left, right = boole_bell_lhs_prob(f, g, g)
        assert left <= right
        assert right == 1 - coincidence_probability(g, g) == 0 or left <= right

    def test_prob_form_tie_when_h_is_negated_g(self):
        g = random_sequence(12)
        left, right = boole_bell_lhs_prob(g, g, -g)
        assert left == right == 1

    @pytest.mark.parametrize("trial", range(50))
    def test_matches_pointwise_oracle(self, trial):
        n = int(RNG.integers(1, 40))
        f, g, h = (random_sequence(n) for _ in range(3))
        exact = boole_bell_lhs_exact(f, g, h)
        assert exact == oracle_lhs(f, g, h)
        assert exact <= 1

    @pytest.mark.parametrize("trial", range(200))
    def test_prob_form_equivalence(self, trial):
        n = int(RNG.integers(1, 60))
        f, g, h = (random_sequence(n) for _ in range(3))
        left, right = boole_bell_lhs_prob(f, g, h)
        exact = boole_bell_lhs_exact(f, g, h)
        assert left <= right
        assert right - left == (1 - exact) / 2  # exact rational identity

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_small_lengths(self, n):
        # Raw enumeration over all 2**(3n) triples: the independent check
        # that the composition-class reduction in brute_force_max_lhs and
        # the packed arithmetic agree everywhere.
        seqs = all_sequences(n)
        best = Fraction(-3)
        for f in seqs:
            for g in seqs:
                for h in seqs:
                    value = boole_bell_lhs_exact(f, g, h)
                    assert value == oracle_lhs(f, g, h)
                    if value > best:
                        best = value
        assert best == 1
        assert brute_force_max_lhs(n) == 1.0

    def test_permuting_g_h_changes_only_sign_structure(self):
        f, g, h = (random_sequence(25) for _ in range(3))
        # |<f,g>-<f,h>| is symmetric under swapping g and h; the third term
        # is too, so the whole expression is swap-invariant.
        assert boole_bell_lhs_exact(f, g, h) == boole_bell_lhs_exact(f, h, g)


class TestBruteForce:
    # every length to the cap would add seconds; the longest ones run the same scan
    @pytest.mark.parametrize("n", [*range(1, 13), 60, BRUTE_FORCE_MAX_LENGTH])
    def test_maximum_is_exactly_one(self, n):
        assert brute_force_max_lhs(n) == 1.0

    def test_length_cap(self):
        with pytest.raises(LengthTooLarge):
            brute_force_max_lhs(BRUTE_FORCE_MAX_LENGTH + 1)
        with pytest.raises(EmptySequence):
            brute_force_max_lhs(0)

    def test_random_triples_never_violate(self):
        for _ in range(500):
            n = int(RNG.integers(1, 1001))
            f, g, h = (random_sequence(n) for _ in range(3))
            assert boole_bell_lhs_exact(f, g, h) <= 1
