"""The law-test helper's binomial tails against exact rational sums."""

import math
from itertools import accumulate
from fractions import Fraction

import pytest

from stats import FALSE_FAIL, assert_law, binomial_tails


def exact_tails(n: int, p: float) -> list[tuple[Fraction, Fraction]]:
    """(P(X <= k), P(X >= k)) for k = 0 .. n, summed in integers."""
    a, d = Fraction(p).as_integer_ratio()  # p = a / d exactly
    weights = [math.comb(n, i) * a**i * (d - a) ** (n - i) for i in range(n + 1)]
    lower = list(accumulate(weights))
    return [(Fraction(lower[k], d**n), Fraction(lower[n] - lower[k] + weights[k], d**n))
            for k in range(n + 1)]


@pytest.mark.parametrize("n", [1, 7, 60, 200])
@pytest.mark.parametrize("p", [1e-3, 0.25, 0.5, 0.9, 1 - 2**-20])
def test_tails_equal_the_exact_sums(n, p):
    for k, exact in enumerate(exact_tails(n, p)):
        for got, want in zip(binomial_tails(k, n, p), exact):
            assert got == pytest.approx(float(want), rel=1e-9, abs=1e-300)


def test_certain_counts():
    assert binomial_tails(0, 5, 0.0) == (1.0, 1.0)
    assert binomial_tails(1, 5, 0.0) == (1.0, 0.0)
    assert binomial_tails(5, 5, 1.0) == (1.0, 1.0)
    assert binomial_tails(4, 5, 1.0) == (0.0, 1.0)


def test_far_tails_at_large_n():
    # 6 sigma out at n = 1e7: about 1e-9, where a law test draws its line
    lower, upper = binomial_tails(5_000_000 - 9_487, 10_000_000, 0.5)
    assert 1e-10 < lower < 1e-8 and upper > 0.999


def test_assert_law_splits_the_budget():
    # 10 heads in 10 tosses at p = 1/2 has tail 2**-10, well above 1e-9
    assert_law(lambda seed: [(10, 10)], 0.5, seeds=[1])
    with pytest.raises(AssertionError, match="tails"):
        assert_law(lambda seed: [(40, 40)], 0.5, seeds=[1])  # tail 2**-40
    assert 2**-40 < FALSE_FAIL
