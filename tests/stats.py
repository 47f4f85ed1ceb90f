"""Law tests with a stated false-fail probability.

A law test names the probability of each event it counts and a draw that,
given a seed, counts the successes and trials of every event.  The draw
runs once per seed of a fixed list, in this process, and the totals are
summed.  Under the law each total is Binomial(trials, p), so the test
fails only when a total lies in a tail whose exact probability is below
the test's share of :data:`FALSE_FAIL`: a union bound splits it evenly
over the events and over each event's two tails.  The seed list is fixed,
so a test passes or fails the same way on every run.
"""

import math
from typing import Callable, Sequence

FALSE_FAIL = 1e-9  # probability that a test of a true law fails, at most
SEEDS = tuple(range(1, 21))


def _log_pmf(k: int, n: int, p: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def _tail(k: int, n: int, p: float, step: int) -> float:
    """P(X = k) + P(X = k + step) + ... for X ~ Binomial(n, p), where k is
    on the side of the mode that ``step`` leads away from, so the terms
    shrink.  Each term is the last times the ratio of neighbouring terms,
    relative to P(X = k), so none underflows before the sum is formed.
    """
    total, term, i = 0.0, 1.0, k
    while 0 <= i <= n and term > total * 1e-17:
        total += term
        if step > 0:
            term *= (n - i) * p / ((i + 1) * (1 - p))
        else:
            term *= i * (1 - p) / ((n - i + 1) * p)
        i += step
    return math.exp(_log_pmf(k, n, p) + math.log(total))


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Binomial(n, p)."""
    if not 0 <= k <= n:
        raise ValueError(f"{k} successes in {n} trials")
    if p in (0.0, 1.0):  # the count is certain: 0 or n
        certain = 0 if p == 0.0 else n
        return float(k >= certain), float(k <= certain)
    # one tail is summed where its terms shrink, the other is its complement
    if k < math.floor((n + 1) * p):  # below the mode
        lower = _tail(k, n, p, -1)
        return lower, 1.0 - lower + math.exp(_log_pmf(k, n, p))
    upper = _tail(k, n, p, +1)
    return 1.0 - upper + math.exp(_log_pmf(k, n, p)), upper


def assert_law(
    draw: Callable[[int], Sequence[tuple[int, int]]],
    *probabilities: float,
    seeds: Sequence[int] = SEEDS,
) -> None:
    """Assert that ``draw(seed)`` counts events of these probabilities.

    ``draw`` returns one (successes, trials) pair per probability, in
    order.  The test fails with probability at most :data:`FALSE_FAIL`
    when every event has its stated probability.
    """
    totals = [[0, 0] for _ in probabilities]
    for seed in seeds:
        counts = draw(seed)
        assert len(counts) == len(probabilities)
        for total, (successes, trials) in zip(totals, counts):
            total[0] += successes
            total[1] += trials
    budget = FALSE_FAIL / (2 * len(probabilities))
    for (k, n), p in zip(totals, probabilities):
        lower, upper = binomial_tails(k, n, p)
        assert min(lower, upper) >= budget, (
            f"{k} of {n} at p = {p!r}: tails {lower:.3g} and {upper:.3g}, "
            f"each must be at least {budget:.3g}"
        )
