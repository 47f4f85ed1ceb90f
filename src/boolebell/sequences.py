"""Exact arithmetic on finite sequences of +1/-1 outcomes.

A :class:`SignSequence` stores outcomes bit-packed in a single arbitrary
precision integer (set bit = +1), so correlations and coincidence counts
reduce to XOR plus popcount and stay exact at any length.  All derived
quantities are integer or rational until the caller asks for a float.

The central bound implemented here: for equal-length sequences f, g, h,

    |<f,g> - <f,h>| + <g,h> <= 1

where <f,g> denotes the empirical correlation (1/n) sum_i f_i g_i.  The
bound holds for every triple because it holds term by term; see
:func:`boole_bell_lhs` and :func:`brute_force_max_lhs`, which shares one
class-count scan, capped at :data:`BRUTE_FORCE_MAX_LENGTH`, with the
feasibility search of :mod:`.experiments`.

numpy is imported only by :meth:`SignSequence.from_array` and
:meth:`SignSequence.to_array`, so the exact commands start without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SignSequence",
    "CorrelationEstimate",
    "LengthMismatch",
    "EmptySequence",
    "LengthTooLarge",
    "BRUTE_FORCE_MAX_LENGTH",
    "concatenate",
    "correlation",
    "coincidence_probability",
    "boole_bell_lhs",
    "boole_bell_lhs_exact",
    "boole_bell_lhs_from_sums",
    "boole_bell_lhs_prob",
    "brute_force_max_lhs",
]


class LengthMismatch(ValueError):
    """Sequences in one expression must share a length."""


class EmptySequence(ValueError):
    """Sequences must contain at least one outcome."""


class LengthTooLarge(ValueError):
    """Exhaustive enumeration is capped to keep runtime bounded."""


# The class-count scan visits (n+1)(n+2)(n+3)/6 compositions, about 3e5 at
# the cap: a fraction of a second in CPython.
BRUTE_FORCE_MAX_LENGTH = 120

_SIGN_CHARS = str.maketrans("10", "+-")
_SIGN_DELETE = str.maketrans("", "", "+-−")  # '+', the ASCII hyphen, the unicode minus
_SIGN_DIGITS = str.maketrans("+-−", "100")


@dataclass(frozen=True)
class SignSequence:
    """Fixed-length sequence of +1/-1 values, bit-packed.

    ``bits`` holds bit i set when entry i is +1.  Bits at positions >=
    ``length`` are cleared on construction so equal sequences always
    compare and hash equal.
    """

    length: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.length < 1:
            raise EmptySequence("a sign sequence needs at least one entry")
        object.__setattr__(self, "bits", self.bits & ((1 << self.length) - 1))

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "SignSequence":
        """Parse a '+'/'-' string; the unicode minus is accepted too."""
        text = text.strip()
        # first, since int(., 2) would also take '0', '1' and '_'
        bad = text.translate(_SIGN_DELETE)
        if bad:
            raise ValueError(f"unexpected character {bad[0]!r} in sign text")
        # entry i is bit i, so the binary digits read last entry first
        return cls(len(text), int(text.translate(_SIGN_DIGITS)[::-1] or "0", 2))

    @classmethod
    def from_array(cls, values: np.ndarray) -> "SignSequence":
        """Build from a numpy array: bool (True = +1) or +1/-1 integers."""
        import numpy as np
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise ValueError("expected a one-dimensional array")
        if arr.dtype != bool:
            if not np.all(np.abs(arr) == 1):
                raise ValueError("array entries must be +1 or -1")
            arr = arr > 0
        packed = np.packbits(arr, bitorder="little").tobytes()
        return cls(arr.size, int.from_bytes(packed, "little"))

    # -- views ----------------------------------------------------------

    def to_text(self) -> str:
        """Render as a '+'/'-' string (ASCII only)."""
        # entry i is bit i, so the binary digits read last entry first
        return format(self.bits, f"0{self.length}b")[::-1].translate(_SIGN_CHARS)

    def to_array(self) -> np.ndarray:
        """Entries as an int8 array of +1/-1."""
        import numpy as np
        nbytes = -(-self.length // 8)
        raw = np.frombuffer(self.bits.to_bytes(nbytes, "little"), dtype=np.uint8)
        ones = np.unpackbits(raw, count=self.length, bitorder="little")
        return (ones.astype(np.int8) * 2) - 1

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self.length)
            if step != 1:
                raise ValueError("only contiguous slices are supported")
            if stop <= start:
                raise EmptySequence("slice selects no entries")
            return SignSequence(stop - start, self.bits >> start)
        idx = key.__index__()
        if idx < 0:
            idx += self.length
        if not 0 <= idx < self.length:
            raise IndexError("sign index out of range")
        return 1 if (self.bits >> idx) & 1 else -1

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        for _ in range(self.length):
            yield 1 if bits & 1 else -1
            bits >>= 1

    def __neg__(self) -> "SignSequence":
        return SignSequence(self.length, ~self.bits)

    def __repr__(self) -> str:
        head = self if self.length <= 32 else SignSequence(29, self.bits)  # render what is shown
        text = head.to_text() + ("" if head is self else "...")
        return f"SignSequence(length={self.length}, text='{text}')"


def concatenate(parts: Iterable[SignSequence]) -> SignSequence:
    """Join sequences end to end."""
    bits = 0
    n = 0
    for part in parts:
        bits |= part.bits << n
        n += part.length
    if n == 0:
        raise EmptySequence("nothing to concatenate")
    return SignSequence(n, bits)


@dataclass(frozen=True)
class CorrelationEstimate:
    """Empirical correlation with its exact integer numerator.

    ``value`` equals ``sum_products / n`` rounded to float; ``stderr`` is
    the iid estimate sqrt((1 - value^2)/n), zero for deterministic +-1
    correlations.
    """

    value: float
    n: int
    stderr: float
    sum_products: int = field(repr=False, default=0)

    @classmethod
    def from_sum(cls, sum_products: int, n: int) -> "CorrelationEstimate":
        """The estimate of n pairs whose products sum to ``sum_products``.

        The sum may be accumulated chunk by chunk: integer sums add up
        exactly, so the estimate does not depend on how n was split.
        """
        value = sum_products / n
        stderr = (max(0.0, 1.0 - value * value) / n) ** 0.5
        return cls(value=value, n=n, stderr=stderr, sum_products=sum_products)

    def as_fraction(self) -> Fraction:
        return Fraction(self.sum_products, self.n)


def _require_same_length(f: SignSequence, g: SignSequence) -> None:
    if f.length != g.length:
        raise LengthMismatch(f"lengths differ: {f.length} vs {g.length}")


def _products_sum(f: SignSequence, g: SignSequence) -> int:
    # sum_i f_i g_i = n - 2 * (number of disagreeing positions)
    return f.length - 2 * (f.bits ^ g.bits).bit_count()


def correlation(f: SignSequence, g: SignSequence) -> CorrelationEstimate:
    """Empirical correlation (1/n) sum_i f_i g_i, exact in the numerator."""
    _require_same_length(f, g)
    return CorrelationEstimate.from_sum(_products_sum(f, g), f.length)


def coincidence_probability(f: SignSequence, g: SignSequence) -> Fraction:
    """Exact fraction of positions where the sequences agree.

    Equals (1 + <f,g>)/2, the identity relating matching frequency to
    correlation; see the tests for the rational-arithmetic check.
    """
    _require_same_length(f, g)
    agreements = f.length - (f.bits ^ g.bits).bit_count()
    return Fraction(agreements, f.length)


def boole_bell_lhs_from_sums(s_fg: int, s_fh: int, s_gh: int, n: int) -> Fraction:
    """|<f,g> - <f,h>| + <g,h> from the three products sums of n entries."""
    numerator = abs(s_fg - s_fh) + s_gh
    # holds term by term for any +-1 triple, so for sums added chunk by chunk too
    assert numerator <= n
    return Fraction(numerator, n)


def boole_bell_lhs_exact(f: SignSequence, g: SignSequence, h: SignSequence) -> Fraction:
    """|<f,g> - <f,h>| + <g,h> as an exact rational."""
    _require_same_length(f, g)
    _require_same_length(f, h)
    return boole_bell_lhs_from_sums(
        _products_sum(f, g), _products_sum(f, h), _products_sum(g, h), f.length
    )


def boole_bell_lhs(f: SignSequence, g: SignSequence, h: SignSequence) -> float:
    """|<f,g> - <f,h>| + <g,h>; never exceeds 1 for equal-length triples."""
    return float(boole_bell_lhs_exact(f, g, h))


def boole_bell_lhs_prob(
    f: SignSequence, g: SignSequence, h: SignSequence
) -> tuple[Fraction, Fraction]:
    """The matching-frequency form: (|P(f=g) - P(f=h)|, 1 - P(g=h)).

    left <= right always, and the gap equals (1 - boole_bell_lhs)/2
    exactly; both forms carry the same information.
    """
    left = abs(coincidence_probability(f, g) - coincidence_probability(f, h))
    right = 1 - coincidence_probability(g, h)
    return left, right


def _class_sums(n: int) -> Iterator[tuple[int, int, int, int, int, int]]:
    """(c1, c2, c3, s_fg, s_fh, s_gh) for every split of n indices into the
    four classes (+,+,+), (+,-,-), (-,+,-), (-,-,+) of the product triple
    (f_i g_i, f_i h_i, g_i h_i), the only triples it can take; c4 is the
    rest.  The 2**(3n) sign triples of length n collapse to this cubic scan.
    """
    if n < 1:
        raise EmptySequence("sequence length must be positive")
    if n > BRUTE_FORCE_MAX_LENGTH:
        raise LengthTooLarge(f"length {n} exceeds cap {BRUTE_FORCE_MAX_LENGTH}")
    return (
        (c1, c2, c3, 2 * (c1 + c2) - n, 2 * (c1 + c3) - n, n - 2 * (c2 + c3))
        for c1 in range(n + 1)
        for c2 in range(n + 1 - c1)
        for c3 in range(n + 1 - c1 - c2)
    )


def brute_force_max_lhs(n: int) -> float:
    """Exhaustive maximum of the three-sequence bound at length n, over the
    class counts of :func:`_class_sums`.  The result is exactly 1 for every
    n; the function recomputes it rather than asserting it.
    """
    return max(abs(s_fg - s_fh) + s_gh for _, _, _, s_fg, s_fh, s_gh in _class_sums(n)) / n
