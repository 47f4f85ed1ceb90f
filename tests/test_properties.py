"""Property tests of the exact layer: sequences, correlation sums and the
bound; and of the one float step every direction passes through, the
normalization of ``UnitVector3``."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from boolebell.geometry import UnitVector3  # noqa: E402
from boolebell.sequences import (  # noqa: E402
    SignSequence,
    boole_bell_lhs_exact,
    boole_bell_lhs_from_sums,
    boole_bell_lhs_prob,
    concatenate,
    correlation,
    _products_sum,
)

MAX_LENGTH = 300


@st.composite
def sequences(draw, length=None):
    n = draw(st.integers(1, MAX_LENGTH)) if length is None else length
    return SignSequence(n, draw(st.integers(0, (1 << n) - 1)))


@st.composite
def triples(draw):
    n = draw(st.integers(1, MAX_LENGTH))
    return tuple(draw(sequences(n)) for _ in range(3))


@st.composite
def split_points(draw, n):
    """Sorted cut positions strictly inside (0, n)."""
    if n < 2:
        return []
    return sorted(draw(st.sets(st.integers(1, n - 1), max_size=8)))


@given(sequences())
def test_text_round_trip(seq):
    assert SignSequence.from_text(seq.to_text()) == seq


@given(sequences())
def test_array_round_trip(seq):
    arr = seq.to_array()
    assert SignSequence.from_array(arr) == seq
    assert SignSequence.from_array(arr > 0) == seq


@given(st.data())
def test_slices_concatenate_back(data):
    seq = data.draw(sequences())
    cuts = [0, *data.draw(split_points(seq.length)), seq.length]
    parts = [seq[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    assert concatenate(parts) == seq
    for part, lo in zip(parts, cuts):
        assert list(part) == list(seq)[lo : lo + part.length]


@given(triples())
def test_bound_never_exceeds_one(triple):
    assert boole_bell_lhs_exact(*triple) <= 1


@given(triples())
def test_probability_form_identity(triple):
    left, right = boole_bell_lhs_prob(*triple)
    assert left <= right
    assert right - left == (1 - boole_bell_lhs_exact(*triple)) / 2


@settings(max_examples=50)
@given(st.data())
def test_chunked_products_sums_add_up(data):
    f, g, h = data.draw(triples())
    cuts = [0, *data.draw(split_points(f.length)), f.length]

    def chunked(p, q):
        return sum(correlation(p[lo:hi], q[lo:hi]).sum_products for lo, hi in zip(cuts, cuts[1:]))

    assert chunked(f, g) == _products_sum(f, g)
    assert chunked(f, g) == int(np.dot(f.to_array().astype(np.int64), g.to_array()))
    sums = (chunked(f, g), chunked(f, h), chunked(g, h))
    assert boole_bell_lhs_from_sums(*sums, f.length) == boole_bell_lhs_exact(f, g, h)


def _plain_unit(x, y, z):
    """The normalization without rescaling; None where its squared norm is
    not a normal double (zero, subnormal and so short of bits, or inf)."""
    squared = x * x + y * y + z * z
    if not sys.float_info.min <= squared < math.inf:
        return None
    norm = math.sqrt(squared)
    return [x / norm, y / norm, z / norm]


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(finite, finite, finite)
@example(1e200, 1e200, 0.0)
@example(1e-200, 0.0, 0.0)
@example(5e-324, -0.0, 5e-324)
@example(1.7e308, -1.7e308, 1.7e308)
@example(1e-170, 1e170, 0.0)
@example(0.0, 0.0, 1e-160)  # a subnormal squared norm
@example(0.0, 0.0, 1.5934629744752245e-158)
def test_unit_vector_of_every_finite_non_zero_triple(x, y, z):
    if x == y == z == 0.0:
        with pytest.raises(ValueError, match="finite non-zero vector"):
            UnitVector3(x, y, z)
        return
    unit = UnitVector3(x, y, z).as_list()
    plain = _plain_unit(x, y, z)
    if plain is not None:  # what the plain expression accepts keeps its bits
        assert list(map(float.hex, unit)) == list(map(float.hex, plain))
    # against the exact direction: each squared component and its sign
    squares = [Fraction(c) ** 2 for c in (x, y, z)]
    for c, u, square in zip((x, y, z), unit, squares):
        assert abs(u * u - float(square / sum(squares))) <= 1e-15
        assert u == 0.0 or math.copysign(1.0, u) == math.copysign(1.0, c)
