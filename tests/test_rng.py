import copy
import pickle

import numpy as np
import pytest
from numpy.random import Generator, Philox

from boolebell.rng import RngStream
from boolebell.sampler import random_signs


def test_same_state_replays_identically():
    a = RngStream(1234, 7)
    b = RngStream(1234, 7)
    assert np.array_equal(a.uniforms(100), b.uniforms(100))
    assert random_signs(33, a) == random_signs(33, b)
    assert a.counter == b.counter


def test_counter_resumes_mid_stream():
    s = RngStream(42)
    first = s.uniforms(10)
    resumed = RngStream(42, 0, counter=s.counter)
    assert np.array_equal(resumed.uniforms(5), s.uniforms(5))
    assert resumed.counter == s.counter


def test_counter_advances_in_four_draw_blocks():
    s = RngStream(0)
    s.uniforms(1)
    assert s.counter == 1
    s.uniforms(4)
    assert s.counter == 2
    s.uniforms(5)
    assert s.counter == 4


def test_distinct_streams_differ():
    a = RngStream(99, 0).uniforms(50)
    b = RngStream(99, 1).uniforms(50)
    c = RngStream(100, 0).uniforms(50)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substreams_are_deterministic_and_distinct():
    base = RngStream(7, 3)
    kids = [base.substream(i) for i in range(20)]
    again = [RngStream(7, 3).substream(i) for i in range(20)]
    ids = {k.stream_id for k in kids}
    assert len(ids) == 20
    assert [k.stream_id for k in kids] == [k.stream_id for k in again]
    assert all(k.seed == 7 and k.counter == 0 for k in kids)


def test_substream_draws_do_not_disturb_parent():
    base = RngStream(11)
    reference = RngStream(11).uniforms(20)
    base.substream(0).uniforms(1000)
    assert np.array_equal(base.uniforms(20), reference)


def test_uniform_range_and_spread():
    u = RngStream(5).uniforms(100_000)
    assert np.all((u >= 0) & (u < 1))
    assert abs(u.mean() - 0.5) < 0.01


def test_signs_are_balanced():
    s = random_signs(100_000, RngStream(6)).to_array()
    assert set(np.unique(s)) == {-1, 1}
    assert abs(s.mean()) < 0.02


def test_invalid_arguments():
    with pytest.raises(ValueError):
        RngStream(0, 0, counter=-1)
    with pytest.raises(ValueError):
        RngStream(0).uniforms(-1)
    with pytest.raises(ValueError):
        RngStream(0).substream(-1)


@pytest.mark.parametrize("key", [-1, 2**64 + 5, 2**64])
def test_keys_outside_64_bits_are_rejected(key):
    # masking would alias these to 2**64 - 1, 5 and 0
    with pytest.raises(ValueError):
        RngStream(key)
    with pytest.raises(ValueError):
        RngStream(0, key)


@pytest.mark.parametrize("key", [0, 2**64 - 1])
def test_keys_at_range_ends_draw(key):
    assert RngStream(key).uniforms(3).shape == (3,)
    assert RngStream(0, key).uniforms(3).shape == (3,)
    assert not np.array_equal(RngStream(key, 1).uniforms(3), RngStream(key, 2).uniforms(3))


@pytest.mark.parametrize("key", [5.0, True])
def test_non_integer_keys_are_rejected(key):
    with pytest.raises(TypeError):
        RngStream(key)
    with pytest.raises(TypeError):
        RngStream(0, key)


@pytest.mark.parametrize("n", [1, 7, 13, 64])
def test_after_stands_where_a_draw_leaves_the_stream(n):
    s = RngStream(8, 2, counter=3)
    moved = s.after(n)
    assert s.counter == 3
    s.uniforms(n)
    assert moved.counter == s.counter
    assert np.array_equal(moved.uniforms(9), s.uniforms(9))


def test_repr_names_seed_stream_and_counter():
    s = RngStream(8, 2)
    s.words(5)  # two counter blocks of four words
    assert repr(s) == "RngStream(seed=8, stream_id=2, counter=2)"


def test_run_read_in_chunks_equals_run_drawn_at_once():
    # chunks of whole counter blocks, read from computed counters, or read
    # on from one stream as experiments read a block, across the counter's
    # wrap too; the last chunk is partial
    n, chunk = 1001, 64
    for counter in (0, 2**256 - 1):
        whole = RngStream(11, 0, counter).words(n)
        s = RngStream(11, 0, counter)
        computed = [s.after(c).words(min(chunk, n - c)) for c in range(0, n, chunk)]
        read_on = [s.words(min(chunk, n - c)) for c in range(0, n, chunk)]
        assert np.array_equal(np.concatenate(computed), whole)
        assert np.array_equal(np.concatenate(read_on), whole)


@pytest.mark.parametrize("n", [1, 4, 7, 1000])
def test_uniforms_are_the_words_top_53_bits(n):
    # numpy's Philox double is (w >> 11) * 2**-53, which the samplers rely on
    s, t = RngStream(12, 3, counter=5), RngStream(12, 3, counter=5)
    words = s.words(n)
    assert words.dtype == np.uint64
    assert np.array_equal((words >> 11) * 2**-53, t.uniforms(n))
    assert s.counter == t.counter == 5 + -(-n // 4)
    numpy_doubles = Generator(Philox(key=np.array([12, 3], dtype=np.uint64), counter=5))
    assert np.array_equal(RngStream(12, 3, counter=5).uniforms(n), numpy_doubles.random(n))


@pytest.mark.parametrize("counter", [2**256, 2**256 + 3, -1])
def test_counters_outside_256_bits_are_rejected(counter):
    # Philox's counter wraps at 2**256: 2**256 + 3 would alias counter 3
    with pytest.raises(ValueError):
        RngStream(1, 0, counter)


@pytest.mark.parametrize("counter", [True, False, 3.0, "3", None])
def test_non_integer_counters_are_rejected(counter):
    with pytest.raises(TypeError):
        RngStream(1, 0, counter)


def test_counter_at_its_top_end_draws():
    top = RngStream(1, 0, 2**256 - 1)
    assert top.words(4).shape == (4,)
    assert not np.array_equal(RngStream(1, 0, 2**256 - 1).words(4), RngStream(1, 0, 0).words(4))


def test_counter_wraps_at_the_counter_limit_as_philox_does():
    # the counter once ran on to 2**256 + 1, and after() then refused it
    assert RngStream(3, 5, 2**256 - 1).after(8).counter == 1
    s = RngStream(3, 5, 2**256 - 1)
    s.words(8)
    assert s.counter == 1
    assert s.after(0).counter == 1
    assert np.array_equal(s.words(4), RngStream(3, 5, 1).words(4))


@pytest.mark.parametrize("index", [-1, 2**64, 2**64 + 5])
def test_substream_indices_outside_64_bits_are_rejected(index):
    # the id mix masks to 64 bits, so 2**64 + 5 drew the words of index 5
    with pytest.raises(ValueError):
        RngStream(1).substream(index)


@pytest.mark.parametrize("index", [True, False, 5.0])
def test_non_integer_substream_indices_are_rejected(index):
    # True drew the words of index 1
    with pytest.raises(TypeError):
        RngStream(1).substream(index)


def test_substream_index_at_its_top_end_draws():
    top = RngStream(1).substream(2**64 - 1)
    assert not np.array_equal(top.words(4), RngStream(1).substream(0).words(4))


@pytest.mark.parametrize("n", [-1, -4, -8])
def test_after_rejects_a_negative_draw_count(n):
    # after(-8) stood at counter 3 of a stream at counter 5
    with pytest.raises(ValueError):
        RngStream(1, 0, 5).after(n)


def _fresh(s: RngStream, n: int) -> np.ndarray:
    """n words read by a new stream at s's counter; s does not move."""
    return RngStream(s.seed, s.stream_id, s.counter).words(n)


@pytest.mark.parametrize("counter", [0, 7, 2**256 - 3])
def test_reading_on_equals_fresh_reads_at_the_computed_counters(counter):
    # whole-block reads keep their Philox; across the wrap too
    s = RngStream(13, 4, counter)
    for n in (8, 64, 4, 1000, 12):
        want, end = _fresh(s, n), s.after(n).counter
        assert np.array_equal(s.words(n), want)
        assert s.counter == end
    assert s.counter == (counter + 272) % 2**256


@pytest.mark.parametrize("first", [1, 5, 6, 7])
def test_a_partial_block_read_is_not_read_on(first):
    # the Philox stands mid-block, with words of the block still unread
    s = RngStream(13, 4)
    s.words(8)
    s.words(first)
    assert s.counter == 2 + -(-first // 4)
    for n in (8, 3, 16):
        want = _fresh(s, n)
        assert np.array_equal(s.words(n), want)


@pytest.mark.parametrize("counter", [0, 2, 5, 2**256 - 1])
def test_a_counter_set_by_hand_is_read_from(counter):
    s = RngStream(13, 4)
    s.words(8)  # its Philox stands at counter 2
    s.counter = counter
    assert np.array_equal(s.words(8), RngStream(13, 4, counter).words(8))
    assert np.array_equal(s.uniforms(4), RngStream(13, 4, (counter + 2) % 2**256).uniforms(4))


@pytest.mark.parametrize("n", [0, 1, 5, 8])
def test_words_are_little_endian_uint64(n):
    # samplers read the words' bytes, so the stream fixes their order on any CPU
    fresh = RngStream(13, 4)
    read_on = RngStream(13, 4)
    read_on.words(8)  # keeps its Philox at counter 2
    by_hand = RngStream(13, 4)
    by_hand.words(8)
    by_hand.counter = 5
    key = np.array([13, 4], dtype=np.uint64)
    for s, counter in ((fresh, 0), (read_on, 2), (by_hand, 5)):
        words = s.words(n)
        assert words.dtype.str == "<u8"
        assert np.array_equal(words, Philox(key=key, counter=counter).random_raw(n))


@pytest.mark.parametrize("duplicate", [
    lambda s: s.after(0), copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s)),
], ids=["after", "copy", "deepcopy", "pickle"])
def test_copies_share_no_philox(duplicate):
    s = RngStream(13, 4)
    s.words(8)
    t = duplicate(s)
    assert repr(t) == repr(s)
    assert np.array_equal(s.words(8), RngStream(13, 4, 2).words(8))
    assert np.array_equal(t.words(8), RngStream(13, 4, 2).words(8))
    assert np.array_equal(s.after(4).words(4), RngStream(13, 4, 5).words(4))


def test_a_block_read_in_whole_block_chunks_builds_one_philox(monkeypatch):
    from boolebell import rng

    built, philox = [], rng.Philox

    def counting_philox(*args, **kwargs):
        built.append(kwargs["counter"])
        return philox(*args, **kwargs)

    monkeypatch.setattr(rng, "Philox", counting_philox)
    s = rng.RngStream(13, 4)
    chunks = [s.words(512) for _ in range(5)] + [s.words(301), s.words(4)]
    assert built == [0, 5 * 128 + 76]  # the partial chunk leaves its Philox behind
    assert np.array_equal(np.concatenate(chunks[:6]), RngStream(13, 4).words(5 * 512 + 301))


def test_a_read_that_fails_moves_nothing():
    # numpy refuses the size before it draws a word
    s = RngStream(13, 4)
    s.words(8)
    with pytest.raises((ValueError, MemoryError)):
        s.words(2**62)
    assert s.counter == 2
    assert np.array_equal(s.words(8), RngStream(13, 4, 2).words(8))
