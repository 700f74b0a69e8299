"""The batch seeding kernel against numpy's SeedSequence and PCG64, bit for bit."""

import numpy as np
import pytest

from treegate import streams
from treegate.permtest import _key_int

KEYS = [
    (0,),
    (7, 2, 19, 1999),                    # a weak row
    (16, 3),                             # a strong replicate
    (3, 12, 0xDA7A),
    (0, 0, 0, 0, 0),                     # zero words, past the pool
    (2**32 - 1,) * 3,
    (2**32,),                            # two words
    (2**32 - 1, 2**32),
    (2**64,),                            # three words
    (2**64 + 5, 1, 2**63),
    (1, 2**96 + 7),
    tuple(range(17)),                    # 17 words
    tuple(range(16, 0, -1)),
    (1, _key_int(""), _key_int("B01")),  # a block stream
    (0, _key_int("4095/"), _key_int("college-of-engineering/cohort-2024/block-17")),
    (5, _key_int("é"), _key_int("Schule Zürich · 日本 ✓")),
    # one integer of each width from 1 to 17 words
    *[(2 ** (32 * w - 1) + w,) for w in range(1, 18)],
]


def numpy_bitgen(key):
    return np.random.PCG64(np.random.SeedSequence(list(key)))


def test_keys_span_one_to_seventeen_words():
    widths = {sum(len(streams._words(v)) for v in key) for key in KEYS}
    assert set(range(1, 18)) <= widths
    assert streams._words(0) == [0]
    assert streams._words(2**32) == [0, 1]


def test_states_equal_numpy():
    got = streams.pcg64_states(KEYS)
    want = [numpy_bitgen(key).state["state"] for key in KEYS]
    assert got == [(w["state"], w["inc"]) for w in want]


def test_states_keep_key_order_across_word_counts():
    # one-word keys interleaved with wider ones: grouped for hashing, returned in order
    keys = [(s, r) for s in (1, 2**40, 3) for r in range(30)]
    want = [numpy_bitgen(key).state["state"] for key in keys]
    assert streams.pcg64_states(keys) == [(w["state"], w["inc"]) for w in want]


def test_an_empty_batch_and_an_empty_key():
    assert streams.pcg64_states([]) == []
    want = np.random.PCG64(np.random.SeedSequence([])).state["state"]
    assert streams.pcg64_states([()]) == [(want["state"], want["inc"])]


def test_random_draws_equal_numpy():
    for key, rng in zip(KEYS, streams.generators(KEYS)):
        want = np.random.Generator(numpy_bitgen(key))
        assert np.array_equal(rng.random(5), want.random(5)), key
        assert np.array_equal(rng.bit_generator.random_raw(3), want.bit_generator.random_raw(3))


@pytest.mark.parametrize("high", [7, 2**31 + 3, 2**32 + 9, 2**62])
def test_integer_draws_equal_numpy(high):
    # bounds below 2^32 use the 32-bit path, whose buffered half must start empty
    rngs = streams.generators(KEYS)
    for key, rng in zip(KEYS, rngs):
        want = np.random.Generator(numpy_bitgen(key))
        assert np.array_equal(
            rng.integers(0, high, 5, dtype=np.int64), want.integers(0, high, 5, dtype=np.int64)
        ), key
        rng.integers(0, 7, 1, dtype=np.int64)  # leaves half a word in the buffer


def test_load_empties_the_32_bit_buffer():
    bitgen = np.random.PCG64(0)
    np.random.Generator(bitgen).integers(0, 7, 1, dtype=np.int32)
    assert bitgen.state["has_uint32"] == 1
    (state,) = streams.pcg64_states([KEYS[1]])
    got = np.random.Generator(streams.load(bitgen, state)).integers(0, 7, 9, dtype=np.int32)
    want = np.random.Generator(numpy_bitgen(KEYS[1])).integers(0, 7, 9, dtype=np.int32)
    assert np.array_equal(got, want)


def test_many_keys_equal_numpy():
    keys = [(9, 2, 19, r) for r in range(300)]
    for key, rng in zip(keys, streams.generators(keys)):
        assert rng.random() == np.random.Generator(numpy_bitgen(key)).random(), key


@pytest.mark.parametrize("key", [(1, -1), (-(2**70),), (3, 2**40, -5)])
def test_a_negative_word_raises_as_numpy_does(key):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence(list(key))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        streams.pcg64_states([(0, 1), key])


def test_a_float_raises_as_numpy_does():
    with pytest.raises(TypeError):
        np.random.SeedSequence([1, 1.5])
    with pytest.raises(TypeError):
        streams.pcg64_states([(1, 1.5)])


def test_arrays_keep_key_order_across_word_counts():
    keys = [(2**40, 1), (3,), (0, 0, 0, 0, 0), (2**64 + 1,), (7, 2)]
    state_hi, state_lo, inc_hi, inc_lo = streams.pcg64_arrays(keys)
    assert state_hi.dtype == np.uint64 and state_hi.shape == (len(keys),)
    want = [numpy_bitgen(key).state["state"] for key in keys]
    assert ((state_hi.astype(object) << 64) | state_lo.astype(object)).tolist() == [w["state"] for w in want]
    assert ((inc_hi.astype(object) << 64) | inc_lo.astype(object)).tolist() == [w["inc"] for w in want]


def test_stepping_equals_numpy_raw_and_random():
    start = streams.pcg64_arrays(KEYS)
    raw = np.array([numpy_bitgen(key).random_raw(200) for key in KEYS])
    uniform = np.array([np.random.Generator(numpy_bitgen(key)).random(200) for key in KEYS])
    hi, lo, inc_hi, inc_lo = start
    rotations = set()
    for j in range(200):
        hi, lo = streams.step(hi, lo, inc_hi, inc_lo)
        assert np.array_equal(streams._xsl_rr(hi, lo), raw[:, j]), j
        assert np.array_equal(streams.uniforms(hi, lo), uniform[:, j]), j
        rotations.update((hi >> np.uint64(58)).tolist())
    # a rotation of 0 is the edge where the left shift would be by 64
    assert 0 in rotations and 63 in rotations


def test_jumps_equal_numpy_advance():
    # every step count from each of four streams, pairs grouped by stream
    steps = np.array([1, 2, 3, 63, 64, 65, 200, 1000, 4097])
    row = np.repeat(np.arange(4), steps.size)
    hi, lo = streams.advance(*streams.pcg64_arrays(KEYS[:4]), np.tile(steps, 4), row=row)
    want = []
    for key in KEYS[:4]:
        for n in steps.tolist():
            want.append(numpy_bitgen(key).advance(n - 1).random_raw())
    assert streams._xsl_rr(hi, lo).tolist() == want


def test_jumps_from_stream_states_equal_numpy_advance():
    # pairs in no order of streams; streams 2 and 5 have no pair
    streams_of = streams.pcg64_arrays(KEYS[:6])
    row = np.array([3, 0, 3, 1, 4, 0, 4, 3, 1])
    steps = np.array([1, 4097, 64, 2, 200, 63, 1, 65, 1000])
    hi, lo = streams.advance(*streams_of, steps, row=row)
    want = [
        numpy_bitgen(KEYS[r]).advance(n - 1).random_raw()
        for r, n in zip(row.tolist(), steps.tolist())
    ]
    assert streams._xsl_rr(hi, lo).tolist() == want
