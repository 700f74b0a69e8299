"""Many keyed random streams seeded, and stepped, at once.

Every replicate, row or block of a study draws from its own PCG64 stream,
seeded ``np.random.PCG64(np.random.SeedSequence(key))`` from an integer key
such as ``(seed, rep)``.  Building each stream that way costs about 12 µs
(shared 2-core VM), which dominated studies that seed thousands of them
per call.
``pcg64_arrays`` runs SeedSequence's entropy hash, its ``generate_state(4,
np.uint64)`` and PCG64's seeding for a whole batch of keys in numpy
arithmetic, bit for bit as numpy does.  A batch costs about 0.15 ms plus
0.6 µs a key, so a caller that seeds one stream keeps numpy's
SeedSequence.  A caller that draws much from each stream sets one bit
generator to each stream's start in turn (``generators``, ``load``: about
1.5 µs a stream).  One that draws a few uniforms per stream, as the weak
study's rows do, keeps the states in arrays: ``advance`` jumps each state
ahead by its own number of LCG steps and ``uniforms`` gives the double
numpy's ``Generator.random()`` makes from each, about 0.1 µs a uniform
on 2,000 streams.  PCG64 is O'Neill's XSL-RR 128/64 generator.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier, as its (high, low) 64-bit halves
_PCG_MULT = (np.uint64(2549297995355413924), np.uint64(4865540595714422341))


@lru_cache(maxsize=64)  # one entry per key length in use
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 values a SeedSequence hash constant takes, as a column:
    ``init`` times ``mult`` to the 0th .. nth power, modulo 2^32."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    consts = np.array(out, dtype=np.uint32)[:, None]
    consts.flags.writeable = False
    return consts


def _words(value: int) -> list[int]:
    """SeedSequence's 32-bit words of one non-negative integer, least
    significant first; 0 is one word."""
    if value < 0:
        raise ValueError(f"expected non-negative integer: {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _xorshift(x: np.ndarray) -> np.ndarray:
    x ^= x >> np.uint32(_XSHIFT)
    return x


def _pools(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's mixed pool for each column of ``entropy``, a (words,
    keys) uint32 array; returns (4, keys)."""
    n_words = entropy.shape[0]
    # every hashmix call takes the next constant pair: XOR with h[j], times h[j + 1]
    h = _hash_consts(_INIT_A, _MULT_A, _POOL * max(n_words, _POOL))
    padded = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    padded[: min(n_words, _POOL)] = entropy[:_POOL]
    pool = _xorshift((padded ^ h[:_POOL]) * h[1 : _POOL + 1])
    j = _POOL
    # each pool word is hashed into the other three, in SeedSequence's order
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        hashed = _xorshift((pool[src] ^ h[j : j + 3]) * h[j + 1 : j + 4])
        pool[dst] = _xorshift(np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * hashed)
        j += 3
    # then each entropy word past the pool is hashed into all four
    for word in entropy[_POOL:]:
        hashed = _xorshift((word ^ h[j : j + _POOL]) * h[j + 1 : j + _POOL + 1])
        pool = _xorshift(np.uint32(_MIX_L) * pool - np.uint32(_MIX_R) * hashed)
        j += _POOL
    return pool


def _generate_state(pool: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each column of ``pool``: (4, keys)
    uint64, eight 32-bit words cycled from the pool and paired little-endian."""
    h = _hash_consts(_INIT_B, _MULT_B, 8)
    words = _xorshift((pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ h[:8]) * h[1:])
    words = words.astype(np.uint64)
    return words[0::2] | (words[1::2] << np.uint64(32))


def _mul(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray):
    """Each product ``a * b`` modulo 2^128, on (high, low) uint64 halves;
    the low halves' full product is formed from 32-bit quarters."""
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    a0, a1 = a_lo & m32, a_lo >> s32
    b0, b1 = b_lo & m32, b_lo >> s32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> s32) + (p01 & m32) + (p10 & m32)
    hi = a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
    return hi + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray):
    """Each sum ``a + b`` modulo 2^128, on (high, low) uint64 halves."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _sub(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray):
    """Each difference ``a - b`` modulo 2^128, on (high, low) uint64 halves."""
    return a_hi - b_hi - (a_lo < b_lo), a_lo - b_lo


def step(state_hi: np.ndarray, state_lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One step of PCG64's LCG, ``state * mult + inc`` modulo 2^128, on
    (high, low) uint64 halves; returns the new (high, low)."""
    return _add(*_mul(state_hi, state_lo, *_PCG_MULT), inc_hi, inc_lo)


# one step takes a state s with increment inc to A_1 * s + C_1 * inc: A_1 = mult, C_1 = 1
_ONE_STEP = np.array([[_PCG_MULT[0]], [_PCG_MULT[1]], [0], [1]], dtype=np.uint64)


def _jumps(n: int) -> np.ndarray:
    """For j = 1 .. n, the (A_j, C_j) such that j LCG steps take a state s
    with increment inc to ``A_j * s + C_j * inc`` modulo 2^128: a (4, n)
    uint64 array of A high, A low, C high and C low.  The table doubles
    from one step, by ``A_{m+j} = A_j * A_m`` and ``C_{m+j} = A_j * C_m + C_j``."""
    table = _ONE_STEP
    while table.shape[1] < n:
        a_hi, a_lo, c_hi, c_lo = table
        m_a_hi, m_a_lo, m_c_hi, m_c_lo = table[:, -1]
        ahead = (*_mul(a_hi, a_lo, m_a_hi, m_a_lo), *_add(*_mul(a_hi, a_lo, m_c_hi, m_c_lo), c_hi, c_lo))
        table = np.concatenate([table, np.array(ahead)], axis=1)
    return table[:, :n]


def advance(
    state_hi: np.ndarray, state_lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray,
    steps: np.ndarray, row: np.ndarray,
):
    """Each pair's PCG64 state after its count in ``steps`` of LCG steps,
    each at least one; returns the new (high, low) uint64 halves.  The
    states and increments are given per stream, and pair p jumps from
    stream ``row[p]``'s state.

    Since ``A_j - 1 = (mult - 1) * C_j``, j steps take a state s to
    ``s + C_j * (step(s) - s)``: one LCG step per stream and one 128-bit
    multiply per pair."""
    d_hi, d_lo = _sub(*step(state_hi, state_lo, inc_hi, inc_lo), state_hi, state_lo)
    c_hi, c_lo = _jumps(int(steps.max()))[2:, steps - 1]
    return _add(*_mul(c_hi, c_lo, d_hi[row], d_lo[row]), state_hi[row], state_lo[row])


def _xsl_rr(state_hi: np.ndarray, state_lo: np.ndarray) -> np.ndarray:
    """PCG64's 64-bit output of each state: the halves XORed, rotated right
    by the state's top six bits."""
    x = state_hi ^ state_lo
    rot = state_hi >> np.uint64(58)
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


def uniforms(state_hi: np.ndarray, state_lo: np.ndarray) -> np.ndarray:
    """The double in [0, 1) that numpy's ``Generator.random()`` draws when
    its PCG64 steps to each state: the state's output's top 53 bits."""
    return (_xsl_rr(state_hi, state_lo) >> np.uint64(11)) * 2.0**-53


def _pcg64_seed(words: np.ndarray) -> tuple[np.ndarray, ...]:
    """PCG64's state after ``srandom(initstate, initseq)`` from SeedSequence
    output (seed high, seed low, sequence high, sequence low): as
    (state high, state low, inc high, inc low) uint64 arrays."""
    s_hi, s_lo, q_hi, q_lo = words
    one = np.uint64(1)
    inc_hi = (q_hi << one) | (q_lo >> np.uint64(63))
    inc_lo = (q_lo << one) | one
    # state = inc (one step from 0); state += initstate; one more step
    return (*step(*_add(inc_hi, inc_lo, s_hi, s_lo), inc_hi, inc_lo), inc_hi, inc_lo)


def _entropy_groups(keys: Sequence[Sequence[int]]) -> dict[int, tuple[list[int] | slice, np.ndarray]]:
    """Each key's SeedSequence entropy, grouped by word count: word count ->
    (indices of its keys, or a slice of all when they share one count,
    their words as a (keys, words) uint32 array)."""
    try:
        values = np.array(keys)
    except ValueError:  # keys of unequal lengths
        values = np.empty(0)
    if (
        values.ndim == 2 and values.size and values.dtype.kind in "iu"
        and values.min() >= 0 and values.max() <= _MASK32
    ):  # every value is one word
        return {values.shape[1]: (slice(None), values.astype(np.uint32))}
    by_length: dict[int, list[int]] = {}
    entropies = []
    for i, key in enumerate(keys):
        entropies.append([w for value in key for w in _words(operator.index(value))])
        by_length.setdefault(len(entropies[-1]), []).append(i)
    return {
        n: (members, np.array([entropies[i] for i in members], dtype=np.uint32).reshape(len(members), n))
        for n, members in by_length.items()
    }


def pcg64_arrays(keys: Sequence[Sequence[int]]) -> np.ndarray:
    """The start of ``np.random.PCG64(np.random.SeedSequence(list(key)))``
    for each key, in key order: a (4, keys) uint64 array whose rows are
    state high, state low, inc high and inc low.

    A key is a sequence of non-negative integers; each is split into 32-bit
    words, least significant first, and the words of a key are its
    entropy.  Keys with equal word counts are hashed together.  A negative
    integer raises ValueError, as SeedSequence does.
    """
    out = np.empty((4, len(keys)), dtype=np.uint64)
    for members, entropy in _entropy_groups(keys).values():
        out[:, members] = _pcg64_seed(_generate_state(_pools(entropy.T)))
    return out


def pcg64_states(keys: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Each key's ``(state, inc)`` from ``pcg64_arrays``, as 128-bit integers."""
    state_hi, state_lo, inc_hi, inc_lo = pcg64_arrays(keys).astype(object)
    return list(zip(((state_hi << 64) | state_lo).tolist(), ((inc_hi << 64) | inc_lo).tolist()))


def load(bitgen, state: tuple[int, int]):
    """Set the PCG64 ``bitgen`` to the start of the stream whose ``(state,
    inc)`` is ``state``, with its 32-bit buffer empty, as a new PCG64 of
    that stream would be; returns ``bitgen``."""
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bitgen


def generators(keys: Sequence[Sequence[int]]) -> Iterator[np.random.Generator]:
    """For each key in turn, a Generator at the start of the key's stream,
    drawing what ``np.random.default_rng(np.random.SeedSequence(list(key)))``
    draws.  It is one Generator, set to the next stream at each step, so a
    caller finishes with one stream before it takes the next."""
    states = pcg64_states(keys)
    bitgen = np.random.PCG64(0)  # any seed: each stream overwrites its state
    rng = np.random.Generator(bitgen)
    for state in states:
        load(bitgen, state)
        yield rng
