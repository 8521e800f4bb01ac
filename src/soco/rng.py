"""Seed-stream discipline.

Every random draw in the package flows from one master seed through a named
sub-stream, so unrelated stages (data generation, imputation noise, map
modification) cannot perturb each other and per-key draws are independent of
evaluation order and worker count.  Streams are derived with SeedSequence
spawn keys, which gives explicit splittability without shared state.

``substream`` is the definition: one key path, one generator.  The per-sample
loops (one stream per dataset row or per map) use ``substreams`` instead,
which yields the very same generators for a list of keys but derives their
seeds in one vectorised pass: numpy's SeedSequence entropy hash and its
``generate_state`` are computed for all keys at once as wrapping uint32
arithmetic, and each PCG64 is then seeded from its precomputed words.  The
generators are built lazily, one per step of the iteration.  numpy keeps the
SeedSequence and PCG64 stream algorithms fixed under its compatibility policy
(NEP 19), and ``tests/test_rng.py`` checks the two functions against each
other.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import ConfigError

STREAM_IDS = {"data": 1, "noise": 2, "modify": 3}

# numpy's SeedSequence: pool size and the hashmix / mix constants
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG64_WORDS = 4  # uint64 words of PCG64 seed material


def substream(master_seed: int, stream: str, *key: int) -> np.random.Generator:
    """Generator for (master_seed, stream, *key); identical args, identical draws."""
    if stream not in STREAM_IDS:
        raise ConfigError(f"unknown rng stream {stream!r}")
    parts = (STREAM_IDS[stream],) + tuple(int(k) for k in key)
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=parts)
    return np.random.default_rng(ss)


def substreams(
    master_seed: int, stream: str, keys: Sequence[int]
) -> Iterator[np.random.Generator]:
    """Lazily, for each key ``k``, the generator ``substream(master_seed, stream, k)``.

    The seeds of all the keys are derived in one vectorised pass; each
    generator is built only when the iteration reaches it.  The arguments are checked at the call: an unknown stream is a
    ``ConfigError``, a negative seed the ``ValueError`` that ``substream``
    raises, and a key outside [0, 2**32) a ``ValueError``.
    """
    if stream not in STREAM_IDS:
        raise ConfigError(f"unknown rng stream {stream!r}")
    seed = int(master_seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    keys = np.asarray(keys)
    if keys.size and (
        keys.dtype.kind not in "iu" or keys.min() < 0 or keys.max() > _MASK32
    ):
        raise ValueError("substream keys must be integers in [0, 2**32)")
    state = _pcg64_seeds(seed, STREAM_IDS[stream], keys.astype(np.uint32).reshape(-1))
    return (np.random.Generator(np.random.PCG64(_Seeded(words))) for words in state)


class _Seeded(ISeedSequence):
    """Seed material worked out in advance, handed to one PCG64."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _PCG64_WORDS or np.dtype(dtype) != np.uint64:
            raise ValueError("seed material is for PCG64 only")
        return self._words


def _hashmix(value, hash_const: int):
    """SeedSequence's hashmix of ``value``, and the hash constant after it."""
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _words(n: int) -> list:
    """``n`` as little-endian uint32 words, split as SeedSequence splits an int."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _pcg64_seeds(seed: int, stream_id: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(stream_id, k)).generate_state(4, uint64)``
    for every key ``k``, as one ``(len(keys), 4)`` array.

    The entropy is the seed's words, zero-padded to the pool size, then the
    stream id, then the key.  Only the last word differs between keys, so
    the pool is mixed once with Python ints up to it and the key word is
    mixed in and expanded for all keys at once on uint32 arrays, whose
    products wrap as the C code's do.
    """
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy)) + [stream_id]
    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:] + [keys]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)

    hash_const = _INIT_B
    state = np.empty((keys.size, 2 * _PCG64_WORDS), dtype=np.uint32)
    for i in range(2 * _PCG64_WORDS):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state[:, i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)
