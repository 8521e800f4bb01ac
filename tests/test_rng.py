from collections.abc import Iterator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soco import ConfigError, substream
from soco.rng import STREAM_IDS, substreams


def test_same_key_same_stream():
    a = substream(42, "data", 3).standard_normal(8)
    b = substream(42, "data", 3).standard_normal(8)
    assert np.array_equal(a, b)


def test_streams_differ_by_name_and_key():
    base = substream(42, "data", 3).standard_normal(8)
    assert not np.array_equal(base, substream(42, "noise", 3).standard_normal(8))
    assert not np.array_equal(base, substream(42, "data", 4).standard_normal(8))
    assert not np.array_equal(base, substream(43, "data", 3).standard_normal(8))


def test_unknown_stream_rejected():
    with pytest.raises(ConfigError):
        substream(0, "entropy")


# -- substreams: the per-key generators derived in one pass ------------------------

KEY_LISTS = st.lists(
    st.one_of(st.sampled_from((0, 1, 2**32 - 1)), st.integers(0, 2**32 - 1)), max_size=12
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**130 - 1)),
    stream=st.sampled_from(sorted(STREAM_IDS)),
    keys=KEY_LISTS,
)
@example(seed=2**129 + 1, stream="data", keys=[2**32 - 1, 0, 5, 0])  # unsorted, repeated
@example(seed=0, stream="noise", keys=[])
def test_substreams_are_the_per_key_substreams(seed, stream, keys):
    made = substreams(seed, stream, keys)
    assert isinstance(made, Iterator) and not isinstance(made, list)
    made = list(made)
    assert len(made) == len(keys)
    for key, rng in zip(keys, made):
        want = substream(seed, stream, key)
        assert rng.bit_generator.state == want.bit_generator.state
        assert np.array_equal(rng.random(4), want.random(4))
        assert np.array_equal(rng.integers(0, 2**63, size=3), want.integers(0, 2**63, size=3))


def test_substreams_take_key_arrays_and_numpy_seeds():
    keys = np.array([7, 0, 7, 2**32 - 1], dtype=np.int64)
    for key, rng in zip(keys, substreams(np.uint64(2**40), "modify", keys)):
        assert rng.bit_generator.state == substream(2**40, "modify", int(key)).bit_generator.state


def test_substreams_of_no_keys_is_an_empty_iterator():
    assert list(substreams(3, "data", [])) == []
    assert list(substreams(3, "data", np.array([], dtype=np.int64))) == []


def test_substreams_reject_what_substream_rejects():
    with pytest.raises(ConfigError):
        substreams(0, "entropy", [0])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        substream(-1, "data", 0)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        substreams(-1, "data", [0])


@pytest.mark.parametrize("keys", [[-1], [2**32], [0, 2**64], [0.5], [True]])
def test_substreams_reject_keys_outside_one_word(keys):
    # the errors come at the call, before any generator is built
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        substreams(0, "data", keys)
