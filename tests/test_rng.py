import hashlib

import numpy as np
import pytest
from conftest import philox4x32

from lowlying import measures, rng


# Published known-answer vectors for the 10-round Philox-4x32 block
# function: (counter words, key words) -> output words.
KAT = [
    ((0x00000000, 0x00000000, 0x00000000, 0x00000000),
     (0x00000000, 0x00000000),
     (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF),
     (0xFFFFFFFF, 0xFFFFFFFF),
     (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
     (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


@pytest.mark.parametrize("ctr,key,expected", KAT)
def test_philox_known_answers(ctr, key, expected):
    out = philox4x32(key, ctr)
    got = tuple(int(w) for w in out)
    assert got == expected


@pytest.mark.parametrize("size", [rng._BLOCK - 1, rng._BLOCK,
                                  rng._BLOCK + 1])
@pytest.mark.parametrize("ctr,key,expected", KAT)
def test_philox_known_answers_across_block_edges(ctr, key, expected, size):
    out = philox4x32(key, tuple(np.full(size, c) for c in ctr))
    for words, want in zip(out, expected):
        assert words.shape == (size,)
        assert np.all(words == want)


def test_philox_broadcast_matches_per_address():
    # a 2-D counter grid, (addresses, lanes), whose flat order puts the
    # block edges mid-row
    index = np.arange(rng._BLOCK + 3, dtype=np.uint64)[:, None] * 977
    lane = np.arange(3, dtype=np.uint64)
    key = rng.stream_key(5, 2)
    batch = philox4x32(key, (index, np.uint64(7), np.uint64(1), lane))
    for words in batch:
        assert words.shape == (rng._BLOCK + 3, 3)
    # the rows on either side of each block edge of the flat counters
    edges = [k * rng._BLOCK // 3 for k in (1, 2, 3)]
    for i in [0] + [e + d for e in edges for d in (-1, 0, 1)]:
        single = philox4x32(key, (index[i, 0], 7, 1, lane))
        for b, s in zip(batch, single):
            assert np.array_equal(b[i], s)


def test_philox_vectorized_matches_scalar():
    ctrs = [(i, 7 * i + 1, 0, 3) for i in range(10)]
    batch = philox4x32((123, 456), tuple(np.array(col) for col in zip(*ctrs)))
    for i, ctr in enumerate(ctrs):
        single = philox4x32((123, 456), ctr)
        assert all(int(b[i]) == int(s) for b, s in zip(batch, single))


def test_uniforms_open_interval():
    u = rng.uniforms(1, 2, np.arange(1000), count=8)
    assert u.shape == (1000, 8)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_to_unit_extreme_words():
    top = np.uint64(0xFFFFFFFF)
    # the top code's 2^53 - 1/2 would round to 1.0
    assert rng._to_unit(top, top) == 1.0 - 2.0 ** -53
    assert rng._to_unit(np.uint64(0), np.uint64(0)) == 2.0 ** -54
    # the next code down keeps its own value, one ulp below the top's
    below = rng._to_unit(top, np.uint64(0xFFFFFFFF - 32))
    assert below == (2.0 ** 53 - 1.5) * 2.0 ** -53 == 1.0 - 2.0 ** -52


def _oracle(seed, stream, index, attempt, count):
    """Value j of each address from its own Philox block j // 2: words
    0, 1 for even j and words 2, 3 for odd j."""
    idx = np.asarray(index, dtype=np.uint64)
    att = np.asarray(attempt, dtype=np.uint64) & np.uint64(0xFFFFFFFF)
    key = rng.stream_key(seed, stream)
    values = []
    for j in range(count):
        w = philox4x32(key, (idx & np.uint64(0xFFFFFFFF),
                             idx >> np.uint64(32), att, j // 2))
        values.append(rng._to_unit(*w[2 * (j % 2):2 * (j % 2) + 2]))
    return np.stack(np.broadcast_arrays(*values), axis=-1)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 59])
@pytest.mark.parametrize("index,attempt", [
    (np.arange(10), 0),
    (np.arange(2 ** 32 - 3, 2 ** 32 + 3, dtype=np.uint64), 4),
    (np.uint64(2 ** 32 + 17), np.arange(3)),
    (np.arange(5)[:, None] + 2 ** 33, np.arange(3) + 2 ** 31 + 1),
    (np.arange(12).reshape(3, 4), 2 ** 31 + 3),
    (7, 2 ** 31 + 3),
])
def test_uniforms_match_per_address_oracle(index, attempt, count):
    got = rng.uniforms(20260822, 11, index, attempt, count)
    want = _oracle(20260822, 11, index, attempt, count)
    assert got.shape == np.broadcast(np.asarray(index),
                                     np.asarray(attempt)).shape + (count,)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("count", [1, 3, 4])
@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_uniforms_match_oracle_across_block_edges(count, edge):
    # nblk = (count + 1) // 2 counters per address: the flat counters end
    # just below, at or just above one block of the rounds
    nblk = (count + 1) // 2
    index = np.arange(rng._BLOCK // nblk + edge) * 977 + 2 ** 32 - 5
    got = rng.uniforms(3, 7, index, 1, count)
    assert np.array_equal(got, _oracle(3, 7, index, 1, count))


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def test_stream_golden_digests():
    assert _digest(rng.uniforms(20260822, 203, np.arange(4096), 3, 59)) \
        == "3d7d0bcea2856c2f"
    assert _digest(rng.uniforms(
        0, 2, np.arange(2 ** 32 - 2, 2 ** 32 + 2, dtype=np.uint64),
        np.arange(4), 3)) == "990ae10f89d7caa8"
    assert _digest(measures.sample_array(measures.vertical_measure(2), 0,
                                         10 ** 5)) == "879a6b0cec28af1c"


@pytest.mark.parametrize("count", [0, -1, 2.5, 3.0, "3", None])
def test_uniforms_rejects_bad_count(count, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before checking count")

    monkeypatch.setattr(rng, "_philox_rounds", no_draw)
    with pytest.raises(ValueError, match="count"):
        rng.uniforms(1, 2, np.arange(4), 0, count)


def test_uniforms_batch_invariance():
    whole = rng.uniforms(42, 5, np.arange(64), count=3)
    parts = np.concatenate(
        [rng.uniforms(42, 5, np.arange(lo, lo + 16), count=3) for lo in range(0, 64, 16)]
    )
    assert np.array_equal(whole, parts)
    one = rng.uniforms(42, 5, 17, count=3)
    assert np.array_equal(whole[17], one)


def test_streams_and_attempts_are_distinct():
    base = rng.uniforms(9, 0, np.arange(100), attempt=0, count=2)
    other_stream = rng.uniforms(9, 1, np.arange(100), attempt=0, count=2)
    other_attempt = rng.uniforms(9, 0, np.arange(100), attempt=1, count=2)
    other_seed = rng.uniforms(10, 0, np.arange(100), attempt=0, count=2)
    assert not np.any(np.all(base == other_stream, axis=1))
    assert not np.any(np.all(base == other_attempt, axis=1))
    assert not np.any(np.all(base == other_seed, axis=1))


def test_uniform_moments():
    u = rng.uniforms(7, 3, np.arange(250000), count=4).ravel()
    n = u.size
    assert abs(u.mean() - 0.5) < 4.0 / np.sqrt(12.0 * n)
    assert abs(u.var() - 1.0 / 12.0) < 5e-4
    # lag-1 serial correlation across the flattened stream
    c = np.corrcoef(u[:-1], u[1:])[0, 1]
    assert abs(c) < 4.0 / np.sqrt(n)


def test_normal_moments():
    z = rng.normals(11, 4, np.arange(200000), count=4).ravel()
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
    assert abs((z ** 3).mean()) < 5.0 * np.sqrt(15.0 / n)


def test_normals_count_and_determinism():
    a = rng.normals(3, 1, np.arange(10), count=7)
    b = rng.normals(3, 1, np.arange(10), count=7)
    assert a.shape == (10, 7)
    assert np.array_equal(a, b)
