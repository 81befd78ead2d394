"""Counter-based random streams.

Every draw in this package is addressed rather than sequential: a
(seed, stream, index, attempt, lane) tuple selects one block of the
Philox-4x32 cipher (Salmon et al., Parallel random numbers: as easy as
1, 2, 3, SC'11), so results never depend on batch size, chunking, or
evaluation order.  Re-running any command with the same seed reproduces
the same numbers bit for bit.  `uniforms` runs the rounds in place over
one buffer of a call's counters, _BLOCK at a time, and converts only the
words it returns, which only changes how fast the numbers come.
"""

import numpy as np

from .summary import _integer

__all__ = ["stream_key", "uniforms", "normals"]

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT = np.uint64(32)
_MASK64 = (1 << 64) - 1
# counters per pass of the rounds: the four words and two products of a
# block, 6 x 128 KiB, stay in cache while all ten rounds run over it
_BLOCK = 1 << 14


def _philox_rounds(key, words):
    """Apply the 10-round Philox-4x32 block function in place: `key` is
    two 32-bit ints, and column c of the C-contiguous (4, m) uint64 array
    `words` holds counter c's four 32-bit words, then its output words."""
    k0, k1 = int(key[0]), int(key[1])
    keys = [(np.uint64((k0 + r * _W0) & 0xFFFFFFFF),
             np.uint64((k1 + r * _W1) & 0xFFFFFFFF)) for r in range(10)]
    p0 = np.empty(min(words.shape[1], _BLOCK), dtype=np.uint64)
    p1 = np.empty_like(p0)
    for start in range(0, words.shape[1], _BLOCK):
        x0, x1, x2, x3 = words[:, start:start + _BLOCK]
        q0, q1 = p0[:x0.size], p1[:x0.size]
        for key0, key1 in keys:
            np.multiply(x0, _M0, out=q0)
            np.multiply(x2, _M1, out=q1)
            np.right_shift(q1, _SHIFT, out=x0)
            np.bitwise_xor(x0, x1, out=x0)
            np.bitwise_xor(x0, key0, out=x0)
            np.right_shift(q0, _SHIFT, out=x2)
            np.bitwise_xor(x2, x3, out=x2)
            np.bitwise_xor(x2, key1, out=x2)
            np.bitwise_and(q1, _MASK32, out=x1)
            np.bitwise_and(q0, _MASK32, out=x3)


def _mix64(z):
    """Finalizing 64-bit avalanche (splitmix64 scramble)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_key(seed, stream):
    """Derive the two Philox key words for a (seed, stream) pair."""
    k = _mix64((_mix64(int(seed)) + (int(stream) & _MASK64)) & _MASK64)
    return (k & 0xFFFFFFFF, k >> 32)


def _to_unit(w_hi, w_lo, out=None):
    # 26 + 27 high bits -> a double strictly inside (0, 1); the top code's
    # 2^53 - 1/2 rounds to 2^53, so it is held at 1 - 2^-53
    u = np.multiply(w_hi >> np.uint64(6), 134217728.0, out=out)
    u += w_lo >> np.uint64(5)
    u += 0.5
    u *= 2.0 ** -53
    return np.minimum(u, 1.0 - 2.0 ** -53, out=out)


def uniforms(seed, stream, index, attempt=0, count=2):
    """Addressed uniforms in the open interval (0, 1).

    `index` and `attempt` broadcast against each other; each resulting
    address yields `count` values in its trailing axis.  Value j of a
    given address is the same no matter how the call is batched.  The
    result is a view in which each value index j is contiguous over the
    addresses, so u[..., j] reads one row.
    """
    count = _integer(count, "count must be an integer")
    if count < 1:
        raise ValueError("count must be >= 1, got %d" % count)
    idx, att = np.broadcast_arrays(np.asarray(index, dtype=np.uint64),
                                   np.asarray(attempt, dtype=np.uint64))
    nblk = (count + 1) // 2
    # words[w, b, i]: counter word w of lane b at address i
    words = np.empty((4, nblk) + idx.shape, dtype=np.uint64)
    np.bitwise_and(idx, _MASK32, out=words[0])
    np.right_shift(idx, _SHIFT, out=words[1])
    np.bitwise_and(att, _MASK32, out=words[2])
    words[3] = np.arange(nblk, dtype=np.uint64).reshape(
        (nblk,) + (1,) * idx.ndim)
    _philox_rounds(stream_key(seed, stream), words.reshape(4, -1))
    # value 2b is words 0, 1 of lane b, and value 2b + 1 words 2, 3
    u = np.empty((count,) + idx.shape)
    _to_unit(words[0], words[1], out=u[0::2])
    _to_unit(words[2, :count // 2], words[3, :count // 2], out=u[1::2])
    return np.moveaxis(u, 0, -1)


def normals(seed, stream, index, attempt=0, count=1):
    """Addressed standard normal deviates (Box-Muller pairs)."""
    npair = (int(count) + 1) // 2
    u = uniforms(seed, stream, index, attempt, 2 * npair)
    r = np.sqrt(-2.0 * np.log(u[..., 0::2]))
    t = (2.0 * np.pi) * u[..., 1::2]
    out = np.empty(u.shape)
    out[..., 0::2] = r * np.cos(t)
    out[..., 1::2] = r * np.sin(t)
    return out[..., :count]
