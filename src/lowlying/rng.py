"""Counter-based random streams.

Every draw in this package is addressed rather than sequential: a
(seed, stream, index, attempt, lane) tuple selects one block of the
Philox-4x32 cipher (Salmon et al., Parallel random numbers: as easy as
1, 2, 3, SC'11), so results never depend on batch size, chunking, or
evaluation order.  Re-running any command with the same seed reproduces
the same numbers bit for bit.  The cipher runs its rounds in place over
_BLOCK counters at a time, which only changes how fast the words come.
"""

import numpy as np

__all__ = ["philox4x32", "stream_key", "uniforms", "normals"]

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


def philox4x32(key, ctr):
    """Apply the 10-round Philox-4x32 block function.

    Parameters
    ----------
    key : pair of ints
        Two 32-bit key words.
    ctr : tuple of four array_like
        Counter words (32-bit payloads), broadcastable to a common shape.

    Returns
    -------
    tuple of four uint64 ndarrays holding the 32-bit output words.
    """
    words = np.stack(np.broadcast_arrays(
        *(np.asarray(c, dtype=np.uint64) for c in ctr)))
    k0, k1 = int(key[0]), int(key[1])
    keys = [(np.uint64((k0 + r * _W0) & 0xFFFFFFFF),
             np.uint64((k1 + r * _W1) & 0xFFFFFFFF)) for r in range(10)]
    flat = words.reshape(4, -1)
    p0 = np.empty(min(flat.shape[1], _BLOCK), dtype=np.uint64)
    p1 = np.empty_like(p0)
    for start in range(0, flat.shape[1], _BLOCK):
        x0, x1, x2, x3 = flat[:, start:start + _BLOCK]
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
    return tuple(words)


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


def _to_unit(w_hi, w_lo):
    # 26 + 27 high bits -> a double strictly inside (0, 1); the top code's
    # 2^53 - 1/2 rounds to 2^53, so it is held at 1 - 2^-53
    hi = (w_hi >> np.uint64(6)).astype(np.float64)
    lo = (w_lo >> np.uint64(5)).astype(np.float64)
    return np.minimum((hi * 134217728.0 + lo + 0.5) * (2.0 ** -53),
                      1.0 - 2.0 ** -53)


def uniforms(seed, stream, index, attempt=0, count=2):
    """Addressed uniforms in the open interval (0, 1).

    `index` and `attempt` broadcast against each other; each resulting
    address yields `count` values in its trailing axis.  Value j of a
    given address is the same no matter how the call is batched.
    """
    idx = np.asarray(index, dtype=np.uint64)
    att = np.asarray(attempt, dtype=np.uint64)
    idx, att = np.broadcast_arrays(idx, att)
    nblk = (int(count) + 1) // 2
    lane = np.arange(nblk, dtype=np.uint64)
    shape = idx.shape + (nblk,)
    c0 = np.broadcast_to((idx & _MASK32)[..., None], shape)
    c1 = np.broadcast_to((idx >> np.uint64(32))[..., None], shape)
    c2 = np.broadcast_to((att & _MASK32)[..., None], shape)
    c3 = np.broadcast_to(lane, shape)
    w0, w1, w2, w3 = philox4x32(stream_key(seed, stream), (c0, c1, c2, c3))
    u = np.empty(shape + (2,))
    u[..., 0] = _to_unit(w0, w1)
    u[..., 1] = _to_unit(w2, w3)
    return u.reshape(idx.shape + (2 * nblk,))[..., :count]


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
