"""Sample means, standard errors and z-scores, shared by the ensemble
averages in `rmt` and the family averages in `family`, the integer,
seed and factorization rules of every library entry point, and
NumericFailure.

Means and variances are exactly rounded sums: `_exact_sum` returns the
bits of math.fsum from exponent buckets that numpy fills exactly, a
small superaccumulator in the sense of Neal (arXiv:1505.05571).

It imports numpy only inside the two sums, so `paramodular` loads with
the standard library alone, and `rmt` loads none of `family`,
`measures` or `hecke`.
"""

import math
import operator


class NumericFailure(RuntimeError):
    """Numeric machinery failed on a valid request: a quadrature, sampling
    or eigensolver budget or bound did not hold."""


# frexp exponents of finite doubles lie in [-1073, 1024]; bucket
# b = e + 1073 sums integer mantissas M, each standing for M * 2^(b - 1126)
_EXP_OFFSET = 1073


def _exact_sum(x):
    """math.fsum(x.tolist()) of a 1-D float64 array, at array speed.

    Each value is an integer mantissa M, |M| < 2^53, times 2^(e - 53).
    M = high * 2^26 + low with |high| <= 2^27 and 0 <= low < 2^26, and
    bincount adds each part into its exponent's bucket: with at most
    2^26 values every partial sum is an integer of magnitude at most
    2^53, so every bucket is exact.  The buckets meet as Python ints,
    and one int true division rounds the exact total correctly, half to
    even, as fsum does.  Non-finite entries, longer arrays, sums that could
    overflow (where fsum raises OverflowError) and exact zeros (whose
    sign is fsum's to choose) go to fsum itself.
    """
    import numpy as np

    n = x.size
    if not n or n > 2 ** 26 or not np.isfinite(x).all():
        return math.fsum(x.tolist())
    mant, exp = np.frexp(x)
    exp += _EXP_OFFSET
    if int(exp.max()) - _EXP_OFFSET + n.bit_length() > 1023:
        return math.fsum(x.tolist())
    mant *= 2.0 ** 27
    high = np.floor(mant)
    mant -= high
    mant *= 2.0 ** 26
    high_sums = np.bincount(exp, weights=high)
    low_sums = np.bincount(exp, weights=mant)
    used = np.flatnonzero((high_sums != 0.0) | (low_sums != 0.0))
    total = 0
    for b, hi, lo in zip(used.tolist(), high_sums[used].tolist(),
                         low_sums[used].tolist()):
        total += ((int(hi) << 26) + int(lo)) << b
    if not total:
        return math.fsum(x.tolist())
    return total / (1 << (_EXP_OFFSET + 53))


def _mean_stderr(values):
    """Mean and standard error of n >= 2 values from exact sums (`_exact_sum`).

    The squares come from the C library's pow, as Python's float `**`
    computes them; `x * x` can differ from pow in the last bit, and so
    move a reported error."""
    import numpy as np

    arr = np.asarray(values, dtype=float).ravel()
    n = arr.size
    mean = _exact_sum(arr) / n
    var = _exact_sum(np.float_power(arr - mean, 2.0)) / (n - 1)
    return mean, math.sqrt(var / n)


def _z_against(mean, stderr, prediction):
    if stderr > 0.0:
        return (mean - prediction) / stderr
    return 0.0 if mean == prediction else math.inf


def _integer(value, message):
    """`value` as a Python int, by operator.index: Python and numpy
    integers pass, and anything else, even the float 5.0, raises
    ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError("%s, got %r" % (message, value)) from None


# Miller-Rabin at the primes up to 41 is exact below the bound, the least
# strong pseudoprime to all of them (Sorenson and Webster, Strong
# pseudoprimes to twelve prime bases, Math. Comp. 2017); the primes up to
# 37 alone pass 318665857834031151167461 = 399165290221 * 798330580441
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether the int n is prime: a deterministic Miller-Rabin test
    below 3.317e24, trial division above."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_BOUND:
        return all(n % d for d in range(43, math.isqrt(n) + 1, 2))
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(m: int, k: int) -> int:
    """floor(m^(1/k)) for ints m >= 1 and k >= 1, by Newton's method."""
    x = 1 << -(-m.bit_length() // k)  # at least the root
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power(m: int):
    """(p, k) with m = p^k, p a prime below 3.317e24, or None."""
    for k in range(1, m.bit_length()):
        p = _iroot(m, k)
        if p ** k == m and p < _MR_BOUND and _is_prime(p):
            return p, k
    return None


def _factorize(m: int):
    """{p: v} with m = prod p^v; checks every m and every level.

    Trial division, which stops early once the cofactor is a prime power
    that `_prime_power` certifies."""
    m = _integer(m, "expected an integer >= 1")
    if m < 1:
        raise ValueError("expected an integer >= 1, got %d" % (m,))
    out = {}
    power = _prime_power(m)
    d = 2
    while power is None and d * d <= m:
        if m % d == 0:
            while m % d == 0:
                out[d] = out.get(d, 0) + 1
                m //= d
            power = _prime_power(m)
        d += 1
    if power is not None:
        m, v = power
        out[m] = out.get(m, 0) + v
    elif m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _check_seed(seed):
    # the random streams see a seed modulo 2^64, so one outside
    # [0, 2^64) would silently repeat another seed's streams
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must be in [0, 2^64), got %d" % (seed,))
