"""Sample means, standard errors and z-scores, shared by the ensemble
averages in `rmt` and the family averages in `family`, the integer,
seed and factorization rules of every library entry point, and
NumericFailure.

Every array sum in the package is exactly rounded by `_column_sums`: a
certified TwoSum cascade over the columns of a 2-D array, with
math.fsum for each column it cannot certify, so each sum has fsum's
bits.  A 1-D array is summed as one column.

It imports numpy only inside the sums, so `paramodular` loads with
the standard library alone, and `rmt` loads none of `family`,
`measures` or `hecke`.
"""

import itertools
import math
import operator


class NumericFailure(RuntimeError):
    """Numeric machinery failed on a valid request: a quadrature, sampling
    or eigensolver budget or bound did not hold."""


def _column_sums(terms):
    """math.fsum of each column of a 2-D float array, as a list, at array
    speed.

    A pairwise cascade of Knuth's TwoSum over the W terms of a column
    leaves their sum as a float s and W - 1 exact errors e (TwoSum is
    exact barring overflow, subnormals included).  With sigma the float
    sum of the errors, TwoSum again gives hi + lo = s + sigma, so the
    exact sum is hi + lo + (sum e - sigma).  The bound on the last part,
    with u = 2^-53 and A the float sum of the |terms|:

    - an error is at most u |s'|, s' the float sum at its node, and
      |s'| <= (1 + u)^L times the sum of |terms| below the node; each
      of the L = ceil(log2 W) levels covers disjoint terms, so
      sum|e| <= u L (1 + u)^L sum|terms|;
    - any summation order rounds each of k numbers at most k - 1 times,
      so |sigma - sum e| <= gamma_(W-2) sum|e|, and
      A >= (1 - u)^(W-1) sum|terms| (Higham, Accuracy and Stability of
      Numerical Algorithms, 2nd ed., sec. 4.2, with
      gamma_j = j u/(1 - j u));
    - so for W u <= 2^-20 (W <= 2^33, far past any block here) the
      bound is at most W L u^2 (1 + 2^-18) A, and below
      B = fl((17/16) W L u^2 A) but for at most 2^-1075 where B
      underflows.

    A column is certified when fl(|lo| + B) < g/2, g the gap from |hi|
    down to the next float, the smaller of hi's two gaps.  g/2 is a
    float, so the exact |lo| + B is below it too, and then by 2^-1074,
    the spacing of all floats, at least: the underflow slack fits.  The
    exact sum is then strictly nearer hi than any other float, so hi is
    the correctly rounded sum, which is what fsum returns.  fsum sums the
    other columns: the uncertified, hi == 0 among them (its gap is 0;
    the sign of a zero sum is fsum's to choose), and all of an array in
    which some A is not below 2^1021, where a term is not finite or could
    overflow a partial sum here or in fsum.
    """
    import numpy as np

    width, cols = terms.shape
    with np.errstate(over="ignore"):  # an infinite A goes to fsum
        abs_sums = np.abs(terms).sum(axis=0)
    if not width or not abs_sums.max() < 2.0 ** 1021:
        return [math.fsum(col) for col in terms.T.tolist()]
    errors = np.empty((width - 1, cols))
    done = 0
    x = terms
    while len(x) > 1:
        half = len(x) // 2
        a, b = x[:half], x[half:2 * half]
        s = np.empty((len(x) - half, cols))
        s[half:] = x[2 * half:]  # the odd one out moves up a level
        np.add(a, b, out=s[:half])
        e = errors[done:done + half]
        done += half
        np.subtract(s[:half], a, out=e)  # b as the sum saw it
        a_seen = s[:half] - e
        np.subtract(a, a_seen, out=a_seen)
        np.subtract(b, e, out=e)
        e += a_seen
        x = s
    s = x[0]
    sigma = errors.sum(axis=0)
    hi = s + sigma
    b_seen = hi - s
    lo = (s - (hi - b_seen)) + (sigma - b_seen)
    mag = np.abs(hi)
    levels = (width - 1).bit_length()
    bound = (17 / 16 * width * levels * 2.0 ** -106) * abs_sums
    certified = np.abs(lo) + bound < 0.5 * (mag - np.nextafter(mag, 0.0))
    out = hi.tolist()
    for j in np.flatnonzero(~certified).tolist():
        out[j] = math.fsum(terms[:, j].tolist())
    return out


def _mean_stderr(values):
    """Mean and standard error of n >= 2 values from exactly rounded sums
    (`_column_sums` of one column).

    The squares come from the C library's pow, as Python's float `**`
    computes them; `x * x` can differ from pow in the last bit, and so
    move a reported error."""
    import numpy as np

    arr = np.asarray(values, dtype=float).ravel()
    n = arr.size
    mean = _column_sums(arr[:, None])[0] / n
    var = _column_sums(np.float_power(arr - mean, 2.0)[:, None])[0] / (n - 1)
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
    """Whether the int n is prime, by Miller-Rabin at `_MR_BASES`: exact
    below 3.317e24.  Above it a witness still proves n composite, and an
    n that passes every base raises ValueError."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
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
    if n >= _MR_BOUND:
        raise ValueError(
            "cannot certify %d as prime: Miller-Rabin at the primes up to "
            "41 decides primality only below %d" % (n, _MR_BOUND))
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
    """(p, k) with m = p^k and p prime by `_is_prime`, or None."""
    for k in range(1, m.bit_length()):
        p = _iroot(m, k)
        if p ** k == m and _is_prime(p):
            return p, k
    return None


# Brent's rho multiplies this many differences before taking one gcd
_RHO_BATCH = 128
# the steps x -> x^2 + c that _rho may take on one number, over every c,
# as it charges them.  Splitting 300 semiprimes with least prime factor p
# in [1e8, 1e9] was charged 2.3 sqrt(p) in the median and 11 sqrt(p) at
# most, so at those ratios the budget covers every p below 3.6e10 and
# half of those below 8.4e11; (10^12 - 11)(10^12 + 39) is charged
# 2^21 - 2.  It runs out in 0.9 s on (2^61 - 1)(10^18 + 3), 121 bits,
# on a 2-core Xeon VM.
_RHO_STEPS = 1 << 21


def _rho(n: int):
    """A factor 1 < d < n of a composite n that is not a prime power, by
    Brent's variant of Pollard's rho (BIT 20, 1980) on x^2 + c, c = 1,
    2, ... until one splits n; None once `_RHO_STEPS` run out.  A round
    of r is charged 2 r steps, its most.  The expected work grows as the
    square root of n's least prime factor."""
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > _RHO_STEPS:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, _RHO_BATCH):
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:  # the batch overshot: redo it a step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _factorize(m: int):
    """{p: v} with m = prod p^v, p increasing; checks every m and every
    level.

    A cofactor that `_prime_power` does not certify as p^k is split by
    `_rho`.  A prime factor above `_is_prime`'s bound raises ValueError,
    and so does a cofactor that `_rho` cannot split in its budget: one
    whose two least prime factors are both large."""
    m = _integer(m, "expected an integer >= 1")
    if m < 1:
        raise ValueError("expected an integer >= 1, got %d" % (m,))
    out = {}
    pending = [m] if m > 1 else []
    while pending:
        part = pending.pop()
        power = _prime_power(part)
        if power is None:
            d = _rho(part)
            if d is None:
                raise ValueError(
                    "cannot factor %d: Pollard's rho found no factor of %d "
                    "in its budget of %d steps" % (m, part, _RHO_STEPS))
            pending += [d, part // d]
        else:
            p, k = power
            out[p] = out.get(p, 0) + k
    return dict(sorted(out.items()))


def _check_seed(seed):
    # the random streams see a seed modulo 2^64, so one outside
    # [0, 2^64) would silently repeat another seed's streams
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must be in [0, 2^64), got %d" % (seed,))
