"""Sample means, standard errors and z-scores, shared by the ensemble
averages in `rmt` and the family averages in `family`, and the integer
and seed rules of every library entry point.

It imports only the standard library and numpy, so `rmt` loads none of
`family`, `measures` or `hecke`.
"""

import math
import operator

import numpy as np


def _mean_stderr(values):
    """Mean and standard error from exactly rounded sums.

    The squares come from the C library's pow, as Python's float `**`
    computes them; `x * x` can differ from pow in the last bit, and so
    move a reported error."""
    arr = np.asarray(values, dtype=float).ravel()
    n = arr.size
    mean = math.fsum(arr.tolist()) / n
    if n > 1:
        var = math.fsum(np.float_power(arr - mean, 2.0).tolist()) / (n - 1)
        stderr = math.sqrt(var / n)
    else:
        stderr = 0.0
    return mean, stderr


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


def _check_seed(seed):
    # the random streams see a seed modulo 2^64, so one outside
    # [0, 2^64) would silently repeat another seed's streams
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must be in [0, 2^64), got %d" % (seed,))
