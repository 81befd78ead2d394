"""Sample means, standard errors and z-scores, shared by the ensemble
averages in `rmt` and the family averages in `family`.

It imports only math and numpy, so `rmt` loads none of `family`,
`measures` or `hecke`.
"""

import math

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
