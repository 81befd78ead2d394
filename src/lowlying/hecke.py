"""Local coefficient algebra for the degree-4 and degree-5 L-functions.

Satake angles at a prime determine a degree-4 local factor (through the
pair of unit-circle parameter pairs) and a degree-5 factor (through sum
and difference angles plus a trivial parameter).  Their Dirichlet
coefficients at prime powers are computed with real recurrences in
a = 2cos(theta1), b = 2cos(theta2); complex arithmetic appears only in
test oracles.  `main_term_spin`, the limiting family average of a
degree-4 coefficient, is computed in exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .summary import _factorize, _integer

__all__ = [
    "SpinSatake",
    "FormShape",
    "spin_dirichlet_coeff",
    "main_term_spin",
    "spin_coeff_grid",
    "std_coeff_grid",
    "analytic_conductor",
    "spin_root_number_level_one",
    "std_root_number",
]


@dataclass(frozen=True)
class SpinSatake:
    """Tempered local parameters, stored as angles in [0, pi]."""

    theta1: float
    theta2: float

    def __post_init__(self):
        for t in (self.theta1, self.theta2):
            if not (0.0 <= t <= math.pi):
                raise ValueError("angles must lie in [0, pi], got %r" % (t,))

    @classmethod
    def from_pair(cls, a, b) -> "SpinSatake":
        """Build from eigenvalue coordinates; rejects non-tempered input."""
        if not (-2.0 <= a <= 2.0 and -2.0 <= b <= 2.0):
            raise ValueError(
                "non-tempered coordinates (%r, %r): need [-2,2]" % (a, b))
        return cls(math.acos(a / 2.0), math.acos(b / 2.0))

    @property
    def a(self) -> float:
        return 2.0 * math.cos(self.theta1)

    @property
    def b(self) -> float:
        return 2.0 * math.cos(self.theta2)


def _coeff_recurrence(c, n_max):
    """Series coefficients of 1/Q(t) for Q(t) = 1 + sum_j c[j-1] t^j.

    Returns an array of shape (n_max+1,) + the broadcast shape of c.
    """
    shape = np.broadcast(*c).shape
    h = np.zeros((n_max + 1,) + shape)
    h[0] = 1.0
    term = np.empty(shape)
    for n in range(1, n_max + 1):
        acc = h[n, ...]  # a view even when shape is ()
        for j, cj in enumerate(c[:n], start=1):
            acc += np.multiply(cj, h[n - j], out=term)
        np.negative(acc, out=acc)
    return h


def spin_coeff_grid(a, b, n_max):
    """Degree-4 Dirichlet coefficients at powers 0..n_max, vectorized."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    c1 = -(a + b)
    return _coeff_recurrence((c1, 2.0 + a * b, c1, 1.0), n_max)


def std_coeff_grid(a, b, n_max):
    """Degree-5 Dirichlet coefficients at powers 0..n_max, vectorized."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    e2 = a * a + a * b + b * b - 2.0
    return _coeff_recurrence((-(1.0 + a * b), e2, -e2, 1.0 + a * b, -1.0),
                             n_max)


def spin_dirichlet_coeff(s: SpinSatake, n: int) -> float:
    """Coefficient at the n-th prime power: the complete homogeneous
    symmetric function of the four spin parameters."""
    n = _integer(n, "n must be an integer")
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(spin_coeff_grid(s.a, s.b, n)[n])


def main_term_spin(m: int) -> float:
    """Limiting average of the degree-4 coefficient at m.

    Zero unless m is a perfect square; otherwise the square root's
    reciprocal times, for each prime power p^v exactly dividing m, the
    sum 1 + p^-2 + ... + p^-v.  Evaluated in exact rationals, then
    rounded once.
    """
    fac = _factorize(m)
    if any(v % 2 for v in fac.values()):
        return 0.0
    total = Fraction(1, math.isqrt(m))
    for p, v in fac.items():
        total *= sum(Fraction(1, p ** (2 * i)) for i in range(v // 2 + 1))
    return float(total)


@dataclass(frozen=True)
class FormShape:
    """Weight pair and level of a synthetic form."""

    k1: int
    k2: int
    q: int = 1

    def __post_init__(self):
        for name in ("k1", "k2", "q"):
            object.__setattr__(self, name, _integer(
                getattr(self, name), "weights and level must be integers"))
        if not self.k1 >= self.k2 >= 3:
            raise ValueError("need k1 >= k2 >= 3, got (%r, %r)"
                             % (self.k1, self.k2))
        if self.q < 1:
            raise ValueError("level must be >= 1")


def analytic_conductor(shape: FormShape) -> int:
    """Weight-and-level conductor (k1+k2)^2 (k1-k2+1)^2 q."""
    return (shape.k1 + shape.k2) ** 2 * (shape.k1 - shape.k2 + 1) ** 2 * shape.q


def spin_root_number_level_one(k2: int) -> int:
    """Functional-equation sign at level one: parity of the smaller weight."""
    k2 = _integer(k2, "k2 must be an integer")
    if k2 < 3:
        raise ValueError("k2 must be >= 3")
    return -1 if k2 % 2 else 1


def std_root_number() -> int:
    """The degree-5 functional-equation sign is always +1."""
    return 1
