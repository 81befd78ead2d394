"""Exact arithmetic for dimension main terms at square-free levels.

Everything here is rational: the weight polynomial, the divisor
convolutions over a square-free level, and the sign split of a trace
pair.  Results are Fractions; callers convert to float only at the
export boundary.  Remainder terms below the main terms are not modeled:
a DimensionReport and the `dims` table it feeds hold main terms only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .summary import _factorize, _integer

__all__ = [
    "LevelData",
    "DimensionReport",
    "dim_main_term",
    "dim_newform_main_term",
    "newform_trace",
    "pm_trace_split",
    "c_constant",
    "dimension_report",
]


@dataclass(frozen=True)
class LevelData:
    """A square-free level and its increasing prime factors, factored
    once."""

    n: int
    factorization: tuple = field(init=False, repr=False, compare=False)

    @classmethod
    def from_level(cls, n: int) -> "LevelData":
        return cls(n)

    def __post_init__(self):
        object.__setattr__(self, "n",
                           _integer(self.n, "level must be an integer"))
        factors = _factorize(self.n)
        if any(v > 1 for v in factors.values()):
            raise ValueError("level must be square-free, got %d" % (self.n,))
        object.__setattr__(self, "factorization", tuple(factors))

    def divisors(self) -> tuple:
        out = []
        for r in range(len(self.factorization) + 1):
            for combo in itertools.combinations(self.factorization, r):
                d = 1
                for p in combo:
                    d *= p
                out.append(d)
        return tuple(sorted(out))


def _weight_poly(k1: int, k2: int) -> int:
    k1, k2 = (_integer(k, "weights must be integers") for k in (k1, k2))
    if not k1 >= k2 >= 4:
        raise ValueError("dimension formulas need k1 >= k2 >= 4, got (%r, %r)"
                         % (k1, k2))
    return (k1 - 1) * (k2 - 2) * (k1 - k2 + 1) * (k1 + k2 - 3)


def dim_main_term(k1: int, k2: int, level: LevelData) -> Fraction:
    """Leading dimension term: weight polynomial times prod (p^2 + 1)."""
    total = Fraction(_weight_poly(k1, k2), 2 ** 7 * 3 ** 3 * 5)
    for p in level.factorization:
        total *= p * p + 1
    return total


def dim_newform_main_term(k1: int, k2: int, level: LevelData) -> Fraction:
    """Leading new-subspace term: half constant, prod (p^2 - 1) instead."""
    total = Fraction(_weight_poly(k1, k2), 2 ** 8 * 3 ** 3 * 5)
    for p in level.factorization:
        total *= p * p - 1
    return total


def newform_trace(traces, level: LevelData):
    """Divisor convolution sum of (-2)^omega(M) * traces[N/M].

    `traces` must assign a value to every divisor of the level; values
    may be ints, Fractions, or floats and are combined exactly when the
    inputs are exact.
    """
    divs = level.divisors()
    missing = [d for d in divs if d not in traces]
    if missing:
        raise ValueError("trace table is missing divisors %s" % (missing,))
    total = 0
    for m in divs:
        primes = sum(m % p == 0 for p in level.factorization)
        total += (-2) ** primes * traces[level.n // m]
    return total


def pm_trace_split(trace_plain, trace_atkin_lehner, k2: int):
    """Split a trace into sign eigenspace halves.

    The involution trace enters with the parity sign of the smaller
    weight.  Both halves are exact rationals, so plus + minus returns
    the plain trace without rounding.
    """
    sign = -1 if _integer(k2, "k2 must be an integer") % 2 else 1
    plain = Fraction(trace_plain)
    signed = sign * Fraction(trace_atkin_lehner)
    return ((plain + signed) / 2, (plain - signed) / 2)


def c_constant(level: LevelData) -> Fraction:
    """The level-normalized factor prod (1 + p^-2); degenerates to 1 at
    level one and otherwise lies strictly between 1 and 5, since the
    product over all primes is zeta(2)/zeta(4) = 15/pi^2 < 5."""
    c = Fraction(1)
    for p in level.factorization:
        c *= Fraction(p * p + 1, p * p)
    return c


@dataclass(frozen=True)
class DimensionReport:
    """Main-term dimensions for one weight pair and level."""

    k1: int
    k2: int
    level: LevelData
    main_term: Fraction
    newform_main_term: Fraction
    c: Fraction


def dimension_report(k1: int, k2: int, level: LevelData) -> DimensionReport:
    k1, k2 = (_integer(k, "weights must be integers") for k in (k1, k2))
    return DimensionReport(
        k1=k1,
        k2=k2,
        level=level,
        main_term=dim_main_term(k1, k2, level),
        newform_main_term=dim_newform_main_term(k1, k2, level),
        c=c_constant(level),
    )
