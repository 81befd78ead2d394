"""Synthetic families with independent local data at finitely many primes.

A family draws, for every prime in its window, one point per form from
that prime's vertical measure, and attaches a functional-equation sign
by a rule that never looks at the drawn data.  The construction
realizes the limiting distribution of a growing family directly, so
averaged Dirichlet coefficients can be compared against closed-form
main terms with Monte Carlo error bars as the only uncertainty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import measures
from .hecke import (main_term_spin, spin_coeff_grid,
                    spin_root_number_level_one, std_coeff_grid)
from .summary import _check_seed, _integer, _mean_stderr, _z_against

__all__ = [
    "EPSILON_RULES",
    "FamilySpec",
    "Family",
    "AverageReport",
    "MonomialEntry",
    "JointMomentReport",
    "SplitReport",
    "generate_family",
    "coefficient_values",
    "average_coefficient",
    "joint_sato_tate_test",
    "plus_minus_split_test",
    "write_family_csv",
    # no family code reads it; the benchmark's tracing hooks rebind it here
    "std_coeff_grid",
]

EPSILON_RULES = ("level_one_parity", "balanced")

# forms per write in write_family_csv: bounds the strings held at once
_CSV_BLOCK = 4096

# the sign rule is decoupled from the sampled local data on purpose;
# every split report repeats this so downstream readers see the model
SIGN_MODEL_NOTE = "signs assigned independently of the sampled local data"

_K2 = 3  # the smaller weight of the family's forms, of weights (4, 3)


@dataclass(frozen=True)
class FamilySpec:
    """Prime window, family size, seed, and sign rule for a simulation;
    its methods check the requests on a family before it is sampled."""

    primes: tuple
    forms: int
    seed: int
    epsilon_rule: str = "balanced"

    def __post_init__(self):
        primes = tuple(measures.check_prime(p) for p in self.primes)
        object.__setattr__(self, "primes", primes)
        if not primes:
            raise ValueError("need at least one prime")
        if len(set(primes)) != len(primes):
            raise ValueError("primes must be distinct")
        if self.epsilon_rule not in EPSILON_RULES:
            raise ValueError("epsilon_rule must be one of %s"
                             % (EPSILON_RULES,))
        for name in ("forms", "seed"):
            object.__setattr__(self, name, _integer(
                getattr(self, name), "forms and seed must be integers"))
        if self.forms < 2:  # one form has no standard error
            raise ValueError("forms must be >= 2")
        _check_seed(self.seed)

    def factor(self, m):
        """{p: v} with m = prod p^v, for m a product of the window's primes;
        only they are tried, so a large prime factor fails at once."""
        rest = _integer(m, "expected an integer >= 1")
        if rest < 1:
            raise ValueError("expected an integer >= 1, got %d" % (rest,))
        fac = {}
        for p in self.primes:
            while rest % p == 0:
                fac[p] = fac.get(p, 0) + 1
                rest //= p
        if rest != 1:
            raise ValueError("m must be a product of the family primes %s, "
                             "got %d" % (self.primes, m))
        return fac

    def check_joint(self, primes, max_degree):
        """The checked (primes, max_degree): distinct primes of the window
        and a degree in 1..4."""
        primes = tuple(measures.check_prime(p) for p in primes)
        max_degree = _integer(max_degree, "max_degree must be an integer")
        # a prime outside the window or a repeat shortens the overlap
        if not primes or len(set(primes) & set(self.primes)) < len(primes):
            raise ValueError("joint primes must be distinct primes of the "
                             "window %s, got %s" % (self.primes, primes))
        if not 1 <= max_degree <= 4:
            raise ValueError("max_degree must lie in 1..4, got %d"
                             % max_degree)
        return primes, max_degree

    def check_split(self, m):
        """Check the split at m: the balanced rule, 4 forms or more (two per
        sign class, for a standard error in each) and m in the window."""
        if self.epsilon_rule != "balanced":
            raise ValueError("split test needs the balanced sign rule")
        if self.forms < 4:
            raise ValueError("the balanced split needs 2 forms in its minus "
                             "sign class, so 4 in all, got %d" % self.forms)
        self.factor(m)


@dataclass(frozen=True, eq=False)
class Family:
    """Sampled family, stored as arrays.

    `points[p]` is the (forms, 2) array of eigenvalue coordinates at
    prime p and `epsilons` the per-form sign array; treat both as
    read-only.  Families compare by identity.
    """

    spec: FamilySpec
    points: dict
    epsilons: np.ndarray

    def __len__(self):
        return self.spec.forms


def _epsilons(spec: FamilySpec):
    if spec.epsilon_rule == "level_one_parity":
        return np.full(spec.forms, spin_root_number_level_one(_K2), dtype=int)
    return np.where(np.arange(spec.forms) % 2 == 0, 1, -1)


def generate_family(spec: FamilySpec) -> Family:
    """Draw every form's local data; deterministic given the seed.

    Each prime uses its own counter-based stream keyed by (seed, p), and
    each form its own per-index substream, so the result is independent
    of batching or evaluation order.
    """
    points = {p: measures.sample_array(measures.vertical_measure(p),
                                       spec.seed, spec.forms)
              for p in spec.primes}
    return Family(spec, points, _epsilons(spec))


# ---------------------------------------------------------------------------
# coefficient averages


def coefficient_values(family: Family, m: int):
    """Per-form spin coefficient at m, vectorized over the family."""
    vals = np.ones(len(family))
    for p, v in sorted(family.spec.factor(m).items()):
        points = family.points[p]
        vals = vals * spin_coeff_grid(points[:, 0], points[:, 1], v)[v]
    return vals


@dataclass(frozen=True)
class AverageReport:
    """Sample mean of a coefficient against its closed-form main term."""

    m: int
    estimate: float
    stderr: float
    prediction: float
    z_score: float

    def to_json_dict(self):
        return {
            "m": self.m,
            "which": "spin",
            "estimate": self.estimate,
            "stderr": self.stderr,
            "prediction": self.prediction,
            "z": self.z_score,
        }


def _average(m, vals) -> AverageReport:
    """The report on `vals`, the spin coefficients at an m already checked."""
    mean, stderr = _mean_stderr(vals)
    prediction = main_term_spin(m)
    return AverageReport(m=int(m), estimate=mean, stderr=stderr,
                         prediction=prediction,
                         z_score=_z_against(mean, stderr, prediction))


def average_coefficient(family: Family, m: int) -> AverageReport:
    """Ensemble mean and standard error of the spin coefficient at m."""
    return _average(m, coefficient_values(family, m))


# ---------------------------------------------------------------------------
# joint equidistribution


def _prime_moment(p, e, f):
    """Quadrature moment of x^e y^f at prime p; symmetric in (e, f)."""
    return _ordered_moment(p, max(e, f), min(e, f))


@lru_cache(maxsize=64)
def _ordered_moment(p, e, f):
    return float(measures.integrate(measures.vertical_measure(p),
                                    lambda x, y: x ** e * y ** f, tol=1e-9))


@dataclass(frozen=True)
class MonomialEntry:
    """One mixed moment: empirical mean against the product prediction."""

    label: str
    estimate: float
    stderr: float
    prediction: float
    z_score: float

    def to_json_dict(self):
        return {
            "monomial": self.label,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "prediction": self.prediction,
            "z": self.z_score,
        }


@dataclass(frozen=True)
class JointMomentReport:
    """All mixed moments up to a degree over a subset of the primes."""

    primes: tuple
    max_degree: int
    entries: tuple
    max_abs_z: float

    def to_json_dict(self):
        return {
            "primes": list(self.primes),
            "max_degree": self.max_degree,
            "max_abs_z": self.max_abs_z,
            "moments": [e.to_json_dict() for e in self.entries],
        }


def _monomial_label(primes, exps):
    parts = []
    for p, (e, f) in zip(primes, exps):
        if e:
            parts.append("a%d^%d" % (p, e))
        if f:
            parts.append("b%d^%d" % (p, f))
    return "*".join(parts)


def joint_sato_tate_test(family: Family, primes_subset,
                         max_degree: int) -> JointMomentReport:
    """Mixed moments across primes against products of per-prime moments.

    Agreement of every monomial with the product of its single-prime
    quadrature moments is exactly the statement that the local data are
    jointly equidistributed for the product measure.
    """
    primes, max_degree = family.spec.check_joint(primes_subset, max_degree)
    per_prime = [[(e, f) for e in range(max_degree + 1)
                  for f in range(max_degree + 1 - e)]
                 for _ in primes]
    monomials = sorted((sum(e + f for e, f in exps), exps)
                       for exps in itertools.product(*per_prime))
    entries = []
    for degree, exps in monomials:
        if not 1 <= degree <= max_degree:
            continue
        vals = np.ones(len(family))
        prediction = 1.0
        for p, (e, f) in zip(primes, exps):
            a = family.points[p][:, 0]
            b = family.points[p][:, 1]
            if e:
                vals = vals * a ** e
            if f:
                vals = vals * b ** f
            if e or f:
                prediction *= _prime_moment(p, e, f)
        mean, stderr = _mean_stderr(vals)
        entries.append(MonomialEntry(
            label=_monomial_label(primes, exps),
            estimate=mean,
            stderr=stderr,
            prediction=prediction,
            z_score=_z_against(mean, stderr, prediction)))
    max_abs_z = max(abs(e.z_score) for e in entries)
    return JointMomentReport(primes=primes, max_degree=max_degree,
                             entries=tuple(entries), max_abs_z=max_abs_z)


# ---------------------------------------------------------------------------
# sign-split averages


@dataclass(frozen=True)
class SplitReport:
    """Coefficient averages over the two sign subfamilies."""

    m: int
    plus: AverageReport
    minus: AverageReport
    balance: float

    def to_json_dict(self):
        return {
            "m": self.m,
            "plus": self.plus.to_json_dict(),
            "minus": self.minus.to_json_dict(),
            "balance": self.balance,
            "note": SIGN_MODEL_NOTE,
        }


def plus_minus_split_test(family: Family, m: int) -> SplitReport:
    """Spin-coefficient averages restricted to each sign subfamily."""
    family.spec.check_split(m)
    vals = coefficient_values(family, m)
    plus, minus = (_average(m, vals[family.epsilons == sign])
                   for sign in (1, -1))
    # the signs are +-1, so their sum is the plus count less the minus one
    balance = abs(int(family.epsilons.sum())) / len(family)
    return SplitReport(m=plus.m, plus=plus, minus=minus, balance=balance)


# ---------------------------------------------------------------------------
# output


def write_family_csv(family: Family, fh) -> None:
    """Dump rows form_id,prime,a,b,epsilon; floats use repr round-trip.

    Rows go out _CSV_BLOCK forms at a time, the primes of each form in
    increasing order.  No field ever needs quoting."""
    fh.write("form_id,prime,a,b,epsilon\n")
    primes = sorted(family.points)
    for start in range(0, len(family), _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, len(family))
        ids = list(map(str, range(start, stop)))
        eps = list(map(str, family.epsilons[start:stop].tolist()))
        rows = []
        for p in primes:
            block = family.points[p][start:stop]
            rows.append(map(",".join, zip(
                ids, itertools.repeat(str(p)),
                map(repr, block[:, 0].tolist()),
                map(repr, block[:, 1].tolist()), eps)))
        fh.write("\n".join(itertools.chain.from_iterable(zip(*rows)))
                 + "\n")
