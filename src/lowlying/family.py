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

# forms per write in write_family_csv: bounds the arrays held at once
_CSV_BLOCK = 4096

# the fast path of _repr_fields: the binades [2^k, 2^(k+1)), k = -10..0,
# biased exponent fields 1013..1023, each with its decimal scale
# s = 17 + ceil(-k log10 2), 5^s and the shift 54 - k - s (37..43)
_SCALES = np.array([17 + next(c for c in itertools.count()
                              if 10 ** c >= 2 ** -k) for k in range(-10, 1)])
_POW5 = (5 ** _SCALES).astype(np.uint64)
_SHIFTS = (54 - np.arange(-10, 1) - _SCALES).astype(np.uint64)
_POW10 = np.array([10 ** t for t in range(20)], np.uint64)
# the ASCII of 0000..9999, 4 bytes in a uint32
_QUADS = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10
          + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# _KEEP[c] & the 20 bytes of a row, as 5 uint32, makes its first c bytes 0
_KEEP = np.where(np.arange(20) >= np.arange(21)[:, None], 0xFF, 0).astype(
    np.uint8).view(np.uint32)
# the longest repr of a float: '-2.2250738585072014e-308'
_FIELD = 24


def _digit_columns(mag, blank):
    """The 20 decimal digits of each uint64 in `mag`, as (len(mag), 20)
    ASCII columns, the first `blank` of each row replaced by 0 bytes."""
    out = np.empty((len(mag), 5), np.uint32)
    for at in range(4, -1, -1):
        high = mag // 10000  # a floor division by a scalar beats divmod
        out[:, at] = _QUADS.take(mag - high * 10000)
        mag = high
    out &= _KEEP[blank]
    return out.view(np.uint8)


def _int_fields(values):
    """str of each integer in `values`, all of magnitude below 2^63, as
    rows of ASCII, right-aligned and padded on the left with 0 bytes."""
    values = np.asarray(values, np.int64)
    neg = values < 0
    mag = np.abs(values).astype(np.uint64)
    lead = 20 - np.searchsorted(_POW10, mag, side="right").clip(1) - neg
    out = _digit_columns(mag, lead)
    out[np.flatnonzero(neg), lead[neg]] = ord("-")
    return out[:, lead.min():]


def _mul_shift(a, b, shift):
    """floor(a b / 2^shift) for uint64 a < 2^55, b < 2^49 and shift in
    [37, 43] whose result is below 2^63, exactly, from 32-bit limbs."""
    a0, a1 = a & 0xFFFFFFFF, a >> 32
    b0, b1 = b & 0xFFFFFFFF, b >> 32
    # a b = a1 b1 2^64 + mid 2^32 + (a0 b0 mod 2^32), every part < 2^64
    mid = a1 * b0 + a0 * b1 + (a0 * b0 >> 32)
    rest = shift - 32
    return (a1 * b1 << 32 - rest) + (mid >> rest)


def _repr_fields(x):
    """repr of each float in the 1-D float64 array x, as a (len(x),
    _FIELD) uint8 array of ASCII padded on the right with 0 bytes.

    A finite x with 2^-10 <= |x| < 2 takes the fast path, Ryu's shortest
    digits (Adams, PLDI 2018) in exact integer arithmetic; repr prints
    such an x in fixed point.  Every other value (zeros, subnormals,
    1e-05, +-2.0, nan, infinities) is formatted by repr.

    Write |x| = m2 2^e2 with 2^52 <= m2 < 2^53 and binade k = e2 + 52.
    At the scale s = 17 + ceil(-k log10 2), with sh = 54 - k - s in
    [37, 43], x and the bounds x -+ 2^e2 / 2 of the reals that round to
    it scale to
        vr, vm, vp = floor((4 m2 + d) 5^s / 2^sh),  d = 0, -2, +2,
    with 10^17 <= x 10^s < 2 10^18 < 2^63 and vp - vm >= 22.

    Three of Ryu's branches cannot run here, so none is written:
    - vp and vm are never exact, for 4 m2 +- 2 has one trailing zero
      bit and exactness needs sh >= 37: no bound is ever a candidate, so
      the rules for accepting bounds, decrementing vp and the second
      (trailing-zero vm) loop go.  Only vr can be exact, when
      2^(sh - 2) divides m2.
    - A power of two's lower neighbour is nearer, and Ryu narrows its
      interval below.  Here each, 2^-10..1, is a decimal of at most 7
      significant digits, and every other decimal that short lies over
      2^k 10^-8 away, so in either interval it is the shortest and
      nearest: the symmetric interval gives its digits.
    - Ryu rounds up when the kept digits equal vm's, which lie below the
      interval.  In a symmetric interval x is then nearer the next
      candidate up, so rounding to nearest already goes up.

    The number of digits removed, j, is the largest t with a multiple of
    10^t in (vm, vp], that is with vp mod 10^t < vp - vm: j >= 1, as
    vp - vm >= 22, and t > 2 is tried on the shrinking set of values
    that still gain a digit.  floor(vr / 10^j) then rounds to nearest
    by the removed digits, a tie (possible only when vr is exact) to
    even.  That is the shortest decimal in the interval nearest x, which
    is what repr prints.
    """
    bits = x.view(np.uint64)
    row = (bits >> 52 & 0x7FF) - 1013  # wraps below the domain
    slow = np.flatnonzero(row > 10)
    row = np.minimum(row, 10)  # the slow rows are overwritten below
    shift = _SHIFTS[row]
    mv = (bits & 0xFFFFFFFFFFFFF | 1 << 52) << 2  # 4 m2
    vr, vp, vm = _mul_shift(np.stack([mv, mv + 2, mv - 2]), _POW5[row],
                            shift)
    gap = vp - vm
    removed = 1 + (vp % 100 < gap)
    live = np.flatnonzero(removed > 1)
    for p10 in _POW10[3:]:
        live = live[vp[live] % p10 < gap[live]]
        if not live.size:
            break
        removed[live] += 1
    p10 = _POW10[removed]
    digits = vr // p10
    rest, half = vr - digits * p10, p10 >> 1
    exact = mv & (np.uint64(1) << shift) - 1 == 0
    tie_down = (rest == half) & exact & (digits & 1 == 0)
    digits += (rest > half) | (rest == half) & ~tie_down
    places = _SCALES[row] - removed  # digits after the point
    one = row == 10  # 1 <= |x| < 2
    out = np.empty((len(x), _FIELD), np.uint8)
    out[:, 0] = ord("-") * (bits >> 63).astype(np.uint8)
    out[:, 1] = ord("0") + one
    out[:, 2] = ord(".")
    # the fraction right-aligned, 0 bytes ahead of it: 1.0 keeps one place
    out[:, 3:23] = _digit_columns(
        digits - _POW10[np.minimum(places, 19)] * one,
        20 - np.maximum(places, 1))
    out[:, 23] = 0
    for i, value in zip(slow.tolist(), x[slow].tolist()):
        text = repr(value).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def write_family_csv(family: Family, fh) -> None:
    """Dump rows form_id,prime,a,b,epsilon to the text file fh; every
    float is written as its repr, so it reads back to the same bits.

    _CSV_BLOCK forms at a time, the primes of each form in increasing
    order, are laid out as fixed-width byte records padded with 0 bytes
    and written with one fh.write, the 0 bytes removed.  `_repr_fields`
    computes repr's characters in bulk for |x| in [2^-10, 2), where the
    sampler draws, and calls repr for every other float.  The bytes are
    those of csv.writer writing one row per form and prime; no field
    ever needs quoting."""
    fh.write("form_id,prime,a,b,epsilon\n")
    primes = sorted(family.points)
    sep, end = np.frombuffer(b",", np.uint8), np.frombuffer(b"\n", np.uint8)
    prime_fields = np.array([b"%d" % p for p in primes]).view(
        np.uint8).reshape(1, len(primes), -1)
    for start in range(0, len(family), _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, len(family))
        ab = np.stack([family.points[p][start:stop] for p in primes],
                      axis=1).astype(float, copy=False)
        values = _repr_fields(ab.ravel()).reshape(ab.shape + (_FIELD,))
        parts = [_int_fields(np.arange(start, stop))[:, None], sep,
                 prime_fields, sep, values[:, :, 0], sep, values[:, :, 1],
                 sep, _int_fields(family.epsilons[start:stop])[:, None], end]
        rec = np.concatenate([np.broadcast_to(
            part, ab.shape[:2] + part.shape[-1:]) for part in parts], axis=-1)
        fh.write(rec.tobytes().translate(None, b"\0").decode("ascii"))
