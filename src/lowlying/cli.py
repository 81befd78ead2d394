"""Reproducible command-line experiments over the package modules.

Every parameter is an argparse flag.  A flat key=value config file
given with --config supplies flags too (a key names a flag, with
underscores or dashes), and explicit flags override it; every primary
output embeds the resolved configuration it ran with.  Thread-count
environment variables are pinned to one before numpy first loads (this
module imports nothing heavy at import time on purpose), so outputs
never depend on the host's BLAS threading.

Exit codes: 0 all checks passed; 1 a check that could have passed did
not; 2 usage, domain or i/o error (a bad request raises UsageError or
ValueError before any compute); 3 numeric machinery failure
(summary.NumericFailure).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

__all__ = ["main", "read_config", "UsageError"]

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class UsageError(Exception):
    """Bad parameters or config; maps to exit code 2.  Not a ValueError,
    which argparse would rewrap when a type converter raises it."""


def _pin_threads():
    # must run before numpy's first import anywhere in the process so
    # the BLAS pool is created single-threaded
    for var in _THREAD_VARS:
        os.environ[var] = "1"


def _numeric_failure():
    from lowlying.summary import NumericFailure
    return NumericFailure


# ---------------------------------------------------------------------------
# config plumbing


def read_config(path: str) -> dict:
    """Flat key=value lines; blank lines and # comments are ignored."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError("cannot read config file: %s" % (exc,))
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError("config line %d is not key=value: %r"
                             % (lineno, line))
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _to_int(raw):
    try:
        return int(raw)
    except ValueError:
        raise UsageError("expected an integer, got %r" % (raw,))


def _to_float(raw):
    try:
        return float(raw)
    except ValueError:
        raise UsageError("expected a number, got %r" % (raw,))


def _to_positive(raw):
    value = _to_float(raw)
    if not value > 0.0:  # NaN fails this too
        raise UsageError("expected a positive number, got %s" % (raw,))
    return value


def _to_bool(raw):
    text = raw.strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise UsageError("expected a boolean, got %r" % (raw,))


def _list_of(cast):
    """A converter of comma-separated text to a list of `cast` values."""
    what = "integer" if cast is _to_int else "number"

    def convert(raw):
        parts = [s for s in raw.split(",") if s.strip()]
        if not parts:
            raise UsageError("expected a comma-separated %s list" % what)
        return [cast(s.strip()) for s in parts]

    return convert


def _to_pair_list(raw):
    pairs = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise UsageError("expected weight pairs like 4,4;5,4, got %r"
                             % (chunk,))
        pairs.append((_to_int(parts[0].strip()), _to_int(parts[1].strip())))
    if not pairs:
        raise UsageError("expected at least one weight pair")
    return pairs


def _expand_config(argv, options):
    """argv with each --config FILE's keys spliced in as --key=value flags
    right after the command name, so that explicit flags, parsed later,
    override them.  Any prefix of --config that argparse accepts counts,
    but a key must name one of the command's `options` exactly.  An
    unknown command is left for argparse to report."""
    if not argv or argv[0] not in options:
        return argv
    flags = []
    for arg, after in zip(argv, argv[1:] + [None]):
        name, eq, path = arg.partition("=")
        path = path if eq else after
        if len(name) > 2 and "--config".startswith(name) and path:
            for key, value in read_config(path).items():
                flag = "--" + key.replace("_", "-")
                if flag not in options[argv[0]]:
                    raise UsageError("config key %r names no flag of %s"
                                     % (key, argv[0]))
                flags.append("%s=%s" % (flag, value))
    return argv[:1] + flags + argv[1:]


def _text(value):
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    if isinstance(value, list):
        sep = ";" if isinstance(value[0], tuple) else ","
        return sep.join(map(_text, value))
    return str(value)


def _echo(args):
    """The resolved parameters as strings: lists joined with "," and
    weight pairs with ";"."""
    return {key: _text(value) for key, value in vars(args).items()
            if key not in ("config", "func", "command")}


def _finite_json(value):
    """`value` with each non-finite float as the string "inf", "-inf" or
    "nan", since strict JSON parsers reject Python's bare Infinity."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {k: _finite_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    return value


def _finish(args, path, ok, payload):
    """Write `payload`, the command, its configuration and `ok` as "pass"
    to `path` in strict, sorted JSON; return the exit code for `ok`."""
    record = dict(payload, command=args.command, config=_echo(args))
    record["pass"] = ok
    text = json.dumps(_finite_json(record), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# commands


# density grid points per density_mu_p call
_DENSITY_BLOCK = 1 << 16


def _cmd_density(args):
    import numpy as np

    from lowlying import measures

    if args.grid < 2:
        raise UsageError("grid must be at least 2")
    target = min(args.tol, 1e-8)
    spec = measures.vertical_measure(args.p)
    # normalize first, so a quadrature failure leaves no partial CSV
    mass = float(measures.integrate(spec, lambda a, b: np.ones_like(a),
                                    tol=target))
    xs = np.linspace(-2.0, 2.0, args.grid)
    ys = xs.tolist()
    # blocks of rows on a sparse mesh, so memory does not grow as grid^2
    step = max(1, _DENSITY_BLOCK // args.grid)
    with open(args.out, "w", newline="") as fh:
        fh.write("x,y,density\n")
        for start in range(0, args.grid, step):
            rows = xs[start:start + step]
            block = measures.density_mu_p(spec, rows[:, None], xs[None, :])
            for x, row in zip(rows.tolist(), block.tolist()):
                fh.writelines("%r,%r,%r\n" % (x, y, d)
                              for y, d in zip(ys, row))
    err = abs(mass - 1.0)
    return _finish(args, args.out + ".json", err < args.tol, {
        "p": args.p,
        "grid": args.grid,
        "normalization": mass,
        "normalization_error": err,
    })


def _cmd_moments(args):
    from lowlying import hecke, measures

    if args.nmax < 1:
        raise UsageError("nmax must be at least 1")
    target = args.tol / 10.0
    if len(set(args.primes)) != len(args.primes):
        raise UsageError("primes must be distinct, got %s" % (args.primes,))
    args.primes = sorted(args.primes)
    # checks every prime before any quadrature
    specs = [measures.vertical_measure(p) for p in args.primes]
    rows = []
    for p, spec in zip(args.primes, specs):
        for n in range(1, args.nmax + 1):
            quad = float(measures.integrate(
                spec, lambda x, y, _n=n: hecke.spin_coeff_grid(x, y, _n)[_n],
                tol=target))
            prediction = hecke.main_term_spin(p ** n)
            err = abs(quad - prediction)
            rows.append({
                "p": p,
                "n": n,
                "quadrature": quad,
                "prediction": prediction,
                "abs_err": err,
                "pass": err < args.tol,
            })
    return _finish(args, args.out, all(row["pass"] for row in rows),
                   {"tol": args.tol, "rows": rows})


def _cmd_rmt(args):
    from lowlying import kernels, rmt

    spec = rmt.EnsembleSpec(group=args.group, size=args.size,
                            samples=args.samples, seed=args.seed)
    phis = [kernels.fejer_test_function(b) for b in args.beta]
    report = rmt.ensemble_average(spec, phis, args.include_zero)
    return _finish(args, args.out, abs(report.z_score) < args.zmax, {
        "report": report.to_json_dict(),
        "zmax": args.zmax,
    })


def _cmd_family(args):
    from lowlying import family as family_mod

    if args.joint_primes is None:
        args.joint_primes = args.primes[:2]
    spec = family_mod.FamilySpec(primes=tuple(args.primes), forms=args.forms,
                                 seed=args.seed, epsilon_rule=args.rule)
    for m in args.m:
        spec.factor(m)
    spec.check_joint(args.joint_primes, args.joint_degree)
    if args.rule == "balanced":
        spec.check_split(args.split_m)
    fam = family_mod.generate_family(spec)
    averages = [family_mod.average_coefficient(fam, m) for m in args.m]
    joint = family_mod.joint_sato_tate_test(fam, args.joint_primes,
                                            args.joint_degree)
    ok = all(abs(r.z_score) < args.zmax for r in averages) \
        and joint.max_abs_z < args.zmax
    split = None
    if args.rule == "balanced":
        split = family_mod.plus_minus_split_test(fam, args.split_m)
        ok = ok and abs(split.plus.z_score) < args.zmax \
            and abs(split.minus.z_score) < args.zmax
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            family_mod.write_family_csv(fam, fh)
    return _finish(args, args.out, ok, {
        "averages": [r.to_json_dict() for r in averages],
        "joint": joint.to_json_dict(),
        "split": split.to_json_dict() if split else None,
        "zmax": args.zmax,
    })


def _cmd_dims(args):
    from fractions import Fraction

    from lowlying import paramodular

    levels = [paramodular.LevelData.from_level(n) for n in args.levels]
    reports = [paramodular.dimension_report(k1, k2, level)
               for k1, k2 in args.weights for level in levels]
    reports.sort(key=lambda r: (r.k1, r.k2, r.level.n))
    with open(args.out, "w", newline="") as fh:
        fh.write("k1,k2,N,dim_main,dim_new_main,c_N\n")
        for r in reports:
            fh.write("%d,%d,%d,%r,%r,%r\n" % (
                r.k1, r.k2, r.level.n, float(r.main_term),
                float(r.newform_main_term), float(r.c)))
    c_ok = all(r.c == 1 if r.level.n == 1
               else Fraction(1) < r.c < Fraction(5) for r in reports)
    return _finish(args, args.out + ".json", c_ok,
                   {"rows": len(reports), "c_bound_pass": c_ok})


# ---------------------------------------------------------------------------
# entry point


def _check_out_dirs(args):
    """Reject an --out or --csv path that is a directory or whose directory
    does not exist, so the command fails before it computes rather than
    when it writes."""
    for path in (args.out, getattr(args, "csv", "")):
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            raise UsageError("output directory %s does not exist" % (folder,))
        if os.path.isdir(path):
            raise UsageError("output path %s is a directory" % (path,))


class _Parser(argparse.ArgumentParser):
    """Reports a parse error as a UsageError, so main prints one line."""

    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(
        prog="lowlying",
        description="Reproducible experiments: measures, moments, matrix "
                    "ensembles, synthetic families, dimension tables.")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command's option strings, which config keys must name exactly
    parser.options = {}

    def add(name, help_text, func, **params):
        # params maps each flag's dest to its (cast, default)
        sp = sub.add_parser(name, help=help_text)
        flags = ["--" + dest.replace("_", "-") for dest in params]
        sp.add_argument("--config", help="flat key=value config file")
        for flag, (cast, default) in zip(flags, params.values()):
            sp.add_argument(flag, type=cast, default=default)
        sp.add_argument("--out", required=True)
        sp.set_defaults(func=func)
        parser.options[name] = {"--config", "--out", *flags}

    add("density", "export a density grid plus normalization record",
        _cmd_density, p=(_to_int, 2), grid=(_to_int, 41),
        tol=(_to_positive, 1e-8))
    add("moments", "quadrature coefficient moments against main terms",
        _cmd_moments, primes=(_list_of(_to_int), [2, 3, 5]),
        nmax=(_to_int, 6), tol=(_to_positive, 1e-6))
    add("rmt", "ensemble statistic against its kernel prediction",
        _cmd_rmt, group=(str, None), size=(_to_int, 30),
        samples=(_to_int, 20000), seed=(_to_int, 20260822),
        beta=(_list_of(_to_float), [0.9]), include_zero=(_to_bool, True),
        zmax=(_to_positive, 3.0))
    add("family", "synthetic family averages, joint moments, sign split",
        _cmd_family, primes=(_list_of(_to_int), [2, 3, 5]),
        forms=(_to_int, 100000), seed=(_to_int, 20260822),
        rule=(str, "balanced"),
        m=(_list_of(_to_int), [1, 2, 4, 9, 12, 36]),
        joint_primes=(_list_of(_to_int), None), joint_degree=(_to_int, 2),
        split_m=(_to_int, 4), zmax=(_to_positive, 3.0), csv=(str, ""))
    add("dims", "dimension main-term table over weights and levels",
        _cmd_dims, weights=(_to_pair_list, [(4, 4)]),
        levels=(_list_of(_to_int), [1]))
    return parser


def main(argv=None) -> int:
    _pin_threads()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        args = parser.parse_args(_expand_config(argv, parser.options))
        _check_out_dirs(args)
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    except SystemExit:  # --help; the clause below would load numpy
        raise
    except _numeric_failure() as exc:
        print("numeric failure: %s" % (exc,), file=sys.stderr)
        return 3
    except OSError as exc:
        print("i/o error: %s" % (exc,), file=sys.stderr)
        return 2
