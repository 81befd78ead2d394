"""The `predict` workload: criterion 4's library calls in one process.

Runs n = 1..3 (betas 0.9 | 0.45, 0.4 | 0.3, 0.28, 0.25) through the
determinant route (`kernels.prediction_with_error`, which
`n_level_prediction` returns the value of) and the combinatorial route
(`kernels.rubinstein_with_error`, likewise behind `rubinstein_rhs`) for
sign +1 (SO(even)) and -1 (Sp),
then the combinatorial route alone for n = 4..8 at beta 0.1.  The n = 3
determinant route cannot go through the `rmt` command, which would
first run the exponential general-n statistic.

    python3 bench/predict.py --out RESULTS.json --spans SPANS.jsonl [--trace]

RESULTS holds every value with its reported error (the primary output,
hashed by the orchestrator); SPANS holds one span per call, plus the
wrapped layers when --trace is given.  Threads are pinned before numpy
loads, as the CLI does, so a BLAS-based route is timed on one thread.
"""

import argparse
import json
import os
import sys

from tracing import Tracer, instrument, pin_threads

CASES = ((0.9,), (0.45, 0.4), (0.3, 0.28, 0.25))
WIDE_N = range(4, 9)
WIDE_BETA = 0.1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    pin_threads(os.environ)
    from lowlying import kernels

    tracer = Tracer()
    if args.trace:
        instrument(tracer)
    groups = {1: kernels.SOEVEN, -1: kernels.SP}
    calls = []

    def run(route, sign, betas):
        phis = [kernels.fejer_test_function(b) for b in betas]
        with tracer.span("predict." + route, n=len(betas), sign=sign):
            if route == "determinant":
                value, error = kernels.prediction_with_error(groups[sign],
                                                             phis)
            else:
                value, error = kernels.rubinstein_with_error(sign, phis)
        calls.append({"route": route, "sign": sign, "betas": list(betas),
                      "value": float(value), "error": float(error)})

    try:
        for betas in CASES:
            for sign in (1, -1):
                run("combinatorial", sign, betas)
                run("determinant", sign, betas)
        for n in WIDE_N:
            for sign in (1, -1):
                run("combinatorial", sign, (WIDE_BETA,) * n)
    finally:
        tracer.dump(args.spans)
    with open(args.out, "w") as fh:
        json.dump({"calls": calls}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
