#!/usr/bin/env python3
"""Operating characteristics of the TDP machinery under the exact model.

Bypasses fitting entirely: coefficient differences are drawn straight from
the Gaussian model the window tests assume (true covariance, zero bias), so
the chi-square nulls are exact. The resulting error rates are the reference
that the simulated error tables are judged against: an implementation whose
fitted statistics follow the assumed model reproduces them within Monte
Carlo error. The computation is `smoothdiff.simulate.exact_model_error_rates`,
which the acceptance suite calls too.
"""

import argparse
import sys

from smoothdiff.errors import ParameterError
from smoothdiff.simulate import EXACT_MODEL_CASES, exact_model_error_rates


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        rates = exact_model_error_rates(args.replicates, args.seed)
    except ParameterError as exc:
        parser.error(str(exc))
    for nz, _, _ in EXACT_MODEL_CASES:
        print(f"{nz}/120 planted differences, exact model, {args.replicates} replicates:")
        for (case, alpha, tau), (mean, se, _) in sorted(rates.items()):
            if case == nz:
                print(f"  alpha={alpha} tdp={tau}: error={mean:.4f} +- {se:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
