#!/usr/bin/env python3
"""Sweep the minimum effect size and summarize TDP behavior in bins.

Reproduces the effect-size curve experiments (the `fig5`, `fig6` and `fig8`
presets): empirical TDP of the selected regions, the bound estimated on the
truly different region, and how much of the truth each region covers, each
binned over the preset's sweep range for plotting.
"""

import argparse
import csv
import sys
from dataclasses import replace

import numpy as np

from smoothdiff.simulate import PRESETS
from smoothdiff.errors import ParameterError
from smoothdiff.simulate import run_scenario

SWEEPS = sorted(name for name, scenario in PRESETS.items() if scenario.m_delta_sweep is not None)


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=SWEEPS, default="fig5")
    parser.add_argument("--replicates", type=int, default=None, help="override the preset's replicate count")
    parser.add_argument("--bins", type=int, default=10)
    parser.add_argument("--seed", type=int, default=None, help="override the preset's seed")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", default="sweep_summary.csv")
    args = parser.parse_args(argv)
    for flag in ("bins", "threads"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be at least 1, got {getattr(args, flag)}")

    overrides = {"n_replicates": args.replicates, "seed": args.seed}
    try:
        scenario = replace(PRESETS[args.preset], **{k: v for k, v in overrides.items() if v is not None})
        outcome = run_scenario(scenario, threads=args.threads)
    except ParameterError as exc:
        parser.error(str(exc))
    (alpha,) = scenario.alphas
    good = [r for r in outcome.records if not r.failed]
    print(f"{len(good)} replicates ({outcome.n_failed} failed)")

    edges = np.linspace(*scenario.m_delta_sweep, args.bins + 1)
    rows = []
    for tau in scenario.thresholds:
        for b in range(args.bins):
            lo, hi = edges[b], edges[b + 1]
            in_bin = [r for r in good if lo <= r.m_delta < hi or (b == args.bins - 1 and r.m_delta == hi)]
            emp = [
                reg.empirical_tdp
                for r in in_bin
                for reg in r.regions
                if reg.tau == tau and reg.empirical_tdp is not None
            ]
            covg = [
                reg.truth_coverage
                for r in in_bin
                for reg in r.regions
                if reg.tau == tau and reg.truth_coverage is not None
            ]
            truth_tdp = [r.truth_region_tdp.get(alpha) for r in in_bin if r.truth_region_tdp]
            rows.append(
                {
                    "tdp_threshold": tau,
                    "effect_lo": lo,
                    "effect_hi": hi,
                    "n": len(in_bin),
                    "mean_empirical_tdp": float(np.mean(emp)) if emp else "",
                    "mean_truth_coverage": float(np.mean(covg)) if covg else "",
                    "mean_truth_region_bound": float(np.mean(truth_tdp)) if truth_tdp else "",
                }
            )
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    for row in rows:
        if row["tdp_threshold"] == scenario.thresholds[0]:
            print(
                f"  effect [{row['effect_lo']:.2f}, {row['effect_hi']:.2f}): "
                f"truth-region bound {row['mean_truth_region_bound'] or float('nan'):.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(run())
