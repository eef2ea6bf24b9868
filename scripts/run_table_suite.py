#!/usr/bin/env python3
"""Reproduce the simulation studies at configurable scale.

By default runs the six studies: the tables' presets (table1a, table1b,
tableS1) and the effect-size figures' (fig5, fig6, fig8). Full-scale runs
match the published settings (2000/1000 replicates); pass --replicates for a
faster pass. Each preset runs at its own seed unless --seed overrides it.
Results land in --out as JSON + CSV and the headline numbers print to stdout;
each sweep study's binned effect-size summary (`<preset>_sweep.csv`) comes
with its run, so no study runs twice.
"""

import argparse
import sys
import time

from smoothdiff.cli import main as cli_main
from smoothdiff.simulate import PRESET_ALIASES, PRESETS


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=None, help="override preset replicate count")
    parser.add_argument("--seed", type=int, default=None, help="override every preset's seed")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", default="table_suite_out")
    parser.add_argument(
        "--presets",
        nargs="+",
        default=[name for name in PRESETS if name not in PRESET_ALIASES],
        help="presets to run (table2a/table2b share runs with table1a/table1b)",
    )
    args = parser.parse_args(argv)

    for preset in args.presets:
        cmd = [
            "simulate",
            "--preset", preset,
            "--threads", str(args.threads),
            "--out", args.out,
        ]
        for flag, value in (("--replicates", args.replicates), ("--seed", args.seed)):
            if value is not None:
                cmd += [flag, str(value)]
        start = time.perf_counter()
        rc = cli_main(cmd)
        print(f"-- {preset} finished in {time.perf_counter() - start:.0f}s (rc={rc})\n")
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(run())
