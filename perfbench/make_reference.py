#!/usr/bin/env python3
"""Write the gate's reference outputs: every seed slot and dataset of a workload.

    python3 perfbench/make_reference.py analyze_m120 [analyze_m500 ...]

The committed references were taken from the code at the commit that added
this benchmark. Regenerating them from later code would let a changed result
pass the gate, so do it only when an output is meant to change, and say so.
"""

import os
import shutil
import sys

import run  # noqa: F401  (sets one BLAS thread and the import paths)

import checks
import workloads


def main(names: list[str]) -> int:
    nproc = len(os.sched_getaffinity(0))
    for name in names:
        workload = workloads.WORKLOADS[name]
        workdir = os.path.join(run.ROOT, ".bench_work", f"reference-{name}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        cases = {}
        try:
            for slot in range(workloads.SLOTS):
                inputs = workload.prepare(workdir, slot)
                for j in range(workload.datasets):
                    res = workload.session(inputs, j, os.path.join(workdir, "out"), nproc)
                    fields = {k: v for k, v in res.observed.items() if k != "fits_json_mb"}
                    workload.check(res, fields)  # invariants; the comparison is with itself
                    if res.failed:
                        raise RuntimeError(f"{name} slot {slot} dataset {j}: {res.problems}")
                    cases[f"{slot}.{j}"] = fields
                    print(f"{name} {slot}.{j}: {res.command_s:.2f} s", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        checks.save_reference(os.path.join(run.HERE, "reference", f"{name}.npz"), cases)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
