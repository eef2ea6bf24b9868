#!/usr/bin/env python3
"""smoothdiff benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload analyze_m120 --seed 3 --seconds 20 --trace 0

Run from the repository root. `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics of a separate traced run. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and what each metric should show.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread per process: `simulate --threads <nproc>` then runs nproc
# single-threaded workers instead of oversubscribing the cores. Set before
# numpy loads OpenBLAS; forked pool workers inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "scripts")]


def blas_info() -> dict:
    """Version and current thread count of every OpenBLAS loaded in this process."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is not None and "threads" not in entry:
                    get.restype = ctypes.c_int
                    entry["threads"] = get()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        out[os.path.basename(path)] = entry
    return out


def l3_size() -> str | None:
    """Size of cpu0's level-3 cache as sysfs prints it (e.g. '32768K')."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level"), encoding="utf-8") as fh:
                if fh.read().strip() == "3":
                    with open(os.path.join(base, index, "size"), encoding="utf-8") as fh:
                        return fh.read().strip()
    except OSError:
        pass
    return None


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "l3": l3_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_info(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import numpy  # noqa: F401
        import scipy.linalg  # noqa: F401

        import smoothdiff.cli  # noqa: F401
        import demo_analysis  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START
    src = os.path.join(ROOT, "src", "")
    if not smoothdiff.cli.__file__.startswith(src):
        print(f"perfbench: smoothdiff was imported from {smoothdiff.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    refs = checks.load_reference(os.path.join(HERE, "reference", f"{workload.name}.npz"))
    nproc = len(os.sched_getaffinity(0))
    print("# env " + json.dumps(environment(nproc), sort_keys=True), flush=True)

    workdir = os.path.join(ROOT, ".bench_work", f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs, setup_s = workloads.set_up(workload, workdir, args.seed, nproc, import_s)
        probe = workload.probe(nproc)
        tally = workloads.Tally()
        loop = workloads.traced_loop if args.trace else workloads.timed_loop
        measured = loop(workload, inputs, refs, args.seed, args.seconds, workdir, nproc, tally, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    if args.trace:
        units = workloads.PER_LAYER
    else:
        units = workloads.END_TO_END
        # Set-up cannot be bracketed by probes like a session (the imports
        # come first), so it takes the run's median speed factor.
        measured.update(setup_s=setup_s * measured["speed_p50"], raw_setup_s=setup_s, peak_rss_mb=peak_rss_mb())
        record = {k: v for k, v in measured.items() if k not in units}
        print("# unscaled " + json.dumps(record, sort_keys=True))
    for problem in tally.problems:
        print(f"# gate {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
