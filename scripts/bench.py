#!/usr/bin/env python3
"""Run the benchmark over fixed seeds and record one point of the BENCH trajectory,
or compare a change with its parent in alternating pairs.

    python3 scripts/bench.py --label baseline
    python3 scripts/bench.py --label mychange --repo ../other-checkout
    python3 scripts/bench.py --parent ../parent-checkout --pairs 10 --workload analyze_m120 --claim throughput_per_s

With `--label`, for every workload and each of the fixed seeds 1-5 this
runs a 20 s `perfbench/run.py --trace 0` of the checkout at `--repo`
(default: the checkout holding this script) in a fresh process, one run at
a time. It writes `BENCH_<label>.json` in the current directory with each
end-to-end metric's median and quartiles over the seeds, every run's
values, the environment block the benchmark prints, and the git revision
measured (`dirty` is true when tracked files differ from it).

With `--parent`, it runs `--pairs` pairs of one workload, pair i at seed
`--seed` + i: the parent checkout and the checkout at `--repo` each run
once for the same 20 s, the parent first in even pairs and second in odd
ones, so that drift in the host's speed falls on both sides alike. It
prints every pair, then per end-to-end metric of BENCHMARK.json each
side's median and quartiles, the relative change of the medians, and in
how many pairs the change did better, followed by a verdict line. The
metric named by `--claim` holds its gain when the change won at least 9 in
10 of the pairs and its median moved the better way by more than the
parent's interquartile range. Any other metric is within its bound when
the change's median is no worse than the parent's by more than the
BENCHMARK.json bound, and unresolved when either side's interquartile
range exceeds the bound (relative to its median).

Run both sides of `--parent` from sibling copies, two directories in one
parent directory: the location of a checkout alone moves small analyze
timings. One tree in its own checkout against the same files copied beside
the parent read as a 1.5% `throughput_per_s` loss on `analyze_m120`, in
0 of 10 pairs. The script warns on stderr when the two are not siblings.

Either way the script exits 1 when any run fails the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("analyze_m120", "analyze_m500", "simulate_binomial")
# Fixed so that the committed BENCH_*.json files compare with one another.
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 20.0


def git_revision(repo: str) -> dict:
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", repo, *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def run_once(repo: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result line, environment block) of one `perfbench/run.py` run."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=repo, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr.strip()}")
    env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")), {})
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    """Median and quartiles (inclusive method, so one run gives all three equal)."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def end_to_end_metrics(repo: str) -> dict:
    """{metric: ("lower" or "higher", relative bound)}, the end-to-end metrics BENCHMARK.json declares."""
    with open(os.path.join(repo, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}


def verdict(direction: str, bound: float, parent: dict, change: dict, wins: int, pairs: int, claimed: bool) -> str:
    """The verdict on one metric from both sides' summaries (see the module docstring)."""
    sign = -1.0 if direction == "lower" else 1.0
    if claimed:
        need = math.ceil(0.9 * pairs)
        gain = sign * (change["median"] - parent["median"])
        iqr = parent["q3"] - parent["q1"]
        held = wins >= need and gain > iqr
        return (f"claimed gain {'holds' if held else 'NOT SHOWN'}: better in {wins}/{pairs} (need {need}), "
                f"median gain {gain:.4g} against parent IQR {iqr:.4g}")
    spreads = [(s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0 for s in (parent, change)]
    if max(spreads) > bound:
        return f"unresolved: IQR/median parent {spreads[0]:.1%}, change {spreads[1]:.1%} exceeds the {bound:.0%} bound"
    limit = parent["median"] * (1.0 - sign * bound)
    within = sign * (change["median"] - limit) >= 0.0
    return f"{'within' if within else 'OUTSIDE'} the {bound:.0%} bound: change median {change['median']:.4g}, limit {limit:.4g}"


def compare_pairs(parent: str, change: str, workload: str, pairs: int, first_seed: int, claim: str | None) -> bool:
    """Run and report the alternating pairs; False when any run fails the gate."""
    metrics = end_to_end_metrics(change)
    sides = {"parent": [], "change": []}
    ok = True
    for i in range(pairs):
        seed = first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, _ = run_once(parent if side == "parent" else change, workload, seed, SECONDS)
            ok = ok and result["correct"] and result["failed"] == 0
            sides[side].append({name: m["value"] for name, m in result["metrics"].items()})
        print(f"pair {i} seed {seed} ({order[0]} first): "
              + " ".join(f"{name} {sides['parent'][-1][name]:.4g} -> {sides['change'][-1][name]:.4g}"
                         for name in metrics), flush=True)
    for name, (direction, bound) in metrics.items():
        before = [run[name] for run in sides["parent"]]
        after = [run[name] for run in sides["change"]]
        wins = sum((a < b) if direction == "lower" else (a > b) for a, b in zip(after, before))
        p, c = summarize(before), summarize(after)
        shift = (c["median"] - p["median"]) / p["median"] if p["median"] else float("nan")
        print(f"{workload} {name} ({direction} is better): "
              f"parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
              f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
              f"median {shift:+.1%}, parent IQR {p['q3'] - p['q1']:.4g}, change better in {wins}/{pairs}")
        print(f"{workload} {name} verdict: {verdict(direction, bound, p, c, wins, pairs, name == claim)}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--label", help="name of this point; the file is BENCH_<label>.json")
    mode.add_argument(
        "--parent",
        help="checkout to compare with in alternating pairs; a sibling of --repo (same parent directory), "
        "since a checkout's location alone moves small timings",
    )
    parser.add_argument("--repo", default=ROOT, help="checkout whose perfbench/run.py and src/ are measured")
    parser.add_argument("--pairs", type=int, default=10, help="number of pairs (with --parent)")
    parser.add_argument("--workload", choices=WORKLOADS, help="workload to compare (with --parent)")
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair (with --parent)")
    parser.add_argument("--claim", help="end-to-end metric whose gain is claimed (with --parent)")
    args = parser.parse_args(argv)
    if args.parent is not None:
        if args.workload is None or args.pairs < 1:
            parser.error("--parent needs --workload and at least one pair")
        if args.claim is not None and args.claim not in end_to_end_metrics(args.repo):
            parser.error(f"--claim must name an end-to-end metric of BENCHMARK.json, got {args.claim!r}")
        homes = {os.path.dirname(os.path.realpath(path)) for path in (args.parent, args.repo)}
        if len(homes) > 1:
            print(f"warning: --parent {args.parent} and --repo {args.repo} are not in one directory; "
                  "a checkout's location alone can move small timings", file=sys.stderr)
        return 0 if compare_pairs(args.parent, args.repo, args.workload, args.pairs, args.seed, args.claim) else 1

    record = {
        "label": args.label,
        "revision": git_revision(args.repo),
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "environment": None,
        "workloads": {},
    }
    ok = True
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            result, env = run_once(args.repo, workload, seed, SECONDS)
            record["environment"] = record["environment"] or env
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": metrics})
            ok = ok and result["correct"] and result["failed"] == 0
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
        names = runs[0]["metrics"]
        record["workloads"][workload] = {
            "metrics": {name: summarize([r["metrics"][name] for r in runs]) for name in names},
            "runs": runs,
        }
    out = f"BENCH_{args.label}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
