"""Steadiness evidence: two interleaved sets of runs of the same code.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

Run from the root of a checkout.  For each seed 1..runs and workload the
benchmark command from ``BENCHMARK.json`` runs twice in fresh processes,
once for set A and once for set B, alternating which set goes first.
For every end-to-end metric and workload it prints each set's median
and quartiles (``statistics.quantiles(values, n=4)``), each set's
spread (the quartile distance as a share of the median), how far set B's
median is from set A's, and the bound ``BENCHMARK.json`` fixes.  A row
agrees when both spreads stay within the bound and neither median is worse than the other by more than the bound.  The
share of failed operations must also match exactly between the sets.

It ends with the bound each metric's measured spread calls for: three
times the largest spread or median difference seen on any workload,
rounded up to a multiple of 0.05 and capped at the 0.25 the benchmark
format allows.

Exits 0 when everything agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = ("A", "B")
MAX_BOUND = 0.25


def one_run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    if argv[0] == "python3":
        argv[0] = sys.executable
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile distance / median.

    ``statistics.quantiles`` with its default (exclusive) method, as the
    benchmark's acceptance check computes it; with three or more values
    every quartile lies within the samples.
    """
    first, median, third = statistics.quantiles(values, n=4)
    return median, first, third, (third - first) / median


def worse_by(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    change = (other - base) / base
    return change if better == "lower" else -change


def report(bench: dict, results: dict) -> bool:
    """Print the comparison table and the bounds the spreads call for;
    whether every row agrees."""
    agree = True
    widest = {metric["name"]: 0.0 for metric in bench["end_to_end"]}
    print(f"{'workload':<14}{'metric':<15}{'set':>4}{'median':>12}{'q1':>12}"
          f"{'q3':>12}{'spread':>8}{'B-A':>8}{'bound':>7}  verdict")
    for workload, by_set in results.items():
        shares = {
            name: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for name, runs in by_set.items()
        }
        if len(set(shares.values())) != 1 or not all(
            r["correct"] for runs in by_set.values() for r in runs
        ):
            agree = False
            print(f"{workload}: failed shares {shares} or an incorrect run")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = {
                label: spread([r["metrics"][name]["value"] for r in runs])
                for label, runs in by_set.items()
            }
            drift = max(
                worse_by(rows["A"][0], rows["B"][0], metric["better"]),
                worse_by(rows["B"][0], rows["A"][0], metric["better"]),
            )
            spreads = [row[3] for row in rows.values()]
            widest[name] = max(widest[name], drift, *spreads)
            ok = drift <= bound and all(share <= bound for share in spreads)
            agree &= ok
            for label, (median, first, third, share) in rows.items():
                tail = (
                    f"{(rows['B'][0] - rows['A'][0]) / rows['A'][0]:>+8.3f}"
                    f"{bound:>7.2f}  {'agree' if ok else 'DISAGREE'}"
                    if label == "B" else ""
                )
                print(f"{workload:<14}{name:<15}{label:>4}{median:>12.5g}"
                      f"{first:>12.5g}{third:>12.5g}{share:>8.3f}{tail}")
    print("\nbound the measured spread calls for (3 x widest, to 0.05, cap 0.25):")
    for name, width in widest.items():
        called = min(MAX_BOUND, math.ceil(3 * width / 0.05 - 1e-9) * 0.05)
        print(f"  {name:<15} widest {width:.3f}  bound {called:.2f}")
    return agree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (default: all)")
    options = parser.parse_args(argv)
    if options.runs < 3:
        parser.error("--runs must be at least 3 for quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = options.workload or [w["name"] for w in bench["workloads"]]
    results = {w: {label: [] for label in SETS} for w in workloads}
    for number in range(options.runs):
        seed = 1 + number
        order = SETS if number % 2 == 0 else SETS[::-1]
        for workload in workloads:
            for label in order:
                result = one_run(bench["command"], workload, seed,
                                 bench["run_seconds"])
                results[workload][label].append(result)
                print(f"[{workload} seed {seed} set {label}] "
                      + json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                      file=sys.stderr, flush=True)
    return 0 if report(bench, results) else 1


if __name__ == "__main__":
    sys.exit(main())
