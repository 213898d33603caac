"""Shared pieces of the benchmark: paths, exact quantiles, fresh-process
set-up timing, peak memory, and the result line every workload prints."""

from __future__ import annotations

import bisect
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

#: The checkout the benchmark runs in: the directory above ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

#: How many fresh processes each run starts to time set-up; the median is
#: reported, so one slow process start does not move ``setup_s``.
SETUP_REPEATS = 11

#: The fewest samples a p99 may rest on (ten samples beyond it).
P99_MIN_SAMPLES = 1000

#: Seconds between host-speed samples (:class:`HostSpeed`); each costs
#: about a millisecond, so they take about 2% of a run.
SPEED_INTERVAL = 0.05
#: How many host-speed samples around a moment give its speed.
SCALE_WINDOW = 5
#: What :func:`reference_work` costs at the reference speed, in seconds:
#: its typical cost on the reference host in a slow phase.
REFERENCE_COST = 0.0009


def child_env() -> dict[str, str]:
    """Environment for child Python processes: the package from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def temp_workdir() -> Path:
    """A fresh private directory inside the checkout, under ``.bench_tmp``.

    Paths handed to the server are made relative to :data:`ROOT`, which
    keeps Unix socket paths short however deep the checkout lies.
    """
    parent = ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=parent))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    parent = path.parent
    try:
        parent.rmdir()  # only succeeds once no other run uses it
    except OSError:
        pass


def quantile(sorted_values: list[float], q: float) -> float:
    """Exact nearest-rank quantile: the smallest sample with at least a
    share ``q`` of all samples at or below it."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class HostSpeed:
    """The host's CPU speed, sampled while a run goes on.

    On the 2-CPU reference host the same pure-Python work takes from 0.6
    to 1.0 ms depending on the moment, in phases that last seconds and
    come and go within a run and between runs; process CPU time rises
    with wall time, so the guest cannot tell a slow phase from its own
    work.  Every few tens of milliseconds, between operations and never
    inside one, the benchmark times one fixed piece of work of its own
    (:func:`reference_work`, about a millisecond, touching nothing of the
    package), and :meth:`scale` turns those samples into the factor that
    brings a time measured at a given moment to the reference speed: the
    reference work's cost :data:`REFERENCE_COST` over the median of its
    :data:`SCALE_WINDOW` samples nearest to that moment.  A change to the
    program moves every scaled time as it moves the raw one; a slow
    phase of the host moves the reference work with it and cancels.
    """

    def __init__(self, interval: float = SPEED_INTERVAL) -> None:
        self.interval = interval
        self.stamps: list[float] = []
        self.costs: list[float] = []
        self.due = 0.0

    def tick(self) -> None:
        """Sample the speed if :attr:`interval` has passed since the last
        sample; call it only between operations."""
        if time.perf_counter() >= self.due:
            self.sample()

    def sample(self, count: int = 1) -> None:
        clock = time.perf_counter
        for _ in range(count):
            started = clock()
            reference_work()
            ended = clock()
            self.stamps.append((started + ended) / 2)
            self.costs.append(ended - started)
        self.due = clock() + self.interval

    def scale(self, at: float) -> float:
        """Reference speed over the host's speed around the moment ``at``."""
        if not self.costs:
            raise RuntimeError("no speed samples")
        index = bisect.bisect_left(self.stamps, at)
        high = min(len(self.costs), max(index + SCALE_WINDOW // 2 + 1, SCALE_WINDOW))
        low = max(0, high - SCALE_WINDOW)
        return REFERENCE_COST / statistics.median(self.costs[low:high])


_REFERENCE_SETS = [
    frozenset(_rng.sample(range(40), _rng.randint(1, 6)))
    for _rng in [random.Random(5)]
    for _ in range(30)
]


def reference_work() -> int:
    """A fixed piece of pure-Python work in the kernels' style: subset
    tests, unions of small frozensets and dictionary updates."""
    hits = 0
    table: dict[frozenset, int] = {}
    for first in _REFERENCE_SETS:
        for second in _REFERENCE_SETS:
            if first <= second:
                hits += 1
            union = first | second
            table[union] = table.get(union, 0) + len(union)
    return hits + len(table)


class OpLog:
    """Per-op-type latency samples, the moment each began, and
    attempted/failed counts.

    Every round runs the same operations in the same order, so the
    ``i``-th sample of a kind in each round belongs to the same
    operation: its *position*.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.stamps: dict[str, list[float]] = {}
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.rounds = 0

    def record(self, kind: str, seconds: float, began: float, ok: bool = True) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        self.samples.setdefault(kind, []).append(seconds)
        self.stamps.setdefault(kind, []).append(began)
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1

    def end_round(self) -> None:
        self.rounds += 1

    def scaled(self, speed: HostSpeed) -> "OpLog":
        """A copy with every sample brought to the reference speed."""
        copy = OpLog()
        copy.attempted, copy.failed, copy.rounds = self.attempted, self.failed, self.rounds
        copy.stamps = self.stamps
        copy.samples = {
            kind: [
                seconds * speed.scale(began)
                for seconds, began in zip(values, self.stamps[kind])
            ]
            for kind, values in self.samples.items()
        }
        return copy

    def position_medians(self, kinds) -> list[float]:
        """For each position of the given kinds, the median of its
        samples over the run's whole rounds."""
        medians: list[float] = []
        for kind in kinds:
            values = self.samples.get(kind, [])
            if len(values) % self.rounds:
                raise RuntimeError(f"{kind}: {len(values)} samples in {self.rounds} rounds")
            per_round = len(values) // self.rounds
            medians.extend(
                statistics.median(values[position::per_round])
                for position in range(per_round)
            )
        return medians

    def round_seconds(self) -> float:
        """One round's time: the sum of every position's median."""
        return sum(self.position_medians(tuple(self.samples)))

    def to_json(self) -> dict:
        return {"samples": self.samples, "stamps": self.stamps,
                "attempted": self.attempted, "failed": self.failed,
                "rounds": self.rounds}

    @classmethod
    def merged_from(cls, records: list[dict]) -> "OpLog":
        """One log of the rounds of several :meth:`to_json` records, in
        order; positions line up since every round is the same."""
        log = cls()
        for record in records:
            for kind, values in record["samples"].items():
                log.samples.setdefault(kind, []).extend(values)
                log.stamps.setdefault(kind, []).extend(record["stamps"][kind])
            for kind, count in record["attempted"].items():
                log.attempted[kind] = log.attempted.get(kind, 0) + count
            for kind, count in record["failed"].items():
                log.failed[kind] = log.failed.get(kind, 0) + count
            log.rounds += record["rounds"]
        return log

    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    def total_failed(self) -> int:
        return sum(self.failed.values())

    def merged(self, kinds: tuple[str, ...]) -> list[float]:
        values: list[float] = []
        for kind in kinds:
            values.extend(self.samples.get(kind, ()))
        values.sort()
        return values

    def table(self) -> str:
        lines = [f"{'op':<12}{'attempted':>10}{'failed':>8}{'p50_ms':>10}{'p99_ms':>10}"]
        for kind in sorted(self.attempted):
            values = sorted(self.samples.get(kind, ()))
            p50 = f"{quantile(values, 0.5) * 1e3:.3f}" if values else "-"
            p99 = (
                f"{quantile(values, 0.99) * 1e3:.3f}"
                if len(values) >= P99_MIN_SAMPLES
                else "-"
            )
            lines.append(
                f"{kind:<12}{self.attempted[kind]:>10}"
                f"{self.failed.get(kind, 0):>8}{p50:>10}{p99:>10}"
            )
        return "\n".join(lines)


def latency_metrics(
    log: OpLog, prefix: str, kinds: tuple[str, ...], notes: list[str]
) -> dict[str, tuple[float, str]]:
    """``<prefix>_p50_ms`` and ``<prefix>_p99_ms`` over the given op kinds:
    exact nearest-rank quantiles over the operations of a round, each
    operation taken at its median over the run's rounds."""
    medians = sorted(log.position_medians(kinds))
    notes.append(
        f"{prefix}: {len(medians)} ops a round x {log.rounds} rounds "
        f"= {len(medians) * log.rounds} samples ({'+'.join(kinds)})"
    )
    return {
        f"{prefix}_p50_ms": (quantile(medians, 0.5) * 1e3, "ms"),
        f"{prefix}_p99_ms": (quantile(medians, 0.99) * 1e3, "ms"),
    }


def time_fresh_process(argv: list[str], ready: bytes = b"ready") -> float:
    """Seconds from starting ``argv`` until it prints a line starting with
    ``ready``; the process is then ended and waited for."""
    started = time.perf_counter()
    process = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        assert process.stdout is not None
        for line in process.stdout:
            if line.startswith(ready):
                return time.perf_counter() - started
        raise RuntimeError(f"{argv} exited before it was ready")
    finally:
        stop_process(process)


def stop_process(process: subprocess.Popen, grace: float = 10.0) -> None:
    """Terminate a child, kill it if it will not end, and wait for it."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    for stream in (process.stdout, process.stderr, process.stdin):
        if stream is not None:
            stream.close()


def median_setup(
    start: Callable[[], float], speed: HostSpeed, repeats: int = SETUP_REPEATS
) -> float:
    """Median over ``repeats`` calls of ``start``, which times one set-up
    in a fresh process, each brought to the reference speed with samples
    taken just before and after it; one untimed call first writes the
    bytecode caches a first run in a checkout would."""
    start()
    scaled = []
    for _ in range(repeats):
        speed.sample(SCALE_WINDOW // 2 + 1)
        began = time.perf_counter()
        seconds = start()
        speed.sample(SCALE_WINDOW // 2)
        scaled.append(seconds * speed.scale(began + seconds / 2))
    return statistics.median(scaled)


def probe_start(workload: str, seed: int) -> Callable[[], float]:
    """Times one fresh-process set-up probe of an in-process workload."""
    argv = [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)]
    return lambda: time_fresh_process(argv)


def self_peak_rss_mb() -> float:
    """This process's resident-set high-water mark in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another process's resident-set high-water mark (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: dict[str, tuple[float, str]],
) -> None:
    """Print the result object as the last line of standard output."""
    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(record), flush=True)
