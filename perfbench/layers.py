"""The traced run: times each layer's public functions from outside.

Nothing in the package is edited.  :class:`LayerClock` replaces a public
function or method with a timing wrapper, in its defining module and in
every loaded ``repro`` module that imported it by name, and puts the
original back on :meth:`LayerClock.uninstall`.  A wrapper counts only its
outermost call, so a function reached again from inside itself (a
``where`` compiling its branches) is timed once.  Work counts come from
the package's own ``repro.obs`` counters.

Layers, from the service down to the logic kernels:

* ``server`` -- request parsing and response encoding;
* ``hlu``    -- surface parsing, update compilation, apply, queries and
  the audit trail;
* ``blu``    -- the BLU-C operators;
* ``logic``  -- subsumption reduction, resolution closure, SAT and CNF
  conversion.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections.abc import Callable
from contextlib import contextmanager

#: ``(module[:class], attribute, layer name)`` for every timed function.
SERVER = (
    ("repro.server.protocol", "parse_request", "server.parse_request"),
    ("repro.server.protocol", "encode", "server.encode"),
)
HLU = (
    ("repro.hlu.surface", "parse_updates", "hlu.surface_parse"),
    ("repro.hlu.audit:SessionAudit", "begin", "hlu.audit.begin"),
    ("repro.hlu.audit:SessionAudit", "commit", "hlu.audit.commit"),
    ("repro.hlu.session:IncompleteDatabase", "apply", "hlu.apply"),
    ("repro.hlu.session:IncompleteDatabase", "is_certain", "hlu.query"),
    ("repro.hlu.session:IncompleteDatabase", "is_possible", "hlu.query"),
    ("repro.hlu.language:_SimpleUpdate", "compile", "hlu.compile"),
    ("repro.hlu.language:Where", "compile", "hlu.compile"),
)
BLU = (
    ("repro.blu.clausal_impl:ClausalImplementation", "op_assert", "blu.assert"),
    ("repro.blu.clausal_impl", "clausal_combine", "blu.combine"),
    ("repro.blu.clausal_impl", "clausal_complement", "blu.complement"),
    ("repro.blu.clausal_mask", "clausal_mask", "blu.mask"),
    ("repro.blu.clausal_genmask", "clausal_genmask", "blu.genmask"),
)
LOGIC = (
    ("repro.logic.clauses:ClauseSet", "reduce", "logic.reduce"),
    ("repro.logic.resolution", "rclosure", "logic.rclosure"),
    ("repro.logic.sat", "solve", "logic.sat"),
    ("repro.logic.cnf", "formula_to_clauses", "logic.cnf"),
    ("repro.logic.cnf", "formulas_to_clauses", "logic.cnf"),
)
ALL = SERVER + HLU + BLU + LOGIC

#: ``repro.obs`` counters the per-layer metrics read.
OBS_COUNTERS = (
    "logic.reduce.subset_tests",
    "logic.reduce.sig_skips",
    "logic.resolution.resolvents_formed",
    "logic.resolution.tautologies_discarded",
    "logic.sat.solve_calls",
    "logic.sat.decisions",
)


class LayerClock:
    """Inclusive seconds and outermost-call counts per layer name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._active: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    def install(self, after: dict[str, Callable[[], None]] | None = None) -> None:
        """Wrap every function in :data:`ALL`; ``after`` maps a layer name
        to a hook run after each of its calls."""
        after = after or {}
        for target, attribute, name in ALL:
            module_name, _, class_name = target.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                self._replace(owner, attribute, original,
                              self._wrap(original, name, after.get(name)))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(original, name, after.get(name))
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "repro" or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def _replace(self, owner, attribute, original, wrapper) -> None:
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def _wrap(self, original, name: str, after: Callable[[], None] | None):
        seconds = self.seconds
        calls = self.calls
        active = self._active
        seconds.setdefault(name, 0.0)
        calls.setdefault(name, 0)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if name in active:
                return original(*args, **kwargs)
            active.add(name)
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[name] += clock() - started
                calls[name] += 1
                active.discard(name)
                if after is not None:
                    after()

        timed.__wrapped__ = original
        return timed

    def snapshot(self) -> dict:
        return {"seconds": dict(self.seconds), "calls": dict(self.calls)}


class Tracer:
    """A :class:`LayerClock` plus ``repro.obs`` counter deltas, summed
    over every traced round."""

    def __init__(self) -> None:
        self.clock = LayerClock()
        self.counters = dict.fromkeys(OBS_COUNTERS, 0)

    @contextmanager
    def active(self):
        """Trace the body; yields a hook to call after each operation."""
        from repro import obs

        self.clock.install()
        obs.enable()
        before = obs_counts()
        try:
            # Spans are not read; dropping them per operation keeps
            # memory flat over a long run.
            yield obs.tracer().clear
        finally:
            after = obs_counts()
            obs.disable()
            self.clock.uninstall()
            for name in after:
                self.counters[name] += after[name] - before[name]


def alternate(
    seconds: float, plain: Callable[[], float], traced: Callable[[], float]
) -> tuple[list[float], list[float]]:
    """Alternate plain and traced rounds, one pair at a time, until
    ``seconds`` have passed; returns both lists of round walls.

    Pairing the rounds exposes both sides to the same host speed, so
    :func:`overhead` measures the tracing and not a drift.
    """
    deadline = time.perf_counter() + seconds
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    while not traced_walls or time.perf_counter() < deadline:
        plain_walls.append(plain())
        traced_walls.append(traced())
    return plain_walls, traced_walls


def overhead(plain: list[float], traced: list[float]) -> float:
    """``trace.overhead_s``: the median of traced minus plain wall over
    the pairs :func:`alternate` ran.  Below zero when the tracing costs
    less than the host's round-to-round noise."""
    return statistics.median(t - p for p, t in zip(plain, traced))


def obs_counts() -> dict[str, int]:
    """The ``repro.obs`` counters this benchmark reads, as they stand."""
    from repro import obs

    counts = obs.counters().counts
    return {name: counts.get(name, 0) for name in OBS_COUNTERS}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(
    clock: dict,
    counters: dict[str, int],
    plain: list[float],
    traced: list[float],
    server: dict[str, float] | None = None,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from one traced run.

    ``clock`` is a :meth:`LayerClock.snapshot` and ``counters`` the
    ``repro.obs`` counter deltas, both over the ``traced`` rounds;
    ``plain`` holds the untraced round walls paired with them.
    ``server`` carries the figures read from the service's ``stats``
    reply.  A layer the workload never enters reads 0.
    """
    seconds = clock["seconds"]
    calls = clock["calls"]
    rounds = len(traced)

    def per_call(name: str, scale: float) -> float:
        return _ratio(seconds.get(name, 0.0), calls.get(name, 0)) * scale

    def per_round_ms(name: str) -> float:
        return seconds.get(name, 0.0) * 1e3 / rounds

    def count(name: str) -> float:
        return calls.get(name, 0) / rounds

    server = server or {}
    metrics: dict[str, tuple[float, str]] = {
        "server.update_ms": (server.get("update_ms", 0.0), "ms/op"),
        "server.query_ms": (server.get("query_ms", 0.0), "ms/op"),
        "server.wire_ms": (server.get("wire_ms", 0.0), "ms/op"),
        "server.parse_request_us": (per_call("server.parse_request", 1e6), "us/op"),
        "server.encode_us": (per_call("server.encode", 1e6), "us/op"),
        "hlu.surface_parse_us": (per_call("hlu.surface_parse", 1e6), "us/op"),
        "hlu.audit_us": (
            _ratio(
                seconds.get("hlu.audit.begin", 0.0)
                + seconds.get("hlu.audit.commit", 0.0),
                calls.get("hlu.audit.begin", 0),
            ) * 1e6,
            "us/op",
        ),
        "hlu.apply_ms": (per_call("hlu.apply", 1e3), "ms/op"),
        "hlu.compile_us": (per_call("hlu.compile", 1e6), "us/op"),
        "hlu.query_ms": (per_call("hlu.query", 1e3), "ms/op"),
    }
    for operator in ("assert", "combine", "complement", "mask", "genmask"):
        metrics[f"blu.{operator}.calls"] = (count(f"blu.{operator}"), "count/round")
        metrics[f"blu.{operator}_ms"] = (per_round_ms(f"blu.{operator}"), "ms/round")
    subset_tests = counters.get("logic.reduce.subset_tests", 0)
    sig_skips = counters.get("logic.reduce.sig_skips", 0)
    formed = counters.get("logic.resolution.resolvents_formed", 0)
    tautologies = counters.get("logic.resolution.tautologies_discarded", 0)
    metrics.update({
        "logic.reduce.calls": (count("logic.reduce"), "count/round"),
        "logic.reduce_ms": (per_round_ms("logic.reduce"), "ms/round"),
        "logic.reduce.subset_tests": (subset_tests / rounds, "count/round"),
        "logic.reduce.sig_skip_ratio": (
            _ratio(sig_skips, sig_skips + subset_tests), "ratio"),
        "logic.rclosure_ms": (per_round_ms("logic.rclosure"), "ms/round"),
        "logic.resolution.resolvents_formed": (formed / rounds, "count/round"),
        "logic.resolution.tautology_ratio": (
            _ratio(tautologies, tautologies + formed), "ratio"),
        "logic.sat_ms": (per_round_ms("logic.sat"), "ms/round"),
        "logic.sat.solve_calls": (
            counters.get("logic.sat.solve_calls", 0) / rounds, "count/round"),
        "logic.sat.decisions": (
            counters.get("logic.sat.decisions", 0) / rounds, "count/round"),
        "logic.cnf_ms": (per_round_ms("logic.cnf"), "ms/round"),
        "trace.overhead_s": (overhead(plain, traced), "s/round"),
    })
    return metrics
