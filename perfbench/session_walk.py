"""session-walk: the library's ``IncompleteDatabase`` with no server.

Each round runs the same fixed script: for every one of ``WALKS`` seeded
satisfiable 3-CNF knowledge bases, a fresh session over the base and a
walk of ``STEPS`` operations -- certain/possible queries, asserts of
clauses the state allows, insert, delete, modify, where and undo.  Many
short walks over many bases keep any one base or any one expensive mask
from setting the round's time.

An untimed checking pass runs the script first, in a child process
(``python perfbench/session_walk.py SEED``) so that its states do not
count towards ``peak_rss_mb``.  It resolves which
assert candidates the state allows, checks the HLU postconditions, and
records every query answer and each walk's final fingerprint; the timed
rounds are then compared against those records.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field

from common import (
    ROOT,
    HostSpeed,
    OpLog,
    child_env,
    emit,
    latency_metrics,
    median_setup,
    probe_start,
    self_peak_rss_mb,
)

LETTERS = 20
KB_CLAUSES = 30
WALKS = 256

#: The operations of every walk, as counts; the seed only orders them.
#: Exact counts, not sampled shares: modify and where cost several times
#: an insert, so a sampled mix would let the seed set the round's work.
#: Many short walks, for the same reason: a walk's cost grows with its
#: state, and 32 walks of 60 steps varied by a third between seeds.
MIX = (
    ("certain", 3),
    ("possible", 3),
    ("insert", 3),
    ("delete", 1),
    ("modify", 1),
    ("where", 1),
    ("assert", 2),
    ("undo", 1),
)
STEPS = sum(count for _, count in MIX)
UPDATES = ("insert", "delete", "modify", "where", "assert")
QUERIES = ("certain", "possible")
ASSERT_CANDIDATES = 4


@dataclass
class Walk:
    kb: object
    steps: list[tuple] = field(default_factory=list)
    expected: list[object] = field(default_factory=list)
    final: object = None


def knowledge_bases(seed: int):
    """``WALKS`` seeded satisfiable 3-CNF bases over ``LETTERS`` letters."""
    from repro.logic.propositions import Vocabulary
    from repro.logic.sat import is_satisfiable
    from repro.workloads.generators import random_clause_set

    rng = random.Random(seed * 7919 + 1)
    vocabulary = Vocabulary.standard(LETTERS)
    bases = []
    while len(bases) < WALKS:
        candidate = random_clause_set(rng, vocabulary, KB_CLAUSES, width=3)
        if is_satisfiable(candidate):
            bases.append(candidate)
    return bases


def new_session(kb):
    from repro.db.schema import DbSchema
    from repro.hlu.session import IncompleteDatabase

    return IncompleteDatabase(DbSchema.of(kb.vocabulary.names), initial=kb)


def generate(seed: int) -> list[Walk]:
    """The raw walks: bases plus op scripts with assert candidates."""
    from repro.logic.clauses import clause_to_formula
    from repro.workloads.generators import random_clause, random_formula

    bases = knowledge_bases(seed)
    rng = random.Random(seed * 7919 + 2)
    vocabulary = bases[0].vocabulary

    def clause(width: int) -> str:
        return str(clause_to_formula(vocabulary, random_clause(rng, LETTERS, width)))

    walks = []
    for kb in bases:
        walk = Walk(kb)
        pending = [kind for kind, count in MIX for _ in range(count)]
        rng.shuffle(pending)
        depth = 0
        while pending:
            # An undo with nothing to undo waits for the next other op;
            # updates outnumber undos, so one always remains.
            index = 0 if depth or pending[0] != "undo" else next(
                i for i, kind in enumerate(pending) if kind != "undo"
            )
            kind = pending.pop(index)
            if kind in QUERIES:
                walk.steps.append((kind, str(random_formula(rng, vocabulary, depth=2))))
            elif kind == "insert":
                walk.steps.append((kind, clause(2)))
            elif kind == "delete":
                walk.steps.append((kind, clause(1)))
            elif kind in ("modify", "where"):
                walk.steps.append((kind, clause(1), clause(1)))
            elif kind == "assert":
                walk.steps.append(
                    (kind, [clause(3) for _ in range(ASSERT_CANDIDATES)])
                )
            else:
                walk.steps.append((kind,))
            depth += -1 if kind == "undo" else int(kind in UPDATES)
        walks.append(walk)
    return walks


def _do(db, step):
    """Run one step through the public session API; a query's answer."""
    from repro.hlu import language

    kind = step[0]
    if kind == "certain":
        return db.is_certain(step[1])
    if kind == "possible":
        return db.is_possible(step[1])
    if kind == "insert":
        db.insert(step[1])
    elif kind == "delete":
        db.delete(step[1])
    elif kind == "modify":
        db.modify([step[1]], [step[2]])
    elif kind == "where":
        db.where(step[1], language.insert(step[2]))
    elif kind == "assert":
        db.assert_(step[1])
    else:
        db.undo()
    return None


def check(walks: list[Walk]) -> list[str]:
    """The untimed checking pass; resolves each walk's script in place.

    Returns every postcondition that failed.
    """
    from repro.logic.clauses import ClauseSet, clause_props
    from repro.logic.cnf import formula_to_clauses
    from repro.logic.parser import parse_formula
    from repro.logic.sat import entails_clauses

    problems: list[str] = []
    for number, walk in enumerate(walks):
        db = new_session(walk.kb)
        vocabulary = walk.kb.vocabulary
        fingerprints = []
        depth = 0
        script = []
        for raw in walk.steps:
            kind = raw[0]
            where = f"walk {number} step {len(script)} {kind}"
            step = raw
            if kind == "assert":
                allowed = [c for c in raw[1] if db.is_possible(c)]
                step = ("assert", allowed[0]) if allowed else ("possible", raw[1][0])
            elif kind == "undo" and depth == 0:
                step = ("certain", "A1 | ~A1")
            kind = step[0]
            if kind in QUERIES:
                formula = step[1]
                certain = db.is_certain(formula)
                possible = db.is_possible(formula)
                if certain != (not db.is_possible(f"~({formula})")):
                    problems.append(f"{where}: certain(f) != not possible(~f)")
                if possible != (not db.is_certain(f"~({formula})")):
                    problems.append(f"{where}: possible(f) != not certain(~f)")
                script.append(step)
                walk.expected.append(certain if kind == "certain" else possible)
                continue
            before = db.state
            if kind == "undo":
                _do(db, step)
                depth -= 1
                if db.clauses().fingerprint != fingerprints.pop():
                    problems.append(f"{where}: undo did not restore the state")
            else:
                fingerprints.append(db.clauses().fingerprint)
                _do(db, step)
                depth += 1
            script.append(step)
            walk.expected.append(None)
            if kind in ("insert", "delete"):
                target = step[1] if kind == "insert" else f"~({step[1]})"
                if not db.is_certain(target):
                    problems.append(f"{where}: {target} is not certain")
                letters = formula_to_clauses(parse_formula(step[1]), vocabulary).prop_indices
                untouched = ClauseSet(
                    vocabulary,
                    (c for c in before.clauses if not clause_props(c) & letters),
                )
                if not entails_clauses(db.state, untouched):
                    problems.append(f"{where}: an untouched clause was lost")
            elif kind == "assert" and not db.is_certain(step[1]):
                problems.append(f"{where}: asserted clause is not certain")
            elif kind == "where" and not db.is_certain(f"({step[1]}) -> ({step[2]})"):
                problems.append(f"{where}: condition does not imply the insert")
        walk.steps = script
        walk.final = db.clauses().fingerprint
    return problems


def run_round(walks: list[Walk], log: OpLog, between_ops) -> int:
    """One timed round; returns the number of answers and final states
    that differ from the checking pass.

    Each walk's session open and each step is timed on its own;
    ``between_ops`` runs after each, outside every timer, as do the
    comparisons with the checking pass.
    """
    from repro.errors import ReproError

    clock = time.perf_counter
    mismatches = 0
    for walk in walks:
        begun = clock()
        db = new_session(walk.kb)
        log.record("open", clock() - begun, begun)
        between_ops()
        for step, expected in zip(walk.steps, walk.expected):
            begun = clock()
            try:
                answer = _do(db, step)
            except ReproError:
                log.record(step[0], clock() - begun, begun, ok=False)
                between_ops()
                continue
            log.record(step[0], clock() - begun, begun)
            if answer != expected:
                mismatches += 1
            between_ops()
        if db.clauses().fingerprint != walk.final:
            mismatches += 1
    log.end_round()
    return mismatches


def checked_walks(seed: int) -> tuple[list[Walk], list[str]]:
    """The walks of ``seed`` after the checking pass, and its problems.

    The pass runs in a child process (this file as a script), so the
    states it builds stay out of this process's ``peak_rss_mb``; only the
    resolved scripts and the expected answers come back.
    """
    walks = generate(seed)
    output = subprocess.run(
        [sys.executable, __file__, str(seed)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, check=True,
    ).stdout
    record = json.loads(output)
    for walk, steps, expected, final in zip(
        walks, record["steps"], record["expected"], record["final"]
    ):
        walk.steps = [tuple(step) for step in steps]
        walk.expected = expected
        count, mask, digest = final
        walk.final = (count, mask, bytes.fromhex(digest))
    return walks, record["problems"]


def _check_and_print(seed: int) -> None:
    walks = generate(seed)
    problems = check(walks)
    print(json.dumps({
        "problems": problems,
        "steps": [walk.steps for walk in walks],
        "expected": [walk.expected for walk in walks],
        "final": [
            [walk.final[0], walk.final[1], walk.final[2].hex()] for walk in walks
        ],
    }))


def run(seed: int, seconds: float, trace: bool) -> None:
    speed = HostSpeed()
    setup_s = median_setup(probe_start("session-walk", seed), speed)
    walks, problems = checked_walks(seed)
    ops_per_round = len(walks) + sum(len(walk.steps) for walk in walks)
    log = OpLog()
    mismatches = 0

    def timed_round(between_ops=speed.tick) -> float:
        nonlocal mismatches
        started = time.perf_counter()
        mismatches += run_round(walks, log, between_ops)
        return time.perf_counter() - started

    if not trace:
        deadline = time.perf_counter() + seconds
        while not log.rounds or time.perf_counter() < deadline:
            timed_round()
        peak = self_peak_rss_mb()
        print("raw times:")
        print(log.table())
        scaled = log.scaled(speed)
        notes: list[str] = []
        wall = scaled.round_seconds()
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (ops_per_round / wall, "1/s"),
            **latency_metrics(scaled, "update", UPDATES, notes),
            **latency_metrics(scaled, "query", QUERIES, notes),
            "peak_rss_mb": (peak, "MiB"),
        }
        notes.append(f"raw round time {log.round_seconds():.4f} s")
    else:
        from layers import Tracer, alternate, per_layer_metrics

        tracer = Tracer()

        def traced_round() -> float:
            with tracer.active() as after_op:
                return timed_round(after_op)

        plain, traced = alternate(seconds, lambda: timed_round(_nothing), traced_round)
        notes = [f"{len(plain)} plain and {len(traced)} traced rounds"]
        metrics = per_layer_metrics(
            tracer.clock.snapshot(),
            tracer.counters,
            plain,
            traced,
        )
    for line in problems[:20] + notes:
        print(line)
    print(f"{ops_per_round} ops per round; {mismatches} answers differ from the checking pass")
    emit(
        not problems and mismatches == 0,
        log.total_attempted(),
        log.total_failed(),
        metrics,
    )


def _nothing() -> None:
    pass


if __name__ == "__main__":
    _check_and_print(int(sys.argv[1]))
