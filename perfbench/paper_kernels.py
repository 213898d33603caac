"""paper-kernels: the BLU-C operators called directly, no HLU or session.

Each round makes the same fixed list of operator calls on seeded
families shaped like the paper's complexity experiments E2--E5:

* combine (default ``simplify``, so ``ClauseSet.reduce`` does most of the
  work) on random width-3 sets of Length 30 to 120 over 64 letters;
* complement on disjoint width-3 clauses, ``k`` clauses giving ``3^k``;
* mask on the star family (the hub's elimination squares the input) and
  on dense random 12-letter sets;
* genmask on E5's worst case, where one letter occurs but is
  independent, and on a few small random sets.

The seed draws the random sets, and the literal signs and a permutation
of the letters of the complement and star families, which keep their
cost on every seed; E5 is the same on every seed.

The timed rounds run in ``WORKERS`` fresh processes, one after another
(this file as a script), and their logs are merged.  After the timed
rounds every output is computed once more and checked:
against closed forms, against a pairwise product recomputed with plain
frozenset operations, and, for families of 16 letters or fewer, against
brute-force enumeration of the worlds.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass

from common import (
    ROOT,
    SCALE_WINDOW,
    HostSpeed,
    OpLog,
    child_env,
    emit,
    latency_metrics,
    median_setup,
    probe_start,
    self_peak_rss_mb,
)

UPDATES = ("combine", "complement", "mask")
QUERIES = ("genmask",)

COMBINE = ((30, 8), (60, 6), (90, 4), (120, 3))  # (Length of each side, pairs)
COMPLEMENT = ((4, 3), (5, 3), (6, 3), (7, 1))  # (clauses, instances)
STAR = (14, 24, 32, 48, 64)  # spokes
DENSE = ((2, 4), (3, 4), (4, 4), (5, 4))  # (letters masked, instances)
E5 = (6, 7, 8, 9)  # letters besides the independent one
# Random genmask instances, kept small and few: genmask's cost on random
# sets is heavy-tailed, and with 48 sets of 14 clauses over 8 letters the
# median genmask call varied by a quarter between seeds.  Below every E5
# call, they leave the genmask quantiles to the E5 family.
RANDOM_GENMASK = 4
GENMASK_LETTERS = 7
GENMASK_CLAUSES = 10

BRUTE_FORCE_LETTERS = 16

#: Fresh processes the timed rounds are split between.  A process's
#: memory layout is drawn when it starts and makes some calls a few per
#: cent faster or slower for its whole life: the complement at k = 7 took
#: a median 241-291 ms in five processes of the same seed.
WORKERS = 4


@dataclass
class Call:
    kind: str
    family: str
    args: tuple
    closed_form: object = None


def _permutation(rng: random.Random, count: int) -> list[int]:
    order = list(range(count))
    rng.shuffle(order)
    return order


def build_inputs(seed: int) -> list[Call]:
    """Every call of one round, in order."""
    from repro.logic.clauses import ClauseSet, clause_of, make_literal
    from repro.logic.propositions import Vocabulary
    from repro.workloads.generators import clause_set_of_length, random_clause_set

    rng = random.Random(seed * 104729 + 3)
    calls: list[Call] = []

    wide = Vocabulary.standard(64)
    for length, pairs in COMBINE:
        for _ in range(pairs):
            left = clause_set_of_length(rng, wide, length)
            right = clause_set_of_length(rng, wide, length)
            calls.append(Call("combine", f"combine-{length}", (left, right)))

    for clause_count, instances in COMPLEMENT:
        for _ in range(instances):
            letters = _permutation(rng, 3 * clause_count)
            vocabulary = Vocabulary.standard(3 * clause_count)
            state = ClauseSet(vocabulary, (
                clause_of(
                    make_literal(letters[3 * i + j], rng.random() < 0.5)
                    for j in range(3)
                )
                for i in range(clause_count)
            ))
            calls.append(Call(
                "complement", f"complement-{clause_count}", (state,),
                3 ** clause_count,
            ))

    for spokes in STAR:
        letters = _permutation(rng, spokes + 1)
        vocabulary = Vocabulary.standard(spokes + 1)
        hub = letters[0]
        state = ClauseSet(vocabulary, (
            clause_of((make_literal(hub, i % 2 == 0), make_literal(letters[1 + i])))
            for i in range(spokes)
        ))
        calls.append(Call(
            "mask", f"star-{spokes}", (state, frozenset((hub,))),
            (spokes // 2) * (spokes - spokes // 2),
        ))

    dense = Vocabulary.standard(12)
    for masked, instances in DENSE:
        for _ in range(instances):
            state = random_clause_set(rng, dense, 40, width=3)
            letters = frozenset(rng.sample(range(12), masked))
            calls.append(Call("mask", f"dense-{masked}", (state, letters)))

    # E5 is the same on every seed, with the independent letter last and
    # first: genmask's cost depends on the order of the letters, and a
    # permuted E5 at k = 9 varied twofold.
    for k in E5:
        vocabulary = Vocabulary.standard(k + 1)
        for z, name in ((k, "last"), (0, "first")):
            others = [letter for letter in range(k + 1) if letter != z]
            state = ClauseSet(vocabulary, (
                clause_of((make_literal(z, positive), make_literal(letter)))
                for letter in others
                for positive in (True, False)
            ))
            calls.append(Call(
                "genmask", f"e5-{k}-{name}", (state,), frozenset(others),
            ))

    small = Vocabulary.standard(GENMASK_LETTERS)
    for _ in range(RANDOM_GENMASK):
        state = random_clause_set(rng, small, GENMASK_CLAUSES, width=3)
        calls.append(Call("genmask", "genmask-random", (state,)))
    return calls


def _operator(kind: str):
    from repro.blu.clausal_genmask import clausal_genmask
    from repro.blu.clausal_impl import clausal_combine, clausal_complement
    from repro.blu.clausal_mask import clausal_mask

    return {
        "combine": clausal_combine,
        "complement": clausal_complement,
        "mask": clausal_mask,
        "genmask": clausal_genmask,
    }[kind]


def _summary(result):
    """What a timed round compares: a genmask's letters, a state's size."""
    return sorted(result) if isinstance(result, frozenset) else len(result)


def run_round(calls, operators, log: OpLog, expected: list, between_ops) -> None:
    """One timed round; each call is timed on its own, and
    ``between_ops`` and the comparison of outputs run outside the timers."""
    clock = time.perf_counter
    for number, call in enumerate(calls):
        begun = clock()
        result = operators[number](*call.args)
        log.record(call.kind, clock() - begun, begun)
        summary = _summary(result)
        if len(expected) <= number:
            expected.append(summary)
        elif expected[number] != summary:
            expected[number] = None  # differs between rounds
        between_ops()
    log.end_round()


# --- checks -------------------------------------------------------------------


def _clause_masks(clause_set) -> list[tuple[int, int]]:
    masks = []
    for clause in clause_set.clauses:
        positive = negative = 0
        for literal in clause:
            if literal > 0:
                positive |= 1 << (literal - 1)
            else:
                negative |= 1 << (-literal - 1)
        masks.append((positive, negative))
    return masks


def models(clause_set) -> set[int]:
    """Every world (a bit per letter) satisfying the clause set."""
    masks = _clause_masks(clause_set)
    return {
        world
        for world in range(1 << len(clause_set.vocabulary))
        if all(world & positive or ~world & negative for positive, negative in masks)
    }


def flip_closure(worlds: set[int], letters) -> set[int]:
    closed = set(worlds)
    for letter in letters:
        closed |= {world ^ (1 << letter) for world in closed}
    return closed


def dependency(worlds: set[int], letter_count: int) -> frozenset[int]:
    """``Dep``: the letters whose flip leaves the world set."""
    return frozenset(
        letter
        for letter in range(letter_count)
        if any(world ^ (1 << letter) not in worlds for world in worlds)
    )


def _minimal(clauses) -> frozenset:
    kept: list[frozenset] = []
    for clause in sorted(clauses, key=len):
        if not any(other <= clause for other in kept):
            kept.append(clause)
    return frozenset(kept)


def check_call(call: Call, result) -> list[str]:
    where = call.family
    problems = []
    if call.kind == "combine":
        left, right = call.args
        product = set()
        for a in left.clauses:
            for b in right.clauses:
                merged = a | b
                if not any(-literal in merged for literal in merged):
                    product.add(merged)
        if result.clauses != _minimal(product):
            problems.append(f"{where}: combine differs from the reduced pairwise product")
    elif call.closed_form is not None:
        size = result if call.kind == "genmask" else len(result)
        if size != call.closed_form:
            problems.append(f"{where}: got {size}, closed form {call.closed_form}")
    state = call.args[0]
    letter_count = len(state.vocabulary)
    if call.kind != "combine" and letter_count <= BRUTE_FORCE_LETTERS:
        worlds = models(state)
        if call.kind == "complement":
            wanted = set(range(1 << letter_count)) - worlds
            ok = models(result) == wanted
        elif call.kind == "mask":
            ok = models(result) == flip_closure(worlds, call.args[1])
        else:
            ok = result == dependency(worlds, letter_count)
        if not ok:
            problems.append(f"{where}: differs from brute-force enumeration")
    return problems


def check(calls, operators, expected: list) -> list[str]:
    problems = []
    for number, call in enumerate(calls):
        result = operators[number](*call.args)
        if expected[number] != _summary(result):
            problems.append(f"{call.family}: timed rounds disagree with the check")
        problems.extend(check_call(call, result))
    return problems


# --- the run ------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool) -> None:
    speed = HostSpeed()
    setup_s = median_setup(probe_start("paper-kernels", seed), speed)
    calls = build_inputs(seed)
    operators = [_operator(call.kind) for call in calls]
    if not trace:
        records = [timed_worker(seed, seconds / WORKERS) for _ in range(WORKERS)]
        log = OpLog.merged_from([record["raw"] for record in records])
        scaled = OpLog.merged_from([record["scaled"] for record in records])
        expected = [
            answers[0] if all(answer == answers[0] for answer in answers) else None
            for answers in zip(*(record["expected"] for record in records))
        ]
        print("raw times:")
        print(log.table())
        notes: list[str] = []
        wall = scaled.round_seconds()
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (len(calls) / wall, "1/s"),
            **latency_metrics(scaled, "update", UPDATES, notes),
            **latency_metrics(scaled, "query", QUERIES, notes),
            "peak_rss_mb": (max(record["peak_rss_mb"] for record in records), "MiB"),
        }
        notes.append(f"raw round time {log.round_seconds():.4f} s; "
                     f"rounds per worker {[record['raw']['rounds'] for record in records]}")
    else:
        from layers import Tracer, alternate, per_layer_metrics

        log = OpLog()
        expected: list = []
        tracer = Tracer()

        def timed_round(operators_, between_ops) -> float:
            started = time.perf_counter()
            run_round(calls, operators_, log, expected, between_ops)
            return time.perf_counter() - started

        def traced_round() -> float:
            with tracer.active() as after_op:
                # Looked up afresh so the calls go through the wrappers.
                wrapped = [_operator(call.kind) for call in calls]
                return timed_round(wrapped, after_op)

        plain, traced = alternate(
            seconds, lambda: timed_round(operators, _nothing), traced_round
        )
        notes = [f"{len(plain)} plain and {len(traced)} traced rounds"]
        metrics = per_layer_metrics(
            tracer.clock.snapshot(),
            tracer.counters,
            plain,
            traced,
        )
    problems = check(calls, operators, expected)
    for line in problems[:20] + notes:
        print(line)
    print(f"{len(calls)} calls per round")
    emit(not problems, log.total_attempted(), log.total_failed(), metrics)


def _nothing() -> None:
    pass


def timed_worker(seed: int, seconds: float) -> dict:
    """Timed rounds in a fresh process (this file as a script): its
    raw and scaled log, each call's output summary and its peak memory."""
    output = subprocess.run(
        [sys.executable, __file__, str(seed), repr(seconds)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, check=True,
    ).stdout
    return json.loads(output)


def _worker(seed: int, seconds: float) -> None:
    speed = HostSpeed()
    calls = build_inputs(seed)
    operators = [_operator(call.kind) for call in calls]
    log = OpLog()
    expected: list = []
    speed.sample(SCALE_WINDOW)
    deadline = time.perf_counter() + seconds
    while not log.rounds or time.perf_counter() < deadline:
        run_round(calls, operators, log, expected, speed.tick)
    print(json.dumps({
        "raw": log.to_json(),
        "scaled": log.scaled(speed).to_json(),
        "expected": expected,
        "peak_rss_mb": self_peak_rss_mb(),
    }))


if __name__ == "__main__":
    _worker(int(sys.argv[1]), float(sys.argv[2]))
