"""serve-mixed: the update service over its Unix socket.

The server runs as its own process (``python -m repro.cli serve`` with
``--audit-out``); ``SERVERS`` of them take turns, round by round.  One
client process holds ``CONNECTIONS`` connections to each in a closed
loop: each sends its next pre-generated request line only when the
previous reply has arrived.  Every round, each connection opens
a fresh session, sends the same ``OPS_PER_ROUND`` requests over
``LETTERS`` letters -- loadgen's mixed shape (certain/possible queries,
width-2 inserts and 2% explain) plus about 5% undo -- and closes the
session, so every round repeats one state trajectory.

Latency is timed per request by the client, from sending the line to
reading the reply, and scaled to the reference host speed with samples
taken between segments of a round, when no request is in flight.  The
first round's replies are kept; later rounds
must reproduce them byte for byte.  After the timed rounds the kept
replies are compared with an in-process replay through
``IncompleteDatabase``, a prefix of each connection with the ``instance``
backend (BLU-I, the paper's reference semantics), and the server's audit
trail is replayed with ``replay_audit``.
"""

from __future__ import annotations

import itertools
import json
import random
import selectors
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from common import (
    BENCH_DIR,
    ROOT,
    HostSpeed,
    SCALE_WINDOW,
    OpLog,
    child_env,
    emit,
    latency_metrics,
    median_setup,
    process_peak_rss_mb,
    remove_dir,
    temp_workdir,
    stop_process,
)

LETTERS = 10
WIDTH = 2
CONNECTIONS = 2
OPS_PER_ROUND = 500
READ_FRACTION = 0.5
UNDO_SHARE = 0.05
EXPLAIN_SHARE = 0.02
#: Requests per connection also replayed on the ``instance`` backend.
REFERENCE_PREFIX = 120
#: Server processes a run starts and takes turns with, round by round.
#: A process's memory layout and string hash seed are drawn when it
#: starts and make some code paths a few per cent faster or slower for
#: its whole life; with one server, four runs of the same seed gave
#: update p50s from 0.99 to 1.17 ms.
SERVERS = 4
#: Requests per connection between two host-speed samples.  The client
#: samples only when no request is in flight, since a pause would
#: otherwise count towards that request's latency.
SEGMENT = 50

UPDATES = ("update",)
QUERIES = ("query",)
TIMED_OPS = ("update", "query", "undo", "explain")
SESSION = "walk"


@dataclass
class Request:
    kind: str
    record: dict
    line: bytes


def _request(number: int, kind: str, **fields) -> Request:
    record = {"id": number, "op": kind, **fields}
    return Request(kind, record, (json.dumps(record) + "\n").encode())


def scripts(seed: int) -> list[list[Request]]:
    """Each connection's requests for one round, opening and closing its
    session."""
    from repro.logic.clauses import clause_to_formula
    from repro.logic.propositions import Vocabulary
    from repro.workloads.generators import random_clause, random_formula

    vocabulary = Vocabulary.standard(LETTERS)
    result = []
    for connection in range(CONNECTIONS):
        rng = random.Random(seed * 1_000_003 + connection)
        script = [_request(0, "open", session=SESSION, letters=LETTERS)]
        undoable = 0
        for number in range(1, OPS_PER_ROUND + 1):
            roll = rng.random()
            if roll < EXPLAIN_SHARE:
                formula = random_formula(rng, vocabulary, depth=1)
                script.append(_request(number, "explain", session=SESSION, formula=str(formula)))
            elif roll < EXPLAIN_SHARE + UNDO_SHARE and undoable:
                undoable -= 1
                script.append(_request(number, "undo", session=SESSION))
            elif rng.random() < READ_FRACTION:
                formula = random_formula(rng, vocabulary, depth=2)
                mode = "certain" if rng.random() < 0.5 else "possible"
                script.append(_request(
                    number, "query", session=SESSION, mode=mode, formula=str(formula)
                ))
            else:
                clause = clause_to_formula(
                    vocabulary, random_clause(rng, LETTERS, WIDTH)
                )
                undoable += 1
                script.append(_request(
                    number, "update", session=SESSION, program=f"(insert {{{clause}}})"
                ))
        script.append(_request(OPS_PER_ROUND + 1, "close", session=SESSION))
        result.append(script)
    return result


# --- the server process ------------------------------------------------------


class Connection:
    """One client connection speaking newline-delimited JSON."""

    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buffer = b""

    def readline(self) -> bytes:
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return line

    def call(self, record: dict) -> dict:
        self.sock.sendall((json.dumps(record) + "\n").encode())
        return json.loads(self.readline())

    def close(self) -> None:
        self.sock.close()


class Server:
    """The service as a child process, started from the checkout root."""

    def __init__(self, workdir: Path, name: str, traced: bool = False):
        self.socket_path = str((workdir / f"{name}.sock").relative_to(ROOT))
        self.audit_path = workdir / f"{name}.audit.jsonl"
        self.layers_path = workdir / f"{name}.layers.json"
        serve = [
            "serve", "--socket", self.socket_path,
            "--audit-out", str(self.audit_path.relative_to(ROOT)),
        ]
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_server.py"),
                    str(self.layers_path.relative_to(ROOT)), *serve]
        else:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        try:
            assert self.process.stdout is not None
            for line in self.process.stdout:
                if b"listening" in line:
                    break
            else:
                raise RuntimeError("the server exited before it listened")
            probe = Connection(self.socket_path)
            hello = probe.call({"id": 0, "op": "hello"})
            self.setup_s = time.perf_counter() - started
            probe.close()
            if not hello.get("ok"):
                raise RuntimeError(f"hello failed: {hello}")
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        stop_process(self.process)


def launch_seconds(workdir: Path, names=itertools.count()) -> float:
    """Seconds from launching a server to its first ``hello`` reply."""
    server = Server(workdir, f"setup{next(names)}")
    server.stop()
    return server.setup_s


# --- the closed loop -----------------------------------------------------------


class Replies:
    """Keeps the first round's replies and compares later rounds with them."""

    def __init__(self) -> None:
        self.first: list[list[bytes]] | None = None
        self.current: list[list[bytes]] = []
        self.differing = 0

    def start_round(self, connections: int) -> None:
        if self.first is None:
            self.current = [[] for _ in range(connections)]

    def reply(self, connection: int, number: int, line: bytes) -> None:
        if self.first is None:
            self.current[connection].append(line)
        elif self.first[connection][number] != line:
            self.differing += 1

    def end_round(self) -> None:
        if self.first is None:
            self.first = self.current


def run_round(
    connections, scripts_, log: OpLog, replies: Replies, pause=None
) -> list[tuple[float, float]]:
    """One round of every connection's script, in segments of
    :data:`SEGMENT` requests per connection; returns each segment's start
    and seconds.

    At the end of a segment a connection waits until every other one has
    reached it too; with no request in flight, ``pause`` runs (the host
    speed sample) and the next segment starts.  The requests are logged
    after the round, in script order, so that each request keeps its
    position from round to round whichever connection's reply arrives
    first.
    """
    clock = time.perf_counter
    count = len(connections)
    position = [0] * count
    sent = [0.0] * count
    timings: list[tuple[int, int, float, float, bool]] = []
    segments: list[tuple[float, float]] = []
    replies.start_round(count)
    selector = selectors.DefaultSelector()
    for index, connection in enumerate(connections):
        selector.register(connection.sock, selectors.EVENT_READ, index)
    try:
        while any(position[i] < len(scripts_[i]) for i in range(count)):
            stop = [min(len(scripts_[i]), position[i] + SEGMENT) for i in range(count)]
            started = clock()
            in_flight = 0
            for index in range(count):
                if position[index] < stop[index]:
                    sent[index] = clock()
                    connections[index].sock.sendall(scripts_[index][position[index]].line)
                    in_flight += 1
            while in_flight:
                for key, _ in selector.select():
                    index = key.data
                    connection = connections[index]
                    chunk = connection.sock.recv(65536)
                    if not chunk:
                        raise ConnectionError("server closed the connection")
                    connection.buffer += chunk
                    if b"\n" not in connection.buffer:
                        continue
                    line, _, connection.buffer = connection.buffer.partition(b"\n")
                    arrived = clock()
                    number = position[index]
                    position[index] = number + 1
                    requested_at = sent[index]
                    if number + 1 < stop[index]:
                        sent[index] = clock()
                        connection.sock.sendall(scripts_[index][number + 1].line)
                    else:
                        in_flight -= 1
                    timings.append((index, number, arrived - requested_at,
                                    requested_at, b'"ok": true' in line))
                    replies.reply(index, number, line)
            segments.append((started, clock() - started))
            if pause is not None:
                pause()
    finally:
        selector.close()
    for index, number, seconds, requested_at, ok in sorted(timings):
        log.record(scripts_[index][number].kind, seconds, requested_at, ok)
    replies.end_round()
    log.end_round()
    return segments


def round_seconds(segments, speed: HostSpeed | None = None) -> float:
    """A round's seconds without the pauses between its segments; each
    segment scaled to the reference speed when ``speed`` is given."""
    if speed is None:
        return sum(seconds for _, seconds in segments)
    return sum(seconds * speed.scale(began + seconds / 2) for began, seconds in segments)


def _op_totals(connection: Connection) -> dict[str, tuple[int, float]]:
    """Per-op ``(count, seconds)`` totals from the server's ``stats``."""
    reply = connection.call({"id": "stats", "op": "stats"})
    histograms = reply["telemetry"]["histograms"]
    return {
        op: (histograms[f"srv.{op}.seconds"]["count"],
             histograms[f"srv.{op}.seconds"]["total"])
        for op in TIMED_OPS
        if f"srv.{op}.seconds" in histograms
    }


def connect(server: Server) -> list[Connection]:
    return [Connection(server.socket_path) for _ in range(CONNECTIONS)]


def op_deltas(before, after) -> dict[str, tuple[int, float]]:
    return {
        op: (after[op][0] - before.get(op, (0, 0.0))[0],
             after[op][1] - before.get(op, (0, 0.0))[1])
        for op in after
    }


# --- checks -------------------------------------------------------------------


def _replay(db, request: Request):
    """Apply one request to an in-process session; a query's answer."""
    from repro.hlu.surface import parse_updates

    record = request.record
    kind = request.kind
    if kind == "update":
        for update in parse_updates(record["program"]):
            db.apply(update)
    elif kind == "undo":
        db.undo()
    elif kind == "query" and record["mode"] == "possible":
        return db.is_possible(record["formula"])
    elif kind in ("query", "explain"):
        return db.is_certain(record["formula"])
    return None


def check_replies(scripts_, replies: list[list[bytes]]) -> list[str]:
    """The kept replies against an in-process replay; a prefix against
    the ``instance`` backend as well."""
    from repro.db.instances import WorldSet
    from repro.hlu.session import IncompleteDatabase

    problems = []
    for index, script in enumerate(scripts_):
        db = IncompleteDatabase.over(LETTERS)
        reference = IncompleteDatabase.over(LETTERS, backend="instance")
        for number, request in enumerate(script):
            where = f"connection {index} request {number} ({request.kind})"
            reply = json.loads(replies[index][number])
            if reply.get("id") != number or reply.get("ok") is not True:
                problems.append(f"{where}: bad reply {reply}")
                continue
            answer = _replay(db, request)
            clauses = db.clauses()
            wanted = {
                "update": {"applied": 1, "clause_count": len(clauses),
                           "inconsistent": clauses.has_empty_clause},
                "query": {"result": answer},
                "undo": {"clause_count": len(clauses),
                         "history_length": len(db.history)},
                "explain": {"certain": answer, "verified": True},
            }.get(request.kind, {})
            for key, value in wanted.items():
                if reply.get(key) != value:
                    problems.append(f"{where}: {key}={reply.get(key)!r}, replay says {value!r}")
            if number >= REFERENCE_PREFIX:
                continue
            if _replay(reference, request) != answer:
                problems.append(f"{where}: BLU-I answers {not answer!r}")
            elif request.kind in ("update", "undo") and (
                WorldSet.from_clause_set(clauses) != reference.state
            ):
                problems.append(f"{where}: BLU-C and BLU-I states differ")
    return problems


def check_audit(path: Path, rounds: int, scripts_) -> list[str]:
    from repro.hlu.audit import replay_audit

    audited = sum(
        1 for script in scripts_ for request in script
        if request.kind in ("update", "query", "undo")
    )
    report = replay_audit(path)
    problems = [f"audit: {line}" for line in report.mismatches[:10]]
    if report.sessions != rounds * len(scripts_) or report.ops != rounds * audited:
        problems.append(
            f"audit: {report.sessions} sessions and {report.ops} ops replayed, "
            f"expected {rounds * len(scripts_)} and {rounds * audited}"
        )
    return problems


# --- the run ------------------------------------------------------------------


def _server_layers(totals) -> dict[str, float]:
    def mean_ms(ops) -> float:
        count = sum(totals.get(op, (0, 0.0))[0] for op in ops)
        seconds = sum(totals.get(op, (0, 0.0))[1] for op in ops)
        return seconds * 1e3 / count if count else 0.0

    return {"update_ms": mean_ms(("update",)), "query_ms": mean_ms(("query",)),
            "handling_ms": mean_ms(TIMED_OPS)}


def run(seed: int, seconds: float, trace: bool) -> None:
    workdir = temp_workdir()
    try:
        _run(seed, seconds, trace, workdir)
    finally:
        remove_dir(workdir)


def _run(seed: int, seconds: float, trace: bool, workdir: Path) -> None:
    scripts_ = scripts(seed)
    ops_per_round = sum(len(script) for script in scripts_)
    log = OpLog()
    speed = HostSpeed()
    replies = Replies()
    servers: list[Server] = []
    connections: list[Connection] = []
    try:
        if not trace:
            setup_s = median_setup(lambda: launch_seconds(workdir), speed)
            clients = []
            for number in range(SERVERS):
                servers.append(Server(workdir, f"timed{number}"))
                clients.append(connect(servers[-1]))
                connections += clients[-1]
            speed.sample(SCALE_WINDOW)
            deadline = time.perf_counter() + seconds
            rounds_: list[list[tuple[float, float]]] = []
            while len(rounds_) < SERVERS or time.perf_counter() < deadline:
                rounds_.append(run_round(
                    clients[len(rounds_) % SERVERS], scripts_, log, replies, speed.sample
                ))
            peak = max(server.peak_rss_mb() for server in servers)
            rounds = [len(range(number, len(rounds_), SERVERS)) for number in range(SERVERS)]
        else:
            from layers import alternate, per_layer_metrics

            servers.append(Server(workdir, "plain"))
            servers.append(Server(workdir, "traced", traced=True))
            plain_connections = connect(servers[0])
            traced_connections = connect(servers[1])
            connections = plain_connections + traced_connections
            plain_log = OpLog()
            before = _op_totals(plain_connections[0])
            plain, traced = alternate(
                seconds,
                lambda: round_seconds(
                    run_round(plain_connections, scripts_, plain_log, replies)),
                lambda: round_seconds(
                    run_round(traced_connections, scripts_, log, replies)),
            )
            totals = op_deltas(before, _op_totals(plain_connections[0]))
            rounds = [len(plain), len(traced)]
    finally:
        for connection in connections:
            connection.close()
        for server in servers:
            server.stop()
    if not trace:
        print("raw times:")
        print(log.table())
        scaled = log.scaled(speed)
        notes = [
            f"raw round time {statistics.median(map(round_seconds, rounds_)):.4f} s (median)"
        ]
        wall = statistics.median(round_seconds(segments, speed) for segments in rounds_)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (ops_per_round / wall, "1/s"),
            **latency_metrics(scaled, "update", UPDATES, notes),
            **latency_metrics(scaled, "query", QUERIES, notes),
            "peak_rss_mb": (peak, "MiB"),
        }
    else:
        layers = json.loads(servers[1].layers_path.read_text())
        figures = _server_layers(totals)
        rtt = plain_log.merged(TIMED_OPS)
        figures["wire_ms"] = statistics.fmean(rtt) * 1e3 - figures["handling_ms"]
        notes = [f"{len(plain)} plain and {len(traced)} traced rounds"]
        metrics = per_layer_metrics(
            layers["clock"], layers["counters"], plain, traced, figures,
        )
        for kind, count in plain_log.attempted.items():
            log.attempted[kind] = log.attempted.get(kind, 0) + count
        for kind, count in plain_log.failed.items():
            log.failed[kind] = log.failed.get(kind, 0) + count
    problems = check_replies(scripts_, replies.first)
    for server, count in zip(servers, rounds):
        problems += check_audit(server.audit_path, count, scripts_)
    if replies.differing:
        problems.append(f"{replies.differing} replies differ from the first round's")
    for line in problems[:20] + notes:
        print(line)
    print(f"{ops_per_round} requests per round over {CONNECTIONS} connections")
    emit(not problems, log.total_attempted(), log.total_failed(), metrics)
