"""The two serving workloads: a real ``repro-dp serve`` process driven by a
stdlib ``http.client`` keep-alive client.

``urllib`` is not used: it opens a connection per request, which hides the
cost keep-alive clients pay (response headers and body leave in two writes,
and Nagle's algorithm holds the body until the client's delayed ACK).
"""

from __future__ import annotations

import http.client
import json
import math
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from common import (
    BACKEND,
    ROOT,
    BenchmarkError,
    derive_seed,
    info,
    median,
    program_env,
    relabeled_edges,
    same_float,
    tail,
)
import tracer

HERE = Path(__file__).resolve().parent

#: Seconds a stopped server may take to drain before it is SIGKILLed.
STOP_TIMEOUT = 15.0
#: Seconds to wait for a started server to accept requests.
START_TIMEOUT = 60.0
#: Server starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Budgets are powers of two and every ε a binary fraction, so each ledger
#: sum is exact and the final ``remaining`` can be checked with ``==``.
TOTAL_BUDGET = 2.0 ** 21
SESSION_BUDGET = 2.0 ** 19

TRIANGLE = "Edge(x, y), Edge(y, z), Edge(x, z), x != y, y != z, x != z"
MEMBER_TRIANGLE = (
    "Edge(x, y), Edge(y, z), Edge(x, z), Member(x, g), x != y, y != z, x != z"
)
#: serve-session shapes: (name, query, ε).
SESSION_SHAPES = (
    ("triangle", TRIANGLE, 2.0 ** -6),
    ("path2", "Edge(x, y), Edge(y, z)", 2.0 ** -7),
    ("star3", "Edge(x, y), Edge(x, z), Edge(x, w)", 2.0 ** -8),
    ("edge", "Edge(x, y)", 2.0 ** -9),
)
PREAGE_EPSILON = 2.0 ** -10
#: serve-mutate ε for both shapes (β = ε/10 = 0.1, as in lattice-cold).
MUTATE_EPSILON = 1.0
#: serve-mutate Member replaces per loop; the loop then undoes them in
#: reverse order, so the database cycles through ``MUTATION_LOOP + 1`` states.
MUTATION_LOOP = 12

SIZES = {
    "full": {
        "session_nodes": 200, "session_degree": 8.0, "preaged_charges": 10_000,
        "mutate_nodes": 300, "mutate_degree": 8.0, "groups": 16,
    },
    "tiny": {
        "session_nodes": 30, "session_degree": 4.0, "preaged_charges": 20,
        "mutate_nodes": 30, "mutate_degree": 4.0, "groups": 4,
    },
}


# --------------------------------------------------------------------------- #
# Server process and keep-alive client
# --------------------------------------------------------------------------- #
class Server:
    """One ``repro-dp serve`` process on an ephemeral port."""

    def __init__(self, workdir: Path, label: str, state_dir: Path, seed: int,
                 spans: Path | None = None):
        boot = workdir / "boot.txt"
        if not boot.exists():
            boot.write_text("0 1\n")
        command = [sys.executable]
        command += ["-m", "repro.cli"] if spans is None else [
            str(HERE / "traced_serve.py"), str(spans)
        ]
        command += [
            "serve", "--backend", BACKEND, "--state-dir", str(state_dir),
            "--total-budget", repr(TOTAL_BUDGET), "--seed", str(seed),
            "--port", "0", "--edge-file", str(boot), "--name", "boot",
        ]
        self.forced_kill = False
        self.stop_seconds = 0.0
        self._log = open(workdir / f"{label}.log", "w", encoding="utf-8")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=program_env(),
            cwd=ROOT, text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        try:
            self.port = self._await_port()
            self._probe()
        except BaseException:
            self.stop([])
            raise

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self) -> int:
        deadline = time.perf_counter() + START_TIMEOUT
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise BenchmarkError("server did not report its port in time") from None
            if line is None:
                raise BenchmarkError(f"server exited early (code {self.proc.wait()})")
            if line.startswith("serving database"):
                address = line.split("http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])

    def _probe(self) -> None:
        """Readiness: ``GET /capacity`` answers 200."""
        deadline = time.perf_counter() + START_TIMEOUT
        while True:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/capacity")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            if time.perf_counter() > deadline:
                raise BenchmarkError("server never answered GET /capacity")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchmarkError("no VmHWM in /proc status")

    def stop(self, connections) -> None:
        """Close the client connections, SIGTERM, wait, SIGKILL as last resort.

        The connections are closed first: a single-worker server with an
        idle keep-alive connection open does not exit on SIGTERM.
        """
        for connection in connections:
            connection.close()
        start = time.perf_counter()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.forced_kill = True
                self.proc.kill()
                self.proc.wait()
        self.stop_seconds = time.perf_counter() - start
        self._reader.join(timeout=STOP_TIMEOUT)
        self.proc.stdout.close()
        self._log.close()


class Connection:
    """A keep-alive connection; requests are numbered in order so a traced
    server's spans can be matched to client timings."""

    def __init__(self, port: int):
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.http.connect()
        self.local_port = self.http.sock.getsockname()[1]
        self.sent = 0

    def call(self, method: str, path: str, body=None):
        """``(status, payload, seconds, request id)``; seconds run from the
        request write to the full body read."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if data is None else {"Content-Type": "application/json"}
        request = (self.local_port, self.sent)
        self.sent += 1
        start = time.perf_counter()
        self.http.request(method, path, body=data, headers=headers)
        response = self.http.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - start
        return response.status, (json.loads(raw) if raw else {}), elapsed, request

    def close(self) -> None:
        self.http.close()


def expect(status: int, payload, what: str) -> dict:
    if status != 200:
        raise BenchmarkError(f"{what} answered {status}: {payload}")
    return payload


# --------------------------------------------------------------------------- #
# Shared measurement helpers
# --------------------------------------------------------------------------- #
class Phase:
    """Outcome of one server start: set-up time and the measured records."""

    def __init__(self):
        self.setup_s = 0.0
        self.warm: list[dict] = []  # warm-up counts (checked, not timed)
        self.records: list[dict] = []  # one per timed HTTP request
        self.ops: list[float] = []  # seconds per workload operation
        self.elapsed = 0.0
        self.rss_mb = 0.0
        self.stats_before: dict = {}
        self.stats_after: dict = {}
        self.budgets: dict[str, dict] = {}  # session -> final GET /budget
        self.ledger_start = 0
        self.ledger_end = 0
        self.mutations: list[tuple[int, int]] = []  # serve-mutate: (node, group)
        self.forced_kill = False
        self.stop_seconds = 0.0
        self.spans: list = []


def _phases(workdir: Path, seconds: float, trace: bool, start_phase) -> list[Phase]:
    """Untraced: ``SETUP_REPEATS`` starts, the last one measured.  Traced:
    an untraced and a traced start, each measured for half the time."""
    if trace:
        return [
            start_phase("plain", seconds / 2.0, True, None),
            start_phase("traced", seconds / 2.0, True, workdir / "spans.json"),
        ]
    return [
        start_phase(f"start{i}", seconds, i == SETUP_REPEATS - 1, None)
        for i in range(SETUP_REPEATS)
    ]


def _finish(phases: list[Phase], trace: bool) -> dict:
    """Metrics of the measured (last) phase, plus the stop report."""
    measured = phases[-1]
    info(f"server_rss_mb: {measured.rss_mb:.1f} MB")
    info(f"server stops: {', '.join(f'{p.stop_seconds:.2f} s' for p in phases)}; "
         f"forced kills: {sum(p.forced_kill for p in phases)}")
    if trace:
        metrics = serve_layer_metrics(measured, len(measured.ops))
        metrics["trace.overhead_pct"] = (
            (median(measured.ops) / median(phases[0].ops) - 1.0) * 100.0, "%"
        )
        return metrics
    return {
        "setup_s": (median([p.setup_s for p in phases]), "s"),
        "op_p50_ms": (median(measured.ops) * 1e3, "ms"),
        "ops_per_s": (len(measured.ops) / measured.elapsed, "1/s"),
        "peak_rss_mb": (measured.rss_mb, "MB"),
    }


def cache_deltas(before: dict, after: dict) -> dict:
    metrics = {}
    for name in ("plan", "profile", "sensitivity", "count", "component"):
        hits = after["caches"][name]["hits"] - before["caches"][name]["hits"]
        misses = after["caches"][name]["misses"] - before["caches"][name]["misses"]
        lookups = hits + misses
        metrics[f"cache.{name}_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        metrics[f"cache.{name}_lookups"] = (lookups, "count")
    return metrics


def serve_layer_metrics(phase: Phase, operations: int) -> dict:
    """Per-layer metrics of a traced phase: spans of the measured requests,
    plus the client-side wire time, cache deltas and ledger lengths."""
    measured = {r["request"] for r in phase.records}
    spans = [s for s in phase.spans if s[5] in measured]
    metrics = tracer.layer_metrics(spans, operations, len(phase.records))
    server_time: dict = {}
    for span in spans:
        if span[1] in ("api.parse", "api.handler"):
            server_time[span[5]] = server_time.get(span[5], 0.0) + span[3] - span[2]
    wire = [r["seconds"] - server_time.get(r["request"], 0.0) for r in phase.records]
    metrics["api.wire_ms"] = (sum(wire) / len(wire) * 1e3 if wire else 0.0, "ms")
    # Compaction runs every 1000 journal records, which a stall-bound
    # measured phase may not reach; the snapshot written by the SIGTERM
    # drain is counted too, so its cost on this ledger is always visible.
    compacts = [s for s in phase.spans if s[1] == "persistence.compact"]
    metrics["persistence.compact_ms"] = (
        tracer.mean(tracer.total_seconds(compacts), len(compacts)) * 1e3, "ms"
    )
    metrics["persistence.compacts"] = (len(compacts), "count")
    metrics["persistence.snapshot_bytes"] = (
        max((s[6]["bytes"] for s in compacts), default=0), "bytes"
    )
    metrics.update(cache_deltas(phase.stats_before, phase.stats_after))
    metrics["accountant.ledger_start"] = (phase.ledger_start, "count")
    metrics["accountant.ledger_end"] = (phase.ledger_end, "count")
    return metrics


def count_summary(label: str, seconds: list[float]) -> None:
    if not seconds:
        info(f"{label}: no samples")
        return
    line = f"{label}: p50 {median(seconds) * 1e3:.3f} ms"
    supported = tail(seconds)
    if supported is not None:
        line += f", p{supported[0]:g} {supported[1] * 1e3:.3f} ms"
    info(f"{line} (n={len(seconds)})")


def reference_sensitivity(query: str, epsilon: float, database) -> float:
    """The library's RS for ``query`` at the serving layer's β = ε/10."""
    from repro.mechanisms.smooth_mechanism import BETA_FRACTION
    from repro.query.parser import parse_query
    from repro.sensitivity.residual import ResidualSensitivity

    engine = ResidualSensitivity(
        parse_query(query), beta=epsilon / BETA_FRACTION, backend=BACKEND
    )
    return engine.compute(database).value


def check_budget(view: dict, session_spent: list[float], all_spent: list[float],
                 failures: list[str], label: str) -> None:
    """``remaining`` must equal budget minus the ε charged, exactly."""
    expected = SESSION_BUDGET - math.fsum(session_spent)
    if not same_float(view.get("remaining"), expected):
        failures.append(f"{label}: remaining {view.get('remaining')!r} != {expected!r}")
    expected_shared = TOTAL_BUDGET - math.fsum(all_spent)
    if not same_float(view.get("shared_remaining"), expected_shared):
        failures.append(
            f"{label}: shared_remaining {view.get('shared_remaining')!r} "
            f"!= {expected_shared!r}"
        )


def check_counts(records, references: dict, failures: list[str]) -> None:
    """Every answered count carries the library's sensitivity, bitwise."""
    for record in records:
        if record["kind"] == "mutate" or record["status"] != 200:
            continue
        expected = references[record["reference"]]
        if not same_float(record["sensitivity"], expected):
            failures.append(
                f"{record['kind']} {record['reference']}: sensitivity "
                f"{record['sensitivity']!r} != library {expected!r}"
            )


# --------------------------------------------------------------------------- #
# serve-session
# --------------------------------------------------------------------------- #
def _session_ids(seed: int) -> list[str]:
    return [f"s{derive_seed(seed, f'session.{i}'):08x}" for i in range(2)]


def preage(state_dir: Path, sessions: list[str], charges: int) -> None:
    """Give each session ``charges`` journaled charges, then let the library
    service recover them and write its snapshot.

    The records go through the service's ``StateStore``, as the session
    manager journals them: charging through the manager sums the growing
    ledger on every charge, which makes 2·10⁴ charges take about 30 s.
    """
    from repro.service import PrivateQueryService
    from repro.service.persistence import StateStore

    store = StateStore(state_dir, snapshot_interval=0)
    try:
        for session in sessions:
            store.append("session_create", session=session, budget=SESSION_BUDGET)
        for _ in range(charges):
            for session in sessions:
                store.append("charge", session=session, epsilon=PREAGE_EPSILON,
                             label="preage", shared=True)
    finally:
        store.close()
    PrivateQueryService(state_dir=str(state_dir), total_budget=TOTAL_BUDGET).close()


def _shape_orders(seed: int) -> list[list[int]]:
    return [
        list(np.random.default_rng(derive_seed(seed, f"order.{i}")).permutation(len(SESSION_SHAPES)))
        for i in range(2)
    ]


def _session_phase(workdir: Path, label: str, aged: Path, seed: int, edges, sessions,
                   seconds: float, measure: bool, spans: Path | None) -> Phase:
    phase = Phase()
    state = workdir / f"{label}.state"
    shutil.copytree(aged, state)
    server = Server(workdir, label, state, derive_seed(seed, "server"), spans)
    control = connections = None
    try:
        control = Connection(server.port)
        expect(*control.call("POST", "/register", {
            "name": "g", "edges": [list(e) for e in edges], "backend": BACKEND,
        })[:2], "register")
        connections = [Connection(server.port) for _ in sessions]
        orders = _shape_orders(seed)
        warm = []
        for connection, session, order in zip(connections, sessions, orders):
            for index in order:
                name, query, epsilon = SESSION_SHAPES[index]
                status, payload, _, _ = connection.call("POST", "/count", {
                    "database": "g", "query": query, "epsilon": epsilon, "session": session,
                })
                expect(status, payload, f"warm-up count {name}")
                warm.append({"kind": "count", "session": session, "epsilon": epsilon,
                             "status": status, "sensitivity": payload["sensitivity"],
                             "reference": name})
        phase.setup_s = time.perf_counter() - server.started
        if not measure:
            return phase
        phase.warm = warm
        phase.stats_before = expect(*control.call("GET", "/stats")[:2], "stats")
        phase.ledger_start = max(
            expect(*control.call("GET", f"/budget?session={s}")[:2], "budget")["charges"]
            for s in sessions
        )
        per_thread: list[list[dict]] = [[] for _ in sessions]
        errors: list[BaseException] = []

        def client(slot: int, deadline: float) -> None:
            connection, session = connections[slot], sessions[slot]
            order, out = orders[slot], per_thread[slot]
            step = 0
            try:
                while time.perf_counter() < deadline:
                    name, query, epsilon = SESSION_SHAPES[order[step % len(order)]]
                    step += 1
                    status, payload, elapsed, request = connection.call("POST", "/count", {
                        "database": "g", "query": query, "epsilon": epsilon,
                        "session": session,
                    })
                    out.append({
                        "kind": "count", "session": session, "epsilon": epsilon,
                        "status": status, "seconds": elapsed, "request": request,
                        "sensitivity": payload.get("sensitivity"), "reference": name,
                        "sensitivity_hit": payload.get("cache", {}).get("sensitivity_hit"),
                    })
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        start = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(i, start + seconds))
            for i in range(len(sessions))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.elapsed = time.perf_counter() - start
        if errors:
            raise BenchmarkError(f"client connection failed: {errors[0]!r}")
        phase.records = [r for out in per_thread for r in out]
        phase.ops = [r["seconds"] for r in phase.records if r["status"] == 200]
        phase.rss_mb = server.peak_rss_mb()
        phase.stats_after = expect(*control.call("GET", "/stats")[:2], "stats")
        phase.budgets = {
            s: expect(*control.call("GET", f"/budget?session={s}")[:2], "budget")
            for s in sessions
        }
        phase.ledger_end = max(view["charges"] for view in phase.budgets.values())
    finally:
        server.stop([c for c in [control] + (connections or []) if c is not None])
        phase.forced_kill = server.forced_kill
        phase.stop_seconds = server.stop_seconds
        shutil.rmtree(state, ignore_errors=True)
    if spans is not None:
        phase.spans = tracer.load_spans(spans)
    return phase


def run_session(seed: int, seconds: float, trace: bool, size: str, workdir: Path):
    sizes = SIZES[size]
    from repro.graphs.loader import database_from_edges

    edges = relabeled_edges(sizes["session_nodes"], sizes["session_degree"], seed, "session.graph")
    sessions = _session_ids(seed)
    aged = workdir / "aged.state"
    started = time.perf_counter()
    preage(aged, sessions, sizes["preaged_charges"])
    info(f"pre-aged {len(sessions)} sessions x {sizes['preaged_charges']} charges "
         f"in {time.perf_counter() - started:.1f} s")

    phases = _phases(workdir, seconds, trace, lambda label, length, measure, spans:
                     _session_phase(workdir, label, aged, seed, edges, sessions, length,
                                    measure, spans))

    database = database_from_edges([tuple(e) for e in edges])
    references = {
        name: reference_sensitivity(query, epsilon, database)
        for name, query, epsilon in SESSION_SHAPES
    }
    failures: list[str] = []
    attempted = failed = 0
    for phase in phases:
        if not phase.records:
            continue
        check_counts(phase.warm + phase.records, references, failures)
        for session in sessions:
            spent = [r["epsilon"] for r in phase.warm + phase.records
                     if r["session"] == session and r["status"] == 200]
            everything = [PREAGE_EPSILON] * (sizes["preaged_charges"] * len(sessions)) + [
                r["epsilon"] for r in phase.warm + phase.records if r["status"] == 200
            ]
            check_budget(phase.budgets[session],
                         [PREAGE_EPSILON] * sizes["preaged_charges"] + spent,
                         everything, failures, f"session {session}")
        attempted += len(phase.records)
        failed += sum(1 for r in phase.records if r["status"] != 200)

    measured = phases[-1]
    hits = sum(1 for r in measured.records if r["sensitivity_hit"])
    info(f"sensitivity-cache share: {hits}/{len(measured.records)}")
    info(f"session ledger length: {measured.ledger_start} -> {measured.ledger_end}")
    count_summary("count", measured.ops)
    info(f"count_rps: {len(measured.ops) / measured.elapsed:.1f} 1/s")
    metrics = _finish(phases, trace)
    return metrics, failures, attempted, failed, sum(p.forced_kill for p in phases)


# --------------------------------------------------------------------------- #
# serve-mutate
# --------------------------------------------------------------------------- #
def _member_database(edges, members: dict, nodes: int):
    """The Edge+Member database exactly as ``POST /register`` builds it."""
    from repro.data.database import Database
    from repro.data.domain import IntegerDomain
    from repro.data.schema import Attribute, DatabaseSchema, RelationSchema

    domain = IntegerDomain(0, nodes - 1)
    schemas = [
        RelationSchema(name, [Attribute(f"a{i}", domain) for i in range(2)])
        for name in ("Edge", "Member")
    ]
    return Database(
        DatabaseSchema(schemas, private=["Edge", "Member"]),
        relations={"Edge": list(edges), "Member": sorted(members.items())},
    )


def _register_payload(edges, members: dict, nodes: int) -> dict:
    return {
        "name": "m", "backend": BACKEND,
        "relations": [
            {"name": "Edge", "arity": 2, "domain_size": nodes},
            {"name": "Member", "arity": 2, "domain_size": nodes},
        ],
        "rows": {
            "Edge": [list(e) for e in edges],
            "Member": [[node, group] for node, group in sorted(members.items())],
        },
    }


def mutation_loop(seed: int, members: dict, groups: int) -> list[tuple[int, int, int]]:
    """``(node, old group, new group)`` Member replaces: ``MUTATION_LOOP``
    seeded ones on distinct nodes, then their inverses in reverse order.

    Every cycle still changes Member's epoch and forces a re-profile; the
    loop only bounds the distinct database states the references cover.
    """
    rng = np.random.default_rng(derive_seed(seed, "mutations"))
    nodes = rng.choice(sorted(members), size=min(MUTATION_LOOP, len(members)), replace=False)
    forward = []
    for node in nodes:
        old = members[int(node)]
        forward.append((int(node), old, int((old + 1 + rng.integers(groups - 1)) % groups)))
    return forward + [(node, new, old) for node, old, new in reversed(forward)]


def _mutate_phase(workdir: Path, label: str, seed: int, edges, members: dict, sizes,
                  seconds: float, measure: bool, spans: Path | None) -> Phase:
    phase = Phase()
    nodes = sizes["mutate_nodes"]
    server = Server(workdir, label, workdir / f"{label}.state", derive_seed(seed, "server"),
                    spans)
    connection = control = None
    try:
        control = Connection(server.port)
        expect(*control.call("POST", "/register", _register_payload(edges, members, nodes))[:2],
               "register")
        connection = Connection(server.port)
        session = expect(*connection.call("POST", "/budget", {"budget": SESSION_BUDGET})[:2],
                         "session")["session"]
        warm = []
        for name, query in (("member", MEMBER_TRIANGLE), ("triangle", TRIANGLE)):
            status, payload, _, _ = connection.call("POST", "/count", {
                "database": "m", "query": query, "epsilon": MUTATE_EPSILON, "session": session,
            })
            expect(status, payload, f"warm-up count {name}")
            warm.append({"kind": name, "status": status, "epsilon": MUTATE_EPSILON,
                         "sensitivity": payload["sensitivity"],
                         "reference": ("member", 0) if name == "member" else "triangle"})
        phase.setup_s = time.perf_counter() - server.started
        if not measure:
            return phase
        phase.warm = warm
        phase.stats_before = expect(*control.call("GET", "/stats")[:2], "stats")
        phase.ledger_start = expect(
            *control.call("GET", f"/budget?session={session}")[:2], "budget"
        )["charges"]

        loop = mutation_loop(seed, members, sizes["groups"])
        mirror = dict(members)
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            node, old, new = loop[len(phase.mutations) % len(loop)]
            cycle_start = time.perf_counter()
            status, payload, elapsed, request = connection.call("POST", "/mutate", {
                "database": "m",
                "operations": [{"relation": "Member", "op": "replace",
                                "old": [node, old], "new": [node, new]}],
            })
            phase.records.append({"kind": "mutate", "status": status, "seconds": elapsed,
                                  "request": request, "summary": payload})
            if status == 200:
                mirror[node] = new
            phase.mutations.append((node, mirror[node]))
            state = len(phase.mutations)
            for kind, query, reference in (
                ("requery", MEMBER_TRIANGLE, ("member", state)),
                ("count", TRIANGLE, "triangle"),
            ):
                status, payload, elapsed, request = connection.call("POST", "/count", {
                    "database": "m", "query": query, "epsilon": MUTATE_EPSILON,
                    "session": session,
                })
                phase.records.append({
                    "kind": kind, "status": status, "seconds": elapsed, "request": request,
                    "sensitivity": payload.get("sensitivity"), "reference": reference,
                    "epsilon": MUTATE_EPSILON,
                    "sensitivity_hit": payload.get("cache", {}).get("sensitivity_hit"),
                })
            phase.ops.append(time.perf_counter() - cycle_start)
        phase.elapsed = time.perf_counter() - start
        phase.rss_mb = server.peak_rss_mb()
        phase.stats_after = expect(*control.call("GET", "/stats")[:2], "stats")
        phase.budgets[session] = expect(
            *control.call("GET", f"/budget?session={session}")[:2], "budget"
        )
        phase.ledger_end = phase.budgets[session]["charges"]
    finally:
        server.stop([c for c in (control, connection) if c is not None])
        phase.forced_kill = server.forced_kill
        phase.stop_seconds = server.stop_seconds
        shutil.rmtree(workdir / f"{label}.state", ignore_errors=True)
    if spans is not None:
        phase.spans = tracer.load_spans(spans)
    return phase


def _mutate_references(phase: Phase, edges, members: dict, nodes: int) -> dict:
    """Library sensitivities for every database state the phase produced,
    computed once per distinct Member content."""
    mirror = dict(members)
    by_content: dict[tuple, float] = {}

    def member_reference() -> float:
        content = tuple(sorted(mirror.items()))
        if content not in by_content:
            by_content[content] = reference_sensitivity(
                MEMBER_TRIANGLE, MUTATE_EPSILON, _member_database(edges, mirror, nodes)
            )
        return by_content[content]

    references = {
        "triangle": reference_sensitivity(
            TRIANGLE, MUTATE_EPSILON, _member_database(edges, mirror, nodes)
        ),
        ("member", 0): member_reference(),
    }
    for state, (node, group) in enumerate(phase.mutations, start=1):
        mirror[node] = group
        references[("member", state)] = member_reference()
    return references


def run_mutate(seed: int, seconds: float, trace: bool, size: str, workdir: Path):
    sizes = SIZES[size]
    nodes, groups = sizes["mutate_nodes"], sizes["groups"]
    edges = relabeled_edges(nodes, sizes["mutate_degree"], seed, "mutate.graph")
    first_groups = np.random.default_rng(derive_seed(seed, "groups")).permutation(nodes)
    members = {node: int(first_groups[node]) % groups for node in range(nodes)}

    phases = _phases(workdir, seconds, trace, lambda label, length, measure, spans:
                     _mutate_phase(workdir, label, seed, edges, members, sizes, length,
                                   measure, spans))

    failures: list[str] = []
    attempted = failed = 0
    for phase in phases:
        if not phase.records:
            continue
        references = _mutate_references(phase, edges, members, nodes)
        check_counts(phase.warm + phase.records, references, failures)
        for record in phase.records:
            summary = record.get("summary")
            if record["kind"] == "mutate" and record["status"] == 200 and (
                summary.get("inserted"), summary.get("deleted")
            ) != (1, 1):
                failures.append(f"mutate summary {summary} is not one replace")
        spent = [r["epsilon"] for r in phase.warm + phase.records
                 if r["kind"] != "mutate" and r["status"] == 200]
        for session, view in phase.budgets.items():
            check_budget(view, spent, spent, failures, f"session {session}")
        attempted += len(phase.records)
        failed += sum(1 for r in phase.records if r["status"] != 200)

    measured = phases[-1]

    def seconds_of(kind):
        return [r["seconds"] for r in measured.records if r["kind"] == kind and r["status"] == 200]

    info(f"mutate cycles: {len(measured.ops)}; session ledger length: "
         f"{measured.ledger_start} -> {measured.ledger_end}")
    count_summary("count (untouched shape)", seconds_of("count"))
    count_summary("mutate", seconds_of("mutate"))
    count_summary("requery", seconds_of("requery"))
    requeries = [r for r in measured.records if r["kind"] == "requery"]
    info(f"requery sensitivity-cache share: "
         f"{sum(1 for r in requeries if r['sensitivity_hit'])}/{len(requeries)}")
    counts = seconds_of("count") + seconds_of("requery")
    info(f"count_rps: {len(counts) / measured.elapsed:.1f} 1/s")
    metrics = _finish(phases, trace)
    return metrics, failures, attempted, failed, sum(p.forced_kill for p in phases)
