"""Differential verification of the prefork serving cluster.

:func:`verify_cluster_serve` replays generated fuzz workloads
(:class:`~repro.qa.generator.WorkloadGenerator`) through a *live*
multi-worker ``repro-dp serve`` process and requires every release to be
bitwise identical to the same workload run against an in-process
:class:`~repro.service.service.PrivateQueryService`.

The comparison is only possible because of ``charge-seq`` noise mode: each
noisy draw is a pure function of ``(seed, global charge ordinal)``, and the
shared journal gives every worker the same ordinal sequence.  Which worker
answers a request therefore cannot change the released value — exactly the
property this check enforces.  Any divergence (a skipped absorption, a
double-counted ordinal, a worker drawing from its own stream) shows up as
a float that is not bit-for-bit equal.

Each case opens a session, registers its database and runs its query over
a single keep-alive connection: one connection is served by one worker, and
database *contents* never cross the journal, so the register and the count
must land on the same process.

After the cluster has drained and compacted its journal, the state
directory is folded offline (:func:`~repro.service.service.replay_state`,
the path ``repro-dp state replay`` takes) and every session's ``spent``,
``remaining`` and ``charges`` must equal the reference service's ledger —
so the fold that recovery and sibling absorption share is checked against
live ledgers, not just against itself.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.engine.backend import get_backend
from repro.qa.generator import WorkloadGenerator
from repro.service.service import PrivateQueryService, replay_state

__all__ = ["ClusterReport", "verify_cluster_serve"]

_BANNER_RE = re.compile(r"on http://([\d.]+):(\d+)")

#: Session budget large enough that no generated case is ever denied —
#: denials are legitimate but uninteresting here; the check targets the
#: noise path.
_SESSION_BUDGET = 1_000_000.0


@dataclass
class ClusterReport:
    """The outcome of one cluster-serve verification run."""

    seed: int
    cases: int
    workers: int
    backend: str
    failures: list[dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, case: int | None, message: str) -> None:
        """Record a failure with the snippet that reruns this check."""
        self.failures.append(
            {
                "case": case,
                "message": message,
                "replay": (
                    "from repro.qa.cluster import verify_cluster_serve\n"
                    f"report = verify_cluster_serve(seed={self.seed}, "
                    f"cases={self.cases}, workers={self.workers}, "
                    f"backend={self.backend!r})\n"
                    "print(report.to_dict())"
                ),
            }
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "workers": self.workers,
            "backend": self.backend,
            "ok": self.ok,
            "failures": list(self.failures),
        }


def _spawn_cluster(state_dir: str, edge_file: str, seed: int, workers: int, backend: str):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--edge-file", edge_file, "--name", "base",
            "--port", "0", "--workers", str(workers),
            "--state-dir", state_dir,
            "--seed", str(seed), "--noise-mode", "charge-seq",
            "--session-budget", str(_SESSION_BUDGET),
            "--backend", backend,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("cluster server exited before binding")
        match = _BANNER_RE.search(line)
        if match:
            return proc, match.group(1), int(match.group(2))
    raise RuntimeError("cluster server never reported its address")


def _request(
    connection: http.client.HTTPConnection, method: str, path: str, payload: dict
) -> tuple[int, dict]:
    body = json.dumps(payload).encode("utf-8")
    connection.request(
        method, path, body=body, headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def verify_cluster_serve(
    seed: int = 0,
    cases: int = 20,
    *,
    workers: int = 2,
    backend: str | None = None,
) -> ClusterReport:
    """Replay ``cases`` fuzz workloads through a live ``workers``-process
    cluster and compare every release bitwise against an in-process service.
    """
    backend = get_backend(backend).name
    report = ClusterReport(seed=seed, cases=cases, workers=workers, backend=backend)
    generator = WorkloadGenerator(seed)

    # The in-process reference: same seed, same noise mode, no journal —
    # charge ordinals advance identically because the workload is replayed
    # in the same order.
    reference = PrivateQueryService(
        session_budget=_SESSION_BUDGET, rng=seed, noise_mode="charge-seq"
    )

    try:
        with tempfile.TemporaryDirectory(prefix="repro-cluster-qa-") as tmp:
            edge_file = os.path.join(tmp, "edges.txt")
            with open(edge_file, "w", encoding="utf-8") as handle:
                handle.write("0 1\n1 2\n2 0\n")
            state_dir = os.path.join(tmp, "state")
            proc, host, port = _spawn_cluster(state_dir, edge_file, seed, workers, backend)
            try:
                for case in generator.cases(cases):
                    name = f"case{case.index}"
                    described = case.describe()
                    session = f"qa{case.index}"
                    register_payload = {
                        "name": name,
                        "relations": described["relations"],
                        "rows": described["rows"],
                        "backend": backend,
                    }
                    count_payload = {
                        "database": name,
                        "query": case.query_text,
                        "epsilon": case.epsilon,
                        "session": session,
                    }
                    # One keep-alive connection per case: register and count
                    # must be answered by the same worker (contents never cross
                    # the journal, only ledger and version records do).
                    connection = http.client.HTTPConnection(host, port, timeout=60)
                    try:
                        status, body = _request(
                            connection, "POST", "/budget", {"session_id": session}
                        )
                        if status == 200:
                            status, body = _request(
                                connection, "POST", "/register", register_payload
                            )
                        if status != 200:
                            report.fail(case.index, f"setup -> {status}: {body}")
                            continue
                        status, body = _request(connection, "POST", "/count", count_payload)
                    finally:
                        connection.close()
                    reference.create_session(session_id=session)
                    reference.register_database(name, case.database(), backend=backend)
                    reference_response = reference.count(
                        name, case.query_text, case.epsilon, session=session
                    )
                    if status != 200:
                        report.fail(case.index, f"count -> {status}: {body}")
                        continue
                    got = body.get("noisy_count")
                    want = reference_response.noisy_count
                    # JSON round-trips floats exactly (shortest-repr), so this
                    # comparison really is bitwise.
                    if got != want:
                        report.fail(
                            case.index,
                            f"release diverged: cluster {got!r} != in-process {want!r} "
                            f"(query {case.query_text!r}, eps {case.epsilon})",
                        )
                    elif body.get("sensitivity") != reference_response.sensitivity:
                        report.fail(
                            case.index,
                            f"sensitivity diverged: cluster {body.get('sensitivity')!r} "
                            f"!= in-process {reference_response.sensitivity!r}",
                        )
            finally:
                proc.send_signal(signal.SIGTERM)
                try:
                    code = proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    code = proc.wait(timeout=60)
            if code != 0:
                report.fail(None, f"cluster exited {code} after SIGTERM: {proc.stdout.read()}")
            _check_ledgers(report, state_dir, reference)
    finally:
        reference.close()
    return report


def _check_ledgers(
    report: ClusterReport, state_dir: str, reference: PrivateQueryService
) -> None:
    """Fold the drained cluster's state directory offline and require every
    session's ledger to equal the reference service's."""
    _, sessions, _ = replay_state(state_dir)
    replayed = set(sessions.active_ids())
    expected = set(reference.sessions.active_ids())
    for session in sorted(replayed ^ expected):
        where = "replayed state" if session in replayed else "reference"
        report.fail(None, f"session {session!r} only in the {where}")
    for session in sorted(replayed & expected):
        got = sessions.get(session).describe()
        want = reference.budget(session)
        for key in ("spent", "remaining", "charges"):
            if got[key] != want[key]:
                report.fail(
                    None,
                    f"replayed ledger of session {session!r} diverged: "
                    f"{key} {got[key]!r} != live {want[key]!r}",
                )
