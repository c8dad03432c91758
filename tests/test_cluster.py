"""Cross-process exactness stress suite for the prefork cluster.

The claims under test (see ``docs/scaling.md``):

* **No double-spend, ever**: the total ε acknowledged by clients hammering
  a multi-worker cluster equals the offline sequential replay of the
  shared journal — exactly, not approximately.
* **Crash safety**: ``SIGKILL`` on a worker mid-traffic loses nothing that
  was acknowledged; the dispatcher respawns the worker and the recovered
  ledger matches journal replay.
* **Admission control**: a worker at its ``--max-inflight`` cap sheds
  ``/count``/``/batch`` load with ``503 + Retry-After`` *before* the
  request can reach the budget-ledger lock (proved via the
  ``repro_budget_charge_seconds`` histogram: its count equals the number
  of successful charges, so sheds never touched the ledger).
* **Graceful drain**: SIGTERM stops accepting, finishes in-flight
  requests, flushes the journal and exits 0.
* **Capacity contract**: the ``GET /capacity`` JSON schema is pinned.

Worker count for the cluster tests comes from ``REPRO_CLUSTER_WORKERS``
(default 2 — the CI cluster job runs a 1/2/4 matrix).  All tests drive a
real subprocess server; epsilons are exact binary floats so ledger sums
are order-independent and the exactness assertions can use equality.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.service.service import replay_state

WORKERS = max(1, int(os.environ.get("REPRO_CLUSTER_WORKERS", "2")))

_EDGES = "0 1\n1 2\n2 0\n0 3\n3 4\n4 0\n1 3\n2 4\n"
_BANNER = re.compile(r"on http://([\d.]+):(\d+)")

CAPACITY_KEYS = {
    "workers", "total", "used", "available", "queue_depth",
    "overcommit_ratio", "max_inflight_per_worker", "served", "shed",
}
CAPACITY_WORKER_KEYS = {"index", "pid", "alive", "inflight", "served", "shed"}


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text(_EDGES)
    return path


def _post(url, payload, timeout=30):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _get(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


def _spawn(edge_file, state_dir, *extra, kill_deadline=None):
    """Start ``repro-dp serve``; ``kill_deadline`` patches the dispatcher's
    SIGKILL deadline (``repro.service.cluster.KILL_DEADLINE``) first."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    backend = os.environ.get("REPRO_BACKEND")
    backend_args = ("--backend", backend) if backend else ()
    entry = ["-m", "repro.cli"]
    if kill_deadline is not None:
        entry = [
            "-c",
            "import sys, repro.service.cluster as cluster; "
            f"cluster.KILL_DEADLINE = {kill_deadline!r}; "
            "from repro.cli import main; sys.exit(main(sys.argv[1:]))",
        ]
    proc = subprocess.Popen(
        [
            sys.executable, *entry, "serve",
            "--edge-file", str(edge_file), "--name", "g",
            "--port", "0", "--session-budget", "64",
            "--state-dir", str(state_dir), "--seed", "1",
            *backend_args, *extra,
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
            raise AssertionError("server exited before binding")
        match = _BANNER.search(line)
        if match:
            return proc, f"http://{match.group(1)}:{match.group(2)}"
    raise AssertionError("server never reported its address")


def _wait_for_workers(url, count, timeout=90):
    deadline = time.monotonic() + timeout
    last = None
    while time.monotonic() < deadline:
        try:
            last = _get(f"{url}/capacity")
            if sum(1 for worker in last["workers"] if worker["alive"]) >= count:
                return last
        except (urllib.error.URLError, ConnectionError, OSError):
            pass
        time.sleep(0.1)
    raise AssertionError(f"never saw {count} live workers; last board: {last}")


def _wait_for_board(url, *, used, timeout=30):
    """Poll ``/capacity`` (which bypasses admission) until ``used`` matches."""
    deadline = time.monotonic() + timeout
    last = None
    while time.monotonic() < deadline:
        last = _get(f"{url}/capacity")
        if last["used"] == used:
            return last
        time.sleep(0.02)
    raise AssertionError(f"capacity board never reached used={used}; last: {last}")


#: Seconds a SIGTERM drain may take.  The dispatcher's last-resort SIGKILL
#: of a stuck worker fires after 30 s (and makes it exit non-zero), so a
#: drain within this bound also proves no worker was force-killed.
DRAIN_BOUND = 10


def _processes_naming(marker):
    """Pids of live processes whose command line contains ``marker``.

    Forked workers share the dispatcher's command line, so a worker that
    outlived its dispatcher shows up here (re-parented, but still named).
    """
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if marker.encode() in cmdline:
            pids.append(int(entry.name))
    return pids


def _stop(proc):
    """SIGTERM the server and require a clean (drained) exit."""
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=DRAIN_BOUND)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=60)
        raise AssertionError(f"server did not drain within {DRAIN_BOUND}s of SIGTERM")
    assert code == 0, f"server exited {code} instead of draining cleanly"


def _kill(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=60)


def _slow_request(url, payload):
    """Open a raw connection and send all but the body's last bytes.

    The server admits the request (admission happens on the request line)
    and then blocks reading the body — a deterministic way to hold a
    request in flight for as long as the test wants.
    """
    host, port = url.removeprefix("http://").split(":")
    body = json.dumps(payload).encode("utf-8")
    sock = socket.create_connection((host, int(port)), timeout=60)
    head = (
        f"POST /count HTTP/1.1\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\nConnection: close\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    sock.sendall(head + body[:-8])
    return sock, body[-8:]


def _finish_slow_request(sock, tail):
    """Send the held-back bytes and return the response status line."""
    sock.sendall(tail)
    sock.settimeout(60)
    response = b""
    while b"\r\n" not in response:
        chunk = sock.recv(4096)
        if not chunk:
            break
        response += chunk
    sock.close()
    return response.split(b"\r\n", 1)[0].decode("latin-1")


# --------------------------------------------------------------------- #
# Capacity contract
# --------------------------------------------------------------------- #
@pytest.mark.slow
def test_capacity_schema_is_pinned(edge_file, tmp_path):
    proc, url = _spawn(
        edge_file, tmp_path / "st", "--workers", str(WORKERS), "--max-inflight", "8"
    )
    try:
        board = _wait_for_workers(url, WORKERS)
        assert set(board) == CAPACITY_KEYS
        assert len(board["workers"]) == WORKERS
        for index, worker in enumerate(board["workers"]):
            assert set(worker) == CAPACITY_WORKER_KEYS
            assert worker["index"] == index
            assert worker["alive"] and worker["pid"] > 0
        assert board["max_inflight_per_worker"] == 8
        assert board["total"] == 8 * WORKERS
        assert board["used"] + board["available"] == board["total"]
        assert board["queue_depth"] == board["used"]
        assert 0.0 <= board["overcommit_ratio"] <= 1.0
        _stop(proc)
    finally:
        _kill(proc)


# --------------------------------------------------------------------- #
# Cross-process exactness under mixed load
# --------------------------------------------------------------------- #
@pytest.mark.slow
def test_mixed_traffic_spend_equals_sequential_replay(edge_file, tmp_path):
    state_dir = tmp_path / "st"
    proc, url = _spawn(
        edge_file, state_dir, "--workers", str(WORKERS), "--total-budget", "1000"
    )
    clients, rounds, epsilon = 6, 3, 0.25  # exact binary float
    acked: dict[str, list[float]] = {f"s{i}": [] for i in range(clients)}
    lock = threading.Lock()
    try:
        _wait_for_workers(url, WORKERS)

        def client(index):
            sid = f"s{index}"
            _post(f"{url}/budget", {"session_id": sid, "budget": 64.0})
            for round_ in range(rounds):
                if (index + round_) % 3 == 0:
                    result = _post(
                        f"{url}/batch",
                        {"database": "g", "session": sid, "requests": [
                            {"query": "Edge(x, y)", "epsilon": epsilon},
                            {"query": "Edge(a, b), Edge(b, c)", "epsilon": epsilon},
                        ]},
                    )
                    charged = result["epsilon_charged"]
                else:
                    result = _post(
                        f"{url}/count",
                        {"database": "g", "query": "Edge(x, y)",
                         "epsilon": epsilon, "session": sid},
                    )
                    charged = result["epsilon"]
                with lock:
                    acked[sid].append(charged)
                view = _get(f"{url}/budget?session={sid}")
                assert view["spent"] <= view["budget"] + 1e-9

        threads = [
            threading.Thread(target=client, args=(index,)) for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total_acked = sum(sum(values) for values in acked.values())
        stats = _get(f"{url}/stats")  # /stats absorbs siblings before reporting
        assert stats["shared_budget"]["spent"] == pytest.approx(total_acked, abs=1e-9)
        _stop(proc)
    finally:
        _kill(proc)

    # The journal's sequential replay IS the ground truth: every session's
    # recovered ledger must equal the ε its client was acknowledged, and
    # the cluster-wide spend must equal the grand total — exactly.
    _, sessions, _ = replay_state(str(state_dir))
    for sid, values in acked.items():
        replayed = sessions.get(sid).describe()
        assert replayed["spent"] == pytest.approx(sum(values), abs=1e-12)
        assert replayed["spent"] <= replayed["budget"] + 1e-9
    assert sessions.shared.spent == pytest.approx(
        sum(sum(values) for values in acked.values()), abs=1e-12
    )


# --------------------------------------------------------------------- #
# Worker crash: respawn + nothing acknowledged is lost
# --------------------------------------------------------------------- #
@pytest.mark.slow
def test_sigkill_worker_respawns_and_ledger_survives(edge_file, tmp_path):
    state_dir = tmp_path / "st"
    workers = max(2, WORKERS)
    proc, url = _spawn(edge_file, state_dir, "--workers", str(workers))
    acked: list[float] = []
    lock = threading.Lock()
    stop = threading.Event()
    try:
        board = _wait_for_workers(url, workers)
        _post(f"{url}/budget", {"session_id": "soak", "budget": 64.0})

        def traffic():
            while not stop.is_set():
                try:
                    result = _post(
                        f"{url}/count",
                        {"database": "g", "query": "Edge(x, y)",
                         "epsilon": 0.125, "session": "soak"},
                        timeout=30,
                    )
                    with lock:
                        acked.append(result["epsilon"])
                except (
                    urllib.error.URLError,
                    ConnectionError,
                    OSError,
                    http.client.HTTPException,  # e.g. IncompleteRead mid-kill
                ):
                    pass  # requests on the killed worker die by design

        threads = [threading.Thread(target=traffic) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.5)  # let traffic reach the charge pipeline

        victim = board["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)

        deadline = time.monotonic() + 90
        respawned = None
        while time.monotonic() < deadline:
            slot = _get(f"{url}/capacity")["workers"][0]
            if slot["alive"] and slot["pid"] != victim:
                respawned = slot["pid"]
                break
            time.sleep(0.1)
        assert respawned, "dispatcher never respawned the killed worker"

        time.sleep(0.5)  # post-recovery traffic through the replacement
        stop.set()
        for thread in threads:
            thread.join(timeout=60)

        # The live cluster view and the journal agree after the crash.
        view = _get(f"{url}/budget?session=soak")
        with lock:
            acknowledged = sum(acked)
        assert view["spent"] >= acknowledged - 1e-9  # nothing acked was lost
        assert view["spent"] <= view["budget"] + 1e-9
        _stop(proc)
    finally:
        stop.set()
        _kill(proc)

    _, sessions, _ = replay_state(str(state_dir))
    replayed = sessions.get("soak").describe()
    assert replayed["spent"] >= acknowledged - 1e-9
    assert replayed["spent"] <= replayed["budget"] + 1e-9
    assert replayed["spent"] == pytest.approx(view["spent"], abs=1e-12)


# --------------------------------------------------------------------- #
# Admission control: sheds happen before the ledger
# --------------------------------------------------------------------- #
@pytest.mark.slow
def test_admission_sheds_with_503_before_ledger(edge_file, tmp_path):
    proc, url = _spawn(edge_file, tmp_path / "st", "--max-inflight", "1")
    try:
        _wait_for_workers(url, 1)
        for _ in range(2):  # successful, charged requests
            # The slot is released a moment *after* the response is flushed,
            # so an immediate follow-up can legitimately be shed — honour
            # Retry-After like a real client would.  Sheds never charge, so
            # the histogram count below stays exact.
            for _attempt in range(50):
                try:
                    result = _post(
                        f"{url}/count",
                        {"database": "g", "query": "Edge(x, y)", "epsilon": 0.25},
                    )
                    break
                except urllib.error.HTTPError as error:
                    if error.code != 503:
                        raise
                    time.sleep(0.05)
            else:
                raise AssertionError("warm-up request shed 50 times in a row")
            assert result["epsilon"] == 0.25

        # Hold the single in-flight slot with a request whose body never
        # quite arrives, then prove the next request is shed.  Wait for the
        # last warm-up's slot release first — otherwise the slow request
        # itself could be the one shed.
        _wait_for_board(url, used=0)
        sock, tail = _slow_request(
            url, {"database": "g", "query": "Edge(x, y)", "epsilon": 0.25}
        )
        try:
            _wait_for_board(url, used=1)  # admitted and blocked on the body
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(
                    f"{url}/count",
                    {"database": "g", "query": "Edge(x, y)", "epsilon": 0.25},
                )
            assert excinfo.value.code == 503
            # Derived from the board: queue_depth=1, overcommit_ratio=1.0,
            # max_inflight_per_worker=1 → 1 + ceil(1·1/1) = 2 seconds.
            assert excinfo.value.headers["Retry-After"] == "2"
            # GET endpoints bypass admission: the board stays observable
            # even when every request slot is held.
            board = _get(f"{url}/capacity")
            assert board["used"] == 1
            assert board["shed"] >= 1
        finally:
            status_line = _finish_slow_request(sock, tail)
        assert "200" in status_line  # the held request itself succeeded

        # The proof sheds never reached the ledger: the charge-latency
        # histogram counted exactly one observation per *successful*
        # request (2 + the held one), none for the 503.
        with urllib.request.urlopen(f"{url}/metrics", timeout=30) as response:
            text = response.read().decode("utf-8")
        match = re.search(r"^repro_budget_charge_seconds_count (\d+)", text, re.M)
        assert match is not None and int(match.group(1)) == 3, match
        shed = re.search(r"^repro_requests_shed_total (\d+)", text, re.M)
        assert shed is not None and int(shed.group(1)) >= 1
        _stop(proc)
    finally:
        _kill(proc)


# --------------------------------------------------------------------- #
# Graceful shutdown: SIGTERM drains in-flight work, exits 0
# --------------------------------------------------------------------- #
@pytest.mark.slow
def test_sigterm_drains_inflight_request(edge_file, tmp_path):
    proc, url = _spawn(edge_file, tmp_path / "st")
    try:
        _wait_for_workers(url, 1)
        sock, tail = _slow_request(
            url, {"database": "g", "query": "Edge(x, y)", "epsilon": 0.25}
        )
        time.sleep(0.3)  # the request is admitted and mid-read
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.3)  # the server has stopped accepting but must drain
        status_line = _finish_slow_request(sock, tail)
        assert "200" in status_line, status_line
        code = proc.wait(timeout=60)
        assert code == 0
    finally:
        _kill(proc)


@pytest.mark.slow
def test_cluster_sigterm_drains_inflight_request(edge_file, tmp_path):
    proc, url = _spawn(edge_file, tmp_path / "st", "--workers", str(WORKERS))
    try:
        _wait_for_workers(url, WORKERS)
        sock, tail = _slow_request(
            url, {"database": "g", "query": "Edge(x, y)", "epsilon": 0.25}
        )
        time.sleep(0.3)
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.3)
        status_line = _finish_slow_request(sock, tail)
        assert "200" in status_line, status_line
        code = proc.wait(timeout=60)
        assert code == 0
    finally:
        _kill(proc)


@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 2])
def test_sigterm_with_idle_keepalive_client_exits_promptly(edge_file, tmp_path, workers):
    """An open keep-alive connection with no request in flight must not
    hold the drain: the server closes it and exits 0 within the bound.

    Short-lived connections come first: each one wakes every worker's poll
    on the shared listener, and the workers that lose the accept race must
    not be left blocked in ``accept()`` when SIGTERM arrives.
    """
    proc, url = _spawn(edge_file, tmp_path / "st", "--workers", str(workers))
    try:
        _wait_for_workers(url, workers)
        for _ in range(20):
            _get(f"{url}/capacity")
        host, port = url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=60)
        connection.request("GET", "/capacity")
        response = connection.getresponse()
        assert response.status == 200
        response.read()
        assert not response.will_close  # the connection stays open, idle
        _stop(proc)
        connection.close()
    finally:
        _kill(proc)


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc to find survivors")
def test_sigterm_during_worker_respawn_drains_cleanly(edge_file, tmp_path):
    """SIGTERM landing inside the respawn delay after a worker crash must
    still drain: exit 0 within the bound, no orphaned worker, and the
    journal keeps every charge acknowledged before the crash."""
    state_dir = tmp_path / "respawn-st"
    proc, url = _spawn(edge_file, state_dir, "--workers", "2")
    try:
        board = _wait_for_workers(url, 2)
        _post(f"{url}/budget", {"session_id": "pre", "budget": 8.0})
        acknowledged = 0.0
        for _ in range(3):
            _post(
                f"{url}/count",
                {"database": "g", "query": "Edge(x, y)", "epsilon": 0.25,
                 "session": "pre"},
            )
            acknowledged += 0.25
        victim = board["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        time.sleep(0.05)  # inside the dispatcher's 0.2 s respawn delay
        proc.send_signal(signal.SIGTERM)
        started = time.monotonic()
        try:
            code = proc.wait(timeout=DRAIN_BOUND)
        except subprocess.TimeoutExpired:
            raise AssertionError(f"no exit within {DRAIN_BOUND}s of SIGTERM") from None
        output = proc.stdout.read()
        assert code == 0, output
        assert time.monotonic() - started < DRAIN_BOUND
        assert _processes_naming(str(state_dir)) == []
    finally:
        for pid in _processes_naming(str(state_dir)):
            os.kill(pid, signal.SIGKILL)
        _kill(proc)

    _, sessions, _ = replay_state(str(state_dir))
    assert sessions.get("pre").ledger.spent == acknowledged


@pytest.mark.slow
def test_forced_kill_is_reported_and_fails_the_exit_code(edge_file, tmp_path):
    """A worker whose in-flight request never finishes is SIGKILLed after
    the (patched, 1 s) deadline; the dispatcher names it and exits 1."""
    proc, url = _spawn(
        edge_file, tmp_path / "st", "--workers", "2", kill_deadline=1.0
    )
    sock = None
    try:
        _wait_for_workers(url, 2)
        sock, _ = _slow_request(
            url, {"database": "g", "query": "Edge(x, y)", "epsilon": 0.25}
        )
        board = _wait_for_board(url, used=1)  # admitted, blocked on the body
        stuck = next(w["pid"] for w in board["workers"] if w["inflight"] == 1)
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=DRAIN_BOUND)
        output = proc.stdout.read()
        assert code == 1, output
        assert f"worker pid {stuck} did not drain within 1s" in output
        assert "SIGKILL" in output
    finally:
        if sock is not None:
            sock.close()
        _kill(proc)


# --------------------------------------------------------------------- #
# Fuzz battery under prefork (smoke; CI runs 50 cases)
# --------------------------------------------------------------------- #
@pytest.mark.slow
def test_fuzz_workloads_replay_bitwise_through_cluster():
    from repro.qa.cluster import verify_cluster_serve

    report = verify_cluster_serve(seed=11, cases=3, workers=2)
    assert report.ok, report.failures
    assert report.to_dict()["workers"] == 2
