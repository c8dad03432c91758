"""Command-line interface for the ``repro`` library.

Installed as ``repro-dp`` (see ``pyproject.toml``).  Sub-commands:

``count``
    Release a differentially private count of a conjunctive query over an
    edge-list file (or a generated surrogate dataset).

``sensitivity``
    Print the residual / elastic / global sensitivity of a query on a dataset
    without releasing anything.

``table1`` / ``figure3`` / ``example3`` / ``nonfull`` / ``optimality`` /
``scaling``
    Run one of the paper-reproduction experiments and print its report.

``run-all``
    Run every experiment and write text + CSV reports to a directory.

``generate``
    Write a surrogate collaboration graph to an edge-list file.

``serve``
    Start the JSON-over-HTTP serving layer (:mod:`repro.service`): named
    databases, per-session budget ledgers, plan/sensitivity caching, and the
    ``/register`` ``/count`` ``/batch`` ``/budget`` ``/stats`` ``/metrics``
    endpoints.  ``--log-json [PATH]`` emits one schema-pinned JSON line per
    request; ``--slow-ms N`` marks slow requests (see
    ``docs/observability.md``).  ``--workers N`` scales out to a prefork
    cluster sharing one budget ledger through the journal (requires
    ``--state-dir``; see ``docs/scaling.md``), with per-worker admission
    control (``--max-inflight``) and a ``GET /capacity`` board.

``metrics``
    Scrape a running server's ``GET /metrics``, validate the Prometheus
    text format, and print a snapshot (``--raw`` for the exact exposition
    text, ``--json`` for parsed families).

``batch``
    Answer a JSON file of ``(query, epsilon)`` requests in one shot through
    the serving layer: identical query shapes are deduplicated (answered
    once, charged once) and sensitivities are computed concurrently.

``mutate``
    Apply a tuple-level delta batch to a database registered on a running
    server (``POST /mutate``): inserts/deletes/replaces advance only the
    touched relations' epochs, keeping untouched cache entries warm — the
    streaming alternative to a full re-register (see ``docs/mutation.md``).

``state``
    Inspect a serving-state directory (``serve --state-dir``): ``state
    replay`` replays the snapshot + write-ahead journal and prints the
    recovered sessions, budgets and audit totals without starting a server.

``fuzz``
    Differential fuzzing and statistical verification (:mod:`repro.qa`):
    random schemas/databases/queries are checked python-backend ==
    numpy-backend == brute-force oracle (counts, boundary multiplicities,
    sensitivity profiles, smoothness invariants), and seeded releases are
    goodness-of-fit tested against the exact noise law at query, service
    and batch level.  Every failure prints a self-contained replay
    snippet; exit code 1 means mismatches were found.

``count`` and ``sensitivity`` accept ``--json`` to emit machine-readable
output instead of the human-readable text.  ``count``, ``sensitivity``,
``serve`` and ``batch`` accept ``--backend {python,numpy}`` to pick the
execution backend (see ``docs/backends.md``); every output reports which
backend ran.  The same four commands accept ``--parallelism N`` to fan
residual-sensitivity component evaluations out over a worker pool and
``--parallelism-mode {thread,process,auto}`` to choose *which* pool — the
default in-process threads or the shared GIL-free process pool for large
lattices (``fuzz`` also accepts the mode, to run the differential battery
under it; see ``docs/performance.md``).  Results are identical whichever
combination runs.

Examples
--------
::

    repro-dp count --dataset GrQc --query "Edge(x,y), Edge(y,z), Edge(x,z), x != y, y != z, x != z" --epsilon 1.0
    repro-dp count --dataset GrQc --query "Edge(x, y)" --epsilon 0.5 --json --backend numpy
    repro-dp table1 --datasets GrQc HepTh --queries q_triangle q_3star
    repro-dp generate --dataset CondMat --output condmat_surrogate.txt
    repro-dp serve --dataset GrQc --name grqc --port 8080 --session-budget 2.0 --backend numpy
    repro-dp batch --dataset GrQc --requests workload.json --epsilon-total 1.0
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.data.database import Database
from repro.datasets.snap_surrogates import available_datasets, surrogate_database
from repro.engine.backend import available_backends, get_backend
from repro.exceptions import ReproError
from repro.experiments.example3 import format_example3, run_example3
from repro.experiments.figure3 import Figure3Config, format_figure3, run_figure3
from repro.experiments.nonfull import format_nonfull_study, run_nonfull_study
from repro.experiments.optimality import format_optimality_study, run_optimality_study
from repro.experiments.runner import run_all_experiments
from repro.experiments.scaling import format_scaling_study, run_scaling_study
from repro.experiments.table1 import Table1Config, format_table1, run_table1
from repro.graphs.loader import database_from_edge_file, write_edge_file
from repro.mechanisms.mechanism import PrivateCountingQuery
from repro.query.parser import parse_query
from repro.sensitivity.elastic import ElasticSensitivity
from repro.sensitivity.global_sensitivity import GlobalSensitivityBound
from repro.sensitivity.residual import ResidualSensitivity

__all__ = ["main", "build_parser"]


def _load_database(args: argparse.Namespace) -> Database:
    """Load the database selected by ``--dataset`` or ``--edge-file``."""
    if getattr(args, "edge_file", None):
        return database_from_edge_file(args.edge_file)
    dataset = getattr(args, "dataset", None) or "GrQc"
    return surrogate_database(dataset, scale=getattr(args, "scale", None))


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        choices=available_datasets(),
        help="surrogate dataset to use (default: GrQc)",
    )
    parser.add_argument("--edge-file", help="edge-list file to load instead of a surrogate")
    parser.add_argument("--scale", type=float, default=None, help="surrogate scale factor")


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default=None,
        choices=available_backends(),
        help="execution backend (default: python, or $REPRO_BACKEND); "
        "backends produce identical results and differ only in speed",
    )


def _add_parallelism_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parallelism",
        type=int,
        default=None,
        help="worker-pool size for residual-sensitivity component "
        "evaluations (default: serial); results are identical either way",
    )
    _add_parallelism_mode_argument(parser)


def _add_parallelism_mode_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parallelism-mode",
        default=None,
        choices=["thread", "process", "auto"],
        help="how component evaluations fan out: in-process threads "
        "(default), a shared GIL-free process pool, or auto (process for "
        "large lattices); results are identical across modes",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro-dp",
        description="Differentially private conjunctive-query counting via residual sensitivity",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    count = subparsers.add_parser("count", help="release a DP count of a query")
    _add_data_arguments(count)
    count.add_argument("--query", required=True, help="query in the datalog-style syntax")
    count.add_argument("--epsilon", type=float, default=1.0, help="privacy parameter")
    count.add_argument(
        "--method",
        default="residual",
        choices=["residual", "elastic", "smooth-triangle", "smooth-star", "global"],
        help="sensitivity engine used for calibration",
    )
    count.add_argument("--seed", type=int, default=None, help="noise seed (for reproducibility)")
    count.add_argument("--json", action="store_true", help="emit JSON instead of text")
    _add_backend_argument(count)
    _add_parallelism_argument(count)

    sensitivity = subparsers.add_parser(
        "sensitivity", help="print sensitivities of a query without releasing a count"
    )
    _add_data_arguments(sensitivity)
    sensitivity.add_argument("--query", required=True, help="query in the datalog-style syntax")
    sensitivity.add_argument("--beta", type=float, default=0.1, help="smoothing parameter")
    sensitivity.add_argument("--json", action="store_true", help="emit JSON instead of text")
    _add_backend_argument(sensitivity)
    _add_parallelism_argument(sensitivity)

    table1 = subparsers.add_parser("table1", help="reproduce Table 1")
    table1.add_argument("--datasets", nargs="*", default=[], choices=available_datasets())
    table1.add_argument("--queries", nargs="*", default=[])
    table1.add_argument("--beta", type=float, default=0.1)
    table1.add_argument("--scale", type=float, default=None)

    figure3 = subparsers.add_parser("figure3", help="reproduce the Figure 3 beta sweep")
    figure3.add_argument("--datasets", nargs="*", default=[], choices=available_datasets())
    figure3.add_argument("--queries", nargs="*", default=[])
    figure3.add_argument("--scale", type=float, default=None)

    subparsers.add_parser("example3", help="reproduce Example 3 (ES vs GS on path-4)")
    subparsers.add_parser("nonfull", help="run the Section 6 projection study")

    optimality = subparsers.add_parser("optimality", help="empirical optimality ratios")
    optimality.add_argument("--datasets", nargs="*", default=[], choices=available_datasets())
    optimality.add_argument("--epsilon", type=float, default=1.0)
    optimality.add_argument("--scale", type=float, default=None)

    scaling = subparsers.add_parser("scaling", help="RS cost vs instance size")
    scaling.add_argument("--sizes", nargs="*", type=int, default=[100, 200, 400, 800])

    run_all = subparsers.add_parser("run-all", help="run every experiment and write reports")
    run_all.add_argument("--output-dir", default="experiment_results")
    run_all.add_argument("--datasets", nargs="*", default=[], choices=available_datasets())
    run_all.add_argument("--scale", type=float, default=None)

    generate = subparsers.add_parser("generate", help="write a surrogate dataset edge list")
    generate.add_argument("--dataset", required=True, choices=available_datasets())
    generate.add_argument("--output", required=True, help="output edge-list path")
    generate.add_argument("--scale", type=float, default=None)

    serve = subparsers.add_parser("serve", help="run the JSON-over-HTTP serving layer")
    _add_data_arguments(serve)
    serve.add_argument("--name", default=None, help="name to register the preloaded database under")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080, help="bind port (0 for ephemeral)")
    serve.add_argument(
        "--session-budget", type=float, default=1.0, help="default per-session epsilon budget"
    )
    serve.add_argument(
        "--total-budget",
        type=float,
        default=None,
        help="deployment-wide epsilon budget shared by all sessions",
    )
    serve.add_argument(
        "--cache-capacity", type=int, default=256, help="entries per cache (0 disables caching)"
    )
    serve.add_argument(
        "--session-ttl", type=float, default=None, help="idle session lifetime in seconds"
    )
    serve.add_argument("--seed", type=int, default=None, help="noise seed (tests only)")
    serve.add_argument("--log-requests", action="store_true", help="log HTTP requests to stderr")
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="prefork worker processes sharing the listening socket and the "
        "budget ledger (> 1 requires --state-dir; see docs/scaling.md)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=32,
        help="per-worker admission-control cap: /count and /batch beyond "
        "this many concurrent requests are shed with 503 + Retry-After",
    )
    serve.add_argument(
        "--noise-mode",
        choices=("stream", "charge-seq"),
        default="stream",
        help="'stream' draws noise from the worker's own rng stream; "
        "'charge-seq' derives each draw from (seed, global charge ordinal) "
        "so a seeded multi-worker cluster is bitwise reproducible "
        "(requires --seed)",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        help="directory for durable state (write-ahead ledger journal + "
        "snapshots); sessions and spent budgets found there are recovered "
        "before serving starts",
    )
    serve.add_argument(
        "--snapshot-interval",
        type=int,
        default=1000,
        help="journal records between compacted snapshots (0 disables "
        "automatic compaction; only meaningful with --state-dir)",
    )
    serve.add_argument(
        "--log-json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="write one schema-pinned JSON log line per request to PATH "
        "('-' or no value: stderr)",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="mark requests slower than this many milliseconds as slow "
        "(logged at WARNING; counted in repro_slow_requests_total); "
        "implies --log-json to stderr unless a path is given",
    )
    serve.add_argument(
        "--no-observability",
        action="store_true",
        help="disable metrics and tracing (no /metrics endpoint, no timings)",
    )
    _add_backend_argument(serve)
    _add_parallelism_argument(serve)

    metrics = subparsers.add_parser(
        "metrics", help="scrape, validate and print a running server's /metrics"
    )
    metrics.add_argument(
        "--url", default="http://127.0.0.1:8080", help="base URL of a running repro-dp serve"
    )
    metrics.add_argument("--timeout", type=float, default=5.0, help="scrape timeout in seconds")
    metrics.add_argument(
        "--raw", action="store_true", help="print the raw Prometheus text after validating it"
    )
    metrics.add_argument(
        "--json", action="store_true", help="print the parsed metric families as JSON"
    )

    mutate = subparsers.add_parser(
        "mutate",
        help="apply tuple-level delta operations to a database on a running server",
    )
    mutate.add_argument(
        "--url", default="http://127.0.0.1:8080", help="base URL of a running repro-dp serve"
    )
    mutate.add_argument("--database", required=True, help="registered database name")
    mutate.add_argument(
        "--operations",
        default=None,
        help="JSON file of operation objects (a list, or {operations: [...]}; "
        "'-' reads stdin); see docs/mutation.md for the shapes",
    )
    mutate.add_argument(
        "--insert",
        nargs=2,
        action="append",
        metavar=("RELATION", "ROWS"),
        default=[],
        help="insert rows, e.g. --insert edge '[[1,2],[2,3]]' (a single row "
        "like '[1,2]' is also accepted); repeatable, applied in order",
    )
    mutate.add_argument(
        "--delete",
        nargs=2,
        action="append",
        metavar=("RELATION", "ROWS"),
        default=[],
        help="delete rows (same row syntax as --insert); repeatable",
    )
    mutate.add_argument("--timeout", type=float, default=30.0, help="request timeout in seconds")
    mutate.add_argument("--json", action="store_true", help="emit the raw JSON response")

    state = subparsers.add_parser(
        "state", help="inspect a durable serving-state directory"
    )
    state_actions = state.add_subparsers(dest="state_command", required=True)
    replay = state_actions.add_parser(
        "replay", help="replay snapshot + journal and print the recovered state"
    )
    replay.add_argument("--state-dir", required=True, help="state directory to replay")
    replay.add_argument("--json", action="store_true", help="emit JSON instead of text")

    fuzz = subparsers.add_parser(
        "fuzz",
        help="differential fuzzing (backends vs oracle) + noise-calibration tests",
    )
    fuzz.add_argument("--cases", type=int, default=100, help="number of generated workloads")
    fuzz.add_argument("--seed", type=int, default=0, help="master workload seed")
    fuzz.add_argument(
        "--start", type=int, default=0, help="first case index (cases are seed-addressable)"
    )
    fuzz.add_argument(
        "--calibration-samples",
        type=int,
        default=400,
        help="noise draws per calibration level (0 disables the statistical verifier)",
    )
    fuzz.add_argument("--json", action="store_true", help="emit a JSON report instead of text")
    fuzz.add_argument(
        "--cluster-cases",
        type=int,
        default=0,
        help="also replay this many fuzz workloads through a live 2-worker "
        "prefork server and require releases bitwise-identical to the "
        "in-process service (0 disables)",
    )
    _add_backend_argument(fuzz)
    _add_parallelism_mode_argument(fuzz)

    batch = subparsers.add_parser(
        "batch", help="answer a JSON file of (query, epsilon) requests in one shot"
    )
    _add_data_arguments(batch)
    batch.add_argument(
        "--requests",
        required=True,
        help="JSON file: a list of {query, epsilon?, method?} objects, or "
        "{requests: [...], epsilon_total: ...} ('-' reads stdin)",
    )
    batch.add_argument(
        "--epsilon-total",
        type=float,
        default=None,
        help="total budget split evenly over the distinct query shapes",
    )
    batch.add_argument(
        "--budget",
        type=float,
        default=None,
        help="session budget (default: exactly what the batch needs)",
    )
    batch.add_argument("--max-workers", type=int, default=4, help="concurrent sensitivity workers")
    batch.add_argument("--seed", type=int, default=None, help="noise seed (for reproducibility)")
    batch.add_argument("--json", action="store_true", help="emit the full JSON batch result")
    _add_backend_argument(batch)
    _add_parallelism_argument(batch)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "count":
        database = _load_database(args)
        query = parse_query(args.query)
        releaser = PrivateCountingQuery(
            query,
            epsilon=args.epsilon,
            method=args.method,
            rng=args.seed,
            backend=args.backend,
            parallelism=args.parallelism,
            parallelism_mode=args.parallelism_mode,
        )
        release = releaser.release(database)
        if args.json:
            print(
                json.dumps(
                    {
                        "noisy_count": release.noisy_count,
                        "method": release.method,
                        "backend": release.backend,
                        "epsilon": release.epsilon,
                        "sensitivity": release.sensitivity,
                        "expected_error": release.expected_error,
                    }
                )
            )
            return 0
        print(f"noisy count : {release.noisy_count:.2f}")
        print(f"method      : {release.method}")
        print(f"backend     : {release.backend}")
        print(f"epsilon     : {release.epsilon}")
        print(f"expected err: {release.expected_error:.2f}")
        return 0

    if args.command == "sensitivity":
        database = _load_database(args)
        query = parse_query(args.query)
        backend = get_backend(args.backend).name
        residual = ResidualSensitivity(
            query,
            beta=args.beta,
            backend=backend,
            parallelism=args.parallelism,
            parallelism_mode=args.parallelism_mode,
        ).compute(database)
        elastic = ElasticSensitivity(query, beta=args.beta).compute(database)
        global_bound = GlobalSensitivityBound(query).compute(database)
        profiler = residual.detail("profiler")
        if args.json:
            print(
                json.dumps(
                    {
                        "beta": args.beta,
                        "backend": backend,
                        "residual": residual.value,
                        "elastic": elastic.value,
                        "global_agm": global_bound.value,
                        "profiler": profiler,
                    }
                )
            )
            return 0
        print(f"residual sensitivity : {residual.value:.2f}")
        print(f"elastic sensitivity  : {elastic.value:.2f}")
        print(f"global bound (AGM)   : {global_bound.value:.2f}")
        print(f"backend              : {backend}")
        if profiler is not None:
            print(
                "profiler             : "
                f"{profiler['subsets_total']} subsets -> "
                f"{profiler['components_evaluated']} component evaluations "
                f"({profiler['component_hits']} shared), "
                f"{profiler['factorization_hits']} factorization cache hits"
            )
        return 0

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "mutate":
        return _run_mutate(args)

    if args.command == "metrics":
        return _run_metrics(args)

    if args.command == "batch":
        return _run_batch(args)

    if args.command == "state":
        return _run_state(args)

    if args.command == "fuzz":
        return _run_fuzz(args)

    if args.command == "table1":
        result = run_table1(
            Table1Config(
                beta=args.beta,
                datasets=tuple(args.datasets),
                queries=tuple(args.queries),
                scale=args.scale,
            )
        )
        print(format_table1(result))
        return 0

    if args.command == "figure3":
        panels = run_figure3(
            Figure3Config(
                datasets=tuple(args.datasets),
                queries=tuple(args.queries),
                scale=args.scale,
            )
        )
        print(format_figure3(panels))
        return 0

    if args.command == "example3":
        print(format_example3(run_example3()))
        return 0

    if args.command == "nonfull":
        print(format_nonfull_study(run_nonfull_study()))
        return 0

    if args.command == "optimality":
        rows = run_optimality_study(
            epsilon=args.epsilon, datasets=tuple(args.datasets), scale=args.scale
        )
        print(format_optimality_study(rows))
        return 0

    if args.command == "scaling":
        print(format_scaling_study(run_scaling_study(sizes=tuple(args.sizes))))
        return 0

    if args.command == "run-all":
        outputs = run_all_experiments(
            args.output_dir, datasets=tuple(args.datasets), scale=args.scale
        )
        for path in outputs.files:
            print(f"wrote {path}")
        return 0

    if args.command == "generate":
        database = surrogate_database(args.dataset, scale=args.scale)
        write_edge_file(database, args.output)
        print(f"wrote {args.output} ({len(database.relation('Edge'))} directed edges)")
        return 0

    raise ReproError(f"unhandled command {args.command!r}")  # pragma: no cover


def _build_service(args: argparse.Namespace, **service_kwargs) -> "PrivateQueryService":
    """A service with the CLI-selected database registered as ``args.name``."""
    from repro.service import PrivateQueryService

    service = PrivateQueryService(**service_kwargs)
    name = getattr(args, "name", None) or getattr(args, "dataset", None) or "default"
    service.register_database(
        name, _load_database(args), backend=getattr(args, "backend", None)
    )
    return service


def _serve_request_logger(args: argparse.Namespace):
    """Build the optional request logger: ``(logger, handle_to_close)``."""
    from repro.obs.logs import RequestLogger

    # --slow-ms without --log-json still needs a logger (it does the slow
    # marking); default its output to stderr.
    log_target = args.log_json
    if log_target is None and args.slow_ms is not None:
        log_target = "-"
    if log_target is None:
        return None, None
    if log_target == "-":
        return RequestLogger(sys.stderr, slow_ms=args.slow_ms), None
    try:
        handle = open(log_target, "a", encoding="utf-8")
    except OSError as exc:
        raise ReproError(f"cannot open --log-json file: {exc}") from None
    return RequestLogger(handle, slow_ms=args.slow_ms), handle


def _run_serve(args: argparse.Namespace) -> int:
    import os
    import signal
    import threading

    from repro.service.api import make_server
    from repro.service.cluster import CapacityBoard

    if args.workers > 1:
        return _run_serve_cluster(args)

    request_logger, log_handle = _serve_request_logger(args)
    service = _build_service(
        args,
        session_budget=args.session_budget,
        total_budget=args.total_budget,
        cache_capacity=args.cache_capacity,
        session_ttl=args.session_ttl,
        rng=args.seed,
        parallelism=args.parallelism,
        parallelism_mode=args.parallelism_mode,
        state_dir=args.state_dir,
        snapshot_interval=args.snapshot_interval,
        observability=not args.no_observability,
        request_logger=request_logger,
        noise_mode=args.noise_mode,
    )
    board = CapacityBoard(1, args.max_inflight)
    board.attach(0, os.getpid())
    board.bind_metrics(service.metrics)
    server = make_server(
        service, args.host, args.port, log_requests=args.log_requests, capacity=board
    )
    host, port = server.server_address[:2]
    name = service.registry.names()[0]
    backend = service.registry.get(name).backend
    if args.state_dir is not None:
        recovered = service.sessions.active_ids()
        print(
            f"recovered state from {args.state_dir!r}: {len(recovered)} session(s), "
            f"audit total {service.sessions.audit.total_recorded}"
        )
    print(
        f"serving database {name!r} (backend {backend}) on http://{host}:{port}  "
        "(Ctrl-C to stop)"
    )
    if not args.no_observability:
        print(f"metrics on http://{host}:{port}/metrics")
    sys.stdout.flush()

    def drain(signum, frame):
        # Graceful shutdown: stop accepting, let in-flight requests finish.
        # shutdown() blocks until serve_forever returns, so it must not run
        # on the serving thread the signal interrupted.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous_term = signal.signal(signal.SIGTERM, drain)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        # server_close() joins in-flight request threads (they are
        # non-daemonic), then close() flushes and compacts the journal —
        # the drain finishes everything it accepted before exiting 0.
        server.server_close()
        service.close()
        board.close()
        if log_handle is not None:
            log_handle.close()
    return 0


def _run_serve_cluster(args: argparse.Namespace) -> int:
    from repro.service.cluster import ClusterDispatcher

    if args.state_dir is None:
        raise ReproError(
            "--workers > 1 requires --state-dir: the shared journal is what "
            "keeps the budget ledgers consistent across worker processes"
        )
    if args.noise_mode == "charge-seq" and args.seed is None:
        raise ReproError("--noise-mode charge-seq requires --seed")

    def service_factory(worker_label: str):
        # Runs in the forked child: each worker owns its own caches, rng,
        # journal handles and log stream (only the listening socket and the
        # capacity board are inherited from the dispatcher).
        request_logger, _ = _serve_request_logger(args)
        return _build_service(
            args,
            session_budget=args.session_budget,
            total_budget=args.total_budget,
            cache_capacity=args.cache_capacity,
            session_ttl=args.session_ttl,
            rng=args.seed,
            parallelism=args.parallelism,
            parallelism_mode=args.parallelism_mode,
            state_dir=args.state_dir,
            snapshot_interval=args.snapshot_interval,
            observability=not args.no_observability,
            request_logger=request_logger,
            shared_state=True,
            noise_mode=args.noise_mode,
            worker_label=worker_label,
        )

    def finalize():
        # Workers never compact (truncating the shared journal would
        # invalidate their siblings' read offsets); after the last worker
        # exited, one throwaway exclusive-mode service replays the journal
        # and folds it into a snapshot.  Budgets must match the cluster's
        # or the snapshot would misreport the recovered ledgers.
        from repro.service import PrivateQueryService

        service = PrivateQueryService(
            session_budget=args.session_budget,
            total_budget=args.total_budget,
            state_dir=args.state_dir,
            snapshot_interval=args.snapshot_interval,
            observability=False,
        )
        service.close(snapshot=True)

    dispatcher = ClusterDispatcher(
        args.host,
        args.port,
        args.workers,
        service_factory=service_factory,
        max_inflight=args.max_inflight,
        log_requests=args.log_requests,
        finalize=finalize,
    )
    host, port = dispatcher.bind()
    name = getattr(args, "name", None) or getattr(args, "dataset", None) or "default"
    print(
        f"serving database {name!r} with {args.workers} workers "
        f"on http://{host}:{port}  (Ctrl-C to stop)"
    )
    if not args.no_observability:
        print(f"metrics on http://{host}:{port}/metrics (per-worker labels)")
    print(f"capacity board on http://{host}:{port}/capacity")
    # Flush before forking: children inherit the stdout buffer, and an
    # unflushed banner would be printed once per worker.
    sys.stdout.flush()
    return dispatcher.serve()


def _run_metrics(args: argparse.Namespace) -> int:
    from urllib.error import URLError
    from urllib.request import urlopen

    from repro.obs.metrics import parse_prometheus_text

    url = args.url.rstrip("/") + "/metrics"
    try:
        with urlopen(url, timeout=args.timeout) as response:
            text = response.read().decode("utf-8")
    except (URLError, OSError) as exc:
        raise ReproError(f"cannot scrape {url}: {exc}") from None
    # Validates the exposition format; raises ServiceError (a ReproError)
    # with a line-precise message on anything malformed.
    families = parse_prometheus_text(text)
    if args.raw:
        print(text, end="")
        return 0
    if args.json:
        print(
            json.dumps(
                {
                    name: {
                        "type": family["type"],
                        "help": family["help"],
                        "samples": [
                            [sample, labels, value]
                            for sample, labels, value in family["samples"]
                        ],
                    }
                    for name, family in sorted(families.items())
                },
                indent=2,
            )
        )
        return 0
    for name, family in sorted(families.items()):
        samples = family["samples"]
        print(f"{name} ({family['type']}, {len(samples)} sample(s))")
        for sample, labels, value in samples:
            # Histograms are summarised by their _count/_sum samples; the
            # full bucket vectors are available with --raw / --json.
            if family["type"] == "histogram" and sample == f"{name}_bucket":
                continue
            label_text = (
                "{" + ", ".join(f"{k}={v!r}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            print(f"  {sample}{label_text} {value:g}")
    return 0


def _run_mutate(args: argparse.Namespace) -> int:
    """POST a delta-mutation batch to a running server (see docs/mutation.md)."""
    from pathlib import Path
    from urllib.error import HTTPError, URLError
    from urllib.request import Request, urlopen

    def parse_rows(raw: str, flag: str) -> list:
        try:
            rows = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ReproError(f"{flag}: rows are not valid JSON: {exc}") from None
        if not isinstance(rows, list):
            raise ReproError(f"{flag}: rows must be a JSON array")
        if rows and not isinstance(rows[0], list):
            rows = [rows]  # single-row shorthand: '[1,2]' -> '[[1,2]]'
        return rows

    operations: list = []
    if args.operations is not None:
        raw = (
            sys.stdin.read()
            if args.operations == "-"
            else Path(args.operations).read_text(encoding="utf-8")
        )
        try:
            document = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ReproError(f"--operations is not valid JSON: {exc}") from None
        if isinstance(document, dict):
            document = document.get("operations")
        if not isinstance(document, list):
            raise ReproError(
                "--operations must be a JSON list of operation objects "
                "(or {operations: [...]})"
            )
        operations.extend(document)
    for relation, rows in args.insert:
        operations.append(
            {"relation": relation, "op": "insert", "rows": parse_rows(rows, "--insert")}
        )
    for relation, rows in args.delete:
        operations.append(
            {"relation": relation, "op": "delete", "rows": parse_rows(rows, "--delete")}
        )
    if not operations:
        raise ReproError("nothing to do: pass --operations and/or --insert/--delete")

    url = args.url.rstrip("/") + "/mutate"
    body = json.dumps({"database": args.database, "operations": operations})
    request = Request(
        url, data=body.encode("utf-8"), headers={"Content-Type": "application/json"}
    )
    try:
        with urlopen(request, timeout=args.timeout) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace")
        try:
            detail = json.loads(detail).get("error", detail)
        except json.JSONDecodeError:
            pass
        raise ReproError(f"server rejected the mutation ({exc.code}): {detail}") from None
    except (URLError, OSError) as exc:
        raise ReproError(f"cannot reach {url}: {exc}") from None
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"database : {payload.get('name')} (version {payload.get('version')})")
    print(f"applied  : {payload.get('operations')} operation(s)")
    print(f"inserted : {payload.get('inserted')} row(s)")
    print(f"deleted  : {payload.get('deleted')} row(s)")
    epochs = payload.get("epochs") or {}
    sizes = payload.get("relations") or {}
    for name in sorted(epochs):
        print(f"  {name}: {sizes.get(name, '?')} tuple(s), epoch {epochs[name]}")
    return 0


def _run_state(args: argparse.Namespace) -> int:
    from repro.service.service import replay_state

    seq, sessions, registry = replay_state(args.state_dir)
    views = {}
    for session_id in sessions.active_ids():
        view = sessions.get(session_id).describe()
        del view["closed"]
        views[session_id] = view
    shared_spent = sessions.shared.spent
    shared_charges = sessions.shared.charge_count
    databases = registry.recovered_metadata()
    if args.json:
        summary = {
            "seq": seq,
            "sessions": views,
            "shared": {"spent": shared_spent, "charges": shared_charges},
            "audit": {
                "total_recorded": sessions.audit.total_recorded,
                "tail": len(sessions.audit),
            },
            "databases": databases,
            "versions": registry.snapshot_state()["versions"],
        }
        print(json.dumps(summary, indent=2))
        return 0
    print(f"state directory : {args.state_dir}")
    print(f"last journal seq: {seq}")
    print(f"audit total     : {sessions.audit.total_recorded}")
    print(f"shared spent    : {shared_spent:.6f} ({shared_charges} charges)")
    if views:
        print(f"{len(views)} live session(s):")
        for session_id, view in views.items():
            print(
                f"  {session_id}: budget {view['budget']}, "
                f"spent {view['spent']:.6f}, remaining {view['remaining']:.6f}, "
                f"{view['charges']} charge(s)"
            )
    else:
        print("no live sessions")
    if databases:
        print(f"{len(databases)} registered database(s):")
        for name, meta in sorted(databases.items()):
            print(
                f"  {name}: version {meta.get('version')}, "
                f"backend {meta.get('backend')}, "
                f"private tuples {meta.get('private_tuples')}"
            )
    else:
        print("no registered databases")
    return 0


def _run_fuzz(args: argparse.Namespace) -> int:
    import tempfile

    from repro.engine.backend import get_backend as _get_backend
    from repro.qa.calibration import verify_calibration
    from repro.qa.runner import DifferentialRunner

    backend = _get_backend(args.backend).name
    runner = DifferentialRunner(
        args.seed, backend=backend, parallelism_mode=args.parallelism_mode
    )
    report = runner.run(args.cases, start=args.start)

    calibration = None
    if args.calibration_samples > 0:
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-state-") as state_dir:
            calibration = verify_calibration(
                seed=args.seed,
                samples=args.calibration_samples,
                backend=backend,
                state_dir=state_dir,
            )

    cluster = None
    if args.cluster_cases > 0:
        from repro.qa.cluster import verify_cluster_serve

        cluster = verify_cluster_serve(
            seed=args.seed, cases=args.cluster_cases, backend=backend
        )

    ok = (
        report.ok
        and (calibration is None or calibration.ok)
        and (cluster is None or cluster.ok)
    )
    if args.json:
        print(
            json.dumps(
                {
                    "ok": ok,
                    "fuzz": report.to_dict(),
                    "calibration": None if calibration is None else calibration.to_dict(),
                    "cluster": None if cluster is None else cluster.to_dict(),
                }
            )
        )
        return 0 if ok else 1

    for failure in report.failures:
        print(
            f"FAIL case {failure.case_index} check {failure.check} "
            f"(seed {failure.seed}, backend {failure.backend}):"
        )
        print(f"  {failure.message}")
        print("  replay snippet:")
        for line in failure.replay.splitlines():
            print(f"    {line}")
        print()
    print(
        f"fuzz: {report.cases} cases (seed {report.seed}, start {report.start}, "
        f"backend {backend}), {report.checks_run} checks, "
        f"{report.oracle_ls_cases} exhaustive-LS cases, "
        f"{len(report.failures)} failure(s)"
    )
    if calibration is not None:
        for check in calibration.checks:
            status = "ok" if check.passed else "FAIL"
            print(
                f"calibration [{status}] {check.level}: n={check.samples} "
                f"KS={check.statistic:.4f} p={check.p_value:.3g} ({check.detail})"
            )
    if cluster is not None:
        for failure in cluster.failures:
            print(f"cluster FAIL case {failure['case']}: {failure['message']}")
            print("  replay snippet:")
            for line in failure["replay"].splitlines():
                print(f"    {line}")
        status = "ok" if cluster.ok else "FAIL"
        print(
            f"cluster [{status}]: {cluster.cases} cases through "
            f"{cluster.workers} workers, {len(cluster.failures)} failure(s)"
        )
    return 0 if ok else 1


def _load_batch_requests(path: str) -> tuple[list, float | None]:
    """Parse a batch request file: ``[{...}, ...]`` or ``{"requests": [...]}``."""
    if path == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(path, encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            raise ReproError(f"cannot read batch request file: {exc}") from None
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ReproError(f"batch request file is not valid JSON: {exc}") from None
    if isinstance(payload, list):
        return payload, None
    if isinstance(payload, dict) and isinstance(payload.get("requests"), list):
        epsilon_total = payload.get("epsilon_total")
        return payload["requests"], float(epsilon_total) if epsilon_total is not None else None
    raise ReproError(
        "batch request file must be a JSON list of requests or an object "
        "with a 'requests' list"
    )


def _run_batch(args: argparse.Namespace) -> int:
    requests, file_epsilon_total = _load_batch_requests(args.requests)
    epsilon_total = args.epsilon_total if args.epsilon_total is not None else file_epsilon_total

    if args.budget is not None:
        budget = args.budget
    elif epsilon_total is not None:
        budget = epsilon_total
    else:
        budget = sum(float(req.get("epsilon") or 0.0) for req in requests if isinstance(req, dict))
    if budget <= 0:
        raise ReproError(
            "cannot infer a session budget: give every request an epsilon, or "
            "pass --epsilon-total / --budget"
        )

    service = _build_service(
        args,
        session_budget=budget,
        rng=args.seed,
        parallelism=args.parallelism,
        parallelism_mode=args.parallelism_mode,
    )
    name = service.registry.names()[0]
    session = service.create_session()
    result = service.batch(
        name,
        requests,
        session=session.session_id,
        epsilon_total=epsilon_total,
        max_workers=args.max_workers,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0 if result.ok else 2
    for item in result.items:
        if item.ok:
            response = item.response
            dedup = "  (deduplicated)" if item.deduplicated else ""
            print(
                f"[{item.index}] noisy count {response.noisy_count:.2f}  "
                f"eps {response.epsilon:.4f}  method {response.method}{dedup}"
            )
        else:
            print(f"[{item.index}] error: {item.error}")
    print(
        f"{len(result.items)} requests, {result.groups} distinct shapes, "
        f"{result.deduplicated} deduplicated, epsilon charged {result.epsilon_charged:.4f}, "
        f"backend {service.registry.get(name).backend}"
    )
    return 0 if result.ok else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
