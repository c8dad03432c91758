"""The :class:`PrivateQueryService` façade.

This is the multi-tenant entry point the paper's Section 8 deployment
setting calls for: databases are registered once, clients open sessions with
per-session ε budgets (optionally capped by a deployment-wide budget), and
repeated query shapes are served from caches instead of re-running the
residual-sensitivity machinery.

Three caches cooperate (see :mod:`repro.service.cache`):

* **plan** — query text → (parsed query, canonical shape key); skips the
  parser and canonicalizer on repeated request strings;
* **profile** — ``(db, version, shape, epochs)`` → the residual-query
  boundary multiplicities ``T_F(I)``, which dominate the cost of residual
  sensitivity and are *β-independent*, so one profile serves every ε;
  profiles are produced by the shared-lattice evaluator
  (:func:`repro.engine.profile.evaluate_profile`), whose subplan-dedup and
  factorization-cache counters the service accumulates into the
  ``profiler`` block of :meth:`PrivateQueryService.stats`;
* **sensitivity** / **count** — final sensitivity values and true counts per
  ``(db, version, shape, epochs[, method, β])``;
* **component** — cross-profile memo of representative lattice components,
  keyed per component on the epochs of exactly the relations it reads.

The ``epochs`` element is the per-relation mutation-epoch vector of the
relations the query touches (:meth:`repro.data.database.Database.epochs`):
a delta mutation through :meth:`PrivateQueryService.mutate` advances only
the touched relations' epochs, so entries for untouched relations — and,
via the component cache, untouched lattice components of *affected*
queries — stay warm instead of being wholesale-invalidated by a version
bump.  See ``docs/mutation.md`` for the full invalidation table.

Caching never changes the released distribution: every cached value is a
deterministic function of the query shape and database version, and noise is
always drawn fresh from the service's generator.  With a fixed seed, a
cached service and an uncached one (``cache_capacity=0``) produce *bitwise
identical* release sequences.

With ``state_dir=`` the service becomes **restartable**: sessions, spent
budgets, the shared deployment budget, audit totals and registered-database
version metadata are write-ahead journaled (and periodically compacted into
snapshots) by :mod:`repro.service.persistence`, and a service constructed on
the same directory recovers them.  Charges are transactional — reserve →
journal → commit, with rollback if drawing the release fails — so ε can
never be consumed without either a release or a durable record of the
refusal.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

import numpy as np

from repro.data.database import Database
from repro.engine.backend import available_backends, default_backend_name
from repro.engine.canonical import canonical_query_key
from repro.engine.evaluation import count_query
from repro.engine.procpool import shutdown_process_pool
from repro.engine.profile import PARALLELISM_MODES
from repro.exceptions import PrivacyError, ServiceError, UnknownResourceError
from repro.mechanisms.accountant import PrivacyAccountant
from repro.mechanisms.mechanism import PrivateCountingQuery
from repro.mechanisms.smooth_mechanism import BETA_FRACTION
from repro.obs.logs import RequestLogger
from repro.obs.metrics import DEFAULT_IO_BUCKETS, MetricsRegistry
from repro.obs.tracing import Tracer, current_span, span as obs_span
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.sensitivity.base import SensitivityResult
from repro.sensitivity.residual import ResidualSensitivity
from repro.service.cache import LRUCache
from repro.service.persistence import AUDIT_TAIL_LIMIT, StateStore
from repro.service.registry import DatabaseRegistry, RegisteredDatabase
from repro.service.sessions import AuditLog, SessionManager

__all__ = ["PrivateQueryService", "CountResponse", "replay_state"]

_METHODS = ("residual", "elastic", "smooth-triangle", "smooth-star", "global")


def _fold(store: StateStore, sessions: SessionManager, registry: DatabaseRegistry) -> int:
    """Recover ``store`` into ``sessions`` and ``registry``; returns the seq.

    Binds the snapshot readers and the one journal fold — every record goes
    to :meth:`DatabaseRegistry.absorb`, then :meth:`SessionManager.absorb`,
    and a record neither recognises is rejected — as the store's callbacks,
    so the records a shared store later absorbs from sibling workers take
    exactly the path recovery took.
    """

    def load(body: Mapping[str, Any]) -> None:
        sessions.load_snapshot(body)
        registry.load_snapshot(body)

    def absorb(records) -> None:
        for record in records:
            if not (registry.absorb(record) or sessions.absorb(record)):
                raise ServiceError(
                    f"unknown journal event {record['event']!r} (seq {record.get('seq')})"
                )

    store.snapshot_loader = load
    store.absorb_records = absorb
    return store.recover()


def replay_state(state_dir: str) -> tuple[int, SessionManager, DatabaseRegistry]:
    """Fold a state directory offline: ``(seq, sessions, registry)``.

    What ``repro-dp state replay`` prints.  The directory is opened
    read-only — no lock, no torn-tail repair, no write of any kind, so it
    is safe against a live server — and folded through the same
    ``absorb`` methods a serving process recovers with, into a
    journal-less :class:`SessionManager` and :class:`DatabaseRegistry`.
    The shared ledger takes every shared charge whatever budget the
    deployment had (only its spend is meaningful), and the audit log keeps
    the snapshot's bounded tail (:data:`AUDIT_TAIL_LIMIT` records).
    """
    sessions = SessionManager(
        shared=PrivacyAccountant(sys.float_info.max),
        audit=AuditLog(max_records=AUDIT_TAIL_LIMIT),
    )
    registry = DatabaseRegistry()
    store = StateStore(state_dir, create=False)
    try:
        seq = _fold(store, sessions, registry)
    finally:
        store.close()
    return seq, sessions, registry


@dataclass(frozen=True)
class CountResponse:
    """The serving-layer view of one private release."""

    database: str
    version: int
    query_key: str | None
    noisy_count: float
    epsilon: float
    method: str
    sensitivity: float
    expected_error: float
    session: str | None
    plan_cache_hit: bool
    sensitivity_cache_hit: bool
    count_cache_hit: bool
    deduplicated: bool = False
    remaining_budget: float | None = None
    backend: str = "python"
    details: Mapping[str, Any] = field(default_factory=dict)
    trace_id: str | None = None
    timings: Mapping[str, float] | None = None

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable view (publishable fields only)."""
        payload = {
            "database": self.database,
            "version": self.version,
            "query_key": self.query_key,
            "noisy_count": self.noisy_count,
            "epsilon": self.epsilon,
            "method": self.method,
            "backend": self.backend,
            "sensitivity": self.sensitivity,
            "expected_error": self.expected_error,
            "session": self.session,
            "cache": {
                "plan_hit": self.plan_cache_hit,
                "sensitivity_hit": self.sensitivity_cache_hit,
                "count_hit": self.count_cache_hit,
            },
            "deduplicated": self.deduplicated,
            "remaining_budget": self.remaining_budget,
        }
        # The opt-in trace block (``timings: true`` on the request).
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.timings is not None:
            payload["timings"] = dict(self.timings)
        return payload


class PrivateQueryService:
    """Serve DP counting queries over registered databases.

    Parameters
    ----------
    session_budget:
        Default per-session ε budget.
    total_budget:
        Optional deployment-wide ε budget shared by all sessions (and by
        sessionless requests).  ``None`` leaves only per-session limits.
    cache_capacity:
        Capacity of each cache (plan / profile / sensitivity / count).
        ``0`` disables caching entirely — useful for benchmarking and for
        validating that caching does not change results.
    session_ttl:
        Idle session lifetime in seconds (``None``: never expire).
    rng:
        numpy Generator or seed for all noise drawn by this service.  One
        generator serves every request (guarded by a lock), so a seeded
        service produces a reproducible release sequence.
    strategy:
        Evaluation strategy forwarded to the residual-sensitivity engine.
    parallelism:
        Worker-pool size for the residual-sensitivity component
        evaluations (``None``/``0``/``1``: serial in thread mode, the
        per-core default pool size in process mode).  Purely a throughput
        knob — results, and therefore seeded release sequences, are
        identical.
    parallelism_mode:
        Service-wide default for how component fan-out runs: ``"thread"``
        (the ``None`` default), ``"process"`` (the shared GIL-free pool of
        :mod:`repro.engine.procpool`, shut down by :meth:`close`) or
        ``"auto"`` (process for large lattices).  Individual registrations
        can override it via ``register_database(parallelism_mode=...)``.
        Results are identical across modes.
    state_dir:
        Optional directory for durable state (see
        :mod:`repro.service.persistence`).  Sessions, budgets and audit
        totals found there are recovered before the service starts serving;
        every subsequent state transition is write-ahead journaled.
    snapshot_interval:
        Journal records between automatic compacted snapshots (``0``
        disables automatic compaction).  Only meaningful with ``state_dir``.
    observability:
        ``True`` (the default) wires up the telemetry layer: a
        :class:`~repro.obs.metrics.MetricsRegistry` (exposed as
        :attr:`metrics`, rendered by ``GET /metrics``) and a
        :class:`~repro.obs.tracing.Tracer` powering opt-in per-request
        ``timings`` breakdowns.  ``False`` disables both — the baseline the
        instrumentation-overhead benchmark compares against.
    request_logger:
        Optional :class:`~repro.obs.logs.RequestLogger` emitting one
        schema-pinned JSON line per request (``repro-dp serve --log-json``);
        its ``slow_ms`` threshold drives slow-request marking.
    shared_state:
        Open the state store in shared (multi-process) mode so sibling
        cluster workers can co-write the journal (requires ``state_dir``;
        see :mod:`repro.service.cluster`).  Records journaled by siblings
        are absorbed into the local ledgers on every charge.
    noise_mode:
        ``"stream"`` (the default): all noise comes from the single service
        generator, giving one reproducible stream per process.
        ``"charge-seq"``: each release draws from a fresh generator seeded
        by ``(seed, charge_seq)``, where ``charge_seq`` is the charge's
        global ordinal in the journal — so a seeded *cluster* produces
        bitwise-identical releases no matter which worker serves which
        request.  Requires an integer ``rng`` seed.
    worker_label:
        Optional worker name stamped as a constant ``worker=...`` label on
        every metric series (cluster workers only; a plain service renders
        unlabeled series).

    Examples
    --------
    >>> from repro.data import Database, DatabaseSchema
    >>> schema = DatabaseSchema.from_arities({"R": 2})
    >>> db = Database.from_rows(schema, R=[(1, 2), (2, 3)])
    >>> service = PrivateQueryService(session_budget=2.0, rng=0)
    >>> _ = service.register_database("toy", db)
    >>> sid = service.create_session().session_id
    >>> response = service.count("toy", "R(x, y)", epsilon=0.5, session=sid)
    >>> response.epsilon
    0.5
    """

    def __init__(
        self,
        *,
        session_budget: float = 1.0,
        total_budget: float | None = None,
        cache_capacity: int = 256,
        session_ttl: float | None = None,
        rng: np.random.Generator | int | None = None,
        strategy: str = "auto",
        parallelism: int | None = None,
        parallelism_mode: str | None = None,
        state_dir: str | None = None,
        snapshot_interval: int = 1000,
        observability: bool = True,
        request_logger: RequestLogger | None = None,
        shared_state: bool = False,
        noise_mode: str = "stream",
        worker_label: str | None = None,
    ):
        if noise_mode not in ("stream", "charge-seq"):
            raise ServiceError(f"unknown noise_mode {noise_mode!r}")
        if parallelism_mode is not None and parallelism_mode not in PARALLELISM_MODES:
            raise ServiceError(
                f"unknown parallelism_mode {parallelism_mode!r}; "
                f"expected one of {PARALLELISM_MODES}"
            )
        if noise_mode == "charge-seq" and not isinstance(rng, int):
            raise ServiceError(
                "noise_mode='charge-seq' requires an integer seed (rng=<int>) "
                "so every worker derives the same per-charge streams"
            )
        if shared_state and state_dir is None:
            raise ServiceError("shared_state=True requires state_dir")
        self._noise_mode = noise_mode
        self._noise_seed = int(rng) if isinstance(rng, int) else None
        self._worker_label = worker_label
        self._store = (
            StateStore(
                state_dir, snapshot_interval=snapshot_interval, shared=shared_state
            )
            if state_dir is not None
            else None
        )
        shared = PrivacyAccountant(total_budget) if total_budget is not None else None
        self._registry = DatabaseRegistry(journal=self._store)
        self._sessions = SessionManager(
            session_budget, ttl=session_ttl, shared=shared, journal=self._store
        )
        self._recovered_seq = 0
        if self._store is not None:
            self._store.snapshot_provider = self._snapshot_state
            self._recovered_seq = _fold(self._store, self._sessions, self._registry)
        self._plan_cache = LRUCache(cache_capacity)
        self._profile_cache = LRUCache(cache_capacity)
        self._sensitivity_cache = LRUCache(cache_capacity)
        self._count_cache = LRUCache(cache_capacity)
        # Cross-profile component memo (epoch-keyed; see repro.engine.profile).
        # Sized above the per-shape caches because one profile can hold many
        # components and entries for superseded epochs age out via the LRU.
        self._component_cache = LRUCache(cache_capacity * 4)
        self._strategy = strategy
        self._parallelism = parallelism
        self._parallelism_mode = parallelism_mode
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        # numpy Generators are not thread-safe; the batch executor funnels
        # every noise draw through this lock.
        self._rng_lock = threading.Lock()
        self._requests_served = 0
        # Cumulative ε actually charged (committed) by this service; the
        # repro_epsilon_charged_total counter reads it at scrape time.
        self._epsilon_charged_total = 0.0
        self._stats_lock = threading.Lock()
        # Delta-mutation counters (batches applied through this service and
        # effective row edits), read at scrape time and by /stats.
        self._mutations_applied = 0
        self._rows_inserted = 0
        self._rows_deleted = 0
        # Cumulative shared-lattice profiler counters (see repro.engine.profile);
        # updated under _stats_lock whenever a profile is actually computed
        # (profile-cache hits add nothing — no evaluation ran).
        self._profiler_totals = {
            "profiles_computed": 0,
            "subsets_total": 0,
            "components_total": 0,
            "components_evaluated": 0,
            "component_hits": 0,
            "component_cache_hits": 0,
            "factorization_hits": 0,
            "factorization_misses": 0,
        }
        # -- observability ------------------------------------------------ #
        self._obs = bool(observability)
        self._tracer = Tracer(enabled=self._obs)
        #: The service's metrics registry (``None`` with observability off);
        #: rendered in Prometheus text format by ``GET /metrics``.
        const_labels = {"worker": worker_label} if worker_label else None
        self.metrics: MetricsRegistry | None = (
            MetricsRegistry(const_labels=const_labels) if self._obs else None
        )
        self._request_logger = request_logger
        self._slow_requests = 0
        self._requests_errored = 0
        if self._obs:
            self._init_metrics()
            if self._store is not None:
                self._store.bind_metrics(self.metrics)

    def _init_metrics(self) -> None:
        """Declare every instrument and pre-resolve the hot series handles.

        Two techniques keep the warm serving path nearly free of
        instrumentation cost (the ≤5 % overhead gate in
        ``benchmarks/bench_service.py``):

        * **pre-resolved handles** — label sets resolve once, here, so the
          per-request work is at most one latency ``observe``;
        * **scrape-time counters** — totals the service maintains anyway
          (cache hit/miss counters, requests served, ε charged) back counter
          series via callbacks instead of per-request ``inc`` calls; the
          scrape pays for the read, the request pays nothing.

        Metric names, labels and bucket choices are catalogued in
        ``docs/observability.md``.
        """
        m = self.metrics
        requests = m.counter(
            "repro_requests_total", "Requests served, by endpoint and outcome.",
            ("endpoint", "status"),
        )
        latency = m.histogram(
            "repro_request_seconds", "End-to-end request latency in seconds.",
            ("endpoint",),
        )
        cache = m.counter(
            "repro_cache_requests_total", "Cache lookups, by cache and outcome.",
            ("cache", "outcome"),
        )
        # (count, ok) is scrape-time: _count_core already counts successful
        # releases under _stats_lock.  The cold combinations (errors, batch
        # wrappers) stay inc-based.
        requests.set_callback(
            lambda: float(self._requests_served), endpoint="count", status="ok"
        )
        self._m_requests = {
            (endpoint, status): requests.labels(endpoint=endpoint, status=status)
            for endpoint in ("count", "batch")
            for status in ("ok", "error")
        }
        self._m_latency = {
            endpoint: latency.bind(endpoint=endpoint) for endpoint in ("count", "batch")
        }
        self._m_latency_count = self._m_latency["count"]
        # Cache traffic is read straight off each LRU's own hit/miss
        # counters at scrape time — no per-request increments.
        for name, lru in (
            ("plan", self._plan_cache),
            ("profile", self._profile_cache),
            ("sensitivity", self._sensitivity_cache),
            ("count", self._count_cache),
            ("component", self._component_cache),
        ):
            cache.set_callback(
                lambda c=lru: float(c.stats().hits), cache=name, outcome="hit"
            )
            cache.set_callback(
                lambda c=lru: float(c.stats().misses), cache=name, outcome="miss"
            )
        m.counter(
            "repro_epsilon_charged_total", "Total privacy budget charged (epsilon)."
        ).set_callback(lambda: self._epsilon_charged_total)
        self._m_denials = m.counter(
            "repro_budget_denials_total",
            "Requests refused because a budget could not afford them.",
            ("endpoint",),
        )
        self._m_slow = m.counter(
            "repro_slow_requests_total",
            "Requests slower than the configured slow-query threshold.",
            ("endpoint",),
        )
        self._m_charge = m.histogram(
            "repro_budget_charge_seconds",
            "Time to reserve and journal one budget charge (includes ledger lock wait).",
            buckets=DEFAULT_IO_BUCKETS,
        ).bind()
        batch_items = m.counter(
            "repro_batch_items_total", "Batch items answered, by outcome.", ("outcome",)
        )
        self._m_batch_items = {
            outcome: batch_items.labels(outcome=outcome)
            for outcome in ("ok", "deduplicated", "error")
        }
        self._m_profiles = m.counter(
            "repro_profiler_profiles_total",
            "Shared-lattice profiles computed (profile-cache misses).",
        )
        components = m.counter(
            "repro_profiler_components_total",
            "Residual-query components seen by the profiler, by outcome.",
            ("outcome",),
        )
        self._m_components_eval = components.labels(outcome="evaluated")
        self._m_components_dedup = components.labels(outcome="deduplicated")
        self._m_components_cached = components.labels(outcome="cached")
        m.counter(
            "repro_mutations_total",
            "Delta-mutation batches applied to registered databases.",
        ).set_callback(lambda: float(self._mutations_applied))
        mutated_rows = m.counter(
            "repro_mutated_rows_total",
            "Effective row edits applied by delta mutations, by operation.",
            ("op",),
        )
        mutated_rows.set_callback(lambda: float(self._rows_inserted), op="insert")
        mutated_rows.set_callback(lambda: float(self._rows_deleted), op="delete")
        factorization = m.counter(
            "repro_profiler_factorization_total",
            "Columnar factorization-cache lookups during profiling, by outcome.",
            ("outcome",),
        )
        self._m_fact_hit = factorization.labels(outcome="hit")
        self._m_fact_miss = factorization.labels(outcome="miss")
        # Callback gauges: read live (possibly crash-recovered) state at
        # scrape time instead of hooking every write path.
        m.gauge("repro_sessions_active", "Sessions currently open.").set_function(
            lambda: float(len(self._sessions.active_ids()))
        )
        m.gauge(
            "repro_audit_records_total", "Charge attempts recorded by the audit log."
        ).set_function(lambda: float(self._sessions.audit.total_recorded))
        shared = self._sessions.shared
        if shared is not None:
            m.gauge(
                "repro_shared_budget_remaining_epsilon",
                "Remaining deployment-wide epsilon budget.",
            ).set_function(lambda: float(shared.remaining))
            m.gauge(
                "repro_shared_budget_spent_epsilon",
                "Epsilon consumed from the deployment-wide budget.",
            ).set_function(lambda: float(shared.spent))
        if self._store is not None:
            m.gauge(
                "repro_recovered_journal_seq",
                "Journal seq recovered at startup (0: fresh start).",
            ).set_function(lambda: float(self._recovered_seq))

    def set_observability(self, enabled: bool) -> None:
        """Toggle instrumentation at runtime (an operational kill-switch).

        Disabling stops per-request recording (latency observations, span
        roots) without tearing anything down: the registry keeps rendering,
        and its callback-backed series — cache traffic, requests served,
        ε charged, session/budget gauges — stay live because they read
        service state at scrape time.  Re-enabling (or enabling on a service
        constructed with ``observability=False``) declares the instruments
        on first use.  The overhead benchmark drives this toggle so both
        sides of the comparison run on one service object.
        """
        enabled = bool(enabled)
        if enabled and self.metrics is None:
            const_labels = (
                {"worker": self._worker_label} if self._worker_label else None
            )
            self.metrics = MetricsRegistry(const_labels=const_labels)
            self._init_metrics()
            if self._store is not None:
                self._store.bind_metrics(self.metrics)
        self._obs = enabled
        self._tracer.enabled = enabled

    @property
    def observability_enabled(self) -> bool:
        """Whether per-request instrumentation is currently recording."""
        return self._obs

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> StateStore | None:
        """The durable state store (``None`` without ``state_dir``)."""
        return self._store

    def _snapshot_state(self) -> dict[str, Any]:
        """The compacted-snapshot body (called under the store lock, which
        quiesces every mutating path)."""
        return {
            **self._sessions.snapshot_state(),
            **self._registry.snapshot_state(),
        }

    def close(self, *, snapshot: bool = True) -> None:
        """Flush durable state and stop background workers.

        With ``snapshot=True`` (the default) a final compacted snapshot is
        written first, so the next recovery replays an empty journal.  The
        shared profiler process pool (warmed by ``parallelism_mode=
        "process"`` evaluations) is always shut down, even for a service
        without ``state_dir``, so worker processes never outlive the
        service — cluster workers reach this on ``SIGTERM`` drain.
        """
        shutdown_process_pool()
        if self._store is None:
            return
        if snapshot and self._store.snapshot_provider is not None:
            self._store.compact()
        self._store.close()

    # ------------------------------------------------------------------ #
    # Registry / sessions passthrough
    # ------------------------------------------------------------------ #
    @property
    def registry(self) -> DatabaseRegistry:
        """The database registry."""
        return self._registry

    @property
    def sessions(self) -> SessionManager:
        """The session manager (budgets, expiry, audit log)."""
        return self._sessions

    def register_database(
        self,
        name: str,
        database: Database,
        *,
        replace: bool = False,
        backend: str | None = None,
        parallelism_mode: str | None = None,
    ) -> RegisteredDatabase:
        """Register (or with ``replace=True`` update) a named database.

        ``backend`` picks the execution backend every query against this
        database runs on (``"python"``, ``"numpy"``; ``None`` uses the
        process default).  ``parallelism_mode`` (``"thread"``/``"process"``/
        ``"auto"``) pins the profiler fan-out for this registration; ``None``
        defers to the service-wide default.  Both knobs are result-equivalent
        — with a fixed service seed the released sequence is bitwise
        identical whichever is chosen — so they tune performance only.
        """
        return self._registry.register(
            name,
            database,
            replace=replace,
            backend=backend,
            parallelism_mode=parallelism_mode,
        )

    def mutate(self, name: str, operations: list[dict[str, Any]]) -> dict[str, Any]:
        """Apply a batch of tuple-level delta operations to a registered database.

        The delta path of the streaming scenario: the batch (see
        :meth:`repro.service.registry.DatabaseRegistry.mutate` for the
        operation shapes) is validated atomically, applied through the
        relations' in-place bulk mutators, and journaled so sibling cluster
        workers replay it on their own copy.  The registration *version* is
        unchanged — only the touched relations' epochs advance, so cached
        plans survive untouched and epoch-keyed entries (counts, profiles,
        sensitivities, lattice components) are invalidated exactly where
        the data changed.  Returns a JSON-serialisable summary with the
        effective ``inserted``/``deleted`` counts and the new epoch vector.
        """
        summary = self._registry.mutate(name, operations)
        with self._stats_lock:
            self._mutations_applied += 1
            self._rows_inserted += int(summary.get("inserted", 0))
            self._rows_deleted += int(summary.get("deleted", 0))
        return summary

    def create_session(self, *, budget: float | None = None, session_id: str | None = None):
        """Open a session with its own ε ledger; returns the session."""
        return self._sessions.create(budget=budget, session_id=session_id)

    def budget(self, session_id: str) -> dict[str, Any]:
        """The budget view of a session (plus the shared budget, if any).

        In shared-state mode the view first absorbs sibling journal records:
        a session created through one worker is visible from every worker,
        and the reported spend is the cluster-wide ledger.
        """
        self._sync_shared()
        return self._sessions.describe(session_id)

    def _sync_shared(self) -> None:
        """Absorb sibling journal records (no-op outside shared mode)."""
        if self._store is not None and self._store.shared:
            with self._store.exclusive():
                pass  # entering the lock syncs the mirrored ledgers

    # ------------------------------------------------------------------ #
    # Planning and cached computation
    # ------------------------------------------------------------------ #
    def plan(self, query: ConjunctiveQuery | str) -> tuple[ConjunctiveQuery, str | None, bool]:
        """``(parsed query, canonical shape key, plan-cache hit)``.

        String queries are memoized on their raw text; query objects are
        canonicalized directly (no text key to cache under).
        """
        if isinstance(query, ConjunctiveQuery):
            return query, canonical_query_key(query), False
        entry, hit = self._plan_cache.get_or_compute(
            ("plan", query), lambda: self._build_plan(query)
        )
        return entry[0], entry[1], hit

    @staticmethod
    def _build_plan(text: str) -> tuple[ConjunctiveQuery, str | None]:
        parsed = parse_query(text)
        return parsed, canonical_query_key(parsed)

    @staticmethod
    def _epoch_key(reg: RegisteredDatabase, query: ConjunctiveQuery) -> tuple:
        """The epoch vector of the relations ``query`` reads on ``reg``.

        Embedded in the count/profile/sensitivity cache keys so a delta
        mutation (which advances only the touched relations' epochs)
        invalidates exactly the entries whose data changed.  Queries with
        non-inequality comparison predicates may range over the *whole*
        database's augmented active domain (Section 5.2) once a residual
        drops such a predicate, so they key on the full epoch vector.
        """
        database = reg.database
        if any(not p.is_inequality for p in query.predicates):
            return tuple(sorted(database.epochs().items()))
        names = {atom.relation for atom in query.atoms}
        return tuple(sorted((n, database.relation(n).epoch) for n in names))

    def _true_count(
        self, reg: RegisteredDatabase, query: ConjunctiveQuery, key: str | None
    ) -> tuple[int, bool]:
        if key is None:
            return count_query(query, reg.database, backend=reg.backend), False
        return self._count_cache.get_or_compute(
            (reg.name, reg.version, key, self._epoch_key(reg, query)),
            lambda: count_query(query, reg.database, backend=reg.backend),
        )

    def _sensitivity(
        self,
        reg: RegisteredDatabase,
        query: ConjunctiveQuery,
        key: str | None,
        method: str,
        beta: float | None,
    ) -> tuple[SensitivityResult, bool]:
        """The (possibly cached) sensitivity the noise is calibrated to.

        For the residual method the β-independent boundary-multiplicity
        profile is cached separately, so a new ε on a known shape only pays
        the (cheap) smoothing recombination, not the residual-query
        evaluation.  Both caches additionally key on the epochs of the
        relations the query reads, and a profile-cache miss after a delta
        mutation still recovers the untouched components from the
        epoch-keyed component cache.
        """

        def compute() -> SensitivityResult:
            if method == "residual":
                engine = ResidualSensitivity(
                    query,
                    beta=beta,
                    strategy=self._strategy,
                    backend=reg.backend,
                    parallelism=self._parallelism,
                    parallelism_mode=reg.parallelism_mode or self._parallelism_mode,
                )
                if key is None:
                    return engine.compute(reg.database)
                profile, _ = self._profile_cache.get_or_compute(
                    (reg.name, reg.version, key, self._epoch_key(reg, query)),
                    lambda: self._build_profile(
                        engine, reg.database, (reg.name, reg.version, key)
                    ),
                )
                return engine.compute(reg.database, multiplicities=profile)
            # The other engines have no reusable sub-plan; delegate to the
            # same dispatch the one-shot API uses.  epsilon only determines
            # β here, which we pin via beta directly below.
            probe = PrivateCountingQuery(
                query,
                epsilon=(beta * BETA_FRACTION) if beta is not None else 1.0,
                method=method,  # type: ignore[arg-type]
                strategy=self._strategy,
                backend=reg.backend,
            )
            return probe.sensitivity(reg.database)

        if key is None:
            return compute(), False
        return self._sensitivity_cache.get_or_compute(
            (reg.name, reg.version, key, self._epoch_key(reg, query), method, beta),
            compute,
        )

    def _build_profile(
        self,
        engine: ResidualSensitivity,
        database: Database,
        scope: tuple = (),
    ):
        """Run the shared-lattice evaluator and accumulate its counters.

        ``scope`` namespaces this query's entries in the shared component
        cache; the evaluator adds the per-component epoch vectors itself.
        """
        profile = engine.profile(
            database, component_cache=self._component_cache, cache_scope=scope
        )
        stats = profile.stats
        with self._stats_lock:
            totals = self._profiler_totals
            totals["profiles_computed"] += 1
            totals["subsets_total"] += stats.subsets_total
            totals["components_total"] += stats.components_total
            totals["components_evaluated"] += stats.components_evaluated
            totals["component_hits"] += stats.component_hits
            totals["component_cache_hits"] += stats.component_cache_hits
            totals["factorization_hits"] += stats.factorization_hits
            totals["factorization_misses"] += stats.factorization_misses
        if self._obs:
            self._m_profiles.inc()
            self._m_components_eval.inc(stats.components_evaluated)
            self._m_components_dedup.inc(stats.component_hits)
            self._m_components_cached.inc(stats.component_cache_hits)
            self._m_fact_hit.inc(stats.factorization_hits)
            self._m_fact_miss.inc(stats.factorization_misses)
        return profile.results

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def count(
        self,
        database: str,
        query: ConjunctiveQuery | str,
        epsilon: float,
        *,
        session: str | None = None,
        method: str = "residual",
        timings: bool = False,
    ) -> CountResponse:
        """One ε-DP release of the query's count on a registered database.

        Charges ``epsilon`` against the session's ledger (and the shared
        budget, if configured) before any noise is drawn; raises
        :class:`~repro.exceptions.PrivacyError` when either budget cannot
        afford it, and :class:`ServiceError` for unknown databases/sessions.
        The charge is transactional: if drawing the release fails, the
        reservation is rolled back (and the refusal journaled) instead of
        silently consuming ε without an answer.

        With ``timings=True`` (and observability on) the request runs under
        a root span and the response carries ``trace_id`` plus a ``timings``
        breakdown over the serving stages (plan / sensitivity / true_count /
        charge / release + ``other``) whose values sum exactly to ``total``.
        """
        if not self._obs and self._request_logger is None:
            return self._count_core(database, query, epsilon, session=session, method=method)
        if self._obs and not timings and self._request_logger is None:
            # Metrics-only fast path: every counter is derived at scrape
            # time (or error-path only), so a warm request pays two clock
            # reads and one histogram observation.
            start = time.perf_counter()
            try:
                response = self._count_core(
                    database, query, epsilon, session=session, method=method
                )
            except Exception as exc:
                self._record_request(
                    "count",
                    time.perf_counter() - start,
                    status="error",
                    exc=exc,
                    session=session,
                    database=database,
                    method=method,
                    error=f"{type(exc).__name__}: {exc}",
                )
                raise
            self._m_latency_count(time.perf_counter() - start)
            return response
        start = time.perf_counter()
        root = (
            self._tracer.trace("request.count", database=database, method=method)
            if (timings and self._obs)
            else None
        )
        trace_id = root.trace_id if root is not None else None
        try:
            if root is not None:
                with root:
                    response = self._count_core(
                        database, query, epsilon, session=session, method=method
                    )
            else:
                response = self._count_core(
                    database, query, epsilon, session=session, method=method
                )
        except Exception as exc:
            self._record_request(
                "count",
                time.perf_counter() - start,
                status="error",
                exc=exc,
                trace_id=trace_id,
                session=session,
                database=database,
                method=method,
                error=f"{type(exc).__name__}: {exc}",
            )
            raise
        duration = time.perf_counter() - start
        if root is not None:
            response = replace(
                response, trace_id=root.trace_id, timings=root.stage_timings()
            )
        self._record_request(
            "count",
            duration,
            status="ok",
            trace_id=trace_id,
            session=session,
            database=database,
            query_key=response.query_key,
            method=method,
            epsilon=response.epsilon,
            backend=response.backend,
            cache={
                "plan": response.plan_cache_hit,
                "sensitivity": response.sensitivity_cache_hit,
                "count": response.count_cache_hit,
            },
        )
        return response

    def _count_core(
        self,
        database: str,
        query: ConjunctiveQuery | str,
        epsilon: float,
        *,
        session: str | None,
        method: str,
    ) -> CountResponse:
        """The uninstrumented serving path (see :meth:`count` for the contract)."""
        if method not in _METHODS:
            raise ServiceError(f"unknown calibration method {method!r}")
        if not isinstance(epsilon, (int, float)) or not math.isfinite(epsilon) or epsilon <= 0:
            raise ServiceError(f"epsilon must be positive and finite, got {epsilon}")
        reg = self._registry.get(database)
        # Advisory early rejection: don't pay for sensitivity computation on
        # a request that can't possibly be charged (the authoritative,
        # atomic check is the charge below).  In shared-state mode a miss may
        # just mean the session was created through a sibling worker whose
        # journal records we haven't absorbed yet — sync once and retry
        # before declaring it unknown (the warm path stays at one flock).
        try:
            self._sessions.precheck(session, epsilon)
        except UnknownResourceError:
            if self._store is None or not self._store.shared:
                raise
            self._sync_shared()
            self._sessions.precheck(session, epsilon)
        # One ContextVar read decides whether stage spans exist at all: the
        # untraced warm path (no ``timings``, not under a batch trace) must
        # not pay even for no-op context managers.
        traced = current_span() is not None
        if traced:
            with obs_span("plan"):
                parsed, key, plan_hit = self.plan(query)
        else:
            parsed, key, plan_hit = self.plan(query)
        beta = None if method == "global" else epsilon / BETA_FRACTION

        if traced:
            with obs_span("sensitivity", method=method, backend=reg.backend):
                sensitivity, sens_hit = self._sensitivity(reg, parsed, key, method, beta)
            with obs_span("true_count"):
                true_count, count_hit = self._true_count(reg, parsed, key)
        else:
            sensitivity, sens_hit = self._sensitivity(reg, parsed, key, method, beta)
            true_count, count_hit = self._true_count(reg, parsed, key)

        label = key if key is not None else parsed.name
        # The charge histogram targets ledger contention and journal cost,
        # which only exist for session-scoped or durable charges; timing the
        # in-memory sessionless no-op would tax the warm path for nothing.
        charge_timed = self._obs and (session is not None or self._store is not None)
        charge_start = time.perf_counter() if charge_timed else 0.0
        if traced:
            with obs_span("charge"):
                txn = self._sessions.begin_charge(
                    session, epsilon, label=f"{database}:{label}"
                )
        else:
            txn = self._sessions.begin_charge(session, epsilon, label=f"{database}:{label}")
        if charge_timed:
            self._m_charge(time.perf_counter() - charge_start)

        def draw():
            # charge-seq mode derives a fresh generator from the charge's
            # global journal ordinal, so a seeded cluster releases the same
            # noise regardless of which worker serves the request (or how
            # the per-process stream has advanced).
            if self._noise_mode == "charge-seq":
                rng = np.random.default_rng((self._noise_seed, txn.charge_seq))
            else:
                rng = self._rng
            releaser = PrivateCountingQuery(
                parsed,
                epsilon=epsilon,
                method=method,  # type: ignore[arg-type]
                rng=rng,
                strategy=self._strategy,
                backend=reg.backend,
            )
            return releaser.release(
                reg.database, true_count=true_count, sensitivity=sensitivity
            )

        try:
            if traced:
                with obs_span("release", method=method), self._rng_lock:
                    release = draw()
            else:
                with self._rng_lock:
                    release = draw()
        except Exception as exc:
            txn.rollback(reason=f"release failed: {exc}")
            raise
        txn.commit()
        with self._stats_lock:
            self._requests_served += 1
            self._epsilon_charged_total += epsilon

        # The transaction captured the post-charge remaining budget under the
        # session lock: re-fetching the session here could race TTL expiry
        # and lose a paid-for answer to UnknownResourceError.
        remaining = txn.remaining
        return CountResponse(
            database=reg.name,
            version=reg.version,
            query_key=key,
            noisy_count=release.noisy_count,
            epsilon=epsilon,
            method=method,
            sensitivity=release.sensitivity,
            expected_error=release.expected_error,
            session=session,
            plan_cache_hit=plan_hit,
            sensitivity_cache_hit=sens_hit,
            count_cache_hit=count_hit,
            remaining_budget=remaining,
            backend=reg.backend,
        )

    def batch(
        self,
        database: str,
        requests,
        *,
        session: str | None = None,
        epsilon_total: float | None = None,
        max_workers: int = 4,
        timings: bool = False,
    ):
        """Answer a batch of requests (see :class:`~repro.service.executor.BatchExecutor`).

        With ``timings=True`` the whole batch runs under a ``request.batch``
        root span (group spans fan out beneath it — their wall times overlap
        under concurrency) and the result's ``trace_id``/``timings`` are
        surfaced through :meth:`BatchResult.to_dict`.
        """
        from repro.service.executor import BatchExecutor

        executor = BatchExecutor(self, max_workers=max_workers)
        if not self._obs and self._request_logger is None:
            return executor.run(
                database, requests, session=session, epsilon_total=epsilon_total
            )
        start = time.perf_counter()
        root = (
            self._tracer.trace("request.batch", database=database)
            if (timings and self._obs)
            else None
        )
        trace_id = root.trace_id if root is not None else None
        try:
            if root is not None:
                with root:
                    result = executor.run(
                        database, requests, session=session, epsilon_total=epsilon_total
                    )
            else:
                result = executor.run(
                    database, requests, session=session, epsilon_total=epsilon_total
                )
        except Exception as exc:
            self._record_request(
                "batch",
                time.perf_counter() - start,
                status="error",
                exc=exc,
                trace_id=trace_id,
                session=session,
                database=database,
                error=f"{type(exc).__name__}: {exc}",
            )
            raise
        duration = time.perf_counter() - start
        if self._obs:
            for item in result.items:
                outcome = (
                    "error" if not item.ok
                    else ("deduplicated" if item.deduplicated else "ok")
                )
                self._m_batch_items[outcome].inc()
        self._record_request(
            "batch",
            duration,
            status="ok",
            trace_id=trace_id,
            session=session,
            database=database,
            epsilon=result.epsilon_charged,
        )
        if root is not None:
            result = replace(
                result,
                details={
                    **dict(result.details),
                    "trace_id": root.trace_id,
                    "timings": root.stage_timings(),
                },
            )
        return result

    def _record_request(
        self,
        endpoint: str,
        duration_s: float,
        *,
        status: str,
        exc: BaseException | None = None,
        trace_id: str | None = None,
        session: str | None = None,
        database: str | None = None,
        query_key: str | None = None,
        method: str | None = None,
        error: str | None = None,
        epsilon: float | None = None,
        backend: str | None = None,
        cache: Mapping[str, bool] | None = None,
    ) -> None:
        """Record one finished request into metrics and the structured log.

        Only the cold combinations increment counters here: ``(count, ok)``
        requests, ε charged and cache traffic are all callback-backed series
        read at scrape time (see :meth:`_init_metrics`).
        """
        if self._obs:
            self._m_latency[endpoint](duration_s)
            if endpoint != "count" or status != "ok":
                self._m_requests[(endpoint, status)].inc()
            if isinstance(exc, PrivacyError):
                self._m_denials.inc(endpoint=endpoint)
            if status == "error":
                with self._stats_lock:
                    self._requests_errored += 1
        logger = self._request_logger
        if logger is not None:
            record = logger.log_request(
                endpoint=endpoint,
                duration_ms=duration_s * 1e3,
                status=status,
                trace_id=trace_id,
                session=session,
                database=database,
                query_key=query_key,
                method=method,
                error=error,
                epsilon=epsilon,
                backend=backend,
                cache=cache,
            )
            if record["slow"]:
                with self._stats_lock:
                    self._slow_requests += 1
                if self._obs:
                    self._m_slow.inc(endpoint=endpoint)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """A JSON-serialisable snapshot of the whole service.

        In shared-state mode the snapshot first absorbs any journal records
        appended by sibling workers, so ``/stats`` on any worker reports the
        cluster-wide ledger, not a stale local mirror.
        """
        self._sync_shared()
        shared = self._sessions.shared
        with self._stats_lock:
            served = self._requests_served
            epsilon_charged = self._epsilon_charged_total
            profiler = dict(self._profiler_totals)
            errored = self._requests_errored
            slow = self._slow_requests
            mutations = {
                "applied": self._mutations_applied,
                "rows_inserted": self._rows_inserted,
                "rows_deleted": self._rows_deleted,
            }
        logger = self._request_logger
        return {
            "requests_served": served,
            "epsilon_charged": epsilon_charged,
            "noise_mode": self._noise_mode,
            "worker": self._worker_label,
            "charge_events": self._sessions.charge_events,
            "observability": {
                "enabled": self._obs,
                "traces_started": self._tracer.traces_started,
                "requests_errored": errored,
                "slow_requests": slow,
                "slow_ms": logger.slow_ms if logger is not None else None,
                "log_lines_written": logger.lines_written if logger is not None else 0,
                "metrics": self.metrics.names() if self.metrics is not None else [],
            },
            "backends": {
                "available": available_backends(),
                "default": default_backend_name(),
            },
            "parallelism": {
                "workers": self._parallelism,
                "mode": self._parallelism_mode or "thread",
            },
            "databases": self._registry.describe(),
            "sessions": {
                "active": self._sessions.active_ids(),
                "default_budget": self._sessions.default_budget,
                "ttl": self._sessions.ttl,
            },
            "shared_budget": (
                None
                if shared is None
                else {
                    "total": shared.total_budget,
                    "spent": shared.spent,
                    "remaining": shared.remaining,
                }
            ),
            "caches": {
                "plan": self._plan_cache.stats().to_dict(),
                "profile": self._profile_cache.stats().to_dict(),
                "sensitivity": self._sensitivity_cache.stats().to_dict(),
                "count": self._count_cache.stats().to_dict(),
                "component": self._component_cache.stats().to_dict(),
            },
            "profiler": profiler,
            "mutations": mutations,
            "audit": {
                "records": len(self._sessions.audit),
                "total_recorded": self._sessions.audit.total_recorded,
            },
            "persistence": (
                None
                if self._store is None
                else {
                    **self._store.describe(),
                    "recovered_seq": self._recovered_seq,
                    "recovered_databases": sorted(self._registry.recovered_metadata()),
                }
            ),
        }

    def clear_caches(self) -> None:
        """Drop every cached plan, profile, sensitivity, count and component."""
        for cache in (
            self._plan_cache,
            self._profile_cache,
            self._sensitivity_cache,
            self._count_cache,
            self._component_cache,
        ):
            cache.clear()
