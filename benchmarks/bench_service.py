"""Benchmarks of the serving layer: cached vs. uncached repeated queries.

The serving layer's claim is that the residual-sensitivity machinery — the
dominant per-release cost — is data-independent per query *shape*, so
repeated shapes can be served from cache with only the noise draw left on
the hot path.  ``test_cached_speedup_and_identical_results`` measures that
claim end to end (and asserts the ≥2× bar the serving layer promises), and
verifies that caching changes *nothing* statistically: same sensitivities,
and bitwise-identical noisy counts under a fixed seed.

Run::

    pytest benchmarks/bench_service.py --benchmark-only   # micro-benchmarks
    pytest benchmarks/bench_service.py -k speedup         # the 2x assertion
    pytest benchmarks/bench_service.py -k ledger          # the flat-ledger gate
"""

from __future__ import annotations

import gc
import statistics
import time

import pytest

from repro.graphs.generators import collaboration_graph
from repro.graphs.loader import database_from_networkx
from repro.service.service import PrivateQueryService

from bench_utils import derive_seed, trend_gate

TRIANGLE = "Edge(x, y), Edge(y, z), Edge(x, z), x != y, y != z, x != z"
REPEATS = 8


@pytest.fixture(scope="module")
def graph_db():
    return database_from_networkx(collaboration_graph(200, 8.0, seed=derive_seed("service.graph")))


def _run_repeated(graph_db, *, cache_capacity: int):
    """Time ``REPEATS`` releases of the same shape; return (seconds, responses).

    Both the cached and uncached runs draw noise from the same derived
    stream, which is what makes their release sequences comparable
    bitwise.
    """
    service = PrivateQueryService(
        session_budget=float(REPEATS),
        cache_capacity=cache_capacity,
        rng=derive_seed("service.noise"),
    )
    service.register_database("g", graph_db)
    session = service.create_session().session_id
    start = time.perf_counter()
    responses = [
        service.count("g", TRIANGLE, epsilon=0.5, session=session)
        for _ in range(REPEATS)
    ]
    return time.perf_counter() - start, responses


def test_cached_speedup_and_identical_results(graph_db):
    uncached_time, uncached = _run_repeated(graph_db, cache_capacity=0)
    cached_time, cached = _run_repeated(graph_db, cache_capacity=64)

    # Caching must not change anything observable besides latency: the
    # sensitivity is deterministic per shape, and the noise stream of a
    # seeded service is consumed identically by both paths.
    for c, u in zip(cached, uncached):
        assert c.sensitivity == u.sensitivity
        assert c.expected_error == u.expected_error
        assert c.noisy_count == u.noisy_count
    assert all(r.sensitivity_cache_hit for r in cached[1:])
    assert not any(r.sensitivity_cache_hit for r in uncached)

    speedup = uncached_time / cached_time
    backend = cached[0].backend
    print(
        f"\nrepeated {TRIANGLE!r} x{REPEATS} [backend={backend}]: "
        f"uncached {uncached_time * 1e3:.1f} ms, cached {cached_time * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x"
    )
    # Trend gate: fail on a >25 % regression from the committed
    # BENCH_service.json baseline, never below the 2× acceptance floor.
    trend_gate("service", "cache_speedup", speedup, floor=2.0)


def measure_observability_overhead(graph_db, *, pairs: int = 30, calls: int = 50) -> float:
    """Fractional warm-path cost of instrumentation (0.02 == 2 %).

    One service object serves both sides of the comparison — its runtime
    observability toggle flips between chunks — so object layout, cache
    state and rng stream are held constant.  Chunks run in an A-B-B-A
    pattern (linear clock-frequency drift cancels exactly within a pair)
    and the estimate is the median of the per-pair ratios, which is robust
    to the one-sided scheduling noise of shared machines.  Used both by
    ``test_observability_overhead_speedup`` (the ≤5 % gate) and by
    ``scripts/bench_snapshot.py`` (the committed trajectory).
    """
    service = PrivateQueryService(
        session_budget=1e9, cache_capacity=64, rng=derive_seed("service.noise")
    )
    service.register_database("g", graph_db)
    clock = time.perf_counter

    def chunk() -> float:
        start = clock()
        for _ in range(calls):
            service.count("g", TRIANGLE, epsilon=0.5)
        return clock() - start

    chunk()  # warm plan/profile/sensitivity/count caches
    ratios = []
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(pairs):
            service.set_observability(False)
            plain_1 = chunk()
            service.set_observability(True)
            instrumented = chunk() + chunk()
            service.set_observability(False)
            plain_2 = chunk()
            ratios.append(instrumented / (plain_1 + plain_2))
    finally:
        if gc_was_enabled:
            gc.enable()
        service.set_observability(True)
    return statistics.median(ratios) - 1.0


def test_observability_overhead_speedup(graph_db):
    """The instrumented warm path must stay within 5 % of the plain one.

    The metrics design makes this possible at all: every per-request
    counter is derived at scrape time from totals the service maintains
    anyway, latency lands in a lock-free buffered histogram handle, and
    stage spans collapse to a single ContextVar read when no trace is
    active — so a warm request pays two clock reads and one list append.
    """
    overhead = measure_observability_overhead(graph_db)
    print(f"\nwarm-path instrumentation overhead: {overhead * 100:+.2f}%")
    # Lower-is-better trend gate: the cap is the looser of the fixed 5 %
    # and baseline+25 % — wall-clock-sensitive, so it keeps the headroom.
    trend_gate(
        "service",
        "observability_overhead_percent",
        overhead * 100,
        floor=5.0,
        higher_is_better=False,
    )


#: Charges each aged ledger holds in the flat-ledger benchmark.
AGED_CHARGES = 10_000


def _ledger_service(graph_db, *, aged: bool):
    """A warm service and session whose session and shared ledgers hold
    ``AGED_CHARGES`` charges each (``aged``) or none.

    The charges go in through the journal fold that recovery and cluster
    absorption rebuild ledgers with, each under its own label (the most
    distinct pairs a ledger can hold).
    """
    service = PrivateQueryService(
        session_budget=1e9, total_budget=1e9, cache_capacity=64,
        rng=derive_seed("service.noise"),
    )
    service.register_database("g", graph_db)
    session = service.create_session().session_id
    for i in range(AGED_CHARGES if aged else 0):
        service.sessions.absorb(
            {"event": "charge", "session": session, "epsilon": 2.0 ** -20, "label": f"aged-{i}"}
        )
    service.count("g", TRIANGLE, epsilon=0.5, session=session)  # warm the caches
    return service, session


def measure_aged_ledger_ratio(graph_db, *, pairs: int = 15, calls: int = 40) -> float:
    """Warm session ``count`` cost on aged ledgers over its cost on empty ones.

    Chunks alternate empty-aged-aged-empty and the estimate is the median
    of the per-pair ratios (see ``measure_observability_overhead``).  Used
    by ``test_aged_ledger_flat`` and ``scripts/bench_snapshot.py``.
    """
    sides = [_ledger_service(graph_db, aged=aged) for aged in (False, True)]

    def chunk(side: int) -> float:
        service, session = sides[side]
        start = time.perf_counter()
        for _ in range(calls):
            service.count("g", TRIANGLE, epsilon=0.5, session=session)
        return time.perf_counter() - start

    ratios = []
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(pairs):
            empty_1 = chunk(0)
            aged = chunk(1) + chunk(1)
            empty_2 = chunk(0)
            ratios.append(aged / (empty_1 + empty_2))
    finally:
        if gc_was_enabled:
            gc.enable()
    return statistics.median(ratios)


def test_aged_ledger_flat(graph_db):
    """A request's cost must not grow with ledger history: warm ``count`` on
    session and shared ledgers of 10⁴ charges stays within 1.5× of empty."""
    ratio = measure_aged_ledger_ratio(graph_db)
    print(f"\nwarm count, {AGED_CHARGES} charges vs empty ledgers: {ratio:.2f}x")
    trend_gate("service", "aged_ledger_ratio", ratio, floor=1.5, higher_is_better=False)


def test_warm_release_benchmark(benchmark, graph_db):
    """Per-release latency once the shape caches are warm."""
    service = PrivateQueryService(
        session_budget=1e9, cache_capacity=64, rng=derive_seed("service.noise")
    )
    service.register_database("g", graph_db)
    service.count("g", TRIANGLE, epsilon=0.5)  # warm plan/profile/sensitivity
    response = benchmark(lambda: service.count("g", TRIANGLE, epsilon=0.5))
    assert response.sensitivity_cache_hit


def test_cold_release_benchmark(benchmark, graph_db):
    """Per-release latency with caching disabled (the one-shot library cost)."""
    service = PrivateQueryService(
        session_budget=1e9, cache_capacity=0, rng=derive_seed("service.noise")
    )
    service.register_database("g", graph_db)
    response = benchmark(lambda: service.count("g", TRIANGLE, epsilon=0.5))
    assert not response.sensitivity_cache_hit


def test_batch_dedup_benchmark(benchmark, graph_db):
    """A 16-request batch with only two distinct shapes."""
    service = PrivateQueryService(
        session_budget=1e9, cache_capacity=64, rng=derive_seed("service.noise")
    )
    service.register_database("g", graph_db)
    requests = [
        {"query": TRIANGLE if i % 2 else "Edge(x, y), Edge(y, z)", "epsilon": 0.01}
        for i in range(16)
    ]
    result = benchmark(lambda: service.batch("g", requests, max_workers=4))
    assert result.groups == 2
    assert result.deduplicated == 14
