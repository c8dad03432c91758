"""lattice-cold: one serial library caller computing residual sensitivity.

Each timed operation is a *round*: ``ResidualSensitivity(q, beta=0.1,
backend="numpy").compute(db)`` for the paper's star4, path4 and triangle
queries, in a seeded order, each on a fresh engine with no component cache.
"""

from __future__ import annotations

import resource
import time

import numpy as np

from common import (
    BACKEND,
    derive_seed,
    info,
    median,
    relabeled_edges,
    same_float,
)
import tracer

BETA = 0.1
#: Fresh database builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SIZES = {"full": (300, 4.0), "tiny": (40, 3.0)}


def queries() -> dict:
    from repro.graphs.patterns import k_path_query, k_star_query, triangle_query

    return {"star4": k_star_query(4), "path4": k_path_query(4), "triangle": triangle_query()}


def _engine(query):
    from repro.sensitivity.residual import ResidualSensitivity

    return ResidualSensitivity(query, beta=BETA, backend=BACKEND)


def _database(edges):
    from repro.graphs.loader import database_from_edges

    return database_from_edges(edges)


def _rounds(database, named, seed: int, seconds: float, recorder=None, first: int = 0):
    """Run rounds until ``seconds`` pass (at least one); returns
    ``(round seconds, per-query seconds, results, failures, elapsed)``."""
    rng = np.random.default_rng(derive_seed(seed, f"order.{first}"))
    names = sorted(named)
    round_seconds, per_query, results, errors = [], {n: [] for n in names}, [], []
    start = time.perf_counter()
    index = first
    while not round_seconds or time.perf_counter() - start < seconds:
        round_start = time.perf_counter()
        for position in rng.permutation(len(names)):
            name = names[position]
            if recorder is not None:
                recorder.set_request((index, name))
            began = time.perf_counter()
            try:
                result = _engine(named[name]).compute(database)
            except Exception as exc:  # counted as a failed operation
                errors.append(f"{name}: {exc!r}")
                continue
            per_query[name].append(time.perf_counter() - began)
            results.append((name, result))
        round_seconds.append(time.perf_counter() - round_start)
        index += 1
    return round_seconds, per_query, results, errors, time.perf_counter() - start


def check(results, references: dict) -> list[str]:
    """Every subset's ``T_F`` and the RS value equal the per-subset reference."""
    failures = []
    for name, result in results:
        expected_value, expected_profile = references[name]
        if not same_float(result.value, expected_value):
            failures.append(f"{name}: RS {result.value!r} != reference {expected_value!r}")
        got = result.details["multiplicities"]
        if got.keys() != expected_profile.keys():
            failures.append(f"{name}: lattice subsets differ from the reference")
            continue
        for subset, value in expected_profile.items():
            if type(got[subset]) is not type(value) or got[subset] != value:
                failures.append(f"{name}: T_F{subset} {got[subset]!r} != reference {value!r}")
    return failures


def reference(database, named) -> dict:
    """``(RS, {subset: T_F})`` per query from ``multiplicities_reference``."""
    out = {}
    for name, query in named.items():
        engine = _engine(query)
        profile = engine.multiplicities_reference(database)
        value = engine.compute(database, multiplicities=profile).value
        out[name] = (value, {tuple(sorted(k)): r.value for k, r in profile.items()})
    return out


def query_layer_metrics(spans, names, rounds: int) -> dict:
    """Per-query aggregates time by strategy (per round), and the share of
    the query's compute time spent in the ``enumerate`` strategy; printed,
    not declared, as lattice-cold is not a declared workload."""
    metrics = {}
    rounds = max(rounds, 1)
    for name in sorted(names):
        mine = [s for s in spans if s[5] is not None and s[5][1] == name]
        compute = tracer.total_seconds(s for s in mine if s[1] == "residual.compute")
        for strategy in ("eliminate", "enumerate"):
            chosen = [s for s in mine if s[1] == "aggregates.boundary_multiplicity"
                      and s[6]["strategy"] == strategy]
            metrics[f"aggregates.{name}.{strategy}_s"] = (
                tracer.total_seconds(chosen) / rounds, "s"
            )
        enumerate_s = metrics[f"aggregates.{name}.enumerate_s"][0] * rounds
        metrics[f"aggregates.{name}.enumerate_share"] = (
            enumerate_s / compute if compute else 0.0, "ratio"
        )
    return metrics


def run(seed: int, seconds: float, trace: bool, size: str, workdir):
    nodes, degree = SIZES[size]
    edges = relabeled_edges(nodes, degree, seed, "lattice.graph")
    named = queries()

    # Set-up: build the database and run the first round, whose lazy
    # columnar factorization is excluded from the timed rounds.
    setups, results, errors = [], [], []
    for repeat in range(SETUP_REPEATS if not trace else 1):
        started = time.perf_counter()
        database = _database(edges)
        _, _, warm_results, warm_errors, _ = _rounds(database, named, seed, 0.0, first=-1 - repeat)
        setups.append(time.perf_counter() - started)
        results.extend(warm_results)
        errors.extend(warm_errors)

    if trace:
        plain = _rounds(database, named, seed, seconds / 2.0)
        recorder = tracer.Recorder()
        undo = tracer.install(recorder)
        try:
            traced = _rounds(database, named, seed, seconds / 2.0, recorder, first=len(plain[0]))
        finally:
            tracer.uninstall(undo)
        measured = traced
        for phase in (plain, traced):
            results.extend(phase[2])
            errors.extend(phase[3])
    else:
        measured = _rounds(database, named, seed, seconds)
        results.extend(measured[2])
        errors.extend(measured[3])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    round_seconds, per_query, _, _, elapsed = measured

    failures = check(results, reference(database, named)) + errors
    attempted = sum(len(v) for v in per_query.values()) + len(measured[3])
    failed = len(measured[3])

    for name in sorted(per_query):
        info(f"rs_{name}_s: {median(per_query[name]):.4f} s (n={len(per_query[name])})")
    info(f"rounds: {len(round_seconds)}; setup runs: "
         f"{', '.join(f'{s:.3f} s' for s in setups)}")

    if trace:
        spans = recorder.spans
        metrics = tracer.layer_metrics(spans, len(round_seconds), 0)
        for name, (value, unit) in query_layer_metrics(spans, named, len(round_seconds)).items():
            info(f"{name}: {value:.4g} {unit}")
        metrics["trace.overhead_pct"] = (
            (median(round_seconds) / median(plain[0]) - 1.0) * 100.0, "%"
        )
    else:
        metrics = {
            "setup_s": (median(setups), "s"),
            "op_p50_ms": (median(round_seconds) * 1e3, "ms"),
            "ops_per_s": (len(round_seconds) / elapsed, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return metrics, failures, attempted, failed, 0
