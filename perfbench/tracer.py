"""Span recording around the public entry points of each layer.

The program is not modified: :func:`install` replaces each entry point with
a wrapper that records a span ``(id, name, start, end, parent, request,
attrs)`` in memory, and :func:`uninstall` puts the originals back.  The
first dotted component of a span name is its layer, named after the module
it wraps.  Spans nest per thread, so a layer's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

#: Layers in the order they are reported (outermost first).
LAYERS = (
    "api", "cluster", "service", "sessions", "accountant", "persistence",
    "registry", "mechanism", "profile", "aggregates", "join", "columnar",
    "residual", "evaluation",
)


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def set_request(self, request) -> None:
        """Tag the spans this thread records from now on with ``request``."""
        self._local.request = request

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording a ``name`` span; ``attrs(args, result)`` adds
        attributes after a successful call."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = recorder._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            extra = None
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, name, start, end, parent,
                     getattr(local, "request", None), extra)
                )

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load_spans(path) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [
            (s[0], s[1], s[2], s[3], s[4], tuple(s[5]) if isinstance(s[5], list) else s[5], s[6])
            for s in json.load(handle)
        ]


def install(recorder: Recorder) -> list:
    """Wrap every layer's entry points; returns the undo list."""
    from repro.engine import evaluation, join
    from repro.engine import profile as engine_profile
    from repro.engine.backend import NumpyBackend
    from repro.mechanisms import mechanism
    from repro.mechanisms.accountant import PrivacyAccountant
    from repro.sensitivity import residual
    from repro.sensitivity.residual import ResidualSensitivity
    from repro.service import service
    from repro.service.api import ServiceRequestHandler
    from repro.service.cluster import CapacityBoard
    from repro.service.persistence import StateStore
    from repro.service.registry import DatabaseRegistry
    from repro.service.service import PrivateQueryService
    from repro.service.sessions import ChargeTransaction, SessionManager

    undo: list = []

    def patch(owner, attr, value) -> None:
        # Inherited attributes are deleted again on uninstall, not copied.
        undo.append((owner, attr, owner.__dict__.get(attr), attr in owner.__dict__))
        setattr(owner, attr, value)

    def wrap(owner, attr, name, attrs=None) -> None:
        patch(owner, attr, recorder.wrap(name, getattr(owner, attr), attrs))

    # api: a request starts at parse_request; its id is (client port, the
    # request's index on that keep-alive connection), which the client can
    # reproduce to match its own timings.
    timed_parse = recorder.wrap("api.parse", ServiceRequestHandler.parse_request)

    def parse_request(handler):
        index = getattr(handler, "_perfbench_index", 0)
        handler._perfbench_index = index + 1
        recorder.set_request((handler.client_address[1], index))
        return timed_parse(handler)

    patch(ServiceRequestHandler, "parse_request", parse_request)
    wrap(ServiceRequestHandler, "do_POST", "api.handler")
    wrap(CapacityBoard, "admit", "cluster.admit", lambda args, ok: {"shed": not ok})
    wrap(PrivateQueryService, "count", "service.count")
    wrap(PrivateQueryService, "mutate", "service.mutate")
    wrap(SessionManager, "begin_charge", "sessions.begin_charge")
    wrap(ChargeTransaction, "commit", "sessions.commit")
    spent = recorder.wrap(
        "accountant.spent",
        PrivacyAccountant.spent.fget,
        lambda args, _: {"ledger": len(args[0].charges)},
    )
    patch(PrivacyAccountant, "spent", property(spent))
    wrap(StateStore, "append", "persistence.append")
    # Automatic compaction runs inside append() through _compact_locked,
    # which is also the body of the public compact().
    wrap(
        StateStore,
        "_compact_locked",
        "persistence.compact",
        lambda args, _: {"bytes": os.path.getsize(args[0].snapshot_path)},
    )
    wrap(DatabaseRegistry, "mutate", "registry.mutate")
    wrap(mechanism.PrivateCountingQuery, "release", "mechanism.release")
    wrap(
        residual,
        "evaluate_profile",
        "profile.evaluate",
        lambda args, result: result.stats.to_dict(),
    )
    wrap(
        engine_profile,
        "boundary_multiplicity",
        "aggregates.boundary_multiplicity",
        lambda args, result: {"strategy": result.strategy},
    )
    wrap(join, "group_counts", "join.group_counts")
    wrap(NumpyBackend, "eliminate_group_counts", "columnar.eliminate_group_counts")
    wrap(ResidualSensitivity, "required_subsets", "residual.required_subsets")
    wrap(ResidualSensitivity, "compute", "residual.compute")
    # count_query is imported by name into each caller's module.
    for module in (evaluation, service, mechanism):
        wrap(module, "count_query", "evaluation.count_query")
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original, owned in reversed(undo):
        if owned:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #
def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the duration of its direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for span_id, _, start, end, parent, _, _ in spans:
        if parent:
            child_time[parent] += end - start
    return {s[0]: (s[3] - s[2]) - child_time.get(s[0], 0.0) for s in spans}


def by_name(spans) -> dict:
    """Span name -> the spans of that name."""
    grouped: dict[str, list] = defaultdict(list)
    for span in spans:
        grouped[span[1]].append(span)
    return grouped


def total_seconds(spans) -> float:
    return sum(s[3] - s[2] for s in spans)


def mean(total: float, count: int) -> float:
    return total / count if count else 0.0


STRATEGIES = ("eliminate", "enumerate", "convention", "eliminate+domain")


def layer_metrics(spans, operations: int, requests: int) -> dict:
    """Per-layer metrics shared by every workload.

    ``operations`` is the number of timed workload operations the spans
    cover (rounds, counts or cycles) and ``requests`` the number of HTTP
    requests among them (0 for the library workload).  Every metric is
    present; a layer that did no work reports 0.
    """
    ops = max(operations, 1)
    names = by_name(spans)
    own = self_times(spans)
    metrics: dict[str, tuple[float, str]] = {}

    layer_self: dict[str, float] = defaultdict(float)
    for span in spans:
        layer_self[span[1].split(".", 1)[0]] += own[span[0]]
    for layer in LAYERS:
        metrics[f"self.{layer}_ms"] = (layer_self[layer] * 1e3 / ops, "ms")

    def calls(name):
        return len(names.get(name, ()))

    def seconds(name):
        return total_seconds(names.get(name, ()))

    # api
    handler = names.get("api.handler", ())
    handler_ids = {h[0] for h in handler}
    service_under_handler = sum(
        s[3] - s[2] for s in spans if s[1].startswith("service.") and s[4] in handler_ids
    )
    metrics["api.parse_ms"] = (mean(seconds("api.parse"), calls("api.parse")) * 1e3, "ms")
    metrics["api.handler_ms"] = (mean(seconds("api.handler"), len(handler)) * 1e3, "ms")
    metrics["api.self_ms"] = (
        mean(seconds("api.handler") - service_under_handler, len(handler)) * 1e3, "ms"
    )
    # cluster
    admits = names.get("cluster.admit", ())
    metrics["cluster.admit_us"] = (mean(total_seconds(admits), len(admits)) * 1e6, "us")
    metrics["cluster.shed"] = (sum(1 for s in admits if s[6] and s[6]["shed"]), "count")
    # service
    metrics["service.count_ms"] = (mean(seconds("service.count"), calls("service.count")) * 1e3, "ms")
    metrics["service.mutate_ms"] = (mean(seconds("service.mutate"), calls("service.mutate")) * 1e3, "ms")
    # sessions / accountant
    metrics["sessions.begin_charge_us"] = (
        mean(seconds("sessions.begin_charge"), calls("sessions.begin_charge")) * 1e6, "us"
    )
    metrics["sessions.commit_us"] = (
        mean(seconds("sessions.commit"), calls("sessions.commit")) * 1e6, "us"
    )
    spent = names.get("accountant.spent", ())
    metrics["accountant.spent_calls_per_request"] = (mean(len(spent), requests), "count")
    metrics["accountant.spent_us"] = (mean(total_seconds(spent), len(spent)) * 1e6, "us")
    metrics["accountant.spent_ledger_max"] = (
        max((s[6]["ledger"] for s in spent), default=0), "count"
    )
    # persistence
    metrics["persistence.append_us"] = (
        mean(seconds("persistence.append"), calls("persistence.append")) * 1e6, "us"
    )
    metrics["persistence.appends_per_request"] = (mean(calls("persistence.append"), requests), "count")
    # registry / mechanism
    metrics["registry.mutate_ms"] = (
        mean(seconds("registry.mutate"), calls("registry.mutate")) * 1e3, "ms"
    )
    metrics["mechanism.release_us"] = (
        mean(seconds("mechanism.release"), calls("mechanism.release")) * 1e6, "us"
    )
    # profile
    profiles = names.get("profile.evaluate", ())
    metrics["profile.evaluate_s"] = (mean(total_seconds(profiles), len(profiles)), "s")
    metrics["profile.calls"] = (len(profiles) / ops, "count")
    for key, metric in (
        ("components_evaluated", "components_evaluated"),
        ("component_hits", "dedup_hits"),
        ("component_cache_hits", "component_cache_hits"),
        ("factorization_misses", "factorization_misses"),
    ):
        metrics[f"profile.{metric}"] = (sum(s[6][key] for s in profiles if s[6]) / ops, "count")
    # aggregates, per returned strategy
    boundary = names.get("aggregates.boundary_multiplicity", ())
    for strategy in STRATEGIES:
        chosen = [s for s in boundary if s[6] and s[6]["strategy"] == strategy]
        label = strategy.replace("+", "_")
        metrics[f"aggregates.{label}_calls"] = (len(chosen) / ops, "count")
        metrics[f"aggregates.{label}_s"] = (total_seconds(chosen) / ops, "s")
    # join / columnar / evaluation: per operation
    metrics["join.group_counts_calls"] = (calls("join.group_counts") / ops, "count")
    metrics["join.group_counts_s"] = (seconds("join.group_counts") / ops, "s")
    metrics["columnar.eliminate_calls"] = (calls("columnar.eliminate_group_counts") / ops, "count")
    metrics["columnar.eliminate_s"] = (seconds("columnar.eliminate_group_counts") / ops, "s")
    metrics["evaluation.count_query_calls"] = (calls("evaluation.count_query") / ops, "count")
    metrics["evaluation.count_query_s"] = (seconds("evaluation.count_query") / ops, "s")
    # residual: required_subsets, and compute's own time (the smoothing
    # contraction; the profile and required_subsets are child spans).
    computes = names.get("residual.compute", ())
    smoothing = sum(own[s[0]] for s in computes)
    metrics["residual.required_subsets_s"] = (seconds("residual.required_subsets") / ops, "s")
    metrics["residual.smoothing_s"] = (smoothing / ops, "s")
    metrics["residual.smoothing_share"] = (
        mean(smoothing, total_seconds(computes)), "ratio"
    )
    return metrics
