"""Pluggable execution backends for counting and boundary-multiplicity evaluation.

The hot path of the library — counting query results and evaluating the
residual-query group counts behind ``T_E(I)`` — is served by an
:class:`ExecutionBackend`.  Two implementations ship:

* :class:`PythonBackend` (``"python"``) — the original dict-based engines
  (:mod:`repro.engine.elimination` backed by the exact enumeration of
  :mod:`repro.engine.join`); arbitrary-precision counts, no dependencies on
  array layout.
* :class:`NumpyBackend` (``"numpy"``) — vectorized columnar evaluation
  (:mod:`repro.engine.columnar`): relations are read as column arrays, joins
  are factorized ``searchsorted`` merges, and group-by aggregation is
  vectorized.  Produces results identical to the Python backend on every
  query the library supports.

Backends are resolved by name through :func:`get_backend`; the process-wide
default is ``"python"`` unless overridden by the ``REPRO_BACKEND``
environment variable (which is how the CI matrix runs the whole test suite
under each backend).  Higher layers thread a backend choice through
:func:`repro.engine.evaluation.count_query`,
:func:`repro.engine.aggregates.boundary_multiplicity`,
:class:`repro.sensitivity.residual.ResidualSensitivity`,
:class:`repro.mechanisms.mechanism.PrivateCountingQuery` and the serving
layer's per-database registration.

Third-party backends can be added with :func:`register_backend`; they only
need to implement :meth:`ExecutionBackend.eliminate_group_counts` — the
counting driver and every fallback path is inherited.
"""

from __future__ import annotations

import abc
import os
from typing import Sequence

from repro.data.database import Database
from repro.engine import join as join_engine
from repro.engine.columnar import eliminate_group_counts_columnar
from repro.engine.elimination import EliminationResult, eliminate_group_counts
from repro.exceptions import EvaluationError
from repro.query.atoms import Variable
from repro.query.cq import ConjunctiveQuery
from repro.query.predicates import Predicate

__all__ = [
    "ExecutionBackend",
    "PythonBackend",
    "NumpyBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "register_backend",
]

#: Environment variable overriding the process-wide default backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"


class ExecutionBackend(abc.ABC):
    """Strategy object for the two evaluation primitives the library needs.

    Subclasses implement :meth:`eliminate_group_counts` (grouped aggregate
    counts of a (residual) conjunctive query); the base class derives
    :meth:`count_query` from it, falling back to the exact backtracking
    enumeration of :mod:`repro.engine.join` when elimination had to drop a
    predicate (exactly mirroring the ``"auto"`` strategy of the one-shot
    API).
    """

    #: The registry name of the backend (e.g. ``"python"``).
    name: str = "abstract"

    @abc.abstractmethod
    def eliminate_group_counts(
        self,
        query: ConjunctiveQuery,
        database: Database,
        group_variables: Sequence[Variable],
        *,
        atom_indices: Sequence[int] | None = None,
        predicates: Sequence[Predicate] | None = None,
    ) -> EliminationResult:
        """Group-by counts of a (residual) CQ; see :mod:`repro.engine.elimination`."""

    def count_query(
        self,
        query: ConjunctiveQuery,
        database: Database,
        *,
        strategy: str = "auto",
        max_intermediate: int | None = None,
    ) -> int:
        """The result size ``|q(I)|`` (same contract as
        :func:`repro.engine.evaluation.count_query`)."""
        query.validate_against_schema(database.schema)
        if strategy not in ("auto", "enumerate", "eliminate"):
            raise EvaluationError(f"unknown strategy {strategy!r}")

        if strategy in ("auto", "eliminate"):
            if query.is_full:
                result = self.eliminate_group_counts(query, database, ())
                if result.is_exact:
                    return result.counts.get((), 0)
            else:
                result = self.eliminate_group_counts(
                    query, database, tuple(query.output_variables)
                )
                if result.is_exact:
                    return sum(1 for count in result.counts.values() if count > 0)
            if strategy == "eliminate":
                raise EvaluationError(
                    "bucket elimination cannot honour these predicates exactly: "
                    f"{result.dropped_predicates!r}; use strategy='enumerate'"
                )

        distinct_on: Sequence[Variable] | None = None
        if not query.is_full:
            distinct_on = tuple(query.output_variables)
        return join_engine.count_assignments(
            query,
            database,
            distinct_on=distinct_on,
            max_intermediate=max_intermediate,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


class PythonBackend(ExecutionBackend):
    """The original dict-based evaluation engines."""

    name = "python"

    def eliminate_group_counts(
        self,
        query: ConjunctiveQuery,
        database: Database,
        group_variables: Sequence[Variable],
        *,
        atom_indices: Sequence[int] | None = None,
        predicates: Sequence[Predicate] | None = None,
    ) -> EliminationResult:
        return eliminate_group_counts(
            query,
            database,
            group_variables,
            atom_indices=atom_indices,
            predicates=predicates,
        )


class NumpyBackend(ExecutionBackend):
    """Vectorized columnar evaluation over NumPy arrays."""

    name = "numpy"

    def eliminate_group_counts(
        self,
        query: ConjunctiveQuery,
        database: Database,
        group_variables: Sequence[Variable],
        *,
        atom_indices: Sequence[int] | None = None,
        predicates: Sequence[Predicate] | None = None,
    ) -> EliminationResult:
        return eliminate_group_counts_columnar(
            query,
            database,
            group_variables,
            atom_indices=atom_indices,
            predicates=predicates,
        )


_BACKENDS: dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend, *, replace: bool = False) -> None:
    """Add ``backend`` to the registry under ``backend.name``."""
    if not backend.name or backend.name == "abstract":
        raise EvaluationError("execution backends must define a concrete name")
    if backend.name in _BACKENDS and not replace:
        raise EvaluationError(
            f"execution backend {backend.name!r} is already registered "
            "(pass replace=True to override)"
        )
    _BACKENDS[backend.name] = backend


register_backend(PythonBackend())
register_backend(NumpyBackend())


def available_backends() -> list[str]:
    """The registered backend names, sorted."""
    return sorted(_BACKENDS)


def default_backend_name() -> str:
    """The process-wide default backend (``REPRO_BACKEND`` or ``"python"``).

    An unknown name in the environment variable raises rather than silently
    falling back, so a misconfigured CI matrix fails loudly.
    """
    name = os.environ.get(BACKEND_ENV_VAR, "").strip()
    if not name:
        return "python"
    if name not in _BACKENDS:
        raise EvaluationError(
            f"{BACKEND_ENV_VAR}={name!r} names no registered execution backend; "
            f"available: {available_backends()}"
        )
    return name


def get_backend(spec: str | ExecutionBackend | None = None) -> ExecutionBackend:
    """Resolve a backend from a name, an instance, or ``None`` (the default)."""
    if spec is None:
        return _BACKENDS[default_backend_name()]
    if isinstance(spec, ExecutionBackend):
        return spec
    try:
        return _BACKENDS[spec]
    except KeyError:
        raise EvaluationError(
            f"unknown execution backend {spec!r}; available: {available_backends()}"
        ) from None
