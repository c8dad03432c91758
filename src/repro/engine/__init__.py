"""Query evaluation engine.

This subpackage evaluates conjunctive queries over the relational substrate.
It provides two complementary strategies:

* :mod:`repro.engine.join` — exact backtracking enumeration that applies
  every predicate (used by tests, small instances, and anywhere exactness
  with arbitrary predicates is required), and
* :mod:`repro.engine.elimination` — bucket (variable) elimination over count
  annotations, which evaluates the aggregate queries behind ``T_E(I)`` in
  polynomial time for bounded-width residuals, applying each predicate in
  the first joined factor that contains all of its variables.

Both are wrapped by the pluggable execution backends of
:mod:`repro.engine.backend`: the dict-based ``"python"`` backend and the
vectorized columnar ``"numpy"`` backend (:mod:`repro.engine.columnar`),
which produce identical results and differ only in speed.  See
``docs/backends.md``.

On top of these, :mod:`repro.engine.aggregates` computes the boundary
multiplicities ``T_E(I)`` of residual queries (the building block of residual
sensitivity), :mod:`repro.engine.profile` evaluates whole residual-sensitivity
profiles in one shared-lattice pass (component memoization, isomorphism
dedup, optional worker pool — see ``docs/performance.md``),
:mod:`repro.engine.agm` computes AGM bounds via the fractional
edge cover LP, and :mod:`repro.engine.domains` builds the augmented active
domain ``Z+(q, I)`` needed for comparison predicates (Section 5.2).
:mod:`repro.engine.canonical` canonicalizes query structure into cache keys
for the serving layer's plan and sensitivity caches.
"""

from repro.engine.aggregates import MultiplicityResult, boundary_multiplicity
from repro.engine.agm import AGMBound, fractional_edge_cover
from repro.engine.backend import (
    ExecutionBackend,
    NumpyBackend,
    PythonBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
)
from repro.engine.canonical import canonical_query_key
from repro.engine.evaluation import count_query, evaluate_query
from repro.engine.join import count_assignments, group_counts, iterate_assignments
from repro.engine.profile import LatticeProfile, ProfileStats, evaluate_profile

__all__ = [
    "AGMBound",
    "ExecutionBackend",
    "LatticeProfile",
    "MultiplicityResult",
    "NumpyBackend",
    "ProfileStats",
    "PythonBackend",
    "available_backends",
    "boundary_multiplicity",
    "canonical_query_key",
    "count_assignments",
    "count_query",
    "default_backend_name",
    "evaluate_profile",
    "evaluate_query",
    "fractional_edge_cover",
    "get_backend",
    "group_counts",
    "iterate_assignments",
    "register_backend",
]
