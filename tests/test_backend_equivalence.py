"""Cross-backend equivalence: the Python and NumPy engines must agree exactly.

The backend abstraction promises that the choice of execution backend is a
pure performance knob: on every supported query/instance pair the backends
return *identical* counts, identical boundary-multiplicity profiles (and
therefore identical residual sensitivities), and — because noise is drawn
from the caller's generator after those deterministic values are fixed —
*bitwise identical* noisy releases under a fixed seed.

This harness asserts all three levels on synthetic graph data, TPC-H-style
relational data with string columns, and randomly generated instances, over
a query zoo covering self-joins, inequality and comparison predicates,
constants, repeated variables, projections and disconnected residuals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.datasets.tpch import generate_tpch
from repro.engine.aggregates import boundary_multiplicity
from repro.engine.backend import default_backend_name, get_backend
from repro.engine.columnar import eliminate_group_counts_columnar
from repro.engine.elimination import eliminate_group_counts
from repro.graphs.generators import collaboration_graph
from repro.graphs.loader import database_from_networkx
from repro.mechanisms.mechanism import PrivateCountingQuery
from repro.query.parser import parse_query
from repro.sensitivity.residual import ResidualSensitivity
from repro.service.service import PrivateQueryService

PYTHON = get_backend("python")
NUMPY = get_backend("numpy")

GRAPH_QUERIES = [
    "Edge(x, y)",
    "Edge(x, y), Edge(y, z)",
    "Edge(x, y), Edge(y, z), Edge(x, z), x != y, y != z, x != z",
    "Edge(x, y), Edge(y, z), Edge(z, w)",
    "Edge(c, l1), Edge(c, l2), Edge(c, l3), l1 != l2, l1 != l3, l2 != l3",
    "Q(x) :- Edge(x, y), Edge(y, z)",
    "Edge(x, y), Edge(y, z), x < z",
]

TPCH_QUERIES = [
    "Customer(c, n, s), Orders(o, c, p), Lineitem(o, part, qty)",
    'Customer(c, n, "SEG1"), Orders(o, c, p)',
    "Q(c) :- Customer(c, n, s), Orders(o, c, p), Lineitem(o, part, qty), qty >= 25",
    "Orders(o, c, p), Lineitem(o, part, qty), qty < 10",
]


@pytest.fixture(scope="module")
def graph_db() -> Database:
    return database_from_networkx(collaboration_graph(70, 5.0, seed=11))


@pytest.fixture(scope="module")
def tpch_db() -> Database:
    return generate_tpch(num_customers=40, seed=5)


def _databases(graph_db, tpch_db):
    return {"graph": graph_db, "tpch": tpch_db}


# --------------------------------------------------------------------- #
# Level 1: counts
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("text", GRAPH_QUERIES)
def test_graph_counts_identical(graph_db, text):
    query = parse_query(text)
    assert PYTHON.count_query(query, graph_db) == NUMPY.count_query(query, graph_db)

@pytest.mark.parametrize("text", TPCH_QUERIES)
def test_tpch_counts_identical(tpch_db, text):
    query = parse_query(text)
    assert PYTHON.count_query(query, tpch_db) == NUMPY.count_query(query, tpch_db)


def test_random_instances_counts_identical():
    rng = np.random.default_rng(42)
    schema = DatabaseSchema.from_arities({"R": 2, "S": 2, "T": 2})
    queries = [
        parse_query("R(x, y), S(y, z), T(z, w)"),
        parse_query("R(x, y), S(y, z), T(z, x)"),
        parse_query("R(x, y), R(y, z), x != z"),
        parse_query("Q(x, w) :- R(x, y), S(y, z), T(z, w)"),
    ]
    for trial in range(5):
        domain = int(rng.integers(3, 12))
        db = Database.from_rows(
            schema,
            **{
                name: [
                    (int(a), int(b))
                    for a, b in rng.integers(0, domain, size=(int(rng.integers(0, 40)), 2))
                ]
                for name in ("R", "S", "T")
            },
        )
        for query in queries:
            assert PYTHON.count_query(query, db) == NUMPY.count_query(query, db), (
                trial,
                query.name,
            )


# --------------------------------------------------------------------- #
# Level 2: group counts and sensitivity profiles
# --------------------------------------------------------------------- #
def test_group_counts_identical_including_bookkeeping(graph_db):
    query = parse_query("Edge(x, y), Edge(y, z), x != z")
    for group in [(), ("y",), ("x", "z"), ("z", "y")]:
        group_vars = tuple(
            v for name in group for v in query.variables if v.name == name
        )
        python = eliminate_group_counts(query, graph_db, group_vars)
        columnar = eliminate_group_counts_columnar(query, graph_db, group_vars)
        assert python.counts == columnar.counts
        assert python.dropped_predicates == columnar.dropped_predicates
        assert python.elimination_order == columnar.elimination_order
        assert python.is_exact == columnar.is_exact


@pytest.mark.parametrize(
    "text",
    [
        "Edge(x, y), Edge(y, z), Edge(x, z), x != y, y != z, x != z",
        "Edge(x, y), Edge(y, z), Edge(z, w)",
        "Q(x) :- Edge(x, y), Edge(y, z)",
    ],
)
def test_boundary_multiplicity_profiles_identical(graph_db, text):
    query = parse_query(text)
    engine = ResidualSensitivity(query, beta=0.1)
    for kept in engine.required_subsets(graph_db):
        python = boundary_multiplicity(query, graph_db, kept, backend="python")
        columnar = boundary_multiplicity(query, graph_db, kept, backend="numpy")
        assert python.value == columnar.value, kept
        assert python.exact == columnar.exact, kept


@pytest.mark.parametrize("db_name", ["graph", "tpch"])
def test_residual_sensitivity_identical(graph_db, tpch_db, db_name):
    db = _databases(graph_db, tpch_db)[db_name]
    text = (
        "Edge(x, y), Edge(y, z), Edge(x, z), x != y, y != z, x != z"
        if db_name == "graph"
        else "Customer(c, n, s), Orders(o, c, p), Lineitem(o, part, qty)"
    )
    query = parse_query(text)
    python = ResidualSensitivity(query, beta=0.2, backend="python").compute(db)
    columnar = ResidualSensitivity(query, beta=0.2, backend="numpy").compute(db)
    assert python.value == columnar.value
    assert python.details["multiplicities"] == columnar.details["multiplicities"]
    assert python.details["k_star"] == columnar.details["k_star"]
    assert (
        python.details["exact_multiplicities"]
        == columnar.details["exact_multiplicities"]
    )


def test_matmul_fast_path_parity(monkeypatch):
    """Heavy buckets: both engines take the sparse-matmul path identically.

    The dict engine's matmul fast path cannot honour predicates involving
    the summed-out variables (it drops them, making counts upper bounds).
    The columnar engine must gate on the same threshold and drop the same
    predicates, otherwise backends would disagree on counts *and* on the
    exactness flag.  The threshold is monkeypatched down so a small instance
    exercises the path in both engines.
    """
    from repro.engine import elimination
    from repro.query.cq import ConjunctiveQuery
    from repro.query.atoms import Atom
    from repro.query.predicates import GenericPredicate

    monkeypatch.setattr(elimination, "MATMUL_THRESHOLD", 4)

    schema = DatabaseSchema.from_arities({"R": 2, "S": 2, "T": 2})
    rng = np.random.default_rng(0)
    rows = lambda: [  # noqa: E731 - tiny test helper
        (int(a), int(b)) for a, b in rng.integers(0, 6, size=(25, 2))
    ]
    db = Database.from_rows(schema, R=rows(), S=rows(), T=rows())

    parity = GenericPredicate(lambda x, y, z: (x + y + z) % 2 == 0, ["x", "y", "z"])
    query = ConjunctiveQuery(
        [Atom("R", ["x", "y"]), Atom("S", ["y", "z"]), Atom("T", ["x", "z"])],
        predicates=[parity],
    )

    python = eliminate_group_counts(query, db, ())
    columnar = eliminate_group_counts_columnar(query, db, ())
    assert python.counts == columnar.counts
    assert python.dropped_predicates == columnar.dropped_predicates
    assert python.is_exact == columnar.is_exact
    # The fast path genuinely engaged: the predicate could not be honoured.
    assert not python.is_exact

    # The full counting API agrees too (both fall back to exact enumeration).
    assert PYTHON.count_query(query, db) == NUMPY.count_query(query, db)


def test_matmul_no_matching_mids_parity(monkeypatch):
    """The matmul early exit (no join partners) keeps pending bookkeeping equal."""
    from repro.engine import elimination
    from repro.query.cq import ConjunctiveQuery
    from repro.query.atoms import Atom
    from repro.query.predicates import GenericPredicate

    monkeypatch.setattr(elimination, "MATMUL_THRESHOLD", 0)
    schema = DatabaseSchema.from_arities({"R": 2, "S": 2, "T": 2})
    db = Database.from_rows(
        schema,
        R=[(0, 1), (0, 2)],
        S=[(7, 5), (8, 5)],  # no y joins R's y values
        T=[(0, 5)],
    )
    parity = GenericPredicate(lambda x, y, z: True, ["x", "y", "z"])
    query = ConjunctiveQuery(
        [Atom("R", ["x", "y"]), Atom("S", ["y", "z"]), Atom("T", ["x", "z"])],
        predicates=[parity],
    )
    python = eliminate_group_counts(query, db, ())
    columnar = eliminate_group_counts_columnar(query, db, ())
    assert python.counts == columnar.counts == {}
    assert python.dropped_predicates == columnar.dropped_predicates


# --------------------------------------------------------------------- #
# Level 3: bitwise-identical releases under a fixed seed
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("method", ["residual", "elastic", "global"])
def test_seeded_releases_bitwise_identical(graph_db, method):
    query = parse_query("Edge(x, y), Edge(y, z)")
    releases = {}
    for backend in ("python", "numpy"):
        releaser = PrivateCountingQuery(
            query, epsilon=0.8, method=method, rng=1234, backend=backend
        )
        releases[backend] = releaser.release(graph_db)
    assert releases["python"].noisy_count == releases["numpy"].noisy_count
    assert releases["python"].sensitivity == releases["numpy"].sensitivity
    assert releases["python"].expected_error == releases["numpy"].expected_error
    assert releases["python"].backend == "python"
    assert releases["numpy"].backend == "numpy"


def test_service_release_sequences_bitwise_identical(graph_db):
    """Two seeded services differing only in backend serve identical sequences."""
    queries = [
        "Edge(x, y)",
        "Edge(x, y), Edge(y, z)",
        "Edge(a, b), Edge(b, c)",  # same shape as above: cache/dedup path
        "Edge(x, y), Edge(y, z), Edge(x, z), x != y, y != z, x != z",
    ]
    responses = {}
    for backend in ("python", "numpy"):
        service = PrivateQueryService(session_budget=10.0, rng=7)
        service.register_database("g", graph_db, backend=backend)
        session = service.create_session().session_id
        responses[backend] = [
            service.count("g", text, epsilon=0.25, session=session) for text in queries
        ]
    for python_resp, numpy_resp in zip(responses["python"], responses["numpy"]):
        assert python_resp.noisy_count == numpy_resp.noisy_count
        assert python_resp.sensitivity == numpy_resp.sensitivity
    assert all(r.backend == "numpy" for r in responses["numpy"])


def test_service_stats_report_backend(graph_db):
    service = PrivateQueryService(rng=0)
    service.register_database("g", graph_db, backend="numpy")
    stats = service.stats()
    assert stats["databases"]["g"]["backend"] == "numpy"
    assert stats["backends"] == {
        "available": ["numpy", "python"],
        "default": default_backend_name(),
    }
