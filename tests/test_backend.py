"""Unit tests for the execution-backend registry and the NumPy columnar engine.

The cross-backend *equivalence* harness (identical counts, profiles and
releases on realistic workloads) lives in ``test_backend_equivalence.py``;
this module covers the registry plumbing and the NumPy backend's edge cases:
empty relations, single tuples, constants, repeated variables, cross
products, scalar factors, and object-typed (non-integer) columns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.database import Database
from repro.data.schema import DatabaseSchema
from repro.engine.backend import (
    BACKEND_ENV_VAR,
    ExecutionBackend,
    NumpyBackend,
    PythonBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
)
from repro.engine.columnar import eliminate_group_counts_columnar
from repro.engine.elimination import eliminate_group_counts
from repro.exceptions import EvaluationError
from repro.query.atoms import Variable
from repro.query.parser import parse_query


@pytest.fixture
def numpy_backend() -> NumpyBackend:
    return NumpyBackend()


class TestRegistry:
    def test_available_backends(self):
        assert "python" in available_backends()
        assert "numpy" in available_backends()

    def test_get_backend_by_name(self):
        assert isinstance(get_backend("python"), PythonBackend)
        assert isinstance(get_backend("numpy"), NumpyBackend)

    def test_get_backend_passthrough_instance(self):
        backend = NumpyBackend()
        assert get_backend(backend) is backend

    def test_get_backend_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert get_backend(None).name == "python"

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert default_backend_name() == "numpy"
        assert get_backend(None).name == "numpy"

    def test_env_var_unknown_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fortran")
        with pytest.raises(EvaluationError, match="fortran"):
            default_backend_name()

    def test_env_var_unknown_message_lists_backends(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fortran")
        with pytest.raises(EvaluationError) as excinfo:
            default_backend_name()
        message = str(excinfo.value)
        assert BACKEND_ENV_VAR in message
        for name in available_backends():
            assert name in message

    @pytest.mark.parametrize("name", ["compiled", "auto"])
    def test_unregistered_names_are_unknown(self, name, monkeypatch):
        assert available_backends() == ["numpy", "python"]
        with pytest.raises(EvaluationError, match="unknown execution backend"):
            get_backend(name)
        monkeypatch.setenv(BACKEND_ENV_VAR, name)
        with pytest.raises(EvaluationError, match="names no registered"):
            default_backend_name()

    def test_unknown_backend_raises(self):
        with pytest.raises(EvaluationError, match="unknown execution backend"):
            get_backend("no-such-backend")

    def test_register_backend_rejects_duplicates(self):
        with pytest.raises(EvaluationError, match="already registered"):
            register_backend(PythonBackend())

    def test_register_backend_replace_overrides(self):
        original = get_backend("python")
        replacement = PythonBackend()
        try:
            register_backend(replacement, replace=True)
            assert get_backend("python") is replacement
        finally:
            register_backend(original, replace=True)

    def test_register_backend_rejects_abstract_name(self):
        class Nameless(PythonBackend):
            name = "abstract"

        with pytest.raises(EvaluationError, match="concrete name"):
            register_backend(Nameless())


class TestRelationColumns:
    def test_int_columns_are_int64(self, small_join_db):
        columns = small_join_db.relation("R").to_columns()
        assert len(columns) == 2
        assert all(col.dtype == np.int64 for col in columns)
        assert sorted(zip(columns[0].tolist(), columns[1].tolist())) == sorted(
            small_join_db.relation("R")
        )

    def test_columns_cached_until_mutation(self, small_join_db):
        relation = small_join_db.relation("R")
        first = relation.to_columns()
        assert relation.to_columns() is first
        relation.add((9, 9))
        second = relation.to_columns()
        assert second is not first
        assert len(second[0]) == len(first[0]) + 1

    def test_mixed_values_fall_back_to_object(self):
        schema = DatabaseSchema.from_arities({"T": 2})
        db = Database.from_rows(schema, T=[(1, "a"), (2, "b")])
        columns = db.relation("T").to_columns()
        assert columns[0].dtype == np.int64
        assert columns[1].dtype == object

    def test_empty_relation_columns(self, two_table_schema):
        db = Database(two_table_schema)
        columns = db.relation("R").to_columns()
        assert all(len(col) == 0 for col in columns)


class TestNumpyBackendEdgeCases:
    def test_empty_relation_count(self, two_table_schema, join_query, numpy_backend):
        db = Database.from_rows(two_table_schema, R=[], S=[(10, 100)])
        assert numpy_backend.count_query(join_query, db) == 0

    def test_both_relations_empty(self, two_table_schema, join_query, numpy_backend):
        db = Database(two_table_schema)
        assert numpy_backend.count_query(join_query, db) == 0

    def test_single_tuple_join(self, two_table_schema, join_query, numpy_backend):
        db = Database.from_rows(two_table_schema, R=[(1, 10)], S=[(10, 5)])
        assert numpy_backend.count_query(join_query, db) == 1

    def test_single_tuple_no_match(self, two_table_schema, join_query, numpy_backend):
        db = Database.from_rows(two_table_schema, R=[(1, 10)], S=[(11, 5)])
        assert numpy_backend.count_query(join_query, db) == 0

    def test_constants_in_atoms(self, two_table_schema, numpy_backend):
        db = Database.from_rows(
            two_table_schema, R=[(1, 10), (2, 20)], S=[(10, 7), (20, 7)]
        )
        query = parse_query("R(x, 10), S(10, z)")
        assert numpy_backend.count_query(query, db) == 1

    def test_repeated_variables(self, two_table_schema, numpy_backend):
        db = Database.from_rows(
            two_table_schema, R=[(5, 5), (5, 6), (7, 7)], S=[(5, 1), (7, 2)]
        )
        query = parse_query("R(x, x), S(x, z)")
        assert numpy_backend.count_query(query, db) == 2

    def test_disconnected_cross_product(self, two_table_schema, numpy_backend):
        db = Database.from_rows(
            two_table_schema, R=[(1, 2), (3, 4)], S=[(5, 6), (7, 8), (9, 10)]
        )
        query = parse_query("R(a, b), S(c, d)")
        assert numpy_backend.count_query(query, db) == 6

    def test_empty_group_counts_match_python(self, two_table_schema, join_query):
        db = Database.from_rows(two_table_schema, R=[], S=[])
        y = Variable("y")
        python = eliminate_group_counts(join_query, db, (y,))
        columnar = eliminate_group_counts_columnar(join_query, db, (y,))
        assert python.counts == columnar.counts == {}

    def test_group_counts_key_types_are_python_values(self, small_join_db, join_query):
        y = Variable("y")
        result = eliminate_group_counts_columnar(join_query, small_join_db, (y,))
        for key, count in result.counts.items():
            assert all(type(v) is int for v in key)
            assert type(count) is int

    def test_empty_atom_selection(self, small_join_db, join_query, numpy_backend):
        result = eliminate_group_counts_columnar(
            join_query, small_join_db, (), atom_indices=[]
        )
        assert result.counts == {(): 1}

    def test_unknown_group_variable_raises(self, small_join_db, join_query):
        with pytest.raises(EvaluationError, match="do not occur"):
            eliminate_group_counts_columnar(
                join_query, small_join_db, (Variable("nope"),)
            )

    def test_object_column_join(self, numpy_backend):
        schema = DatabaseSchema.from_arities({"T": 2, "U": 2})
        db = Database.from_rows(
            schema,
            T=[("alice", 1), ("bob", 2), ("carol", 1)],
            U=[(1, "x"), (1, "y"), (2, "x")],
        )
        query = parse_query("T(name, k), U(k, tag)")
        assert numpy_backend.count_query(query, db) == get_backend(
            "python"
        ).count_query(query, db)

    def test_strategy_validation(self, small_join_db, join_query, numpy_backend):
        with pytest.raises(EvaluationError, match="unknown strategy"):
            numpy_backend.count_query(join_query, small_join_db, strategy="turbo")


class TestRegistryBackendResolution:
    def test_registry_resolves_process_default(self, monkeypatch, small_join_db):
        from repro.service.registry import DatabaseRegistry

        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        entry = DatabaseRegistry().register("db", small_join_db)
        assert entry.backend == "numpy"

    def test_registry_rejects_unknown_backend_at_registration(self, small_join_db):
        from repro.service.registry import DatabaseRegistry

        with pytest.raises(EvaluationError, match="unknown execution backend"):
            DatabaseRegistry().register("db", small_join_db, backend="bogus")


class TestCustomBackend:
    def test_subclass_only_needs_eliminate(self, small_join_db, join_query):
        class Recording(PythonBackend):
            name = "recording-test"

            def __init__(self):
                self.calls = 0

            def eliminate_group_counts(self, *args, **kwargs):
                self.calls += 1
                return super().eliminate_group_counts(*args, **kwargs)

        backend = Recording()
        assert isinstance(backend, ExecutionBackend)
        assert backend.count_query(join_query, small_join_db) == 7
        assert backend.calls == 1
