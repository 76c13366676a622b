"""The exception-hierarchy contract, checked by introspection.

Complements the spot checks in test_public_api.py: instead of a
hand-maintained list, walk :mod:`repro.errors` and assert the contract
for every public exception class — present and future.
"""

import inspect

import pytest

from repro import errors
from repro.core.simlist import SimilarityList


def public_exception_classes():
    classes = []
    for name in dir(errors):
        if name.startswith("_"):
            continue
        obj = getattr(errors, name)
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            classes.append(obj)
    return classes


class TestHierarchy:
    def test_module_exports_exceptions(self):
        assert len(public_exception_classes()) >= 15

    @pytest.mark.parametrize(
        "klass", public_exception_classes(), ids=lambda k: k.__name__
    )
    def test_every_exception_derives_from_repro_error(self, klass):
        assert issubclass(klass, errors.ReproError)
        assert issubclass(klass, Exception)

    @pytest.mark.parametrize(
        "klass", public_exception_classes(), ids=lambda k: k.__name__
    )
    def test_every_exception_has_a_docstring(self, klass):
        assert klass.__doc__, f"{klass.__name__} is undocumented"

    def test_resilience_family(self):
        assert issubclass(errors.BudgetExceededError, errors.ResilienceError)
        assert issubclass(errors.InjectedFaultError, errors.ResilienceError)
        # Budget overruns are timeouts: standard-library handlers that
        # catch TimeoutError must see them.
        assert issubclass(errors.BudgetExceededError, TimeoutError)

    def test_stdlib_mixins_preserved(self):
        assert issubclass(errors.InvalidIntervalError, ValueError)
        assert issubclass(errors.HTLTypeError, TypeError)
        assert issubclass(errors.UnknownLevelError, KeyError)
        assert issubclass(errors.SQLExecutionError, RuntimeError)


class TestDocumentedAttributes:
    def test_htl_syntax_error_position(self):
        error = errors.HTLSyntaxError("bad token", line=3, column=9)
        assert error.line == 3
        assert error.column == 9
        assert "line 3" in str(error)

    def test_sql_execution_error_names_statement(self):
        error = errors.SQLExecutionError("no such table", statement="SELECT 1")
        assert error.statement == "SELECT 1"
        assert "SELECT 1" in str(error)

    def test_budget_error_attributes(self):
        error = errors.BudgetExceededError(
            "too slow", site="atom-scoring", steps=512, elapsed_ms=81.5
        )
        assert error.site == "atom-scoring"
        assert error.steps == 512
        assert error.elapsed_ms == pytest.approx(81.5)
        assert "atom-scoring" in str(error)

    def test_injected_fault_attributes(self):
        error = errors.InjectedFaultError(
            "chaos", site="list-merge", sequence=4
        )
        assert error.site == "list-merge"
        assert error.sequence == 4

    def test_store_family(self):
        assert issubclass(errors.StoreWriteError, errors.StoreError)
        assert issubclass(errors.StoreCorruptionError, errors.StoreError)
        assert issubclass(errors.StoreVersionError, errors.StoreError)

    def test_store_error_carries_path(self):
        error = errors.StoreError("broken", path="/data/store")
        assert error.path == "/data/store"

    def test_store_corruption_error_names_the_damage(self):
        error = errors.StoreCorruptionError(
            "rot detected",
            path="/data/store",
            artifact="snap-000002/videos.json",
            quarantined=["/data/store/quarantine/snap-000002__videos.json"],
        )
        assert error.path == "/data/store"
        assert error.artifact == "snap-000002/videos.json"
        assert error.quarantined == (
            "/data/store/quarantine/snap-000002__videos.json",
        )


class TestInvariantRejection:
    """Each invariant violation raises the typed error from ``validate()``;
    the cases live in ``tests/core/test_simlist.py::TestColumns::
    test_trusted_columns_are_scanned_by_validate``."""

    def test_validate_returns_self_on_well_formed_lists(self):
        sim = SimilarityList.from_entries([((1, 3), 2.0)], 4.0)
        assert sim.validate() is sim
