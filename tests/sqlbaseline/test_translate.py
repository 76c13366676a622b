"""Direct system vs SQL-based system: identical results (paper §4.1).

"Both approaches produced identical final values as well as identical
intermediate similarity tables."  We check final values on the paper's
Query 1 and on randomly generated type (1) formulas over random lists.
"""

import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import RetrievalEngine
from repro.core.simlist import SimilarityList
from repro.errors import (
    SQLExecutionError,
    UnsupportedFormulaError,
    WorkloadError,
)
from repro.htl import ast, parse
from repro.sqlbaseline import SQLRetrievalSystem, SQLTranslator

from tests.core.test_simlist import similarity_lists

ATOM_NAMES = ["P1", "P2", "P3"]


@st.composite
def type1_over_atoms(draw):
    leaf = st.sampled_from(ATOM_NAMES).map(ast.AtomicRef)
    return draw(
        st.recursive(
            leaf,
            lambda children: st.one_of(
                st.tuples(children, children).map(lambda p: ast.And(*p)),
                st.tuples(children, children).map(lambda p: ast.Until(*p)),
                children.map(ast.Next),
                children.map(ast.Eventually),
            ),
            max_leaves=5,
        )
    )


def evaluate_both(formula, lists, n_segments):
    engine = RetrievalEngine()
    direct = engine.combine_lists(formula, lists)
    sql = SQLRetrievalSystem()
    sql.load_segments(n_segments)
    for name, sim in lists.items():
        sql.load_atomic(name, sim)
    return direct, sql.evaluate(formula)


def index_names(connection):
    return {
        name
        for (name,) in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
        )
    }


def table_names(connection):
    return {
        name
        for (name,) in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }


class TestPaperQuery1:
    MT = SimilarityList.from_entries([((9, 9), 9.787)], 10.0)
    MW = SimilarityList.from_entries(
        [
            ((1, 4), 2.595),
            ((6, 6), 1.26),
            ((8, 8), 1.26),
            ((10, 44), 1.26),
            ((47, 49), 6.26),
        ],
        8.0,
    )

    def test_identical_final_values(self):
        formula = parse(
            "atomic('Man-Woman') and eventually atomic('Moving-Train')"
        )
        direct, sql = evaluate_both(
            formula, {"Man-Woman": self.MW, "Moving-Train": self.MT}, 50
        )
        assert direct == sql

    def test_identical_intermediate_eventually(self):
        formula = parse("eventually atomic('Moving-Train')")
        direct, sql = evaluate_both(
            formula, {"Moving-Train": self.MT}, 50
        )
        assert direct == sql
        assert direct.to_segment_values() == {
            i: pytest.approx(9.787) for i in range(1, 10)
        }


class TestRandomEquivalence:
    @given(
        type1_over_atoms(),
        similarity_lists(max_id=40),
        similarity_lists(max_id=40),
        similarity_lists(max_id=40),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_direct_equals_sql(self, formula, l1, l2, l3):
        # The generated lists may chain entries past the 50-segment axis;
        # the SQL side joins against the segments table while the direct
        # list algebra is axis-agnostic, so clamp the inputs to the axis
        # for the equivalence to be well-posed.
        lists = {
            name: sim.restricted(1, 50)
            for name, sim in {"P1": l1, "P2": l2, "P3": l3}.items()
        }
        direct, sql = evaluate_both(formula, lists, 50)
        assert direct == sql, f"formula: {formula}"


class TestTranslatorErrors:
    def test_type2_rejected(self):
        translator = SQLTranslator()
        formula = parse("exists x . eventually present(x)")
        with pytest.raises(UnsupportedFormulaError):
            translator.translate(formula, {}, {})

    def test_unknown_atom_rejected(self):
        translator = SQLTranslator()
        with pytest.raises(UnsupportedFormulaError):
            translator.translate(parse("atomic('ghost')"), {}, {})

    def test_zero_threshold_rejected(self):
        with pytest.raises(UnsupportedFormulaError):
            SQLTranslator(threshold=0.0)

    def test_script_rendering(self):
        translator = SQLTranslator()
        translation = translator.translate(
            parse("eventually atomic('P1')"), {"P1": "sim_p1"}, {"P1": 2.0}
        )
        script = translation.script()
        assert "INSERT INTO" in script
        assert script.rstrip().endswith(";")


class TestSystemLifecycle:
    def test_reload_atomic_replaces(self):
        sql = SQLRetrievalSystem()
        sql.load_segments(10)
        first = SimilarityList.from_entries([((1, 1), 1.0)], 2.0)
        second = SimilarityList.from_entries([((5, 5), 2.0)], 2.0)
        sql.load_atomic("P", first)
        sql.load_atomic("P", second)
        result = sql.evaluate(parse("atomic('P')"))
        assert result == second

    def test_temporaries_dropped(self):
        sql = SQLRetrievalSystem()
        sql.load_segments(10)
        sql.load_atomic("P", SimilarityList.from_entries([((1, 3), 1.0)], 2.0))
        before = table_names(sql.connection)
        sql.evaluate(parse("eventually atomic('P') and atomic('P')"))
        assert table_names(sql.connection) == before

    def test_sqlite_failure_is_typed_and_cleans_up(self, monkeypatch):
        sql = SQLRetrievalSystem()
        sql.load_segments(10)
        sql.load_atomic("P", SimilarityList.from_entries([((1, 3), 1.0)], 2.0))
        before = table_names(sql.connection)
        translate = sql.translate
        broken = "INSERT INTO no_such_table SELECT * FROM sim_p"

        def translate_with_broken_statement(formula):
            translation = translate(formula)
            translation.statements.insert(1, broken)
            return translation

        monkeypatch.setattr(sql, "translate", translate_with_broken_statement)
        with pytest.raises(SQLExecutionError) as caught:
            sql.evaluate(parse("eventually atomic('P') and atomic('P')"))
        assert caught.value.statement == broken
        assert broken in str(caught.value)
        assert isinstance(caught.value.__cause__, sqlite3.Error)
        assert table_names(sql.connection) == before

    def test_negative_axis_rejected(self):
        with pytest.raises(WorkloadError):
            SQLRetrievalSystem().load_segments(-1)

    def test_evaluate_needs_the_axis(self):
        sql = SQLRetrievalSystem()
        sql.load_atomic("P", SimilarityList.from_entries([((1, 1), 1.0)], 2.0))
        with pytest.raises(UnsupportedFormulaError):
            sql.evaluate(parse("atomic('P')"))

    def test_segments_keyed_by_integer_primary_key(self):
        sql = SQLRetrievalSystem()
        sql.load_segments(4)
        columns = sql.connection.execute(
            "PRAGMA table_info(segments)"
        ).fetchall()
        assert [(name, kind, pk) for __, name, kind, __, __, pk in columns] == [
            ("id", "INTEGER", 1)
        ]
        assert sql.connection.execute(
            "SELECT MIN(id), MAX(id), COUNT(*) FROM segments"
        ).fetchone() == (1, 4, 4)

    def test_connection_usable_after_failure(self, monkeypatch):
        sql = SQLRetrievalSystem()
        sql.load_segments(10)
        sql.load_atomic("P", SimilarityList.from_entries([((2, 5), 1.0)], 2.0))
        formula = parse("eventually atomic('P')")
        expected = sql.evaluate(formula)
        translate = sql.translate

        def translate_with_broken_statement(formula):
            translation = translate(formula)
            translation.statements.append("SELECT no_such_column FROM segments")
            return translation

        monkeypatch.setattr(sql, "translate", translate_with_broken_statement)
        with pytest.raises(SQLExecutionError):
            sql.evaluate(formula)
        monkeypatch.undo()
        assert sql.evaluate(formula) == expected

    def test_atom_indexes_outlive_the_query(self):
        """``until`` indexes its witness table once; the next query on
        the same atoms reuses the index instead of failing to recreate it."""
        sql = SQLRetrievalSystem()
        sql.load_segments(20)
        sql.load_atomic("P", SimilarityList.from_entries([((1, 6), 2.0)], 2.0))
        sql.load_atomic("Q", SimilarityList.from_entries([((4, 9), 1.0)], 2.0))
        formula = parse("atomic('P') until atomic('Q')")
        first = sql.evaluate(formula)
        indexes = index_names(sql.connection)
        assert {"ix_sim_q_beg_id", "ix_sim_q_end_id"} <= indexes
        assert sql.evaluate(formula) == first
        assert index_names(sql.connection) == indexes

    def test_reloading_an_atom_drops_its_indexes(self):
        sql = SQLRetrievalSystem()
        sql.load_segments(20)
        sql.load_atomic("P", SimilarityList.from_entries([((1, 6), 2.0)], 2.0))
        sql.load_atomic("Q", SimilarityList.from_entries([((4, 9), 1.0)], 2.0))
        formula = parse("atomic('P') until atomic('Q')")
        sql.evaluate(formula)
        replacement = SimilarityList.from_entries([((12, 14), 1.5)], 2.0)
        sql.load_atomic("Q", replacement)
        assert not any(
            name.startswith("ix_sim_q") for name in index_names(sql.connection)
        )
        lists = {
            "P": SimilarityList.from_entries([((1, 6), 2.0)], 2.0),
            "Q": replacement,
        }
        assert sql.evaluate(formula) == RetrievalEngine().combine_lists(
            formula, lists
        )

    def test_atom_name_sanitised(self):
        sql = SQLRetrievalSystem()
        sql.load_segments(5)
        table = sql.load_atomic(
            "Moving-Train", SimilarityList.from_entries([((1, 1), 1.0)], 2.0)
        )
        assert table == "sim_moving_train"
        assert sql.loaded_atoms() == ["Moving-Train"]


TYPE1_SCRIPTS = {
    "and": "$P1 and $P2",
    "next": "next $P1",
    "eventually": "eventually $P1",
    "until": "$P1 until $P2",
    "nested": "($P1 until $P2) and eventually ($P1 and next $P3)",
}


def assert_script_shape(translation):
    """One statement per entry, SQLite's dialect, every temporary created
    once and listed for cleanup, the output among them (or an atom)."""
    created = [
        statement.split()[2]
        for statement in translation.statements
        if statement.startswith("CREATE TABLE ")
    ]
    assert created == translation.temp_tables
    assert len(set(created)) == len(created)
    for statement in translation.statements:
        assert ";" not in statement
        assert "GREATEST" not in statement and "LEAST" not in statement
        assert statement.startswith(("CREATE TABLE ", "CREATE INDEX ", "INSERT INTO "))
    assert translation.output_table in translation.temp_tables


@pytest.mark.parametrize("operator", sorted(TYPE1_SCRIPTS))
def test_type1_script_shape(operator):
    sql = SQLRetrievalSystem()
    sql.load_segments(30)
    for name in ("P1", "P2", "P3"):
        sql.load_atomic(
            name, SimilarityList.from_entries([((3, 9), 1.0)], 2.0)
        )
    formula = parse(TYPE1_SCRIPTS[operator])
    translation = sql.translate(formula)
    assert_script_shape(translation)
    assert sql.translate(formula).statements == translation.statements
