"""Type (2) SQL translation vs the direct engine (paper inner-join mode).

The paper's SQL system covered "any conjunctive formula"; our SQLite
reconstruction covers type (2) and must return exactly the lists the
direct engine computes in its default mode.
"""

import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.engine import RetrievalEngine
from repro.errors import SQLExecutionError, UnsupportedFormulaError
from repro.htl import parse
from repro.model.hierarchy import flat_video
from repro.model.metadata import Relationship, SegmentMetadata, make_object
from repro.sqlbaseline.system import Type2SQLSystem
from repro.sqlbaseline.translate_type2 import Type2SQLTranslator

from tests.integration.strategies import flat_videos, type1_formulas, type2_formulas
from tests.sqlbaseline.test_translate import assert_script_shape, table_names

ENGINE = RetrievalEngine()  # default = paper inner-join mode


def demo_video():
    video = flat_video(
        "demo",
        [
            SegmentMetadata(
                objects=[make_object("a", "train"), make_object("b", "person")],
            ),
            SegmentMetadata(objects=[make_object("a", "person")]),
            SegmentMetadata(objects=[make_object("b", "train")]),
        ],
    )
    video.nodes_at_level(2)[0].metadata.add_relationship(
        Relationship("near", ("a", "b"))
    )
    return video


class TestHandWorked:
    def test_conjunction_with_shared_variable(self):
        formula = parse(
            "exists x . (present(x) and type(x) = 'train') "
            "and eventually (present(x) and type(x) = 'person')"
        )
        video = demo_video()
        assert Type2SQLSystem().evaluate_on_video(
            formula, video
        ) == ENGINE.evaluate_video(formula, video)

    def test_until_with_two_variables(self):
        formula = parse(
            "exists x, y . near(x, y) until (present(x) and present(y))"
        )
        video = demo_video()
        assert Type2SQLSystem().evaluate_on_video(
            formula, video
        ) == ENGINE.evaluate_video(formula, video)

    def test_next_inside(self):
        formula = parse("exists x . present(x) and next present(x)")
        video = demo_video()
        assert Type2SQLSystem().evaluate_on_video(
            formula, video
        ) == ENGINE.evaluate_video(formula, video)

    def test_type1_formulas_also_covered(self):
        formula = parse(
            "(exists x . present(x)) and eventually (exists y . type(y) = 'person')"
        )
        video = demo_video()
        assert Type2SQLSystem().evaluate_on_video(
            formula, video
        ) == ENGINE.evaluate_video(formula, video)


class TestRandomEquivalence:
    @given(type2_formulas(), flat_videos(max_segments=5))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_type2_matches_engine(self, formula, video):
        sql_result = Type2SQLSystem().evaluate_on_video(formula, video)
        engine_result = ENGINE.evaluate_video(formula, video)
        assert sql_result == engine_result, f"formula: {formula}"

    @given(type1_formulas(), flat_videos(max_segments=5))
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_type1_matches_engine(self, formula, video):
        sql_result = Type2SQLSystem().evaluate_on_video(formula, video)
        engine_result = ENGINE.evaluate_video(formula, video)
        assert sql_result == engine_result, f"formula: {formula}"


class TestScope:
    def test_conjunctive_with_freeze_rejected(self):
        translator = Type2SQLTranslator()
        formula = parse(
            "exists x . [h := height(x)] eventually height(x) > h"
        )
        with pytest.raises(UnsupportedFormulaError):
            translator.translate(formula, lambda atom: None)

    def test_zero_threshold_rejected(self):
        with pytest.raises(UnsupportedFormulaError):
            Type2SQLTranslator(threshold=0.0)

    def test_temporaries_cleaned(self):
        """Neither the script's tables nor the video's atom relations
        outlive a call, however many videos one system evaluates."""
        system = Type2SQLSystem()
        video = demo_video()
        formula = parse("exists x . present(x) and eventually present(x)")
        for __ in range(2):
            system.evaluate_on_video(formula, video)
            assert table_names(system.connection) == {"segments"}

    def test_sqlite_failure_is_typed_and_cleans_up(self, monkeypatch):
        system = Type2SQLSystem()
        translate = system.translator.translate
        broken = "SELECT no_such_column FROM segments"

        def translate_with_broken_statement(formula, loader):
            translation = translate(formula, loader)
            translation.statements.append(broken)
            return translation

        monkeypatch.setattr(
            system.translator, "translate", translate_with_broken_statement
        )
        formula = parse("exists x . present(x) and eventually present(x)")
        with pytest.raises(SQLExecutionError) as caught:
            system.evaluate_on_video(formula, demo_video())
        assert caught.value.statement == broken
        assert isinstance(caught.value.__cause__, sqlite3.Error)
        assert table_names(system.connection) == {"segments"}


    def test_loader_failure_drops_loaded_atoms(self, monkeypatch):
        """An atom that fails to load after another one has been loaded
        leaves neither behind."""
        system = Type2SQLSystem()
        load = system.load_atom_table
        calls = []

        def load_then_fail(atom, table):
            calls.append(atom)
            if len(calls) == 2:
                raise UnsupportedFormulaError("second atom refused")
            return load(atom, table)

        monkeypatch.setattr(system, "load_atom_table", load_then_fail)
        formula = parse(
            "exists x . present(x) and eventually type(x) = 'person'"
        )
        with pytest.raises(UnsupportedFormulaError):
            system.evaluate_on_video(formula, demo_video())
        assert len(calls) == 2
        assert table_names(system.connection) == {"segments"}

    def test_videos_of_different_lengths_share_a_system(self):
        system = Type2SQLSystem()
        formula = parse("exists x . present(x) and next present(x)")
        long_video = flat_video(
            "long",
            [SegmentMetadata(objects=[make_object("a", "train")])] * 6,
        )
        for video in (long_video, demo_video(), long_video):
            assert system.evaluate_on_video(
                formula, video
            ) == ENGINE.evaluate_video(formula, video)


TYPE2_SCRIPTS = {
    "and": "exists x, y . present(x) and next (present(y) and type(y) = 'train')",
    "next": "exists x . next present(x)",
    "eventually": "exists x . eventually (present(x) and type(x) = 'person')",
    "until": "exists x, y . near(x, y) until (present(x) and present(y))",
}


@pytest.mark.parametrize("operator", sorted(TYPE2_SCRIPTS))
def test_type2_script_shape(operator, monkeypatch):
    system = Type2SQLSystem()
    translations = []
    translate = system.translator.translate

    def recording_translate(formula, loader):
        translations.append(translate(formula, loader))
        return translations[-1]

    monkeypatch.setattr(system.translator, "translate", recording_translate)
    formula = parse(TYPE2_SCRIPTS[operator])
    video = demo_video()
    assert system.evaluate_on_video(formula, video) == ENGINE.evaluate_video(
        formula, video
    )
    (translation,) = translations
    assert_script_shape(translation)
    assert translation.output_vars == ()


class TestRegressionAliasCollisions:
    """Variable names that collide with internal SQL aliases must work."""

    @pytest.mark.parametrize("name", ["c2", "c3", "c4", "p", "r", "h", "x"])
    def test_alias_like_variable_names(self, name):
        video = flat_video(
            "v",
            [
                SegmentMetadata(objects=[make_object("a", "t")]),
                SegmentMetadata(objects=[make_object("a", "t")]),
            ],
        )
        formula = parse(
            f"exists {name} . present({name}) until present({name})"
        )
        direct = ENGINE.evaluate_video(formula, video)
        sql = Type2SQLSystem().evaluate_on_video(formula, video)
        assert sql == direct
