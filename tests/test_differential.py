"""The differential matrix: every way of ranking a corpus gives one answer.

One seeded corpus (object metadata, content signatures and registered
atomics whose ceilings differ per video, so pruning has teeth) is ranked
by every execution path a query can take: the planned and structural
engines, 1/2/4 in-memory shards, the warm engine pool over 1 and 2
shards, a ``Store`` snapshot reloaded into a one-shard corpus, the same
corpus ingested through the WAL and recovered with no checkpoint, a
``save_sharded`` layout reopened from disk, and the paper's §4 SQL
baseline (per-video lists from SQLite, ranked with
``top_k_segments`` and ``TopKResult.merge``).
Each row must return exactly the ``(video, segment_id, actual, maximum)``
list of the oracle row — naive atom tables, structural order, no pruning
— or raise the same typed error.

The SQL row runs where the SQL systems are defined: on type (1) and
type (2) formulas (:func:`repro.htl.classify.skeleton_class`).  Type (2)
formulas join per-object tables, and the SQL system joins them as the
paper does, so under ``join_mode="outer"`` only type (1) formulas, which
join nothing, have an SQL row.

Under ``join_mode="outer"`` the oracle row is itself checked, video by
video, against the definitional semantics of paper §2.5
(:func:`repro.core.semantics.reference_list`); DESIGN.md §2 states that
mode matches it.
"""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.semantics import ReferenceContext, reference_list
from repro.core.tables import INNER, OUTER
from repro.core.topk import TopKResult, top_k_across_videos, top_k_segments
from repro.errors import ReproError
from repro.htl import FormulaClass, ast, parse, skeleton_class
from repro.htl.variables import free_object_vars
from repro.ingest import initialise, recover
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import (
    Fact,
    Relationship,
    SegmentMetadata,
    make_object,
)
from repro.serve import EnginePool, QueryRequest
from repro.shard import ShardedCorpus
from repro.sqlbaseline import SQLRetrievalSystem, Type2SQLSystem
from repro.store import Store, save_sharded
from repro.workloads.synthetic import random_similarity_list

from tests.htl.strategies import (
    ATTR_FUNCS,
    REL_NAMES,
    STRINGS,
    picture_atoms,
)
from tests.integration.test_engine_vs_oracle import assert_lists_equal

OBJECT_IDS = ["a", "b", "c"]
CONFIDENCES = [1.0, 0.5]
VALUES = [-5, 0, 30, 0.5, 50.0, True] + STRINGS
LEVEL = 2


def segment(rng):
    """One segment in the vocabulary of ``tests/htl/strategies.py``."""

    def facts():
        return {
            name: Fact(rng.choice(VALUES), rng.choice(CONFIDENCES))
            for name in rng.sample(ATTR_FUNCS, rng.randint(0, 2))
        }

    objects = [
        make_object(
            object_id,
            rng.choice(STRINGS),
            confidence=rng.choice(CONFIDENCES),
            **facts(),
        )
        for object_id in OBJECT_IDS
        if rng.random() < 0.6
    ]
    relationships = [
        Relationship(
            rng.choice(REL_NAMES),
            tuple(
                rng.choice(OBJECT_IDS + STRINGS)
                for __ in range(rng.randint(1, 2))
            ),
            rng.choice(CONFIDENCES),
        )
        for __ in range(rng.randint(0, 2))
    ]
    signature = [rng.choice([0.0, 1.0, 2.0, 5.0]) for __ in range(4)]
    return SegmentMetadata(
        attributes=facts(),
        objects=objects,
        relationships=relationships,
        signature=signature if any(signature) else None,
    )


def seeded_corpus(n_videos=6, n_segments=8, seed=28):
    rng = random.Random(seed)
    database = VideoDatabase()
    for position in range(n_videos):
        video = flat_video(
            f"v{position}", [segment(rng) for __ in range(n_segments)]
        )
        database.add(video)
        for name in ("P1", "P2"):
            database.register_atomic(
                name,
                video.name,
                random_similarity_list(
                    n_segments,
                    satisfy_fraction=0.4,
                    maximum=2.0 + 1.5 * position,
                    rng=rng,
                ),
            )
    return database


def wal_recovered(database, root):
    """``database`` ingested op by op through the WAL — each video, then
    its P1/P2 lists, one commit, no checkpoint — and recovered."""
    with initialise(root, fsync=False) as ingester:
        for video in database.videos():
            ingester.add_video(
                video.name,
                [node.metadata for node in video.nodes_at_level(LEVEL)],
            )
            for name in ("P1", "P2"):
                ingester.add_annotations(
                    video.name, name, database.atomic_list(name, video.name)
                )
        ingester.commit()
    recovered = recover(root, fsync=False)
    recovered.wal.close()
    assert recovered.replayed == 3 * len(database.names())
    return recovered.database


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """The corpus in memory, reloaded from a snapshot, recovered from the
    WAL, and reopened from a two-shard layout on disk (built once: loads
    are memoized)."""
    database = seeded_corpus()
    root = tmp_path_factory.mktemp("differential")
    Store(root / "store").save(database)
    reloaded = Store(root / "store").load().database
    save_sharded(database, root / "shards", 2)
    return (
        database,
        reloaded,
        wal_recovered(database, root / "wal"),
        ShardedCorpus.from_directory(root / "shards"),
    )


def ranking(result):
    return [(s.video, s.segment_id, s.actual, s.maximum) for s in result]


def outcome(run):
    """A row's ranking, or the typed error every row must raise alike."""
    try:
        return ranking(run())
    except ReproError as error:
        return ("raised", type(error).__name__)


def sql_class(formula, join_mode):
    """The formula's class when the SQL row runs on it, else None."""
    kind = skeleton_class(formula)
    if kind == FormulaClass.TYPE1 or (
        kind == FormulaClass.TYPE2 and join_mode == INNER
    ):
        return kind
    return None


def sql_list(formula, video, database):
    """One video's list from the SQL baseline: registered atomics through
    the type (1) system, picture atoms through the type (2) system."""
    names = {
        node.name
        for node in formula.walk()
        if isinstance(node, ast.AtomicRef)
    }
    if not names:
        return Type2SQLSystem().evaluate_on_video(formula, video, LEVEL)
    system = SQLRetrievalSystem()
    system.load_segments(len(video.nodes_at_level(LEVEL)))
    for name in names:
        system.load_atomic(
            name, database.atomic_list(name, video.name, LEVEL)
        )
    return system.evaluate(formula)


def sql_row(database, formula, k):
    return TopKResult.merge(
        *(
            TopKResult(
                top_k_segments(
                    sql_list(formula, video, database), k, video.name
                )
            )
            for video in database.videos()
        ),
        k=k,
    )


def matrix(corpora, formula, k, join_mode):
    """Row name → zero-argument run, the oracle row first.  Every row
    gets a fresh engine, so no plan cache carries over between them."""
    database, reloaded, recovered, layout = corpora
    config = EngineConfig(join_mode=join_mode)

    def engine(**overrides):
        return RetrievalEngine(dataclasses.replace(config, **overrides))

    def direct(**options):
        return lambda: top_k_across_videos(
            engine(), formula, database, k, **options
        )

    def sharded(corpus):
        return lambda: corpus.top_k(engine(), formula, k)

    def pooled(n_shards):
        def run():
            corpus = ShardedCorpus.from_database(database, n_shards)
            pool = EnginePool(corpus, 2, config=config)
            request = QueryRequest(formula, k, lenient=False)
            return pool.execute(pool.workers[0], request, None)

        return run

    rows = {
        "oracle": lambda: top_k_across_videos(
            engine(naive_atoms=True, plan=False), formula, database, k,
            prune=False,
        ),
        "planned": direct(),
        "structural": lambda: top_k_across_videos(
            engine(plan=False), formula, database, k
        ),
    }
    for n_shards in (1, 2, 4):
        corpus = ShardedCorpus.from_database(database, n_shards)
        rows[f"shards={n_shards}"] = sharded(corpus)
    rows["pool shards=1"] = pooled(1)
    rows["pool shards=2"] = pooled(2)
    rows["store reloaded"] = sharded(ShardedCorpus.from_database(reloaded))
    rows["wal recovered"] = sharded(ShardedCorpus.from_database(recovered))
    rows["shard layout"] = sharded(layout)
    if sql_class(formula, join_mode) is not None:
        rows["sql baseline"] = lambda: sql_row(database, formula, k)
    return rows


def check_oracle_row(database, formula, join_mode):
    """The oracle configuration per video against paper §2.5."""
    if join_mode != OUTER:
        return
    engine = RetrievalEngine(
        EngineConfig(join_mode=OUTER, naive_atoms=True, plan=False)
    )
    for video in database.videos():
        context = ReferenceContext(
            nodes=video.nodes_at_level(LEVEL),
            video=video,
            level=LEVEL,
            universe=video.object_universe(),
            atomics=lambda name, level, video=video: database.atomic_list(
                name, video.name, level
            ),
        )
        assert_lists_equal(
            engine.evaluate_video(formula, video, LEVEL, database),
            reference_list(formula, context),
            video.name,
        )


def assert_matrix_agrees(corpora, formula, k, join_mode):
    """Every row against the oracle; returns the class the SQL row ran
    on, or None when it skipped the formula."""
    rows = matrix(corpora, formula, k, join_mode)
    expected = outcome(rows.pop("oracle"))
    for name, run in rows.items():
        assert outcome(run) == expected, name
    if isinstance(expected, list):
        check_oracle_row(corpora[0], formula, join_mode)
    return sql_class(formula, join_mode)


def close(formula):
    """Bind every free object variable, as ``test_index_driven`` does."""
    names = sorted(free_object_vars(formula))
    return ast.Exists(tuple(names), formula) if names else formula


def queries():
    """Closed picture atoms, bare or under one temporal shape."""
    atoms = picture_atoms()
    pairs = st.tuples(atoms, atoms)
    return st.one_of(
        atoms,
        atoms.map(ast.Eventually),
        atoms.map(ast.Next),
        pairs.map(lambda pair: ast.Until(*pair)),
        pairs.map(lambda pair: ast.And(pair[0], ast.Eventually(pair[1]))),
    ).map(close)


#: One generated case of each class the SQL row covers, so the row can
#: never pass vacuously: a bare closed atom is type (1), an ∃ over a
#: temporal body is type (2).
TYPE1_EXAMPLE = close(ast.Present(ast.ObjectVar("x")))
TYPE2_EXAMPLE = close(
    ast.Until(ast.Present(ast.ObjectVar("x")), ast.Present(ast.ObjectVar("y")))
)


def test_every_row_gives_the_oracle_ranking(corpora):
    sql_ran = set()

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
        ],
    )
    @given(
        formula=queries(),
        k=st.sampled_from([1, 5, 100]),
        join_mode=st.sampled_from([INNER, OUTER]),
    )
    @example(formula=TYPE1_EXAMPLE, k=5, join_mode=INNER)
    @example(formula=TYPE2_EXAMPLE, k=5, join_mode=INNER)
    def check(formula, k, join_mode):
        sql_ran.add(assert_matrix_agrees(corpora, formula, k, join_mode))

    check()
    assert {FormulaClass.TYPE1, FormulaClass.TYPE2} <= sql_ran


#: The registered-list queries the shard suite's identity cases ranked.
REGISTERED = [
    "$P1",
    "$P1 and $P2",
    "$P1 until $P2",
    "$P1 and eventually $P2",
]


@pytest.mark.parametrize("join_mode", [INNER, OUTER])
@pytest.mark.parametrize("k", [10, 100_000])
@pytest.mark.parametrize("text", REGISTERED)
def test_registered_lists_agree(corpora, text, k, join_mode):
    sql_ran = assert_matrix_agrees(corpora, parse(text), k, join_mode)
    assert sql_ran == FormulaClass.TYPE1
