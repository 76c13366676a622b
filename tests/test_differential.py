"""The differential matrix: every way of ranking a corpus gives one answer.

One seeded corpus (object metadata, content signatures and registered
atomics whose ceilings differ per video, so pruning has teeth) is ranked
by every execution path a query can take: the planned and structural
engines, 1/2/4 in-memory shards, the warm engine pool over 1 and 2
shards, a ``Store`` snapshot reloaded into a one-shard corpus, the same
corpus ingested through the WAL and recovered with no checkpoint, and a
``save_sharded`` layout reopened from disk.
Each row must return exactly the ``(video, segment_id, actual, maximum)``
list of the oracle row — naive atom tables, structural order, no pruning
— or raise the same typed error.

Under ``join_mode="outer"`` the oracle row is itself checked, video by
video, against the definitional semantics of paper §2.5
(:func:`repro.core.semantics.reference_list`); DESIGN.md §2 states that
mode matches it.
"""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.semantics import ReferenceContext, reference_list
from repro.core.tables import INNER, OUTER
from repro.core.topk import top_k_across_videos
from repro.errors import ReproError
from repro.htl import ast, parse
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
    rows = matrix(corpora, formula, k, join_mode)
    expected = outcome(rows.pop("oracle"))
    for name, run in rows.items():
        assert outcome(run) == expected, name
    if isinstance(expected, list):
        check_oracle_row(corpora[0], formula, join_mode)


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


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    formula=queries(),
    k=st.sampled_from([1, 5, 100]),
    join_mode=st.sampled_from([INNER, OUTER]),
)
def test_every_row_gives_the_oracle_ranking(corpora, formula, k, join_mode):
    assert_matrix_agrees(corpora, formula, k, join_mode)


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
    assert_matrix_agrees(corpora, parse(text), k, join_mode)
