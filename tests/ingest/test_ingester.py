"""Ingester behavior: incremental maintenance ≡ rebuild, cache warmth,
commit listeners, serving-pool refresh."""

import random

import pytest

from benchmarks.e2e.corpora import append_batches
from benchmarks.e2e.workloads import LEVEL, SMOKE, WORKLOADS
from repro.core.engine import RetrievalEngine
from repro.core.topk import top_k_across_videos
from repro.errors import IngestError
from repro.htl import parse
from repro.ingest import Ingester, initialise
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.model.serialize import database_to_dict
from repro.pictures import index as index_module
from repro.pictures.retrieval import PictureRetrievalSystem
from repro.serve import EnginePool, QueryRequest
from repro.shard import ShardedCorpus
from repro.workloads.synthetic import random_similarity_list
from tests.pictures.index_document import index_document


def rows(result):
    return [(hit.video, hit.segment_id, hit.actual) for hit in result]


def make_segments(n, seed=0):
    rng = random.Random(seed)
    segments = []
    for index in range(n):
        objects = [make_object(f"o{index % 3}", "train")]
        if rng.random() < 0.5:
            objects.append(make_object("p1", "person", height=100))
        segments.append(SegmentMetadata(objects=objects))
    return segments


def seed_database():
    rng = random.Random(5)
    database = VideoDatabase()
    database.add(flat_video("seed0", make_segments(6, seed=1)))
    database.register_atomic(
        "P1", "seed0", random_similarity_list(6, rng=rng)
    )
    return database


def test_incremental_append_equals_rebuild_from_scratch(tmp_path):
    """The tentpole identity: appending segments through the ingester
    produces the same documents, the same picture index, and the same
    rankings as building the video whole."""
    first = make_segments(5, seed=2)
    second = make_segments(3, seed=3)

    ingester = initialise(tmp_path, seed_database())
    ingester.add_video("live0", first)
    ingester.append_segments("live0", second)
    ingester.commit()
    live = ingester.database.get("live0")

    oracle_db = seed_database()
    oracle_db.add(
        flat_video("live0", make_segments(5, seed=2) + make_segments(3, seed=3))
    )
    oracle = oracle_db.get("live0")

    assert database_to_dict(ingester.database) == database_to_dict(oracle_db)
    live_index = live.root.pictures_at_level(2).index
    oracle_index = oracle.root.pictures_at_level(2).index
    assert index_document(live_index) == index_document(oracle_index)

    formula = parse("exists x . present(x) and type(x) = 'person'")
    assert RetrievalEngine().evaluate_video(
        formula, live, database=ingester.database
    ) == RetrievalEngine().evaluate_video(formula, oracle, database=oracle_db)
    ingester.close()


def test_appended_object_is_visible_to_the_next_query(tmp_path):
    """The object universe cached on a video's root is extended by the
    append: a segment whose only object was never seen before ranks as
    in a cold rebuild (a stale ∃-pool would score it 0)."""
    first = make_segments(5, seed=2)
    newcomer = SegmentMetadata(
        objects=[make_object("newcomer", "person", confidence=0.5)]
    )
    formula = parse("exists x . present(x)")

    ingester = initialise(tmp_path, seed_database())
    ingester.add_video("live0", first)
    ingester.commit()
    live = ingester.database.get("live0")
    engine = RetrievalEngine()
    engine.evaluate_video(formula, live, database=ingester.database)
    assert "newcomer" not in live.object_universe()  # cached by the query

    ingester.append_segments("live0", [newcomer])
    ingester.commit()

    oracle_db = seed_database()
    oracle_db.add(flat_video("live0", make_segments(5, seed=2) + [newcomer]))
    assert live.object_universe() == oracle_db.get("live0").object_universe()
    ranked = top_k_across_videos(engine, formula, ingester.database, 20)
    assert rows(ranked) == rows(
        top_k_across_videos(RetrievalEngine(), formula, oracle_db, 20)
    )
    assert ("live0", 6, 0.5) in rows(ranked)
    ingester.close()


def test_append_keeps_other_videos_cache_warm(tmp_path):
    ingester = initialise(tmp_path, seed_database())
    ingester.add_video("live0", make_segments(4))
    ingester.commit()
    engine = RetrievalEngine()
    formula = parse("eventually $P1")
    seed_video = ingester.database.get("seed0")
    engine.evaluate_video(formula, seed_video, database=ingester.database)
    # Streaming into live0 must not cost seed0 its memoized list.
    ingester.append_segments("live0", make_segments(2, seed=9))
    ingester.commit()
    engine.evaluate_video(formula, seed_video, database=ingester.database)
    assert (engine.memo.hits, engine.memo.misses) == (1, 1)
    ingester.close()


def test_append_invalidates_only_the_touched_video(tmp_path):
    rng = random.Random(13)
    ingester = initialise(tmp_path, seed_database())
    ingester.add_video("live0", make_segments(4))
    ingester.add_annotations(
        "live0", "P1", random_similarity_list(4, rng=rng)
    )
    ingester.commit()
    engine = RetrievalEngine()
    formula = parse("eventually $P1")
    live = ingester.database.get("live0")
    stale = engine.evaluate_video(formula, live, database=ingester.database)
    ingester.add_annotations(
        "live0", "P1", random_similarity_list(4, rng=rng)
    )
    ingester.commit()
    fresh = engine.evaluate_video(formula, live, database=ingester.database)
    assert (engine.memo.hits, engine.memo.misses) == (0, 2)
    assert fresh == RetrievalEngine().evaluate_video(
        formula, live, database=ingester.database
    )
    ingester.close()


def test_commit_listeners_receive_the_batch(tmp_path):
    batches = []
    ingester = initialise(tmp_path, seed_database())
    ingester.add_listener(batches.append)
    ingester.add_video("live0", make_segments(2))
    ingester.add_video("live1", make_segments(2))
    ingester.commit()
    ingester.append_segments("live0", make_segments(1, seed=4))
    ingester.commit()
    ingester.commit()  # empty commit: no callback payload
    assert batches == [("live0", "live1"), ("live0",)]
    ingester.close()


def test_auto_commit_batches_by_record_count(tmp_path):
    ingester = initialise(tmp_path, seed_database(), fsync=False)
    ingester.auto_commit = 2
    ingester.add_video("live0", make_segments(1))
    assert ingester.pending == 1
    ingester.append_segments("live0", make_segments(1, seed=7))
    assert ingester.pending == 0  # batch boundary hit: fsynced
    ingester.close()
    with pytest.raises(IngestError):
        Ingester(tmp_path, auto_commit=0)


def test_pool_refresh_as_commit_listener(tmp_path):
    ingester = initialise(tmp_path, seed_database())
    pool = EnginePool(ShardedCorpus.from_database(ingester.database), 2)
    pool.warm()
    ingester.add_listener(pool.refresh)
    ingester.add_video("live0", make_segments(3))
    ingester.commit()
    live = ingester.database.get("live0")
    # refresh built the new video's serving-level index eagerly...
    assert live.root._pictures is not None
    system = live.root.pictures_at_level(2)
    assert len(system.segments) == 3
    # The pool's one shard is the ingester's database, not a copy: it
    # ranks and names a video added after the pool was built.
    request = QueryRequest(parse("exists x . present(x)"), k=20)
    ranked = pool.execute(pool.workers[0], request, None)
    assert "live0" in {hit.video for hit in ranked}
    assert ranked == top_k_across_videos(
        RetrievalEngine(), request.formula, ingester.database, 20
    )
    assert "live0" in pool.degraded_result(RuntimeError()).failed_videos
    # ...and an append keeps extending the same warm system.
    ingester.append_segments("live0", make_segments(2, seed=8))
    ingester.commit()
    assert len(live.root.pictures_at_level(2).segments) == 5
    # Refreshing a named subset only touches that subset.
    assert pool.refresh(("live0",)) == 1
    assert pool.refresh() == len(ingester.database)
    ingester.close()


def test_validation_failures_never_reach_the_log(tmp_path):
    ingester = initialise(tmp_path, seed_database())
    before = ingester.last_sequence
    with pytest.raises(IngestError):
        ingester.add_video("seed0", [])  # duplicate name
    with pytest.raises(IngestError):
        ingester.append_segments("ghost", make_segments(1))
    with pytest.raises(IngestError):
        ingester.append_segments("seed0", [])
    assert ingester.last_sequence == before
    assert ingester.pending == 0
    ingester.close()
    # The log replays clean: nothing poisonous was persisted.
    reopened = Ingester(tmp_path)
    assert reopened.recovered.replayed == 0
    reopened.close()


def test_closed_ingester_refuses_mutations(tmp_path):
    ingester = initialise(tmp_path, seed_database())
    ingester.close()
    with pytest.raises(IngestError, match="closed"):
        ingester.add_video("live0", [])


def test_append_indexes_only_the_appended_segments(tmp_path, monkeypatch):
    """A committed append extends the warm picture system in place and
    builds no index.  The first append also rebuilds the content keys of
    the profile ids the index was built with, once; after that an append, its commit and the
    next query compute one content key per appended segment.  The
    extended index is the one a rebuild over the whole sequence gives."""
    database, __, __ = WORKLOADS["sparse"](7, SMOKE, str(tmp_path)).inputs()
    batches = append_batches(random.Random(7), 2, SMOKE.live_batch)
    formula = parse("exists x . present(x) and type(x) = 'person'")
    keyed = []
    builds = []
    content_key = index_module._content_key
    build = index_module.MetadataIndex.__init__

    def counted_key(segment):
        keyed.append(segment)
        return content_key(segment)

    def counted_build(self, segments):
        builds.append(len(segments))
        build(self, segments)

    with initialise(tmp_path / "live", database) as ingester:
        video = ingester.database.get("vid000")
        RetrievalEngine().evaluate_video(formula, video, LEVEL)
        pictures = video.root.pictures_at_level(LEVEL)
        prefix = list(pictures.segments)
        monkeypatch.setattr(index_module, "_content_key", counted_key)
        monkeypatch.setattr(
            index_module.MetadataIndex, "__init__", counted_build
        )
        keyed_per_append = []
        for batch in batches:
            keyed.clear()
            ingester.append_segments("vid000", batch)
            ingester.commit()
            RetrievalEngine().evaluate_video(formula, video, LEVEL)
            keyed_per_append.append(len(keyed))
        monkeypatch.undo()
    first, second = batches
    assert keyed_per_append == [len(prefix) + len(first), len(second)]
    assert builds == []
    assert video.root.pictures_at_level(LEVEL) is pictures
    appended = prefix + first + second
    assert len(video.nodes_at_level(LEVEL)) == len(appended)
    rebuilt = PictureRetrievalSystem(appended)
    assert index_document(pictures.index) == index_document(rebuilt.index)
