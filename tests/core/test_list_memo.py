"""The engine's list memo: hits, misses, evictions, stamps, failures.

Every :class:`~repro.core.engine.RetrievalEngine` memoizes the final
per-video lists it computes (DESIGN.md §6).  The properties pinned here:
a reused engine answers exactly as a fresh one after every kind of
mutation; the counters are exact; a hit still pays its budget step; a
failed evaluation stores nothing; the byte accounting is honest.
``CHAOS_SEED`` (the CI chaos matrix) moves the injected faults.
"""

import gc
import os
import random
import tempfile
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.e2e.workloads import K, LEVEL, SMOKE, WORKLOADS
from repro.core import cache, resilience
from repro.core.cache import ListMemo
from repro.core.engine import RetrievalEngine
from repro.core.resilience import QueryBudget
from repro.core.simlist import SimilarityList
from repro.core.topk import top_k_across_videos
from repro.errors import (
    BudgetExceededError,
    InjectedFaultError,
    SimilarityListInvariantError,
)
from repro.htl import ast, parse
from repro.htl.ast import structural_key
from repro.ingest import initialise
from repro.model.database import VideoDatabase
from repro.model.hierarchy import Video, VideoNode, flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.pictures.signature import resolve_clips
from repro.testing.faults import CORRUPT, RAISE, FaultSpec, inject
from repro.workloads.synthetic import random_similarity_list

from tests.integration.strategies import (
    flat_videos,
    type1_formulas,
    type2_formulas,
)

SEED = int(os.environ.get("CHAOS_SEED", "1997"))

PICTURE_QUERY = "exists x . present(x) and type(x) = 'train'"


def atomic_database(n_videos=3, n_segments=60, seed=11):
    rng = random.Random(seed)
    database = VideoDatabase()
    for position in range(n_videos):
        video = flat_video(
            f"v{position}", [SegmentMetadata() for __ in range(n_segments)]
        )
        database.add(video)
        for name in ("P1", "P2"):
            database.register_atomic(
                name, video.name, random_similarity_list(n_segments, rng=rng)
            )
    return database


def object_segments(n, seed):
    """Segments where a few trains and people come and go."""
    rng = random.Random(seed)
    segments = []
    for __ in range(n):
        objects = []
        if rng.random() < 0.3:
            objects.append(make_object(f"t{rng.randrange(3)}", "train"))
        if rng.random() < 0.3:
            objects.append(make_object("p", "person", height=100))
        segments.append(SegmentMetadata(objects=objects))
    return segments


def object_database(n_videos=3, n_segments=40, seed=3):
    database = VideoDatabase()
    for position in range(n_videos):
        database.add(
            flat_video(
                f"o{position}", object_segments(n_segments, seed + position)
            )
        )
    return database


def ranking(engine, formula, database):
    """Every ranked segment of every video."""
    result = top_k_across_videos(engine, formula, database, 10**6, prune=False)
    return [(hit.video, hit.segment_id, hit.actual) for hit in result]


def assert_reused_equals_fresh(engine, formula, database):
    assert ranking(engine, formula, database) == ranking(
        RetrievalEngine(), formula, database
    )


class TestStructuralKey:
    def test_equal_formulas_share_keys(self):
        assert structural_key(parse("$P1 and eventually $P2")) == (
            structural_key(parse("$P1 and eventually $P2"))
        )

    def test_distinct_formulas_differ(self):
        pairs = [
            ("$P1 and $P2", "$P2 and $P1"),
            ("next $P1", "eventually $P1"),
            ("exists x . present(x)", "exists y . present(y)"),
            ("height(x) > 3", "height(x) > 30"),
        ]
        for left, right in pairs:
            assert structural_key(parse(left)) != structural_key(parse(right))

    def test_key_is_deterministic_string(self):
        key = structural_key(ast.AtomicRef("P1"))
        assert isinstance(key, str)
        assert key == "AtomicRef('P1',)"


class TestMemoCounters:
    def test_repeated_query_hits_the_memo(self):
        database = atomic_database()
        engine = RetrievalEngine()
        formula = parse("$P1 and eventually $P2")
        video = database.get("v0")
        first = engine.evaluate_video(formula, video, database=database)
        assert (engine.memo.hits, engine.memo.misses) == (0, 1)
        second = engine.evaluate_video(formula, video, database=database)
        assert second == first
        assert (engine.memo.hits, engine.memo.misses) == (1, 1)

    def test_memo_holds_final_lists_only(self):
        # No subformula table is memoized: a query's own subformula,
        # asked next, is a miss of its own.
        database = atomic_database()
        engine = RetrievalEngine()
        video = database.get("v0")
        engine.evaluate_video(
            parse("$P1 and eventually $P1"), video, database=database
        )
        engine.evaluate_video(parse("eventually $P1"), video, database=database)
        assert (engine.memo.hits, engine.memo.misses) == (0, 2)
        assert len(engine.memo) == 2

    def test_levels_are_keyed_apart(self):
        database = atomic_database()
        engine = RetrievalEngine()
        video = database.get("v0")
        formula = parse("exists x . present(x)")
        for level in (1, 2, 1, 2):
            assert engine.evaluate_video(
                formula, video, level=level, database=database
            ) == RetrievalEngine().evaluate_video(
                formula, video, level=level, database=database
            )
        assert (engine.memo.hits, engine.memo.misses) == (2, 2)

    def test_fresh_engine_counts_nothing(self):
        memo = RetrievalEngine().memo
        assert (memo.hits, memo.misses, memo.evictions) == (0, 0, 0)
        assert (len(memo), memo.nbytes) == (0, 0)

    def test_hit_is_a_fresh_list_over_shared_columns(self):
        database = atomic_database()
        engine = RetrievalEngine()
        formula = parse("$P1 and eventually $P2")
        video = database.get("v0")
        first = engine.evaluate_video(formula, video, database=database)
        accounted = engine.memo.nbytes
        hit = engine.evaluate_video(formula, video, database=database)
        again = engine.evaluate_video(formula, video, database=database)
        assert hit is not again and hit is not first
        assert hit.begins is again.begins and hit.actuals is again.actuals
        # Building the entry view on a copy leaves the memo as it was.
        assert len(hit.entries) == len(first)
        assert again._view is None
        assert engine.memo.nbytes == accounted

    def test_adhoc_atomic_lists_bypass_the_memo(self):
        database = atomic_database()
        engine = RetrievalEngine()
        lists = {"P9": SimilarityList.from_entries([((1, 2), 1.0)], 4.0)}
        for __ in range(2):
            engine.evaluate_video(
                parse("$P9"),
                database.get("v0"),
                database=database,
                atomic_lists=lists,
            )
        assert (engine.memo.hits, engine.memo.misses, len(engine.memo)) == (
            0,
            0,
            0,
        )

    def test_video_outside_the_database_bypasses_the_memo(self):
        # An equal name is not the same video: only the object the
        # database holds has a stamp.
        database = object_database()
        stranger = flat_video("o0", object_segments(40, seed=99))
        engine = RetrievalEngine()
        formula = parse(PICTURE_QUERY)
        for __ in range(2):
            assert engine.evaluate_video(
                formula, stranger, database=database
            ) == RetrievalEngine().evaluate_video(formula, stranger)
        assert (engine.memo.hits, engine.memo.misses) == (0, 0)


class TestByteBound:
    def test_lru_evicts_the_least_recently_used(self, monkeypatch):
        sim = SimilarityList.from_entries([((1, 1), 1.0)], 2.0)
        probe = ListMemo()
        probe.put(("k0", 2, "v", 1, 0), sim)
        cost = probe.nbytes
        monkeypatch.setattr(cache, "LIST_MEMO_BYTES", 3 * cost)
        memo = ListMemo()
        keys = [(f"k{i}", 2, "v", 1, 0) for i in range(4)]
        for key in keys[:3]:
            memo.put(key, sim)
        assert memo.get(keys[0]) == sim  # k0 is now the most recent
        memo.put(keys[3], sim)
        assert memo.evictions == 1 and memo.nbytes == 3 * cost
        assert memo.get(keys[1]) is None  # k1 was the least recent
        assert all(memo.get(key) == sim for key in (keys[0], keys[2], keys[3]))

    def test_a_list_larger_than_the_bound_is_not_stored(self, monkeypatch):
        runs = SimilarityList.from_entries(
            [((2 * i + 1, 2 * i + 1), 1.0) for i in range(50)], 2.0
        )
        monkeypatch.setattr(cache, "LIST_MEMO_BYTES", 1024)
        memo = ListMemo()
        memo.put(("big", 2, "v", 1, 0), runs)
        assert (len(memo), memo.nbytes, memo.evictions) == (0, 0, 0)

    def test_accounting_is_exact_bookkeeping(self, monkeypatch):
        rng = random.Random(SEED)
        monkeypatch.setattr(cache, "LIST_MEMO_BYTES", 20_000)
        memo = ListMemo()
        for position in range(200):
            sim = random_similarity_list(rng.randrange(1, 120), rng=rng)
            memo.put((f"q{position % 37}", 2, "v", position % 5, 0), sim)
            assert memo.nbytes <= memo.max_bytes
        expected = sum(
            112 * len(entry[0]) + 100 + 250 + len(key[0])
            for key, entry in memo._entries.items()
        )
        assert memo.nbytes == expected

    def test_accounted_bytes_match_what_the_memo_allocates(self):
        """tracemalloc: the memory an entry keeps alive — key, columns,
        numbers and the entry itself — is its accounted size within
        ±25%, for lists the memo alone holds (segment ids past the small
        int cache, fresh floats).  Lists sharing numbers with registered
        lists cost less than they are accounted: the bound errs safe."""
        rng = random.Random(SEED)
        gc.collect()
        tracemalloc.start()
        try:
            memo = ListMemo()
            base = tracemalloc.get_traced_memory()[0]
            for position in range(300):
                begin, pieces = 1000, []
                for __ in range(rng.randrange(0, 40)):
                    begin += rng.randint(1, 5)
                    end = begin + rng.randint(0, 5)
                    pieces.append(((begin, end), rng.uniform(0.5, 9.5)))
                    begin = end
                sim = SimilarityList.from_entries(pieces, 10.0 + position)
                key = structural_key(
                    parse(f"eventually $P{position} and next $Q{position}")
                )
                memo.put((key, 2, f"video{position}", 10**6 + position, 0), sim)
            del sim, pieces, key
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(memo) == 300
        assert 0.75 * memo.nbytes <= retained <= 1.25 * memo.nbytes


#: ``(hits, misses, evictions)`` of the smoke stream, ``prune=False``,
#: on one engine whose memo is bounded at 16 KiB.
SMALL_MEMO_COUNTS = {
    "sparse": (3, 33, 19),
    "dense": (0, 24, 16),
    "temporal": (16, 32, 23),
}


@pytest.mark.parametrize("name", sorted(SMALL_MEMO_COUNTS))
def test_smoke_stream_counts(name, tmp_path, monkeypatch):
    """Seed 7, smoke size, every video evaluated.  With the default
    bound nothing is evicted, so each request's first occurrence misses
    once per video and each repeat hits once per video; under a 16 KiB
    bound the LRU order pins the counts exactly."""
    database, clips, stream = WORKLOADS[name](7, SMOKE, str(tmp_path)).inputs()

    def run(engine):
        for text in stream:
            top_k_across_videos(
                engine,
                resolve_clips(parse(text), clips),
                database,
                K,
                level=LEVEL,
                prune=False,
            )
        return engine.memo

    memo = run(RetrievalEngine())
    distinct = len(set(stream))
    assert memo.misses == distinct * len(database)
    assert memo.hits == (len(stream) - distinct) * len(database)
    assert (memo.evictions, len(memo)) == (0, memo.misses)

    monkeypatch.setattr(cache, "LIST_MEMO_BYTES", 16 * 1024)
    small_memo = run(RetrievalEngine())
    assert (
        small_memo.hits,
        small_memo.misses,
        small_memo.evictions,
    ) == SMALL_MEMO_COUNTS[name]
    assert len(small_memo) == small_memo.misses - small_memo.evictions
    assert small_memo.nbytes <= small_memo.max_bytes


class TestStamps:
    """A stamp names one database state of one video: after each kind of
    mutation a reused engine answers as a fresh one does."""

    def test_add(self):
        database = object_database()
        engine = RetrievalEngine()
        formula = parse(PICTURE_QUERY)
        ranking(engine, formula, database)
        database.add(flat_video("o9", object_segments(40, seed=9)))
        assert_reused_equals_fresh(engine, formula, database)
        assert engine.memo.hits == 3

    def test_replace(self):
        database = object_database()
        engine = RetrievalEngine()
        formula = parse(PICTURE_QUERY)
        ranking(engine, formula, database)
        database.replace(flat_video("o1", object_segments(40, seed=77)))
        assert_reused_equals_fresh(engine, formula, database)
        assert engine.memo.hits == 2

    def test_register_atomic(self):
        database = atomic_database(n_segments=40)
        engine = RetrievalEngine()
        formula = parse("eventually $P1")
        video = database.get("v0")
        stale = engine.evaluate_video(formula, video, database=database)
        replacement = SimilarityList.from_entries([((2, 3), 5.0)], 20.0)
        database.register_atomic("P1", "v0", replacement)
        fresh = engine.evaluate_video(formula, video, database=database)
        assert fresh != stale
        assert fresh == RetrievalEngine().evaluate_video(
            formula, video, database=database
        )
        assert (engine.memo.hits, engine.memo.misses) == (0, 2)

    def test_add_video_leaves_other_videos_warm(self):
        database = atomic_database()
        engine = RetrievalEngine()
        formula = parse("eventually $P1")
        engine.evaluate_video(formula, database.get("v0"), database=database)
        database.add(flat_video("extra", [SegmentMetadata()]))
        engine.evaluate_video(formula, database.get("v0"), database=database)
        assert (engine.memo.hits, engine.memo.misses) == (1, 1)

    def test_touch(self):
        database = object_database()
        engine = RetrievalEngine()
        formula = parse(PICTURE_QUERY)
        ranking(engine, formula, database)
        database.touch("o0")
        assert_reused_equals_fresh(engine, formula, database)
        assert (engine.memo.hits, engine.memo.misses) == (2, 4)

    def test_append_segments(self):
        database = object_database()
        engine = RetrievalEngine()
        formula = parse(PICTURE_QUERY)
        before = ranking(engine, formula, database)
        trains = [
            SegmentMetadata(objects=[make_object("t9", "train")])
        ] * 3
        database.get("o2").append_segments(trains)  # no database call
        after = ranking(engine, formula, database)
        assert after != before
        assert after == ranking(RetrievalEngine(), formula, database)
        assert (engine.memo.hits, engine.memo.misses) == (2, 4)

    def test_add_child_reaching_the_root(self):
        database = VideoDatabase()
        scene = VideoNode(children=[VideoNode(), VideoNode()])
        root = VideoNode(children=[scene, VideoNode(children=[VideoNode()])])
        video = database.add(
            Video("deep", root, {1: "video", 2: "scene", 3: "shot"})
        )
        engine = RetrievalEngine()
        formula = parse("eventually (exists x . type(x) = 'train')")
        before = engine.evaluate_video(formula, video, 3, database)
        scene.add_child(
            VideoNode(SegmentMetadata(objects=[make_object("t", "train")]))
        )
        after = engine.evaluate_video(formula, video, 3, database)
        assert after != before
        assert after == RetrievalEngine().evaluate_video(
            formula, video, 3, database
        )
        assert (engine.memo.hits, engine.memo.misses) == (0, 2)

    def test_invalidate_pictures_on_the_root(self):
        database = object_database()
        engine = RetrievalEngine()
        formula = parse(PICTURE_QUERY)
        before = ranking(engine, formula, database)
        video = database.get("o1")
        for node in video.root.children:
            node.metadata = SegmentMetadata(
                objects=[make_object("t0", "train")]
            )
        video.root.invalidate_pictures()
        after = ranking(engine, formula, database)
        assert after != before
        assert after == ranking(RetrievalEngine(), formula, database)
        assert (engine.memo.hits, engine.memo.misses) == (2, 4)

    def test_invalidate_pictures_below_the_root(self):
        # An in-place edit under one scene, declared on that scene: the
        # level operator reads the scene's own picture system.  The edit
        # retypes an object, so the root's object universe stays right.
        database = VideoDatabase()
        car = SegmentMetadata(objects=[make_object("t", "car")])
        scene = VideoNode(children=[VideoNode(), VideoNode(car)])
        root = VideoNode(children=[scene, VideoNode(children=[VideoNode()])])
        video = database.add(
            Video("deep", root, {1: "video", 2: "scene", 3: "shot"})
        )
        engine = RetrievalEngine()
        formula = parse(
            "at_next_level(eventually (exists x . type(x) = 'train'))"
        )
        before = engine.evaluate_video(formula, video, 2, database)
        scene.children[1].metadata = SegmentMetadata(
            objects=[make_object("t", "train")]
        )
        scene.invalidate_pictures()
        after = engine.evaluate_video(formula, video, 2, database)
        assert after != before
        assert after == RetrievalEngine().evaluate_video(
            formula, video, 2, database
        )
        assert (engine.memo.hits, engine.memo.misses) == (0, 2)

    def test_two_databases_with_the_same_names_and_history(self):
        # Built by the same steps, so a per-database counter would give
        # both videos the same stamp; only the registered lists differ.
        rng = random.Random(SEED)

        def build():
            database = VideoDatabase()
            database.add(flat_video("v", [SegmentMetadata()] * 30))
            database.register_atomic(
                "P1", "v", random_similarity_list(30, rng=rng)
            )
            return database

        first, second = build(), build()
        engine = RetrievalEngine()
        formula = parse("eventually $P1")
        for database in (first, second, first, second):
            assert engine.evaluate_video(
                formula, database.get("v"), database=database
            ) == RetrievalEngine().evaluate_video(
                formula, database.get("v"), database=database
            )
        assert (engine.memo.hits, engine.memo.misses) == (2, 2)


class TestBudget:
    def test_a_deadline_expires_on_a_query_that_only_hits(self):
        database = atomic_database()
        engine = RetrievalEngine()
        formula = parse("$P1 and eventually $P2")
        ranking(engine, formula, database)
        hits = engine.memo.hits
        # The clock passes the deadline during the first memo hit.
        budget = QueryBudget(
            deadline_ms=5.0,
            clock=lambda: 1.0 if engine.memo.hits > hits else 0.0,
        )
        with pytest.raises(BudgetExceededError) as raised:
            top_k_across_videos(engine, formula, database, 10, budget=budget)
        assert raised.value.site == "engine-table"
        assert engine.memo.hits == hits + 1

    def test_a_hit_charges_one_step(self):
        database = atomic_database()
        engine = RetrievalEngine()
        formula = parse("$P1 and eventually $P2")
        video = database.get("v0")
        engine.evaluate_video(formula, video, database=database)
        budget = QueryBudget(max_steps=10)
        with resilience.scope(budget=budget):
            engine.evaluate_video(formula, video, database=database)
        assert budget.steps == 1
        with pytest.raises(BudgetExceededError):
            with resilience.scope(budget=QueryBudget(max_steps=2)):
                for __ in range(3):
                    engine.evaluate_video(formula, video, database=database)


class TestFailures:
    """A failed evaluation stores nothing; the next clean request is a
    correct miss."""

    def test_raise_at_atom_score_stores_nothing(self):
        database = object_database()
        formula = parse(PICTURE_QUERY)
        expected = ranking(RetrievalEngine(), formula, database)
        engine = RetrievalEngine()
        spec = FaultSpec(resilience.SITE_ATOM_SCORE, RAISE, max_faults=1)
        with inject(spec, seed=SEED) as chaos:
            with pytest.raises(InjectedFaultError):
                ranking(engine, formula, database)
        assert chaos.injected
        assert (len(engine.memo), engine.memo.misses) == (0, 1)
        assert ranking(engine, formula, database) == expected
        assert (engine.memo.hits, engine.memo.misses) == (0, 4)

    def test_a_raise_in_a_later_video_keeps_the_finished_ones(self):
        database = object_database()
        formula = parse(PICTURE_QUERY)
        expected = ranking(RetrievalEngine(), formula, database)
        # Clean visits per video, so the fault lands in a seeded video
        # after at least one video finished.
        counter = RetrievalEngine()
        with inject(
            FaultSpec(resilience.SITE_ATOM_SCORE, rate=0.0)
        ) as probe:
            counter.evaluate_video(formula, database.get("o0"), database=database)
        per_video = probe.visits[resilience.SITE_ATOM_SCORE]
        skip = per_video + SEED % per_video
        engine = RetrievalEngine()
        spec = FaultSpec(resilience.SITE_ATOM_SCORE, RAISE, skip=skip)
        with inject(spec, seed=SEED):
            with pytest.raises(InjectedFaultError):
                ranking(engine, formula, database)
        stored = len(engine.memo)
        assert stored >= 1 and stored == engine.memo.misses - 1
        assert ranking(engine, formula, database) == expected
        assert engine.memo.hits == stored

    def test_corrupt_row_outside_a_scope_stores_nothing(self):
        database = object_database()
        formula = parse(PICTURE_QUERY)
        expected = ranking(RetrievalEngine(), formula, database)
        engine = RetrievalEngine()
        spec = FaultSpec(resilience.SITE_ATOM_SCORE, CORRUPT, max_faults=1)
        with inject(spec, seed=SEED) as chaos:
            with pytest.raises(SimilarityListInvariantError):
                ranking(engine, formula, database)
        assert chaos.injected
        assert len(engine.memo) == 0
        assert ranking(engine, formula, database) == expected
        assert (engine.memo.hits, engine.memo.misses) == (0, 4)

    def test_corrupt_row_rebuilt_under_a_scope_stores_the_right_list(self):
        database = object_database()
        formula = parse(PICTURE_QUERY)
        expected = ranking(RetrievalEngine(), formula, database)
        engine = RetrievalEngine()
        spec = FaultSpec(resilience.SITE_ATOM_SCORE, CORRUPT, max_faults=2)
        with resilience.scope(), inject(spec, seed=SEED) as chaos:
            assert ranking(engine, formula, database) == expected
        assert chaos.injected
        assert len(engine.memo) == 3
        # Every stored list is the fault-free one: the repeat is all hits.
        assert ranking(engine, formula, database) == expected
        assert (engine.memo.hits, engine.memo.misses) == (3, 3)

    @pytest.mark.parametrize("lenient", [False, True])
    def test_corrupt_merge_never_becomes_a_lasting_hit(self, lenient):
        # The list-merge site raises nothing inside the engine: the
        # corrupted conjunction is the evaluation's final list, which the
        # engine's own scan keeps out of the memo.
        database = atomic_database()
        formula = parse("$P1 and $P2")
        expected = ranking(RetrievalEngine(), formula, database)
        with inject(
            FaultSpec(resilience.SITE_LIST_MERGE, rate=0.0)
        ) as probe:
            ranking(RetrievalEngine(), formula, database)
        # A video's last visit is the merge of its rows; the ones before
        # it probe the output maximum on empty lists.
        per_video = probe.visits[resilience.SITE_LIST_MERGE] // len(database)
        skip = per_video * (SEED % len(database)) + per_video - 1
        engine = RetrievalEngine()
        spec = FaultSpec(
            resilience.SITE_LIST_MERGE, CORRUPT, max_faults=1, skip=skip
        )
        with inject(spec, seed=SEED) as chaos:
            if lenient:
                result = top_k_across_videos(
                    engine, formula, database, 10**6, prune=False,
                    lenient=True,
                )
                assert len(result.failed_videos) == 1
            else:
                with pytest.raises(SimilarityListInvariantError):
                    ranking(engine, formula, database)
        assert chaos.injected
        stored = len(engine.memo)
        assert ranking(engine, formula, database) == expected
        assert engine.memo.hits == stored
        assert len(engine.memo) == len(database)

    def test_a_corrupted_copy_never_reaches_the_memo(self):
        # The top-k worker site corrupts the list the engine handed out;
        # the ranking loop's validate rejects it, the memo keeps its own.
        database = object_database()
        formula = parse(PICTURE_QUERY)
        expected = ranking(RetrievalEngine(), formula, database)
        engine = RetrievalEngine()
        ranking(engine, formula, database)
        spec = FaultSpec(resilience.SITE_TOPK_WORKER, CORRUPT, max_faults=1)
        with inject(spec, seed=SEED):
            with pytest.raises(SimilarityListInvariantError):
                ranking(engine, formula, database)
        assert ranking(engine, formula, database) == expected
        assert engine.memo.misses == 3


@settings(max_examples=40, deadline=None)
@given(
    video=flat_videos(),
    formula=st.one_of(type1_formulas(), type2_formulas()),
)
def test_memoized_equals_cold_on_random_formulas(video, formula):
    """Property: a memo hit is ``==`` to a cold engine's list."""
    database = VideoDatabase()
    database.add(video)
    cold = RetrievalEngine().evaluate_video(formula, video, database=database)
    warm_engine = RetrievalEngine()
    first = warm_engine.evaluate_video(formula, video, database=database)
    second = warm_engine.evaluate_video(formula, video, database=database)
    assert first == cold
    assert second == cold
    assert warm_engine.memo.hits == 1


QUERIES = (
    PICTURE_QUERY,
    "eventually $P1",
    "$P1 and eventually (exists x . type(x) = 'person')",
)

steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.sampled_from(["o0", "o1"]),
            st.integers(1, 4),
            st.integers(0, 50),
        ),
        st.tuples(st.just("annotate"), st.sampled_from(["o0", "o1"])),
        st.tuples(st.just("commit")),
        st.tuples(st.just("query"), st.sampled_from(QUERIES)),
    ),
    min_size=1,
    max_size=12,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=steps)
def test_interleaved_ingest_and_queries_equal_a_cold_engine(steps):
    """Property: appends, annotations and commits interleaved with
    queries on one long-lived engine answer as a cold engine does."""
    rng = random.Random(SEED)
    with tempfile.TemporaryDirectory() as directory:
        seed = VideoDatabase()
        for name in ("o0", "o1"):
            seed.add(flat_video(name, object_segments(6, seed=len(name))))
            seed.register_atomic(
                "P1", name, random_similarity_list(6, rng=rng)
            )
        ingester = initialise(directory, seed)
        try:
            engine = RetrievalEngine()
            for step in steps + [("query", text) for text in QUERIES]:
                if step[0] == "append":
                    __, name, count, salt = step
                    ingester.append_segments(
                        name, object_segments(count, seed=salt)
                    )
                elif step[0] == "annotate":
                    name = step[1]
                    video = ingester.database.get(name)
                    size = len(video.nodes_at_level(2))
                    ingester.add_annotations(
                        name, "P1", random_similarity_list(size, rng=rng)
                    )
                elif step[0] == "commit":
                    ingester.commit()
                else:
                    formula = parse(step[1])
                    assert_reused_equals_fresh(
                        engine, formula, ingester.database
                    )
        finally:
            ingester.close()


class TestPictureSystemCache:
    def test_cached_per_node_and_level(self):
        video = flat_video(
            "v",
            [SegmentMetadata(objects=[make_object("a", "train")])],
        )
        first = video.root.pictures_at_level(2)
        assert video.root.pictures_at_level(2) is first

    def test_add_child_invalidates_ancestors(self):
        video = flat_video("v", [SegmentMetadata(), SegmentMetadata()])
        system = video.root.pictures_at_level(2)
        video.root.add_child(VideoNode(metadata=SegmentMetadata()))
        assert video.root.pictures_at_level(2) is not system
