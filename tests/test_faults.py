"""Chaos suite: deterministic fault injection against the retrieval stack.

The central property (ISSUE/DESIGN §8): with faults injected at any
single registered site, a multi-video query returns either the exact
fault-free ranking (a fallback absorbed the fault), or a typed error, or
a ``partial=True`` result naming the failed videos — never a silently
wrong ranking.

Seeds are fixed for reproducibility; CI sweeps them via the CHAOS_SEED
environment variable.
"""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import resilience, trace
from repro.core.engine import RetrievalEngine
from repro.core.topk import top_k_across_videos
from repro.errors import (
    InjectedFaultError,
    ReproError,
    SimilarityListInvariantError,
)
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.pictures.retrieval import PictureRetrievalSystem
from repro.pictures.signature import looks_like_atom
from repro.testing.faults import (
    CORRUPT,
    DELAY,
    RAISE,
    SHORT_WRITE,
    FaultInjector,
    FaultSpec,
    corrupt_similarity_list,
    inject,
)
from tests.htl.strategies import picture_atoms
from tests.pictures.test_compiled import segments as drawn_segments

#: Default chaos seeds; override one via CHAOS_SEED for CI sweeps.
SEEDS = [11, 1997, 20260806]
if os.environ.get("CHAOS_SEED"):
    SEEDS = [int(os.environ["CHAOS_SEED"])]

#: Exercises every query-path fault site: metadata atoms (index lookups
#: + scoring), conjunction and eventually (list merges), multi-video
#: (top-k workers).
CHAOS_QUERY = (
    "(exists x . present(x) and type(x) = 'train') "
    "and eventually (exists y . present(y))"
)

#: The chaos property's query shapes, one per temporal combinator plus a
#: variable bound across one (a type-2 query).  Each shape reaches the
#: ``list-merge`` site through a different operator, and every shape
#: visits all four query-path sites (the chaos cases assert it).
CHAOS_QUERIES = {
    "eventually": CHAOS_QUERY,
    "until": (
        "(exists x . present(x) and type(x) = 'person') "
        "until (exists y . present(y) and type(y) = 'train')"
    ),
    "next": (
        "(exists x . present(x) and type(x) = 'train') "
        "and next (exists y . present(y) and type(y) = 'person')"
    ),
    "not": (
        "eventually (exists x . present(x) and type(x) = 'person') "
        "and not (exists y . present(y) and type(y) = 'train')"
    ),
    "type-2": (
        "exists x . (present(x) and type(x) = 'train' "
        "and eventually present(x))"
    ),
}

#: The fault sites a query visits.  The other sites of
#: ``resilience.FAULT_SITES`` sit on the store, shard, serve, ingest and
#: analyzer paths, which have chaos suites of their own.
QUERY_SITES = (
    resilience.SITE_INDEX_LOOKUP,
    resilience.SITE_ATOM_SCORE,
    resilience.SITE_LIST_MERGE,
    resilience.SITE_TOPK_WORKER,
)


def chaos_database(n_videos=4, n_segments=12, seed=5):
    rng = random.Random(seed)
    database = VideoDatabase()
    for position in range(n_videos):
        segments = []
        for index in range(n_segments):
            objects = []
            if rng.random() < 0.45:
                objects.append(make_object(f"t{index}", "train"))
            if rng.random() < 0.35:
                objects.append(make_object(f"p{index}", "person"))
            segments.append(SegmentMetadata(objects=objects))
        # An object-free tail keeps every support under the density
        # cutoff, so the planner keeps the index-driven path the faults
        # target instead of routing the atoms to the naive scan (the
        # chaos cases assert that every site is visited).
        segments.extend(SegmentMetadata() for __ in range(n_segments))
        database.add(flat_video(f"v{position}", segments))
    return database


@pytest.fixture(scope="module")
def corpus():
    return chaos_database()


def fault_free(corpus, text):
    """The fault-free ranking of ``text`` plus a per-segment value oracle."""
    formula = parse(text)
    ranking = top_k_across_videos(
        RetrievalEngine(), formula, corpus, k=6, prune=False
    )
    values = {}
    for video in corpus.videos():
        sim = RetrievalEngine().evaluate_video(
            formula, video, database=corpus
        )
        for segment_id, actual in sim.to_segment_values().items():
            values[(video.name, segment_id)] = actual
    return ranking, values


@pytest.fixture(scope="module")
def baselines(corpus):
    return {
        shape: fault_free(corpus, text)
        for shape, text in CHAOS_QUERIES.items()
    }


@pytest.fixture(scope="module")
def baseline(baselines):
    return baselines["eventually"]


class TestInjectorMechanics:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("warp-core")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultSpec(resilience.SITE_ATOM_SCORE, mode="explode")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(resilience.SITE_ATOM_SCORE, rate=1.5)

    def test_rate_zero_never_fires(self):
        injector = FaultInjector(
            [FaultSpec(resilience.SITE_LIST_MERGE, rate=0.0)], seed=1
        )
        for __ in range(50):
            injector.trip(resilience.SITE_LIST_MERGE)
        assert injector.injected == []
        assert injector.visits[resilience.SITE_LIST_MERGE] == 50

    def test_max_faults_caps_firings(self):
        injector = FaultInjector(
            [FaultSpec(resilience.SITE_LIST_MERGE, max_faults=3)], seed=1
        )
        fired = 0
        for __ in range(10):
            try:
                injector.trip(resilience.SITE_LIST_MERGE)
            except InjectedFaultError:
                fired += 1
        assert fired == 3
        assert injector.faults_at(resilience.SITE_LIST_MERGE) == 3

    def test_sequence_recorded_on_error(self):
        injector = FaultInjector(
            [FaultSpec(resilience.SITE_ATOM_SCORE)], seed=1
        )
        injector.corrupt(resilience.SITE_ATOM_SCORE, "not a list")  # no-op
        with pytest.raises(InjectedFaultError) as excinfo:
            injector.trip(resilience.SITE_ATOM_SCORE)
        assert excinfo.value.site == resilience.SITE_ATOM_SCORE
        assert excinfo.value.sequence == 1

    def test_same_seed_replays_identically(self):
        def run(seed):
            injector = FaultInjector(
                [FaultSpec(resilience.SITE_TOPK_WORKER, rate=0.4)], seed=seed
            )
            outcomes = []
            for __ in range(30):
                try:
                    injector.trip(resilience.SITE_TOPK_WORKER)
                    outcomes.append("ok")
                except InjectedFaultError:
                    outcomes.append("fault")
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)  # and the seed actually matters

    def test_inject_installs_and_restores_hook(self):
        assert resilience._fault_hook is None
        with inject(FaultSpec(resilience.SITE_LIST_MERGE)) as injector:
            assert resilience._fault_hook is injector
            with inject(FaultSpec(resilience.SITE_ATOM_SCORE)) as nested:
                assert resilience._fault_hook is nested
            assert resilience._fault_hook is injector
        assert resilience._fault_hook is None

    def test_injection_counted(self, corpus):
        trace.METRICS.reset()
        injector = FaultInjector(
            [FaultSpec(resilience.SITE_LIST_MERGE, max_faults=1)]
        )
        with pytest.raises(InjectedFaultError):
            injector.trip(resilience.SITE_LIST_MERGE)
        assert trace.METRICS.counters()[trace.FAULT_INJECTED] == 1

    def test_negative_skip_rejected(self):
        with pytest.raises(ValueError, match="skip"):
            FaultSpec(resilience.SITE_STORE_WRITE, skip=-1)

    def test_skip_makes_first_visits_immune(self):
        # skip=3: visits 1..3 pass clean, visit 4 is the first to fire.
        injector = FaultInjector(
            [
                FaultSpec(
                    resilience.SITE_STORE_WRITE, skip=3, max_faults=1
                )
            ],
            seed=1,
        )
        for __ in range(3):
            injector.trip(resilience.SITE_STORE_WRITE)  # must not raise
        with pytest.raises(InjectedFaultError) as excinfo:
            injector.trip(resilience.SITE_STORE_WRITE)
        assert excinfo.value.sequence == 4
        injector.trip(resilience.SITE_STORE_WRITE)  # max_faults=1 spent

    def test_skip_beyond_visit_count_never_fires(self):
        injector = FaultInjector(
            [FaultSpec(resilience.SITE_STORE_WRITE, skip=100)], seed=1
        )
        for __ in range(10):
            injector.trip(resilience.SITE_STORE_WRITE)
        assert injector.injected == []


class TestCorruptor:
    @pytest.mark.parametrize("seed", range(12))
    def test_corrupted_lists_always_fail_validation(self, seed):
        from repro.core.simlist import SimilarityList

        rng = random.Random(seed)
        for sim in (
            SimilarityList.from_entries([((1, 3), 2.0), ((5, 5), 6.0)], 8.0),
            SimilarityList.from_entries([((2, 2), 1.0)], 1.0),
            SimilarityList.empty(4.0),
        ):
            bad = corrupt_similarity_list(sim, rng)
            with pytest.raises(SimilarityListInvariantError):
                bad.validate()

    @pytest.mark.parametrize("seed", range(12))
    def test_corrupted_bytes_always_differ(self, seed):
        from repro.testing.faults import corrupt_bytes

        rng = random.Random(seed)
        for data in (b"", b"\x00", b'{"format": 1}', bytes(range(256))):
            assert corrupt_bytes(data, rng) != data

    def test_injector_corrupts_bytes_at_read_site(self):
        injector = FaultInjector(
            [
                FaultSpec(
                    resilience.SITE_STORE_READ, mode=CORRUPT, max_faults=1
                )
            ],
            seed=9,
        )
        clean = b'{"videos": []}'
        damaged = injector.corrupt(resilience.SITE_STORE_READ, clean)
        assert isinstance(damaged, bytes) and damaged != clean
        # The cap is spent: later reads pass through untouched.
        assert injector.corrupt(resilience.SITE_STORE_READ, clean) == clean


class TestShortWrite:
    """The torn-write mode: a strict prefix, deterministically drawn."""

    @pytest.mark.parametrize("seed", range(8))
    def test_prefix_is_strict_and_deterministic(self, seed):
        data = bytes(range(64))

        def draw():
            injector = FaultInjector(
                [
                    FaultSpec(
                        resilience.SITE_WAL_APPEND,
                        mode=SHORT_WRITE,
                        max_faults=1,
                    )
                ],
                seed=seed,
            )
            return injector.shorten(resilience.SITE_WAL_APPEND, data)

        cut = draw()
        assert cut is not None and len(cut) < len(data)
        assert data.startswith(cut)
        assert cut == draw()  # same seed, same tear

    def test_cap_and_mode_filtering(self):
        data = b"framed record bytes"
        injector = FaultInjector(
            [
                FaultSpec(
                    resilience.SITE_WAL_APPEND,
                    mode=SHORT_WRITE,
                    max_faults=1,
                )
            ],
            seed=3,
        )
        # A raise/delay visit never consumes a short-write spec.
        injector.trip(resilience.SITE_WAL_APPEND)
        assert injector.shorten(resilience.SITE_WAL_APPEND, data) is not None
        # Cap spent: subsequent writes go through whole.
        assert injector.shorten(resilience.SITE_WAL_APPEND, data) is None
        # Empty payloads cannot be torn.
        assert injector.shorten(resilience.SITE_WAL_APPEND, b"") is None

    def test_production_hook_returns_none_without_injector(self):
        assert (
            resilience.fault_short_write(resilience.SITE_WAL_APPEND, b"abc")
            is None
        )


class TestChaosProperty:
    """The acceptance property, swept over shapes × sites × modes × seeds."""

    @pytest.mark.parametrize("shape", CHAOS_QUERIES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode", [RAISE, CORRUPT])
    @pytest.mark.parametrize("site", QUERY_SITES)
    def test_never_a_silently_wrong_ranking(
        self, site, mode, seed, shape, corpus, baselines
    ):
        expected, values = baselines[shape]
        formula = parse(CHAOS_QUERIES[shape])
        spec = FaultSpec(site, mode=mode, rate=0.6, max_faults=5)
        with inject(spec, seed=seed) as chaos:
            try:
                result = top_k_across_videos(
                    RetrievalEngine(), formula, corpus, k=6,
                    prune=False, lenient=True,
                )
            except ReproError:
                result = None  # a typed error is an acceptable outcome
        assert chaos.visits.get(site, 0) > 0, f"{site!r} never visited"
        if result is None:
            return
        if result.partial:
            # Best-effort: the failures are named, and every ranked
            # segment still carries its exact fault-free value.
            assert result.failed_videos
            for outcome in result.outcomes:
                if outcome.degraded:
                    assert outcome.error is not None
            for segment in result:
                assert values[
                    (segment.video, segment.segment_id)
                ] == pytest.approx(segment.actual)
        else:
            # Fallbacks absorbed every fault (or none fired): the ranking
            # must be exactly the fault-free one.
            assert result == expected, (
                f"silently wrong ranking with {len(chaos.injected)} "
                f"faults at {site!r} ({mode})"
            )

    @pytest.mark.parametrize("shape", CHAOS_QUERIES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("site", QUERY_SITES)
    def test_strict_mode_is_exact_or_typed_error(
        self, site, seed, shape, corpus, baselines
    ):
        expected, __ = baselines[shape]
        formula = parse(CHAOS_QUERIES[shape])
        spec = FaultSpec(site, rate=0.6, max_faults=5)
        with inject(spec, seed=seed) as chaos:
            try:
                result = top_k_across_videos(
                    RetrievalEngine(), formula, corpus, k=6, prune=False
                )
            except ReproError:
                result = None
            except Exception as error:  # pragma: no cover - the assertion
                pytest.fail(f"untyped error escaped: {error!r}")
        assert chaos.visits.get(site, 0) > 0, f"{site!r} never visited"
        if result is not None:
            assert result == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_replays_exactly(self, seed, corpus, baseline):
        """A query visits its fault sites in one fixed order, so one seed
        run twice gives the same ranking, ledger and site visits."""
        expected, values = baseline
        formula = parse(CHAOS_QUERY)
        spec = FaultSpec(resilience.SITE_TOPK_WORKER, rate=0.5, max_faults=3)
        runs = []
        for __ in range(2):
            with inject(spec, seed=seed) as chaos:
                result = top_k_across_videos(
                    RetrievalEngine(), formula, corpus, k=6,
                    prune=False, lenient=True,
                )
            runs.append(
                (result.to_payload(), dict(chaos.visits), chaos.injected)
            )
        assert runs[0] == runs[1]
        if result.partial:
            assert result.failed_videos
            for segment in result:
                assert values[
                    (segment.video, segment.segment_id)
                ] == pytest.approx(segment.actual)
        else:
            assert result == expected


class TestCorruptionBoundary:
    """Lists are checked where they enter the list algebra, as shipped:
    each atom-table row and each final per-video list."""

    def test_corruption_caught_at_topk_boundary(self, corpus):
        # A corrupted worker list is caught by the trust-boundary
        # validate() before it reaches the query heap.
        formula = parse(CHAOS_QUERY)
        with inject(
            FaultSpec(resilience.SITE_TOPK_WORKER, mode=CORRUPT, max_faults=1),
            seed=2,
        ):
            result = top_k_across_videos(
                RetrievalEngine(), formula, corpus, k=6,
                prune=False, lenient=True,
            )
        assert result.partial
        assert len(result.failed_videos) == 1
        failed = result.outcome_for(result.failed_videos[0])
        assert isinstance(failed.error, SimilarityListInvariantError)

    def test_corruption_raises_at_topk_boundary_outside_a_scope(self, corpus):
        assert resilience.current() is None
        with inject(
            FaultSpec(resilience.SITE_TOPK_WORKER, mode=CORRUPT, max_faults=1),
            seed=2,
        ):
            with pytest.raises(SimilarityListInvariantError):
                top_k_across_videos(
                    RetrievalEngine(), parse(CHAOS_QUERY), corpus, k=6,
                    prune=False,
                )

    #: Seeds and shapes where a corrupted atom row, left unchecked,
    #: merges into a valid-looking but wrong ranking.
    ATOM_ROW_CASES = [(20260806, "eventually"), (1997, "type-2")]

    @staticmethod
    def atom_row_corruption():
        return FaultSpec(
            resilience.SITE_ATOM_SCORE, mode=CORRUPT, rate=0.6, max_faults=5
        )

    @pytest.mark.parametrize("seed, shape", ATOM_ROW_CASES)
    def test_corrupt_atom_rows_are_rebuilt_naively(
        self, seed, shape, corpus, baselines
    ):
        expected, __ = baselines[shape]
        trace.METRICS.reset()
        with inject(self.atom_row_corruption(), seed=seed) as chaos:
            result = top_k_across_videos(
                RetrievalEngine(), parse(CHAOS_QUERIES[shape]), corpus,
                k=6, prune=False, lenient=True,
            )
        assert chaos.injected
        assert not result.partial
        assert result == expected
        assert trace.METRICS.counters().get(trace.ATOM_FALLBACK, 0) > 0

    @pytest.mark.parametrize("seed, shape", ATOM_ROW_CASES)
    def test_corrupt_atom_rows_raise_outside_a_scope(
        self, seed, shape, corpus
    ):
        assert resilience.current() is None
        with inject(self.atom_row_corruption(), seed=seed):
            with pytest.raises(SimilarityListInvariantError):
                top_k_across_videos(
                    RetrievalEngine(), parse(CHAOS_QUERIES[shape]), corpus,
                    k=6, prune=False,
                )


class TestRecoveryPaths:
    def test_index_faults_recover_through_naive_atoms(self, corpus):
        trace.METRICS.reset()
        formula = parse(CHAOS_QUERY)
        video = next(iter(corpus.videos()))
        fault_free = RetrievalEngine().evaluate_video(
            formula, video, database=corpus
        )
        with resilience.scope():
            with inject(FaultSpec(resilience.SITE_INDEX_LOOKUP), seed=3):
                recovered = RetrievalEngine().evaluate_video(
                    formula, video, database=corpus
                )
        assert recovered == fault_free
        assert trace.METRICS.counters().get(trace.ATOM_FALLBACK, 0) > 0

    @pytest.mark.parametrize(
        "site", [resilience.SITE_ATOM_SCORE, resilience.SITE_INDEX_LOOKUP]
    )
    def test_open_atom_falls_back_to_the_naive_table(self, corpus, site):
        """The per-atom fallback rebuilds the binding iterator the failed
        sweep consumed: an open atom gets every row back, counted once."""
        video = next(iter(corpus.videos()))
        pictures = PictureRetrievalSystem(
            [node.metadata for node in video.nodes_at_level(2)]
        )
        atom = parse("present(x)")
        naive = pictures.similarity_table(atom, use_index=False)
        assert len(naive.rows) > 1
        trace.METRICS.reset()
        with resilience.scope():
            with inject(FaultSpec(site, max_faults=1)) as chaos:
                with trace.recording() as recorder:
                    recovered = pictures.similarity_table(atom)
        assert chaos.injected
        assert recovered.object_vars == naive.object_vars
        assert recovered.rows == naive.rows
        assert recovered.maximum == naive.maximum
        (sweep,) = recorder.roots
        assert sweep.kind == trace.KIND_ATOM_SWEEP
        assert sweep.attrs["path"] == "naive-fallback"
        assert trace.METRICS.counters().get(trace.ATOM_FALLBACK, 0) == 1

    @pytest.mark.parametrize("mode", [RAISE, CORRUPT])
    @pytest.mark.parametrize(
        "site", [resilience.SITE_INDEX_LOOKUP, resilience.SITE_ATOM_SCORE]
    )
    @given(
        atom=picture_atoms(),
        drawn=st.lists(drawn_segments(), max_size=5),
        max_faults=st.integers(1, 3),
        seed=st.sampled_from(SEEDS),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_faulted_indexed_table_is_the_naive_table(
        self, site, mode, atom, drawn, max_faults, seed
    ):
        """The one degraded path: under a resilience scope, whatever a
        fault does to the indexed build, the table handed out is the naive
        scan's, row for row — or both paths raise the same typed error.
        An empty tail longer than the drawn prefix keeps every bounded
        support under the density cutoff, so the indexed path runs.
        ``index-lookup`` passes no value, so CORRUPT there never fires and
        the row checks the fault-free indexed table instead."""
        pictures = PictureRetrievalSystem(
            drawn + [SegmentMetadata() for __ in range(len(drawn) + 1)]
        )

        def table_or_error(**options):
            try:
                table = pictures.similarity_table(atom, **options)
            except ReproError as error:
                return type(error)
            return table.object_vars, table.attr_vars, table.rows

        naive = table_or_error(use_index=False)
        spec = FaultSpec(site, mode=mode, max_faults=max_faults)
        with resilience.scope(), inject(spec, seed=seed):
            assert table_or_error() == naive

    def test_atom_score_site_fires_per_scored_segment_with_a_warm_scorer(
        self,
    ):
        """The clip scorer memoises below ``score()``: the second video
        finds every signature already scored on the shared atom, and the
        ``atom-score`` site is still visited once per scored segment —
        and still fires there."""
        signatures = [(3.0, 1.0, 1.0), (1.0, 2.0, 3.0), (1.0, 1.0, 1.0)]
        # 9 signed of 19 segments: under the density cutoff, so swept.
        segments = [
            SegmentMetadata(signature=signatures[index % 3])
            for index in range(9)
        ] + [SegmentMetadata() for __ in range(10)]
        atom = looks_like_atom([signatures[0]], 0.9)

        def visits_of(system):
            # One visit per baseline, per scored segment, per emitted job.
            stats = system.stats
            return (
                stats.baseline_scores + stats.segments_scored + stats.bindings
            )

        systems = [PictureRetrievalSystem(segments) for __ in range(2)]
        with inject(
            FaultSpec(resilience.SITE_ATOM_SCORE, rate=0.0)
        ) as injector:
            lists = [system.similarity_list(atom) for system in systems]
        assert lists[0] == lists[1]
        assert [system.stats.segments_scored for system in systems] == [3, 3]
        assert injector.visits[resilience.SITE_ATOM_SCORE] == sum(
            visits_of(system) for system in systems
        )
        # Warm atom, fresh system: the first scored segment still trips.
        warm = PictureRetrievalSystem(segments)
        with inject(
            FaultSpec(resilience.SITE_ATOM_SCORE, skip=1, max_faults=1)
        ):
            with pytest.raises(InjectedFaultError):
                warm.similarity_list(atom)

    def test_delay_faults_blow_the_deadline(self, corpus):
        formula = parse(CHAOS_QUERY)
        with inject(
            FaultSpec(
                resilience.SITE_ATOM_SCORE, mode=DELAY, delay_ms=30,
                max_faults=4,
            ),
            seed=4,
        ):
            result = top_k_across_videos(
                RetrievalEngine(), formula, corpus, k=6,
                budget=resilience.QueryBudget(deadline_ms=5),
                lenient=True,
            )
        assert result.partial
        assert result.failed_videos  # at least one video timed out
