"""Crash-recovery sweep for streaming ingestion (DESIGN.md §15).

The invariant, swept deterministically: with a single fault injected at
*any* boundary of the ingest protocol — any WAL append (including a
genuinely torn short write), any commit fsync, any marker or snapshot
write of a checkpoint — a subsequent :func:`recover`
reconstructs **exactly the committed prefix**: the database documents
equal a rebuild-from-scratch oracle that applied only the operations
whose commit succeeded, and query rankings match that oracle exactly.

The sweep aims one fault at the k-th visit of a site via
``FaultSpec(skip=k, max_faults=1)`` and walks k until a run completes
with no fault fired, so every visit of every site gets its own crash
test.  RAISE faults are seed-independent (rate 1.0); SHORT_WRITE draws
its torn-prefix length from the seed, which CI sweeps via CHAOS_SEED.
"""

import os
import random

import pytest

from repro.core import resilience
from repro.core.engine import RetrievalEngine
from repro.errors import IngestError, ReproError
from repro.htl import parse
from repro.ingest import initialise, ops, recover
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.model.serialize import database_to_dict
from repro.testing.faults import RAISE, SHORT_WRITE, FaultSpec, inject
from repro.workloads.synthetic import random_similarity_list

#: Default chaos seeds; override one via CHAOS_SEED for CI sweeps.
SEEDS = [11, 1997, 20260806]
if os.environ.get("CHAOS_SEED"):
    SEEDS = [int(os.environ["CHAOS_SEED"])]

#: Sweep guard: no site in the scenario is visited anywhere near this
#: often; hitting it means the "no fault fired" exit never happened.
MAX_STEPS = 48

QUERIES = [("P1", "eventually $P1"), ("P2", "$P2")]


def make_segments(n, seed):
    rng = random.Random(seed)
    segments = []
    for index in range(n):
        objects = [make_object(f"o{index % 2}", "train")]
        if rng.random() < 0.5:
            objects.append(make_object("p", "person"))
        segments.append(SegmentMetadata(objects=objects))
    return segments


def seed_database():
    rng = random.Random(3)
    database = VideoDatabase()
    database.add(flat_video("seed0", make_segments(4, seed=1)))
    database.register_atomic(
        "P1", "seed0", random_similarity_list(4, rng=rng)
    )
    return database


def scripted_ops():
    """The scenario: two videos, appends, annotations — deterministic."""
    rng = random.Random(97)
    return [
        ops.AddVideo(name="s0", segments=tuple(make_segments(3, seed=2))),
        ops.AppendSegments(video="s0", segments=tuple(make_segments(2, 4))),
        ops.AddAnnotations(
            video="s0", predicate="P2", sim=random_similarity_list(5, rng=rng)
        ),
        ops.AppendSegments(video="s0", segments=tuple(make_segments(1, 5))),
        ops.AddVideo(name="s1", segments=tuple(make_segments(2, seed=6))),
        ops.AddAnnotations(
            video="s1", predicate="P2", sim=random_similarity_list(2, rng=rng)
        ),
    ]


#: The script interleaves ops with durability and checkpoint boundaries.
#: Each "commit" advances the oracle's committed prefix; checkpoints are
#: pure representation changes (state must be identical across them).
SCRIPT = [
    ("op", 0),
    ("op", 1),
    ("commit",),
    ("op", 2),
    ("commit",),
    ("checkpoint",),
    ("op", 3),
    ("op", 4),
    ("commit",),
    ("checkpoint",),
    ("op", 5),
    ("commit",),
]


def oracle_database(n_committed_ops):
    """Rebuild from scratch: the seed corpus plus the committed prefix."""
    database = seed_database()
    for op in scripted_ops()[:n_committed_ops]:
        ops.apply(op, database)
    return database


def run_script(root):
    """Drive the scenario until it finishes or a fault 'crashes' it.

    The ingest directory must already be initialised (the base-snapshot
    save shares the store's fault sites, and its crash-safety is the
    store suite's property, not this one's).  Returns
    ``(committed, faulted)`` — the count of ops whose commit succeeded,
    and whether an injected fault fired.
    """
    from repro.ingest import Ingester

    script_ops = scripted_ops()
    ingester = Ingester(root)
    applied = 0
    committed = 0
    try:
        for step in SCRIPT:
            if step[0] == "op":
                ingester.submit(script_ops[step[1]])
                applied += 1
            elif step[0] == "commit":
                ingester.commit()
                committed = applied
            else:
                # Ops were committed by the preceding commit step, so a
                # checkpoint crash never moves the committed prefix.
                ingester.checkpoint()
        return committed, False
    except ReproError:
        return committed, True
    finally:
        ingester._wal.close()


def assert_recovers_exactly_the_committed_prefix(root, committed):
    state = recover(root)
    try:
        oracle = oracle_database(committed)
        assert database_to_dict(state.database) == database_to_dict(
            oracle
        ), f"recovered state diverges from the {committed}-op oracle"
        # Ranking identity, byte for byte, on every video both hold.
        for atom, text in QUERIES:
            formula = parse(text)
            for video in oracle.videos():
                if oracle.atomic_list(atom, video.name) is None:
                    continue
                got = RetrievalEngine().evaluate_video(
                    formula,
                    state.database.get(video.name),
                    database=state.database,
                )
                expected = RetrievalEngine().evaluate_video(
                    formula, video, database=oracle
                )
                assert got == expected, (
                    f"query {text!r} on {video.name!r} ranks differently "
                    "after recovery"
                )
        for path in state.quarantined:
            assert os.path.exists(path), f"quarantined bytes vanished: {path}"
    finally:
        state.wal.close()


CRASH_SITES = [
    (resilience.SITE_WAL_APPEND, RAISE),
    (resilience.SITE_WAL_APPEND, SHORT_WRITE),
    (resilience.SITE_WAL_FSYNC, RAISE),
    # The marker and snapshot writes all route through the store's
    # atomic-write protocol; faulting it crashes commit and checkpoint
    # at their inner write steps, the snapshot's manifest replace (the
    # checkpoint's commit point) included.
    (resilience.SITE_STORE_WRITE, RAISE),
    (resilience.SITE_STORE_FSYNC, RAISE),
]


def _sweep(tmp_path, site, mode, seed):
    completed_clean = False
    for step in range(MAX_STEPS):
        root = tmp_path / f"step-{step}"
        initialise(root, seed_database()).close()
        spec = FaultSpec(site, mode=mode, max_faults=1, skip=step)
        with inject(spec, seed=seed):
            committed, faulted = run_script(root)
        assert_recovers_exactly_the_committed_prefix(root, committed)
        if not faulted:
            # The fault window walked past the last visit: the clean
            # run must have committed every op.
            assert committed == len(scripted_ops())
            completed_clean = True
            break
    assert completed_clean, (
        f"sweep at {site} never ran fault-free within {MAX_STEPS} steps"
    )


@pytest.mark.parametrize("site,mode", CRASH_SITES[:1] + CRASH_SITES[2:])
def test_crash_at_every_boundary_recovers_committed_prefix(
    tmp_path, site, mode
):
    """RAISE faults are deterministic: one seed covers the sweep."""
    _sweep(tmp_path, site, mode, seed=SEEDS[0])


@pytest.mark.parametrize("seed", SEEDS)
def test_torn_short_writes_recover_committed_prefix(tmp_path, seed):
    """SHORT_WRITE leaves real truncated records; the torn length is
    seed-drawn, so this sweep runs per seed."""
    _sweep(tmp_path, resilience.SITE_WAL_APPEND, SHORT_WRITE, seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_double_crash_then_recovery_converges(tmp_path, seed):
    """Crash the script, then crash recovery itself mid-replay; the next
    recovery still reconstructs the committed prefix exactly."""
    initialise(tmp_path, seed_database()).close()
    spec = FaultSpec(
        resilience.SITE_WAL_FSYNC, mode=RAISE, max_faults=1, skip=1
    )
    with inject(spec, seed=seed):
        committed, faulted = run_script(tmp_path)
    assert faulted
    replay_crash = FaultSpec(
        resilience.SITE_WAL_REPLAY, mode=RAISE, max_faults=1, skip=1
    )
    with inject(replay_crash, seed=seed):
        try:
            state = recover(tmp_path)
            state.wal.close()
        except ReproError:
            pass
    assert_recovers_exactly_the_committed_prefix(tmp_path, committed)


def test_clean_run_equals_full_oracle(tmp_path):
    initialise(tmp_path, seed_database()).close()
    committed, faulted = run_script(tmp_path)
    assert not faulted and committed == len(scripted_ops())
    assert_recovers_exactly_the_committed_prefix(tmp_path, committed)


def test_ingester_is_poisoned_after_crash_until_recovery(tmp_path):
    """After a mid-append fault the live ingester refuses further work;
    reopening (= recovery) restores service at the committed prefix."""
    from repro.ingest import Ingester

    ingester = initialise(tmp_path, seed_database())
    ingester.add_video("s0", make_segments(2, seed=2))
    ingester.commit()
    spec = FaultSpec(
        resilience.SITE_WAL_APPEND, mode=RAISE, max_faults=1
    )
    with inject(spec, seed=SEEDS[0]):
        with pytest.raises(ReproError):
            ingester.append_segments("s0", make_segments(1, seed=3))
    with pytest.raises(IngestError, match="recovered"):
        ingester.append_segments("s0", make_segments(1, seed=3))
    ingester._wal.close()
    reopened = Ingester(tmp_path)
    assert len(reopened.database.get("s0").nodes_at_level(2)) == 2
    reopened.append_segments("s0", make_segments(1, seed=3))
    reopened.close()
