"""Model-checked ingest directory (DESIGN.md §15).

A hypothesis ``RuleBasedStateMachine`` interleaves every way an ingest
directory changes — add-video, append-segments, annotate, commit,
checkpoint, crash (immediately, or at an armed fault site), recover /
reopen, damage to the newest snapshot and an offline ``Store.repair`` of
the base — and checks the directory
against an in-memory oracle: a :class:`VideoDatabase` rebuilt from
scratch by :func:`repro.ingest.ops.apply` over the committed prefix.

Invariants:

* recovery reconstructs exactly the oracle's ``database_to_dict``, or
  raises a typed :class:`~repro.errors.ReproError` — and only after the
  directory was damaged; never a different state;
* the newest committed WAL sequence never rewinds across reopenings;
* every path recovery names as quarantined exists, for the rest of the
  run;
* the live ingester's warm rankings equal a cold rebuild's;
* every index the appends maintain — over a restored index too —
  serialises to the bytes a rebuild from its segments writes.

A crash arms one RAISE or SHORT_WRITE fault at a drawn site for the
next mutating call that reaches it; the short-write length is drawn
from the chaos seed, which CI sweeps via ``CHAOS_SEED``.
"""

import json
import os
import random
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import resilience
from repro.core.engine import RetrievalEngine
from repro.errors import ReproError
from repro.htl import parse
from repro.ingest import Ingester, initialise, ops
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.model.serialize import database_to_dict
from repro.pictures.index import MetadataIndex
from repro.store import Store
from repro.testing.faults import RAISE, SHORT_WRITE, FaultSpec, inject
from repro.workloads.synthetic import random_similarity_list
from tests.pictures.index_document import index_document

#: Default chaos seeds; override one via CHAOS_SEED for CI sweeps.
SEEDS = [11, 1997, 20260806]
if os.environ.get("CHAOS_SEED"):
    SEEDS = [int(os.environ["CHAOS_SEED"])]

CRASH_SITES = [
    (resilience.SITE_WAL_APPEND, RAISE),
    (resilience.SITE_WAL_APPEND, SHORT_WRITE),
    (resilience.SITE_WAL_FSYNC, RAISE),
    (resilience.SITE_STORE_WRITE, RAISE),
    (resilience.SITE_STORE_FSYNC, RAISE),
]

SNAPSHOT_FILES = ["videos.json", "atomics.json", "snapshot.json"]

#: ``$P1`` / ``eventually $P1`` read registered lists; the picture query
#: reads the incrementally maintained (or freshly built) metadata index.
ATOM_QUERIES = [parse("$P1"), parse("eventually $P1")]
PICTURE_QUERY = parse("exists x . (present(x) and type(x) = 'person')")

SETTINGS = settings(
    max_examples=40,
    stateful_step_count=30,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def make_segments(n, seed_value):
    rng = random.Random(seed_value)
    segments = []
    for index in range(n):
        objects = [make_object(f"o{index % 2}", "train")]
        if rng.random() < 0.5:
            objects.append(make_object("p", "person"))
        segments.append(SegmentMetadata(objects=objects))
    return segments


def seed_database():
    database = VideoDatabase()
    database.add(flat_video("seed0", make_segments(4, 1)))
    database.register_atomic(
        "P1", "seed0", random_similarity_list(4, rng=random.Random(3))
    )
    return database


def rankings(database):
    engine = RetrievalEngine()
    found = {}
    for video in database.videos():
        formulas = [PICTURE_QUERY]
        if database.atomic_list("P1", video.name) is not None:
            formulas += ATOM_QUERIES
        for formula in formulas:
            found[(video.name, str(formula))] = engine.evaluate_video(
                formula, video, database=database
            )
    return found


class IngestDirectory(RuleBasedStateMachine):
    chaos_seed = SEEDS[0]

    def __init__(self):
        super().__init__()
        self.scratch = tempfile.mkdtemp(prefix="ingest-model-")
        self.directories = 0
        self.videos = 0
        #: every quarantine path recovery has named so far
        self.quarantined = set()
        self.ingester = None
        self._fresh_directory()

    def teardown(self):
        if self.ingester is not None:
            self.ingester._wal.close()
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- bookkeeping -----------------------------------------------------
    def _fresh_directory(self):
        self.directories += 1
        self.root = os.path.join(self.scratch, f"dir-{self.directories}")
        self.ingester = initialise(self.root, seed_database())
        self.committed = []
        #: ``(sequence, op)`` appended since the last commit
        self.pending = []
        #: sequence of the newest committed record
        self.high_water = 0
        self.armed = None
        self.damaged = False

    def _oracle(self, with_pending=False):
        database = seed_database()
        visible = self.committed + (
            [op for __, op in self.pending] if with_pending else []
        )
        for op in visible:
            ops.apply(op, database)
        return database

    def _commit_pending(self):
        if self.pending:
            self.committed.extend(op for __, op in self.pending)
            self.high_water = self.pending[-1][0]
            self.pending = []

    def _crash(self):
        """Abandon the ingester as a dying process would: no commit.

        A fault that fired after the batch's commit landed (inside a
        checkpoint, past its commit step) leaves nothing pending; those
        records are durable and join the oracle."""
        if self.ingester.pending == 0:
            self._commit_pending()
        self.ingester._wal.close()
        self.ingester = None
        self.pending = []

    def _mutate(self, action):
        """Run one mutating call under the armed fault, if any.

        A fault stays armed until a call reaches its site.  Returns
        ``(True, result)``, or ``(False, None)`` after the fault fired
        and crashed the ingester."""
        if self.armed is None:
            return True, action(self.ingester)
        with inject(self.armed, seed=self.chaos_seed) as chaos:
            try:
                return True, action(self.ingester)
            except ReproError:
                if not chaos.injected:
                    raise
            finally:
                if chaos.injected:
                    self.armed = None
        self._crash()
        return False, None

    def _submit(self, op):
        ok, sequence = self._mutate(lambda ingester: ingester.submit(op))
        if ok:
            self.pending.append((sequence, op))

    def _video(self, index):
        names = self.ingester.database.names()
        return names[index % len(names)]

    # -- rules -----------------------------------------------------------
    @precondition(lambda self: self.ingester is not None)
    @rule(n=st.integers(1, 3), segments_seed=st.integers(0, 999))
    def add_video(self, n, segments_seed):
        self.videos += 1
        self._submit(
            ops.AddVideo(
                name=f"v{self.videos}",
                segments=tuple(make_segments(n, segments_seed)),
            )
        )

    @precondition(lambda self: self.ingester is not None)
    @rule(
        index=st.integers(0, 9),
        n=st.integers(1, 3),
        segments_seed=st.integers(0, 999),
    )
    def append_segments(self, index, n, segments_seed):
        self._submit(
            ops.AppendSegments(
                video=self._video(index),
                segments=tuple(make_segments(n, segments_seed)),
            )
        )

    @precondition(lambda self: self.ingester is not None)
    @rule(
        index=st.integers(0, 9),
        predicate=st.sampled_from(["P1", "P2"]),
        list_seed=st.integers(0, 999),
    )
    def annotate(self, index, predicate, list_seed):
        name = self._video(index)
        n_segments = len(self.ingester.database.get(name).nodes_at_level(2))
        self._submit(
            ops.AddAnnotations(
                video=name,
                predicate=predicate,
                sim=random_similarity_list(
                    n_segments, rng=random.Random(list_seed)
                ),
            )
        )

    @precondition(lambda self: self.ingester is not None)
    @rule()
    def commit(self):
        ok, __ = self._mutate(lambda ingester: ingester.commit())
        if ok:
            self._commit_pending()

    @precondition(lambda self: self.ingester is not None)
    @rule()
    def checkpoint(self):
        ok, __ = self._mutate(lambda ingester: ingester.checkpoint())
        if ok:
            self._commit_pending()

    @precondition(
        lambda self: self.ingester is not None and self.armed is None
    )
    @rule(
        fault=st.none()
        | st.tuples(st.sampled_from(CRASH_SITES), st.integers(0, 2))
    )
    def crash(self, fault):
        """Die now, or arm a fault for the next call that reaches its site."""
        if fault is None:
            self._crash()
            return
        (site, mode), skip = fault
        self.armed = FaultSpec(site, mode=mode, max_faults=1, skip=skip)

    @precondition(lambda self: self.ingester is None)
    @rule(artifact=st.sampled_from(SNAPSHOT_FILES))
    def damage_newest_snapshot(self, artifact):
        """Truncate one artifact of the snapshot the store calls current."""
        base = os.path.join(self.root, "base")
        with open(os.path.join(base, "MANIFEST.json"), encoding="utf-8") as f:
            current = json.load(f)["current"]
        if current is None:  # repair left no snapshot
            return
        path = os.path.join(base, "snapshots", current, artifact)
        if not os.path.exists(path):
            return
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        self.damaged = True

    @precondition(lambda self: self.ingester is None)
    @rule()
    def repair_base(self):
        """Repair the closed directory's base store, as an operator would."""
        store = Store(os.path.join(self.root, "base"))
        outcome = store.repair()
        self.quarantined.update(
            action.quarantined_to
            for action in outcome.actions
            if action.quarantined_to
        )
        assert store.verify().ok, "repair left the base store damaged"

    @rule(clean=st.booleans())
    def reopen(self, clean):
        """Recover the directory (a clean close first commits)."""
        self.armed = None
        if self.ingester is not None:
            if clean:
                self.ingester.close()
                self._commit_pending()
            self._crash()
        try:
            self.ingester = Ingester(self.root)
        except ReproError as error:
            assert self.damaged, (
                f"recovery of an undamaged directory raised {error!r}"
            )
            self.quarantined.update(getattr(error, "quarantined", ()))
            self._fresh_directory()
            return
        self.quarantined.update(self.ingester.recovered.quarantined)
        assert database_to_dict(self.ingester.database) == database_to_dict(
            self._oracle()
        ), "recovered state diverges from the committed prefix"
        assert self.ingester.last_sequence == self.high_water, (
            f"WAL resumed at sequence {self.ingester.last_sequence}, the "
            f"newest committed record is {self.high_water}"
        )

    # -- invariants ------------------------------------------------------
    @invariant()
    def quarantined_bytes_are_never_deleted(self):
        for path in self.quarantined:
            assert os.path.exists(path), f"quarantined bytes vanished: {path}"

    @invariant()
    def warm_rankings_equal_a_cold_rebuild(self):
        if self.ingester is None:
            return
        assert rankings(self.ingester.database) == rankings(
            self._oracle(with_pending=True)
        )

    @invariant()
    def appended_indexes_equal_a_rebuild(self):
        if self.ingester is None:
            return
        for video in self.ingester.database.videos():
            system = video.root.pictures_at_level(min(2, video.n_levels))
            assert index_document(system.index) == index_document(
                MetadataIndex(system.segments)
            ), f"the appended index of {video.name!r} is not a rebuild's"


@pytest.mark.parametrize("chaos_seed", SEEDS)
def test_ingest_directory_model(chaos_seed):
    machine = type(
        f"IngestDirectory{chaos_seed}",
        (IngestDirectory,),
        {"chaos_seed": chaos_seed},
    )
    run_state_machine_as_test(seed(chaos_seed)(machine), settings=SETTINGS)
