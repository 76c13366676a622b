"""Seeded corpus generators: the only inputs the program ever sees.

Every generator takes a ``random.Random`` and sizes; the same seed gives
the same corpus, object for object.  Generation time is excluded from
every metric (it is the benchmark's work, not the system's).

Three shapes, one per regime the retrieval stack behaves differently on
(see ``README.md`` for why each exists):

* :func:`sparse_corpus` — few objects per segment, a rare type confined
  to two videos, recurring shot signatures: postings are short, the
  planner has skew to exploit and the fingerprint memo collapses most
  segments.
* :func:`dense_corpus` — every object in half the segments, every
  signature distinct: the support analysis demotes to a direct sweep
  and the per-segment scorers do all the work.
* :func:`temporal_corpus` — empty metadata plus registered ``P1..P4``
  similarity lists (paper §4.2): only list algebra and top-k run.  The
  lists' largest values are pinned so that which videos top-k prunes
  does not depend on the seed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.core.simlist import SimilarityList
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import Relationship, SegmentMetadata, make_object
from repro.workloads.synthetic import random_similarity_list

Signature = Tuple[float, ...]
Clips = Dict[str, Tuple[Signature, ...]]

N_BINS = 16
#: Windows in the ``probe`` query clip: one stored signature (guaranteed
#: hits where it recurs) plus fresh windows that miss nearly everything.
N_WINDOWS = 4
HEIGHTS = (50, 100, 300)
CONFIDENCES = (1.0, 0.5)
#: Of every ten object appearances, this many hold a gun (a period
#: coprime to the height cycle, so every height occurs with and without).
GUNS_IN_TEN = 3

#: Object types by position.  ``person`` exists only in the person-rich
#: videos — the skew the planner's statistics can see and structural
#: costs cannot.
RICH_TYPES = ("plane", "person", "car", "person", "plane", "car")
POOR_TYPES = ("plane", "car", "car", "plane", "plane", "car")

#: The registered predicates of the temporal corpus.
TEMPORAL_PREDICATES = ("P1", "P2", "P3", "P4")
#: How far apart the largest list values of consecutive videos are, and
#: the weak video's share of the scale (see :func:`temporal_corpus`).
TOP_STEP = 0.5
WEAK_SHARE = 0.25


def random_signature(rng: random.Random) -> Signature:
    """A normalised colour-histogram-like vector with a few heavy bins."""
    weights = [rng.random() ** 2 for __ in range(N_BINS)]
    total = sum(weights)
    return tuple(weight / total for weight in weights)


def annotated_segments(
    rng: random.Random,
    n_segments: int,
    density: float,
    types: Sequence[str],
    signatures: Sequence[Signature],
) -> List[SegmentMetadata]:
    """One video's segments: each object in ``density`` of them.

    ``signatures`` gives segment ``i`` the signature at ``i`` — callers
    decide whether signatures recur.
    """
    slots: List[dict] = [
        {"objects": [], "relationships": []} for __ in range(n_segments)
    ]
    appearances = max(1, int(n_segments * density))
    # The seed places the appearances; how many carry which confidence,
    # height or relationship is fixed, so a corpus costs about the same
    # to query under every seed (sampled attributes moved sparse
    # latencies by ±5% from seed to seed).
    serial = 0
    for position, type_name in enumerate(types):
        object_id = f"{type_name}{position}"
        for index in rng.sample(range(n_segments), appearances):
            slots[index]["objects"].append(
                make_object(
                    object_id,
                    type_name,
                    confidence=CONFIDENCES[serial % len(CONFIDENCES)],
                    height=HEIGHTS[serial % len(HEIGHTS)],
                )
            )
            if serial % 10 < GUNS_IN_TEN:
                slots[index]["relationships"].append(
                    Relationship("holds_gun", (object_id,))
                )
            serial += 1
    return [
        SegmentMetadata(
            objects=slot["objects"],
            relationships=slot["relationships"],
            signature=signature,
        )
        for slot, signature in zip(slots, signatures)
    ]


def recurring(
    rng: random.Random, bases: Sequence[Signature], n_segments: int
) -> List[Signature]:
    """Every base equally often, in a seeded order."""
    signatures = [bases[i % len(bases)] for i in range(n_segments)]
    rng.shuffle(signatures)
    return signatures


def _probe_clip(rng: random.Random, stored: Signature) -> Clips:
    return {
        "probe": (stored,)
        + tuple(random_signature(rng) for __ in range(N_WINDOWS - 1))
    }


def sparse_corpus(
    rng: random.Random,
    n_videos: int,
    n_segments: int,
    density: float = 0.03,
    n_bases: int = 100,
) -> Tuple[VideoDatabase, Clips]:
    """The index-driven regime; returns ``(database, query clips)``.

    One video in four is person-rich (two of eight, one of four)."""
    person_videos = max(1, n_videos // 4)
    bases = [random_signature(rng) for __ in range(n_bases)]
    database = VideoDatabase()
    for position in range(n_videos):
        signatures = recurring(rng, bases, n_segments)
        types = RICH_TYPES if position < person_videos else POOR_TYPES
        database.add(
            flat_video(
                f"vid{position:03d}",
                annotated_segments(
                    rng, n_segments, density, types, signatures
                ),
            )
        )
    return database, _probe_clip(rng, bases[0])


def dense_corpus(
    rng: random.Random,
    n_videos: int,
    n_segments: int,
    density: float = 0.5,
) -> Tuple[VideoDatabase, Clips]:
    """The scorer-bound regime; returns ``(database, query clips)``."""
    database = VideoDatabase()
    first = None
    for position in range(n_videos):
        signatures = [random_signature(rng) for __ in range(n_segments)]
        if first is None:
            first = signatures[0]
        database.add(
            flat_video(
                f"vid{position:03d}",
                annotated_segments(
                    rng, n_segments, density, RICH_TYPES, signatures
                ),
            )
        )
    return database, _probe_clip(rng, first)


def _with_top(given: SimilarityList, top: float) -> SimilarityList:
    """The same runs, actual values rescaled so the largest is ``top``."""
    if not given.entries:
        return given
    scale = top / max(entry.actual for entry in given.entries)
    return SimilarityList.from_entries(
        [
            ((entry.begin, entry.end), entry.actual * scale)
            for entry in given.entries
        ],
        given.maximum,
    )


def temporal_corpus(
    rng: random.Random, n_videos: int, n_segments: int
) -> VideoDatabase:
    """Paper §4.2: about a tenth of the shots satisfy each predicate, in
    runs of mean length 4; the segments themselves carry no metadata.

    The top-k pruner skips a video whose bound — built from the largest
    value on each of its lists — is below the running k-th best score.
    With the largest values left to chance that was a coin toss per
    seed: of 800 video evaluations a round, seed 17 pruned 156 and seed
    13 none, and throughput differed by 20% between seeds.  So the
    largest values are pinned.  They rise from video to video (no
    video's bound is below what an earlier one can score: never
    pruned), except that the last video is *weak*, a quarter of the
    scale (its bound is below the k-th best of the others for every
    formula of the stream: always pruned).  One video evaluation in
    ``n_videos`` is pruned under every seed.
    """
    database = VideoDatabase()
    weak = n_videos - 1 if n_videos > 1 else None
    for position in range(n_videos):
        name = f"vid{position:03d}"
        database.add(
            flat_video(
                name, [SegmentMetadata() for __ in range(n_segments)]
            )
        )
        for predicate in TEMPORAL_PREDICATES:
            given = random_similarity_list(n_segments, rng=rng)
            top = (
                WEAK_SHARE * given.maximum
                if position == weak
                else given.maximum - TOP_STEP * (n_videos - 1 - position)
            )
            database.register_atomic(predicate, name, _with_top(given, top))
    return database


def append_batches(
    rng: random.Random, n_batches: int, batch_size: int, n_bases: int = 100
) -> List[List[SegmentMetadata]]:
    """The ``live`` workload's write stream: sparse-shaped segment
    batches (person-poor types, signatures recurring across batches)."""
    bases = [random_signature(rng) for __ in range(n_bases)]
    return [
        annotated_segments(
            rng,
            batch_size,
            0.03,
            POOR_TYPES,
            recurring(rng, bases, batch_size),
        )
        for __ in range(n_batches)
    ]
