"""Content-signature retrieval: indexed sweep vs. brute-force oracle.

The ``looks_like`` backend (DESIGN.md §16) claims two things: its indexed
sweep returns rankings *byte-identical* to the definitional brute-force
scorer, and it is faster on realistic corpora.  The brute-force oracle
here deliberately computes the full blended similarity (histogram L1 +
SSIM pass) for every window of every segment — no L1-bound short-circuit,
no memoisation.  The production path shares the same
per-window float recipe (:func:`repro.pictures.signature.window_similarity`),
so equality is exact, not approximate; the speedup comes from the
admissible bound skipping SSIM passes and the atom's clip scorer scoring
each distinct signature once (recurring shots are the norm in broadcast
footage — see the ``clips`` workload).  Every segment here carries its
own ``shot`` attribute, so no two share a content profile: the sweep's
memo never hits and every segment reaches the clip scorer.

Emits ``BENCH_signature.json`` in the current working directory.  Set
``BENCH_QUICK=1`` for a seconds-scale run (CI).
"""

import os
import random
import time
from pathlib import Path

from repro.bench.reporting import write_report_json
from repro.core.simlist import SIM_EPS, SimilarityList
from repro.model.metadata import SegmentMetadata
from repro.pictures.retrieval import PictureRetrievalSystem
from repro.pictures.signature import (
    looks_like_atom,
    window_similarity,
)

QUICK = bool(os.environ.get("BENCH_QUICK"))
N_BINS = 16
#: (n_segments, distinct-signature bases) configurations: recurring shot
#: signatures are what the clip scorer's signature → score memo collapses.
CONFIGS = [(400, 40), (400, 400)] if QUICK else [(4_000, 100), (4_000, 4_000)]
N_WINDOWS = 4
THETA = 0.9
REPEAT = 2 if QUICK else 3
#: Acceptance floor on the recurring-signature configuration (the first
#: of each pair above); the all-distinct row is informational.
REQUIRED_SPEEDUP = 1.5 if QUICK else 2.0

#: Full-mode (oracle, indexed) seconds at the parent commit — which still
#: had a per-atom fingerprint memo keyed on the signature under the sweep,
#: so its recurring row scored 300 segments, not 12 000 — by
#: distinct-signature count: the run with the fastest indexed time of six,
#: on the machine that wrote the committed report.
PARENT_SECONDS = {100: (0.1431, 0.0065), 4_000: (0.1426, 0.0368)}

RESULTS_PATH = Path("BENCH_signature.json")


def best_of(fn, make_atom, repeat=REPEAT):
    """Best time of ``fn(atom)``, each repeat on a fresh atom object built
    outside the timer: the clip scorer (prepared windows, signature → score
    memo) lives on the atom, so a re-used atom would time memo lookups."""
    best = None
    value = None
    for __ in range(repeat):
        atom = make_atom()
        start = time.perf_counter()
        value = fn(atom)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, value


def random_signature(rng):
    weights = [rng.random() ** 2 for __ in range(N_BINS)]
    total = sum(weights)
    return tuple(weight / total for weight in weights)


def build_segments(n_segments, n_bases, rng):
    """Signatures drawn from ``n_bases`` distinct vectors, round-robin —
    ``n_bases == n_segments`` means every signature is unique."""
    bases = [random_signature(rng) for __ in range(n_bases)]
    return [
        SegmentMetadata(
            attributes={"shot": position}, signature=bases[position % n_bases]
        )
        for position in range(n_segments)
    ]


def oracle_list(atom, segments):
    """The definitional scorer: full blended similarity, every window,
    every segment — no bound, no memo."""
    values = {}
    for segment_id, segment in enumerate(segments, start=1):
        if segment.signature is None:
            continue
        best = 0.0
        for window in atom.clip:
            similarity = window_similarity(segment.signature, window)
            if similarity > best:
                best = similarity
        actual = best if best >= atom.theta else 0.0
        if actual > SIM_EPS:
            values[segment_id] = actual
    return SimilarityList.from_segment_values(values, 1.0)


def test_signature_retrieval(report):
    rng = random.Random(2026)
    results = []
    for n_segments, n_bases in CONFIGS:
        segments = build_segments(n_segments, n_bases, rng)
        system = PictureRetrievalSystem(segments)
        # The clip: one stored signature (guaranteed hits at recurrences)
        # plus fresh windows that miss nearly everything — the regime the
        # L1 bound prunes.
        clip = [segments[0].signature] + [
            random_signature(rng) for __ in range(N_WINDOWS - 1)
        ]

        def make_atom():
            return looks_like_atom(clip, THETA, name="probe")

        oracle_seconds, oracle = best_of(
            lambda atom: oracle_list(atom, segments), make_atom
        )
        system.stats.reset()
        indexed_seconds, indexed = best_of(
            lambda atom: system.similarity_list(atom, use_index=True),
            make_atom,
        )
        assert indexed == oracle, (
            f"indexed ranking diverged from the brute-force oracle at "
            f"{n_segments} segments / {n_bases} distinct signatures"
        )

        speedup = oracle_seconds / indexed_seconds
        stats = system.stats
        parent_oracle, parent_indexed = (
            (None, None) if QUICK else PARENT_SECONDS[n_bases]
        )
        results.append(
            {
                "n_segments": n_segments,
                "distinct_signatures": n_bases,
                "oracle_seconds": oracle_seconds,
                "indexed_seconds": indexed_seconds,
                "speedup": speedup,
                "parent_oracle_seconds": parent_oracle,
                "parent_indexed_seconds": parent_indexed,
                "segments_scored": stats.segments_scored,
                "fingerprint_hits": stats.fingerprint_hits,
                "matches": len(indexed),
                "identical": True,
            }
        )
        report(
            "Signature retrieval: brute-force oracle vs indexed (seconds)",
            {
                "Segments": n_segments,
                "Distinct": n_bases,
                "Oracle": f"{oracle_seconds:.4f}",
                "Indexed": f"{indexed_seconds:.4f}",
                "Speedup": f"{speedup:.1f}x",
                "Scored": stats.segments_scored,
                "Memo hits": stats.fingerprint_hits,
            },
        )

    recurring = [
        row
        for row in results
        if row["distinct_signatures"] < row["n_segments"]
    ]
    assert recurring, "no recurring-signature configuration measured"
    for row in recurring:
        assert row["speedup"] >= REQUIRED_SPEEDUP, (
            f"signature sweep only {row['speedup']:.1f}x over the oracle "
            f"at {row['n_segments']} segments / "
            f"{row['distinct_signatures']} distinct signatures "
            f"(required {REQUIRED_SPEEDUP}x)"
        )

    payload = {
        "quick": QUICK,
        "n_windows": N_WINDOWS,
        "theta": THETA,
        "required_speedup_recurring": REQUIRED_SPEEDUP,
        "configs": results,
    }
    write_report_json(RESULTS_PATH, payload)
