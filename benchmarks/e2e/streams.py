"""Seeded request streams: query *text*, as a client would send it.

A stream is a fixed sequence — the work of a round is fixed, not its
duration, so counts repeat exactly and two commits do identical work.
"""

from __future__ import annotations

import random
from typing import List, Sequence

#: ``mix-a``'s eight fixed queries, in Zipf rank order.  Together they
#: cover every path of the picture layer: typed ∃, relationship +
#: temporal, the planner's structural tie, ``until`` over two closed
#: atoms, negation (baseline-only support), an attribute comparison
#: under ``next``, and the signature backend alone and conjoined.
MIX_A_FIXED = (
    "exists x . present(x) and type(x) = 'person'",
    "exists x . (present(x) and holds_gun(x)) and eventually (type(x) = 'plane')",
    "exists x . ((eventually present(x)) and (eventually type(x) = 'person'))",
    "(exists x . present(x) and type(x)='car') until (exists y . holds_gun(y))",
    "exists x . not present(x)",
    "(exists x . present(x) and height(x) > 90) and next (exists y . type(y) = 'plane')",
    "looks_like('probe', 0.9)",
    "looks_like('probe', 0.9) and eventually (exists x . present(x) and type(x)='person')",
)

#: The templates that carry a constant; a fresh request fills one with a
#: constant no other request of the stream uses, so no result cache keyed
#: on the query can answer it.
_HEIGHT_TEMPLATE = (
    "(exists x . present(x) and height(x) > {h}) "
    "and next (exists y . type(y) = 'plane')"
)
_THETA_TEMPLATES = (
    "looks_like('probe', {theta})",
    "looks_like('probe', {theta}) and eventually "
    "(exists x . present(x) and type(x)='person')",
)

#: The temporal workload's formulas over registered lists, in Zipf rank
#: order: the paper's Table 5 (conjunction) and Table 6 (until) shapes
#: first, then deeper nestings of the same operators.
TEMPORAL_FORMULAS = (
    "$P1 and $P2",
    "$P1 until $P2",
    "$P1 and eventually $P2",
    "($P1 and next $P3) until ($P2 and eventually $P4)",
    "$P1 and ($P2 until ($P3 and eventually $P4))",
    "eventually ($P1 and next ($P2 until $P3))",
)


def zipf_counts(n_items: int, n_draws: int) -> List[int]:
    """How often each rank appears in ``n_draws`` Zipf(1) draws — the
    expected counts, rounded by largest remainder so they sum exactly.

    The mix of a stream is therefore the same for every seed; the seed
    decides the order, the fresh constants and the corpus.  Sampled
    counts made a run's cost depend on how many expensive queries its
    seed happened to draw (throughput differed by 19% across ten seeds).
    """
    weights = [1.0 / rank for rank in range(1, n_items + 1)]
    scale = n_draws / sum(weights)
    shares = [weight * scale for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(
        range(n_items), key=lambda i: shares[i] - counts[i], reverse=True
    )
    for index in by_remainder[: n_draws - sum(counts)]:
        counts[index] += 1
    return counts


def _zipf_stream(items: Sequence[str], n_draws: int) -> List[str]:
    return [
        item
        for item, count in zip(items, zipf_counts(len(items), n_draws))
        for __ in range(count)
    ]


def _fresh_queries(rng: random.Random, n_queries: int) -> List[str]:
    """The constant-carrying templates in turn, each filled with a
    constant no other request of the stream uses (90 and 0.900 are the
    fixed queries' own)."""
    heights = rng.sample([h for h in range(1, 401) if h != 90], n_queries)
    thetas = rng.sample([t for t in range(800, 951) if t != 900], n_queries)
    queries = []
    for number in range(n_queries):
        pick = number % (1 + len(_THETA_TEMPLATES))
        if pick == 0:
            queries.append(_HEIGHT_TEMPLATE.format(h=heights[number]))
        else:
            queries.append(
                _THETA_TEMPLATES[pick - 1].format(
                    theta=f"{thetas[number] / 1000.0:.3f}"
                )
            )
    return queries


def mix_a(rng: random.Random, n_requests: int) -> List[str]:
    """Half Zipf(1) over the fixed queries, half fresh constants, in a
    seeded shuffle — a cache sees them interleaved, as in service."""
    n_fresh = n_requests // 2
    stream = _zipf_stream(MIX_A_FIXED, n_requests - n_fresh)
    stream += _fresh_queries(rng, n_fresh)
    rng.shuffle(stream)
    return stream


def temporal_stream(rng: random.Random, n_requests: int) -> List[str]:
    """Zipf(1) over :data:`TEMPORAL_FORMULAS`, shuffled."""
    stream = _zipf_stream(TEMPORAL_FORMULAS, n_requests)
    rng.shuffle(stream)
    return stream


def repeats(stream: Sequence[str]) -> int:
    """Requests whose exact text appeared earlier in the stream."""
    seen: set = set()
    count = 0
    for text in stream:
        if text in seen:
            count += 1
        seen.add(text)
    return count
