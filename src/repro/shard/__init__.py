"""Sharded corpus: one top-k heap streamed through every shard.

Public surface:

* :class:`ShardedCorpus` — partitioned corpus front end; ``top_k`` runs
  the query over every shard (DESIGN.md §12).
* :class:`Shard` — one shard: id, owned videos, lazy loader.
* :class:`RetryPolicy` — jittered exponential backoff for transient
  shard-load faults, behind a per-shard circuit breaker.

The on-disk layout lives in :mod:`repro.store.sharding`
(``save_sharded`` / ``load_layout``); the ranking plumbing shared with
``top_k_across_videos`` lives in :mod:`repro.core.topk`.
"""

from repro.shard.corpus import (
    DEFAULT_RETRY,
    RetryPolicy,
    Shard,
    ShardedCorpus,
)

__all__ = [
    "DEFAULT_RETRY",
    "RetryPolicy",
    "Shard",
    "ShardedCorpus",
]
