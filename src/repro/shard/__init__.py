"""Sharded corpus and the one ranking loop: one top-k heap streamed
through every shard.

Public surface:

* :class:`ShardedCorpus` — the corpus every ranked query runs over;
  ``top_k`` is the query loop (DESIGN.md §6, §12).  An unsharded
  database is ``ShardedCorpus.from_database(database)``, one shard, and
  :func:`repro.core.topk.top_k_across_videos` is exactly that query.
* :class:`Shard` — one shard: id, owned videos, and their database
  (held from construction in memory, or loaded lazily from a store);
  a failed load retries with jittered backoff (three tries), then
  fails.

The on-disk layout lives in :mod:`repro.store.sharding`
(``save_sharded`` / ``load_layout``); the result types and the size-k
heap live in :mod:`repro.core.topk`.
"""

from repro.shard.corpus import Shard, ShardedCorpus

__all__ = ["Shard", "ShardedCorpus"]
