"""Shared fixtures for the serving suite.

The corpus is the shard suite's graded corpus (different per-video
similarity ceilings), small enough that a single query services in a
few milliseconds — SLA deadlines in these tests are generous multiples
of that, so the suites are timing-robust on slow CI machines.
"""

import pytest

from repro.core.engine import RetrievalEngine
from repro.core.topk import top_k_across_videos
from repro.htl import parse
from repro.serve import EnginePool, RetrievalServer, SLAClass
from repro.shard import ShardedCorpus

from tests.shard.conftest import graded_corpus

FORMULA_TEXT = "$P1 and eventually $P2"
K = 6


def serve_classes(**overrides):
    """Generous deadlines (seconds, not milliseconds) so outcomes are
    decided by the scenario under test, never by scheduler jitter."""
    classes = {
        "interactive": SLAClass(
            "interactive", deadline_ms=10_000.0, queue_limit=32, priority=2
        ),
        "standard": SLAClass(
            "standard", deadline_ms=20_000.0, queue_limit=64, priority=1
        ),
        "batch": SLAClass(
            "batch", deadline_ms=30_000.0, queue_limit=128, priority=0
        ),
    }
    classes.update(overrides)
    return classes


@pytest.fixture
def corpus():
    return graded_corpus(n_videos=6, n_segments=16)


@pytest.fixture
def reference(corpus):
    """The unsharded, unpruned ranking every served result must match."""
    return top_k_across_videos(
        RetrievalEngine(), parse(FORMULA_TEXT), corpus, K, prune=False
    )


@pytest.fixture
def pool(corpus):
    return EnginePool(ShardedCorpus.from_database(corpus), 2)


@pytest.fixture
def server(pool):
    server = RetrievalServer(pool, classes=serve_classes()).start()
    yield server
    server.close()


def request_for(text=FORMULA_TEXT, k=K, **kwargs):
    from repro.serve import QueryRequest

    return QueryRequest(parse(text), k, **kwargs)
