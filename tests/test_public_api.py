"""Public-API surface checks: exports exist, __all__ is honest."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.htl",
    "repro.model",
    "repro.pictures",
    "repro.core",
    "repro.sqlbaseline",
    "repro.sqlbaseline.relational",
    "repro.analyzer",
    "repro.workloads",
    "repro.bench",
    "repro.store",
    "repro.shard",
    "repro.serve",
    "repro.ingest",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


def test_top_level_quickstart_surface():
    import repro

    assert callable(repro.parse)
    assert callable(repro.pretty)
    engine = repro.RetrievalEngine()
    assert engine.config.join_mode == "inner"
    assert repro.__version__


def test_errors_hierarchy():
    from repro import errors

    leaves = [
        errors.InvalidIntervalError,
        errors.InvalidSimilarityError,
        errors.SimilarityListInvariantError,
        errors.HTLSyntaxError,
        errors.HTLTypeError,
        errors.UnsupportedFormulaError,
        errors.HierarchyError,
        errors.UnknownLevelError,
        errors.MetadataError,
        errors.SQLSyntaxError,
        errors.SQLCatalogError,
        errors.SQLExecutionError,
        errors.WorkloadError,
    ]
    for leaf in leaves:
        assert issubclass(leaf, errors.ReproError)
    # Catching the base class is the documented contract.
    with pytest.raises(errors.ReproError):
        raise errors.HTLSyntaxError("x", 1, 2)


def test_syntax_errors_carry_positions():
    from repro.errors import HTLSyntaxError, SQLSyntaxError

    error = HTLSyntaxError("bad", line=3, column=7)
    assert error.line == 3 and error.column == 7
    assert "line 3" in str(error)
    sql_error = SQLSyntaxError("bad", line=2, column=5)
    assert "line 2" in str(sql_error)


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.core", "optimize"),
        ("repro.core.planner", "CostModel"),
        ("repro.core.planner", "STRATEGY_INDEXED"),
        ("repro.core.planner", "STRATEGY_NAIVE"),
        ("repro.core.planner", "structural_cost"),
        ("repro.core.planner", "order_conjuncts"),
        ("repro.pictures.signature", "signature_match_rate"),
        ("repro.pictures.signature", "sample_positions"),
        ("repro.core.engine", "RetrievalEngine.trace_video"),
        ("repro.serve", "EnginePool.from_database"),
        ("repro.serve", "EnginePool.from_corpus"),
        ("repro.serve", "EnginePool.from_store"),
        ("repro.serve", "EnginePool.sharded"),
        ("repro.ingest", "Compactor"),
        ("repro.ingest", "CheckpointInfo"),
        ("repro.ingest", "read_manifest"),
        ("repro.ingest", "RecoveredState.deltas"),
        ("repro.ingest", "IngestLayout.deltas_dir"),
        ("repro.ingest", "IngestLayout.deltas_manifest_path"),
        ("repro.ingest", "IngestLayout.quarantine_path"),
        ("repro.core.resilience", "SITE_COMPACT_COMMIT"),
        ("repro.model.database", "VideoDatabase.video_atomics"),
        ("repro.core.topk", "BoundExchange"),
        ("repro.shard", "slice_budget"),
        ("repro.shard.corpus", "slice_budget"),
        ("repro.core.trace", "capture"),
        ("repro.core.trace", "adopt"),
        ("repro.core.trace", "TraceToken"),
        ("repro.serve", "QueryRequest.parallelism"),
        ("repro.core.simlist", "CHECK_INVARIANTS"),
        ("repro.core.simlist", "set_invariant_checks"),
        ("repro.core", "set_invariant_checks"),
        ("repro.core.simlist", "SimilarityList.from_raw"),
        ("repro.model", "dump_database"),
        ("repro.model", "load_database"),
        ("repro.model.serialize", "dump_database"),
        ("repro.model.serialize", "load_database"),
        ("repro", "EvaluationCache"),
        ("repro.core", "EvaluationCache"),
        ("repro.core", "CacheStats"),
        ("repro.core.cache", "EvaluationCache"),
        ("repro.core.cache", "CacheStats"),
        ("repro.htl.ast", "const"),
        ("repro.htl.variables", "is_constant_term"),
        ("repro.model.database", "VideoDatabase.generation"),
        ("repro.model.database", "VideoDatabase.video_generations"),
        ("repro.core.trace", "staged_span"),
        ("repro.core.trace", "stage_breakdown"),
        ("repro.core.trace", "QUERY_LATENCY"),
        ("repro.core.trace", "VIDEO_LATENCY"),
        ("repro.core.trace", "SERVE_ADMISSION_LATENCY"),
        ("repro.core.trace", "SERVE_QUEUE_WAIT"),
        ("repro.core.trace", "SERVE_REQUEST_LATENCY"),
        ("repro.core.trace", "MetricsRegistry.enable"),
        ("repro.core.trace", "MetricsRegistry.disable"),
        ("repro.core.trace", "MetricsRegistry.is_enabled"),
        ("repro.core.trace", "MetricsRegistry.add"),
        ("repro.core.trace", "MetricsRegistry.stage"),
        ("repro.core.trace", "MetricsRegistry.totals"),
        ("repro.core.trace", "MetricsRegistry.observe"),
        ("repro.core.trace", "MetricsRegistry.histograms"),
        ("repro.core.trace", "MetricsRegistry.snapshot"),
        ("repro.core.trace", "MetricsRegistry._enter_frame"),
        ("repro.core.trace", "MetricsRegistry._exit_frame"),
        ("repro.bench.reporting", "latency_report_text"),
        ("repro.core.tables", "SimilarityTable.binding_of"),
        ("repro.core.cache", "PlanCache.invalidate_video"),
        ("repro.core.cache", "PlanCache.clear"),
        ("repro.core.cache", "PlanCacheStats.hit_rate"),
    ],
)
def test_deleted_names_stay_deleted(module, name):
    """The unsound formula rewriter, the planner's hand-set weights and
    per-atom strategy, the one-video tracing wrapper, the pool's
    per-input constructors, the ingest delta chain, the intra-query
    thread pools (with their bound exchange, budget slices and trace
    hand-off), the global list-invariant switch (with the entry-object
    constructor it guarded), the plain-JSON database files (a store
    snapshot is the one persistence format), the opt-in evaluation cache
    (every engine keeps a list memo), the metrics registry's stage
    timers, latency histograms and enable switch (the span tree is the
    one timing source) and helpers nothing called are gone; nothing
    re-exports them."""
    owner = importlib.import_module(module)
    *path, leaf = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, leaf)


@pytest.mark.parametrize(
    "module, function, parameter",
    [
        ("repro.serve", "EnginePool.__init__", "database"),
        ("repro.shard", "ShardedCorpus.top_k", "bound_exchange"),
        ("repro.ingest", "Ingester.checkpoint", "full"),
        ("repro.core.topk", "top_k_across_videos", "parallelism"),
        ("repro.core.topk", "top_k_across_videos", "exchange"),
        ("repro.shard", "ShardedCorpus.top_k", "parallelism"),
        ("repro.core.engine", "RetrievalEngine.__init__", "cache"),
        ("repro.ingest", "recover", "verify"),
        ("repro.ingest", "Ingester.__init__", "verify"),
        ("repro.ingest.migrate", "migrate_deltas", "verify"),
        ("repro.shard", "ShardedCorpus.from_directory", "verify"),
        ("repro.shard", "ShardedCorpus.from_directory", "keep"),
        ("repro.store.sharding", "ShardLayout.store", "keep"),
        ("repro.store", "Store._check", "verify"),
        ("repro.store", "StoreLoad.__init__", "verified"),
        ("repro.ingest", "RecoveredState.__init__", "verified"),
    ],
)
def test_deleted_parameters_stay_deleted(module, function, parameter):
    """A pool serves one corpus, a sharded query has no naive
    scatter-gather mode, a query runs on one thread, a checkpoint is
    always one whole store snapshot, an engine's list memo is not
    optional, and every snapshot load checks its digests (a load-only
    corpus keeps no retention count)."""
    import inspect

    owner = importlib.import_module(module)
    for part in function.split("."):
        owner = getattr(owner, part)
    assert parameter not in inspect.signature(owner).parameters


@pytest.mark.parametrize("value", [False, None, 1])
def test_store_load_has_no_unverified_mode(value, tmp_path):
    """``Store.load`` keeps a keyword-only ``verify`` that accepts only
    True; any other value raises instead of skipping the digests."""
    from repro.errors import StoreError
    from repro.model.database import VideoDatabase
    from repro.store import Store

    store = Store(tmp_path)
    store.save(VideoDatabase())
    with pytest.raises(StoreError):
        store.load(verify=value)
    with pytest.raises(TypeError):
        store.load(value)
    assert not store.load(verify=True).recovered


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--across", "--top", "2", "--parallel", "2", "$P1"],
         "--parallel"),
        (["trace", "--parallel", "2", "exists x . present(x)"], "--parallel"),
        (["store", "load", "--dir", "unused", "--no-verify"], "--no-verify"),
        (["ingest", "recover", "--dir", "unused", "--no-verify"],
         "--no-verify"),
    ],
    ids=["run", "trace", "store-load", "ingest-recover"],
)
def test_deleted_cli_flags_are_usage_errors(argv, flag, capsys):
    """``--parallel`` is gone from ``run`` and ``trace``, and
    ``--no-verify`` from ``store load`` and ``ingest recover``."""
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "module", ["repro.core.optimizer", "repro.ingest.compact"]
)
def test_deleted_modules_are_gone(module):
    with pytest.raises(ImportError):
        importlib.import_module(module)


@pytest.mark.parametrize(
    "owner, name",
    [
        ("AtomChoice", "strategy"),
        ("AtomChoice", "indexed_cost"),
        ("AtomChoice", "naive_cost"),
        ("AtomChoice", "match_rate"),
        ("QueryPlan", "strategies"),
        ("Statistics", "dedup_factor"),
    ],
)
def test_plans_carry_no_strategy_or_weights(owner, name):
    """A plan counts visits; it neither picks an atom path nor prices
    one with a weight, a dedup ratio or a sampled match rate."""
    import dataclasses

    from repro.core import planner

    cls = getattr(planner, owner)
    assert name not in {field.name for field in dataclasses.fields(cls)}
    assert not hasattr(cls, name)
