"""Command-line front end: parse, classify, and run HTL queries.

Examples::

    htl-query classify "exists x . eventually present(x)"
    htl-query run --dataset casablanca \\
        "atomic('Man-Woman') and eventually atomic('Moving-Train')"
    htl-query run --dataset western --level frame --top 3 "<formula>"
    htl-query sql "$P1 until $P2" --size 1000     # show generated SQL
    htl-query datasets
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.bench.reporting import similarity_table_text
from repro.core import resilience
from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.topk import top_k_segments
from repro.errors import (
    BudgetExceededError,
    CircuitOpenError,
    HierarchyError,
    HTLError,
    HTLSyntaxError,
    HTLTypeError,
    IngestError,
    InjectedFaultError,
    InvalidIntervalError,
    InvalidSimilarityError,
    MetadataError,
    ModelError,
    ReproError,
    ResilienceError,
    ServeError,
    ServeRejected,
    ShardError,
    SignatureError,
    SimilarityListInvariantError,
    SQLCatalogError,
    SQLError,
    SQLExecutionError,
    SQLSyntaxError,
    StoreCorruptionError,
    StoreError,
    StoreVersionError,
    StoreWriteError,
    UnknownLevelError,
    UnsupportedFormulaError,
    WALCorruptionError,
    WorkloadError,
)
from repro.htl import parse, paper_class, pretty, skeleton_class
from repro.model.database import VideoDatabase
from repro.shard import ShardedCorpus
from repro.sqlbaseline.system import SQLRetrievalSystem
from repro.workloads.casablanca import casablanca_database
from repro.workloads.clips import clips_database
from repro.workloads.movies import example_database
from repro.workloads.synthetic import perf_workload

_DATASETS = {
    "casablanca": ("making-of-casablanca", casablanca_database),
    "western": ("western", example_database),
    "gulf-war": ("gulf-war", example_database),
    "clips": ("clips", clips_database),
}

#: Exit code for each error family — distinct, non-zero, and stable, so
#: scripts can branch on the failure kind without scraping stderr.  Code 2
#: is reserved by argparse for usage errors; the most specific class on an
#: exception's MRO wins (see :func:`exit_code_for`).
EXIT_CODES = {
    ReproError: 1,
    HTLError: 3,
    HTLSyntaxError: 4,
    HTLTypeError: 5,
    UnsupportedFormulaError: 6,
    ModelError: 7,
    HierarchyError: 8,
    UnknownLevelError: 9,
    MetadataError: 10,
    SQLError: 11,
    SQLSyntaxError: 12,
    SQLCatalogError: 13,
    SQLExecutionError: 14,
    InvalidIntervalError: 15,
    InvalidSimilarityError: 16,
    SimilarityListInvariantError: 17,
    WorkloadError: 18,
    ResilienceError: 19,
    BudgetExceededError: 20,
    CircuitOpenError: 21,
    InjectedFaultError: 22,
    StoreError: 23,
    StoreWriteError: 24,
    StoreCorruptionError: 25,
    StoreVersionError: 26,
    ShardError: 27,
    ServeError: 28,
    ServeRejected: 29,
    IngestError: 30,
    WALCorruptionError: 31,
    SignatureError: 32,
}

#: The conventional 128+SIGINT code: an interrupted run that drained
#: gracefully still reports "killed by Ctrl-C" to the calling shell.
EXIT_SIGINT = 130


def exit_code_for(error: ReproError) -> int:
    """The exit code of the most specific mapped class on the error's MRO."""
    for klass in type(error).__mro__:
        if klass in EXIT_CODES:
            return EXIT_CODES[klass]
    return 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {value}"
        )
    return value


def _level_argument(text: str) -> str:
    """A level is a positive number or a level name — validated up front."""
    if text.isdigit() and int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"levels are numbered from 1, got {text}"
        )
    if not text:
        raise argparse.ArgumentTypeError("level name must be non-empty")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htl-query",
        description="Similarity-based retrieval of videos with HTL queries",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    classify = commands.add_parser(
        "classify", help="parse a query and report its formula class"
    )
    classify.add_argument("query", help="HTL query text")

    explain_cmd = commands.add_parser(
        "explain", help="show the evaluation plan for a query"
    )
    explain_cmd.add_argument("query", help="HTL query text")
    explain_cmd.add_argument(
        "--plan",
        action="store_true",
        help="compile and show the cost-based query plan against a dataset "
        "(evaluation order and estimated cost in visits per node)",
    )
    explain_cmd.add_argument(
        "--dataset",
        choices=sorted(_DATASETS),
        default="casablanca",
        help="dataset whose index statistics the plan is built from "
        "(default: casablanca; only with --plan)",
    )
    explain_cmd.add_argument(
        "--level",
        default=None,
        type=_level_argument,
        help="level to plan the query at (default: 2; only with --plan)",
    )
    explain_cmd.add_argument(
        "--json",
        action="store_true",
        help="print the plan as JSON (only with --plan)",
    )

    run = commands.add_parser("run", help="evaluate a query on a dataset")
    run.add_argument("query", help="HTL query text")
    run.add_argument(
        "--dataset",
        choices=sorted(_DATASETS),
        default="casablanca",
        help="built-in dataset (default: casablanca)",
    )
    run.add_argument(
        "--level",
        default=None,
        type=_level_argument,
        help="level name or number to assert the query at (default: 2)",
    )
    run.add_argument(
        "--top",
        type=_nonnegative_int,
        default=0,
        help="also print the top-k segments",
    )
    run.add_argument(
        "--threshold",
        type=_positive_float,
        default=0.5,
        help="until threshold on fractional similarity (default: 0.5)",
    )
    run.add_argument(
        "--join-mode",
        choices=("inner", "outer"),
        default="inner",
        help="paper's inner join or definitional outer join",
    )
    run.add_argument(
        "--ranked", action="store_true", help="order output by similarity"
    )
    run.add_argument(
        "--across",
        action="store_true",
        help="rank the top segments across every video of the dataset "
        "(requires --top)",
    )
    run.add_argument(
        "--lenient",
        action="store_true",
        help="best-effort mode: report failed videos instead of aborting "
        "(with --across)",
    )
    run.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        help="partition the dataset into this many shards and run the "
        "query scatter-gather (with --across)",
    )
    run.add_argument(
        "--shard-dir",
        default=None,
        help="query a sharded store layout written by 'shard split' "
        "instead of a built-in dataset (with --across)",
    )
    run.add_argument(
        "--by-example",
        dest="by_example",
        action="append",
        default=None,
        metavar="[NAME=]VIDEO:FIRST-LAST",
        help="define a query clip from stored segments: the content "
        "signatures of segments FIRST..LAST (1-based, at the query "
        "level) of VIDEO become the windows the query's "
        "looks_like(NAME, theta) atoms score against (NAME defaults "
        "to 'example'; repeatable)",
    )
    run.add_argument(
        "--deadline-ms",
        type=_positive_float,
        default=None,
        help="abort the query after this many wall-clock milliseconds",
    )
    run.add_argument(
        "--max-steps",
        type=_positive_int,
        default=None,
        help="abort the query after this many cooperative work steps",
    )

    trace_cmd = commands.add_parser(
        "trace",
        help="run a query with per-span profiling (the profiled twin of "
        "explain)",
    )
    trace_cmd.add_argument("query", help="HTL query text")
    trace_cmd.add_argument(
        "--dataset",
        choices=sorted(_DATASETS),
        default="casablanca",
        help="built-in dataset (default: casablanca)",
    )
    trace_cmd.add_argument(
        "--level",
        default=None,
        type=_level_argument,
        help="level name or number to assert the query at (default: 2)",
    )
    trace_cmd.add_argument(
        "--top",
        type=_positive_int,
        default=5,
        help="rank this many segments across the dataset (default: 5)",
    )
    trace_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the trace and metrics as JSON instead of text",
    )

    sql = commands.add_parser(
        "sql", help="show and optionally execute the SQL translation"
    )
    sql.add_argument("query", help="type (1) HTL query over $P1, $P2, ...")
    sql.add_argument(
        "--size", type=int, default=1000, help="synthetic workload size"
    )
    sql.add_argument(
        "--execute",
        action="store_true",
        help="run the script on the mini engine and print the result",
    )

    commands.add_parser("datasets", help="list built-in datasets")

    store_cmd = commands.add_parser(
        "store", help="manage the crash-safe on-disk snapshot store"
    )
    store_actions = store_cmd.add_subparsers(
        dest="store_command", required=True
    )

    def _store_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--dir",
            dest="store_dir",
            required=True,
            help="store root directory",
        )

    store_save = store_actions.add_parser(
        "save", help="snapshot a dataset into the store"
    )
    _store_common(store_save)
    store_save.add_argument(
        "--dataset",
        choices=sorted(_DATASETS),
        default="casablanca",
        help="built-in dataset to snapshot (default: casablanca)",
    )
    store_save.add_argument(
        "--keep",
        type=_positive_int,
        default=2,
        help="snapshots to retain after the save (default: 2)",
    )

    store_load = store_actions.add_parser(
        "load", help="load the newest intact snapshot (digest-checked)"
    )
    _store_common(store_load)

    store_verify = store_actions.add_parser(
        "verify", help="read-only integrity check of every snapshot"
    )
    _store_common(store_verify)

    store_repair = store_actions.add_parser(
        "repair", help="quarantine damage and rewrite the manifest"
    )
    _store_common(store_repair)
    store_repair.add_argument(
        "--keep",
        type=_positive_int,
        default=2,
        help="intact snapshots to retain (default: 2)",
    )

    shard_cmd = commands.add_parser(
        "shard", help="manage sharded corpus layouts (scatter-gather top-k)"
    )
    shard_actions = shard_cmd.add_subparsers(
        dest="shard_command", required=True
    )

    shard_split = shard_actions.add_parser(
        "split", help="partition a dataset into N per-shard stores"
    )
    shard_split.add_argument(
        "--dir",
        dest="shard_dir",
        required=True,
        help="layout root directory (holds SHARDS.json + shard stores)",
    )
    shard_split.add_argument(
        "--dataset",
        choices=sorted(_DATASETS),
        default="casablanca",
        help="built-in dataset to partition (default: casablanca)",
    )
    shard_split.add_argument(
        "--shards",
        type=_positive_int,
        required=True,
        help="number of shards to split into",
    )
    shard_split.add_argument(
        "--keep",
        type=_positive_int,
        default=2,
        help="snapshots to retain per shard store (default: 2)",
    )

    shard_info = shard_actions.add_parser(
        "info", help="describe a shard layout (and optionally its indices)"
    )
    shard_info.add_argument(
        "--dir",
        dest="shard_dir",
        required=True,
        help="layout root directory",
    )
    shard_info.add_argument(
        "--stats",
        action="store_true",
        help="load every shard and print per-video metadata-index stats",
    )

    serve_cmd = commands.add_parser(
        "serve",
        help="run queries through the concurrent retrieval service "
        "(admission control, SLA budgets, graceful drain)",
    )
    serve_cmd.add_argument(
        "queries",
        nargs="*",
        help="query text, optionally prefixed 'interactive:' / "
        "'standard:' / 'batch:'; reads one query per stdin line "
        "when omitted",
    )
    serve_cmd.add_argument(
        "--dataset",
        choices=sorted(_DATASETS),
        default="casablanca",
        help="built-in dataset to serve (default: casablanca)",
    )
    serve_cmd.add_argument(
        "--shard-dir",
        default=None,
        help="serve a sharded store layout instead of a built-in dataset",
    )
    serve_cmd.add_argument(
        "--store",
        dest="store_dir",
        default=None,
        help="serve the newest snapshot of a store directory",
    )
    serve_cmd.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="warm pooled workers (default: 2)",
    )
    serve_cmd.add_argument(
        "--top",
        type=_positive_int,
        default=5,
        help="segments per ranking (default: 5)",
    )
    serve_cmd.add_argument(
        "--level",
        type=_positive_int,
        default=2,
        help="hierarchy level to rank at (default: 2)",
    )
    serve_cmd.add_argument(
        "--sla",
        choices=("interactive", "standard", "batch"),
        default="standard",
        help="latency class for unprefixed queries (default: standard)",
    )
    serve_cmd.add_argument(
        "--sla-scale",
        type=_positive_float,
        default=1.0,
        help="scale every class deadline by this factor (default: 1.0)",
    )
    serve_cmd.add_argument(
        "--strict",
        action="store_true",
        help="strict per-request semantics (no partial rankings)",
    )
    serve_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON payload per result plus a stats payload",
    )

    ingest_cmd = commands.add_parser(
        "ingest",
        help="crash-safe streaming ingestion (WAL-backed appends, "
        "checkpoints, recovery)",
    )
    ingest_actions = ingest_cmd.add_subparsers(
        dest="ingest_command", required=True
    )

    def _ingest_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--dir",
            dest="ingest_dir",
            required=True,
            help="ingest root directory (base/, wal.log)",
        )

    ingest_init = ingest_actions.add_parser(
        "init", help="create an ingest directory seeded from a dataset"
    )
    _ingest_common(ingest_init)
    ingest_init.add_argument(
        "--dataset",
        choices=sorted(_DATASETS),
        default=None,
        help="built-in dataset to seed the base snapshot with "
        "(default: an empty corpus)",
    )

    ingest_append = ingest_actions.add_parser(
        "append", help="log and apply operations from a JSON ops file"
    )
    _ingest_common(ingest_append)
    ingest_append.add_argument(
        "--ops",
        dest="ops_file",
        required=True,
        help="JSON file holding a list of ingest-op documents",
    )
    ingest_append.add_argument(
        "--batch",
        type=_positive_int,
        default=None,
        help="fsync after every N records instead of once at the end",
    )

    ingest_checkpoint = ingest_actions.add_parser(
        "checkpoint",
        help="save the committed state as a snapshot and reset the WAL",
    )
    _ingest_common(ingest_checkpoint)

    ingest_recover = ingest_actions.add_parser(
        "recover", help="replay the committed state and report provenance"
    )
    _ingest_common(ingest_recover)
    return parser


def _resolve_level(video, level_argument: Optional[str]) -> int:
    if level_argument is None:
        return min(2, video.n_levels)
    if level_argument.isdigit():
        return int(level_argument)
    return video.level_of(level_argument)


def cmd_classify(arguments: argparse.Namespace) -> int:
    formula = parse(arguments.query)
    print(f"parsed:    {pretty(formula)}")
    print(f"paper class:    {paper_class(formula).name}")
    print(f"skeleton class: {skeleton_class(formula).name}")
    return 0


def cmd_explain(arguments: argparse.Namespace) -> int:
    from repro.core.explain import explain

    formula = parse(arguments.query)
    if arguments.plan:
        return _explain_plan(arguments, formula)
    print(explain(formula))
    return 0


def _explain_plan(arguments: argparse.Namespace, formula) -> int:
    """Compile the query's cost-based plan against a dataset and print it.

    Nothing is evaluated: a plan is a function of the formula and the
    index statistics alone, and its cost is in counted visits.
    """
    import json

    video_name, loader = _DATASETS[arguments.dataset]
    database: VideoDatabase = loader()
    video = database.get(video_name)
    level = _resolve_level(video, arguments.level)
    engine = RetrievalEngine()
    plan = engine.planner.plan_for(
        formula,
        video.root.pictures_at_level(level),
        level,
        engine.config,
        generation=database.stamp(video),
        video=video_name,
    )
    if arguments.json:
        print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"plan for {video_name!r} at level {level}:")
    print(plan.describe())
    stats = engine.planner.stats
    print(
        f"planner: {stats.plans_built} plan(s) built, "
        f"{stats.cache_hits} cache hit(s), "
        f"{stats.support_probes} support probe(s)"
    )
    return 0


def _run_budget(arguments: argparse.Namespace) -> Optional[resilience.QueryBudget]:
    if arguments.deadline_ms is None and arguments.max_steps is None:
        return None
    return resilience.QueryBudget(
        deadline_ms=arguments.deadline_ms, max_steps=arguments.max_steps
    )


def _run_across(
    arguments: argparse.Namespace,
    engine: RetrievalEngine,
    formula,
    corpus,
    level: int,
) -> int:
    """Rank a corpus for ``--across``, ``--shards N`` and ``--shard-dir``."""
    results = corpus.top_k(
        engine,
        formula,
        arguments.top,
        level=level,
        budget=_run_budget(arguments),
        lenient=arguments.lenient,
    )
    if arguments.shards is not None or arguments.shard_dir is not None:
        print(f"scatter-gather over {corpus.n_shards} shard(s)")
    n_videos = len(results.outcomes)
    print(f"Top {arguments.top} segments across {n_videos} videos:")
    for rank, segment in enumerate(results, start=1):
        print(
            f"  {rank}. {segment.video} segment {segment.segment_id}  "
            f"{segment.actual:.3f}/{segment.maximum:g}"
        )
    if results.partial:
        print("\npartial result; degraded videos:")
        for outcome in results.outcomes:
            if outcome.degraded:
                print(f"  {outcome.video}: {outcome.status} ({outcome.error})")
    return 0


def _example_clips(
    specs: List[str], database: VideoDatabase, level_argument: Optional[str]
) -> Dict[str, tuple]:
    """Named query clips from ``[NAME=]VIDEO:FIRST-LAST`` specs.

    Each spec slices the named video's segments (1-based, inclusive, at
    the query level) and takes their content signatures as the clip's
    windows.  Malformed specs, unknown videos, out-of-range slices, and
    signature-less segments all raise a typed
    :class:`~repro.errors.SignatureError` (exit code 32).
    """
    from repro.pictures.signature import clip_from_segments

    clips: Dict[str, tuple] = {}
    for spec in specs:
        head, equals, rest = spec.partition("=")
        name, body = (head, rest) if equals else ("example", spec)
        video_name, colon, span = body.partition(":")
        first_text, dash, last_text = span.partition("-")
        try:
            first = int(first_text)
            last = int(last_text) if dash else first
        except ValueError:
            first = last = 0
        if not colon or not video_name or not name or first < 1:
            raise SignatureError(
                f"malformed --by-example {spec!r}; expected "
                "[NAME=]VIDEO:FIRST-LAST with 1-based segment numbers"
            )
        if video_name not in database:
            raise SignatureError(
                f"--by-example {spec!r} names unknown video "
                f"{video_name!r}; dataset has: "
                + ", ".join(sorted(database.names()))
            )
        video = database.get(video_name)
        level = _resolve_level(video, level_argument)
        nodes = video.nodes_at_level(level)
        if last < first or last > len(nodes):
            raise SignatureError(
                f"--by-example {spec!r} selects segments {first}-{last}; "
                f"{video_name!r} has {len(nodes)} at level {level}"
            )
        clips[name] = clip_from_segments(
            [node.metadata for node in nodes[first - 1 : last]]
        )
    return clips


def cmd_run(arguments: argparse.Namespace) -> int:
    formula = parse(arguments.query)
    engine = RetrievalEngine(
        EngineConfig(
            until_threshold=arguments.threshold,
            join_mode=arguments.join_mode,
        )
    )
    if arguments.shard_dir is not None:
        # A layout on disk replaces the built-in dataset entirely; there
        # is no single video to resolve level names against, so only
        # numeric levels are accepted (validated in main()).
        corpus = ShardedCorpus.from_directory(arguments.shard_dir)
        level = 2 if arguments.level is None else int(arguments.level)
        return _run_across(arguments, engine, formula, corpus, level)
    video_name, loader = _DATASETS[arguments.dataset]
    database: VideoDatabase = loader()
    video = database.get(video_name)
    level = _resolve_level(video, arguments.level)
    from repro.pictures.signature import resolve_clips, unresolved_clip_names

    if arguments.by_example or unresolved_clip_names(formula):
        # Inline the example segments' signatures into the query's
        # looks_like atoms; a clip reference with no --by-example
        # definition raises a SignatureError naming the known clips.
        formula = resolve_clips(
            formula,
            _example_clips(
                arguments.by_example or [], database, arguments.level
            ),
        )
    if arguments.across:
        corpus = ShardedCorpus.from_database(database, arguments.shards or 1)
        return _run_across(arguments, engine, formula, corpus, level)
    budget = _run_budget(arguments)
    if budget is not None:
        with resilience.scope(budget=budget):
            result = engine.evaluate_video(
                formula, video, level=level, database=database
            )
    else:
        result = engine.evaluate_video(
            formula, video, level=level, database=database
        )
    level_name = video.level_names.get(level, str(level))
    print(
        similarity_table_text(
            result,
            f"{video.name} at level {level} ({level_name}):",
            ranked=arguments.ranked,
        )
    )
    if arguments.top > 0:
        print(f"\nTop {arguments.top} segments:")
        for rank, segment in enumerate(
            top_k_segments(result, arguments.top, video=video.name), start=1
        ):
            print(
                f"  {rank}. segment {segment.segment_id}  "
                f"{segment.actual:.3f}/{segment.maximum:g}"
            )
    return 0


def cmd_trace(arguments: argparse.Namespace) -> int:
    import json

    from repro.bench.reporting import observability_payload, stage_report_text
    from repro.core import trace

    video_name, loader = _DATASETS[arguments.dataset]
    database: VideoDatabase = loader()
    video = database.get(video_name)
    formula = parse(arguments.query)
    engine = RetrievalEngine()
    level = _resolve_level(video, arguments.level)
    results = ShardedCorpus.from_database(database).top_k(
        engine, formula, arguments.top, level=level, profile=True
    )
    if arguments.json:
        print(
            json.dumps(
                observability_payload(results.profile),
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(trace.render_text(results.profile))
    print()
    print(stage_report_text(results.profile))
    print(f"\nTop {arguments.top} segments across "
          f"{len(results.outcomes)} videos:")
    for rank, segment in enumerate(results, start=1):
        print(
            f"  {rank}. {segment.video} segment {segment.segment_id}  "
            f"{segment.actual:.3f}/{segment.maximum:g}"
        )
    return 0


def cmd_sql(arguments: argparse.Namespace) -> int:
    formula = parse(arguments.query)
    workload = perf_workload(arguments.size, extra_predicates=2)
    system = SQLRetrievalSystem()
    system.load_segments(arguments.size)
    for name, sim in workload.lists.items():
        system.load_atomic(name, sim)
    translation = system.translate(formula)
    print("-- generated SQL script")
    print(translation.script())
    if arguments.execute:
        result = system.evaluate(formula)
        print()
        print(similarity_table_text(result, "result:"))
    return 0


def cmd_store(arguments: argparse.Namespace) -> int:
    from repro.store import Store

    store = Store(arguments.store_dir, keep=getattr(arguments, "keep", 2))
    if arguments.store_command == "save":
        __, loader = _DATASETS[arguments.dataset]
        info = store.save(loader())
        print(f"saved {info.snapshot_id} at {info.path}")
        for name in sorted(info.artifacts):
            entry = info.artifacts[name]
            print(f"  {name}  {entry['bytes']} bytes  {entry['sha256'][:12]}")
        if info.pruned:
            print(f"pruned: {', '.join(info.pruned)}")
        return 0
    if arguments.store_command == "load":
        loaded = store.load()
        database = loaded.database
        print(
            f"loaded {loaded.snapshot_id}:"
            f" {len(database)} video(s),"
            f" {len(database.atomic_names())} atomic predicate(s)"
        )
        for action in loaded.actions:
            where = (
                f"{action.snapshot}/{action.artifact}"
                if action.snapshot
                else action.artifact
            )
            print(f"  recovery: {action.kind} {where}  {action.detail}")
        return 0
    if arguments.store_command == "verify":
        report = store.verify()
        for status in report.statuses:
            marker = "ok" if not status.damaged else status.status
            print(f"  {status.snapshot}/{status.artifact}: {marker}")
        for name in report.unreferenced:
            print(f"  unreferenced snapshot: {name}")
        for stray in report.stray_files:
            print(f"  stray temp file: {stray}")
        if not report.manifest_ok:
            print(f"  manifest: {report.manifest_detail}")
        print(f"store {'OK' if report.ok else 'DAMAGED'}")
        return 0 if report.ok else 1
    outcome = store.repair()
    for action in outcome.actions:
        print(f"  {action.kind}: {action.quarantined_to or action.artifact}")
    print(
        f"repaired: current={outcome.current}, "
        f"retained=[{', '.join(outcome.retained)}], "
        f"dropped=[{', '.join(outcome.dropped)}]"
    )
    return 0


def cmd_shard(arguments: argparse.Namespace) -> int:
    from repro.store import load_layout, save_sharded
    from repro.store.store import default_level

    if arguments.shard_command == "split":
        __, loader = _DATASETS[arguments.dataset]
        layout = save_sharded(
            loader(),
            arguments.shard_dir,
            arguments.shards,
            keep=arguments.keep,
        )
        print(
            f"split {len(layout.video_names)} video(s) into "
            f"{layout.n_shards} shard(s) at {layout.root}"
        )
        for spec in layout.shards:
            owned = ", ".join(spec.videos) if spec.videos else "(empty)"
            print(f"  {spec.shard_id}: {owned}")
        return 0
    layout = load_layout(arguments.shard_dir)
    print(
        f"layout at {layout.root}: scheme {layout.scheme}, "
        f"{layout.n_shards} shard(s), {len(layout.video_names)} video(s)"
    )
    for spec in layout.shards:
        owned = ", ".join(spec.videos) if spec.videos else "(empty)"
        print(f"  {spec.shard_id} ({spec.path}): {owned}")
        if not arguments.stats:
            continue
        loaded = layout.store(spec).load()
        for name in spec.videos:
            video = loaded.database.get(name)
            level = default_level(video)
            stats = video.root.pictures_at_level(level).index.stats()
            postings = ", ".join(
                f"{family}={entry['keys']}/{entry['entries']}"
                for family, entry in sorted(stats["postings"].items())
                if entry["keys"]
            )
            print(
                f"    {name}: {stats['n_segments']} segment(s), "
                f"{stats['n_profiles']} profile(s) "
                f"(dedup {stats['profile_dedup']:.0%})"
                + (f"; postings keys/entries: {postings}" if postings else "")
            )
    return 0


def _serve_pool(arguments: argparse.Namespace):
    """One pool over one corpus, from ``--shard-dir``, ``--store`` or
    ``--dataset``."""
    from repro.serve import EnginePool
    from repro.store import Store

    if arguments.shard_dir is not None and arguments.store_dir is not None:
        raise ServeError("--shard-dir and --store are mutually exclusive")
    if arguments.shard_dir is not None:
        corpus = ShardedCorpus.from_directory(arguments.shard_dir)
    elif arguments.store_dir is not None:
        loaded = Store(arguments.store_dir).load()
        corpus = ShardedCorpus.from_database(loaded.database)
    else:
        __, loader = _DATASETS[arguments.dataset]
        corpus = ShardedCorpus.from_database(loader())
    return EnginePool(corpus, arguments.workers)


def _serve_lines(arguments: argparse.Namespace):
    """Queries from the command line, or one per stdin line."""
    if arguments.queries:
        yield from arguments.queries
        return
    for line in sys.stdin:
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


def _split_sla(line: str, default: str, classes) -> tuple:
    """Peel an optional 'class:' prefix off a query line."""
    head, sep, rest = line.partition(":")
    if sep and head.strip() in classes:
        return head.strip(), rest.strip()
    return default, line


def _print_serve_result(text: str, result, as_json: bool) -> None:
    import json

    if as_json:
        print(json.dumps({"query": text, **result.to_payload()}))
        return
    tag = f"#{result.request_id} [{result.sla}]"
    timing = (
        f"{result.total_ms:.0f}ms "
        f"(queue {result.queue_ms:.0f}ms + service {result.service_ms:.0f}ms)"
    )
    if result.status == "completed":
        ranking = result.topk
        note = " (degraded)" if result.degraded else ""
        print(
            f"{tag} completed{note} in {timing} on {result.worker}: "
            f"{len(ranking)} segment(s)"
        )
        for rank, segment in enumerate(ranking, start=1):
            print(
                f"    {rank}. {segment.video} segment {segment.segment_id}  "
                f"{segment.actual:.3f}/{segment.maximum:g}"
            )
    elif result.status == "shed":
        print(
            f"{tag} shed under load after {result.queue_ms:.0f}ms queued; "
            f"retry after {result.retry_after_ms:.0f}ms"
        )
    else:
        print(f"{tag} timed out after {timing}")


def cmd_serve(arguments: argparse.Namespace) -> int:
    import json

    from repro.serve import (
        QueryRequest,
        RetrievalServer,
        default_classes,
    )

    classes = default_classes(scale=arguments.sla_scale)
    server = RetrievalServer(_serve_pool(arguments), classes=classes)
    server.start(level=arguments.level)
    print(
        f"serving with {server.pool.n_workers} warm worker(s) over "
        f"{len(server.pool.video_names())} video(s); "
        f"SLA deadlines "
        + ", ".join(
            f"{sla.name}={sla.deadline_ms:g}ms"
            for sla in sorted(classes.values(), key=lambda c: -c.priority)
        ),
        file=sys.stderr,
    )
    tickets = []
    printed = 0
    interrupted = False
    try:
        for line in _serve_lines(arguments):
            sla, text = _split_sla(line, arguments.sla, classes)
            try:
                ticket = server.submit(
                    QueryRequest(
                        parse(text),
                        arguments.top,
                        level=arguments.level,
                        sla=sla,
                        lenient=not arguments.strict,
                    )
                )
            except ServeRejected as rejection:
                print(
                    f"rejected [{sla}] {text!r}: {rejection.reason}; "
                    f"retry after {rejection.retry_after_ms:.0f}ms",
                    file=sys.stderr,
                )
                continue
            tickets.append((text, ticket))
        for text, ticket in tickets:
            _print_serve_result(text, ticket.result(None), arguments.json)
            printed += 1
    except KeyboardInterrupt:
        interrupted = True
        print("\ninterrupted: draining in-flight requests...", file=sys.stderr)
    finally:
        stats = server.close()
    # After close() every admitted ticket is terminal (the conservation
    # law), so an interrupted run still reports every outcome.
    for text, ticket in tickets[printed:]:
        _print_serve_result(text, ticket.result(0.0), arguments.json)
    if arguments.json:
        print(json.dumps({"stats": stats.to_payload()}))
    else:
        rejected = stats.rejected_total
        print(
            f"served {stats.admitted} request(s): {stats.completed} "
            f"completed ({stats.degraded} degraded), {stats.timed_out} "
            f"timed out, {stats.shed} shed; {rejected} rejected at "
            f"admission",
            file=sys.stderr,
        )
    if not stats.conserved:  # pragma: no cover - would be a server bug
        print("error: request ledger does not balance", file=sys.stderr)
        return EXIT_CODES[ServeError]
    return EXIT_SIGINT if interrupted else 0


def cmd_datasets(arguments: argparse.Namespace) -> int:
    for key in sorted(_DATASETS):
        video_name, loader = _DATASETS[key]
        database = loader()
        video = database.get(video_name)
        levels = ", ".join(
            f"{level}={name}" for level, name in sorted(video.level_names.items())
        )
        atoms = database.atomic_names()
        extra = f"; atomics: {', '.join(atoms)}" if atoms else ""
        print(f"{key}: video {video.name!r}, levels [{levels}]{extra}")
    return 0


def cmd_ingest(arguments: argparse.Namespace) -> int:
    import json

    from repro.ingest import Ingester, decode_op, initialise, recover

    if arguments.ingest_command == "init":
        if arguments.dataset is not None:
            __, loader = _DATASETS[arguments.dataset]
            database = loader()
        else:
            database = VideoDatabase()
        with initialise(arguments.ingest_dir, database) as ingester:
            print(
                f"initialised ingest directory at {ingester.layout.root}: "
                f"{len(ingester.database)} video(s) in the base snapshot"
            )
        return 0
    if arguments.ingest_command == "append":
        try:
            with open(arguments.ops_file, "r", encoding="utf-8") as handle:
                documents = json.load(handle)
        except OSError as error:
            raise IngestError(
                f"cannot read ops file: {error}", path=arguments.ops_file
            ) from error
        except ValueError as error:
            raise IngestError(
                f"ops file is not JSON: {error}", path=arguments.ops_file
            ) from error
        if not isinstance(documents, list):
            raise IngestError(
                "ops file must hold a JSON list of ingest-op documents",
                path=arguments.ops_file,
            )
        operations = [decode_op(document) for document in documents]
        with Ingester(
            arguments.ingest_dir, auto_commit=arguments.batch
        ) as ingester:
            first = ingester.last_sequence + 1
            for op in operations:
                ingester.submit(op)
            batch = ingester.commit()
            print(
                f"appended {len(operations)} record(s) "
                f"(sequences {first}..{ingester.last_sequence}), "
                f"touching {len(batch) or len(ingester.dirty)} video(s)"
            )
            print(f"dirty since last checkpoint: {', '.join(ingester.dirty)}")
        return 0
    if arguments.ingest_command == "checkpoint":
        with Ingester(arguments.ingest_dir) as ingester:
            info = ingester.checkpoint()
            if info is None:
                print("nothing to checkpoint: no videos dirty")
                return 0
            print(
                f"checkpointed {info.snapshot_id}: "
                f"{len(ingester.database)} video(s) through WAL sequence "
                f"{info.wal_through}"
            )
        return 0
    state = recover(arguments.ingest_dir)
    state.wal.close()
    print(
        f"recovered {state.snapshot_id}:"
        f" {len(state.database)} video(s),"
        f" {state.replayed} WAL record(s) replayed,"
        f" {state.skipped} skipped"
    )
    for action in state.actions:
        print(f"  {action}")
    for path in state.quarantined:
        print(f"  quarantined: {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.command == "run":
        # Cross-flag constraints argparse cannot express; usage errors all
        # exit 2, before any dataset is loaded or query parsed.
        if arguments.across and arguments.top < 1:
            parser.error("--across requires --top >= 1")
        if arguments.lenient and not arguments.across:
            parser.error("--lenient requires --across")
        if arguments.shards is not None and arguments.shard_dir is not None:
            parser.error("--shards and --shard-dir are mutually exclusive")
        if arguments.by_example and arguments.shard_dir is not None:
            parser.error(
                "--by-example requires a built-in dataset (not --shard-dir)"
            )
        if (
            arguments.shards is not None or arguments.shard_dir is not None
        ) and not arguments.across:
            parser.error("--shards/--shard-dir require --across")
        if (
            arguments.shard_dir is not None
            and arguments.level is not None
            and not arguments.level.isdigit()
        ):
            parser.error("--shard-dir requires a numeric --level")
    handlers = {
        "classify": cmd_classify,
        "explain": cmd_explain,
        "run": cmd_run,
        "trace": cmd_trace,
        "sql": cmd_sql,
        "datasets": cmd_datasets,
        "store": cmd_store,
        "shard": cmd_shard,
        "serve": cmd_serve,
        "ingest": cmd_ingest,
    }
    try:
        return handlers[arguments.command](arguments)
    except KeyboardInterrupt:
        # Commands that can drain do so and return EXIT_SIGINT
        # themselves; this backstop keeps a Ctrl-C anywhere else from
        # ending in a traceback.
        print("interrupted", file=sys.stderr)
        return EXIT_SIGINT
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":
    sys.exit(main())
