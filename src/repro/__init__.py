"""Similarity-based retrieval of videos.

A full reproduction of Sistla, Yu & Venkatasubrahmanian, "Similarity Based
Retrieval of Videos" (ICDE 1997): the HTL query language, its similarity
semantics, the direct interval-list retrieval algorithms, the underlying
picture-retrieval substrate, and the SQL-based baseline the paper compares
against.

Quickstart::

    from repro import RetrievalEngine, parse
    from repro.workloads.casablanca import casablanca_database

    database = casablanca_database()
    engine = RetrievalEngine()
    query = parse("atomic('Man-Woman') and eventually atomic('Moving-Train')")
    result = engine.evaluate_video(
        query, database.get("making-of-casablanca"), database=database
    )
"""

from repro.core import (
    EngineConfig,
    EvaluationCache,
    QueryBudget,
    RetrievalEngine,
    SimilarityList,
    SimilarityValue,
    TopKResult,
    top_k_across_videos,
    top_k_segments,
)
from repro.htl import FormulaClass, parse, pretty
from repro.model import Video, VideoDatabase, flat_video

__version__ = "1.0.0"

__all__ = [
    "RetrievalEngine",
    "EngineConfig",
    "EvaluationCache",
    "SimilarityList",
    "SimilarityValue",
    "parse",
    "pretty",
    "FormulaClass",
    "Video",
    "VideoDatabase",
    "flat_video",
    "top_k_segments",
    "top_k_across_videos",
    "TopKResult",
    "QueryBudget",
    "__version__",
]
