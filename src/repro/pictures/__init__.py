"""Picture-retrieval substrate: atom scoring, indices, similarity tables."""

from repro.pictures.index import MetadataIndex
from repro.pictures.retrieval import PictureRetrievalSystem, PictureStats
from repro.pictures.scoring import max_similarity, score
from repro.pictures.support import SupportAnalyzer

__all__ = [
    "PictureRetrievalSystem",
    "PictureStats",
    "MetadataIndex",
    "SupportAnalyzer",
    "score",
    "max_similarity",
]
