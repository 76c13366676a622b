"""A metadata index as one comparable document.

``index_document(index)`` lists every postings structure and the content
profiles of a :class:`~repro.pictures.index.MetadataIndex` in the layout
older snapshots persisted as ``index.json``.  Tests compare two indexes
by their documents (an appended index against a rebuild) and write
legacy ``index.json`` files with it.
"""

from typing import Any, Dict

from repro.pictures.index import MetadataIndex


def _lists(table) -> Dict[str, list]:
    return {key: list(ids) for key, ids in table.items()}


def index_document(index: MetadataIndex) -> Dict[str, Any]:
    """Every postings family, the type pools and the profile ids."""
    return {
        "n_segments": index.n_segments,
        "by_object": _lists(index._by_object),
        "by_type": _lists(index._by_type),
        "by_relationship": _lists(index._by_relationship),
        # Tuple keys are not JSON keys: (name, value, ids) triples.
        "by_segment_attr": sorted(
            (
                [name, value, list(ids)]
                for (name, value), ids in index._by_segment_attr.items()
            ),
            key=repr,
        ),
        "by_attr_name": _lists(index._by_attr_name),
        "with_any_object": list(index.segments_with_any_object()),
        "with_signature": list(index.segments_with_signature()),
        "objects_of_type": _lists(index._objects_of_type),
        "segment_profiles": list(index.segment_profiles()),
        "n_profiles": index.n_profiles,
    }
