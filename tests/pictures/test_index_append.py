"""Incremental index maintenance vs. the full-rebuild oracle.

Streaming ingestion (DESIGN.md §15) extends a video's metadata index in
place via :meth:`MetadataIndex.append_segments` instead of rebuilding
it.  The contract, property-tested here over random segment lists and
random split points: build-prefix-then-append is *document-identical*
to building over the whole sequence — every postings family, the type
pools, the content profiles, and hence every query answer — also after
a ``from_dict`` restore, whose first append rebuilds the content keys
the persisted document does not carry from the segments it covers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.pictures.index import MetadataIndex
from repro.pictures.retrieval import PictureRetrievalSystem
from tests.pictures.test_index_driven import (
    assert_tables_equal,
    nontemporal_atoms,
    segment_lists,
)


@st.composite
def split_segment_lists(draw):
    segments = draw(segment_lists(max_segments=8))
    cut = draw(st.integers(0, len(segments)))
    return segments, cut


class TestAppendEqualsRebuild:
    @settings(max_examples=120, deadline=None)
    @given(data=split_segment_lists())
    def test_appended_index_document_identical(self, data):
        segments, cut = data
        grown = MetadataIndex(segments[:cut])
        grown.append_segments(segments[cut:])
        assert grown.to_dict() == MetadataIndex(segments).to_dict()

    @settings(max_examples=60, deadline=None)
    @given(data=split_segment_lists())
    def test_append_after_restore_is_document_identical(self, data):
        segments, cut = data
        document = MetadataIndex(segments[:cut]).to_dict()
        restored = MetadataIndex.from_dict(document)
        restored.append_segments(segments[cut:], covered=segments[:cut])
        assert restored.to_dict() == MetadataIndex(segments).to_dict()
        if cut and cut < len(segments):
            # Without the covered segments the restored profile ids have
            # no content keys to extend.
            with pytest.raises(ModelError, match="restored index"):
                MetadataIndex.from_dict(document).append_segments(
                    segments[cut:]
                )

    @settings(max_examples=60, deadline=None)
    @given(data=split_segment_lists(), atom=nontemporal_atoms())
    def test_appended_system_answers_like_full_build(self, data, atom):
        segments, cut = data
        grown = PictureRetrievalSystem(segments[:cut])
        grown.append_segments(segments[cut:])
        whole = PictureRetrievalSystem(segments)
        assert_tables_equal(
            grown.similarity_table(atom, use_index=True),
            whole.similarity_table(atom, use_index=True),
        )
