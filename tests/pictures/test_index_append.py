"""Incremental index maintenance vs. the full-rebuild oracle.

Streaming ingestion (DESIGN.md §15) extends a video's metadata index in
place via :meth:`MetadataIndex.append_segments` instead of rebuilding
it.  The contract, property-tested here over random segment lists and
random split points: build-prefix-then-append is *document-identical*
to building over the whole sequence — every postings family, the type
pools, the content profiles, and hence every query answer.  The first
append rebuilds the content keys the index does not keep from the
segments it was built over.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.metadata import Relationship, SegmentMetadata, make_object
from repro.pictures import index as index_module
from repro.pictures.index import MetadataIndex
from repro.pictures.retrieval import PictureRetrievalSystem
from tests.pictures.index_document import index_document
from tests.pictures.test_index_driven import (
    assert_tables_equal,
    nontemporal_atoms,
    segment_lists,
)
from tests.pictures.test_routed_profiles import repeating_sequences


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
        assert index_document(grown) == index_document(
            MetadataIndex(segments)
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


def content_segments():
    """Metadata-free segments interleaved with one segment per kind of
    content, and a repeat of each, with their expected profile ids."""
    person = [make_object("o1", "person")]
    kinds = [
        lambda: SegmentMetadata(objects=person),
        lambda: SegmentMetadata(attributes={"kind": "a"}),
        lambda: SegmentMetadata(relationships=[Relationship("near", ("o1",))]),
        lambda: SegmentMetadata(signature=(1.0, 2.0)),
    ]
    segments = [SegmentMetadata()]
    for make in kinds + kinds:
        segments += [make(), SegmentMetadata()]
    return segments, (0, 1, 0, 2, 0, 3, 0, 4, 0, 1, 0, 2, 0, 3, 0, 4, 0)


class TestMetadataFreeProfiles:
    """Metadata-free segments share one constant content key: their
    profiles are what the full key gave them, fresh and after an
    append."""

    def test_fresh_build(self):
        segments, expected = content_segments()
        index = MetadataIndex(segments)
        assert index.segment_profiles() == expected
        assert index.n_profiles == 5
        empty = MetadataIndex([SegmentMetadata() for __ in range(32)])
        assert empty.segment_profiles() == (0,) * 32
        assert empty.n_profiles == 1

    @pytest.mark.parametrize("cut", [0, 1, 2, 9, 16, 17])
    def test_append(self, cut):
        segments, expected = content_segments()
        grown = MetadataIndex(segments[:cut])
        grown.append_segments(segments[cut:])
        assert grown.segment_profiles() == expected
        assert grown.n_profiles == 5


def reference_content_key(segment):
    """The content key as it was first written: every collection sorted
    by ``repr``, empty ones included."""
    if segment.signature is None and not (
        segment.object_map() or segment.attributes or segment.relationships
    ):
        return index_module._NO_CONTENT

    def facts(table):
        triples = ((name, f.value, f.confidence) for name, f in table.items())
        return tuple(sorted(triples, key=repr))

    objects = tuple(
        sorted(
            (
                (i.object_id, i.type, i.confidence, facts(i.attributes))
                for i in segment.objects()
            ),
            key=repr,
        )
    )
    relationships = tuple(
        sorted(
            ((r.name, r.args, r.confidence) for r in segment.relationships),
            key=repr,
        )
    )
    return objects, facts(segment.attributes), relationships, segment.signature


@settings(max_examples=150, deadline=None)
@given(drawn=repeating_sequences())
def test_content_key_skips_no_sort_that_changes_it(drawn):
    """Empty and single-item collections skip the sort; every key, and
    so every profile id, is the fully sorted key's."""
    segments, __ = drawn
    segments = segments + [SegmentMetadata()]
    for segment in segments:
        assert index_module._content_key(segment) == reference_content_key(
            segment
        )
    with mock.patch.object(
        index_module, "_content_key", reference_content_key
    ):
        reference = MetadataIndex(segments)
    assert MetadataIndex(segments).segment_profiles() == (
        reference.segment_profiles()
    )
