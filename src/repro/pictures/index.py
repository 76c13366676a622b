"""Inverted indices over segment meta-data.

The picture-retrieval systems the paper builds on ([27, 25, 2]) answer
atomic queries "employing indices on the meta-data"; this module provides
the equivalent: postings lists from objects, types, relationship names and
segment attributes to 1-based segment ids.

Postings are deduplicated once, at construction, and stored as sorted
tuples; accessors return the stored tuples directly (no per-call copies),
so the support-set analysis of :mod:`repro.pictures.support` can
intersect/union them without paying a rebuild per atom per binding.

Construction also assigns every segment a **content profile id**: two
segments share a profile exactly when their full meta-data is equal up
to reordering (of objects, attributes and relationships).  Scoring is
invariant under those reorderings, so the index-driven evaluator can
reuse a score across same-profile segments without re-probing anything:
the sweep per candidate, and a routed binding by scoring each profile's
first segment (:meth:`MetadataIndex.profile_representatives`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.model.metadata import AttrValue, SegmentMetadata

#: The shared empty postings tuple.
_EMPTY: Tuple[int, ...] = ()


def _extend(
    postings: Dict[Any, Tuple[int, ...]], new: Dict[Any, List[int]]
) -> None:
    """Append each key's new ids at the tail of its postings tuple."""
    for key, values in new.items():
        postings[key] = postings.get(key, _EMPTY) + tuple(values)


def _length_summary(lengths: List[int]) -> Dict[str, float]:
    """Mean / p50 / p90 / max of one family's posting-list lengths.

    Percentiles use the nearest-rank method over the sorted lengths, so
    the summary is exact and stable for the handful-of-keys families
    typical here; everything is 0 for an empty family.
    """
    if not lengths:
        return {"mean": 0.0, "p50": 0, "p90": 0, "max": 0}
    ordered = sorted(lengths)
    count = len(ordered)

    def rank(fraction: float) -> int:
        position = max(1, math.ceil(fraction * count))
        return ordered[min(count, position) - 1]

    return {
        "mean": sum(ordered) / count,
        "p50": rank(0.50),
        "p90": rank(0.90),
        "max": ordered[-1],
    }


#: The content key of a segment with no objects, attributes,
#: relationships or signature: what :func:`_content_key` would build.
_NO_CONTENT: tuple = ((), (), (), None)


def _canonical(items: List[tuple]) -> tuple:
    """``items`` as a tuple in ``repr`` order.

    Mixed-type values make direct tuple comparison unsafe, so the sort
    keys on ``repr`` — deterministic and total over our value types.
    Fewer than two items need no sort, and most collections are empty.
    """
    if len(items) > 1:
        items.sort(key=repr)
    return tuple(items)


def _facts(facts: Dict[str, Any]) -> tuple:
    """The canonical ``(name, value, confidence)`` triples of a fact map."""
    if not facts:
        return ()
    return _canonical(
        [(name, fact.value, fact.confidence) for name, fact in facts.items()]
    )


def _content_key(segment: SegmentMetadata) -> tuple:
    """Canonical, order-insensitive key of a segment's full meta-data.

    A metadata-free segment (registered-list corpora hold nothing else)
    gets the constant :data:`_NO_CONTENT` without building anything, and
    an empty collection inside a key costs no sort.
    """
    object_map = segment.object_map()
    relationships = segment.relationships
    if (
        segment.signature is None
        and not object_map
        and not segment.attributes
        and not relationships
    ):
        return _NO_CONTENT
    objects = (
        _canonical(
            [
                (
                    instance.object_id,
                    instance.type,
                    instance.confidence,
                    _facts(instance.attributes),
                )
                for instance in object_map.values()
            ]
        )
        if object_map
        else ()
    )
    links = (
        _canonical(
            [(rel.name, rel.args, rel.confidence) for rel in relationships]
        )
        if relationships
        else ()
    )
    # The content signature participates in the profile key: equal
    # profiles promise equal scores for *every* atom, and looks_like()
    # atoms score the signature, so two segments with equal E-R metadata
    # but different signatures must not share a profile.
    return objects, _facts(segment.attributes), links, segment.signature


class MetadataIndex:
    """Postings lists for one sequence of segments (ids are 1-based)."""

    def __init__(self, segments: Sequence[SegmentMetadata]):
        self.n_segments = 0
        self._by_object: Dict[str, Tuple[int, ...]] = {}
        self._by_type: Dict[str, Tuple[int, ...]] = {}
        self._by_relationship: Dict[str, Tuple[int, ...]] = {}
        self._by_segment_attr: Dict[
            Tuple[str, AttrValue], Tuple[int, ...]
        ] = {}
        self._by_attr_name: Dict[str, Tuple[int, ...]] = {}
        self._with_any_object: Tuple[int, ...] = _EMPTY
        self._with_signature: Tuple[int, ...] = _EMPTY
        self._objects_of_type: Dict[str, List[str]] = {}
        #: (profile id per segment, first segment position per profile
        #: id), both 0-based: one attribute, so a reader never pairs new
        #: ids with old representatives.
        self._profiles: Tuple[Tuple[int, ...], Tuple[int, ...]] = (
            _EMPTY,
            _EMPTY,
        )
        #: Content key -> profile id, while the index holds them.
        self._profile_keys: Optional[Dict[tuple, int]] = {}
        self.append_segments(segments)
        # Content keys are most of an index's memory (400 of 437 KB on the
        # dense benchmark corpus) and only appends read them, so none are
        # kept: the first append rebuilds one per profile from the
        # segments the index was built over.
        self._profile_keys = None
        self._built_over: Optional[Sequence[SegmentMetadata]] = segments

    # -- incremental maintenance ----------------------------------------------
    def append_segments(self, segments: Sequence[SegmentMetadata]) -> int:
        """Extend the index over ``segments`` appended after the current
        sequence; returns the new segment count.

        The one build loop: a new index is an empty one extended over its
        segments.  Every postings family, the type pools, the content
        profiles and therefore :meth:`stats` are updated in place.  New
        ids continue the 1-based numbering, and because appends only ever
        add larger ids at the tails of posting tuples, the result is
        element-for-element identical to an index built over the full
        sequence (property-tested).

        The first append after a build rebuilds the content keys of the
        current profile ids, one per profile, off the sequence the index
        was built over, so appends reuse them as a rebuild would.
        """
        if not segments:
            return self.n_segments
        if self._profile_keys is None:
            built_over, self._built_over = self._built_over, None
            # Equal ids mean equal content: one key per profile, read
            # off its first segment.
            self._profile_keys = {
                _content_key(built_over[position]): profile
                for profile, position in enumerate(self._profiles[1])
            }
        by_object: Dict[str, List[int]] = {}
        by_type: Dict[str, List[int]] = {}
        by_relationship: Dict[str, List[int]] = {}
        by_segment_attr: Dict[Tuple[str, AttrValue], List[int]] = {}
        by_attr_name: Dict[str, List[int]] = {}
        with_any_object: List[int] = []
        with_signature: List[int] = []
        typed_seen = {
            (type_name, object_id)
            for type_name, object_ids in self._objects_of_type.items()
            for object_id in object_ids
        }
        for segment_id, segment in enumerate(
            segments, start=self.n_segments + 1
        ):
            if segment.signature is not None:
                with_signature.append(segment_id)
            saw_object = False
            for instance in segment.objects():
                saw_object = True
                by_object.setdefault(instance.object_id, []).append(
                    segment_id
                )
                type_postings = by_type.setdefault(instance.type, [])
                if not type_postings or type_postings[-1] != segment_id:
                    type_postings.append(segment_id)
                type_key = (instance.type, instance.object_id)
                if type_key not in typed_seen:
                    typed_seen.add(type_key)
                    self._objects_of_type.setdefault(
                        instance.type, []
                    ).append(instance.object_id)
            if saw_object:
                with_any_object.append(segment_id)
            for relationship in segment.relationships:
                rel_postings = by_relationship.setdefault(
                    relationship.name, []
                )
                if not rel_postings or rel_postings[-1] != segment_id:
                    rel_postings.append(segment_id)
            for name, fact in segment.attributes.items():
                by_segment_attr.setdefault((name, fact.value), []).append(
                    segment_id
                )
                by_attr_name.setdefault(name, []).append(segment_id)
        _extend(self._by_object, by_object)
        _extend(self._by_type, by_type)
        _extend(self._by_relationship, by_relationship)
        _extend(self._by_segment_attr, by_segment_attr)
        _extend(self._by_attr_name, by_attr_name)
        self._with_any_object += tuple(with_any_object)
        self._with_signature += tuple(with_signature)
        # Profiles are numbered in order of first appearance: an unseen
        # key takes the next id (``len`` is read before the insert).
        keys = self._profile_keys
        known = len(keys)
        ids = [
            keys.setdefault(content, len(keys))
            for content in map(_content_key, segments)
        ]
        firsts = self._profiles[1]
        if len(keys) > known:
            # Each new profile's first position: written back to front,
            # so the earliest position of an id is the one that stays.
            start = self.n_segments
            backwards = range(start + len(ids) - 1, start - 1, -1)
            first_of = dict(zip(reversed(ids), backwards))
            firsts += tuple(map(first_of.__getitem__, range(known, len(keys))))
        self._profiles = (self._profiles[0] + tuple(ids), firsts)
        self.n_segments += len(segments)
        return self.n_segments

    # -- postings -----------------------------------------------------------
    def segments_with_object(self, object_id: str) -> Tuple[int, ...]:
        """Ids of segments in which the object appears."""
        return self._by_object.get(object_id, _EMPTY)

    def segments_with_type(self, type_name: str) -> Tuple[int, ...]:
        """Ids of segments containing at least one object of the type."""
        return self._by_type.get(type_name, _EMPTY)

    def segments_with_relationship(self, name: str) -> Tuple[int, ...]:
        """Ids of segments containing a relationship with the name."""
        return self._by_relationship.get(name, _EMPTY)

    def segments_with_attribute(
        self, name: str, value: AttrValue
    ) -> Tuple[int, ...]:
        """Ids of segments whose segment attribute has exactly the value."""
        return self._by_segment_attr.get((name, value), _EMPTY)

    def segments_with_attribute_name(self, name: str) -> Tuple[int, ...]:
        """Ids of segments where the segment attribute is defined at all."""
        return self._by_attr_name.get(name, _EMPTY)

    def segments_with_any_object(self) -> Tuple[int, ...]:
        """Ids of segments containing at least one object."""
        return self._with_any_object

    def segments_with_signature(self) -> Tuple[int, ...]:
        """Ids of segments carrying a content signature.

        The support set of ``looks_like`` atoms: a segment without a
        signature scores the atom's baseline (0), exactly like the
        representative empty segment.
        """
        return self._with_signature

    # -- content profiles ----------------------------------------------------
    @property
    def n_profiles(self) -> int:
        """The number of distinct content profiles."""
        return len(self._profiles[1])

    def segment_profiles(self) -> Tuple[int, ...]:
        """Per-segment content profile ids, in segment order (0-indexed).

        Segments with equal profiles have equal meta-data up to
        reordering, hence equal scores for every atom, binding and pool.
        Profile ids are ``0 .. n_profiles - 1``, numbered in order of
        first appearance, by a build and by appends alike.
        Two users read them: the indexed sweep shares a score between
        candidates of one profile, and a routed binding scores each
        profile once (:meth:`profile_representatives`).
        """
        return self._profiles[0]

    def profile_representatives(
        self,
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``(segment_profiles(), firsts)`` read together, where
        ``firsts[p]`` is the 0-based position of profile ``p``'s first
        segment.  Replaced in one assignment with the profile ids, so the
        two always describe one sequence."""
        return self._profiles

    # -- introspection --------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Size summary of the index, for ``shard info``, the planner and
        diagnostics.

        ``postings`` maps each postings family to its key count, the total
        number of posted segment ids, and a ``lengths`` summary of the
        posting-list length distribution (mean / p50 / p90 / max, all 0 for
        an empty family) — the selectivity raw material of
        :mod:`repro.core.planner`.  ``pools`` summarises the quantities an
        ``∃`` iterates over: the object universe size and the
        any-object-present segment count.  ``profile_dedup`` is the
        fraction of segments collapsed away by content-profile sharing
        (0.0 when every segment is unique).
        """
        families = {
            "object": self._by_object,
            "type": self._by_type,
            "relationship": self._by_relationship,
            "segment_attr": self._by_segment_attr,
            "attr_name": self._by_attr_name,
        }
        postings = {
            name: {
                "keys": len(table),
                "entries": sum(len(ids) for ids in table.values()),
                "lengths": _length_summary(
                    [len(ids) for ids in table.values()]
                ),
            }
            for name, table in families.items()
        }
        dedup = (
            1.0 - self.n_profiles / self.n_segments
            if self.n_segments
            else 0.0
        )
        return {
            "n_segments": self.n_segments,
            "n_profiles": self.n_profiles,
            "profile_dedup": dedup,
            "postings": postings,
            "pools": {
                "universe": len(self._by_object),
                "types": len(self._objects_of_type),
                "any_object_segments": len(self._with_any_object),
                "signature_segments": len(self._with_signature),
            },
        }

    # -- object universe ------------------------------------------------------
    def all_object_ids(self) -> List[str]:
        """Every universal object id appearing in the sequence."""
        return list(self._by_object)

    def object_ids_of_type(self, type_name: str) -> List[str]:
        """Object ids having the given type in some segment."""
        return list(self._objects_of_type.get(type_name, []))
