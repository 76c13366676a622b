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
reuse a score across same-profile segments without re-probing anything.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ModelError
from repro.model.metadata import AttrValue, SegmentMetadata

#: The shared empty postings tuple.
_EMPTY: Tuple[int, ...] = ()


def _frozen(postings: Dict[str, List[int]]) -> "Dict[str, Tuple[int, ...]]":
    return {key: tuple(values) for key, values in postings.items()}


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


def _content_key(segment: SegmentMetadata) -> tuple:
    """Canonical, order-insensitive key of a segment's full meta-data.

    Mixed-type values make direct tuple comparison unsafe, so the sorts
    key on ``repr`` — deterministic and total over our value types.  A
    metadata-free segment (registered-list corpora hold nothing else)
    gets the constant :data:`_NO_CONTENT` without building anything.
    """
    if (
        segment.signature is None
        and not segment.object_map()
        and not segment.attributes
        and not segment.relationships
    ):
        return _NO_CONTENT
    objects = tuple(
        sorted(
            (
                (
                    instance.object_id,
                    instance.type,
                    instance.confidence,
                    tuple(
                        sorted(
                            (
                                (name, fact.value, fact.confidence)
                                for name, fact in instance.attributes.items()
                            ),
                            key=repr,
                        )
                    ),
                )
                for instance in segment.objects()
            ),
            key=repr,
        )
    )
    attributes = tuple(
        sorted(
            (
                (name, fact.value, fact.confidence)
                for name, fact in segment.attributes.items()
            ),
            key=repr,
        )
    )
    relationships = tuple(
        sorted(
            (
                (rel.name, rel.args, rel.confidence)
                for rel in segment.relationships
            ),
            key=repr,
        )
    )
    # The content signature participates in the profile key: equal
    # profiles promise equal scores for *every* atom, and looks_like()
    # atoms score the signature, so two segments with equal E-R metadata
    # but different signatures must not share a profile.
    return objects, attributes, relationships, segment.signature


class MetadataIndex:
    """Postings lists for one sequence of segments (ids are 1-based)."""

    def __init__(self, segments: Sequence[SegmentMetadata]):
        self.n_segments = len(segments)
        by_object: Dict[str, List[int]] = {}
        by_type: Dict[str, List[int]] = {}
        by_relationship: Dict[str, List[int]] = {}
        by_segment_attr: Dict[Tuple[str, AttrValue], List[int]] = {}
        by_attr_name: Dict[str, List[int]] = {}
        with_any_object: List[int] = []
        with_signature: List[int] = []
        self._objects_of_type: Dict[str, List[str]] = {}
        object_types_seen: Dict[Tuple[str, str], None] = {}
        for segment_id, segment in enumerate(segments, start=1):
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
                if type_key not in object_types_seen:
                    object_types_seen[type_key] = None
                    self._objects_of_type.setdefault(instance.type, []).append(
                        instance.object_id
                    )
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
        self._by_object: Dict[str, Tuple[int, ...]] = _frozen(by_object)
        self._by_type: Dict[str, Tuple[int, ...]] = _frozen(by_type)
        self._by_relationship: Dict[str, Tuple[int, ...]] = _frozen(
            by_relationship
        )
        self._by_segment_attr: Dict[Tuple[str, AttrValue], Tuple[int, ...]] = {
            key: tuple(values) for key, values in by_segment_attr.items()
        }
        self._by_attr_name: Dict[str, Tuple[int, ...]] = _frozen(by_attr_name)
        self._with_any_object: Tuple[int, ...] = tuple(with_any_object)
        self._with_signature: Tuple[int, ...] = tuple(with_signature)
        profile_ids: Dict[tuple, int] = {}
        self._segment_profiles: Tuple[int, ...] = tuple(
            profile_ids.setdefault(_content_key(segment), len(profile_ids))
            for segment in segments
        )
        self.n_profiles = len(profile_ids)
        # Content keys are most of an index's memory (400 of 437 KB on the
        # dense benchmark corpus) and only appends read them, so none are
        # kept: the first append rebuilds one per profile from the
        # segments the index covers — this sequence, or after from_dict
        # (whose document has no keys) the caller's ``covered``.
        self._profile_keys: Optional[Dict[tuple, int]] = None
        self._built_over: Optional[Sequence[SegmentMetadata]] = segments

    # -- incremental maintenance ----------------------------------------------
    def append_segments(
        self,
        segments: Sequence[SegmentMetadata],
        covered: Sequence[SegmentMetadata] = (),
    ) -> int:
        """Extend the index over ``segments`` appended after the current
        sequence; returns the new segment count.

        Every postings family, the type pools, the content profiles and
        therefore :meth:`stats` are updated in place — no rebuild.  New ids
        continue the 1-based numbering, and because appends only ever add
        larger ids at the tails of posting tuples, the result is
        element-for-element identical to an index built over the full
        sequence (property-tested).

        The first append rebuilds the content keys of the current
        profile ids, one per profile, so appends reuse them as a rebuild
        would.  It reads them off the sequence the index was built over,
        or for an index restored by :meth:`from_dict` off ``covered``, the
        sequence the index already covers; nothing else reads
        ``covered``.
        """
        if not segments:
            return self.n_segments
        if self._profile_keys is None:
            if self._built_over is not None:
                covered = self._built_over
                self._built_over = None
            if len(covered) != self.n_segments:
                raise ModelError(
                    f"a restored index over {self.n_segments} segments "
                    f"needs them to append; {len(covered)} given"
                )
            # Equal ids mean equal content: one key per restored profile.
            keyed = set()
            self._profile_keys = {}
            for segment, profile in zip(covered, self._segment_profiles):
                if profile not in keyed:
                    keyed.add(profile)
                    self._profile_keys.setdefault(
                        _content_key(segment), profile
                    )
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
        for key, values in by_object.items():
            self._by_object[key] = self._by_object.get(key, _EMPTY) + tuple(
                values
            )
        for key, values in by_type.items():
            self._by_type[key] = self._by_type.get(key, _EMPTY) + tuple(
                values
            )
        for key, values in by_relationship.items():
            self._by_relationship[key] = self._by_relationship.get(
                key, _EMPTY
            ) + tuple(values)
        for attr_key, values in by_segment_attr.items():
            self._by_segment_attr[attr_key] = self._by_segment_attr.get(
                attr_key, _EMPTY
            ) + tuple(values)
        for key, values in by_attr_name.items():
            self._by_attr_name[key] = self._by_attr_name.get(
                key, _EMPTY
            ) + tuple(values)
        self._with_any_object = self._with_any_object + tuple(
            with_any_object
        )
        self._with_signature = self._with_signature + tuple(with_signature)
        profiles = list(self._segment_profiles)
        for segment in segments:
            content = _content_key(segment)
            profile = self._profile_keys.get(content)
            if profile is None:
                profile = self.n_profiles
                self._profile_keys[content] = profile
                self.n_profiles += 1
            profiles.append(profile)
        self._segment_profiles = tuple(profiles)
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
    def segment_profiles(self) -> Tuple[int, ...]:
        """Per-segment content profile ids, in segment order (0-indexed).

        Segments with equal profiles have equal meta-data up to
        reordering, hence equal scores for every atom, binding and pool.
        """
        return self._segment_profiles

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

    # -- persistence ----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe document of every postings structure.

        The store persists this next to the metadata it was derived from
        so a warm start can skip index construction; round-trip safe:
        ``from_dict(to_dict()).to_dict() == to_dict()``.
        """
        return {
            "n_segments": self.n_segments,
            "by_object": {
                key: list(ids) for key, ids in self._by_object.items()
            },
            "by_type": {key: list(ids) for key, ids in self._by_type.items()},
            "by_relationship": {
                key: list(ids) for key, ids in self._by_relationship.items()
            },
            # Tuple keys are not JSON keys; entries are (name, value, ids)
            # triples in a deterministic order.
            "by_segment_attr": sorted(
                (
                    [name, value, list(ids)]
                    for (name, value), ids in self._by_segment_attr.items()
                ),
                key=repr,
            ),
            "by_attr_name": {
                key: list(ids) for key, ids in self._by_attr_name.items()
            },
            "with_any_object": list(self._with_any_object),
            "with_signature": list(self._with_signature),
            "objects_of_type": {
                key: list(ids) for key, ids in self._objects_of_type.items()
            },
            "segment_profiles": list(self._segment_profiles),
            "n_profiles": self.n_profiles,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "MetadataIndex":
        """Rebuild an index from :meth:`to_dict` output (untrusted).

        Structural junk raises a typed :class:`~repro.errors.ModelError`;
        the caller (the store's load path) treats that as corruption and
        rebuilds from the surviving metadata instead.
        """
        try:
            index = cls.__new__(cls)
            index.n_segments = int(document["n_segments"])
            index._by_object = {
                str(key): tuple(int(i) for i in ids)
                for key, ids in document["by_object"].items()
            }
            index._by_type = {
                str(key): tuple(int(i) for i in ids)
                for key, ids in document["by_type"].items()
            }
            index._by_relationship = {
                str(key): tuple(int(i) for i in ids)
                for key, ids in document["by_relationship"].items()
            }
            index._by_segment_attr = {}
            for name, value, ids in document["by_segment_attr"]:
                index._by_segment_attr[(str(name), value)] = tuple(
                    int(i) for i in ids
                )
            index._by_attr_name = {
                str(key): tuple(int(i) for i in ids)
                for key, ids in document["by_attr_name"].items()
            }
            index._with_any_object = tuple(
                int(i) for i in document["with_any_object"]
            )
            # Documents written before the signature backend existed
            # describe corpora with no signatures, so the empty default
            # is exact for them.
            index._with_signature = tuple(
                int(i) for i in document.get("with_signature", [])
            )
            index._objects_of_type = {
                str(key): [str(i) for i in ids]
                for key, ids in document["objects_of_type"].items()
            }
            index._segment_profiles = tuple(
                int(p) for p in document["segment_profiles"]
            )
            index.n_profiles = int(document["n_profiles"])
            index._profile_keys = None
            index._built_over = None
        except ModelError:
            raise
        except Exception as error:
            raise ModelError(
                f"malformed metadata-index payload: {error!r}"
            ) from error
        if len(index._segment_profiles) != index.n_segments:
            raise ModelError(
                f"metadata-index payload carries {len(index._segment_profiles)} "
                f"segment profiles for {index.n_segments} segments"
            )
        return index

    # -- object universe ------------------------------------------------------
    def all_object_ids(self) -> List[str]:
        """Every universal object id appearing in the sequence."""
        return list(self._by_object)

    def object_ids_of_type(self, type_name: str) -> List[str]:
        """Object ids having the given type in some segment."""
        return list(self._objects_of_type.get(type_name, []))
