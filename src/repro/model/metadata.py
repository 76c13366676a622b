"""Meta-data associated with video segments (paper §2.1).

The paper attaches meta-data to every video segment in the hierarchy, in an
extended E-R style: the *objects* appearing in the segment (each with a
universal object id — "the same object in different pictures is given the
same id"), their *attributes*, the *relationships* among them, and
segment-level attributes (a shot's type, a movie's title...).

Every fact carries a *confidence* in ``(0, 1]``: the image-analysis
algorithms producing meta-data are imperfect (paper §1), and the
picture-retrieval scoring scales a matched condition's weight by the fact's
confidence — this is how non-integral similarity values such as the paper's
``9.787`` arise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.errors import MetadataError

#: Values attributes may take.
AttrValue = Union[str, int, float]

#: Relationship arguments are object ids or constant values.
RelArg = Union[str, int, float]


@dataclass(frozen=True)
class Fact:
    """An attribute value together with the analyzer's confidence."""

    value: AttrValue
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence <= 1.0:
            raise MetadataError(
                f"confidence must be in (0, 1], got {self.confidence}"
            )


def as_fact(value: Union[AttrValue, Fact]) -> Fact:
    """Coerce a plain value to a full-confidence :class:`Fact`."""
    if isinstance(value, Fact):
        return value
    return Fact(value)


@dataclass
class ObjectInstance:
    """An object appearing in one segment: id, type, attributes, confidence.

    ``object_id`` is the universal id shared across segments; ``confidence``
    is the detection confidence of the object itself.
    """

    object_id: str
    type: str
    attributes: Dict[str, Fact] = field(default_factory=dict)
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence <= 1.0:
            raise MetadataError(
                f"object confidence must be in (0, 1], got {self.confidence}"
            )
        self.attributes = {
            name: as_fact(value) for name, value in self.attributes.items()
        }

    def attribute(self, name: str) -> Optional[Fact]:
        """The attribute fact, or None when undefined.

        ``type`` and ``name`` resolve specially: ``type`` always falls back
        to the object's type so queries like ``type(x) = 'airplane'`` work
        without duplicating it into the attribute map.
        """
        fact = self.attributes.get(name)
        if fact is not None:
            return fact
        if name == "type":
            return Fact(self.type, self.confidence)
        return None


@dataclass(frozen=True)
class Relationship:
    """A named k-ary relationship among objects/constants in one segment."""

    name: str
    args: Tuple[RelArg, ...]
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not self.args:
            raise MetadataError(f"relationship {self.name!r} needs arguments")
        if not 0.0 < self.confidence <= 1.0:
            raise MetadataError(
                f"relationship confidence must be in (0, 1], got "
                f"{self.confidence}"
            )


def _validated_signature(
    signature: Optional[Iterable[float]],
) -> Optional[Tuple[float, ...]]:
    """Coerce and validate an optional content signature.

    Signatures are normalised colour-histogram vectors produced by the
    analyzer (:mod:`repro.analyzer.features`); the metadata layer only
    enforces the domain — finite, non-negative numbers — so corrupt store
    artifacts cannot smuggle NaNs or negative mass into signature scoring.
    """
    if signature is None:
        return None
    values = tuple(signature)
    if not values:
        raise MetadataError("a content signature needs at least one bin")
    for position, bin_value in enumerate(values):
        if (
            not isinstance(bin_value, (int, float))
            or isinstance(bin_value, bool)
            or not math.isfinite(bin_value)
            or bin_value < 0
        ):
            raise MetadataError(
                f"signature bin {position} must be a finite non-negative "
                f"number, got {bin_value!r}"
            )
    return tuple(float(bin_value) for bin_value in values)


class SegmentMetadata:
    """All meta-data of one video segment."""

    __slots__ = ("attributes", "_objects", "relationships", "signature")

    def __init__(
        self,
        attributes: Optional[Mapping[str, Union[AttrValue, Fact]]] = None,
        objects: Iterable[ObjectInstance] = (),
        relationships: Iterable[Relationship] = (),
        signature: Optional[Iterable[float]] = None,
    ):
        self.attributes: Dict[str, Fact] = {
            name: as_fact(value) for name, value in (attributes or {}).items()
        }
        self._objects: Dict[str, ObjectInstance] = {}
        for instance in objects:
            self.add_object(instance)
        self.relationships: List[Relationship] = list(relationships)
        # Optional content signature: the shot-averaged colour histogram
        # the signature backend scores looks_like() atoms against.  None
        # means "no content analysis ran" — annotation-only retrieval.
        self.signature: Optional[Tuple[float, ...]] = _validated_signature(
            signature
        )

    # -- objects ----------------------------------------------------------
    def add_object(self, instance: ObjectInstance) -> None:
        """Register an object appearance; ids are unique per segment."""
        if instance.object_id in self._objects:
            raise MetadataError(
                f"object {instance.object_id!r} appears twice in one segment"
            )
        self._objects[instance.object_id] = instance

    def object(self, object_id: str) -> Optional[ObjectInstance]:
        """The object instance by universal id, or None when absent."""
        return self._objects.get(object_id)

    def object_map(self) -> Mapping[str, ObjectInstance]:
        """The segment's objects by universal id, in insertion order.

        The live mapping, not a copy — read it, never mutate it (use
        :meth:`add_object`).  The compiled atom kernel iterates it and
        tests membership in it once per ``∃`` call.
        """
        return self._objects

    def objects(self) -> Iterator[ObjectInstance]:
        """Iterate all objects of the segment."""
        return iter(self._objects.values())

    def object_ids(self) -> Iterator[str]:
        """Iterate the universal ids of all objects in the segment."""
        return iter(self._objects.keys())

    def has_object(self, object_id: str) -> bool:
        return object_id in self._objects

    # -- attributes ---------------------------------------------------------
    def segment_attribute(self, name: str) -> Optional[Fact]:
        """A segment-level attribute fact, or None when undefined."""
        return self.attributes.get(name)

    def object_attribute(self, object_id: str, name: str) -> Optional[Fact]:
        """An attribute of an object in this segment, or None."""
        instance = self._objects.get(object_id)
        if instance is None:
            return None
        return instance.attribute(name)

    # -- relationships --------------------------------------------------------
    def add_relationship(self, relationship: Relationship) -> None:
        self.relationships.append(relationship)

    def find_relationship(
        self, name: str, args: Tuple[RelArg, ...]
    ) -> Optional[Relationship]:
        """The relationship with exactly this name and argument tuple."""
        for relationship in self.relationships:
            if relationship.name == name and relationship.args == args:
                return relationship
        return None

    def relationships_named(self, name: str) -> Iterator[Relationship]:
        """All relationships with the given name."""
        return (rel for rel in self.relationships if rel.name == name)

    def __repr__(self) -> str:
        return (
            f"SegmentMetadata(attrs={list(self.attributes)}, "
            f"objects={list(self._objects)}, "
            f"rels={[rel.name for rel in self.relationships]})"
        )


def make_object(
    object_id: str,
    type: str,
    confidence: float = 1.0,
    **attributes: Union[AttrValue, Fact],
) -> ObjectInstance:
    """Keyword-friendly :class:`ObjectInstance` constructor."""
    return ObjectInstance(
        object_id=object_id,
        type=type,
        attributes=dict(attributes),
        confidence=confidence,
    )
