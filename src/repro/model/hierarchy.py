"""The hierarchical video model (paper §2.1).

A video is a tree: the root (level 1) is the whole video, each level is a
temporally ordered decomposition of the previous one (sub-plots, scenes,
shots, frames...), and all leaves lie at the same depth.  Levels may carry
names ("scene level", "frame level") used by the named level modal
operators.

A *video segment* is a node of the tree; a *proper sequence* is the
left-to-right sequence of descendants of one node at one level, which is
what temporal operators quantify over.  Segments within a sequence are
numbered from 1, matching the similarity-list convention.
"""

from __future__ import annotations

import weakref
from itertools import chain
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import HierarchyError, UnknownLevelError
from repro.model.metadata import SegmentMetadata

if TYPE_CHECKING:  # model is a lower layer than pictures
    from repro.pictures.retrieval import PictureRetrievalSystem


class VideoNode:
    """One video segment in the hierarchy tree."""

    __slots__ = (
        "metadata",
        "children",
        "_parent",
        "level",
        "index",
        "_pictures",
        "_universe",
        "edits",
        "__weakref__",
    )

    def __init__(
        self,
        metadata: Optional[SegmentMetadata] = None,
        children: Sequence["VideoNode"] = (),
    ):
        self.metadata = metadata if metadata is not None else SegmentMetadata()
        self.children: List[VideoNode] = list(children)
        self._parent: Optional["weakref.ref[VideoNode]"] = None
        self.level: int = 0  # assigned when attached to a Video
        self.index: int = 0  # 1-based position among siblings
        # level -> PictureRetrievalSystem over the descendants at that
        # level; built lazily by pictures_at_level and dropped whenever the
        # subtree grows.  Hanging the system off the node (instead of the
        # engine's throwaway sequence context) is what lets repeated
        # queries skip re-building the metadata index and scorer.
        self._pictures: Optional[Dict[int, object]] = None
        # On a video's root only: the object ids of the whole tree in
        # first-seen order (Video.object_universe), with the lifetime of
        # _pictures — dropped wherever that is dropped.
        self._universe: Optional[Dict[str, None]] = None
        # Read on a video's root only: bumped there by every mutation
        # that bypasses the database (add_child, invalidate_pictures on
        # any node, Video.append_segments), so the engine's list memo
        # keys the new state apart from the old one.
        self.edits = 0

    @property
    def parent(self) -> Optional["VideoNode"]:
        """The segment one level up; None at the root.

        Held weakly, so the tree has no reference cycle: a video nobody
        holds any more — replaced in its database, or dropped with it —
        is freed at once, not at the cycle collector's next full pass
        (which the query path, allocating few containers, rarely
        triggers).  A node kept on its own does not keep its ancestors.
        """
        parent = self._parent
        return None if parent is None else parent()

    @parent.setter
    def parent(self, node: Optional["VideoNode"]) -> None:
        self._parent = None if node is None else weakref.ref(node)

    def add_child(self, child: "VideoNode") -> "VideoNode":
        """Append a child segment and return it (builder convenience)."""
        self.children.append(child)
        node: Optional[VideoNode] = self
        while node is not None:
            node._pictures = None
            node._universe = None
            if node.parent is None:
                node.edits += 1
            node = node.parent
        return child

    def pictures_at_level(self, level: int) -> "PictureRetrievalSystem":
        """The (cached) picture-retrieval system over the proper sequence of
        descendants at an absolute level.

        The system is a pure function of the descendants' metadata;
        ``add_child`` invalidates the cache up the ancestor chain.  Mutating
        a segment's metadata in place does *not* invalidate — rebuild the
        node (or call ``invalidate_pictures``) after such edits.
        """
        if self._pictures is None:
            self._pictures = {}
        system = self._pictures.get(level)
        if system is None:
            # Imported here: model is a lower layer than pictures.
            from repro.pictures.retrieval import PictureRetrievalSystem

            system = PictureRetrievalSystem(
                [node.metadata for node in self.descendants_at_level(level)]
            )
            self._pictures[level] = system
        return system

    def invalidate_pictures(self) -> None:
        """Drop cached picture systems (and, on a root, the cached object
        universe) on this node and all descendants, and count an edit on
        the root."""
        top = self
        while top.parent is not None:
            top = top.parent
        top.edits += 1
        for node in self.walk():
            node._pictures = None
            node._universe = None

    def install_pictures(
        self, level: int, system: "PictureRetrievalSystem"
    ) -> None:
        """Install a prebuilt picture system for one level (warm start).

        The store's load path uses this to hand a restored metadata
        index to the engine without re-deriving it.  The caller
        guarantees the system was built over exactly the metadata of
        ``descendants_at_level(level)``; ``add_child`` invalidates it
        like any cached system.
        """
        if self._pictures is None:
            self._pictures = {}
        self._pictures[level] = system

    def is_leaf(self) -> bool:
        return not self.children

    def descendants_at_level(self, level: int) -> List["VideoNode"]:
        """The proper sequence of descendants at an absolute level.

        ``level`` must be at or below this node's own level; the node itself
        is returned for its own level.
        """
        if level < self.level:
            raise UnknownLevelError(
                f"node at level {self.level} has no ancestors-as-descendants "
                f"at level {level}"
            )
        if level == self.level:
            return [self]
        # One level down — a flat video's segments — is a plain copy;
        # deeper levels chain the children of the level above.
        current = list(self.children)
        for __ in range(level - self.level - 1):
            current = list(
                chain.from_iterable(node.children for node in current)
            )
        return current

    def walk(self) -> Iterator["VideoNode"]:
        """This node and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"VideoNode(level={self.level}, index={self.index}, "
            f"children={len(self.children)})"
        )


@dataclass
class Video:
    """A video: name, hierarchy root, and level naming.

    ``level_names`` maps a level number (1-based, root = 1) to a name such
    as ``"scene"`` or ``"frame"``; names must be unique.  Construction
    validates the hierarchy: every leaf at the same depth, so "all the
    leaves in the tree lie at the same level" (paper §2.1).
    """

    name: str
    root: VideoNode
    level_names: Dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._assign_levels()
        self.depth = self._validate_uniform_depth()
        seen: Dict[str, int] = {}
        for level, level_name in self.level_names.items():
            if level < 1 or level > self.depth:
                raise UnknownLevelError(
                    f"level name {level_name!r} maps to level {level}, "
                    f"but the video has levels 1..{self.depth}"
                )
            if level_name in seen:
                raise HierarchyError(
                    f"duplicate level name {level_name!r} for levels "
                    f"{seen[level_name]} and {level}"
                )
            seen[level_name] = level
        self._name_to_level = seen

    def _assign_levels(self) -> None:
        self.root.level = 1
        self.root.index = 1
        self.root.parent = None
        stack = [self.root]
        while stack:
            node = stack.pop()
            for position, child in enumerate(node.children, start=1):
                child.level = node.level + 1
                child.index = position
                child.parent = node
                stack.append(child)

    def _validate_uniform_depth(self) -> int:
        depths = {node.level for node in self.root.walk() if node.is_leaf()}
        if len(depths) != 1:
            raise HierarchyError(
                f"video {self.name!r} has leaves at levels "
                f"{sorted(depths)}; all leaves must lie at the same level"
            )
        return depths.pop()

    # -- level resolution -----------------------------------------------------
    @property
    def n_levels(self) -> int:
        """Number of levels; leaves (frames) live at level ``n_levels``."""
        return self.depth

    def level_of(self, name: str) -> int:
        """Resolve a level name to its number."""
        try:
            return self._name_to_level[name]
        except KeyError:
            raise UnknownLevelError(
                f"video {self.name!r} has no level named {name!r}; "
                f"known: {sorted(self._name_to_level)}"
            ) from None

    def nodes_at_level(self, level: int) -> List[VideoNode]:
        """All segments at an absolute level, in temporal order."""
        if level < 1 or level > self.depth:
            raise UnknownLevelError(
                f"video {self.name!r} has levels 1..{self.depth}, "
                f"asked for {level}"
            )
        return self.root.descendants_at_level(level)

    def segments(self) -> Iterator[VideoNode]:
        """All segments of the video, pre-order."""
        return self.root.walk()

    def object_universe(self) -> List[str]:
        """All universal object ids appearing anywhere in the video, in
        first-seen (pre-order) order; the caller owns the returned list.

        The first call walks the hierarchy and keeps the result on the
        root, beside the cached picture systems and with their lifetime:
        ``add_child`` anywhere in the tree and ``invalidate_pictures`` on
        the root drop it, :meth:`append_segments` extends it in place.
        Mutating a segment's metadata in place does *not* invalidate —
        call ``root.invalidate_pictures()`` after such edits, as for
        :meth:`VideoNode.pictures_at_level`.
        """
        root = self.root
        seen = root._universe
        if seen is None:
            seen = {}
            for node in root.walk():
                for object_id in node.metadata.object_ids():
                    seen.setdefault(object_id, None)
            root._universe = seen
        return list(seen)

    # -- incremental growth -----------------------------------------------
    def append_segments(
        self, segments: Sequence[SegmentMetadata]
    ) -> List[VideoNode]:
        """Append leaf segments to a flat (≤ two-level) video in place.

        The streaming-ingest mutation primitive.  Unlike raw
        ``root.add_child`` calls — which drop every cached picture system
        up the ancestor chain — this keeps the root's installed systems
        warm: the level-1 system covers only the root's own metadata
        (unaffected), and the level-2 system is extended incrementally via
        :meth:`~repro.pictures.retrieval.PictureRetrievalSystem.
        append_segments`.  Deeper hierarchies have no well-defined "append
        at the end" (which subtree grows?), so only the paper's flat shape
        is supported.
        """
        if self.depth > 2:
            raise HierarchyError(
                f"video {self.name!r} has {self.depth} levels; segments "
                "can only be appended to a flat (two-level) video"
            )
        if not segments:
            return []
        root = self.root
        root.edits += 1
        pictures = root._pictures
        root._pictures = None
        if root._universe is not None:
            # New children come last in the pre-order walk, so their
            # first-seen ids extend the cached order exactly.
            for metadata in segments:
                for object_id in metadata.object_ids():
                    root._universe.setdefault(object_id, None)
        added: List[VideoNode] = []
        for position, metadata in enumerate(
            segments, start=len(root.children) + 1
        ):
            child = VideoNode(metadata=metadata)
            child.level = 2
            child.index = position
            child.parent = root
            root.children.append(child)
            added.append(child)
        self.depth = 2
        # A video born empty had no leaf level to name yet.
        if 2 not in self.level_names:
            self.level_names[2] = "shot"
            self._name_to_level["shot"] = 2
        if pictures:
            level_one = pictures.get(1)
            if level_one is not None:
                root.install_pictures(1, level_one)
            level_two = pictures.get(2)
            if level_two is not None:
                level_two.append_segments(
                    [child.metadata for child in added]
                )
                root.install_pictures(2, level_two)
        return added


def flat_video(
    name: str,
    segments: Sequence[SegmentMetadata],
    root_metadata: Optional[SegmentMetadata] = None,
    child_level_name: str = "shot",
) -> Video:
    """Build the paper's two-level video: a root with a flat child sequence.

    This is the shape §3 assumes ("each video has only two levels, the root
    node and its children") and the shape the experiments use, with every
    child a shot.
    """
    root = VideoNode(metadata=root_metadata)
    for metadata in segments:
        root.add_child(VideoNode(metadata=metadata))
    level_names = {1: "video"}
    if segments:
        level_names[2] = child_level_name
    return Video(name=name, root=root, level_names=level_names)


def standard_level_names(depth: int) -> Dict[int, str]:
    """The paper's canonical naming for a ``depth``-level hierarchy.

    Five levels: video / subplot / scene / shot / frame; shallower videos
    take a suffix of that list (the leaf level is always the finest name).
    """
    canonical = ["video", "subplot", "scene", "shot", "frame"]
    if depth < 1 or depth > len(canonical):
        raise HierarchyError(
            f"standard naming covers 1..{len(canonical)} levels, got {depth}"
        )
    names = ["video"] + canonical[len(canonical) - depth + 1 :]
    return {level: name for level, name in enumerate(names, start=1)}
