"""Content-signature similarity: the second picture-retrieval backend.

The paper grounds retrieval in annotation metadata and gestures (refs
[27, 25, 2]) at the content-based matching it never builds; this module
is that backend (DESIGN.md §16).  A *segment signature* is the
shot-averaged colour histogram the analyzer attaches to
:class:`~repro.model.metadata.SegmentMetadata`; a *query clip* is a tuple
of such signature windows.  The atomic predicate
``looks_like(clip, θ)`` scores a segment by its best per-window
similarity when that clears the threshold, and 0 otherwise — a closed
non-temporal atom that drops into the similarity-list algebra unchanged.

Per-window similarity blends two classic recipes:

* a histogram term, ``1 − L1/2`` over the mass-normalised vectors — the
  cut-detection dissimilarity of :mod:`repro.analyzer.features`, mapped
  to ``[0, 1]``;
* an SSIM-style structural term over the two raw vectors (means,
  variances, covariance with the standard stabilising constants),
  mapped from ``[-1, 1]`` to ``[0, 1]``.

``window_similarity = 0.5·hist + 0.5·ssim`` — both terms are bounded, so
``0.5·hist + 0.5`` is an admissible upper bound: when it already misses
θ the SSIM term cannot rescue the window, and scoring skips the
covariance pass entirely.  The short-circuit lives *here*, shared by the
indexed sweep and the naive oracle, so both paths return bit-identical
floats by construction.

Everything in this module is pure and import-light (AST + metadata +
errors only): the scoring layer calls down into it, never the reverse.
"""

from __future__ import annotations

import dataclasses
import math
from operator import mul, sub
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SignatureError, WorkloadError
from repro.htl import ast
from repro.model.metadata import SegmentMetadata

#: One signature window: a non-negative histogram vector.
Window = Tuple[float, ...]
#: A query clip: one or more signature windows.
Clip = Tuple[Window, ...]

#: SSIM stabilising constants for data range L = 1 (normalised
#: histograms): C1 = (0.01·L)², C2 = (0.03·L)².
SSIM_C1 = 1e-4
SSIM_C2 = 9e-4


# ---------------------------------------------------------------------------
# signature construction
# ---------------------------------------------------------------------------
def average_histograms(
    histograms: Sequence[Sequence[float]],
) -> Window:
    """The mass-normalised mean of a shot's frame histograms.

    This is the per-segment signature recipe: average the frames of the
    shot bin-wise, then normalise to unit mass so signatures of shots
    with different frame counts stay comparable.  An empty frame
    sequence (an empty ``FrameStream`` slice) and a zero-total average
    are degenerate inputs, rejected with a typed
    :class:`~repro.errors.WorkloadError` rather than divided by.
    """
    if not histograms:
        raise WorkloadError(
            "cannot build a signature from an empty frame sequence"
        )
    width = len(histograms[0])
    sums = [0.0] * width
    for histogram in histograms:
        if len(histogram) != width:
            raise WorkloadError(
                f"ragged frame histograms: {len(histogram)} bins after "
                f"{width}"
            )
        for position, bin_value in enumerate(histogram):
            sums[position] += bin_value
    total = sum(sums)
    if total <= 0.0 or not math.isfinite(total):
        raise WorkloadError(
            "cannot build a signature from zero-total frame histograms"
        )
    return tuple(bin_value / total for bin_value in sums)


def clip_from_segments(segments: Sequence[SegmentMetadata]) -> Clip:
    """The query clip formed by the segments' attached signatures.

    Query-by-example: the user names stored segments and their
    signatures become the clip windows.  A segment without a signature
    cannot serve as an example and raises a typed
    :class:`~repro.errors.SignatureError`.
    """
    if not segments:
        raise SignatureError("a query clip needs at least one segment")
    windows: List[Window] = []
    for position, segment in enumerate(segments, start=1):
        if segment.signature is None:
            raise SignatureError(
                f"example segment {position} carries no content signature; "
                "only analyzer-annotated segments can seed query-by-example"
            )
        windows.append(segment.signature)
    return tuple(windows)


def looks_like_atom(
    clip: Sequence[Sequence[float]], theta: float, name: str = ""
) -> ast.LooksLike:
    """A resolved ``looks_like`` atom over explicit signature windows."""
    windows = tuple(
        tuple(float(bin_value) for bin_value in window) for window in clip
    )
    if not windows:
        raise SignatureError("a looks_like atom needs at least one window")
    return ast.LooksLike(theta=float(theta), clip=windows, name=name)


# ---------------------------------------------------------------------------
# clip resolution
# ---------------------------------------------------------------------------
def unresolved_clip_names(formula: ast.Formula) -> List[str]:
    """Clip names referenced by unresolved ``looks_like`` atoms, in
    first-appearance order."""
    names: List[str] = []
    for node in formula.walk():
        if (
            isinstance(node, ast.LooksLike)
            and not node.resolved
            and node.name not in names
        ):
            names.append(node.name)
    return names


def resolve_clips(
    formula: ast.Formula, clips: Mapping[str, Sequence[Sequence[float]]]
) -> ast.Formula:
    """Rewrite unresolved ``looks_like`` atoms to carry their windows.

    The parser leaves clip references by name; evaluation needs the
    windows inline.  Unknown names raise a typed
    :class:`~repro.errors.SignatureError`; a formula with no unresolved
    atoms is returned unchanged (same object).
    """
    if isinstance(formula, ast.LooksLike):
        if formula.resolved:
            return formula
        clip = clips.get(formula.name)
        if clip is None:
            known = ", ".join(sorted(clips)) or "none"
            raise SignatureError(
                f"unresolved clip reference {formula.name!r}; known clips: "
                f"{known}"
            )
        return looks_like_atom(clip, formula.theta, name=formula.name)
    changes: Dict[str, ast.Formula] = {}
    for spec in dataclasses.fields(formula):
        value = getattr(formula, spec.name)
        if isinstance(value, ast.Formula):
            rebuilt = resolve_clips(value, clips)
            if rebuilt is not value:
                changes[spec.name] = rebuilt
    if not changes:
        return formula
    return dataclasses.replace(formula, **changes)


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------
def ssim_score(first: Sequence[float], second: Sequence[float]) -> float:
    """SSIM-style structural similarity of two vectors, in ``[-1, 1]``.

    The classic single-window formula — means, variances and covariance
    with stabilising constants — applied to the whole signature vector
    (our "window" is the vector itself; there is no sliding).
    """
    count = len(first)
    mean_a = sum(first) / count
    mean_b = sum(second) / count
    var_a = sum((value - mean_a) ** 2 for value in first) / count
    var_b = sum((value - mean_b) ** 2 for value in second) / count
    covariance = (
        sum(
            (a - mean_a) * (b - mean_b)
            for a, b in zip(first, second)
        )
        / count
    )
    numerator = (2.0 * mean_a * mean_b + SSIM_C1) * (
        2.0 * covariance + SSIM_C2
    )
    denominator = (mean_a**2 + mean_b**2 + SSIM_C1) * (
        var_a + var_b + SSIM_C2
    )
    value = numerator / denominator
    # Float round-off can push a hair past the theoretical range.
    return max(-1.0, min(1.0, value))


def _l1_distance(first: Sequence[float], second: Sequence[float]) -> float:
    total_a = sum(first)
    total_b = sum(second)
    if total_a <= 0.0 or total_b <= 0.0:
        raise SignatureError(
            "cannot compare zero-total signature vectors"
        )
    return sum(
        abs(a / total_a - b / total_b) for a, b in zip(first, second)
    )


def _check_comparable(
    first: Sequence[float], second: Sequence[float]
) -> None:
    if len(first) != len(second) or not first:
        raise SignatureError(
            f"signature vectors must share a nonzero bin count, got "
            f"{len(first)} and {len(second)}"
        )


def window_similarity(
    first: Sequence[float], second: Sequence[float]
) -> float:
    """Blended similarity of two signature vectors, in ``[0, 1]``.

    ``0.5 · (1 − L1/2) + 0.5 · (ssim + 1)/2`` — the histogram term over
    the mass-normalised vectors, the SSIM term over the raw vectors.
    """
    _check_comparable(first, second)
    histogram_term = 1.0 - _l1_distance(first, second) / 2.0
    structural_term = (ssim_score(first, second) + 1.0) / 2.0
    return 0.5 * histogram_term + 0.5 * structural_term


def window_bound(first: Sequence[float], second: Sequence[float]) -> float:
    """An admissible upper bound on :func:`window_similarity`.

    Costs one L1 pass; the SSIM term is bounded by 1, so
    ``0.5·(1 − L1/2) + 0.5`` can never understate the similarity.
    """
    _check_comparable(first, second)
    return 0.5 * (1.0 - _l1_distance(first, second) / 2.0) + 0.5


class ClipScorer:
    """Scores stored signatures against one clip at one θ, each once.

    Built once per resolved :class:`~repro.htl.ast.LooksLike` atom
    object (:func:`clip_scorer`) and shared by everything that scores
    that object during a request — the indexed sweep and the naive
    oracle scan, of every video, shard and worker thread.  Two things
    are kept (DESIGN.md §16):

    * each clip window *prepared* once — bin count, mass-normalised
      vector, mean, variance, deviations from the mean — so a signature
      is normalised once per call instead of once per window, and the
      window never again;
    * a memo ``signature value → score``: a recurring shot signature
      runs the kernel once, however many segments and videos carry it.

    Both are filled lazily on the query path and never at index build.
    The arithmetic is that of :func:`window_bound` and
    :func:`window_similarity` operation for operation (same operands,
    same order, same ``sum``), so every score is bit-identical to the
    definitional one.  Concurrent fills need no lock: an entry is a pure
    function of (clip, θ, signature), so racing writers store equal
    values.  The scorer holds the clip and θ, not the atom — no cycle,
    so it is freed the moment its atom is.
    """

    def __init__(self, clip: Clip, theta: float):
        self._clip = clip
        self._theta = theta
        self._windows: Optional[List[tuple]] = None
        self._memo: Dict[Window, float] = {}

    def score(self, signature: Optional[Window]) -> float:
        """Best per-window similarity when it clears θ, else 0."""
        if signature is None:
            return 0.0
        known = self._memo.get(signature)
        if known is None:
            known = self._memo[signature] = self._compute(signature)
        return known

    def _prepared_windows(self) -> List[tuple]:
        windows = self._windows
        if windows is None:
            windows = []
            for window in self._clip:
                count = len(window)
                total = sum(window)
                if total <= 0.0:
                    raise SignatureError(
                        "cannot compare zero-total signature vectors"
                    )
                mean = total / count
                deviations = [value - mean for value in window]
                windows.append(
                    (
                        count,
                        [value / total for value in window],
                        mean,
                        sum(d**2 for d in deviations) / count,
                        deviations,
                    )
                )
            self._windows = windows
        return windows

    def _compute(self, signature: Window) -> float:
        theta = self._theta
        count = len(signature)
        total = sum(signature)
        normalised = deviations = None
        mean = variance = 0.0
        best = 0.0
        for (
            w_count,
            w_normalised,
            w_mean,
            w_variance,
            w_deviations,
        ) in self._prepared_windows():
            if count != w_count or not count:
                raise SignatureError(
                    f"signature vectors must share a nonzero bin count, "
                    f"got {count} and {w_count}"
                )
            if normalised is None:
                if total <= 0.0:
                    raise SignatureError(
                        "cannot compare zero-total signature vectors"
                    )
                normalised = [value / total for value in signature]
            distance = sum(map(abs, map(sub, normalised, w_normalised)))
            # window_bound: the SSIM term is at most 1.
            if 0.5 * (1.0 - distance / 2.0) + 0.5 < theta:
                continue
            if deviations is None:
                mean = total / count
                deviations = [value - mean for value in signature]
                variance = sum(d**2 for d in deviations) / count
            covariance = sum(map(mul, deviations, w_deviations)) / count
            # ssim_score, then window_similarity.
            ssim = (
                (2.0 * mean * w_mean + SSIM_C1)
                * (2.0 * covariance + SSIM_C2)
            ) / (
                (mean**2 + w_mean**2 + SSIM_C1)
                * (variance + w_variance + SSIM_C2)
            )
            ssim = max(-1.0, min(1.0, ssim))
            similarity = 0.5 * (1.0 - distance / 2.0) + 0.5 * (
                (ssim + 1.0) / 2.0
            )
            if similarity > best:
                best = similarity
        return best if best >= theta else 0.0


#: Instance-dict slot of an atom's scorer.  Not a dataclass field, so it
#: is invisible to ``==``, ``hash``, ``structural_key``, pretty-printing,
#: ``dataclasses.replace`` and serialisation, and dies with the atom.
_SCORER_SLOT = "_clip_scorer"


def clip_scorer(atom: ast.LooksLike) -> ClipScorer:
    """The scorer of one resolved atom object, built on first use."""
    scorer = vars(atom).get(_SCORER_SLOT)
    if scorer is None:
        if not atom.resolved:
            raise SignatureError(
                f"unresolved clip reference {atom.name!r}; resolve_clips() "
                "must run before evaluation"
            )
        # setdefault is atomic: racing threads end up sharing one scorer.
        scorer = vars(atom).setdefault(
            _SCORER_SLOT, ClipScorer(atom.clip, atom.theta)
        )
    return scorer


def looks_like_score(
    atom: ast.LooksLike, signature: Optional[Window]
) -> float:
    """Actual similarity of one ``looks_like`` atom at one segment.

    The best per-window similarity when it clears θ, else 0.  A segment
    without a signature (annotation-only metadata, the representative
    empty segment of baseline probes) scores 0 — it cannot look like
    anything.  Windows whose cheap L1 bound already misses θ skip the
    SSIM pass; a window with true similarity ≥ θ always survives the
    bound, so the thresholded result is exactly the unpruned one.  The
    work happens in the atom's :class:`ClipScorer`, which scores each
    distinct signature value once.
    """
    return clip_scorer(atom).score(signature)


# ---------------------------------------------------------------------------
# formula inspection
# ---------------------------------------------------------------------------
def looks_like_atoms(formula: ast.Formula) -> List[ast.LooksLike]:
    """Every ``looks_like`` atom inside a formula, in pre-order."""
    return [
        node for node in formula.walk() if isinstance(node, ast.LooksLike)
    ]
