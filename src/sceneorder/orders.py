"""Canonical data model for instances and pairwise order matrices.

Occlusion matrices are binary adjacency matrices over ordered instance
pairs (1 = row occludes column, mutual 1s legal). Depth matrices are
ternary: 0 = not in front, 1 = in front, 2 = both share an overlapping
depth range (always mutual). Diagonals carry -1 because a relation of an
instance with itself is undefined.

This module also owns the depth pair codes. The relation of an unordered
pair i < j is one code, the value ``entries[i, j]`` takes in a valid
matrix: I_FRONT (1), J_FRONT (0) or OVERLAP (2), and NONE for a pair
without a relation. ``encode_depth`` and ``decode_depth`` convert between
code arrays and matrices, and the ``depth_from_*`` rules build matrices
from intervals, scalar scores or scored relations, whole arrays at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

DIAG = -1
OVERLAP = 2


class StructuralError(ValueError):
    """Matrix is not even the right shape/dtype to validate."""


class DataError(ValueError):
    """Inconsistent annotation content (conflicting pairs, bad references)."""


@dataclass(frozen=True)
class Violation:
    i: int
    j: int
    rule: str

    def __str__(self):
        return f"({self.i},{self.j}): {self.rule}"


@dataclass(frozen=True)
class InstanceMask:
    """Visible-region bitmap plus its tight, normalized bounding box."""

    id: int
    category: str
    bitmap: np.ndarray  # H x W, 0/1
    bbox: tuple[float, float, float, float]  # (a_w, a_h, b_w, b_h) in [0,1]

    @staticmethod
    def from_bitmap(idx: int, category: str, bitmap: np.ndarray) -> "InstanceMask":
        bitmap = np.asarray(bitmap, dtype=np.uint8)
        return InstanceMask(idx, category, bitmap, tight_bbox(bitmap))

    @property
    def area(self) -> int:
        return int(self.bitmap.sum())


def tight_bbox(bitmap: np.ndarray) -> tuple[float, float, float, float]:
    """Normalized (a_w, a_h, b_w, b_h): top-left and bottom-right corners."""
    ys, xs = np.nonzero(bitmap)
    if ys.size == 0:
        return (0.0, 0.0, 0.0, 0.0)
    h, w = bitmap.shape
    return (xs.min() / w, ys.min() / h, (xs.max() + 1) / w, (ys.max() + 1) / h)


def _check_square(entries: np.ndarray) -> np.ndarray:
    entries = np.asarray(entries)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise StructuralError(f"order matrix must be square, got shape {entries.shape}")
    return entries.astype(np.int64)


@dataclass
class OcclusionMatrix:
    n: int
    entries: np.ndarray

    @staticmethod
    def empty(n: int) -> "OcclusionMatrix":
        e = np.zeros((n, n), dtype=np.int64)
        np.fill_diagonal(e, DIAG)
        return OcclusionMatrix(n, e)

    def copy(self) -> "OcclusionMatrix":
        return OcclusionMatrix(self.n, self.entries.copy())


@dataclass
class DepthMatrix:
    n: int
    entries: np.ndarray
    pair_weights: np.ndarray | None = field(default=None)

    @staticmethod
    def empty(n: int) -> "DepthMatrix":
        e = np.zeros((n, n), dtype=np.int64)
        np.fill_diagonal(e, DIAG)
        return DepthMatrix(n, e)

    def copy(self) -> "DepthMatrix":
        w = None if self.pair_weights is None else self.pair_weights.copy()
        return DepthMatrix(self.n, self.entries.copy(), w)

    def weight(self, i: int, j: int) -> float:
        if self.pair_weights is None:
            return 1.0
        return float(self.pair_weights[i, j])


def validate_occlusion(m: OcclusionMatrix) -> list[Violation]:
    entries = _check_square(m.entries)
    out = []
    n = entries.shape[0]
    for i in range(n):
        if entries[i, i] != DIAG:
            out.append(Violation(i, i, "diagonal must be -1"))
    for i in range(n):
        for j in range(n):
            if i != j and entries[i, j] not in (0, 1):
                out.append(Violation(i, j, "off-diagonal entries must be 0 or 1"))
    return out


def validate_depth(m: DepthMatrix) -> list[Violation]:
    """Check diagonal, antisymmetry, overlap symmetry, and pair completeness.

    Depth relations always exist between two instances (one is in front or
    the ranges overlap), so a 0/0 pair is itself a violation; this is what
    makes every single-entry corruption of a valid matrix detectable.
    """
    entries = _check_square(m.entries)
    out = []
    n = entries.shape[0]
    for i in range(n):
        if entries[i, i] != DIAG:
            out.append(Violation(i, i, "diagonal must be -1"))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v = entries[i, j]
            if v not in (0, 1, OVERLAP):
                out.append(Violation(i, j, "off-diagonal entries must be 0, 1 or 2"))
                continue
            if v == 1 and entries[j, i] == 1:
                if i < j:
                    out.append(Violation(i, j, "antisymmetry: front entries cannot be mutual"))
            if v == 1 and entries[j, i] == OVERLAP:
                out.append(Violation(i, j, "front entry paired with an overlap entry"))
            if v == OVERLAP and entries[j, i] != OVERLAP:
                out.append(Violation(i, j, "overlap must be mutual"))
            if v == 0 and i < j and entries[j, i] == 0:
                out.append(Violation(i, j, "pair lacks a depth relation"))
    return out


# ---- depth pair codes ------------------------------------------------------
#
# Code arrays list the pairs i < j in ``pair_indices`` order.

J_FRONT = 0
I_FRONT = 1
NONE = 3
# code -> (entries[i, j], entries[j, i]); a NONE pair stays 0/0
_PAIR_ENTRIES = np.array([[0, 1], [1, 0], [OVERLAP, OVERLAP], [0, 0]])
# column of a scored relation -> code, in the tie order of ``depth_from_argmax``
_ARGMAX_CODES = np.array([I_FRONT, J_FRONT, OVERLAP])


@functools.lru_cache(maxsize=64)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every pair i < j, row-major (read-only, cached)."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def encode_depth(n: int, codes) -> DepthMatrix:
    """The depth matrix whose pairs carry ``codes``, with unit weights."""
    mat = DepthMatrix.empty(n)
    i, j = pair_indices(n)
    mat.entries[i, j], mat.entries[j, i] = _PAIR_ENTRIES[codes].T
    mat.pair_weights = np.ones((n, n))
    return mat


def decode_depth(mat: DepthMatrix) -> np.ndarray:
    """The code of every pair, read from any matrix, valid or not.

    Overlap needs 2 on both sides; otherwise a 1 names the front instance,
    ``entries[i, j]`` first; any other pair is NONE.
    """
    i, j = pair_indices(mat.n)
    a, b = mat.entries[i, j], mat.entries[j, i]
    front = np.where(a == 1, I_FRONT, np.where(b == 1, J_FRONT, NONE))
    return np.where((a == OVERLAP) & (b == OVERLAP), OVERLAP, front)


def depth_from_intervals(lo, hi) -> DepthMatrix:
    """Closed depth intervals [lo, hi] per instance, smaller is nearer.

    Disjoint intervals give a front relation; touching or overlapping ones
    overlap. None bounds (an empty mask) leave the instance's pairs
    without a relation.
    """
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    i, j = pair_indices(len(lo))
    codes = np.where(hi[i] < lo[j], I_FRONT, np.where(hi[j] < lo[i], J_FRONT, OVERLAP))
    codes[np.isnan(lo[i]) | np.isnan(lo[j])] = NONE
    return encode_depth(len(lo), codes)


def depth_from_scores(scores, tau: float = 0.0) -> DepthMatrix:
    """One scalar score per instance, larger is nearer.

    Scores within ``tau`` of each other overlap. A None score (an empty
    mask) leaves the instance's pairs without a relation.
    """
    s = np.asarray(scores, dtype=np.float64)
    i, j = pair_indices(len(s))
    codes = np.where(np.abs(s[i] - s[j]) <= tau, OVERLAP, np.where(s[i] > s[j], I_FRONT, J_FRONT))
    codes[np.isnan(s[i]) | np.isnan(s[j])] = NONE
    return encode_depth(len(s), codes)


def depth_from_argmax(n: int, scores) -> DepthMatrix:
    """Each pair takes the first maximum of its three scores, given along
    the last axis in the order (i front, j front, overlap)."""
    return encode_depth(n, _ARGMAX_CODES[np.argmax(scores, axis=-1)])


# ---- pairs <-> matrix ------------------------------------------------------

FRONT = "front"
OVERLAP_REL = "overlap"
OCCLUDES = "occludes"


def pairs_to_matrix(pairs, n: int, task: str):
    """Build a matrix from sparse pair annotations.

    ``pairs`` entries are (i, j, relation, count): relation "occludes" for
    the occlusion task, "front"/"overlap" for depth. Unmentioned pairs stay
    0; duplicate mentions must agree; depth weights are 2/count.
    """
    if task == "occlusion":
        mat = OcclusionMatrix.empty(n)
    elif task == "depth":
        mat = DepthMatrix.empty(n)
        mat.pair_weights = np.ones((n, n), dtype=np.float64)
    else:
        raise DataError(f"unknown task {task!r}")
    seen: dict[tuple[int, int], tuple] = {}
    for i, j, rel, count in pairs:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise DataError(f"pair ({i},{j}) out of range for n={n}")
        key = (min(i, j), max(i, j)) if task == "depth" else (i, j)
        record = (i, j, rel, count)
        if key in seen and seen[key] != record:
            raise DataError(f"conflicting duplicate annotation for pair {key}")
        seen[key] = record
        if task == "occlusion":
            if rel != OCCLUDES:
                raise DataError(f"bad occlusion relation {rel!r}")
            mat.entries[i, j] = 1
        else:
            if count is None:
                count = 2
            if count <= 0:
                raise DataError(f"pair ({i},{j}): count must be positive")
            w = 2.0 / count
            if rel == FRONT:
                mat.entries[i, j] = 1
                mat.entries[j, i] = 0
            elif rel == OVERLAP_REL:
                mat.entries[i, j] = OVERLAP
                mat.entries[j, i] = OVERLAP
            else:
                raise DataError(f"bad depth relation {rel!r}")
            mat.pair_weights[i, j] = w
            mat.pair_weights[j, i] = w
    return mat


def matrix_to_pairs(mat) -> list[tuple]:
    """Canonical sparse form: sorted, one record per annotated pair."""
    out = []
    n = mat.n
    if isinstance(mat, OcclusionMatrix):
        for i in range(n):
            for j in range(n):
                if i != j and mat.entries[i, j] == 1:
                    out.append((i, j, OCCLUDES, None))
        return out
    for i in range(n):
        for j in range(i + 1, n):
            w = mat.weight(i, j)
            count = int(round(2.0 / w)) if w > 0 else 2
            if mat.entries[i, j] == OVERLAP:
                out.append((i, j, OVERLAP_REL, count))
            elif mat.entries[i, j] == 1:
                out.append((i, j, FRONT, count))
            elif mat.entries[j, i] == 1:
                out.append((j, i, FRONT, count))
    return out


# ---- DOT export ------------------------------------------------------------


def to_dot(occ: OcclusionMatrix | None, depth: DepthMatrix | None, labels: list[str] | None = None) -> str:
    """Render order matrices as a Graphviz digraph.

    Occlusion 1-entries become solid directed edges, depth 1-entries dashed
    directed edges, mutual depth-2 pairs a single undirected-styled edge.
    """
    n = occ.n if occ is not None else depth.n
    if occ is not None and depth is not None and occ.n != depth.n:
        raise StructuralError("occlusion and depth matrices disagree on n")
    labels = labels if labels is not None else [str(i) for i in range(n)]
    lines = ["digraph order {"]
    for i in range(n):
        lines.append(f'  {i} [label="{labels[i]}"];')
    if occ is not None:
        for i in range(n):
            for j in range(n):
                if i != j and occ.entries[i, j] == 1:
                    lines.append(f'  {i} -> {j} [color="firebrick"];')
    if depth is not None:
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                if depth.entries[i, j] == 1:
                    lines.append(f'  {i} -> {j} [color="royalblue", style="dashed"];')
                elif depth.entries[i, j] == OVERLAP and i < j:
                    lines.append(f'  {i} -> {j} [dir="none", color="royalblue", style="dotted"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass
class SceneAnnotation:
    """One sample: image reference, instance masks, and both order matrices."""

    width: int
    height: int
    image_path: str
    instances: list[InstanceMask]
    occlusion: OcclusionMatrix
    depth: DepthMatrix

    def __post_init__(self):
        n = len(self.instances)
        if self.occlusion.n != n or self.depth.n != n:
            raise DataError(f"matrix dimension must equal instance count {n}")
        ids = sorted(inst.id for inst in self.instances)
        if ids != list(range(n)):
            raise DataError("instance ids must be dense 0..n-1")
