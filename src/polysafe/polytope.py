"""Polyhedral C-sets and the geometric queries the toolkit needs.

A safe set is ``{x : normals @ x <= offsets}`` with strictly positive
offsets, so the origin is interior.  Boundedness is never assumed: it is
detected operationally by :func:`interval_enclosure`, whose 2n coordinate
objectives share one LP tableau and raise :class:`UnboundedSetError` on
any unbounded direction.  State grids over a set are walked in
fixed-size blocks of members (:func:`grid_blocks`), so a grid check never
holds the whole grid.  The enclosure, the vertices and the sample of
:func:`sample_points` are computed once per set object.  The row and
matrix norms that synthesis and verification share live here too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lpcore
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    EmptySetError,
)

TOL_GEOM = 1e-9  # active-set / dedup tolerance; LP residuals are ~1e-10 at desk scale
_GRID_BLOCK = 4096  # grid members per block of a grid walk; small blocks stay in cache


def row_norms(normals: np.ndarray) -> np.ndarray:
    """Per-row one-norms of the constraint normals, the disturbance measure.

    ``|F_i|_1`` is the exact worst case of ``F_i @ w`` over ``|w|_inf <= 1``.
    The max-entry reading of the norm-budget formula underestimates it for
    disturbances on several axes, so it is not offered.
    """
    return np.abs(np.asarray(normals, dtype=float)).sum(axis=1)


def _norm_inf(mat: np.ndarray) -> float:
    """Induced infinity norm: largest absolute row sum."""
    return float(np.max(np.abs(np.atleast_2d(mat)).sum(axis=1)))


@dataclass(frozen=True, eq=False)
class PolyhedralSet:
    """Halfspace representation ``normals @ x <= offsets`` with positive offsets.

    Offsets must be strictly positive (origin interior) and no normal row
    may be all-zero.  ``s >= n + 1`` rows are necessary for boundedness,
    but construction does not require it; unbounded sets are rejected
    lazily by the operations that need boundedness.
    """

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        offsets = np.asarray(self.offsets, dtype=float).reshape(-1)
        if normals.shape[0] != offsets.shape[0]:
            raise DimensionMismatchError(
                f"{normals.shape[0]} normal rows but {offsets.shape[0]} offsets"
            )
        if np.any(offsets <= 0.0):
            raise ValueError("offsets must be strictly positive (origin interior)")
        if np.any(np.max(np.abs(normals), axis=1) == 0.0):
            raise ValueError("all-zero normal row")
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def n_rows(self) -> int:
        return self.normals.shape[0]

    def membership_mask(self, points: np.ndarray, tol: float = TOL_GEOM) -> np.ndarray:
        """Membership of each row of ``points`` (shape (k, n)), or of one point (shape (n,))."""
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != (self.dim,):
            raise DimensionMismatchError(
                f"points have shape {points.shape}, set has dim {self.dim}")
        return np.all(points @ self.normals.T <= self.offsets + tol, axis=-1)

    @cached_property
    def _enclosure(self) -> "Box":
        """The set's :func:`interval_enclosure`, solved once per set object."""
        eye = np.eye(self.dim)
        # +e_k then -e_k for each coordinate k, the order of the coordinate LPs
        maxima = lpcore.polytope_maxima(np.stack([eye, -eye], axis=1).reshape(-1, self.dim), self)
        return Box(-maxima[1::2], maxima[0::2])

    @cached_property
    def _vertices(self) -> np.ndarray:
        """The set's :func:`enumerate_vertices`, one per row of a read-only
        array, enumerated once per set object."""
        vertices = _vertex_rows(self)
        vertices.flags.writeable = False
        return vertices

    @cached_property
    def _sample(self) -> np.ndarray:
        """The set's :func:`sample_points`, built once per set object."""
        sample = np.concatenate([*grid_blocks(self), sample_vertices(self)], axis=1)
        sample.flags.writeable = False
        return sample


@dataclass(frozen=True)
class Box:
    """Axis-aligned interval enclosure ``lo <= x <= hi``."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(-1)
        hi = np.asarray(self.hi, dtype=float).reshape(-1)
        if lo.size != hi.size:
            raise DimensionMismatchError("lo and hi have different lengths")
        if np.any(lo > hi):
            raise ValueError("lo must be <= hi elementwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def max_abs(self) -> float:
        """Bound on the infinity norm of any point in the box."""
        return float(max(np.max(np.abs(self.lo)), np.max(np.abs(self.hi))))


def interval_enclosure(safe_set: PolyhedralSet) -> Box:
    """Tightest axis-aligned box containing the set, via 2n coordinate LPs.

    The 2n objectives (``+x_k`` and ``-x_k``) are posed over one constraint
    system by :func:`lpcore.polytope_maxima`: the tableau is built and
    equilibrated once, and each objective's phase 2 starts from a copy of
    it, so every bound is bitwise that of a solve with its objective alone.
    Raises :class:`UnboundedSetError` if any coordinate is unbounded, which
    is how the C-set assumption is enforced operationally.  The program is
    solved on the first call for a set object; later calls return the same
    box.
    """
    return safe_set._enclosure


def enumerate_vertices(safe_set: PolyhedralSet) -> list[np.ndarray]:
    """All vertices by exhaustive intersection of n-row subsets (n <= 3 only).

    Every returned point is feasible to within ``TOL_GEOM`` and has at least
    n active rows.  Two solutions are one vertex when every coordinate
    agrees to within ``TOL_GEOM`` relative to its own size, so a badly
    scaled set keeps corners that differ only in a small coordinate.  Raises
    :class:`EmptySetError` when no feasible vertex exists (empty or
    degenerate input).  The vertices are enumerated on the first call for a
    set object; every call returns fresh arrays.
    """
    return list(safe_set._vertices.copy())


def _vertex_rows(safe_set: PolyhedralSet) -> np.ndarray:
    """The vertices of :func:`enumerate_vertices`, one per row of a (v, n) array."""
    n = safe_set.dim
    if n > 3:
        raise DimensionTooLargeError(f"exact enumeration limited to dim <= 3, got {n}")
    F = safe_set.normals
    g = safe_set.offsets
    vertices: list[np.ndarray] = []
    for rows in itertools.combinations(range(safe_set.n_rows), n):
        sub = F[list(rows)]
        det = np.linalg.det(sub)
        if abs(det) <= 1e-12 * max(1.0, float(np.max(np.abs(sub))) ** n):
            continue
        v = np.linalg.solve(sub, g[list(rows)])
        if np.all(F @ v <= g + TOL_GEOM):
            near = TOL_GEOM * np.maximum(1.0, np.abs(v))  # per coordinate, so scales do not mix
            if not any(np.all(np.abs(v - w) <= near) for w in vertices):
                vertices.append(v)
    if not vertices:
        raise EmptySetError("no feasible vertex found")
    return np.array(vertices)


def sample_vertices(safe_set: PolyhedralSet) -> np.ndarray:
    """The vertices that end the set's samples, as the columns of an (n, v)
    array: those of :func:`enumerate_vertices`, and none (``v = 0``) above
    dimension 3, where vertex enumeration stops."""
    try:
        return safe_set._vertices.T
    except DimensionTooLargeError:
        return np.zeros((safe_set.dim, 0))


def sample_points(safe_set: PolyhedralSet) -> np.ndarray:
    """The set's default grid members (:func:`grid_resolution`, in :func:`grid_blocks`
    order), then :func:`sample_vertices`, as the columns of one read-only (n, k)
    array, built on the first call for a set object."""
    return safe_set._sample


def grid_resolution(dim: int) -> tuple:
    """Default points per axis: about as many points in total as a 101 x 101 grid."""
    return (round(101 ** (2.0 / dim)),) * dim


def grid_blocks(safe_set: PolyhedralSet, resolution=None):
    """Walk the set's grid members in blocks, without building the grid.

    The grid is uniform over the interval enclosure; ``resolution`` gives
    the number of points per axis (each >= 2), and the default is
    :func:`grid_resolution` of the set's dimension.  Each yielded block is
    a fresh array of shape (n, k), one coordinate per row, holding the next
    ``_GRID_BLOCK`` members in row-major grid order (last axis fastest); a
    first-axis slab may be split across two blocks.  The last block may be
    shorter, and it is one member longer instead of leaving a one-member
    block: numpy sends a one-column matmul to BLAS gemv, which rounds
    differently from the gemm of wider blocks.  Memory is O(block + slab),
    not O(grid).
    """
    if resolution is None:
        resolution = grid_resolution(safe_set.dim)
    resolution = [int(r) for r in np.atleast_1d(resolution)]
    n = safe_set.dim
    if len(resolution) != n:
        raise DimensionMismatchError(
            f"resolution has {len(resolution)} entries, set has dim {n}")
    if any(r < 2 for r in resolution):
        raise ValueError(f"every resolution entry must be >= 2, got {resolution}")
    box = interval_enclosure(safe_set)
    axes = [np.linspace(box.lo[k], box.hi[k], resolution[k]) for k in range(n)]
    # the other axes' points, shared by every slab, and their part of F x
    rest = np.array(np.meshgrid(*axes[1:], indexing="ij"))
    rest = rest.reshape(n - 1, math.prod(resolution[1:]))   # (n - 1, R)
    rest_rows = safe_set.normals[:, 1:] @ rest               # (s, R)
    first_col = safe_set.normals[:, :1]
    bound = (safe_set.offsets + TOL_GEOM)[:, None]
    pieces: list = []  # (first-axis value, member columns of rest) not yet in a block
    size = 0
    for first in axes[0]:
        inside = np.logical_and.reduce(rest_rows <= bound - first_col * first, axis=0)
        members = np.flatnonzero(inside)
        if members.size:
            pieces.append((first, members))
            size += members.size
        while size >= _GRID_BLOCK + 2:  # the next block keeps two members at least
            yield _cut_block(rest, pieces, _GRID_BLOCK)
            size -= _GRID_BLOCK
    if size:
        yield _cut_block(rest, pieces, size)


def _cut_block(rest: np.ndarray, pieces: list, size: int) -> np.ndarray:
    """The (n, size) block of :func:`grid_blocks` holding the first ``size``
    members of ``pieces``, which are taken off ``pieces``."""
    block = np.empty((rest.shape[0] + 1, size))
    at = 0
    while at < size:
        first, members = pieces[0]
        take = min(members.size, size - at)
        block[0, at:at + take] = first
        np.take(rest, members[:take], axis=1, out=block[1:, at:at + take], mode="clip")
        if take < members.size:
            pieces[0] = (first, members[take:])
        else:
            del pieces[0]
        at += take
    return block
