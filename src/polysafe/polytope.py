"""Polyhedral C-sets and the geometric queries the toolkit needs.

A safe set is ``{x : normals @ x <= offsets}`` with strictly positive
offsets, so the origin is interior.  Boundedness is never assumed: it is
detected operationally by :func:`interval_enclosure`, whose coordinate
LPs raise :class:`UnboundedSetError` on any unbounded direction.
"""

from __future__ import annotations

import itertools
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

    def contains(self, x, tol: float = TOL_GEOM) -> bool:
        """Membership of the point ``x`` in the set."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.dim:
            raise DimensionMismatchError(f"point has dim {x.size}, set has dim {self.dim}")
        return bool(np.all(self.normals @ x <= self.offsets + tol))

    def membership_mask(self, points: np.ndarray, tol: float = TOL_GEOM) -> np.ndarray:
        """Vectorized membership for an array of points with shape (k, n)."""
        points = np.asarray(points, dtype=float)
        return np.all(points @ self.normals.T <= self.offsets + tol, axis=1)

    @cached_property
    def _enclosure(self) -> "Box":
        """The set's :func:`interval_enclosure`, solved once per set object."""
        n = self.dim
        lo = np.empty(n)
        hi = np.empty(n)
        for k in range(n):
            unit = np.zeros(n)
            unit[k] = 1.0
            hi[k] = lpcore.polytope_max(unit, self)
            lo[k] = -lpcore.polytope_max(-unit, self)
        return Box(lo, hi)


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

    Raises :class:`UnboundedSetError` if any coordinate is unbounded, which
    is how the C-set assumption is enforced operationally.  The LPs are
    solved on the first call for a set object; later calls return the
    same box.
    """
    return safe_set._enclosure


def enumerate_vertices(safe_set: PolyhedralSet, tol: float = TOL_GEOM) -> list[np.ndarray]:
    """All vertices by exhaustive intersection of n-row subsets (n <= 3 only).

    Every returned point is feasible to within ``tol`` and has at least n
    active rows.  Raises :class:`EmptySetError` when no feasible vertex
    exists (empty or degenerate input).
    """
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
        if np.all(F @ v <= g + tol):
            if not any(np.max(np.abs(v - w)) <= tol * max(1.0, np.max(np.abs(v)))
                       for w in vertices):
                vertices.append(v)
    if not vertices:
        raise EmptySetError("no feasible vertex found")
    return vertices


def grid_resolution(dim: int) -> tuple:
    """Default points per axis: about as many points in total as a 101 x 101 grid."""
    return (round(101 ** (2.0 / dim)),) * dim


def sample_grid(safe_set: PolyhedralSet, resolution=None, tol: float = TOL_GEOM) -> np.ndarray:
    """Uniform grid over the interval enclosure, filtered to set members.

    ``resolution`` gives the number of points per axis (each >= 2); the
    default is :func:`grid_resolution` of the set's dimension.  Points
    come back as an array of shape (k, n) in row-major order over the grid
    (last axis fastest), so the stream is deterministic and can be
    partitioned across workers and merged order-independently.
    """
    if resolution is None:
        resolution = grid_resolution(safe_set.dim)
    resolution = [int(r) for r in np.atleast_1d(resolution)]
    if len(resolution) != safe_set.dim:
        raise DimensionMismatchError(
            f"resolution has {len(resolution)} entries, set has dim {safe_set.dim}"
        )
    if any(r < 2 for r in resolution):
        raise ValueError(f"every resolution entry must be >= 2, got {resolution}")
    box = interval_enclosure(safe_set)
    axes = [np.linspace(box.lo[k], box.hi[k], resolution[k]) for k in range(safe_set.dim)]
    # one first-axis slab at a time: only the members of the whole grid are kept
    rest = np.array(list(itertools.product(*axes[1:])))
    slabs = []
    for first in axes[0]:
        slab = np.hstack([np.full((len(rest), 1), first), rest])
        slabs.append(slab[safe_set.membership_mask(slab, tol=tol)])
    return np.vstack(slabs)
