import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from polysafe import lpcore, polytope
from polysafe.errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    EmptySetError,
    UnboundedSetError,
)
from polysafe.polytope import (
    Box,
    PolyhedralSet,
    enumerate_vertices,
    grid_blocks,
    grid_resolution,
    interval_enclosure,
    sample_points,
    sample_vertices,
)

from conftest import SECV_F, SECV_G, SECV_VERTICES, grid_members


def vertex_set(vertices):
    return sorted(tuple(np.round(v, 9)) for v in vertices)


def unit_box():
    return PolyhedralSet([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])


class TestConstruction:
    def test_rejects_zero_offset(self):
        with pytest.raises(ValueError):
            PolyhedralSet([[1, 0], [0, 1]], [1, 0])

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            PolyhedralSet([[1, 0]], [-1])

    def test_rejects_zero_row(self):
        with pytest.raises(ValueError):
            PolyhedralSet([[1, 0], [0, 0]], [1, 1])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DimensionMismatchError):
            PolyhedralSet([[1, 0], [0, 1]], [1, 1, 1])


class TestContains:
    """Single-point membership through ``membership_mask``."""

    def test_origin_always_interior(self, secv_set):
        assert secv_set.membership_mask([0.0, 0.0])

    def test_vertex_on_boundary(self, secv_set):
        # (6, -0.5) is a vertex: rows 0 and 3 are active
        assert secv_set.membership_mask([6.0, -0.5])

    def test_vertex_leaves_shrunk_set(self, secv_set):
        # F_0 @ (6, -0.5) = 1 > 0.95
        assert not PolyhedralSet(SECV_F, 0.95 * SECV_G).membership_mask([6.0, -0.5])

    def test_dimension_mismatch(self, secv_set):
        with pytest.raises(DimensionMismatchError):
            secv_set.membership_mask([0, 0, 0])
        with pytest.raises(DimensionMismatchError):
            secv_set.membership_mask(np.zeros((4, 3)))

    def test_scaling_equivalence(self, secv_set):
        # x lies in the set with offsets scaled by s exactly when x / s lies in the set
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = rng.uniform(-7, 7, size=2)
            s = rng.uniform(0.1, 1.0)
            shrunk = PolyhedralSet(SECV_F, s * SECV_G)
            assert (shrunk.membership_mask(x, tol=0.0)
                    == secv_set.membership_mask(x / s, tol=0.0))


class TestVertices:
    def test_secv_vertices(self, secv_set):
        assert vertex_set(enumerate_vertices(secv_set)) == vertex_set(SECV_VERTICES)

    def test_unit_box_corners(self):
        expected = [np.array(c, dtype=float) for c in itertools.product([-1, 1], repeat=2)]
        assert vertex_set(enumerate_vertices(unit_box())) == vertex_set(expected)

    def test_redundant_row_ignored(self):
        poly = PolyhedralSet(
            [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [1, 1, 1, 1, 10])
        expected = [np.array(c, dtype=float) for c in itertools.product([-1, 1], repeat=2)]
        assert vertex_set(enumerate_vertices(poly)) == vertex_set(expected)

    def test_vertices_feasible_with_active_rows(self, secv_set):
        for v in enumerate_vertices(secv_set):
            assert secv_set.membership_mask(v)
            active = np.sum(np.abs(SECV_F @ v - SECV_G) <= 1e-9)
            assert active >= 2

    def test_dimension_too_large(self):
        poly = PolyhedralSet(np.vstack([np.eye(4), -np.eye(4)]), np.ones(8))
        with pytest.raises(DimensionTooLargeError):
            enumerate_vertices(poly)

    def test_no_feasible_vertex(self):
        # single halfspace in 2-D: no row pair is solvable
        with pytest.raises(EmptySetError):
            enumerate_vertices(PolyhedralSet([[1, 0]], [1]))

    def test_badly_scaled_box_keeps_every_corner(self):
        # corners that differ only in the small coordinate stay apart: the
        # merge tolerance is taken per coordinate, not from the largest one
        poly = PolyhedralSet(np.vstack([np.eye(2), -np.eye(2)]), [1e103, 1.0, 1e103, 1.0])
        corners = [np.array(c, dtype=float) for c in itertools.product([-1e103, 1e103], [-1, 1])]
        assert vertex_set(enumerate_vertices(poly)) == vertex_set(corners)

    def test_3d_cube(self):
        poly = PolyhedralSet(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))
        corners = [np.array(c, dtype=float) for c in itertools.product([-1, 1], repeat=3)]
        assert vertex_set(enumerate_vertices(poly)) == vertex_set(corners)


    def test_enumerated_once_per_set(self, monkeypatch):
        calls = []
        enumerate_rows = polytope._vertex_rows
        monkeypatch.setattr(polytope, "_vertex_rows",
                            lambda *args: calls.append(args) or enumerate_rows(*args))
        safe_set = PolyhedralSet(SECV_F, SECV_G)
        first = enumerate_vertices(safe_set)
        assert len(calls) == 1
        for v in first:
            v[:] = 0.0  # every call hands out fresh arrays
        assert vertex_set(enumerate_vertices(safe_set)) == vertex_set(SECV_VERTICES)
        sample_points(safe_set)
        sample_vertices(safe_set)
        assert len(calls) == 1
        # another object holding the same rows enumerates anew
        enumerate_vertices(PolyhedralSet(SECV_F, SECV_G))
        assert len(calls) == 2


class TestEnclosure:
    def test_secv(self, secv_set):
        box = interval_enclosure(secv_set)
        np.testing.assert_allclose(box.lo, [-6.0, -3.5], atol=1e-9)
        np.testing.assert_allclose(box.hi, [6.0, 3.5], atol=1e-9)
        assert abs(box.max_abs - 6.0) <= 1e-9

    def test_unit_box(self):
        box = interval_enclosure(unit_box())
        np.testing.assert_allclose(box.lo, [-1, -1], atol=1e-12)
        np.testing.assert_allclose(box.hi, [1, 1], atol=1e-12)

    def test_halfspace_unbounded(self):
        with pytest.raises(UnboundedSetError):
            interval_enclosure(PolyhedralSet([[1, 0]], [1]))

    def test_box_dominates_vertices(self, secv_set):
        box = interval_enclosure(secv_set)
        for v in enumerate_vertices(secv_set):
            assert np.all(v >= box.lo - 1e-9)
            assert np.all(v <= box.hi + 1e-9)

    def test_solved_once_per_set(self, monkeypatch):
        # one shared program per set object, holding both bounds of every
        # coordinate
        calls = []
        solve = lpcore.polytope_maxima
        monkeypatch.setattr(lpcore, "polytope_maxima",
                            lambda rows, s: calls.append(len(rows)) or solve(rows, s))
        safe_set = PolyhedralSet(SECV_F, SECV_G)
        first = interval_enclosure(safe_set)
        assert calls == [4]  # two objectives per coordinate
        assert interval_enclosure(safe_set) is first
        grid_members(safe_set, (5, 5))
        sample_points(safe_set)
        assert calls == [4]
        # another object holding the same rows solves its own
        interval_enclosure(PolyhedralSet(SECV_F, SECV_G))
        assert calls == [4, 4]

    @pytest.mark.parametrize("name", ["secV", "tri", "random3d"])
    def test_bounds_match_one_objective_solves(self, name):
        # each bound from the shared tableau is bitwise the maximum of a
        # program posed for that coordinate alone
        P = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.25], [0.2, 0.0, 1.0]])
        rng = np.random.default_rng(5)
        normals, offsets = {
            "secV": (SECV_F, SECV_G),
            "tri": (np.vstack([0.5 * P, -0.5 * P]), np.ones(6)),
            "random3d": (rng.normal(size=(10, 3)), rng.uniform(0.5, 2.0, 10)),
        }[name]
        safe_set = PolyhedralSet(normals, offsets)
        box = interval_enclosure(safe_set)

        def alone(row):
            lp = lpcore.LinearProgram()
            lp.add_block("x", (safe_set.dim,))
            lp.add_constraint_rows({"x": safe_set.normals}, "<=", safe_set.offsets)
            lp.set_objective("max", {"x": row})
            return lp.solve().objective

        eye = np.eye(safe_set.dim)
        hi = np.array([alone(e) for e in eye])
        lo = -np.array([alone(-e) for e in eye])
        assert box.hi.tobytes() == hi.tobytes() and box.lo.tobytes() == lo.tobytes()
        assert box.hi.tobytes() == np.array([lpcore.polytope_maxima([e], safe_set)[0] for e in eye]).tobytes()
        assert np.all(box.lo < 0.0) and np.all(box.hi > 0.0)

    def test_empty_polyhedron(self):
        # offsets of a PolyhedralSet are positive, so the crossing slabs
        # x <= -1, -x <= -1 come as a plain normals/offsets holder
        empty = SimpleNamespace(normals=np.array([[1.0], [-1.0]]), offsets=np.array([-1.0, -1.0]))
        with pytest.raises(EmptySetError):
            lpcore.polytope_maxima(np.array([[1.0], [-1.0]]), empty)
        with pytest.raises(EmptySetError):
            lpcore.polytope_maxima([[1.0]], empty)[0]

    def test_halfspace_unbounded_in_every_form(self):
        # the bounded first row is solved, the second row's verdict raises;
        # rows bounded over the halfspace share its tableau as usual
        half = PolyhedralSet([[1, 0]], [1])
        with pytest.raises(UnboundedSetError):
            lpcore.polytope_maxima(np.eye(2), half)
        assert lpcore.polytope_maxima(np.array([[1.0, 0.0], [2.0, 0.0]]), half).tolist() == [1.0, 2.0]

    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box([1.0, 0.0], [0.0, 1.0])


class TestGrid:
    def test_unit_box_3x3(self):
        pts = grid_members(unit_box(), (3, 3))
        assert pts.shape == (9, 2)
        assert any(np.allclose(p, [0, 0]) for p in pts)
        for corner in itertools.product([-1, 1], repeat=2):
            assert any(np.allclose(p, corner) for p in pts)

    def test_secv_members_only(self, secv_set):
        pts = grid_members(secv_set, (201, 201))
        assert np.all(secv_set.membership_mask(pts))
        assert pts.shape[0] > 1000

    def test_row_major_order(self):
        pts = grid_members(unit_box(), (2, 3))
        # first axis slowest: x1 = -1 block first, x2 sweeps -1, 0, 1
        np.testing.assert_allclose(pts[:3, 0], [-1, -1, -1])
        np.testing.assert_allclose(pts[:3, 1], [-1, 0, 1])

    def test_slabs_match_full_mesh(self):
        # the grid is built one first-axis slab at a time; filtering the full
        # mesh at once is the reference, for dimensions 1 and 3
        P = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.25], [0.2, 0.0, 1.0]])
        for safe_set, res in ((PolyhedralSet([[1.0], [-1.0]], [1.0, 2.0]), (7,)),
                              (PolyhedralSet(np.vstack([P, -P]), np.ones(6)), (7, 5, 6))):
            box = interval_enclosure(safe_set)
            axes = [np.linspace(lo, hi, r) for lo, hi, r in zip(box.lo, box.hi, res)]
            mesh = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1)
            np.testing.assert_array_equal(grid_members(safe_set, res),
                                          mesh[safe_set.membership_mask(mesh)])

    def test_fixed_size_blocks(self, monkeypatch):
        # the 52 members of a tilted 7 x 5 x 6 grid: blocks of 3 split the
        # slabs and would leave a one-member tail, which joins the block
        # before it; 51 would too; the order stays row-major
        P = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.25], [0.2, 0.0, 1.0]])
        safe_set = PolyhedralSet(np.vstack([P, -P]), np.ones(6))
        members = grid_members(safe_set, (7, 5, 6))
        assert len(members) == 52
        for size, widths in ((3, [3] * 16 + [4]), (51, [52]), (52, [52]), (10**9, [52])):
            monkeypatch.setattr(polytope, "_GRID_BLOCK", size)
            blocks = list(grid_blocks(safe_set, (7, 5, 6)))
            assert [block.shape[1] for block in blocks] == widths
            np.testing.assert_array_equal(np.hstack(blocks).T, members)

    def test_resolution_validation(self, secv_set):
        with pytest.raises(ValueError):
            grid_members(secv_set, (1, 3))
        with pytest.raises(DimensionMismatchError):
            grid_members(secv_set, (3,))

    def test_propagates_unbounded(self):
        with pytest.raises(UnboundedSetError):
            grid_members(PolyhedralSet([[1, 0]], [1]), (3, 3))


class TestSample:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_default_grid_then_vertices(self, dim):
        P = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.25], [0.2, 0.0, 1.0]])
        safe_set = (PolyhedralSet(SECV_F, SECV_G) if dim == 2
                    else PolyhedralSet(np.vstack([P, -P]), np.ones(6)))
        expected = np.vstack([grid_members(safe_set, grid_resolution(dim)),
                              np.array(enumerate_vertices(safe_set))])
        np.testing.assert_array_equal(sample_points(safe_set).T, expected)
        np.testing.assert_array_equal(sample_vertices(safe_set).T, enumerate_vertices(safe_set))

    def test_built_once_per_set_and_read_only(self, monkeypatch):
        walks = []
        blocks = polytope.grid_blocks
        monkeypatch.setattr(polytope, "grid_blocks",
                            lambda *args: walks.append(args) or blocks(*args))
        safe_set = PolyhedralSet(SECV_F, SECV_G)
        first = sample_points(safe_set)
        assert sample_points(safe_set) is first and len(walks) == 1
        for shared in (first, sample_vertices(safe_set)):
            with pytest.raises(ValueError):
                shared[0, 0] = 0.0
        # another object holding the same rows samples anew
        sample_points(PolyhedralSet(SECV_F, SECV_G))
        assert len(walks) == 2

    def test_no_vertices_above_dimension_three(self):
        box = PolyhedralSet(np.vstack([np.eye(4), -np.eye(4)]), np.ones(8))
        assert sample_vertices(box).shape == (4, 0)
        np.testing.assert_array_equal(sample_points(box).T,
                                      grid_members(box, grid_resolution(4)))
