import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from polysafe import lpcore
from polysafe.errors import MalformedProgramError, UnboundedSetError
from polysafe.lpcore import LinearProgram, LpStatus, polytope_max
from polysafe.polytope import PolyhedralSet, enumerate_vertices

from conftest import SECV_F, SECV_G


class TestBasics:
    def test_bounded_maximum(self):
        lp = LinearProgram()
        lp.add_block("x", (), nonneg=True)
        lp.add_constraint({"x": 1.0}, "<=", 3.0)
        lp.set_objective("max", {"x": 1.0})
        out = lp.solve()
        assert out.status == LpStatus.OPTIMAL
        assert abs(out.objective - 3.0) <= 1e-9
        assert out.max_residual <= lpcore.TOL_LP

    def test_infeasible(self):
        lp = LinearProgram()
        lp.add_block("x", (), nonneg=True)
        lp.add_constraint({"x": 1.0}, "<=", -1.0)
        out = lp.solve()
        assert out.status == LpStatus.INFEASIBLE
        assert out.infeasibility > 0.0
        assert out.unsatisfied_rows

    def test_unbounded(self):
        lp = LinearProgram()
        lp.add_block("x", (), nonneg=True)
        lp.set_objective("max", {"x": 1.0})
        assert lp.solve().status == LpStatus.UNBOUNDED

    def test_feasibility_only_status(self):
        lp = LinearProgram()
        lp.add_block("x", (2,))
        lp.add_constraint({"x": [1.0, 1.0]}, "=", 1.0)
        out = lp.solve()
        assert out.status == LpStatus.FEASIBLE
        assert abs(np.sum(out["x"]) - 1.0) <= 1e-9

    def test_equality_infeasible(self):
        lp = LinearProgram()
        lp.add_block("x", (), nonneg=True)
        lp.add_constraint({"x": 1.0}, "=", 2.0)
        lp.add_constraint({"x": 1.0}, "=", 3.0)
        assert lp.solve().status == LpStatus.INFEASIBLE

    def test_redundant_equalities_ok(self):
        lp = LinearProgram()
        lp.add_block("x", (2,), nonneg=True)
        lp.add_constraint({"x": [1.0, 1.0]}, "=", 2.0)
        lp.add_constraint({"x": [2.0, 2.0]}, "=", 4.0)
        lp.set_objective("min", {"x": [1.0, 0.0]})
        out = lp.solve()
        assert out.status == LpStatus.OPTIMAL
        assert abs(out.objective) <= 1e-9
        assert out.max_residual <= lpcore.TOL_LP

    def test_blocks_declared_after_constraints(self):
        lp = LinearProgram()
        lp.add_block("x", (), nonneg=True)
        lp.add_constraint({"x": 1.0}, "<=", 5.0)
        lp.add_block("y", (), nonneg=True)
        lp.add_constraint({"x": 1.0, "y": 1.0}, "<=", 7.0)
        lp.set_objective("max", {"x": 1.0, "y": 1.0})
        out = lp.solve()
        assert abs(out.objective - 7.0) <= 1e-9

    def test_malformed_references(self):
        lp = LinearProgram()
        lp.add_block("x", ())
        with pytest.raises(MalformedProgramError):
            lp.add_constraint({"y": 1.0}, "<=", 0.0)
        with pytest.raises(MalformedProgramError):
            lp.add_constraint({"x": [1.0, 2.0]}, "<=", 0.0)
        with pytest.raises(MalformedProgramError):
            lp.add_constraint({"x": 1.0}, "<<", 0.0)
        with pytest.raises(MalformedProgramError):
            lp.add_block("x", ())

    def test_near_zero_rows_are_zero_rows(self):
        # rescaling the tiny rows to unit size would turn rounding-level
        # right-hand sides into x0 = 100 and x0 = -100
        lp = LinearProgram()
        lp.add_block("x", (2,))
        lp.add_constraint({"x": [1.0, 1.0]}, "=", 1.0)
        lp.add_constraint({"x": [1e-18, 0.0]}, "=", 1e-16)
        lp.add_constraint({"x": [1e-18, 0.0]}, "=", -1e-16)
        out = lp.solve()
        assert out.status == LpStatus.FEASIBLE
        assert out.max_residual <= lpcore.TOL_LP

    def test_solution_replays(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            m, n = int(rng.integers(3, 10)), int(rng.integers(2, 8))
            lp = LinearProgram()
            lp.add_block("x", (n,))
            lp.add_constraint_rows({"x": rng.normal(size=(m, n))}, "<=",
                                   rng.uniform(0.5, 2.0, m))
            lp.add_constraint_rows({"x": np.eye(n)}, "<=", np.full(n, 3.0))
            lp.add_constraint_rows({"x": -np.eye(n)}, "<=", np.full(n, 3.0))
            lp.set_objective("max", {"x": rng.normal(size=n)})
            out = lp.solve()
            assert out.status == LpStatus.OPTIMAL
            assert out.max_residual <= lpcore.TOL_LP

    def test_determinism(self):
        def build():
            rng = np.random.default_rng(9)
            lp = LinearProgram()
            lp.add_block("x", (5,))
            lp.add_constraint_rows({"x": rng.normal(size=(8, 5))}, "<=", np.ones(8))
            lp.add_constraint({"x": np.ones(5)}, "=", 1.0)
            lp.set_objective("max", {"x": rng.normal(size=5)})
            return lp.solve()

        a, b = build(), build()
        np.testing.assert_array_equal(a["x"], b["x"])
        assert a.iterations == b.iterations


class TestAbsBound:
    def test_positive_entry(self):
        lp = LinearProgram()
        lp.add_block("e", ())
        lp.add_block("t", (), nonneg=True)
        lp.add_constraint({"e": 1.0}, "=", 2.0)
        lp.add_abs_bound(("e", 0), ("t", 0))
        lp.set_objective("min", {"t": 1.0})
        assert abs(lp.solve().objective - 2.0) <= 1e-9

    def test_negative_entry(self):
        lp = LinearProgram()
        lp.add_block("e", ())
        lp.add_block("t", (), nonneg=True)
        lp.add_constraint({"e": 1.0}, "=", -5.0)
        lp.add_abs_bound(("e", 0), ("t", 0))
        lp.set_objective("min", {"t": 1.0})
        assert abs(lp.solve().objective - 5.0) <= 1e-9

    def test_sum_of_abs_is_dual_norm(self):
        # max c @ e subject to sum |e_i| <= 1 equals max_i |c_i|
        rng = np.random.default_rng(21)
        for _ in range(20):
            c = rng.normal(size=3)
            lp = LinearProgram()
            lp.add_block("e", (3,))
            lp.add_block("t", (3,), nonneg=True)
            for i in range(3):
                lp.add_abs_bound(("e", i), ("t", i))
            lp.add_constraint({"t": np.ones(3)}, "<=", 1.0)
            lp.set_objective("max", {"e": c})
            out = lp.solve()
            assert abs(out.objective - np.max(np.abs(c))) <= 1e-9

    def test_matrix_index_form(self):
        lp = LinearProgram()
        lp.add_block("e", (2, 2))
        lp.add_block("t", (2, 2), nonneg=True)
        coeff = np.zeros((2, 2))
        coeff[1, 0] = 1.0
        lp.add_constraint({"e": coeff}, "=", -3.0)
        lp.add_abs_bound(("e", (1, 0)), ("t", (1, 0)))
        lp.set_objective("min", {"t": coeff})
        assert abs(lp.solve().objective - 3.0) <= 1e-9


class TestPolytopeMax:
    def test_secv_scaled_row(self, secv_set):
        assert abs(polytope_max(0.5 * SECV_F[0], secv_set) - 0.5) <= 1e-9

    def test_zero_row(self, secv_set):
        assert abs(polytope_max(np.zeros(2), secv_set)) <= 1e-12

    def test_unit_box_corner(self):
        box = PolyhedralSet([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        assert abs(polytope_max([1.0, 1.0], box) - 2.0) <= 1e-9

    def test_unbounded_direction(self):
        half = PolyhedralSet([[1.0, 0.0]], [1.0])
        with pytest.raises(UnboundedSetError):
            polytope_max([0.0, 1.0], half)

    def test_empty_set(self):
        # x <= -1 conflicts with -x <= -1 ... both offsets must be positive,
        # so emptiness is produced with crossing slabs instead
        lp = LinearProgram()
        lp.add_block("x", (1,))
        lp.add_constraint({"x": [1.0]}, "<=", -1.0)
        lp.add_constraint({"x": [-1.0]}, "<=", -1.0)
        lp.set_objective("max", {"x": [1.0]})
        assert lp.solve().status == LpStatus.INFEASIBLE

    def test_dimension_check(self, secv_set):
        with pytest.raises(MalformedProgramError):
            polytope_max([1.0, 0.0, 0.0], secv_set)


class TestStrongDuality:
    def test_fifty_random_rows(self, secv_set):
        vertices = np.array(enumerate_vertices(secv_set))
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(50):
            row = rng.normal(size=2)
            primal = float(np.max(vertices @ row))
            lp = LinearProgram()
            lp.add_block("alpha", (4,), nonneg=True)
            lp.add_constraint_rows({"alpha": SECV_F.T}, "=", row)
            lp.set_objective("min", {"alpha": SECV_G})
            out = lp.solve()
            assert out.status == LpStatus.OPTIMAL
            worst = max(worst, abs(primal - out.objective))
        assert worst <= 1e-7


class TestScale:
    def test_desk_scale_within_budget(self):
        rng = np.random.default_rng(42)
        n = 2000
        body = np.eye(n) + 0.001 * rng.uniform(0.0, 1.0, size=(n, n))
        lp = LinearProgram()
        lp.add_block("x", (n,), nonneg=True)
        lp.add_constraint_rows({"x": body}, "<=", np.ones(n))
        lp.set_objective("max", {"x": rng.uniform(1.0, 2.0, size=n)})
        start = time.perf_counter()
        out = lp.solve()
        elapsed = time.perf_counter() - start
        assert out.status == LpStatus.OPTIMAL
        assert out.max_residual <= lpcore.TOL_LP
        assert elapsed < 60.0

    def test_known_optimum_diagonal(self):
        n = 500
        lp = LinearProgram()
        lp.add_block("x", (n,), nonneg=True)
        lp.add_constraint_rows({"x": np.eye(n)}, "<=", np.ones(n))
        costs = np.linspace(1.0, 2.0, n)
        lp.set_objective("max", {"x": costs})
        out = lp.solve()
        assert abs(out.objective - costs.sum()) <= 1e-6


class TestAgainstReferenceSolver:
    def test_random_programs_match_highs(self):
        # independent cross-check of statuses and optimal values; the in-tree
        # simplex remains the production path
        from scipy.optimize import linprog

        rng = np.random.default_rng(101)
        for _ in range(60):
            m = int(rng.integers(1, 12))
            n = int(rng.integers(1, 10))
            n_eq = int(rng.integers(0, min(3, n) + 1))
            a_ub = rng.normal(size=(m, n))
            b_ub = rng.normal(size=m)
            a_eq = rng.normal(size=(n_eq, n)) if n_eq else None
            b_eq = rng.normal(size=n_eq) if n_eq else None
            c = rng.normal(size=n)
            nonneg = bool(rng.integers(0, 2))

            lp = LinearProgram()
            lp.add_block("x", (n,), nonneg=nonneg)
            lp.add_constraint_rows({"x": a_ub}, "<=", b_ub)
            if n_eq:
                lp.add_constraint_rows({"x": a_eq}, "=", b_eq)
            lp.set_objective("min", {"x": c})
            mine = lp.solve()

            ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                          bounds=[(0, None) if nonneg else (None, None)] * n,
                          method="highs")
            ref_status = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE,
                          3: LpStatus.UNBOUNDED}.get(ref.status)
            assert mine.status == ref_status
            if mine.status == LpStatus.OPTIMAL:
                assert abs(mine.objective - ref.fun) <= 1e-6 * (1 + abs(ref.fun))


class TestDump:
    def test_lp_format_file(self, tmp_path):
        lp = LinearProgram()
        lp.add_block("x", (2,), nonneg=True)
        lp.add_block("y", ())
        lp.add_constraint({"x": [1.0, 2.0], "y": -1.0}, "<=", 4.0)
        lp.add_constraint({"y": 1.0}, "=", 1.0)
        lp.set_objective("max", {"x": [1.0, 0.0]})
        path = tmp_path / "program.lp"
        lp.dump(path)
        text = path.read_text()
        assert "Maximize" in text
        assert "Subject To" in text
        assert "x_0" in text and "y" in text
        assert "Bounds" in text and "End" in text


class TestImportCost:
    def test_scipy_blas_is_not_imported_up_front(self):
        # scipy's BLAS serves only tableaux above 65,536 entries; importing
        # the package and loading a scenario must not pay for it
        root = Path(__file__).resolve().parent.parent
        code = ("import sys, polysafe\n"
                "from polysafe import cli\n"
                f"cli.load_scenario({str(root / 'scenarios' / 'secV.json')!r})\n"
                "print('scipy.linalg' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "False"
