import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from polysafe import lpcore, synthesis
from polysafe.errors import MalformedProgramError, SolverStalledError, UnboundedSetError
from polysafe.lpcore import _TOL_COST, _TOL_PIVOT, _TOL_RAY, LinearProgram, LpStatus, polytope_maxima
from polysafe.polytope import PolyhedralSet, enumerate_vertices, interval_enclosure

from conftest import SECV_F, SECV_G, duo_problem, tri_problem


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
        assert out.status == LpStatus.OPTIMAL and out.objective == 0.0
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

    def test_pivot_cap_is_a_stall(self, monkeypatch):
        # a well-formed program that reaches the pivot cap is a stall, which the
        # CLI reports per method, not a malformed program
        monkeypatch.setattr(lpcore, "_MAX_PIVOTS", 0)
        lp = LinearProgram()
        lp.add_block("x", (), nonneg=True)
        lp.add_constraint({"x": 1.0}, "<=", 3.0)
        lp.set_objective("max", {"x": 1.0})
        with pytest.raises(SolverStalledError, match="simplex exceeded 0 iterations"):
            lp.solve()
        assert not issubclass(SolverStalledError, MalformedProgramError)

    def test_near_zero_rows_are_zero_rows(self):
        # rescaling the tiny rows to unit size would turn rounding-level
        # right-hand sides into x0 = 100 and x0 = -100
        lp = LinearProgram()
        lp.add_block("x", (2,))
        lp.add_constraint({"x": [1.0, 1.0]}, "=", 1.0)
        lp.add_constraint({"x": [1e-18, 0.0]}, "=", 1e-16)
        lp.add_constraint({"x": [1e-18, 0.0]}, "=", -1e-16)
        out = lp.solve()
        assert out.status == LpStatus.OPTIMAL
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


class TestPolytopeMax:
    def test_secv_scaled_row(self, secv_set):
        assert abs(polytope_maxima([0.5 * SECV_F[0]], secv_set)[0] - 0.5) <= 1e-9

    def test_zero_row(self, secv_set):
        assert abs(polytope_maxima([np.zeros(2)], secv_set)[0]) <= 1e-12

    def test_unit_box_corner(self):
        box = PolyhedralSet([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        assert abs(polytope_maxima([[1.0, 1.0]], box)[0] - 2.0) <= 1e-9

    def test_unbounded_direction(self):
        half = PolyhedralSet([[1.0, 0.0]], [1.0])
        with pytest.raises(UnboundedSetError):
            polytope_maxima([[0.0, 1.0]], half)

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
            polytope_maxima([[1.0, 0.0, 0.0]], secv_set)


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


def random_programs():
    """60 random programs of up to 11 inequality and 3 equality rows, each
    with its data: ``(lp, c, a_ub, b_ub, a_eq, b_eq, nonneg)``."""
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
        yield lp, c, a_ub, b_ub, a_eq, b_eq, nonneg


class TestAgainstReferenceSolver:
    def test_random_programs_match_highs(self):
        # independent cross-check of statuses and optimal values; the in-tree
        # simplex remains the production path
        from scipy.optimize import linprog

        for lp, c, a_ub, b_ub, a_eq, b_eq, nonneg in random_programs():
            n = c.size
            mine = lp.solve()

            ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                          bounds=[(0, None) if nonneg else (None, None)] * n,
                          method="highs")
            ref_status = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE,
                          3: LpStatus.UNBOUNDED}.get(ref.status)
            assert mine.status == ref_status
            if mine.status == LpStatus.OPTIMAL:
                assert abs(mine.objective - ref.fun) <= 1e-6 * (1 + abs(ref.fun))

    def test_leftover_artificial_is_pivoted_out(self, monkeypatch):
        # -x1 - x2 = 0 with x >= 0 ends phase 1 with its artificial basic at
        # zero; it is pivoted out on x1 before phase 2, and the solution
        # replays and agrees with HiGHS
        from scipy.optimize import linprog

        leaving = []
        pivot = lpcore._pivot
        monkeypatch.setattr(lpcore, "_pivot", lambda T, basis, row, col: (
            leaving.append(int(basis[row])) or pivot(T, basis, row, col)))
        a_eq, b_eq = np.array([[-1.0, -1.0, 0.0]]), np.zeros(1)
        a_ub, b_ub = np.ones((1, 3)), np.array([2.0])
        c = np.array([1.0, 2.0, 1.0])
        lp = LinearProgram()
        lp.add_block("x", (3,), nonneg=True)
        lp.add_constraint_rows({"x": a_eq}, "=", b_eq)
        lp.add_constraint_rows({"x": a_ub}, "<=", b_ub)
        lp.set_objective("max", {"x": c})
        out = lp.solve()
        # columns: x (3) and the <= row's slack; an artificial comes after them
        assert any(var >= 4 for var in leaving), leaving
        assert out.status == LpStatus.OPTIMAL and out.max_residual <= lpcore.TOL_LP
        x = out["x"]
        assert np.all(x >= 0.0) and abs(a_eq @ x).max() <= lpcore.TOL_LP
        assert (a_ub @ x <= b_ub + lpcore.TOL_LP).all()
        ref = linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")
        assert ref.status == 0 and abs(out.objective + ref.fun) <= 1e-9


# ---------------------------------------------------------------------------
# The pivot loop as it was before its numpy calls were trimmed, verbatim: the
# reference the production loop must reproduce bit for bit.

def _rank1_update(T: np.ndarray, colv: np.ndarray, rowv: np.ndarray) -> None:
    """In-place ``T -= outer(colv, rowv)``; BLAS ger when the layout allows.

    ger avoids a full temporary per pivot on large tableaux.  scipy's BLAS
    is imported only on that path: importing it costs about 0.3 s and 30 MB,
    which small programs never need.
    """
    if T.flags.f_contiguous and T.size > 65536:
        from scipy.linalg.blas import dger
        dger(-1.0, colv, rowv, a=T, overwrite_a=1)
    else:
        T -= np.outer(colv, rowv)


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    colv = T[:, col].copy()
    colv[row] = 0.0
    _rank1_update(T, colv, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _simplex(T: np.ndarray, basis: np.ndarray, c_ext: np.ndarray,
             ray_tol: float = _TOL_RAY, max_iterations: int = 200_000) -> tuple[str, int]:
    """Minimize ``c_ext`` over the tableau ``T`` (rhs in the last column).

    Pivoting is Dantzig's rule (most negative reduced cost) with an
    automatic switch to Bland's smallest-index rule after a run of
    degenerate pivots, which preserves the anti-cycling termination
    guarantee while avoiding Bland's stalling on the heavily degenerate
    norm-budget programs.  The reduced-cost row is recomputed from the
    current tableau every 128 pivots so accumulated drift cannot flip
    eligibility decisions.

    A column with reduced cost below ``-ray_tol`` and no positive entry is
    a genuine unbounded direction; marginally negative unpivotable columns
    are treated as numerically dead.  Phase 1 passes ``ray_tol=inf`` since
    its objective is bounded below by construction.  After
    ``max_iterations`` pivots with no verdict it raises
    :class:`SolverStalledError`.
    """
    n_cols = T.shape[1] - 1
    cost = np.zeros(n_cols + 1)

    def refresh() -> None:
        cb = c_ext[basis]
        cost[:n_cols] = c_ext - cb @ T[:, :n_cols]
        cost[n_cols] = -float(cb @ T[:, -1])
        cost[basis] = 0.0

    refresh()
    iterations = 0
    stalled = 0
    bland = False
    while True:
        if iterations >= max_iterations:
            raise SolverStalledError(f"simplex exceeded {max_iterations} iterations")
        tol_c = _TOL_COST * (1.0 + float(np.max(np.abs(cost[:n_cols]), initial=0.0)))
        negative = np.flatnonzero(cost[:n_cols] < -tol_c)
        if negative.size == 0:
            return "optimal", iterations
        order = negative if bland else negative[np.argsort(cost[negative], kind="stable")]
        j = -1
        for cand in order:
            col = T[:, cand]
            positive = col > _TOL_PIVOT
            if positive.any():
                j = int(cand)
                break
            if cost[cand] < -ray_tol:
                return "unbounded", iterations
            cost[cand] = 0.0  # numerically dead column; restored truth at next refresh
        if j < 0:
            continue
        ratios = np.full(T.shape[0], np.inf)
        ratios[positive] = T[positive, -1] / col[positive]
        best = float(ratios.min())
        ties = np.flatnonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))
        row = int(ties[np.argmin(basis[ties])])  # smallest basis index breaks ties
        _pivot(T, basis, row, j)
        cost -= cost[j] * T[row]
        cost[j] = 0.0
        iterations += 1
        if best > 1e-12:
            stalled = 0
            bland = False
        else:
            stalled += 1
            if stalled > 100:
                bland = True  # escape the degenerate vertex with Bland's rule
        if iterations % 128 == 0:
            refresh()



def degenerate_program(n: int = 8):
    """60 random halfspaces through the origin and a box around it in R^n.

    Every row has a nonnegative right-hand side, so every row starts on its
    slack and there is no phase 1.  In R^8 the program solves in 25 pivots;
    in R^20 its optimum is the origin, reached after 1,039 pivots, every one
    of them degenerate."""
    rng = np.random.default_rng(0)
    lp = LinearProgram()
    lp.add_block("x", (n,))
    lp.add_constraint_rows({"x": rng.normal(size=(60, n))}, "<=", np.zeros(60))
    lp.add_constraint_rows({"x": np.eye(n)}, "<=", np.ones(n))
    lp.add_constraint_rows({"x": -np.eye(n)}, "<=", np.ones(n))
    lp.set_objective("max", {"x": rng.normal(size=n)})
    return lp


def dead_column_program(pivotable: bool):
    """``min -5e-8 a (- 1e-8 b) + c`` over ``b + c <= 1, -a <= 1``, all >= 0.

    The most negative reduced cost sits on ``a``, whose column has no
    positive entry and whose rate is inside the ray tolerance: the loop
    treats it as numerically dead and falls back to the full candidate order,
    where it pivots ``b`` in, or, without ``b``, finds no candidate left."""
    lp = LinearProgram()
    for name in ("a", "b", "c"):
        lp.add_block(name, (), nonneg=True)
    lp.add_constraint({"b": 1.0, "c": 1.0}, "<=", 1.0)
    lp.add_constraint({"a": -1.0}, "<=", 1.0)
    lp.set_objective("min", {"a": -5e-8, "b": -1e-8 if pivotable else 0.0, "c": 1.0})
    return lp


class TestPivotLoopMatchesReference:
    """Every tableau ``solve`` hands to the simplex, replayed through the
    production loop and the reference loop above: the same verdict, pivot
    count, basis and tableau bytes."""

    @pytest.fixture()
    def recorded(self, monkeypatch):
        inputs = []
        simplex = lpcore._simplex

        def recording(T, basis, c_ext, ray_tol=_TOL_RAY):
            inputs.append((T.copy(order="K"), basis.copy(), c_ext.copy(), ray_tol))
            return simplex(T, basis, c_ext, ray_tol)

        monkeypatch.setattr(lpcore, "_simplex", recording)
        return inputs, simplex

    @staticmethod
    def replay(inputs, simplex):
        for T, basis, c_ext, ray_tol in inputs:
            mine_T, mine_basis = T.copy(order="K"), basis.copy()
            ref_T, ref_basis = T.copy(order="K"), basis.copy()
            mine = simplex(mine_T, mine_basis, c_ext.copy(), ray_tol)
            ref = _simplex(ref_T, ref_basis, c_ext.copy(), ray_tol)
            assert mine == ref
            np.testing.assert_array_equal(mine_basis, ref_basis)
            assert mine_T.tobytes() == ref_T.tobytes()

    def test_design_and_enclosure_programs(self, recorded, secv_data):
        inputs, simplex = recorded
        rng = np.random.default_rng(5)
        interval_enclosure(PolyhedralSet(rng.normal(size=(10, 3)), rng.uniform(0.5, 2.0, 10)))
        assert len(inputs) >= 6  # a phase 2 per objective
        for make in (lambda: (PolyhedralSet(SECV_F, SECV_G), secv_data),
                     lambda: duo_problem(160), lambda: tri_problem(160)):
            before = len(inputs)
            safe_set, data = make()
            interval_enclosure(safe_set)  # the duo and tri data were collected with it
            assert len(inputs) - before >= 2 * safe_set.dim
            for design in (synthesis.synthesize_noiseless, synthesis.synthesize_min_remainder):
                before = len(inputs)
                design(data, safe_set)
                assert len(inputs) > before  # thm2, then thm1
        self.replay(inputs, simplex)

    def test_random_programs(self, recorded):
        inputs, simplex = recorded
        statuses = {lp.solve().status for lp, *_ in random_programs()}
        assert statuses == set(LpStatus)
        self.replay(inputs, simplex)

    def test_dead_columns(self, recorded):
        inputs, simplex = recorded
        for pivotable, b in ((True, 1.0), (False, 0.0)):
            out = dead_column_program(pivotable).solve()
            assert out.status == LpStatus.OPTIMAL and out["a"] == 0.0 and out["b"] == b
        assert len(inputs) == 2
        self.replay(inputs, simplex)

    def test_nonnegative_rows_start_on_slacks(self, recorded):
        # slacks whose equilibrated coefficient is below 1 start basic too:
        # one simplex call, with phase 2's ray tolerance
        inputs, simplex = recorded
        out = degenerate_program().solve()
        assert out.status == LpStatus.OPTIMAL and out.iterations == 25
        assert [ray_tol for *_, ray_tol in inputs] == [_TOL_RAY]
        self.replay(inputs, simplex)

    def test_bland_switch(self, recorded, monkeypatch):
        inputs, simplex = recorded
        assert degenerate_program(20).solve().status == LpStatus.OPTIMAL
        ratios = []

        def pivot(T, basis, row, col):
            ratios.append(T[row, -1] / T[row, col])
            lpcore._pivot(T, basis, row, col)

        monkeypatch.setitem(globals(), "_pivot", pivot)
        runs = []
        for entry in inputs:
            self.replay([entry], simplex)
            runs.append(len(ratios))
            assert all(r <= 1e-12 for r in ratios)
            ratios.clear()
        # the reference loop switched to Bland's rule: more than 100
        # degenerate pivots in a row
        assert runs == [1039]


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
