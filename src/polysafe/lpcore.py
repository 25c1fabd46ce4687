"""Dense linear programming over named variable blocks.

Rows are ``<=`` or ``=``, and every program has an objective: without
:meth:`LinearProgram.set_objective` it minimizes 0.  The solver is a
two-phase primal simplex on the standard-form tableau: free variables are
split into positive/negative parts and ``<=`` rows get slack columns.
Every ``<=`` row with a nonnegative right-hand side starts on its slack,
at its equilibrated coefficient (sound, since slacks cost 0 and the ratio
test reads ``rhs / col``); only ``=`` rows and rows negated for a negative
right-hand side take artificial variables into phase 1.  Pivoting uses
Dantzig's rule (most negative reduced cost) and switches to Bland's
smallest-index rule after 100 degenerate pivots in a row, until a pivot
makes progress; ties in the ratio test go to the smallest basis variable
index.  Everything here runs at desk scale, where a dense tableau is the
right trade.

Constraints are kept as row groups, one coefficient matrix per block,
and assembled into one dense matrix per solve.  Everything before phase 2
depends on the constraints alone, so :func:`polytope_maxima` solves several
objectives over one polyhedron from one phase-2 start, each from its own
copy, with the bits of separate solves.  Reported solutions always
replay: outcomes with status ``OPTIMAL`` satisfy every original
constraint to within ``TOL_LP``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    EmptySetError,
    MalformedProgramError,
    NumericalInstabilityError,
    SolverStalledError,
    UnboundedSetError,
)

TOL_LP = 1e-7        # residual guarantee on reported solutions
_TOL_COST = 1e-9     # reduced-cost threshold for entering columns
_TOL_PIVOT = 1e-9    # hard pivot floor; smaller pivots poison the tableau
_TOL_RAY = 1e-7      # reduced cost below which an unpivotable column is a real ray
_TOL_PHASE1 = 1e-8   # scaled infeasibility threshold after phase 1
_TOL_ZERO_ROW = 1e-12  # rows this small relative to the matrix are zero rows
_MAX_PIVOTS = 200_000  # pivots one simplex call makes before it is a stall


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LpOutcome:
    """Result of a solve: status, per-block assignment and diagnostics.

    ``max_residual`` is recomputed against the original (unscaled)
    constraints.  ``infeasibility`` is the phase-1 objective, nonzero only
    when status is INFEASIBLE.  A scalar block's entry is a float.
    """

    status: LpStatus
    assignment: dict[str, np.ndarray] = field(default_factory=dict)
    objective: float | None = None
    max_residual: float = 0.0
    infeasibility: float = 0.0
    iterations: int = 0

    def __getitem__(self, name: str) -> np.ndarray:
        return self.assignment[name]


@dataclass
class _Block:
    shape: tuple[int, ...]
    size: int
    nonneg: bool
    offset: int


_SENSE = {"<=", "="}


class LinearProgram:
    """A dense LP: named variable blocks, linear constraints and an objective.

    Coefficients for a constraint are given per block, as an array with the
    block's shape (or a flat array of the block's size); the constraint reads
    ``sum_over_blocks sum_over_entries coeff * entry  <rel>  rhs``.  Bulk rows
    over flattened blocks can be added with :meth:`add_constraint_rows`.
    """

    def __init__(self) -> None:
        self._blocks: dict[str, _Block] = {}
        self._n_vars = 0
        # row groups keep one (k, block size) matrix per block and are
        # assembled at solve time, so blocks may be declared after constraints
        # referencing others
        self._groups: list[tuple[dict[str, np.ndarray], str, np.ndarray]] = []
        self._n_rows = 0
        self._objective: tuple[str, dict[str, np.ndarray]] = ("min", {})

    # ------------------------------------------------------------------
    # model building

    def add_block(self, name: str, shape: tuple[int, ...] = (), nonneg: bool = False) -> str:
        if name in self._blocks:
            raise MalformedProgramError(f"block {name!r} declared twice")
        if shape != ():
            shape = tuple(int(d) for d in np.atleast_1d(shape))
        if any(d <= 0 for d in shape):
            raise MalformedProgramError(f"block {name!r} has non-positive shape {shape}")
        size = int(np.prod(shape)) if shape else 1
        self._blocks[name] = _Block(shape, size, bool(nonneg), self._n_vars)
        self._n_vars += size
        return name

    def _coeff_flat(self, name: str, coeff) -> np.ndarray:
        if name not in self._blocks:
            raise MalformedProgramError(f"reference to undeclared block {name!r}")
        block = self._blocks[name]
        arr = np.asarray(coeff, dtype=float)
        if arr.ndim == 0:
            arr = np.full(block.size, float(arr))
        else:
            arr = arr.reshape(-1)
        if arr.size != block.size:
            raise MalformedProgramError(
                f"coefficients for block {name!r} have size {arr.size}, expected {block.size}"
            )
        return arr

    def _densify(self, terms: dict[str, np.ndarray]) -> np.ndarray:
        row = np.zeros(self._n_vars)
        for name, coeff in terms.items():
            block = self._blocks[name]
            row[block.offset:block.offset + block.size] += coeff
        return row

    def add_constraint(self, terms: dict, rel: str, rhs: float) -> None:
        if not terms:
            raise MalformedProgramError("constraint with no terms")
        self.add_constraint_rows({name: self._coeff_flat(name, c) for name, c in terms.items()},
                                 rel, [rhs])

    def add_constraint_rows(self, terms: dict, rel: str, rhs) -> None:
        """Add ``k`` constraints at once; each term maps a block to a (k, size) array.

        A NaN or infinite coefficient or right-hand side is refused: the
        simplex and its replay gate are only sound on finite numbers.
        """
        if rel not in _SENSE:
            raise MalformedProgramError(f"unknown relation {rel!r}")
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        if not np.isfinite(rhs).all():
            raise MalformedProgramError("right-hand side has a non-finite entry")
        k = rhs.size
        mats = {}
        for name, mat in terms.items():
            if name not in self._blocks:
                raise MalformedProgramError(f"reference to undeclared block {name!r}")
            block = self._blocks[name]
            mat = np.asarray(mat, dtype=float).reshape(k, -1)
            if mat.shape[1] != block.size:
                raise MalformedProgramError(
                    f"rows for block {name!r} have width {mat.shape[1]}, expected {block.size}"
                )
            if not np.isfinite(mat).all():
                raise MalformedProgramError(f"rows for block {name!r} have a non-finite entry")
            mats[name] = mat
        self._groups.append((mats, rel, rhs))
        self._n_rows += k

    def set_objective(self, sense: str, terms: dict) -> None:
        if sense not in ("min", "max"):
            raise MalformedProgramError(f"objective sense must be 'min' or 'max', got {sense!r}")
        coeffs = {n: self._coeff_flat(n, c) for n, c in terms.items()}
        for name, coeff in coeffs.items():
            if not np.isfinite(coeff).all():
                raise MalformedProgramError(
                    f"objective coefficients for block {name!r} have a non-finite entry")
        self._objective = (sense, coeffs)

    @property
    def n_variables(self) -> int:
        return self._n_vars

    @property
    def n_constraints(self) -> int:
        return self._n_rows

    def _assemble(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Constraint matrix, ``<=`` row mask and right-hand sides."""
        A = np.zeros((self._n_rows, self._n_vars))
        is_ineq = np.empty(self._n_rows, dtype=bool)
        b = np.empty(self._n_rows)
        start = 0
        for mats, rel, rhs in self._groups:
            stop = start + rhs.size
            for name, mat in mats.items():
                block = self._blocks[name]
                A[start:stop, block.offset:block.offset + block.size] += mat
            is_ineq[start:stop] = rel == "<="
            b[start:stop] = rhs
            start = stop
        return A, is_ineq, b

    # ------------------------------------------------------------------
    # solving

    def solve(self) -> LpOutcome:
        return next(self._solve_each([self._objective]))

    def _solve_each(self, objectives: list):
        """Yield one outcome per objective over this program's constraints.

        Each objective is a ``(sense, terms)`` pair as :meth:`set_objective`
        stores it.  Assembly, row equilibration and phase 1 depend only on
        the constraints, so they run once; phase 2 runs per objective from a
        copy of that start (the last objective takes the start itself), so
        each outcome is bitwise that of a solve with its objective alone.
        """
        if not self._blocks:
            raise MalformedProgramError("program has no variables")
        A, is_ineq, b = self._assemble()

        # Column layout, in variable order: a plus column per variable, then a
        # minus column when it is free.
        free = np.concatenate([np.full(blk.size, not blk.nonneg) for blk in self._blocks.values()])
        col_plus = np.arange(self._n_vars) + np.cumsum(free) - free
        col_minus = col_plus[free] + 1
        n_std = self._n_vars + int(free.sum())

        m = A.shape[0]
        ineq = np.flatnonzero(is_ineq)
        slacks = n_std + np.arange(ineq.size)
        n_total = n_std + ineq.size
        T = np.zeros((m, n_total + 1))
        T[:, col_plus] = A
        T[:, col_minus] = -A[:, free]
        T[ineq, slacks] = 1.0
        T[:, -1] = b

        # Row equilibration keeps pivot tolerances meaningful; residuals are
        # recomputed against the original rows afterwards.
        if m:
            # Rows whose coefficients are rounding noise next to the rest of
            # the matrix are zero rows: scaling them up would scale the noise.
            row_max = np.abs(A).max(axis=1)
            T[row_max <= _TOL_ZERO_ROW * float(row_max.max()), :n_std] = 0.0
            scale = np.abs(T[:, :-1]).max(axis=1)
            scale[scale == 0.0] = 1.0
            T /= scale[:, None]
            T[T[:, -1] < 0] *= -1.0

        # Initial basis: the slack of every row left unnegated; artificials elsewhere.
        basis = np.full(m, -1, dtype=int)
        starts = T[ineq, slacks] > 0.0
        basis[ineq[starts]] = slacks[starts]
        needs_art = np.flatnonzero(basis < 0)

        phase1 = 0
        if needs_art.size:
            arts = n_total + np.arange(needs_art.size)
            basis[needs_art] = arts
            T1 = np.zeros((m, n_total + needs_art.size + 1), order="F")
            T1[:, :n_total] = T[:, :-1]
            T1[needs_art, arts] = 1.0
            T1[:, -1] = T[:, -1]
            T = T1
            c_phase1 = np.zeros(T.shape[1] - 1)
            c_phase1[n_total:] = 1.0
            status, phase1 = _simplex(T, basis, c_phase1, ray_tol=np.inf)
            if status != "optimal":  # pragma: no cover - phase 1 is always bounded
                raise MalformedProgramError("phase 1 terminated abnormally")
            artificial = basis >= n_total
            # numpy scalars, added in row order as before: on Python floats,
            # sum() compensates its rounding from Python 3.12 on
            infeas = float(sum(T[artificial, -1]))
            floor = _TOL_PHASE1 * (1.0 + float(np.abs(b).max(initial=0.0)))
            if infeas > floor:
                for _ in objectives:
                    yield LpOutcome(status=LpStatus.INFEASIBLE, infeasibility=infeas,
                                    iterations=phase1)
                return
            # Drive leftover artificials out of the basis; drop redundant rows.
            keep = np.ones(m, dtype=bool)
            for i in np.flatnonzero(artificial).tolist():
                pivots = np.flatnonzero(np.abs(T[i, :n_total]) > 1e-7)
                if pivots.size:
                    _pivot(T, basis, i, int(pivots[0]))
                else:
                    keep[i] = False
            T = T[keep]
            basis = basis[keep]
            T = np.hstack([T[:, :n_total], T[:, -1:]])

        T = np.asfortranarray(T)
        coeff_scale = float(np.abs(A).max()) if A.size else 0.0
        cap = TOL_LP * (1.0 + coeff_scale + float(np.abs(b).max(initial=0.0)))
        for k, (obj_sense, terms) in enumerate(objectives):
            row = self._densify(terms)
            c, obj_sign = (row, 1.0) if obj_sense == "min" else (-row, -1.0)
            c_std = np.zeros(n_total)
            c_std[col_plus] = c
            c_std[col_minus] = -c[free]
            last = k == len(objectives) - 1
            T_k = T if last else T.copy(order="F")
            basis_k = basis if last else basis.copy()
            status, phase2 = _simplex(T_k, basis_k, c_std)
            iterations = phase1 + phase2
            if status == "unbounded":
                yield LpOutcome(status=LpStatus.UNBOUNDED, iterations=iterations)
                continue

            x_std = np.zeros(n_total)
            x_std[basis_k] = T_k[:, -1]
            x = x_std[col_plus]
            x[free] -= x_std[col_minus]

            assignment = {}
            for name, blk in self._blocks.items():
                seg = x[blk.offset:blk.offset + blk.size]
                assignment[name] = float(seg[0]) if blk.shape == () else seg.reshape(blk.shape).copy()

            # A claimed-feasible outcome must replay against the original rows;
            # on near-singular systems the tableau can "solve" in scaled units
            # while the unscaled solution is garbage, and that must not escape.
            gap = A @ x - b
            residual = max(float(np.max(np.where(is_ineq, gap, np.abs(gap)), initial=0.0)),
                           float(np.max(-x[~free], initial=0.0)))
            if not residual <= cap:  # a NaN residual fails too
                raise NumericalInstabilityError(
                    f"solution replay residual {residual:.3e} exceeds {cap:.3e}; "
                    "the constraint system is numerically unreliable")

            yield LpOutcome(
                status=LpStatus.OPTIMAL,
                assignment=assignment,
                objective=float(obj_sign * np.dot(c, x)),
                max_residual=residual,
                iterations=iterations,
            )


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
        # the simplex keeps T Fortran-ordered; a product in that layout spares
        # the subtraction a walk across T's strides (the bits are the same)
        T -= np.multiply(colv[:, None], rowv, order="F")


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot_row = T[row]
    pivot_row /= pivot_row[col]
    colv = T[:, col].copy()
    colv[row] = 0.0
    _rank1_update(T, colv, pivot_row)
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _simplex(T: np.ndarray, basis: np.ndarray, c_ext: np.ndarray,
             ray_tol: float = _TOL_RAY) -> tuple[str, int]:
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
    ``_MAX_PIVOTS`` pivots with no verdict it raises
    :class:`SolverStalledError`.
    """
    n_cols = T.shape[1] - 1
    cost = np.zeros(n_cols + 1)
    reduced = cost[:n_cols]
    rhs = T[:, -1]
    ratios = np.empty(T.shape[0])

    def refresh() -> None:
        cb = c_ext[basis]
        reduced[:] = c_ext - cb @ T[:, :n_cols]
        cost[n_cols] = -float(cb @ rhs)
        cost[basis] = 0.0

    refresh()
    iterations = 0
    stalled = 0
    bland = False
    while True:
        if iterations >= _MAX_PIVOTS:
            raise SolverStalledError(f"simplex exceeded {_MAX_PIVOTS} iterations")
        tol_c = _TOL_COST * (1.0 + float(np.abs(reduced).max(initial=0.0)))
        negative = (reduced < -tol_c).nonzero()[0]
        if not negative.size:
            return "optimal", iterations
        # The first candidate in either rule's order; argmin is the head of
        # Dantzig's stable order, since no reduced cost is NaN here (a NaN
        # makes tol_c NaN and leaves no candidate).
        j = int(negative[0] if bland else reduced.argmin())
        col = T[:, j]
        positive = col > _TOL_PIVOT
        if not positive.any():
            j = -1
            order = negative if bland else negative[reduced[negative].argsort(kind="stable")]
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
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=positive)
        best = float(ratios.min())
        ties = (ratios <= best + 1e-12 * (1.0 + abs(best))).nonzero()[0]
        row = int(ties[0] if ties.size == 1 else ties[basis[ties].argmin()])  # smallest basis index breaks ties
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


def polytope_maxima(rows, safe_set) -> np.ndarray:
    """Maximum of ``row @ x`` over ``{x : normals @ x <= offsets}`` for each
    row of ``rows`` (k, n), over one tableau.

    ``safe_set`` is any object with ``normals`` (s, n) and ``offsets`` (s,)
    attributes.  The rows share the polyhedron's constraint system, so its
    assembly, equilibration and phase 1 run once; each row's phase 2 starts
    from a copy of that tableau, and its maximum is bitwise the one-row
    value.  Rows are solved in order, and the first empty or unbounded
    verdict raises :class:`EmptySetError` / :class:`UnboundedSetError`.
    """
    normals = np.asarray(safe_set.normals, dtype=float)
    offsets = np.asarray(safe_set.offsets, dtype=float)
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != normals.shape[1]:
        raise MalformedProgramError(
            f"rows have shape {rows.shape}, polyhedron lives in R^{normals.shape[1]}"
        )
    lp = LinearProgram()
    lp.add_block("x", (normals.shape[1],))
    lp.add_constraint_rows({"x": normals}, "<=", offsets)
    maxima = np.empty(rows.shape[0])
    for k, outcome in enumerate(lp._solve_each([("max", {"x": row}) for row in rows])):
        if outcome.status == LpStatus.INFEASIBLE:
            raise EmptySetError("polyhedron is empty")
        if outcome.status == LpStatus.UNBOUNDED:
            raise UnboundedSetError("functional is unbounded over the polyhedron")
        maxima[k] = outcome.objective
    return maxima
