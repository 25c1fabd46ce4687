"""Dense linear programming over named variable blocks.

The solver is a two-phase primal simplex on the standard-form tableau:
free variables are split into positive/negative parts, inequalities get
slack columns, equalities are kept as equalities and receive artificial
variables in phase 1.  Pivoting uses Dantzig's rule (most negative
reduced cost) and switches to Bland's smallest-index rule after 100
degenerate pivots in a row, until a pivot makes progress; ties in the
ratio test go to the smallest basis variable index.  Everything here
runs at desk scale, where a dense tableau is the right trade.

Constraints are kept as row groups, one coefficient matrix per block,
and assembled into one dense matrix per solve.  Reported solutions always
replay: outcomes with status ``OPTIMAL`` or ``FEASIBLE`` satisfy every
original constraint to within ``TOL_LP``.
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


class LpStatus(Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LpOutcome:
    """Result of a solve: status, per-block assignment and diagnostics.

    ``max_residual`` is recomputed against the original (unscaled)
    constraints.  ``infeasibility`` is the phase-1 objective, nonzero only
    when status is INFEASIBLE; ``unsatisfied_rows`` then lists the
    constraint indices whose artificial variables stayed basic with a
    positive value (the phase-1 certificate).
    """

    status: LpStatus
    assignment: dict[str, np.ndarray] = field(default_factory=dict)
    objective: float | None = None
    max_residual: float = 0.0
    infeasibility: float = 0.0
    unsatisfied_rows: list[int] = field(default_factory=list)
    iterations: int = 0

    def __getitem__(self, name: str) -> np.ndarray:
        return self.assignment[name]

    def value(self, name: str) -> float:
        """Scalar value of a block (the block must have a single entry)."""
        return float(np.asarray(self.assignment[name]).reshape(-1)[0])


@dataclass
class _Block:
    name: str
    shape: tuple[int, ...]
    size: int
    nonneg: bool
    offset: int


# indexed by row sense: +1 "<=", 0 "=", -1 ">="
_RELATIONS = ("=", "<=", ">=")
_SENSE = {"<=": 1.0, "=": 0.0, ">=": -1.0}


class LinearProgram:
    """A dense LP: named variable blocks, linear constraints, optional objective.

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
        self._objective: tuple[str, dict[str, np.ndarray]] | None = None

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
        self._blocks[name] = _Block(name, shape, size, bool(nonneg), self._n_vars)
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
        """Add ``k`` constraints at once; each term maps a block to a (k, size) array."""
        if rel not in _RELATIONS:
            raise MalformedProgramError(f"unknown relation {rel!r}")
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
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
            mats[name] = mat
        self._groups.append((mats, rel, rhs))
        self._n_rows += k

    def set_objective(self, sense: str, terms: dict) -> None:
        if sense not in ("min", "max"):
            raise MalformedProgramError(f"objective sense must be 'min' or 'max', got {sense!r}")
        self._objective = (sense, {n: self._coeff_flat(n, c) for n, c in terms.items()})

    @property
    def n_variables(self) -> int:
        return self._n_vars

    @property
    def n_constraints(self) -> int:
        return self._n_rows

    def _assemble(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Constraint matrix, row senses (+1 ``<=``, -1 ``>=``, 0 ``=``) and right-hand sides."""
        A = np.zeros((self._n_rows, self._n_vars))
        sense = np.empty(self._n_rows)
        b = np.empty(self._n_rows)
        start = 0
        for mats, rel, rhs in self._groups:
            stop = start + rhs.size
            for name, mat in mats.items():
                block = self._blocks[name]
                A[start:stop, block.offset:block.offset + block.size] += mat
            sense[start:stop] = _SENSE[rel]
            b[start:stop] = rhs
            start = stop
        return A, sense, b

    # ------------------------------------------------------------------
    # solving

    def solve(self) -> LpOutcome:
        if not self._blocks:
            raise MalformedProgramError("program has no variables")
        A, sense, b = self._assemble()

        if self._objective is None:
            c, obj_sign = np.zeros(self._n_vars), 1.0
        else:
            obj_sense, terms = self._objective
            row = self._densify(terms)
            c, obj_sign = (row, 1.0) if obj_sense == "min" else (-row, -1.0)

        # Column layout, in variable order: a plus column per variable, then a
        # minus column when it is free.
        free = np.concatenate([np.full(blk.size, not blk.nonneg) for blk in self._blocks.values()])
        col_plus = np.arange(self._n_vars) + np.cumsum(free) - free
        col_minus = np.where(free, col_plus + 1, -1)
        n_std = self._n_vars + int(free.sum())

        m = A.shape[0]
        ineq = np.flatnonzero(sense != 0.0)
        n_total = n_std + ineq.size
        T = np.zeros((m, n_total + 1))
        T[:, col_plus] = A
        T[:, col_minus[free]] = -A[:, free]
        c_std = np.zeros(n_total)
        c_std[col_plus] = c
        c_std[col_minus[free]] = -c[free]

        slack_of_row = np.full(m, -1, dtype=int)
        slack_of_row[ineq] = n_std + np.arange(ineq.size)
        T[ineq, slack_of_row[ineq]] = sense[ineq]
        T[:, -1] = b

        # Row equilibration keeps pivot tolerances meaningful; residuals are
        # recomputed against the original rows afterwards.
        if m:
            # Rows whose coefficients are rounding noise next to the rest of
            # the matrix are zero rows: scaling them up would scale the noise.
            row_max = np.max(np.abs(A), axis=1)
            T[row_max <= _TOL_ZERO_ROW * float(row_max.max()), :n_std] = 0.0
            scale = np.max(np.abs(T[:, :-1]), axis=1)
            scale[scale == 0.0] = 1.0
            T /= scale[:, None]
            T[T[:, -1] < 0] *= -1.0
            # Zero-rhs rows whose slack carries -1 are negated too, so the
            # slack can start basic; otherwise every ">= 0" row would drag an
            # artificial variable (and a degenerate pivot) into phase 1.
            for i in range(m):
                sc = slack_of_row[i]
                if sc >= 0 and T[i, -1] == 0.0 and T[i, sc] < 0.0:
                    T[i] *= -1.0

        # Initial basis: slacks still carrying +1; artificials elsewhere.
        basis = np.full(m, -1, dtype=int)
        needs_art = []
        for i in range(m):
            sc = slack_of_row[i]
            if sc >= 0 and T[i, sc] > 0.5:
                basis[i] = sc
            else:
                needs_art.append(i)

        iterations = 0
        if needs_art:
            art = np.zeros((m, len(needs_art)))
            for k, i in enumerate(needs_art):
                art[i, k] = 1.0
                basis[i] = n_total + k
            T = np.asfortranarray(np.hstack([T[:, :-1], art, T[:, -1:]]))
            c_phase1 = np.zeros(T.shape[1] - 1)
            c_phase1[n_total:] = 1.0
            status, it = _simplex(T, basis, c_phase1, ray_tol=np.inf)
            iterations += it
            if status != "optimal":  # pragma: no cover - phase 1 is always bounded
                raise MalformedProgramError("phase 1 terminated abnormally")
            infeas = float(sum(T[i, -1] for i in range(m) if basis[i] >= n_total))
            floor = _TOL_PHASE1 * (1.0 + float(np.max(np.abs(b), initial=0.0)))
            if infeas > floor:
                bad = [int(i) for i in range(m)
                       if basis[i] >= n_total and T[i, -1] > floor]
                return LpOutcome(
                    status=LpStatus.INFEASIBLE,
                    infeasibility=infeas,
                    unsatisfied_rows=bad,
                    iterations=iterations,
                )
            # Drive leftover artificials out of the basis; drop redundant rows.
            keep = np.ones(m, dtype=bool)
            for i in range(m):
                if basis[i] < n_total:
                    continue
                pivots = np.flatnonzero(np.abs(T[i, :n_total]) > 1e-7)
                if pivots.size:
                    _pivot(T, basis, i, int(pivots[0]))
                else:
                    keep[i] = False
            T = T[keep]
            basis = basis[keep]
            m = T.shape[0]
            T = np.hstack([T[:, :n_total], T[:, -1:]])

        T = np.asfortranarray(T)
        status, it = _simplex(T, basis, c_std)
        iterations += it
        if status == "unbounded":
            return LpOutcome(status=LpStatus.UNBOUNDED, iterations=iterations)

        x_std = np.zeros(n_total)
        for i in range(m):
            x_std[basis[i]] = T[i, -1]
        x = x_std[col_plus].copy()
        x[free] -= x_std[col_minus[free]]

        assignment = {}
        for blk in self._blocks.values():
            seg = x[blk.offset:blk.offset + blk.size]
            assignment[blk.name] = float(seg[0]) if blk.shape == () else seg.reshape(blk.shape).copy()
        objective = None
        if self._objective is not None:
            objective = float(obj_sign * np.dot(c, x))

        # A claimed-feasible outcome must replay against the original rows;
        # on near-singular systems the tableau can "solve" in scaled units
        # while the unscaled solution is garbage, and that must not escape.
        residual = self._max_residual(A, sense, b, x)
        coeff_scale = float(np.max(np.abs(A))) if A.size else 0.0
        cap = TOL_LP * (1.0 + coeff_scale + float(np.max(np.abs(b), initial=0.0)))
        if residual > cap:
            raise NumericalInstabilityError(
                f"solution replay residual {residual:.3e} exceeds {cap:.3e}; "
                "the constraint system is numerically unreliable")

        return LpOutcome(
            status=LpStatus.OPTIMAL if self._objective is not None else LpStatus.FEASIBLE,
            assignment=assignment,
            objective=objective,
            max_residual=residual,
            iterations=iterations,
        )

    def _max_residual(self, A: np.ndarray, sense: np.ndarray, b: np.ndarray,
                      x: np.ndarray) -> float:
        gap = A @ x - b
        worst = float(np.max(np.where(sense == 0.0, np.abs(gap), sense * gap), initial=0.0))
        for block in self._blocks.values():
            if block.nonneg:
                seg = x[block.offset:block.offset + block.size]
                worst = max(worst, float(np.max(-seg, initial=0.0)))
        return worst

    # ------------------------------------------------------------------
    # export

    def dump(self, path) -> None:
        """Write the program in plain-text LP format for external cross-checks."""
        names = []
        for block in self._blocks.values():
            if block.shape == ():
                names.append(block.name)
            else:
                names.extend(f"{block.name}_{k}" for k in range(block.size))
        lines = []
        if self._objective is not None:
            sense, terms = self._objective
            lines.append("Minimize" if sense == "min" else "Maximize")
            lines.append(" obj: " + _lp_expr(self._densify(terms), names))
        else:
            lines.append("Minimize")
            lines.append(" obj: 0")
        lines.append("Subject To")
        A, sense, b = self._assemble()
        for i, (row, sign, rhs) in enumerate(zip(A, sense, b)):
            lines.append(f" c{i}: " + _lp_expr(row, names) + f" {_RELATIONS[int(sign)]} {rhs:.17g}")
        lines.append("Bounds")
        for block in self._blocks.values():
            lo = "0" if block.nonneg else "-inf"
            if block.shape == ():
                lines.append(f" {lo} <= {block.name} <= +inf")
            else:
                for k in range(block.size):
                    lines.append(f" {lo} <= {block.name}_{k} <= +inf")
        lines.append("End")
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")


def _lp_expr(row: np.ndarray, names: list[str]) -> str:
    parts = []
    for coeff, name in zip(row, names):
        if coeff == 0.0:
            continue
        sign = "-" if coeff < 0 else ("+" if parts else "")
        parts.append(f"{sign} {abs(coeff):.17g} {name}".strip())
    return " ".join(parts) if parts else "0"


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


def polytope_max(row, safe_set) -> float:
    """Maximum of ``row @ x`` over ``{x : normals @ x <= offsets}`` by LP.

    ``safe_set`` is any object with ``normals`` (s, n) and ``offsets`` (s,)
    attributes.  Raises :class:`EmptySetError` / :class:`UnboundedSetError`
    when the polyhedron is empty or the functional is unbounded over it.
    """
    normals = np.asarray(safe_set.normals, dtype=float)
    offsets = np.asarray(safe_set.offsets, dtype=float)
    row = np.asarray(row, dtype=float).reshape(-1)
    if row.size != normals.shape[1]:
        raise MalformedProgramError(
            f"row has length {row.size}, polyhedron lives in R^{normals.shape[1]}"
        )
    lp = LinearProgram()
    lp.add_block("x", (row.size,))
    lp.add_constraint_rows({"x": normals}, "<=", offsets)
    lp.set_objective("max", {"x": row})
    outcome = lp.solve()
    if outcome.status == LpStatus.INFEASIBLE:
        raise EmptySetError("polyhedron is empty")
    if outcome.status == LpStatus.UNBOUNDED:
        raise UnboundedSetError("functional is unbounded over the polyhedron")
    return float(outcome.objective)
