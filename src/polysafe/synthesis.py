"""Controller synthesis from data: the primal-dual design, its
disturbance-robust variant, and the remainder-minimization baseline.

All three methods constrain the closed loop through a right inverse of
the data regressor: whenever ``regressor @ [g1 g2] = I``, the products
``next_states @ g1`` and ``next_states @ g2`` equal the closed-loop linear
part and the closed-loop remainder part exactly (on noiseless data), so
no plant is identified.  The programs touch the right inverse only
through ``next_states @ G``, so ``thm2`` and ``thm1`` are posed over the
null-space form of the closed loop, whose size does not depend on the
sample count, and ``G`` is recovered as its minimum-norm preimage;
``cor2`` keeps ``G`` itself, since its norm budget needs ``|G|``.

The primal-dual design ("thm2" in scenario files) couples a nonnegative
row-multiplier matrix with a slope condition on the closed-loop
remainder at a chosen expansion point, plus a curvature condition that
is encoded as strict diagonal dominance (an LP-expressible sufficient
condition for positive definiteness) and re-verified afterwards with
exact eigenvalues.  The robust variant ("cor2") adds a norm budget that
accounts for noise leakage through the data matrices.  The baseline
("thm1") searches a grid of gains for the one minimizing the worst-row
remainder term and then solves the classical row-multiplier program with
the searched remainder bound subtracted.  The search is exact but pruned:
cheap lower bounds from a few probe points rank the candidates, and only
those whose bound can still reach the best exact score are scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lpcore
from .datagen import ExperimentData, identification_rank, regressor_rank
from .dynamics import ExpansionPoint, expansion_point
from .errors import (
    ExpansionPointSearchFailedError,
    NoFeasibleContractionError,
    PolysafeError,
    RankDeficientDataError,
    SynthesisInfeasibleError,
)
from .polytope import (PolyhedralSet, enumerate_vertices, grid_resolution, interval_enclosure,
                       sample_grid)

TOL_CERT = 1e-6   # certificate equations are re-verified to this tolerance
_RANK_RTOL = 1e-10  # closed-loop directions below this share of |next_states| are rounding noise

METHODS = ("thm2", "cor2", "thm1")
DEFINITENESS_MODES = ("strict", "active-rows", "off")


def row_norms(normals: np.ndarray, kind: str = "one") -> np.ndarray:
    """Per-row norms of the constraint normals used in disturbance offsets.

    ``one`` gives the sound worst case of ``row @ w`` over ``|w|_inf <= 1``;
    ``inf`` (the max-entry reading) is offered for literal reproduction of
    the norm-budget formula but underestimates multi-axis disturbances.
    """
    normals = np.asarray(normals, dtype=float)
    if kind == "one":
        return np.abs(normals).sum(axis=1)
    if kind == "inf":
        return np.abs(normals).max(axis=1)
    raise ValueError(f"row norm must be 'one' or 'inf', got {kind!r}")


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True, eq=False)
class Controller:
    """Feedback gains plus the data-side variables that generated them.

    The control law is ``u = k1 x + k2 remainder(x)``.  ``g1``/``g2`` are the
    right-inverse columns; ``k1 = inputs @ g1`` and ``k2 = inputs @ g2`` hold
    by construction for synthesized controllers.
    """

    k1: np.ndarray  # (m, n)
    k2: np.ndarray  # (m, N)
    g1: np.ndarray  # (T, n)
    g2: np.ndarray  # (T, N)

    def __post_init__(self):
        for name in ("k1", "k2", "g1", "g2"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), float)))

    def data_residuals(self, data: ExperimentData) -> dict[str, float]:
        """Consistency of the gains with the data they were built from."""
        stacked = np.hstack([self.g1, self.g2])
        eye = np.eye(data.state_dim + data.n_terms)
        return {
            "right_inverse": float(np.max(np.abs(data.regressor @ stacked - eye))),
            "gain_k1": float(np.max(np.abs(data.inputs @ self.g1 - self.k1))),
            "gain_k2": float(np.max(np.abs(data.inputs @ self.g2 - self.k2))),
        }


@dataclass(frozen=True, eq=False)
class SynthesisCertificate:
    """Everything needed to replay a successful synthesis.

    ``set_multiplier`` is the nonnegative matrix pairing each safe-set row
    with the rows bounding its closed-loop image; ``slope_term`` holds the
    per-row slope of the closed-loop remainder at the expansion point.
    ``residuals`` are recomputed from raw matrices after the solve, never
    read back from the LP.  ``definiteness_margins`` stores the exact
    smallest eigenvalue of each row's curvature matrix; ``enforced_rows``
    flags the rows whose curvature condition was part of the program.
    ``margin`` (margin objective only) is level headroom: the certificate
    also holds at level ``contraction - margin``.
    """

    method: str
    contraction: float
    set_multiplier: np.ndarray        # (s, s), >= 0
    slope_term: np.ndarray            # (s, n)
    noise_margin: float               # 0 in the noiseless design
    expansion: ExpansionPoint
    residuals: dict[str, float]
    definiteness_margins: np.ndarray  # (s,)
    enforced_rows: np.ndarray         # (s,) bool
    zeroed_rows: np.ndarray           # (s,) bool
    margin: float | None              # level headroom, margin objective only
    config: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0

    def satisfied(self, tol: float = TOL_CERT, dd_margin: float | None = None) -> bool:
        ok = self.max_residual <= tol
        ok = ok and float(np.min(self.set_multiplier)) >= -1e-9
        if dd_margin is not None and np.any(self.enforced_rows):
            ok = ok and float(np.min(self.definiteness_margins[self.enforced_rows])) >= dd_margin / 2.0
        return ok


@dataclass(frozen=True, eq=False)
class BaselineSearch:
    """Outcome of the direct search for the remainder-minimizing gain."""

    k2: np.ndarray           # (m, N) winner
    g2: np.ndarray           # (T, N) recovered right-inverse columns
    row_bounds: np.ndarray   # (s,) grid maxima of the remainder term at the winner
    candidates: np.ndarray   # (k, m*N)
    scored: int              # candidates scored exactly
    chosen: int
    x_resolution: tuple


@dataclass(frozen=True, eq=False)
class BaselineResult:
    """The baseline controller and its row-multiplier certificate.

    ``margin`` (margin objective only) is level headroom: the certificate
    also holds at level ``contraction - margin``.
    """

    controller: Controller
    row_bounds: np.ndarray       # (s,)
    set_multiplier: np.ndarray   # (s, s)
    search: BaselineSearch
    contraction: float
    margin: float | None
    residuals: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# exact smallest eigenvalue of a symmetric matrix


def smallest_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    Uses the characteristic polynomial in closed form up to 3x3 and cyclic
    Jacobi sweeps above that, so the definiteness check does not share code
    with any LP machinery it is auditing.
    """
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    n = M.shape[0]
    if n == 1:
        return float(M[0, 0])
    if n == 2:
        half_tr = 0.5 * (M[0, 0] + M[1, 1])
        disc = math.sqrt(max(0.25 * (M[0, 0] - M[1, 1]) ** 2 + M[0, 1] * M[1, 0], 0.0))
        return float(half_tr - disc)
    if n == 3:
        p1 = M[0, 1] ** 2 + M[0, 2] ** 2 + M[1, 2] ** 2
        q = np.trace(M) / 3.0
        if p1 == 0.0:
            return float(min(M[0, 0], M[1, 1], M[2, 2]))
        p2 = sum((M[i, i] - q) ** 2 for i in range(3)) + 2.0 * p1
        p = math.sqrt(p2 / 6.0)
        B = (M - q * np.eye(3)) / p
        r = float(np.linalg.det(B)) / 2.0
        r = min(1.0, max(-1.0, r))
        phi = math.acos(r) / 3.0
        return float(q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0))
    return _jacobi_smallest(M)


def _jacobi_smallest(M: np.ndarray, sweeps: int = 50) -> float:
    A = np.array(M, dtype=float, copy=True)
    n = A.shape[0]
    target = 1e-14 * max(1.0, float(np.max(np.abs(A))))
    for _ in range(sweeps):
        off = math.sqrt(float(np.sum(np.tril(A, -1) ** 2)))
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= target / n:
                    continue
                theta = 0.5 * math.atan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                A = rot.T @ A @ rot
    return float(np.min(np.diag(A)))


# ---------------------------------------------------------------------------
# structural analysis of the safe set rows


def antipodal_pairs(normals: np.ndarray, tol: float = 1e-9) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, whose normals point in exactly opposite directions.

    For such a pair the curvature matrices of the two rows are negatives of
    each other, so both cannot be strictly definite; the active-rows mode
    zeroes their remainder coefficients instead.
    """
    normals = np.asarray(normals, dtype=float)
    units = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    pairs = []
    taken = set()
    for i in range(len(units)):
        if i in taken:
            continue
        for j in range(i + 1, len(units)):
            if j in taken:
                continue
            if np.max(np.abs(units[i] + units[j])) <= tol:
                pairs.append((i, j))
                taken.update((i, j))
                break
    return pairs


def _definiteness_plan(normals: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Which rows get the dominance constraint, which get zeroed coefficients.

    Returns (enforced mask, zeroed mask, list of zero-constraint representatives).
    """
    s = normals.shape[0]
    if mode not in DEFINITENESS_MODES:
        raise ValueError(f"definiteness mode must be one of {DEFINITENESS_MODES}, got {mode!r}")
    enforced = np.zeros(s, dtype=bool)
    zeroed = np.zeros(s, dtype=bool)
    reps: list[int] = []
    if mode == "off":
        return enforced, zeroed, reps
    if mode == "strict":
        enforced[:] = True
        return enforced, zeroed, reps
    pairs = antipodal_pairs(normals)
    for i, j in pairs:
        zeroed[i] = zeroed[j] = True
        reps.append(i)
    enforced = ~zeroed
    return enforced, zeroed, reps


# ---------------------------------------------------------------------------
# the core feasibility program


def _closed_loop(data: ExperimentData) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Null-space parametrization of the data-based closed loop.

    Every right inverse of the regressor is ``pinv(regressor) + P Z`` with
    ``P`` the projector onto the regressor's null space, so every closed
    loop ``next_states @ G`` is ``base + lift @ W`` with
    ``base = next_states @ pinv(regressor)``, ``lift`` the left singular
    vectors of ``next_states @ P`` (rank m on noiseless data, at most n) and
    ``W`` free (De Persis & Tesi, IEEE TAC 2020; Doerfler, Coulson &
    Markovsky, IEEE TAC 2023).  Returns ``(base, lift, g0, preimage)``:
    ``g0 + preimage @ W`` is the minimum-norm right inverse with closed loop
    ``base + lift @ W``.  Singular values are truncated, not inverted at
    rounding level, so that preimage replays.
    """
    pinv = np.linalg.pinv(data.regressor)                     # (T, n+N)
    base = data.next_states @ pinv                            # (n, n+N)
    # next_states @ P, without forming the (T, T) projector
    u, sv, vt = np.linalg.svd(data.next_states - base @ data.regressor, full_matrices=False)
    keep = sv > _RANK_RTOL * np.linalg.norm(data.next_states, 2)
    if not keep.any():  # the inputs do not move the closed loop; one idle column
        return base, np.zeros((data.state_dim, 1)), pinv, np.zeros((data.n_samples, 1))
    return base, u[:, keep], pinv, vt[keep].T / sv[keep]


def _build_and_solve(data: ExperimentData, safe_set: PolyhedralSet, contraction: float,
                     exp: ExpansionPoint | None, dd_margin: float, objective: str,
                     definiteness: str, robust: dict | None,
                     row_bounds: np.ndarray | None = None) -> tuple:
    """Pose and solve one design program over the closed loop ``base + lift @ X``.

    ``X`` is split into its linear columns (block ``w1``) and remainder
    columns (``w2``).  ``thm2`` and ``thm1`` use the null-space
    parametrization of :func:`_closed_loop`, so the program does not grow
    with ``T``.  ``cor2`` needs ``|G|`` for its norm budget and keeps ``G``
    itself (``base = 0``, ``lift = next_states``) as nonnegative parts
    ``g*_pos - g*_neg``, plus the right-inverse and row-sum rows.  Without an
    expansion point ``exp`` this is the baseline (``thm1``) program: linear
    part only, with the searched ``row_bounds`` taken off the contraction
    rows.

    Each constraint family is one group of whole-block rows: with row-major
    vectorization, ``vec(A @ X @ B) = kron(A, B.T) @ vec(X)``.  A feasible
    outcome carries the recovered right inverse (its linear columns for the
    baseline) under ``"G"``.  Returns the outcome and the enforced and
    zeroed row masks.
    """
    F = safe_set.normals
    g = safe_set.offsets
    s, n = F.shape
    N = data.n_terms
    split = robust is not None
    if split:
        base, lift = np.zeros((n, n + N)), data.next_states
        # one block per part and sign: with one (T, n+N) block per sign, the
        # simplex stalls at its pivot cap on the 2-state, 3-term plant
        parts = {"lin": (("g1_pos", 1.0), ("g1_neg", -1.0)),
                 "rem": (("g2_pos", 1.0), ("g2_neg", -1.0))}
    else:
        base, lift, g0, preimage = _closed_loop(data)
        parts = {"lin": (("w1", 1.0),), "rem": (("w2", 1.0),)}
    if exp is None:
        del parts["rem"]
    f_lift = F @ lift                        # (s, p)
    f_base = F @ base                        # (s, n+N)
    enforced, zeroed, reps = _definiteness_plan(F, definiteness)

    lp = lpcore.LinearProgram()
    for key, width in (("lin", n), ("rem", N)):
        for name, _ in parts.get(key, ()):
            lp.add_block(name, (lift.shape[1], width), nonneg=split)
    lp.add_block("mult", (s, s), nonneg=True)
    if exp is not None:
        lp.add_block("slope", (s, n))
    with_margin = objective == "margin"
    if with_margin:
        # slack is level headroom: it enters row i as slack * g[i], so the
        # solution also certifies level contraction - slack.  It is
        # sign-restricted so a margin solve is feasible exactly when the plain
        # conditions are, and capped so the certified level stays >= 0.
        lp.add_block("slack", (), nonneg=True)
        lp.add_constraint({"slack": 1.0}, "<=", contraction)
        lp.set_objective("max", {"slack": 1.0})
    if split:
        for name in ("noise", "norm1", "norm2"):
            lp.add_block(name, ())

    def rows(rel, rhs, lin=None, rem=None, **terms):
        """One row group; ``lin``/``rem`` hold its coefficients over the loop blocks."""
        for key, coeff in (("lin", lin), ("rem", rem)):
            if coeff is not None:
                terms.update({name: sign * coeff for name, sign in parts[key]})
        lp.add_constraint_rows(terms, rel, rhs)

    # (i) contraction: mult @ g + slope @ anchor (+ noise) (+ slack * g) <= level * g,
    # with the remainder bounds in place of the slope term for the baseline
    terms = {"mult": np.kron(np.eye(s), g)}
    rhs = contraction * g
    if exp is None:
        rhs = rhs - row_bounds
    else:
        terms["slope"] = np.kron(np.eye(s), exp.anchor)
    if split:
        terms["noise"] = np.ones(s)
    if with_margin:
        terms["slack"] = g
    rows("<=", rhs, **terms)

    # (ii) multiplier rows map through the set: mult @ F - F @ loop_linear = slope
    terms = {"mult": np.kron(np.eye(s), F.T)}
    if exp is not None:
        terms["slope"] = -np.eye(s * n)
    rows("=", f_base[:, :n].reshape(-1), lin=-np.kron(f_lift, np.eye(n)), **terms)

    if exp is not None:
        # (iii) remainder slope rows: F @ loop_remainder @ slope_at = slope
        rows("=", -(f_base[:, n:] @ exp.slope).reshape(-1),
             rem=np.kron(f_lift, exp.slope.T), slope=-np.eye(s * n))

    if split:
        # right inverse: regressor @ G = I
        eye = np.eye(n + N)
        rows("=", eye.reshape(-1), lin=np.kron(data.regressor, eye[:, :n]),
             rem=np.kron(data.regressor, eye[:, n:]))

    # (iv) curvature: for enforced rows the matrix -sum_j coeff_j curv_j must be
    # symmetric strictly diagonally dominant with margin dd_margin (a sufficient
    # LP-expressible condition for positive definiteness), with dom_abs
    # bounding the off-diagonal magnitudes
    rows_e = np.flatnonzero(enforced)
    if rows_e.size:
        e = rows_e.size
        curv = exp.curvatures.reshape(N, n * n)
        entry = -np.kron(f_lift[rows_e], curv.T).reshape(e, n, n, -1)
        const = -(f_base[rows_e, n:] @ curv).reshape(e, n, n)
        diag = np.arange(n)
        upper = np.triu_indices(n, 1)
        n_pairs = upper[0].size
        dom = {}
        if n_pairs:
            lp.add_block("dom_abs", (e, n_pairs), nonneg=True)
            incidence = np.zeros((n, n_pairs))
            incidence[upper[0], np.arange(n_pairs)] = 1.0
            incidence[upper[1], np.arange(n_pairs)] = 1.0
            dom = {"dom_abs": -np.kron(np.eye(e), incidence)}
        rows(">=", dd_margin - const[:, diag, diag].reshape(-1),
             rem=entry[:, diag, diag].reshape(e * n, -1), **dom)
        if n_pairs:
            off = entry[:, upper[0], upper[1]].reshape(e * n_pairs, -1)
            off_const = const[:, upper[0], upper[1]].reshape(-1)
            rows(">=", off_const, rem=-off, dom_abs=np.eye(e * n_pairs))
            rows(">=", -off_const, rem=off, dom_abs=np.eye(e * n_pairs))

    # (v) paired rows instead get their remainder coefficients pinned to zero
    if reps:
        rows("=", -f_base[reps, n:].reshape(-1), rem=np.kron(f_lift[reps], np.eye(N)))

    # robust norm budget tying the noise leakage to eta; the split blocks make
    # |G| available as pos + neg without extra absolute-value rows
    if split:
        T = data.n_samples
        for norm, key, width in (("norm1", "lin", n), ("norm2", "rem", N)):
            row_sums = np.kron(np.eye(T), np.ones(width))
            lp.add_constraint_rows({**{name: row_sums for name, _ in parts[key]},
                                    norm: -np.ones(T)}, "<=", np.zeros(T))
        gm = robust["w_bound"] * float(np.max(row_norms(F, robust["row_norm"])))
        scale = gm * robust["state_bound"] * T
        lp.add_constraint({"norm1": scale, "norm2": scale * robust["lipschitz"], "noise": -1.0},
                          "<=", -scale)

    outcome = lp.solve()
    if outcome.status in (lpcore.LpStatus.OPTIMAL, lpcore.LpStatus.FEASIBLE):
        loop = np.hstack([sum(sign * outcome[name] for name, sign in parts[key])
                          for key in parts])
        outcome.assignment["G"] = loop if split else g0[:, :loop.shape[1]] + preimage @ loop
    return outcome, enforced, zeroed


def _certificate(data: ExperimentData, safe_set: PolyhedralSet, controller: Controller,
                 exp: ExpansionPoint, contraction: float, outcome: lpcore.LpOutcome,
                 enforced: np.ndarray, zeroed: np.ndarray, method: str,
                 robust: dict | None, config: dict) -> SynthesisCertificate:
    F = safe_set.normals
    g = safe_set.offsets
    regressor = data.regressor
    x_next = data.next_states
    mult = outcome["mult"]
    slope_rows = outcome["slope"]
    eta = outcome.value("noise") if robust is not None else 0.0

    stacked = np.hstack([controller.g1, controller.g2])
    coeffs = F @ x_next @ controller.g2                       # (s, N) remainder coefficients
    residuals = {
        "contraction": float(np.max(np.maximum(
            mult @ g + slope_rows @ exp.anchor + eta - contraction * g, 0.0))),
        "multiplier_match": float(np.max(np.abs(mult @ F - F @ x_next @ controller.g1 - slope_rows))),
        "slope_match": float(np.max(np.abs(coeffs @ exp.slope - slope_rows))),
        "right_inverse": float(np.max(np.abs(
            regressor @ stacked - np.eye(data.state_dim + data.n_terms)))),
        "multiplier_sign": float(max(0.0, -np.min(mult))),
    }
    if robust is not None:
        gm = robust["w_bound"] * float(np.max(row_norms(F, robust["row_norm"])))
        budget = gm * robust["state_bound"] * data.n_samples * (
            _norm_inf(controller.g1) + robust["lipschitz"] * _norm_inf(controller.g2) + 1.0)
        residuals["noise_budget"] = float(max(0.0, budget - eta))
    if np.any(zeroed):
        residuals["remainder_zeroed"] = float(np.max(np.abs(coeffs[zeroed])))

    margins = np.array([
        smallest_eigenvalue(-np.einsum("j,jkl->kl", coeffs[i], exp.curvatures))
        for i in range(F.shape[0])
    ])
    margin = None
    if outcome.objective is not None:
        margin = float(outcome.objective)
    return SynthesisCertificate(
        method=method,
        contraction=contraction,
        set_multiplier=mult,
        slope_term=slope_rows,
        noise_margin=float(eta),
        expansion=exp,
        residuals=residuals,
        definiteness_margins=margins,
        enforced_rows=enforced,
        zeroed_rows=zeroed,
        margin=margin,
        config=config,
    )


def _norm_inf(mat: np.ndarray) -> float:
    """Induced infinity norm: largest absolute row sum."""
    return float(np.max(np.abs(np.atleast_2d(mat)).sum(axis=1)))


def _resolve_expansion(data: ExperimentData, safe_set: PolyhedralSet, contraction, expansion,
                       dd_margin, definiteness, robust, seed) -> ExpansionPoint:
    if isinstance(expansion, ExpansionPoint):
        return expansion
    if isinstance(expansion, str):
        if expansion != "auto":
            raise ValueError(f"expansion must be a point, an ExpansionPoint or 'auto', got {expansion!r}")
        return pick_expansion_point(data, safe_set, contraction, dd_margin=dd_margin,
                                    definiteness=definiteness, robust=robust, seed=seed)
    return expansion_point(data.dictionary, np.asarray(expansion, dtype=float), safe_set)


def _check_regressor(data: ExperimentData) -> None:
    diag = regressor_rank(data)
    if not diag.full_row_rank:
        raise RankDeficientDataError(f"regressor is rank deficient: {diag}", diag)


def synthesize_noiseless(data: ExperimentData, safe_set: PolyhedralSet, contraction: float,
                         expansion="auto", dd_margin: float = 1e-6, objective: str = "margin",
                         definiteness: str = "active-rows", seed: int = 0,
                         ) -> tuple[Controller, SynthesisCertificate]:
    """Primal-dual design assuming the data were collected without noise.

    Raises :class:`SynthesisInfeasibleError` with the phase-1 certificate if
    the program has no solution at this contraction level.
    """
    if not 0.0 < contraction <= 1.0:
        raise ValueError(f"contraction must be in (0, 1], got {contraction}")
    if dd_margin <= 0.0:
        raise ValueError("dd_margin must be positive")
    _check_regressor(data)
    exp = _resolve_expansion(data, safe_set, contraction, expansion, dd_margin,
                             definiteness, None, seed)
    outcome, enforced, zeroed = _build_and_solve(
        data, safe_set, contraction, exp, dd_margin, objective, definiteness, None)
    if outcome.status == lpcore.LpStatus.INFEASIBLE:
        raise SynthesisInfeasibleError(
            f"noiseless design infeasible at contraction {contraction} "
            f"(phase-1 infeasibility {outcome.infeasibility:.3e})", outcome)
    g1, g2 = np.hsplit(outcome["G"], [data.state_dim])
    controller = Controller(k1=data.inputs @ g1, k2=data.inputs @ g2, g1=g1, g2=g2)
    config = {"method": "thm2", "contraction": contraction, "dd_margin": dd_margin,
              "objective": objective, "definiteness": definiteness}
    cert = _certificate(data, safe_set, controller, exp, contraction, outcome,
                        enforced, zeroed, "thm2", None, config)
    return controller, cert


def synthesize_robust(data: ExperimentData, safe_set: PolyhedralSet, contraction: float,
                      w_bound: float, lipschitz: float | None = None,
                      state_bound: float | None = None, expansion="auto",
                      dd_margin: float = 1e-6, objective: str = "margin",
                      definiteness: str = "active-rows", row_norm: str = "one",
                      seed: int = 0) -> tuple[Controller, SynthesisCertificate]:
    """Noise-aware variant: adds a uniform offset covering disturbance leakage.

    The offset must dominate ``gm * state_bound * T * (|G1| + L |G2| + 1)``
    with ``gm = w_bound * max_i rownorm(F_i)``; the bound is conservative in
    the sample count, so small contraction levels become infeasible quickly
    as ``T`` or ``w_bound`` grow.  ``lipschitz`` and ``state_bound`` default
    to the interval-arithmetic bound and enclosure bound of the safe set.
    """
    if not 0.0 < contraction <= 1.0:
        raise ValueError(f"contraction must be in (0, 1], got {contraction}")
    if w_bound < 0.0:
        raise ValueError("w_bound must be non-negative")
    _check_regressor(data)
    box = interval_enclosure(safe_set)
    if lipschitz is None:
        lipschitz = data.dictionary.lipschitz_bound(box)
    if state_bound is None:
        state_bound = box.max_abs
    robust = {"w_bound": float(w_bound), "lipschitz": float(lipschitz),
              "state_bound": float(state_bound), "row_norm": row_norm}
    row_norms(safe_set.normals, row_norm)  # validate the kind early
    exp = _resolve_expansion(data, safe_set, contraction, expansion, dd_margin,
                             definiteness, robust, seed)
    outcome, enforced, zeroed = _build_and_solve(
        data, safe_set, contraction, exp, dd_margin, objective, definiteness, robust)
    if outcome.status == lpcore.LpStatus.INFEASIBLE:
        raise SynthesisInfeasibleError(
            f"robust design infeasible at contraction {contraction} "
            f"(phase-1 infeasibility {outcome.infeasibility:.3e})", outcome)
    g1, g2 = np.hsplit(outcome["G"], [data.state_dim])
    controller = Controller(k1=data.inputs @ g1, k2=data.inputs @ g2, g1=g1, g2=g2)
    config = {"method": "cor2", "contraction": contraction, "dd_margin": dd_margin,
              "objective": objective, "definiteness": definiteness,
              "row_norm": row_norm, **{k: robust[k] for k in
                                       ("w_bound", "lipschitz", "state_bound")}}
    cert = _certificate(data, safe_set, controller, exp, contraction, outcome,
                        enforced, zeroed, "cor2", robust, config)
    return controller, cert


# ---------------------------------------------------------------------------
# expansion point search


def pick_expansion_point(data: ExperimentData, safe_set: PolyhedralSet, contraction: float,
                         dd_margin: float = 1e-6, definiteness: str = "active-rows",
                         robust: dict | None = None, seed: int = 0,
                         n_random: int = 20) -> ExpansionPoint:
    """First candidate expansion point whose program is feasible.

    Candidates, in order: each vertex scaled by 0.25, the vertex centroid
    scaled by 0.5, then ``n_random`` seeded interior rejection samples.
    Zero candidates are skipped (the slope condition needs a nonzero point).
    Each candidate is judged by the plain feasibility program: a margin
    objective would not change the verdict.  Deterministic for a fixed seed.
    """
    vertices = enumerate_vertices(safe_set)
    candidates = [0.25 * v for v in vertices]
    centroid = 0.5 * np.mean(np.array(vertices), axis=0)
    candidates.append(centroid)
    box = interval_enclosure(safe_set)
    rng = np.random.default_rng(seed)
    found = 0
    while found < n_random:
        p = rng.uniform(box.lo, box.hi)
        if safe_set.contains(p, scale=0.9):
            candidates.append(p)
            found += 1
    attempts = []
    for cand in candidates:
        if float(np.max(np.abs(cand))) <= 1e-12:
            attempts.append((cand, "skipped: zero point"))
            continue
        try:
            exp = expansion_point(data.dictionary, cand, safe_set)
            outcome, _, _ = _build_and_solve(
                data, safe_set, contraction, exp, dd_margin, "feasible", definiteness, robust)
        except (PolysafeError, np.linalg.LinAlgError) as err:
            attempts.append((cand, f"error: {err}"))
            continue
        if outcome.status in (lpcore.LpStatus.OPTIMAL, lpcore.LpStatus.FEASIBLE):
            return exp
        attempts.append((cand, f"infeasible ({outcome.infeasibility:.3e})"))
    raise ExpansionPointSearchFailedError(
        f"no feasible expansion point among {len(candidates)} candidates", attempts)


# ---------------------------------------------------------------------------
# remainder-minimization baseline


_MAX_GAIN_CANDIDATES = 41 ** 4  # the default gain grid at m*N = 4
_BOUND_CHUNK = 4096             # candidates per vectorized lower-bound block
_BOUND_GRID_POINTS = 8          # strided grid points in the lower-bound probe


def baseline_search(data: ExperimentData, safe_set: PolyhedralSet,
                    k2_lo: float = -2.0, k2_hi: float = 2.0, k2_step: float = 0.1,
                    x_resolution=None) -> BaselineSearch:
    """Direct search for the gain minimizing the worst-row remainder term.

    For every candidate gain on the grid, the matching right-inverse columns
    are recovered from the stacked data (which must have full row rank, a
    strictly stronger condition than the regressor rank), the remainder term
    is maximized over a deterministic state grid plus the vertices, and the
    candidate with the smallest worst-row maximum wins (first on ties).
    ``x_resolution`` defaults to :func:`~polysafe.polytope.grid_resolution`.

    The search is exact but pruned (bound and score).  A candidate's score
    is a maximum over all points, so its maximum over a few probe points
    (the vertices, each row's maximizer at the gain-free coefficients and a
    strided grid sample) is a lower bound; the bounds of all candidates are
    computed in fixed-size blocks.  Candidates are then scored exactly in
    ascending-bound order until a bound exceeds the best score plus a
    rounding slack, which leaves the same winner and the same
    ``row_bounds`` as scoring every candidate.  ``scored`` counts the
    exact scorings.
    """
    if not k2_step > 0:
        raise ValueError(f"k2_step must be positive, got {k2_step}")
    if not (math.isfinite(k2_lo) and math.isfinite(k2_hi) and k2_lo <= k2_hi):
        raise ValueError(f"need finite k2_lo <= k2_hi, got k2_lo={k2_lo}, k2_hi={k2_hi}")
    n, N, m = data.state_dim, data.n_terms, data.input_dim
    steps = int(round((k2_hi - k2_lo) / k2_step))
    count = (steps + 1) ** (m * N)
    if count > _MAX_GAIN_CANDIDATES:
        raise ValueError(
            f"gain grid has {steps + 1}^{m * N} = {count} candidates, above the cap of "
            f"{_MAX_GAIN_CANDIDATES}; raise k2_step or narrow [k2_lo, k2_hi]")
    diag = identification_rank(data)
    if not diag.full_row_rank:
        raise RankDeficientDataError(
            f"stacked input/regressor matrix is rank deficient: {diag}", diag)
    F = safe_set.normals
    if x_resolution is None:
        x_resolution = grid_resolution(n)
    grid = sample_grid(safe_set, x_resolution)
    points = np.vstack([grid, np.array(enumerate_vertices(safe_set))])
    rem = data.dictionary.remainder(points)          # (k, N)
    f_next = F @ data.next_states                       # (s, T)

    stacked = np.vstack([data.regressor, data.inputs])
    pinv = np.linalg.pinv(stacked)                   # (T, n+N+m)
    e2 = np.zeros((n + N, N))
    e2[n:, :] = np.eye(N)
    base = pinv[:, :n + N] @ e2                      # (T, N)
    gain_map = pinv[:, n + N:]                       # (T, m)

    # every gain on the grid, in itertools.product order
    axis = k2_lo + k2_step * np.arange(steps + 1)
    grids = np.indices((steps + 1,) * (m * N), sparse=True)
    combos = np.stack(np.broadcast_arrays(*(axis[g] for g in grids)), axis=-1)
    combos = combos.reshape(count, m * N)

    # lower bounds: the value at (row i, point p) is affine in the gain,
    # offset[i, p] + sum_ab k2[a, b] * (f_next @ gain_map)[i, a] * rem[p, b]
    coeff0 = f_next @ base                           # (s, N)
    probe = np.unique(np.concatenate([
        np.arange(len(grid), len(points)),                                  # vertices
        np.argmax(coeff0 @ rem.T, axis=1),                                  # row maximizers
        np.arange(0, len(grid), max(1, len(grid) // _BOUND_GRID_POINTS))]))  # grid sample
    offset = (coeff0 @ rem[probe].T).ravel()         # (s*q,)
    slope = np.einsum("ia,pb->abip", f_next @ gain_map, rem[probe]).reshape(m * N, -1)
    bound = np.empty(count)
    for start in range(0, count, _BOUND_CHUNK):
        block = combos[start:start + _BOUND_CHUNK]
        bound[start:start + _BOUND_CHUNK] = (block @ slope + offset).max(axis=1)

    # Rounding slack.  The bounds and the exact scores are computed from the
    # same f_next, base, gain_map, rem and grid gains, but associated
    # differently: ((f_next @ gain_map) * rem) @ k2 + (f_next @ base) @ rem
    # against (f_next @ (base + gain_map @ k2)) @ rem.  Each value is a sum
    # along a chain of at most k = T + (m+1)(N+1) + 2 rounded operations, so
    # both lie within gamma_k * M of the same exact value (gamma_k =
    # k*u/(1 - k*u), u = eps/2; Higham, Accuracy and Stability of Numerical
    # Algorithms, sec. 3.1), where M bounds |f_next| (|base| + |gain_map| |k2|)
    # |rem| over all rows, points and gains.  A bound above best + 2*gamma_k*M
    # then proves the candidate's computed score is above best, so it can
    # neither win nor tie; 4*k*eps*M is four times that.
    k2_max = float(np.max(np.abs(axis)))
    mag = np.abs(f_next) @ (np.abs(base) + k2_max * np.abs(gain_map).sum(axis=1, keepdims=True))
    chain = data.next_states.shape[1] + (m + 1) * (N + 1) + 2
    slack = 4.0 * chain * np.finfo(float).eps * float(np.max(mag @ np.abs(rem).max(axis=0)))

    best, row_maxima = np.inf, {}
    for idx in np.argsort(bound, kind="stable"):
        if bound[idx] > best + slack:
            break
        k2 = combos[idx].reshape(m, N)
        g2 = base + gain_map @ k2
        coeffs = f_next @ g2                         # (s, N)
        row_maxima[idx] = np.max(coeffs @ rem.T, axis=1)
        best = min(best, row_maxima[idx].max())
    chosen = int(min(idx for idx, row_max in row_maxima.items() if row_max.max() == best))
    k2 = combos[chosen].reshape(m, N)
    return BaselineSearch(
        k2=k2, g2=base + gain_map @ k2, row_bounds=row_maxima[chosen],
        candidates=combos, scored=len(row_maxima), chosen=chosen,
        x_resolution=tuple(int(r) for r in np.atleast_1d(x_resolution)))


def synthesize_min_remainder(data: ExperimentData, safe_set: PolyhedralSet, contraction: float,
                             k2_lo: float = -2.0, k2_hi: float = 2.0, k2_step: float = 0.1,
                             x_resolution=None, objective: str = "margin",
                             search: BaselineSearch | None = None) -> BaselineResult:
    """Remainder-minimization baseline: direct gain search plus the row-multiplier LP.

    Supply a precomputed ``search`` to amortize the (contraction-independent)
    direct search across several contraction levels.
    """
    if not 0.0 < contraction <= 1.0:
        raise ValueError(f"contraction must be in (0, 1], got {contraction}")
    if search is None:
        search = baseline_search(data, safe_set, k2_lo, k2_hi, k2_step, x_resolution)
    outcome, _, _ = _build_and_solve(data, safe_set, contraction, None, 0.0, objective,
                                     "off", None, row_bounds=search.row_bounds)
    if outcome.status == lpcore.LpStatus.INFEASIBLE:
        raise SynthesisInfeasibleError(
            f"baseline infeasible at contraction {contraction} "
            f"(phase-1 infeasibility {outcome.infeasibility:.3e})", outcome)
    g1 = outcome["G"]
    controller = Controller(k1=data.inputs @ g1, k2=search.k2, g1=g1, g2=search.g2)
    mult = outcome["mult"]
    F = safe_set.normals
    g = safe_set.offsets
    eye_block = np.zeros((data.state_dim + data.n_terms, data.state_dim))
    eye_block[:data.state_dim] = np.eye(data.state_dim)
    residuals = {
        "contraction": float(np.max(np.maximum(
            mult @ g + search.row_bounds - contraction * g, 0.0))),
        "multiplier_match": float(np.max(np.abs(mult @ F - F @ data.next_states @ g1))),
        "right_inverse_g1": float(np.max(np.abs(data.regressor @ g1 - eye_block))),
        "multiplier_sign": float(max(0.0, -np.min(mult))),
    }
    return BaselineResult(
        controller=controller, row_bounds=search.row_bounds, set_multiplier=mult,
        search=search, contraction=contraction,
        margin=float(outcome.objective) if outcome.objective is not None else None,
        residuals=residuals)


# ---------------------------------------------------------------------------
# lumped-disturbance evaluator (reporting only; not a synthesis path)


def lumped_disturbance_bounds(data: ExperimentData, safe_set: PolyhedralSet,
                              controller: Controller, w_bound: float,
                              lipschitz: float | None = None,
                              state_bound: float | None = None,
                              row_norm: str = "one",
                              x_resolution=None) -> np.ndarray:
    """Per-row upper bound on the worst-case lumped disturbance for a fixed controller.

    Combines the grid maximum of the closed-loop remainder term with the
    norm bound on noise leakage through the data matrices and the direct
    disturbance term.  Used for conservatism reports only; minimizing this
    quantity over controllers is the intractable path the toolkit avoids.
    """
    box = interval_enclosure(safe_set)
    if lipschitz is None:
        lipschitz = data.dictionary.lipschitz_bound(box)
    if state_bound is None:
        state_bound = box.max_abs
    points = sample_grid(safe_set, x_resolution)
    points = np.vstack([points, np.array(enumerate_vertices(safe_set))])
    rem = data.dictionary.remainder(points)
    coeffs = safe_set.normals @ data.next_states @ controller.g2
    base = np.max(coeffs @ rem.T, axis=1)
    rn = row_norms(safe_set.normals, row_norm)
    leakage = data.n_samples * w_bound * rn * (
        _norm_inf(controller.g1) * state_bound
        + _norm_inf(controller.g2) * lipschitz * state_bound)
    return base + leakage + w_bound * rn


def format_certificate(controller: Controller, cert: SynthesisCertificate) -> str:
    """Human-readable certificate dump: configuration, matrices, residuals, margins."""

    def mat(name, arr):
        body = np.array2string(np.asarray(arr), precision=12, suppress_small=False,
                               max_line_width=120)
        return f"{name} =\n{body}"

    lines = [
        f"method: {cert.method}",
        f"contraction level: {cert.contraction:.17g}",
        f"noise margin: {cert.noise_margin:.17g}",
        f"level headroom: {'n/a' if cert.margin is None else format(cert.margin, '.17g')}",
        "config: " + ", ".join(f"{k}={v}" for k, v in sorted(cert.config.items())),
        "",
        mat("k1", controller.k1),
        mat("k2", controller.k2),
        mat("set_multiplier", cert.set_multiplier),
        mat("slope_term", cert.slope_term),
        mat("expansion point", cert.expansion.point),
        mat("expansion anchor", cert.expansion.anchor),
        "",
        "residuals:",
    ]
    lines += [f"  {k}: {v:.6e}" for k, v in sorted(cert.residuals.items())]
    lines.append("definiteness margins (smallest eigenvalue per row):")
    for i, (margin, enf, zero) in enumerate(
            zip(cert.definiteness_margins, cert.enforced_rows, cert.zeroed_rows)):
        tag = "enforced" if enf else ("zeroed" if zero else "unconstrained")
        lines.append(f"  row {i}: {margin: .6e}  [{tag}]")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# minimal feasible contraction level


def minimal_contraction(data: ExperimentData, safe_set: PolyhedralSet, method: str = "thm2",
                        **kwargs) -> float:
    """Smallest contraction level the method's design program certifies.

    The level enters the contraction rows linearly, so one margin solve at
    level 1 gives it exactly: the margin is level headroom, and the same
    multipliers certify level ``1 - margin``.  ``kwargs`` go to
    :func:`synthesize_noiseless`, :func:`synthesize_robust` (which needs
    ``w_bound``) or :func:`synthesize_min_remainder`; an ``'auto'``
    expansion point is therefore chosen at level 1.  The result is clamped
    to ``[0, 1]``.  Raises :class:`NoFeasibleContractionError` when level 1
    is infeasible.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    try:
        if method == "thm2":
            margin = synthesize_noiseless(data, safe_set, 1.0, **kwargs)[1].margin
        elif method == "cor2":
            margin = synthesize_robust(data, safe_set, 1.0, **kwargs)[1].margin
        else:
            margin = synthesize_min_remainder(data, safe_set, 1.0, **kwargs).margin
    except (SynthesisInfeasibleError, ExpansionPointSearchFailedError) as err:
        raise NoFeasibleContractionError(f"level 1 is infeasible for method {method!r}: {err}") from err
    return min(1.0, max(0.0, 1.0 - margin))
