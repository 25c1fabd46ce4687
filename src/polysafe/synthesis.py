"""Controller synthesis from data: the primal-dual design, its
disturbance-robust variant, and the remainder-minimization baseline.

All three methods constrain the closed loop through a right inverse of
the data regressor: whenever ``regressor @ [g1 g2] = I``, the products
``next_states @ g1`` and ``next_states @ g2`` equal the closed-loop linear
part and the closed-loop remainder part exactly (on noiseless data), so
no plant is identified.  One gate, :func:`_admit`, decides which data each
method may design from; ``thm2`` and ``thm1`` rest on that identity, so it
refuses them data off the noiseless model.  ``thm2`` and ``thm1`` fix the
remainder columns of the right inverse first, then pose one program over
the linear columns of the closed loop's null-space form, whose size does
not depend on the sample count (:func:`_linear_design`); ``cor2`` keeps
``G`` itself, since its norm budget needs ``|G|`` (:func:`_robust_program`).
Both programs pose their contraction rows through one helper,
:func:`_match`, as degree-1 coefficient matching (Handelman, Pacific
J. Math. 132, 1988): row ``i``'s polynomial ``g_i - F_i L x``, with ``L``
the closed loop's linear part, is a nonnegative combination of the facets
``g_j - F_j x`` plus a nonnegative constant.  Every factorization they
read is cached on the data (:mod:`~polysafe.datagen`).

The primal-dual design ("thm2" in scenario files) pairs a nonnegative
row-multiplier matrix with the closed-loop linear part and pins the
closed-loop remainder ``R`` to zero.  The paper's second-order condition,
stated at an expansion point, asks each row's curvature matrix
``H_i = sum_j (F_i R)_j curv_j`` to be definite, or the row's
coefficients ``F_i R`` to vanish.  ``H_i`` is linear in ``F_i``, and a
bounded set has ``alpha > 0`` with ``alpha @ F = 0`` (Gordan's theorem),
so ``sum_i alpha_i H_i = 0``: no row can be definite, every row needs
``F_i R = 0``, and since ``F`` has full column rank that is ``R = 0``.
Pinning ``R`` accepts exactly those remainders on every bounded set,
whether or not its rows come in opposite pairs, and the certificate's
``remainder_zeroed`` residual replays the pin.  The pin is solved in
closed form, as a least-squares zero; a remainder it cannot zero makes
``thm2`` infeasible before any program is posed.  With ``R = 0`` the
paper's slope term ``F R J(x)`` is zero at every expansion point, so the
programs carry neither the point nor the slope term.  The robust variant
("cor2") adds a norm budget that accounts for noise leakage through the data
matrices, with disturbances measured by the row one-norms of
:func:`~polysafe.polytope.row_norms`; a budget floor above the smallest
offset is refused before any program is posed.  The baseline ("thm1")
searches a box of gains for the one minimizing the worst-row remainder term
over the set's sample (:func:`~polysafe.polytope.sample_points`: its default
grid plus the vertices) and then solves the classical row-multiplier program
with the searched remainder bound subtracted; the search is one small LP,
solved by constraint generation (:func:`baseline_search`).

The design functions take no level.  Every program is posed at level 1
and maximizes level headroom ``h``, which enters row ``i`` as ``h * g_i``;
the level enters the same rows linearly, so the program at level ``lam``
is the level-1 program with ``h`` shifted by ``1 - lam``, and both have
the same optimal set.  One solve therefore gives the controller and the
smallest level it certifies, ``1 - h`` clamped to ``[0, 1]``, which the
certificate reports as its ``contraction``; the same multipliers hold at
every level above it.  Every method returns one
:class:`SynthesisCertificate`, recomputed from raw matrices by one formula
before it is returned; one that does not replay to ``TOL_CERT`` raises
:class:`~polysafe.errors.NumericalInstabilityError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lpcore
from .datagen import ExperimentData, identification_rank, regressor_rank
from .errors import (InconsistentDataError, NumericalInstabilityError, RankDeficientDataError,
                     SynthesisInfeasibleError)
from .polytope import (PolyhedralSet, _norm_inf, enumerate_vertices, interval_enclosure,
                       row_norms, sample_points)

TOL_CERT = 1e-6   # certificate equations are re-verified to this tolerance
_K2_BOUND = 2.0   # thm1 searches gains in [-_K2_BOUND, _K2_BOUND] per entry

METHODS = ("thm2", "cor2", "thm1")


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


@dataclass(frozen=True, eq=False)
class SynthesisCertificate:
    """Everything needed to replay a successful synthesis, of any method.

    ``set_multiplier`` is the nonnegative matrix pairing each safe-set row
    with the rows bounding its closed-loop image, and ``row_offsets`` is the
    amount each contraction row reserves: 0 for ``thm2``, the noise margin
    on every row for ``cor2``, the searched remainder bounds for ``thm1``.
    Every certificate replays by ``set_multiplier @ g + row_offsets <=
    contraction * g``.  ``residuals`` are recomputed from raw matrices after
    the solve, never read back from the LP.  ``contraction`` is the smallest
    level the certificate holds at; it holds at every level above it too.
    """

    method: str
    contraction: float
    set_multiplier: np.ndarray        # (s, s), >= 0
    row_offsets: np.ndarray           # (s,)
    residuals: dict[str, float]
    config: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


@dataclass(frozen=True, eq=False)
class BaselineSearch:
    """Outcome of the search for the remainder-minimizing gain."""

    k2: np.ndarray           # (m, N) winner
    g2: np.ndarray           # (T, N) recovered right-inverse columns
    row_bounds: np.ndarray   # (s,) sample maxima of the remainder term at the winner
    candidates: np.ndarray   # (iterations, m*N) the LP iterates, the winner last


# ---------------------------------------------------------------------------
# the core feasibility program


def _admit(data: ExperimentData, method: str) -> None:
    """The one check of the data ``method`` designs from: its rank condition
    (:class:`RankDeficientDataError`; the stacked input/regressor matrix for
    ``thm1``, else the regressor) and, for ``thm2`` and ``thm1``, the
    noiseless rule (:class:`InconsistentDataError`): ``next_states`` within
    ``loop_tolerance`` of the row space of ``S = [regressor; inputs]``,
    which bounds singular value ``m + 1`` of ``next_states @ P`` (Weyl)."""
    diag, matrix = ((identification_rank(data), "stacked input/regressor matrix")
                    if method == "thm1" else (regressor_rank(data), "regressor"))
    if not diag.full_row_rank:
        raise RankDeficientDataError(f"{matrix} is rank deficient: {diag}", diag)
    if method == "cor2":
        return
    off, tol = data.row_space_distance, data.loop_tolerance
    if off > tol:
        raise InconsistentDataError(
            f"next_states lie {off:.3e} off the row space of the stacked input/regressor "
            f"matrix, above {tol:.3e}: the data do not fit a noiseless plant")


def _match(lp: lpcore.LinearProgram, safe_set: PolyhedralSet, const: np.ndarray, loop: dict,
           rhs: np.ndarray, noise: bool = False) -> None:
    """Declare ``mult`` and the headroom ``slack`` on ``lp`` and pose the
    contraction rows by matching coefficients: row ``i``'s polynomial
    ``(1 - slack) g_i - F_i L x``, less its offset, is ``sum_j mult_ij (g_j -
    F_j x)`` plus a nonnegative constant.  The constant monomial gives row
    (i), ``mult @ g + slack * g (+ noise) <= rhs``; each ``x_k`` gives row
    (ii), ``mult @ F = F @ L``, with ``F @ L = const + sum_b loop[b] @ X_b``
    over loop blocks the caller has declared.  ``noise``, ``cor2``'s uniform
    margin, comes right after ``slack``: in that column order the simplex
    finishes ``cor2``'s program.

    ``slack`` enters row ``i`` as ``slack * g_i``, so the solution certifies
    level ``1 - slack``.  It is sign-restricted, so the program is feasible
    exactly when the conditions hold at level 1, and capped, so the level
    stays ``>= 0``.  Row-major: ``vec(A @ X @ B) = kron(A, B.T) @ vec(X)``.
    """
    F, g = safe_set.normals, safe_set.offsets
    s, n = F.shape
    lp.add_block("mult", (s, s), nonneg=True)
    lp.add_block("slack", (), nonneg=True)
    lp.add_constraint({"slack": 1.0}, "<=", 1.0)
    lp.set_objective("max", {"slack": 1.0})
    terms = {"mult": np.kron(np.eye(s), g), "slack": g}
    if noise:
        lp.add_block("noise", ())
        terms["noise"] = np.ones(s)
    lp.add_constraint_rows(terms, "<=", rhs)
    lp.add_constraint_rows({"mult": np.kron(np.eye(s), F.T),
                            **{name: -np.kron(coeff, np.eye(n)) for name, coeff in loop.items()}},
                           "=", const.reshape(-1))


def _robust_program(data: ExperimentData, safe_set: PolyhedralSet,
                    robust: dict) -> lpcore.LinearProgram:
    """``cor2``'s program at level 1 over ``G = [g1 g2]`` itself, as
    nonnegative parts ``g*_pos - g*_neg``: its budget needs ``|G|``, and with
    one ``(T, n+N)`` block per sign the simplex stalls at its pivot cap on
    the 2-state, 3-term plant.  The loop is ``next_states @ g1``; after
    :func:`_match`'s rows come the right inverse ``regressor @ G = I``, the
    pin (iii) ``next_states @ g2 = 0``, the row sums of ``|G|`` and the
    budget ``noise >= eta0 (|G1| + L |G2| + 1)``.
    """
    F, g = safe_set.normals, safe_set.offsets
    n, N, T = data.state_dim, data.n_terms, data.n_samples
    lp = lpcore.LinearProgram()
    for name, width in (("g1_pos", n), ("g1_neg", n), ("g2_pos", N), ("g2_neg", N)):
        lp.add_block(name, (T, width), nonneg=True)
    f_next = F @ data.next_states
    _match(lp, safe_set, np.zeros((len(g), n)), {"g1_pos": f_next, "g1_neg": -f_next}, g,
           noise=True)
    eye = np.eye(n + N)
    lin, rem = np.kron(data.regressor, eye[:, :n]), np.kron(data.regressor, eye[:, n:])
    lp.add_constraint_rows({"g1_pos": lin, "g1_neg": -lin, "g2_pos": rem, "g2_neg": -rem},
                           "=", eye.reshape(-1))
    # (iii) on a bounded set the second-order condition admits only a zero remainder
    pin = np.kron(data.next_states, np.eye(N))
    lp.add_constraint_rows({"g2_pos": pin, "g2_neg": -pin}, "=", np.zeros(n * N))
    # the split blocks make |G| available as pos + neg without absolute-value rows
    for norm, part, width in (("norm1", "g1", n), ("norm2", "g2", N)):
        lp.add_block(norm, ())
        row_sums = np.kron(np.eye(T), np.ones(width))
        lp.add_constraint_rows({f"{part}_pos": row_sums, f"{part}_neg": row_sums,
                                norm: -np.ones(T)}, "<=", np.zeros(T))
    scale = _noise_floor(data, safe_set, robust)
    lp.add_constraint({"norm1": scale, "norm2": scale * robust["lipschitz"], "noise": -1.0},
                      "<=", -scale)
    return lp


def _noise_floor(data: ExperimentData, safe_set: PolyhedralSet, robust: dict) -> float:
    """``eta0 = gm * state_bound * T``: the noise budget with ``|G1| = |G2| = 0``."""
    gm = robust["w_bound"] * float(np.max(row_norms(safe_set.normals)))
    return gm * robust["state_bound"] * data.n_samples


def _solve(lp: lpcore.LinearProgram, kind: str) -> lpcore.LpOutcome:
    """Solve a posed design program; raise :class:`SynthesisInfeasibleError`
    with the phase-1 infeasibility when no level in ``(0, 1]`` is feasible.
    ``kind`` names the design in the message."""
    outcome = lp.solve()
    if outcome.status == lpcore.LpStatus.INFEASIBLE:
        raise SynthesisInfeasibleError(
            f"{kind} infeasible at every level "
            f"(phase-1 infeasibility {outcome.infeasibility:.3e})", outcome)
    return outcome


def _replay(method: str, data: ExperimentData, safe_set: PolyhedralSet, g1: np.ndarray,
            g2: np.ndarray, k2: np.ndarray, outcome: lpcore.LpOutcome, row_offsets: np.ndarray,
            extra: dict, config: dict) -> tuple[Controller, SynthesisCertificate]:
    """The controller of a solved design and its certificate, recomputed from
    raw matrices: its smallest level, ``1 - headroom`` in ``[0, 1]``, and its
    residuals.

    Every method has the contraction rows, with ``row_offsets`` added, the
    multiplier match and sign, and the right inverse ``regressor @ G = I``
    (its linear columns for ``thm1``); ``thm2`` and ``cor2`` add the pinned
    remainder coefficients ``F @ next_states @ g2``, and ``extra`` holds
    any others.  A design whose certificate does not replay is refused: any
    residual above ``TOL_CERT``, or a multiplier below ``-1e-9``, raises
    :class:`NumericalInstabilityError` naming the worst residual.
    """
    level = min(1.0, max(0.0, 1.0 - float(outcome.objective)))
    F, g = safe_set.normals, safe_set.offsets
    mult = outcome["mult"]
    residuals = {
        "contraction": float(np.max(np.maximum(mult @ g + row_offsets - level * g, 0.0))),
        "multiplier_match": float(np.max(np.abs(mult @ F - F @ data.next_states @ g1))),
        "multiplier_sign": float(max(0.0, -np.min(mult))),
    }
    right = g1 if method == "thm1" else np.hstack([g1, g2])
    residuals["right_inverse_g1" if method == "thm1" else "right_inverse"] = float(np.max(
        np.abs(data.regressor @ right - np.eye(data.state_dim + data.n_terms, right.shape[1]))))
    if method != "thm1":
        residuals["remainder_zeroed"] = float(np.max(np.abs(F @ data.next_states @ g2)))
    residuals.update(extra)
    values = np.array(list(residuals.values()))
    if not (np.max(values) <= TOL_CERT and np.min(mult) >= -1e-9):
        worst = list(residuals)[int(np.argmax(values))]   # the first NaN, if any
        raise NumericalInstabilityError(
            f"{method} certificate does not replay: worst residual {worst} = "
            f"{residuals[worst]:.3e} (tolerance {TOL_CERT:g}), smallest multiplier "
            f"{np.min(mult):.3e}")
    cert = SynthesisCertificate(method=method, contraction=level, set_multiplier=mult,
                                row_offsets=row_offsets, residuals=residuals,
                                config={"method": method, **config})
    return Controller(k1=data.inputs @ g1, k2=k2, g1=g1, g2=g2), cert


def _linear_design(method: str, data: ExperimentData, safe_set: PolyhedralSet,
                   k2: np.ndarray, g2: np.ndarray,
                   row_offsets: np.ndarray) -> tuple[Controller, SynthesisCertificate]:
    """The ``thm2`` or ``thm1`` design around a fixed gain ``k2`` and its
    ``g2``: one :func:`_match` over the linear columns ``w1`` of the
    null-space form :attr:`~polysafe.datagen.ExperimentData.closed_loop`,
    whose loop ``F @ base[:, :n] + (F @ lift) @ w1`` does not grow with
    ``T``, with ``row_offsets`` off the right-hand sides; then
    ``g1 = g0[:, :n] + preimage @ w1``.
    """
    base, lift, g0, preimage = data.closed_loop
    F, n = safe_set.normals, data.state_dim
    lp = lpcore.LinearProgram()
    lp.add_block("w1", (lift.shape[1], n))
    _match(lp, safe_set, (F @ base)[:, :n], {"w1": F @ lift}, safe_set.offsets - row_offsets)
    outcome = _solve(lp, "noiseless design" if method == "thm2" else "baseline")
    g1 = g0[:, :n] + preimage @ outcome["w1"]
    return _replay(method, data, safe_set, g1, g2, k2, outcome, row_offsets, {}, {})


def synthesize_noiseless(data: ExperimentData,
                         safe_set: PolyhedralSet) -> tuple[Controller, SynthesisCertificate]:
    """Primal-dual design assuming the data were collected without noise.

    The closed loop's remainder part is ``base[:, n:] + lift @ w2``; as
    ``lift`` has orthonormal columns, ``w2 = -lift.T @ base[:, n:]`` is its
    least-squares zero, and what is left lies off the inputs' reach for
    every right inverse.  Coefficients ``F @ (base[:, n:] + lift @ w2)``
    above ``TOL_CERT`` raise :class:`SynthesisInfeasibleError` with no LP outcome.
    """
    _admit(data, "thm2")
    base, lift, g0, preimage = data.closed_loop
    n = data.state_dim
    w2 = -lift.T @ base[:, n:]
    residual = float(np.max(np.abs(safe_set.normals @ (base[:, n:] + lift @ w2))))
    if not residual <= TOL_CERT:
        raise SynthesisInfeasibleError(
            f"noiseless design infeasible at every level: the inputs cannot cancel the "
            f"closed-loop remainder (remainder_zeroed {residual:.3e} at the least-squares "
            f"pin, tolerance {TOL_CERT:g})")
    g2 = g0[:, n:] + preimage @ w2
    return _linear_design("thm2", data, safe_set, data.inputs @ g2, g2,
                          np.zeros(safe_set.n_rows))


def synthesize_robust(data: ExperimentData, safe_set: PolyhedralSet,
                      w_bound: float) -> tuple[Controller, SynthesisCertificate]:
    """Noise-aware variant: adds a uniform offset covering disturbance leakage.

    The offset must dominate ``gm * state_bound * T * (|G1| + L |G2| + 1)``
    with ``gm = w_bound * max_i |F_i|_1``, ``L`` the interval-arithmetic
    Lipschitz bound of the dictionary and ``state_bound`` the largest
    coordinate of the safe set's enclosure.  The bound is conservative in
    the sample count, so the certified level rises quickly with ``T`` and
    ``w_bound`` until no level in ``(0, 1]`` is feasible.

    Since ``|G1|, |G2| >= 0``, the offset is at least its floor
    ``gm * state_bound * T``, and contraction row ``i`` admits an offset of
    at most the safe-set offset ``g_i``.  A floor above the smallest ``g_i``
    therefore raises :class:`SynthesisInfeasibleError` without posing the
    program; the error names the floor and the row and carries no LP
    outcome.  Otherwise the program is solved.
    """
    if not w_bound >= 0.0:
        raise ValueError(f"w_bound must be non-negative, got {w_bound}")
    box = interval_enclosure(safe_set)
    robust = {"w_bound": float(w_bound), "lipschitz": float(data.dictionary.lipschitz_bound(box)),
              "state_bound": float(box.max_abs)}
    _admit(data, "cor2")
    floor = _noise_floor(data, safe_set, robust)
    row = int(np.argmin(safe_set.offsets))
    if floor > safe_set.offsets[row]:
        raise SynthesisInfeasibleError(
            f"robust design infeasible at every level: noise floor "
            f"gm*state_bound*T = {floor:.6g} exceeds the smallest offset "
            f"{safe_set.offsets[row]:.6g} (row {row})")
    outcome = _solve(_robust_program(data, safe_set, robust), "robust design")
    # views of one stacked G: inputs @ g1 on a contiguous copy rounds differently
    g1, g2 = np.hsplit(np.hstack([outcome["g1_pos"] - outcome["g1_neg"],
                                  outcome["g2_pos"] - outcome["g2_neg"]]), [data.state_dim])
    eta = outcome["noise"]
    budget = floor * (_norm_inf(g1) + robust["lipschitz"] * _norm_inf(g2) + 1.0)
    return _replay("cor2", data, safe_set, g1, g2, data.inputs @ g2, outcome,
                   np.full(safe_set.n_rows, float(eta)),
                   {"noise_budget": float(max(0.0, budget - eta))}, robust)


# ---------------------------------------------------------------------------
# remainder-minimization baseline


def baseline_search(data: ExperimentData, safe_set: PolyhedralSet) -> BaselineSearch:
    """The gain in ``[-_K2_BOUND, _K2_BOUND]^(m*N)`` minimizing the worst-row
    remainder term over the set's sample, its default grid plus the
    vertices (:func:`~polysafe.polytope.sample_points`).

    The data must pass :func:`_admit`'s ``thm1`` gate: the stacked
    input/regressor matrix at full row rank, with ``next_states`` in its
    row space.  Each (row, point) value is affine in the gain, so the best gain is
    an LP, solved by constraint generation (Kelley, J. SIAM 8, 1960): it is
    posed on the pairs found so far, starting from every row at the
    vertices, and each row's maximizer over all points at the gain-free
    columns and at each iterate joins them until none is new.  The last
    iterate's score is then the optimum over all pairs, to the LP's
    tolerance.  The row bounds feed a certificate, so a set whose vertices
    are not enumerated (dimension above 3) raises
    :class:`~polysafe.errors.DimensionTooLargeError`.
    """
    n, N, m = data.state_dim, data.n_terms, data.input_dim
    _admit(data, "thm1")
    pinv = data.stacked_pinv                         # (T, n+N+m)
    base = pinv[:, n:n + N]                          # (T, N): regressor @ g2 = [0; I]
    gain_map = pinv[:, n + N:]                       # (T, m): inputs @ g2 = k2

    # the vertices end the sample; enumeration refuses a set above dimension 3
    points = sample_points(safe_set)                 # (n, k)
    first_vertex = points.shape[1] - len(enumerate_vertices(safe_set))
    rem = data.dictionary.remainder(points.T)        # (k, N)
    f_next = safe_set.normals @ data.next_states     # (s, T)

    # value(i, p) = f_next[i] @ (base + gain_map @ k2) @ rem[p], affine in k2;
    # the gain-free columns, then each iterate, add their row maximizers
    pairs = {(i, p) for i in range(len(f_next)) for p in range(first_vertex, len(rem))}
    g2, iterates = base, []
    while True:
        values = (f_next @ g2) @ rem.T               # (s, k)
        found = set(enumerate(np.argmax(values, axis=1).tolist()))
        if iterates and found <= pairs:
            break
        pairs |= found
        i, p = np.array(sorted(pairs)).T
        offset = np.einsum("cb,cb->c", f_next[i] @ base, rem[p])
        slope = ((f_next[i] @ gain_map)[:, :, None] * rem[p][:, None, :]).reshape(len(i), m * N)
        # the gain enters as its excess over the box's low corner, a
        # nonnegative block the simplex need not split into signed parts
        lp = lpcore.LinearProgram()
        lp.add_block("excess", (m * N,), nonneg=True)
        lp.add_block("t", ())
        lp.set_objective("min", {"t": 1.0})
        lp.add_constraint_rows({"excess": slope, "t": -np.ones(len(i))}, "<=",
                               -offset + _K2_BOUND * slope.sum(axis=1))
        lp.add_constraint_rows({"excess": np.eye(m * N)}, "<=", np.full(m * N, 2.0 * _K2_BOUND))
        k2 = (lp.solve()["excess"] - _K2_BOUND).reshape(m, N)
        iterates.append(k2.ravel())
        g2 = base + gain_map @ k2
    return BaselineSearch(
        k2=k2, g2=g2, row_bounds=values.max(axis=1), candidates=np.array(iterates))


def synthesize_min_remainder(data: ExperimentData,
                             safe_set: PolyhedralSet) -> tuple[Controller, SynthesisCertificate]:
    """Remainder-minimization baseline: :func:`baseline_search`, then the row-multiplier LP.

    ``cert.contraction`` is the smallest level the certificate holds at, and
    ``cert.row_offsets`` are the searched remainder bounds; ``controller.k2``
    and ``controller.g2`` are the searched gain and its right-inverse columns.
    """
    search = baseline_search(data, safe_set)
    return _linear_design("thm1", data, safe_set, search.k2, search.g2, search.row_bounds)


def format_certificate(controller: Controller, cert: SynthesisCertificate) -> str:
    """Human-readable certificate dump: configuration, matrices and residuals."""

    def mat(name, arr):
        body = np.array2string(np.asarray(arr), precision=12, suppress_small=False,
                               max_line_width=120)
        return f"{name} =\n{body}"

    lines = [
        f"method: {cert.method}",
        f"contraction level: {cert.contraction:.17g}",
        "row offsets: " + ", ".join(f"{v:.17g}" for v in cert.row_offsets),
        "config: " + ", ".join(f"{k}={v}" for k, v in sorted(cert.config.items())),
        "",
        mat("k1", controller.k1),
        mat("k2", controller.k2),
        mat("set_multiplier", cert.set_multiplier),
        "",
        "residuals:",
    ]
    lines += [f"  {k}: {v:.6e}" for k, v in sorted(cert.residuals.items())]
    return "\n".join(lines) + "\n"
