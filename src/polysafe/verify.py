"""Independent verification of synthesized controllers.

Everything here deliberately avoids the synthesis LP: contraction is
checked by evaluating the closed loop on a dense grid plus the exact
vertices, invariance by Monte Carlo rollouts of the true plant, and the
row-multiplier duality by comparing a vertex-enumerated maximum against
the dual LP minimum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import lpcore
from .datagen import ExperimentData
from .dynamics import PlantModel
from .errors import DimensionTooLargeError, SynthesisInfeasibleError
from .polytope import PolyhedralSet, enumerate_vertices, interval_enclosure, sample_grid
from .synthesis import row_norms

TOL_VERIFY = 1e-6
_GRID_CHUNK = 65536  # grid points per margin evaluation
_MC_CHUNK = 2048     # trajectories per Monte Carlo chunk


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Margins and violations from one verification pass.

    ``row_margins[i]`` is the worst observed value of
    ``F_i x+ + d_i - level * g_i`` over all samples (grid check) or of
    ``F_i x(t) - g_i`` over all trajectories (Monte Carlo).  The verdict is
    a pass exactly when every margin is within tolerance and no sample
    violated.

    Grid checks also record the grid cell diagonal and a bound on how much
    the margin can move between neighbouring samples
    (``refinement_bound = |F|_inf * closed-loop Lipschitz bound * cell
    diagonal``): margins at or below its negative certify the whole set,
    not just the sampled points.
    """

    method: str
    row_margins: np.ndarray
    violations: int
    witnesses: list = field(default_factory=list)
    mc_stats: dict | None = None
    samples: int = 0
    runtime: float = 0.0
    tolerance: float = TOL_VERIFY
    cell_diagonal: float | None = None
    refinement_bound: float | None = None

    @property
    def passed(self) -> bool:
        return self.violations == 0 and bool(np.all(self.row_margins <= self.tolerance))


def disturbance_offsets(safe_set: PolyhedralSet, w_bound: float) -> np.ndarray:
    """Per-row worst-case contribution of a bounded disturbance.

    This is exact: the worst ``F_i w`` over ``|w|_inf <= w_bound`` is
    ``w_bound * |F_i|_1`` (:func:`~polysafe.synthesis.row_norms`).
    """
    return w_bound * row_norms(safe_set.normals)


def _closed_loop_matrices(controller, source: str, plant: PlantModel | None,
                          data: ExperimentData | None) -> tuple[np.ndarray, np.ndarray]:
    if source == "true-model":
        if plant is None:
            raise ValueError("true-model verification needs the plant")
        lin = plant.linear_base() + plant.b @ controller.k1
        rem = plant.a2 + plant.b @ controller.k2
    elif source == "data-rep":
        if data is None:
            raise ValueError("data-rep verification needs the experiment data")
        lin = data.next_states @ controller.g1
        rem = data.next_states @ controller.g2
    else:
        raise ValueError(f"source must be 'true-model' or 'data-rep', got {source!r}")
    return lin, rem


def grid_points(safe_set: PolyhedralSet, resolution=None) -> np.ndarray:
    """The set's grid members (:func:`~polysafe.polytope.sample_grid`) followed
    by its vertices; the vertices are left out above dimension 3."""
    points = sample_grid(safe_set, resolution)
    try:
        return np.vstack([points, np.array(enumerate_vertices(safe_set))])
    except DimensionTooLargeError:
        return points


def grid_contractivity(controller, safe_set: PolyhedralSet, level: float, w_bound: float,
                       resolution, dictionary, source: str = "true-model",
                       plant: PlantModel | None = None, data: ExperimentData | None = None,
                       tol: float = TOL_VERIFY, max_witnesses: int = 10,
                       points: np.ndarray | None = None) -> VerificationReport:
    """Check one-step contraction into the ``level``-scaled set on a state grid.

    Every grid member and every vertex is mapped through the deterministic
    closed loop; the per-row worst-case disturbance offset
    (:func:`disturbance_offsets`, one-norm) is added before comparing against
    the scaled offsets.  Sampling-based, not exhaustive: a rigorous
    whole-set claim needs the margins to clear the report's
    ``refinement_bound``.  ``points`` passes in :func:`grid_points` at
    ``resolution`` when several checks share it.
    """
    start = time.perf_counter()
    lin, rem_mat = _closed_loop_matrices(controller, source, plant, data)
    box = interval_enclosure(safe_set)
    if points is None:
        points = grid_points(safe_set, resolution)
    offsets = disturbance_offsets(safe_set, w_bound)
    row_margins = np.full(safe_set.n_rows, -np.inf)
    violations = 0
    witnesses: list = []
    # fixed-size chunks bound the temporaries for large grids
    for first in range(0, points.shape[0], _GRID_CHUNK):
        chunk = points[first:first + _GRID_CHUNK]
        nxt = chunk @ lin.T + dictionary.remainder(chunk) @ rem_mat.T
        margins = nxt @ safe_set.normals.T + offsets - level * safe_set.offsets  # (k, s)
        row_margins = np.maximum(row_margins, margins.max(axis=0))
        worst = margins.max(axis=1)
        bad = np.flatnonzero(worst > tol)
        violations += bad.size
        witnesses += [(first + int(i), chunk[i].copy(), float(worst[i]))
                      for i in bad[:max_witnesses - len(witnesses)]]

    res = np.asarray(resolution, dtype=float).reshape(-1)
    cell_diagonal = float(np.linalg.norm((box.hi - box.lo) / (res - 1.0)))
    loop_lipschitz = (float(np.max(np.abs(lin).sum(axis=1)))
                      + float(np.max(np.abs(rem_mat).sum(axis=1)))
                      * dictionary.lipschitz_bound(box))
    f_norm = float(np.max(np.abs(safe_set.normals).sum(axis=1)))
    return VerificationReport(
        method=f"grid-contractivity[{source}]",
        row_margins=row_margins,
        violations=violations,
        witnesses=witnesses,
        samples=points.shape[0],
        runtime=time.perf_counter() - start,
        tolerance=tol,
        cell_diagonal=cell_diagonal,
        refinement_bound=f_norm * loop_lipschitz * cell_diagonal,
    )


def monte_carlo_invariance(plant: PlantModel, controller, safe_set: PolyhedralSet,
                           n_trajectories: int, horizon: int, seed: int,
                           tol: float = TOL_VERIFY, max_witnesses: int = 10
                           ) -> VerificationReport:
    """Roll the true closed loop from many starts and count safe-set exits.

    Initial states are the vertices plus seeded uniform samples from the
    set; each trajectory's disturbance stream is generated from its own
    child seed, so results do not depend on evaluation order or batching.

    Trajectories run in chunks of ``_MC_CHUNK``: start states, child seeds
    and a ``(horizon, chunk, n)`` disturbance buffer are made one chunk at a
    time, so memory is O(chunk * horizon * n) whatever the trajectory count.
    Margins, exit counts and witnesses are bit-identical to rolling every
    trajectory in one batch.  Witnesses are the first ``max_witnesses``
    exits ordered by exit time, then trajectory index.
    """
    start = time.perf_counter()
    n = plant.state_dim
    try:
        vertices = np.array(enumerate_vertices(safe_set))
    except DimensionTooLargeError:
        vertices = np.zeros((0, n))
    seq = np.random.SeedSequence(seed)
    init_rng = np.random.default_rng(seq.spawn(1)[0])
    box = interval_enclosure(safe_set)
    accepted = np.zeros((0, n))  # uniform samples in the set, not yet used as starts

    k1 = controller.k1
    k2 = controller.k2
    lin_base = plant.linear_base() + plant.b @ k1
    rem_base = plant.a2 + plant.b @ k2
    a_slope = plant.dictionary.linearization()

    worst = np.full(safe_set.n_rows, -np.inf)
    violations = 0
    witnesses: list = []
    first = 0
    while first < n_trajectories:
        stop = min(first + _MC_CHUNK, n_trajectories)
        if n_trajectories - stop == 1:
            # numpy sends a one-row matmul to BLAS gemv, which rounds
            # differently from the gemm of larger chunks
            stop += 1
        size = stop - first

        states = np.empty((size, n))
        filled = min(max(len(vertices) - first, 0), size)
        states[:filled] = vertices[first:first + filled]
        while filled < size:
            if not len(accepted):
                cand = init_rng.uniform(box.lo, box.hi, size=(4 * (size - filled), n))
                accepted = cand[safe_set.membership_mask(cand)]
            take = min(len(accepted), size - filled)
            states[filled:filled + take] = accepted[:take]
            accepted = accepted[take:].copy()  # a copy lets the spent draw be freed
            filled += take

        noise = np.zeros((horizon, size, n))
        if plant.w_bound > 0.0:
            for j, child in enumerate(seq.spawn(size)):
                noise[:, j, :] = np.random.default_rng(child).uniform(
                    -plant.w_bound, plant.w_bound, size=(horizon, n))

        alive = np.ones(size, dtype=bool)
        all_alive = True
        found: list = []
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(horizon):
                vals = plant.dictionary.values(states)
                rems = vals - states @ a_slope.T
                states = states @ lin_base.T + rems @ rem_base.T + noise[t]
                rowvals = states @ safe_set.normals.T - safe_set.offsets
                worst = np.maximum(worst, (rowvals if all_alive else rowvals[alive]).max(axis=0))
                row_max = rowvals[:, 0]
                for j in range(1, rowvals.shape[1]):
                    row_max = np.maximum(row_max, rowvals[:, j])
                exited = row_max > tol
                if not all_alive:
                    exited &= alive
                hit = np.flatnonzero(exited)
                if hit.size:
                    found += [(first + int(i), t + 1, states[i].copy())
                              for i in hit[:max(0, max_witnesses - len(found))]]
                    violations += hit.size
                    alive[hit] = False
                    all_alive = False
                if not all_alive:
                    if not alive.any():
                        break
                    states[~alive] = 0.0  # freeze exited runs so they cannot overflow
        witnesses = sorted(witnesses + found, key=lambda w: (w[1], w[0]))[:max_witnesses]
        del noise, states  # free this chunk's buffers before the next chunk's are made
        first = stop

    return VerificationReport(
        method="monte-carlo-invariance",
        row_margins=worst,
        violations=violations,
        witnesses=witnesses,
        mc_stats={
            "trajectories": int(n_trajectories),
            "horizon": int(horizon),
            "seed": int(seed),
            "exits": violations,
        },
        samples=n_trajectories * horizon,
        runtime=time.perf_counter() - start,
        tolerance=tol,
    )


def dual_gap_check(linear_map: np.ndarray, safe_set: PolyhedralSet,
                   rows=None) -> tuple[float, np.ndarray]:
    """Strong-duality spot check for the row-multiplier structure.

    For each selected row: the primal value maximizes ``F_i @ linear_map @ x``
    over the set using exact vertex enumeration, the dual value solves
    ``min alpha @ g`` subject to ``alpha @ F = F_i @ linear_map, alpha >= 0``.
    Returns the max gap and the per-row gaps.
    """
    F = safe_set.normals
    g = safe_set.offsets
    vertices = np.array(enumerate_vertices(safe_set))
    if rows is None:
        rows = range(safe_set.n_rows)
    gaps = []
    for i in rows:
        functional = F[i] @ np.asarray(linear_map, dtype=float)
        primal = float(np.max(vertices @ functional))
        lp = lpcore.LinearProgram()
        lp.add_block("alpha", (safe_set.n_rows,), nonneg=True)
        lp.add_constraint_rows({"alpha": F.T}, "=", functional)
        lp.set_objective("min", {"alpha": g})
        outcome = lp.solve()
        if outcome.status != lpcore.LpStatus.OPTIMAL:
            raise SynthesisInfeasibleError(
                f"dual program for row {i} returned {outcome.status}", outcome)
        gaps.append(abs(primal - float(outcome.objective)))
    gaps = np.asarray(gaps)
    return float(gaps.max()), gaps


@dataclass(frozen=True, eq=False)
class ConservatismTable:
    """Side-by-side comparison of design methods; informational only."""

    rows: dict
    lumped_bounds: np.ndarray | None = None

    def render(self) -> str:
        lines = []
        header = f"{'method':8s} {'min level':>10s} {'|k2|_inf':>10s} {'max effort':>11s}"
        lines.append(header)
        lines.append("-" * len(header))
        for name, entry in self.rows.items():
            if entry is None:
                lines.append(f"{name:8s} {'infeasible':>10s} {'-':>10s} {'-':>11s}")
                continue
            level = "-" if entry.get("min_level") is None else f"{entry['min_level']:.4f}"
            lines.append(
                f"{name:8s} {level:>10s} {entry['k2_norm']:>10.4f} {entry['effort']:>11.4f}")
        if self.lumped_bounds is not None:
            lines.append("lumped-disturbance bound per row: "
                         + ", ".join(f"{v:.5g}" for v in self.lumped_bounds))
        return "\n".join(lines)


def control_effort(controller, safe_set: PolyhedralSet, dictionary,
                   resolution=None) -> float:
    """Grid maximum of the control magnitude over the safe set."""
    points = grid_points(safe_set, resolution)
    rems = dictionary.remainder(points)
    inputs = points @ controller.k1.T + rems @ controller.k2.T
    return float(np.max(np.abs(inputs)))


def conservatism_report(safe_set: PolyhedralSet, dictionary,
                        primal_dual=None, baseline=None, lumped_bounds=None,
                        min_levels: dict | None = None) -> ConservatismTable:
    """Comparison table: minimal level, gain size and control effort per method.

    ``primal_dual`` is a (controller, certificate) pair, ``baseline`` a
    :class:`BaselineResult`; missing or infeasible methods render as such
    with no cross-method assertion made.
    """
    min_levels = min_levels or {}
    rows: dict = {}
    if primal_dual is not None:
        controller = primal_dual[0]
        rows[primal_dual[1].method] = {
            "min_level": min_levels.get(primal_dual[1].method),
            "k2_norm": float(np.max(np.abs(controller.k2).sum(axis=1))),
            "effort": control_effort(controller, safe_set, dictionary),
        }
    for name in ("thm2", "cor2", "thm1"):
        if name in min_levels and name not in rows:
            rows[name] = None if min_levels[name] is None else {
                "min_level": min_levels[name], "k2_norm": float("nan"), "effort": float("nan")}
    if baseline is not None:
        rows["thm1"] = {
            "min_level": min_levels.get("thm1"),
            "k2_norm": float(np.max(np.abs(baseline.controller.k2).sum(axis=1))),
            "effort": control_effort(baseline.controller, safe_set, dictionary),
        }
    elif "thm1" not in rows:
        rows["thm1"] = None
    return ConservatismTable(rows=rows, lumped_bounds=lumped_bounds)
