"""Independent verification of synthesized controllers.

Everything here deliberately avoids the synthesis LP: contraction is
checked by evaluating the closed loop on a dense grid plus the exact
vertices, and invariance by Monte Carlo rollouts of the true plant.  The
grid is walked once, in fixed-size blocks, for every closed loop checked on
it (:func:`grid_reports`), so its memory is O(block), not O(grid); a block
is scanned member by member only when a row maximum of its margins crosses
the tolerance.  The conservatism table has one row per design it is
given, and its control effort and lumped disturbance bounds take their
maxima over the set's one sample (:func:`~polysafe.polytope.sample_points`),
each lifting it once.  Nothing here is imported from
:mod:`~polysafe.synthesis`, whose designs these checks judge.

Grid blocks, Monte Carlo chunks and the sample all evaluate a closed loop
one way: ``[L R] @ [x; r(x)]`` on coordinate-major ``(n, k)`` batches,
with ``r(x)`` written in place by :meth:`~polysafe.dynamics.Dictionary.lift`.
Monte Carlo steps each chunk between two swapped lift buffers
``[x; r(x); d]``, with one more row per coordinate for the disturbance
words ``d``: each step draws a coordinate's signed 32-bit words, two from
each PCG64 output, with one jump and one raw draw of an addressed stream
straight into its row, and ``[L R w*2**-31*I]`` turns the buffer into the
next states with one product.  So no buffer grows with the horizon; the
chunk is scanned for exits only at a step where some row maximum crosses
the tolerance, and stops once no later step can exit or raise a margin.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .datagen import ExperimentData
from .dynamics import PlantModel
from .polytope import (TOL_GEOM, Box, PolyhedralSet, _norm_inf, grid_blocks, grid_resolution,
                       interval_enclosure, row_norms, sample_points, sample_vertices)

TOL_VERIFY = 1e-6
_MC_CHUNK = 16384    # trajectories per Monte Carlo chunk
# Monte Carlo noise stream positions between two (step, coordinate) pairs:
# PCG64.jumped's step, floor((phi - 1) * 2**128).  Pair (t, k) reads at
# (t * n + k) times it.  It is odd, so the states a trajectory reads over the
# pairs form a full-period LCG of their own; a power-of-two stride or
# coordinate offset would pin their low bits (2**64 leaves the low 64 equal)
# and leave the high bits a Weyl sequence.
_MC_STEP_STRIDE = 0x9e3779b97f4a7c15f39cc0605cedc835
_START_BATCH = 2048  # Monte Carlo start candidates are drawn 4 * this many rows at most
_MAX_WITNESSES = 10  # violations a grid or Monte Carlo report keeps as witnesses


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Margins and violations from one verification pass.

    ``row_margins[i]`` is the worst observed value of
    ``F_i x+ + d_i - level * g_i`` over all samples (grid check) or of
    ``F_i x(t) - g_i`` over all trajectories (Monte Carlo).  The verdict is
    a pass exactly when every margin is within ``TOL_VERIFY`` and no
    sample violated.

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
    cell_diagonal: float | None = None
    refinement_bound: float | None = None

    @property
    def passed(self) -> bool:
        return self.violations == 0 and bool(np.all(self.row_margins <= TOL_VERIFY))


def disturbance_offsets(safe_set: PolyhedralSet, w_bound: float) -> np.ndarray:
    """Per-row worst-case contribution of a bounded disturbance.

    This is exact: the worst ``F_i w`` over ``|w|_inf <= w_bound`` is
    ``w_bound * |F_i|_1`` (:func:`~polysafe.polytope.row_norms`).
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


def _lift(states: np.ndarray, dictionary) -> np.ndarray:
    """``[x; r(x)]``, ``(n + N, k)``, for an ``(n, k)`` batch of states:
    ``x+ = L x + R r(x)`` is then ``[L R] @ [x; r(x)]``."""
    n, k = states.shape
    out = np.empty((n + dictionary.n_terms, k))
    out[:n] = states
    return dictionary.lift(out)


def _exceeding(margins: np.ndarray, const: np.ndarray) -> tuple:
    """The full scan of a grid block: adds ``const`` to the ``(s, k)``
    ``margins`` in place and returns each member's worst margin and the
    indices of the members whose worst margin exceeds ``TOL_VERIFY``."""
    margins += const[:, None]
    worst = margins.max(axis=0)
    return worst, np.flatnonzero(worst > TOL_VERIFY)


def grid_reports(controller, safe_set: PolyhedralSet, level: float, w_bound: float,
                 resolution, dictionary, sources=("true-model", "data-rep"),
                 plant: PlantModel | None = None, data: ExperimentData | None = None) -> tuple:
    """Check one-step contraction into the ``level``-scaled set on a state
    grid: one report per source (``"true-model"`` or ``"data-rep"``), all
    from one walk of the grid.

    Every grid member and every vertex is mapped through the source's
    closed loop ``x+ = L x + R r(x)``; its margins are
    ``F [L R] [x; r(x)] + d - level * g``, with ``d`` the worst-case
    disturbance offsets of :func:`disturbance_offsets`.  Sampling-based, not
    exhaustive: a whole-set claim needs the margins to clear the report's
    ``refinement_bound``.  ``resolution=None`` means
    :func:`~polysafe.polytope.grid_resolution` of the set's dimension.

    The grid is walked in fixed-size blocks of members
    (:func:`~polysafe.polytope.grid_blocks`), then the vertices, so memory is
    O(block), not O(grid), and each block's ``r(x)`` is evaluated once.  A
    block first takes only each row's maximum margin; the per-member scan
    for violations runs only when one crosses ``TOL_VERIFY`` (or is NaN).  A
    source's report is bit-identical to checking that source alone, and to
    scanning every member of every block.
    """
    if resolution is None:
        resolution = grid_resolution(safe_set.dim)
    loops = [_closed_loop_matrices(controller, source, plant, data) for source in sources]
    weights = [safe_set.normals @ np.hstack(loop) for loop in loops]   # (s, n + N) each
    const = disturbance_offsets(safe_set, w_bound) - level * safe_set.offsets
    row_margins = [np.full(safe_set.n_rows, -np.inf) for _ in sources]
    violations = [0] * len(sources)
    witnesses: list = [[] for _ in sources]
    samples = 0
    vertices = sample_vertices(safe_set)
    for block in itertools.chain(grid_blocks(safe_set, resolution),
                                 [vertices] if vertices.shape[1] else []):
        stacked = _lift(block, dictionary)
        for j, weight in enumerate(weights):
            margins = weight @ stacked                                  # (s, k)
            # rounding is monotone, so the row maxima of margins + const are
            # those of margins, plus const; no member violates unless one
            # crosses TOL_VERIFY, and a NaN fails the test and takes the full scan
            peak = margins.max(axis=1)
            peak += const
            np.maximum(row_margins[j], peak, out=row_margins[j])
            if peak.max() <= TOL_VERIFY:
                continue
            worst, bad = _exceeding(margins, const)
            violations[j] += bad.size
            witnesses[j] += [(samples + int(i), block[:, i].copy(), float(worst[i]))
                             for i in bad[:_MAX_WITNESSES - len(witnesses[j])]]
        samples += block.shape[1]

    box = interval_enclosure(safe_set)
    res = np.asarray(resolution, dtype=float).reshape(-1)
    cell_diagonal = float(np.linalg.norm((box.hi - box.lo) / (res - 1.0)))
    f_norm = _norm_inf(safe_set.normals)
    remainder_lipschitz = dictionary.lipschitz_bound(box)
    reports = []
    for j, (source, (lin, rem_mat)) in enumerate(zip(sources, loops)):
        loop_lipschitz = _norm_inf(lin) + _norm_inf(rem_mat) * remainder_lipschitz
        reports.append(VerificationReport(
            method=f"grid-contractivity[{source}]",
            row_margins=row_margins[j],
            violations=violations[j],
            witnesses=witnesses[j],
            samples=samples,
            cell_diagonal=cell_diagonal,
            refinement_bound=f_norm * loop_lipschitz * cell_diagonal,
        ))
    return tuple(reports)


def _settled_test(loop: np.ndarray, safe_set: PolyhedralSet, dictionary, w_bound: float,
                  vertices: np.ndarray):
    """``settled(peak, worst)``: stop conditions (i) and (ii) of :func:`monte_carlo_invariance`."""
    normals, offsets, s, n = safe_set.normals, safe_set.offsets, safe_set.n_rows, safe_set.dim
    lin, rem, box = loop[:, :n], loop[:, n:-n], interval_enclosure(safe_set)
    reach = (1.0 + TOL_GEOM) * np.maximum(np.abs(box.lo), np.abs(box.hi)) + TOL_GEOM
    coeffs, degrees = dictionary.remainder_bounds(Box(-reach, reach))
    base = 1.0 + TOL_VERIFY / offsets.min()  # the largest rho_t the test takes
    slack = 2.0**-40 * base * (1.0 + (np.abs(normals) @ reach / offsets).max())
    cap, f_lin = 2.0 * base + slack, normals @ lin  # cap: above every rho tested
    states = cap * reach
    scale = cap * offsets + np.abs(normals) @ (states + np.abs(lin) @ states + w_bound + np.abs(
        rem) @ (coeffs * cap ** degrees + states.max() + 1.0))  # eta_i / 2**-40, less dedup
    b = w_bound * row_norms(normals) + 2.0**-40 * scale + 2.0 * TOL_GEOM * cap * (
        np.abs(f_lin) @ np.maximum(1.0, reach))
    a, c = (f_lin @ vertices).max(axis=1)[:, None], np.abs(normals @ rem) * coeffs
    # u(rho) = [b a C] @ rho**[0 1 d]; rows u - rho g for (i), then u - g for (ii)
    poly = np.block([[b[:, None], a - offsets[:, None], c], [(b - offsets)[:, None], a, c]])
    powers, limit = np.concatenate([[0.0, 1.0], degrees]), np.zeros(2 * s)

    def settled(peak: np.ndarray, worst: np.ndarray) -> bool:
        rho = 1.0 + float((peak / offsets).max()) + slack
        np.minimum(worst, TOL_VERIFY, out=limit[s:])
        return bool((poly @ rho ** powers < limit).all())
    return settled


def monte_carlo_invariance(plant: PlantModel, controller, safe_set: PolyhedralSet,
                           n_trajectories: int, horizon: int, seed: int) -> VerificationReport:
    """Roll the true closed loop from many starts and count safe-set exits.

    Initial states are the vertices plus seeded uniform samples from the
    set, drawn from the first child of ``seed``.  The disturbances come from
    one PCG64 stream seeded by the second child and are addressed, not read
    in order: coordinate ``k`` of trajectory ``i``'s disturbance at step
    ``t`` is ``w * 2**-31 * d``, with ``d`` the signed 32-bit word ``i`` of
    that stream advanced ``(t * n + k) * _MC_STEP_STRIDE`` outputs.  Word
    ``i`` is the low half of output ``i // 2`` for even ``i`` and its high
    half for odd ``i``, so one output serves two trajectories.  The
    disturbance lies in ``[-w, w)`` on a grid of spacing ``w * 2**-31``, far
    below ``TOL_VERIFY``.  So the noise depends only on ``(i, t, k)``:
    running more trajectories leaves the earlier ones unchanged, and the
    chunk size moves no bit.

    Trajectories run in chunks of ``_MC_CHUNK``.  Each chunk steps between
    two ``(n + N + n, chunk)`` lift buffers ``[x; r(x); d]``, so memory is
    O(chunk * (n + N + s)) whatever the trajectory count and the horizon.
    A step lifts ``x`` in place, writes each coordinate's words into its
    ``d`` row after one jump of the stream (PCG64's jump-ahead costs O(log)
    of the distance), and forms ``x+ = [L R w*2**-31*I] @ [x; r(x); d]`` in
    the other buffer with one product; the two swap.  While every run is
    alive a step only takes the row maxima of ``F x``, less ``g``; the
    per-run exit scan runs only at a step where one of them crosses
    ``TOL_VERIFY``, and at every step after the first exit.  Margins, exit
    counts and witnesses are bit-identical to rolling every trajectory in
    one batch.  Witnesses are the first ``_MAX_WITNESSES`` exits ordered by
    exit time, then trajectory index.

    A chunk of a set with vertices (n <= 3) stops once no later step can
    change the report.  Row ``i`` of the image of ``rho S`` obeys ``F_i x+ <=
    u_i(rho) = rho max_v F_i L v + sum_j |F_i R|_j c_j rho**d_j + w |F_i|_1 +
    eta_i`` (``c, d`` from :meth:`~polysafe.dynamics.Dictionary.remainder_bounds`);
    ``eta_i`` (``2**-40`` times the row's magnitudes, plus ``2 TOL_GEOM`` for
    the vertex dedup) covers a step's rounding.  While all runs live, at
    steps with ``t + 1`` a power of two, the chunk stops if, at ``rho_t =
    max_i (1 + peak_i / g_i)``, (i) ``u_i < rho_t g_i`` (``rho_t S`` is invariant)
    and (ii) ``u_i - g_i < min(worst_i, TOL_VERIFY)`` on every row; ``samples`` is unchanged.
    """
    if n_trajectories < 1:
        raise ValueError(f"n_trajectories must be at least 1, got {n_trajectories}")
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    n = plant.state_dim
    dictionary = plant.dictionary
    vertices = sample_vertices(safe_set)
    init_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
    init_rng = np.random.default_rng(init_seq)
    stream = np.random.PCG64(noise_seq)
    position = 0  # the stream position of the next output drawn
    box = interval_enclosure(safe_set)
    accepted = np.zeros((0, n))  # uniform samples in the set, not yet used as starts

    # [L R w*2**-31*I]: the last n columns scale the words to disturbances
    loop = np.hstack([*_closed_loop_matrices(controller, "true-model", plant, None),
                      np.ldexp(plant.w_bound, -31) * np.eye(n)])
    normals, offsets = safe_set.normals, safe_set.offsets
    # (ii) fails while a worst margin is below w |F_i|_1 - g_i; built at first need
    floor, settled = disturbance_offsets(safe_set, plant.w_bound) - offsets, None

    # two lift buffers serve every chunk; a short chunk takes contiguous
    # prefixes of their storage, never a column slice: given a strided out=,
    # numpy may skip BLAS and round differently
    lifted = n + dictionary.n_terms  # the rows [x; r(x)]; n rows of words follow
    width = lifted + n
    capacity = min(n_trajectories, _MC_CHUNK + 1)
    lift_stores = (np.empty(width * capacity), np.empty(width * capacity))

    worst = np.full(safe_set.n_rows, -np.inf)
    violations = 0
    witnesses: list = []
    first = 0
    while first < n_trajectories:
        stop = min(first + _MC_CHUNK, n_trajectories)
        if n_trajectories - stop == 1:
            # numpy sends a one-column matmul to BLAS gemv, which rounds
            # differently from the gemm of larger chunks
            stop += 1
        size = stop - first
        a, b = (store[:width * size].reshape(width, size) for store in lift_stores)
        # the chunk's words are outputs first // 2 to (stop - 1) // 2, less
        # the low half of the first when the chunk starts at an odd index
        skip, outputs = first % 2, (stop + 1) // 2 - first // 2

        states = a[:n]  # the (n, size) start states, one per column
        filled = min(max(vertices.shape[1] - first, 0), size)
        states[:, :filled] = vertices[:, first:first + filled]
        while filled < size:
            if not len(accepted):
                # the candidates are one stream of rows whatever the batch size
                rows = 4 * min(size - filled, _START_BATCH)
                cand = init_rng.uniform(box.lo, box.hi, size=(rows, n))
                accepted = cand[safe_set.membership_mask(cand)]
            take = min(len(accepted), size - filled)
            states[:, filled:filled + take] = accepted[:take].T
            accepted = accepted[take:].copy()  # a copy lets the spent draw be freed
            filled += take

        alive = np.ones(size, dtype=bool)
        all_alive = True
        found: list = []
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(horizon):
                dictionary.lift(a[:lifted])
                for k in range(n):
                    # jump to (t, k, first) modulo the 2**128 period; '<u8'
                    # makes the view read low half first on any host
                    target = (t * n + k) * _MC_STEP_STRIDE + first // 2
                    stream.advance((target - position) % 2**128)
                    position = target + outputs
                    words = stream.random_raw(outputs).astype("<u8", copy=False).view("<i4")
                    a[lifted + k] = words[skip:skip + size]
                np.matmul(loop, a, out=b[:n])
                a, b = b, a
                states = a[:n]
                rowvals = normals @ states
                if all_alive:
                    # rounding is monotone, so the row maxima of F x - g are
                    # those of F x, minus g; no run exits unless one crosses
                    # TOL_VERIFY
                    peak = rowvals.max(axis=1)
                    peak -= offsets
                    np.maximum(worst, peak, out=worst)
                    if peak.max() <= TOL_VERIFY:
                        if vertices.shape[1] and not (t + 1) & t and (floor < worst).all():
                            settled = settled or _settled_test(loop, safe_set, dictionary,
                                                               plant.w_bound, vertices)
                            if settled(peak, worst):
                                break
                        continue
                rowvals -= offsets[:, None]
                exited = rowvals.max(axis=0) > TOL_VERIFY
                if not all_alive:
                    np.maximum(worst, rowvals[:, alive].max(axis=1), out=worst)
                    exited &= alive
                hit = np.flatnonzero(exited)
                if hit.size:
                    found += [(first + int(i), t + 1, states[:, i].copy())
                              for i in hit[:max(0, _MAX_WITNESSES - len(found))]]
                    violations += hit.size
                    alive[hit] = False
                    all_alive = False
                if not all_alive:
                    if not alive.any():
                        break
                    states[:, ~alive] = 0.0  # freeze exited runs so they cannot overflow
        witnesses = sorted(witnesses + found, key=lambda w: (w[1], w[0]))[:_MAX_WITNESSES]
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
    )


@dataclass(frozen=True, eq=False)
class ConservatismTable:
    """Side-by-side comparison of design methods; informational only."""

    rows: dict
    lumped_bounds: np.ndarray | None = None

    def render(self) -> str:
        """The table as text; the level column is as wide as its longest status."""
        width = max([10] + [len(entry) for entry in self.rows.values() if isinstance(entry, str)])
        lines = []
        header = f"{'method':8s} {'min level':>{width}s} {'|k2|_inf':>10s} {'max effort':>11s}"
        lines.append(header)
        lines.append("-" * len(header))
        for name, entry in self.rows.items():
            if isinstance(entry, str):  # the status of a method with no design
                lines.append(f"{name:8s} {entry:>{width}s} {'-':>10s} {'-':>11s}")
                continue
            lines.append(f"{name:8s} {entry['min_level']:>{width}.4f} "
                         f"{entry['k2_norm']:>10.4f} {entry['effort']:>11.4f}")
        if self.lumped_bounds is not None:
            lines.append("lumped-disturbance bound per row: "
                         + ", ".join(f"{v:.5g}" for v in self.lumped_bounds))
        return "\n".join(lines)


def control_effort(controller, safe_set: PolyhedralSet, dictionary) -> float:
    """Maximum control magnitude over the safe set's sample
    (:func:`~polysafe.polytope.sample_points`)."""
    gains = np.hstack([controller.k1, controller.k2])   # u = [k1 k2] [x; r(x)]
    return float(np.max(np.abs(gains @ _lift(sample_points(safe_set), dictionary))))


def lumped_disturbance_bounds(data: ExperimentData, safe_set: PolyhedralSet,
                              controller, w_bound: float) -> np.ndarray:
    """Per-row upper bound on the worst-case lumped disturbance for a fixed controller.

    Combines the maximum of the closed-loop remainder term over the safe
    set's sample (:func:`~polysafe.polytope.sample_points`) with the norm bound on noise leakage
    through the data matrices and the direct disturbance term, with the
    Lipschitz and state bounds of the safe set's interval enclosure.  Used
    for conservatism reports only; minimizing this quantity over controllers
    is the intractable path the toolkit avoids.  Above dimension 3 the
    sample holds no vertices, so the maximum is over the grid alone.
    """
    box = interval_enclosure(safe_set)
    lipschitz = data.dictionary.lipschitz_bound(box)
    state_bound = box.max_abs
    n = safe_set.dim
    coeffs = safe_set.normals @ data.next_states @ controller.g2   # (s, N)
    base = (coeffs @ _lift(sample_points(safe_set), data.dictionary)[n:]).max(axis=1)
    rn = row_norms(safe_set.normals)
    leakage = data.n_samples * w_bound * rn * (
        _norm_inf(controller.g1) * state_bound
        + _norm_inf(controller.g2) * lipschitz * state_bound)
    return base + leakage + w_bound * rn


def conservatism_report(safe_set: PolyhedralSet, dictionary, designs: dict,
                        lumped_bounds=None) -> ConservatismTable:
    """Comparison table, one row per entry of ``designs``, in its order: a
    ``(controller, certificate)`` pair gives the minimal level (the
    certificate's ``contraction``), gain size and control effort; a string
    is the status of a method with no design (``"infeasible"``,
    ``"unsupported"``, ...) and is the row as it stands.  No cross-method
    assertion is made."""
    rows = {name: design if isinstance(design, str) else {
                "min_level": design[1].contraction,
                "k2_norm": _norm_inf(design[0].k2),
                "effort": control_effort(design[0], safe_set, dictionary),
            } for name, design in designs.items()}
    return ConservatismTable(rows=rows, lumped_bounds=lumped_bounds)
