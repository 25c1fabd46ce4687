"""Excitation experiments and the data matrices consumed by synthesis.

A single open-loop trajectory of ``T`` steps is arranged into the input
matrix (m, T), the state snapshots (n, T) before and after each step,
the columnwise remainder of the visited states (N, T), and the stacked
regressor (n+N, T) whose full row rank is the informativity condition
every design method relies on.

Every factorization of these matrices that synthesis reads (ranks,
pseudo-inverses, the closed-loop basis) is a cached property of
:class:`ExperimentData`, so a data set is factored once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .dynamics import Dictionary, PlantModel
from .errors import RankDeficientDataError, TooFewSamplesError, TrajectoryDivergedError
from .polytope import PolyhedralSet, interval_enclosure

RANK_RTOL = 1e-8  # singular values below RANK_RTOL * sigma_max do not count
_LOOP_RTOL = 1e-10  # closed-loop directions below this share of |next_states| are rounding noise
_MAX_ATTEMPTS = 10  # experiments collect_informative tries before giving up


@dataclass(frozen=True, eq=False)
class ExperimentData:
    """Matrices assembled from one collected trajectory.

    ``true_noise`` retains the disturbance sequence actually injected and is
    used only for diagnostics; synthesis never reads it.  The dictionary
    rides along because it is public knowledge (only the coefficients are
    unknown) and every design method needs to evaluate remainders.
    """

    inputs: np.ndarray        # (m, T)
    states: np.ndarray        # (n, T)
    next_states: np.ndarray   # (n, T)
    remainders: np.ndarray    # (N, T)
    dictionary: Dictionary
    true_noise: np.ndarray | None = None

    def __post_init__(self):
        T = self.inputs.shape[1]
        for name in ("states", "next_states", "remainders"):
            if getattr(self, name).shape[1] != T:
                raise ValueError(f"{name} has a different number of columns than inputs")
        n, N = self.states.shape[0], self.remainders.shape[0]
        if T < n + N + 1:
            raise TooFewSamplesError(f"need at least n + N + 1 = {n + N + 1} samples, got {T}")

    @cached_property
    def regressor(self) -> np.ndarray:
        """States stacked over remainders, ``(n + N, T)``, built on first read;
        column-major, as the pseudo-inverse and residuals round by layout."""
        return np.asfortranarray(np.vstack([self.states, self.remainders]))

    @cached_property
    def _regressor_factors(self) -> tuple[RankDiagnostic, np.ndarray]:
        """:func:`regressor_rank` and ``pinv(regressor)``, from one SVD."""
        return _factor(self.regressor)

    @cached_property
    def _stacked_factors(self) -> tuple[RankDiagnostic, np.ndarray]:
        """:func:`identification_rank` and :attr:`stacked_pinv` of the
        regressor stacked over the inputs, ``(n + N + m, T)``, from one SVD."""
        return _factor(np.vstack([self.regressor, self.inputs]))

    @property
    def stacked_pinv(self) -> np.ndarray:
        """``pinv([regressor; inputs])``, ``(T, n + N + m)``, for the ``thm1`` gain search."""
        return self._stacked_factors[1]

    @cached_property
    def loop_tolerance(self) -> float:
        """``_LOOP_RTOL * |next_states|_2``, the rounding level of the closed loop."""
        return _LOOP_RTOL * np.linalg.norm(self.next_states, 2)

    @cached_property
    def closed_loop(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Null-space parametrization ``(base, lift, g0, preimage)`` of the
        data-based closed loop: every ``next_states @ G`` with ``regressor @ G
        = I`` is ``base + lift @ W``, ``W`` free, and ``g0 + preimage @ W`` is
        its minimum-norm right inverse (De Persis & Tesi, IEEE TAC 2020).
        ``base = next_states @ pinv(regressor)``, and ``lift`` spans
        ``next_states @ P``, ``P`` the projector onto the regressor's null
        space (rank at most m on noiseless data), with singular values below
        :attr:`loop_tolerance` truncated, not inverted, so the preimage replays.
        """
        pinv = self._regressor_factors[1]                         # (T, n+N)
        base = self.next_states @ pinv                            # (n, n+N)
        # next_states @ P, without forming the (T, T) projector
        u, sv, vt = np.linalg.svd(self.next_states - base @ self.regressor, full_matrices=False)
        keep = sv > self.loop_tolerance
        if not keep.any():  # the inputs do not move the closed loop; one idle column
            return base, np.zeros((self.state_dim, 1)), pinv, np.zeros((self.n_samples, 1))
        return base, u[:, keep], pinv, vt[keep].T / sv[keep]

    @cached_property
    def row_space_distance(self) -> float:
        """``|next_states - next_states @ pinv(stacked) @ stacked|_2``: as the
        stacked row space is the regressor's plus that of ``UP = inputs @ P``,
        this is ``|D - D @ pinv(UP) @ UP|_2`` with ``D = next_states @ P``."""
        base, _, pinv, _ = self.closed_loop
        d = self.next_states - base @ self.regressor
        up = self.inputs - (self.inputs @ pinv) @ self.regressor
        return float(np.linalg.norm(d - d @ np.linalg.pinv(up) @ up, 2))

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[1]

    @property
    def state_dim(self) -> int:
        return self.states.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_terms(self) -> int:
        return self.remainders.shape[0]

    def export_csv(self, out_dir) -> list[Path]:
        """One CSV per matrix, row-major, 17 significant digits."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        names = ["inputs", "states", "next_states", "remainders", "regressor"]
        if self.true_noise is not None:
            names.append("true_noise")
        for name in names:
            path = out_dir / f"{name}.csv"
            with open(path, "w") as handle:
                for row in np.atleast_2d(getattr(self, name)):
                    handle.write(",".join(f"{v:.17g}" for v in row) + "\n")
            written.append(path)
        return written


def collect(plant: PlantModel, n_samples: int, u_max: float, x0, seed: int,
            with_noise: bool = False, safe_set: PolyhedralSet | None = None) -> ExperimentData:
    """Run one excitation experiment and assemble the data matrices.

    Inputs are uniform on [-u_max, u_max]^m, disturbances (when enabled)
    uniform on [-w_bound, w_bound]^n; both streams are drawn up front from
    ``seed`` (inputs first), so the experiment is deterministic.

    A given ``safe_set`` raises :class:`TrajectoryDivergedError` for the
    first step whose state leaves twice its interval enclosure, as does a
    non-finite state with or without it; collection itself never insists
    the trajectory stays safe.
    """
    n, m, N = plant.state_dim, plant.input_dim, plant.dictionary.n_terms
    if n_samples < n + N + 1:
        raise TooFewSamplesError(f"need at least n + N + 1 = {n + N + 1} samples, got {n_samples}")
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-u_max, u_max, size=(n_samples, m))
    if with_noise and plant.w_bound > 0.0:
        noise = rng.uniform(-plant.w_bound, plant.w_bound, size=(n_samples, n))
    else:
        noise = np.zeros((n_samples, n))

    plant._check_bound(noise)

    a1, a2, b, dictionary = plant.a1, plant.a2, plant.b, plant.dictionary
    x = np.asarray(x0, dtype=float).reshape(-1)
    states = np.empty((n_samples + 1, n))
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        # plant.step's expression; the checks below name the first bad step
        for t in range(n_samples):
            x = a1 @ x + a2 @ dictionary.values(x) + b @ inputs[t] + noise[t]
            states[t + 1] = x
    bad = ~np.isfinite(states[1:]).all(axis=1)
    if safe_set is not None:
        # twice the set lies inside twice its enclosure box, so the box's LPs
        # are solved only when a state (or a NaN) fails F x <= 2 g
        with np.errstate(over="ignore", invalid="ignore"):
            inside = states[1:] @ safe_set.normals.T <= 2.0 * safe_set.offsets
        if not inside.all():
            box = interval_enclosure(safe_set)
            bad |= np.any((states[1:] < 2.0 * box.lo) | (states[1:] > 2.0 * box.hi), axis=1)
    if bad.any():
        step = int(np.argmax(bad)) + 1
        x = states[step]
        if not np.all(np.isfinite(x)):
            raise TrajectoryDivergedError(f"state became non-finite at step {step}")
        raise TrajectoryDivergedError(f"state {x} left twice the enclosure box at step {step}")

    before = states[:-1]
    remainders = plant.dictionary.remainder(before)
    return ExperimentData(
        inputs=inputs.T.copy(),
        states=before.T.copy(),
        next_states=states[1:].T.copy(),
        remainders=remainders.T.copy(),
        dictionary=plant.dictionary,
        true_noise=noise.T.copy() if with_noise else None,
    )


def collect_informative(plant: PlantModel, n_samples: int, u_max: float, x0, seed: int,
                        with_noise: bool = False,
                        safe_set: PolyhedralSet | None = None) -> ExperimentData:
    """Collect, re-drawing with incremented seeds until the regressor has full row rank.

    Operationalizes the informativity assumption: up to ``_MAX_ATTEMPTS``
    experiments with seeds ``seed, seed + 1, ...`` are tried; the first whose
    regressor passes :func:`regressor_rank` wins.  Otherwise raises
    :class:`RankDeficientDataError`, or :class:`TrajectoryDivergedError` if
    every attempt diverged.
    """
    last_diag = None
    for attempt in range(_MAX_ATTEMPTS):
        try:
            data = collect(plant, n_samples, u_max, x0, seed + attempt,
                           with_noise=with_noise, safe_set=safe_set)
        except TrajectoryDivergedError:
            continue
        diag = regressor_rank(data)
        if diag.full_row_rank:
            return data
        last_diag = diag
    message = (f"no informative experiment in {_MAX_ATTEMPTS} attempts "
               f"(last rank diagnostic: {last_diag})")
    if last_diag is None:
        raise TrajectoryDivergedError(message)
    raise RankDeficientDataError(message, last_diag)


@dataclass(frozen=True)
class RankDiagnostic:
    rank: int
    required: int
    full_row_rank: bool
    threshold: float
    singular_values: np.ndarray

    def __str__(self):
        return (f"rank {self.rank}/{self.required} (threshold {self.threshold:.3e}, "
                f"sigma_min {self.singular_values[-1]:.3e})")


def _factor(mat: np.ndarray) -> tuple[RankDiagnostic, np.ndarray]:
    """The numerical row rank of ``mat``, which is required to be full, and its
    pseudo-inverse as ``np.linalg.pinv`` forms it, to the bit, from one SVD."""
    u, sv, vt = np.linalg.svd(mat, full_matrices=False)
    smax = float(sv[0]) if sv.size else 0.0
    threshold = RANK_RTOL * smax
    rank = int(np.sum(sv > threshold)) if smax > 0.0 else 0
    inverse = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > 1e-15 * smax)
    return (RankDiagnostic(rank=rank, required=len(mat), full_row_rank=rank == len(mat),
                           threshold=threshold, singular_values=sv),
            vt.T @ (inverse[:, None] * u.T))


def regressor_rank(data: ExperimentData) -> RankDiagnostic:
    """Numerical row rank of the state/remainder regressor (n + N rows)."""
    return data._regressor_factors[0]


def identification_rank(data: ExperimentData) -> RankDiagnostic:
    """Row rank of the regressor stacked over the inputs (n + N + m rows).

    Full rank here means the dynamics could be identified exactly from the
    noiseless data; only the remainder-minimization baseline needs it.
    """
    return data._stacked_factors[0]
