import itertools
import tracemalloc

import numpy as np
import pytest

from polysafe import synthesis, verify
from polysafe.dynamics import Dictionary, Monomial, PlantModel
from polysafe.polytope import (PolyhedralSet, enumerate_vertices, grid_resolution,
                               interval_enclosure, sample_grid)

from conftest import SECV_F, SECV_G


def zero_controller(n_samples=40, n=2, n_terms=2, m=1):
    return synthesis.Controller(
        k1=np.zeros((m, n)), k2=np.zeros((m, n_terms)),
        g1=np.zeros((n_samples, n)), g2=np.zeros((n_samples, n_terms)))


def unchunked_monte_carlo(plant, controller, safe_set, n_trajectories, horizon, seed,
                          tol=verify.TOL_VERIFY, max_witnesses=10):
    """Every trajectory in one batch: the loop the chunked rollout must match."""
    n = plant.state_dim
    vertices = np.array(enumerate_vertices(safe_set))
    init_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
    init_rng = np.random.default_rng(init_seq)
    box = interval_enclosure(safe_set)
    starts = np.empty((n_trajectories, n))
    count = min(len(vertices), n_trajectories)
    starts[:count] = vertices[:count]
    filled = count
    while filled < n_trajectories:
        cand = init_rng.uniform(box.lo, box.hi, size=(4 * (n_trajectories - filled), n))
        good = cand[safe_set.membership_mask(cand)]
        take = min(len(good), n_trajectories - filled)
        starts[filled:filled + take] = good[:take]
        filled += take
    noise = np.random.default_rng(noise_seq).uniform(
        -plant.w_bound, plant.w_bound, size=(n_trajectories, horizon, n))
    lin_base = plant.linear_base() + plant.b @ controller.k1
    rem_base = plant.a2 + plant.b @ controller.k2
    a_slope = plant.dictionary.linearization()
    states = starts.copy()
    alive = np.ones(n_trajectories, dtype=bool)
    first_exit = np.full(n_trajectories, -1, dtype=int)
    worst = np.full(safe_set.n_rows, -np.inf)
    witnesses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            vals = plant.dictionary.values(states)
            rems = vals - states @ a_slope.T
            states = states @ lin_base.T + rems @ rem_base.T + noise[:, t, :]
            rowvals = states @ safe_set.normals.T - safe_set.offsets
            if alive.any():
                worst = np.maximum(worst, rowvals[alive].max(axis=0))
            exited = alive & (rowvals.max(axis=1) > tol)
            for i in np.flatnonzero(exited)[:max(0, max_witnesses - len(witnesses))]:
                witnesses.append((int(i), t + 1, states[i].copy()))
            first_exit[exited] = t + 1
            alive &= ~exited
            states[~alive] = 0.0
    return worst, int(np.sum(first_exit >= 0)), witnesses


class TestDisturbanceOffsets:
    def test_one_norm_offsets(self, secv_set):
        np.testing.assert_allclose(
            verify.disturbance_offsets(secv_set, 0.05),
            [0.03, 0.03, 0.0175, 0.0175])

    def test_one_norm_matches_corner_enumeration(self, secv_set):
        # worst F_1 w over the corners of the disturbance box is 0.03
        corners = np.array(list(itertools.product([-0.05, 0.05], repeat=2)))
        worst = np.max(corners @ SECV_F[0])
        assert abs(worst - verify.disturbance_offsets(secv_set, 0.05)[0]) <= 1e-15


class TestGridContractivity:
    def test_zero_dynamics_pass_any_level(self, secv_set):
        dictionary = Dictionary([Monomial((2, 0)), Monomial((0, 2))], 2)
        plant = PlantModel(a1=np.zeros((2, 2)), a2=np.zeros((2, 2)),
                           b=np.zeros((2, 1)), dictionary=dictionary, w_bound=0.0)
        report = verify.grid_contractivity(
            zero_controller(), secv_set, 0.05, 0.0, (41, 41), dictionary,
            source="true-model", plant=plant)
        assert report.passed
        assert np.all(report.row_margins <= -0.04)

    def test_secv_design_passes(self, secv_plant, secv_data, secv_set, secv_design):
        controller, _ = secv_design
        report = verify.grid_contractivity(
            controller, secv_set, 0.95, 0.05, (201, 201), secv_plant.dictionary,
            source="true-model", plant=secv_plant)
        assert report.passed
        assert report.violations == 0

    def test_sources_agree_on_noiseless_data(self, secv_plant, secv_data, secv_set,
                                             secv_design):
        controller, _ = secv_design
        rep_true = verify.grid_contractivity(
            controller, secv_set, 0.95, 0.05, (101, 101), secv_plant.dictionary,
            source="true-model", plant=secv_plant)
        rep_data = verify.grid_contractivity(
            controller, secv_set, 0.95, 0.05, (101, 101), secv_plant.dictionary,
            source="data-rep", data=secv_data)
        assert np.max(np.abs(rep_true.row_margins - rep_data.row_margins)) <= 1e-8

    def test_unsafe_controller_fails_with_witnesses(self, secv_plant, secv_set):
        report = verify.grid_contractivity(
            zero_controller(), secv_set, 0.95, 0.05, (41, 41), secv_plant.dictionary,
            source="true-model", plant=secv_plant)
        assert not report.passed
        assert report.violations > 0
        assert report.witnesses
        # every witness really violates: re-evaluate the closed loop there
        for _, point, margin in report.witnesses:
            assert margin > verify.TOL_VERIFY

    def test_requires_matching_source_argument(self, secv_set, secv_plant):
        with pytest.raises(ValueError):
            verify.grid_contractivity(
                zero_controller(), secv_set, 0.95, 0.05, (11, 11),
                secv_plant.dictionary, source="true-model", plant=None)
        with pytest.raises(ValueError):
            verify.grid_contractivity(
                zero_controller(), secv_set, 0.95, 0.05, (11, 11),
                secv_plant.dictionary, source="bogus", plant=secv_plant)

    def test_refinement_soundness_chain(self, secv_plant, secv_set, secv_design):
        # strict grid margins beyond the refinement bound certify the whole
        # set, which in turn implies zero Monte Carlo exits
        controller, _ = secv_design
        report = verify.grid_contractivity(
            controller, secv_set, 0.95, 0.05, (201, 201), secv_plant.dictionary,
            source="true-model", plant=secv_plant)
        assert report.refinement_bound is not None
        assert np.max(report.row_margins) <= -report.refinement_bound
        mc = verify.monte_carlo_invariance(
            secv_plant, controller, secv_set, 500, 100, seed=19)
        assert mc.violations == 0

    def test_chunks_match_direct_evaluation(self, secv_plant, secv_set, monkeypatch):
        # the zero controller violates across the set, so margins and
        # witnesses come from many chunks; one evaluation over all points
        # is the reference
        monkeypatch.setattr(verify, "_GRID_CHUNK", 500)
        report = verify.grid_contractivity(
            zero_controller(), secv_set, 0.95, 0.05, (61, 61), secv_plant.dictionary,
            source="true-model", plant=secv_plant, max_witnesses=10**6)
        points = np.vstack([sample_grid(secv_set, (61, 61)),
                            np.array(enumerate_vertices(secv_set))])
        nxt = (points @ secv_plant.linear_base().T
               + secv_plant.dictionary.remainder(points) @ secv_plant.a2.T)
        margins = (nxt @ SECV_F.T + verify.disturbance_offsets(secv_set, 0.05)
                   - 0.95 * SECV_G)
        bad = np.flatnonzero(margins.max(axis=1) > verify.TOL_VERIFY)
        assert report.samples == len(points) > 3 * 500
        assert bad[-1] >= 500 and report.violations == bad.size
        np.testing.assert_allclose(report.row_margins, margins.max(axis=0), rtol=0, atol=1e-12)
        assert [w[0] for w in report.witnesses] == bad.tolist()
        for index, point, margin in report.witnesses:
            np.testing.assert_array_equal(point, points[index])
            assert abs(margin - margins[index].max()) <= 1e-12

    def test_shared_points_match_own_grid(self, secv_plant, secv_data, secv_set,
                                          secv_design):
        controller, _ = secv_design
        points = verify.grid_points(secv_set, (41, 41))
        for source in ("true-model", "data-rep"):
            kwargs = dict(source=source, plant=secv_plant, data=secv_data)
            own = verify.grid_contractivity(controller, secv_set, 0.95, 0.05, (41, 41),
                                            secv_plant.dictionary, **kwargs)
            shared = verify.grid_contractivity(controller, secv_set, 0.95, 0.05, (41, 41),
                                               secv_plant.dictionary, points=points, **kwargs)
            np.testing.assert_array_equal(shared.row_margins, own.row_margins)
            assert shared.samples == own.samples == len(points)
            assert shared.refinement_bound == own.refinement_bound

    def test_default_resolution_gives_finite_bound(self, secv_plant, secv_set, secv_design):
        # resolution=None samples the default grid; the cell diagonal and the
        # refinement bound must come from that same grid, not from NaN
        controller, _ = secv_design
        args = (controller, secv_set, 0.95, 0.05)
        default = verify.grid_contractivity(*args, None, secv_plant.dictionary,
                                            plant=secv_plant)
        explicit = verify.grid_contractivity(*args, grid_resolution(secv_set.dim),
                                             secv_plant.dictionary, plant=secv_plant)
        assert np.isfinite(default.cell_diagonal) and np.isfinite(default.refinement_bound)
        assert default.samples == explicit.samples
        assert default.cell_diagonal == explicit.cell_diagonal
        assert default.refinement_bound == explicit.refinement_bound
        np.testing.assert_array_equal(default.row_margins, explicit.row_margins)


class TestMonteCarlo:
    def test_no_disturbance_contractive_never_exits(self, secv_plant, secv_data,
                                                    secv_set, secv_design):
        controller, _ = secv_design
        quiet = PlantModel(a1=secv_plant.a1, a2=secv_plant.a2, b=secv_plant.b,
                           dictionary=secv_plant.dictionary, w_bound=0.0)
        report = verify.monte_carlo_invariance(quiet, controller, secv_set, 200, 50, seed=1)
        assert report.passed and report.violations == 0

    def test_secv_design_with_disturbance(self, secv_plant, secv_set, secv_design):
        controller, _ = secv_design
        report = verify.monte_carlo_invariance(
            secv_plant, controller, secv_set, 2000, 100, seed=11)
        assert report.passed
        assert report.mc_stats["exits"] == 0

    def test_unsafe_controller_reports_witnesses(self, secv_plant, secv_set):
        # open loop is unstable: starting on a vertex must eventually exit
        report = verify.monte_carlo_invariance(
            secv_plant, zero_controller(), secv_set, 50, 80, seed=3)
        assert not report.passed
        assert report.violations > 0
        assert report.witnesses
        traj_index, exit_time, state = report.witnesses[0]
        assert exit_time >= 1
        assert not secv_set.contains(np.clip(state, -1e12, 1e12), scale=1.0) \
            or np.max(np.abs(state)) > 6.0

    def test_deterministic_for_seed(self, secv_plant, secv_set, secv_design):
        controller, _ = secv_design
        a = verify.monte_carlo_invariance(secv_plant, controller, secv_set, 300, 40, seed=5)
        b = verify.monte_carlo_invariance(secv_plant, controller, secv_set, 300, 40, seed=5)
        np.testing.assert_array_equal(a.row_margins, b.row_margins)

    @pytest.mark.parametrize("case", ["design", "all-exit", "partial-exit"])
    @pytest.mark.parametrize("chunk", [2, 37, verify._MC_CHUNK])
    def test_chunks_match_unchunked_loop(self, secv_plant, secv_set, secv_design,
                                         monkeypatch, case, chunk):
        # 300 = 8 * 37 + 4 and 75 = 2 * 37 + 1 trajectories: the odd chunk
        # size leaves a short last chunk, and a one-trajectory tail whose
        # exit state is a witness (rolled alone, that trajectory's state
        # rounds differently at seed 0); witnesses come from several chunks
        # and several exit times
        design, _ = secv_design
        controller, count, horizon, seed, max_witnesses = {
            "design": (design, 300, 60, 5, 10),
            "all-exit": (zero_controller(), 75, 80, 0, 75),
            "partial-exit": (synthesis.Controller(k1=0.5 * design.k1, k2=design.k2,
                                                  g1=design.g1, g2=design.g2), 300, 60, 5, 30),
        }[case]
        monkeypatch.setattr(verify, "_MC_CHUNK", chunk)
        report = verify.monte_carlo_invariance(
            secv_plant, controller, secv_set, count, horizon, seed=seed,
            max_witnesses=max_witnesses)
        worst, violations, witnesses = unchunked_monte_carlo(
            secv_plant, controller, secv_set, count, horizon, seed=seed,
            max_witnesses=max_witnesses)
        np.testing.assert_array_equal(report.row_margins, worst)
        assert report.violations == violations
        assert [w[:2] for w in report.witnesses] == [w[:2] for w in witnesses]
        for (_, _, state), (_, _, ref_state) in zip(report.witnesses, witnesses):
            np.testing.assert_array_equal(state, ref_state)
        if case == "all-exit":
            assert violations == count
        elif case == "partial-exit":
            # exits in several chunks, and a later chunk's exit time comes
            # before an earlier chunk's in the witness order
            assert 0 < violations < count
            assert len({w[0] // 37 for w in witnesses}) > 3
            assert len({w[1] for w in witnesses}) > 1

    def test_prefix_stable(self, secv_plant, secv_set, secv_design):
        # trajectory i draws its start and its noise at fixed stream
        # positions, so running more trajectories leaves the first ones as
        # they were
        design, _ = secv_design
        controller = synthesis.Controller(k1=0.5 * design.k1, k2=design.k2,
                                          g1=design.g1, g2=design.g2)
        short, long = (verify.monte_carlo_invariance(
            secv_plant, controller, secv_set, count, 60, seed=5, max_witnesses=10**6)
            for count in (300, 600))
        assert 0 < short.violations < 300
        head = [w for w in long.witnesses if w[0] < 300]
        assert [w[:2] for w in head] == [w[:2] for w in short.witnesses]
        for (_, _, state), (_, _, ref_state) in zip(head, short.witnesses):
            np.testing.assert_array_equal(state, ref_state)

    def test_memory_flat_in_trajectory_count(self, secv_plant, secv_set, secv_design):
        # trajectories run in fixed-size chunks, so eight times the
        # trajectories needs no more memory; a (chunk, horizon, n) noise
        # buffer of 1.6 MB dominates the peak
        controller, _ = secv_design
        verify.monte_carlo_invariance(secv_plant, controller, secv_set, 10, 50, seed=2)
        peaks = []
        for count in (2500, 20000):
            tracemalloc.start()
            try:
                verify.monte_carlo_invariance(secv_plant, controller, secv_set, count, 50, seed=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


class TestDualGap:
    def test_scaled_identity(self, secv_set):
        gap, gaps = verify.dual_gap_check(0.5 * np.eye(2), secv_set)
        assert gap <= 1e-7
        # row 0 primal value is 0.5 (vertex oracle: max F_0 x = 1)
        vertices = np.array(enumerate_vertices(secv_set))
        assert abs(np.max(vertices @ (SECV_F[0] * 0.5)) - 0.5) <= 1e-12

    def test_zero_map(self, secv_set):
        gap, gaps = verify.dual_gap_check(np.zeros((2, 2)), secv_set)
        assert gap <= 1e-12

    def test_fifty_random_maps(self, secv_set):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(50):
            gap, _ = verify.dual_gap_check(rng.normal(size=(2, 2)), secv_set)
            worst = max(worst, gap)
        assert worst <= 1e-7


class TestConservatism:
    def test_table_renders_both_methods(self, secv_data, secv_set, secv_design,
                                        secv_dictionary):
        baseline = synthesis.synthesize_min_remainder(secv_data, secv_set)
        lumped = synthesis.lumped_disturbance_bounds(
            secv_data, secv_set, secv_design[0], 0.05)
        table = verify.conservatism_report(
            secv_set, secv_dictionary, primal_dual=secv_design, baseline=baseline,
            lumped_bounds=lumped, min_levels={"thm2": 0.7588, "cor2": None, "thm1": 0.7588})
        text = table.render()
        assert "thm2" in text and "thm1" in text
        assert "infeasible" in text  # the cor2 row
        assert "lumped" in text

    def test_missing_baseline_marked(self, secv_set, secv_design, secv_dictionary):
        table = verify.conservatism_report(
            secv_set, secv_dictionary, primal_dual=secv_design, baseline=None)
        assert table.rows["thm1"] is None
        assert "infeasible" in table.render()

    def test_deterministic(self, secv_set, secv_design, secv_dictionary):
        t1 = verify.conservatism_report(secv_set, secv_dictionary, primal_dual=secv_design)
        t2 = verify.conservatism_report(secv_set, secv_dictionary, primal_dual=secv_design)
        assert t1.render() == t2.render()

    def test_control_effort_positive(self, secv_set, secv_design, secv_dictionary):
        effort = verify.control_effort(secv_design[0], secv_set, secv_dictionary)
        # the cancelling gain pays for the quadratic at the far vertex:
        # |k2 @ remainder| ~ 36 there
        assert effort > 30.0
