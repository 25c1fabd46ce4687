import ast
import itertools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polysafe import polytope, synthesis, verify
from polysafe.dynamics import CosM1Term, Dictionary, Monomial, PlantModel, SinTerm
from polysafe.polytope import (PolyhedralSet, enumerate_vertices, interval_enclosure,
                               sample_points)

from conftest import (SECV_F, SECV_G, data_loop, grid_members, tri_plant_and_set, tri_problem,
                      true_loop)


def zero_controller(n_samples=40, n=2, n_terms=2, m=1):
    return synthesis.Controller(
        k1=np.zeros((m, n)), k2=np.zeros((m, n_terms)),
        g1=np.zeros((n_samples, n)), g2=np.zeros((n_samples, n_terms)))


def addressed_noise(plant, count, horizon, seed):
    """``(horizon, count, n)`` disturbance words rebuilt from their stream
    addresses: coordinate k of trajectory i at step t is signed 32-bit word i
    of the PCG64 stream seeded by the second child of ``seed``, advanced
    ``(t * n + k) * _MC_STEP_STRIDE`` outputs; word i is the low half of
    output i // 2 for even i and its high half for odd i.  The disturbance
    is ``w * 2**-31`` times the word."""
    n = plant.state_dim
    stream = np.random.PCG64(np.random.SeedSequence(seed).spawn(2)[1])
    words = np.empty((horizon, count, n), dtype=np.int32)
    for t, k in itertools.product(range(horizon), range(n)):
        step = np.random.PCG64()
        step.state = stream.state
        step.advance(((t * n + k) * verify._MC_STEP_STRIDE) % 2**128)
        raw = step.random_raw((count + 1) // 2)
        halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).astype(np.uint32)
        words[t, :, k] = halves.view(np.int32).reshape(-1)[:count]
    return words


def unchunked_monte_carlo(plant, controller, safe_set, n_trajectories, horizon, seed,
                          tol=verify.TOL_VERIFY, max_witnesses=10):
    """Every trajectory in one batch: the loop the chunked rollout must match."""
    n = plant.state_dim
    vertices = polytope.sample_vertices(safe_set).T
    init_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
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
    words = addressed_noise(plant, n_trajectories, horizon, seed)
    # [L R w*2**-31*I] acting on the coordinate-major lift [x; r(x); d] of
    # all states and words at once
    loop = np.hstack([plant.linear_base() + plant.b @ controller.k1,
                      plant.a2 + plant.b @ controller.k2,
                      np.ldexp(plant.w_bound, -31) * np.eye(n)])
    states = starts.T.copy()
    alive = np.ones(n_trajectories, dtype=bool)
    first_exit = np.full(n_trajectories, -1, dtype=int)
    worst = np.full(safe_set.n_rows, -np.inf)
    witnesses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            lifted = np.vstack([states, plant.dictionary.remainder(states.T).T, words[t].T])
            states = loop @ lifted
            rowvals = safe_set.normals @ states - safe_set.offsets[:, None]
            if alive.any():
                worst = np.maximum(worst, rowvals[:, alive].max(axis=1))
            exited = alive & (rowvals.max(axis=0) > tol)
            for i in np.flatnonzero(exited)[:max(0, max_witnesses - len(witnesses))]:
                witnesses.append((int(i), t + 1, states[:, i].copy()))
            first_exit[exited] = t + 1
            alive &= ~exited
            states[:, ~alive] = 0.0
    return worst, int(np.sum(first_exit >= 0)), witnesses


def edge_loop(rng, n):
    """A random n-state closed loop ``x+ = L x + R r(x) + w`` near the edge of
    invariance: ``L`` maps the set into its ``kappa``-scaled copy in one step,
    ``kappa`` in [0.85, 1.05], ``R`` is small, ``w_bound`` is in [0, 0.05],
    and the dictionary holds a monomial of each degree 1-3, ``sin`` and
    ``cos - 1``."""
    if n == 2:
        rows = int(rng.integers(4, 7))
        angles = 2 * np.pi * (np.arange(rows) + rng.uniform(-0.3, 0.3, rows)) / rows
        normals = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        p = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        normals = np.vstack([p, -p])
    safe_set = PolyhedralSet(normals, rng.uniform(0.5, 1.5, len(normals)))
    terms = [Monomial(tuple(rng.multinomial(degree, [1 / n] * n))) for degree in (1, 2, 3)]
    dictionary = Dictionary(terms + [SinTerm(int(rng.integers(n))),
                                     CosM1Term(int(rng.integers(n)))], n)
    mat = np.eye(n) + 0.03 * rng.standard_normal((n, n))
    images = safe_set.normals @ mat @ polytope.sample_vertices(safe_set)
    lin = rng.uniform(0.85, 1.05) * mat / (images / safe_set.offsets[:, None]).max()
    # each term moves a state by at most 0.01 on the set: |r_j| peaks at a
    # corner of the enclosure for every kind drawn here
    box = interval_enclosure(safe_set)
    corners = np.array(list(itertools.product(*zip(box.lo, box.hi))))
    peaks = np.abs(dictionary.remainder(corners)).max(axis=0)
    rem = rng.uniform(-0.01, 0.01, size=(n, dictionary.n_terms)) / np.maximum(peaks, 1e-3)
    plant = PlantModel(a1=np.zeros((n, n)), a2=np.zeros((n, dictionary.n_terms)), b=np.eye(n),
                       dictionary=dictionary, w_bound=rng.uniform(0.0, 0.05))
    controller = synthesis.Controller(k1=lin, k2=rem, g1=np.zeros((1, n)),
                                      g2=np.zeros((1, dictionary.n_terms)))
    return plant, controller, safe_set


def counting_lifts(monkeypatch, dictionary) -> list:
    """Record the chunk width of every ``dictionary.lift`` call."""
    calls: list = []
    lift = dictionary.lift
    monkeypatch.setattr(dictionary, "lift", lambda out: calls.append(out.shape[1]) or lift(out))
    return calls


def assert_matches_unchunked(report, plant, controller, safe_set, count, horizon, seed):
    worst, violations, witnesses = unchunked_monte_carlo(
        plant, controller, safe_set, count, horizon, seed=seed, max_witnesses=verify._MAX_WITNESSES)
    np.testing.assert_array_equal(report.row_margins, worst)
    assert report.violations == violations
    assert [w[:2] for w in report.witnesses] == [w[:2] for w in witnesses]
    for (_, _, state), (_, _, ref_state) in zip(report.witnesses, witnesses):
        np.testing.assert_array_equal(state, ref_state)
    assert report.samples == count * horizon


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
        report = verify.grid_reports(
            true_loop(plant, zero_controller()), secv_set, 0.05, 0.0, (41, 41), dictionary)[0]
        assert report.passed
        assert np.all(report.row_margins <= -0.04)

    def test_secv_design_passes(self, secv_plant, secv_data, secv_set, secv_design):
        controller, _ = secv_design
        report = verify.grid_reports(
            true_loop(secv_plant, controller), secv_set, 0.95, 0.05, (201, 201),
            secv_plant.dictionary)[0]
        assert report.passed
        assert report.violations == 0

    def test_sources_agree_on_noiseless_data(self, secv_plant, secv_data, secv_set,
                                             secv_design):
        controller, _ = secv_design
        rep_true = verify.grid_reports(
            true_loop(secv_plant, controller), secv_set, 0.95, 0.05, (101, 101),
            secv_plant.dictionary)[0]
        rep_data = verify.grid_reports(
            data_loop(secv_data, controller), secv_set, 0.95, 0.05, (101, 101),
            secv_plant.dictionary)[0]
        assert np.max(np.abs(rep_true.row_margins - rep_data.row_margins)) <= 1e-8

    def test_unsafe_controller_fails_with_witnesses(self, secv_plant, secv_set):
        report = verify.grid_reports(
            true_loop(secv_plant, zero_controller()), secv_set, 0.95, 0.05, (41, 41),
            secv_plant.dictionary)[0]
        assert not report.passed
        assert report.violations > 0
        assert report.witnesses
        # every witness really violates: re-evaluate the closed loop there
        for _, point, margin in report.witnesses:
            assert margin > verify.TOL_VERIFY

    def test_refinement_soundness_chain(self, secv_plant, secv_set, secv_design):
        # strict grid margins beyond the refinement bound certify the whole
        # set, which in turn implies zero Monte Carlo exits
        controller, _ = secv_design
        report = verify.grid_reports(
            true_loop(secv_plant, controller), secv_set, 0.95, 0.05, (201, 201),
            secv_plant.dictionary)[0]
        assert report.refinement_bound is not None
        assert np.max(report.row_margins) <= -report.refinement_bound
        mc = verify.monte_carlo_invariance(
            secv_plant, controller, secv_set, 500, 100, seed=19)
        assert mc.violations == 0

    def test_chunks_match_direct_evaluation(self, secv_plant, secv_data, secv_set,
                                            secv_design, monkeypatch):
        # below its minimal level the design violates near the boundary, so
        # both sources' margins and witnesses come from many blocks and from
        # the vertex tail; one evaluation over all points is the reference
        monkeypatch.setattr(polytope, "_GRID_BLOCK", 150)
        monkeypatch.setattr(verify, "_MAX_WITNESSES", 10**6)
        controller, _ = secv_design
        loops = {**true_loop(secv_plant, controller), **data_loop(secv_data, controller)}
        reports = verify.grid_reports(loops, secv_set, 0.5, 0.05, (61, 61), secv_plant.dictionary)
        members = grid_members(secv_set, (61, 61))
        points = np.vstack([members, np.array(enumerate_vertices(secv_set))])
        for report, (lin, rem) in zip(reports, loops.values()):
            nxt = points @ lin.T + secv_plant.dictionary.remainder(points) @ rem.T
            margins = (nxt @ SECV_F.T + verify.disturbance_offsets(secv_set, 0.05)
                       - 0.5 * SECV_G)
            bad = np.flatnonzero(margins.max(axis=1) > verify.TOL_VERIFY)
            assert report.samples == len(points) > 10 * 150
            assert bad[0] < 150 and bad[-1] >= len(members) and report.violations == bad.size
            np.testing.assert_allclose(report.row_margins, margins.max(axis=0),
                                       rtol=0, atol=1e-12)
            assert [w[0] for w in report.witnesses] == bad.tolist()
            for index, point, margin in report.witnesses:
                np.testing.assert_array_equal(point, points[index])
                assert abs(margin - margins[index].max()) <= 1e-12

    def test_shared_points_match_own_grid(self, secv_plant, secv_data, secv_set,
                                          secv_design):
        # the one pass over both loops gives each loop's own report, bit for bit
        controller, _ = secv_design
        loops = {**true_loop(secv_plant, controller), **data_loop(secv_data, controller)}
        for level in (0.95, 0.5):
            shared = verify.grid_reports(loops, secv_set, level, 0.05, (41, 41),
                                         secv_plant.dictionary)
            for (name, loop), report in zip(loops.items(), shared):
                own = verify.grid_reports({name: loop}, secv_set, level, 0.05, (41, 41),
                                          secv_plant.dictionary)[0]
                assert report.method == own.method
                np.testing.assert_array_equal(report.row_margins, own.row_margins)
                assert report.violations == own.violations
                assert report.samples == own.samples
                assert report.cell_diagonal == own.cell_diagonal
                assert report.refinement_bound == own.refinement_bound
                assert len(report.witnesses) == len(own.witnesses)
                for (i, point, margin), (j, own_point, own_margin) in zip(report.witnesses,
                                                                          own.witnesses):
                    assert i == j and margin == own_margin
                    np.testing.assert_array_equal(point, own_point)

    @pytest.mark.parametrize("level", [0.95, 0.5])
    def test_block_size_moves_no_bit(self, secv_plant, secv_data, secv_set, secv_design,
                                     monkeypatch, level):
        # blocks of 7 and 150 members, one block short of a one-member tail
        # (which numpy would send to BLAS gemv) and one block for the whole
        # grid give the same bits; gemm must give a column the same bits at
        # any width, which holds at one BLAS thread.  On this grid gemv would
        # move the last member's margin, a witness at level 0.5
        controller, _ = secv_design
        monkeypatch.setattr(verify, "_MAX_WITNESSES", 10**6)
        members = len(grid_members(secv_set, (55, 55)))
        loops = {**true_loop(secv_plant, controller), **data_loop(secv_data, controller)}
        reports = []
        for size in (7, 150, members - 1, 10**9):
            monkeypatch.setattr(polytope, "_GRID_BLOCK", size)
            reports.append(verify.grid_reports(
                loops, secv_set, level, 0.05, (55, 55), secv_plant.dictionary))
        assert (reports[-1][0].violations > 0) == (level == 0.5)
        for blocked in reports[:-1]:
            for report, whole in zip(blocked, reports[-1]):
                np.testing.assert_array_equal(report.row_margins, whole.row_margins)
                assert report.violations == whole.violations
                assert report.samples == whole.samples
                assert len(report.witnesses) == len(whole.witnesses)
                for (i, point, margin), (j, whole_point, whole_margin) in zip(
                        report.witnesses, whole.witnesses):
                    assert i == j and margin == whole_margin
                    np.testing.assert_array_equal(point, whole_point)

    def test_row_maximum_at_tol_takes_the_fast_path(self, monkeypatch):
        # x+ = 0 and a disturbance offset of exactly tol: every row maximum
        # equals tol, so no block is scanned member by member and nothing
        # violates; one ulp more disturbance makes every member a violation
        scans = []
        exceeding = verify._exceeding
        monkeypatch.setattr(verify, "_exceeding",
                            lambda *args: scans.append(args) or exceeding(*args))
        monkeypatch.setattr(polytope, "_GRID_BLOCK", 7)
        safe_set = PolyhedralSet(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        dictionary = Dictionary([Monomial((2, 0))], 2)
        plant = PlantModel(a1=np.zeros((2, 2)), a2=np.zeros((2, 1)), b=np.zeros((2, 1)),
                           dictionary=dictionary, w_bound=0.0)
        tol = verify.TOL_VERIFY
        args = (true_loop(plant, zero_controller(n_terms=1)), safe_set, 0.0)
        at_tol = verify.grid_reports(*args, tol, (9, 9), dictionary)[0]
        assert not scans
        assert at_tol.violations == 0 and at_tol.passed
        np.testing.assert_array_equal(at_tol.row_margins, tol)
        above = verify.grid_reports(*args, np.nextafter(tol, 1.0), (9, 9), dictionary)[0]
        assert len(scans) == 13  # 12 grid blocks and the vertices
        assert above.violations == above.samples == 9 * 9 + 4

    def test_nan_members_take_the_full_scan(self, monkeypatch):
        # x0**3 overflows on the outer first-axis slabs, where inf - inf puts
        # NaN in every row; blocks mixing NaN members with the two real
        # violators must still count them, and clean blocks skip the scan.
        # The report is the one a scan of every member gives.
        scans = []
        exceeding = verify._exceeding
        monkeypatch.setattr(verify, "_exceeding",
                            lambda *args: scans.append(args) or exceeding(*args))
        monkeypatch.setattr(polytope, "_GRID_BLOCK", 7)
        monkeypatch.setattr(verify, "_MAX_WITNESSES", 10**6)
        safe_set = PolyhedralSet(np.vstack([np.eye(2), -np.eye(2)]), [1e103, 1.0, 1e103, 1.0])
        dictionary = Dictionary([Monomial((3, 0)), Monomial((3, 0))], 2)
        plant = PlantModel(a1=[[0.5, 0.0], [2e-104, 0.9]], a2=[[1.0, -1.0], [0.0, 0.0]],
                           b=np.zeros((2, 1)), dictionary=dictionary, w_bound=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            report = verify.grid_reports(true_loop(plant, zero_controller()), safe_set, 0.95,
                                         0.0, (9, 9), dictionary)[0]
            vertices = polytope.sample_vertices(safe_set).T
            points = np.vstack([grid_members(safe_set, (9, 9)), vertices])
            nxt = points @ plant.a1.T + dictionary.remainder(points) @ plant.a2.T
            margins = nxt @ safe_set.normals.T - 0.95 * safe_set.offsets
            worst = margins.max(axis=1)
        bad = np.flatnonzero(worst > verify.TOL_VERIFY)
        assert np.isnan(worst).sum() == 4 * 9 + len(vertices) and bad.tolist() == [18, 62]
        assert report.violations == 2 and not report.passed
        assert [w[0] for w in report.witnesses] == bad.tolist()
        for index, point, margin in report.witnesses:
            np.testing.assert_array_equal(point, points[index])
            assert abs(margin - worst[index]) <= 1e-12
        np.testing.assert_array_equal(report.row_margins, margins.max(axis=0))  # all NaN
        assert 0 < len(scans) < 13

    def test_one_and_four_dimensional_sets(self):
        # a 1-D set has no other axes; a 4-D box has no vertex tail
        for dim, res in ((1, (9,)), (4, (5, 5, 5, 5))):
            safe_set = PolyhedralSet(np.vstack([np.eye(dim), -np.eye(dim)]), np.ones(2 * dim))
            dictionary = Dictionary([Monomial((2,) + (0,) * (dim - 1))], dim)
            plant = PlantModel(a1=0.5 * np.eye(dim), a2=np.zeros((dim, 1)),
                               b=np.zeros((dim, 1)), dictionary=dictionary, w_bound=0.0)
            controller = zero_controller(n=dim, n_terms=1)
            report = verify.grid_reports(true_loop(plant, controller), safe_set, 0.6, 0.0, res,
                                         dictionary)[0]
            vertices = 2 if dim == 1 else 0
            assert report.samples == int(np.prod(res)) + vertices
            # x+ = x / 2 peaks at 0.5 on the box, against 0.6 allowed
            np.testing.assert_allclose(report.row_margins, -0.1, rtol=0, atol=1e-15)
            assert report.passed

    def test_memory_flat_in_first_axis_resolution(self):
        # the grid is walked in blocks: a 4x finer first axis adds blocks,
        # not memory
        plant, safe_set = tri_plant_and_set()
        controller = zero_controller(n=3, n_terms=3)
        peaks = []
        for res in ((41, 101, 101), (161, 101, 101)):
            tracemalloc.start()
            try:
                verify.grid_reports(true_loop(plant, controller), safe_set, 0.95, 0.02, res,
                                    plant.dictionary)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


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
        assert not secv_set.membership_mask(np.clip(state, -1e12, 1e12)) \
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
        monkeypatch.setattr(verify, "_MAX_WITNESSES", max_witnesses)
        report = verify.monte_carlo_invariance(
            secv_plant, controller, secv_set, count, horizon, seed=seed)
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

    @pytest.mark.parametrize("chunk", [37, verify._MC_CHUNK])
    def test_three_states_match_unchunked_loop(self, monkeypatch, chunk):
        # x+ = 0.97 x + 0.01 * (x0^2 + x0 x2 + cos x1 - 1) + w on every row of
        # the 3-state set: a cross monomial and a cos - 1 term in the lift.
        # The vertex runs exit at step 1; with 37 runs a chunk, another chunk
        # first crosses at step 4 and others never do, so the steps before any
        # crossing and the exit scan both run.  Both counts leave a
        # one-trajectory tail.
        tri, safe_set = tri_plant_and_set()
        dictionary = Dictionary([Monomial((2, 0, 0)), Monomial((1, 0, 1)), CosM1Term(1)], 3)
        plant = PlantModel(a1=tri.a1, a2=[[0.0, 0.1, 0.0], [0.0, 0.0, 0.2], [1.0, -0.5, 0.3]],
                           b=np.eye(3), dictionary=dictionary, w_bound=0.02)
        controller = synthesis.Controller(
            k1=0.97 * np.eye(3) - plant.linear_base(), k2=0.01 - plant.a2,
            g1=np.zeros((1, 3)), g2=np.zeros((1, 3)))
        count = 4 * chunk + 1 if chunk == 37 else 2 * chunk + 1
        monkeypatch.setattr(verify, "_MC_CHUNK", chunk)
        monkeypatch.setattr(verify, "_MAX_WITNESSES", 10**6)
        report = verify.monte_carlo_invariance(plant, controller, safe_set, count, 60, seed=3)
        worst, violations, witnesses = unchunked_monte_carlo(
            plant, controller, safe_set, count, 60, seed=3, max_witnesses=10**6)
        np.testing.assert_array_equal(report.row_margins, worst)
        assert report.violations == violations
        assert [w[:2] for w in report.witnesses] == [w[:2] for w in witnesses]
        for (_, _, state), (_, _, ref_state) in zip(report.witnesses, witnesses):
            np.testing.assert_array_equal(state, ref_state)
        assert 0 < violations < count
        first_exit: dict = {}
        for index, exit_time, _ in witnesses:
            first_exit.setdefault(min(index // chunk, count // chunk - 1), exit_time)
        assert first_exit[0] == 1
        if chunk == 37:
            assert len(first_exit) < 4 and max(first_exit.values()) > 1

    def test_stop_matches_unchunked_loop_near_the_edge(self, monkeypatch):
        # 40 random loops whose one-step contraction straddles 1: a chunk
        # that stops early must report the margins, exits and witnesses of
        # the full rollout, at either chunk size
        monkeypatch.setattr(verify, "_MAX_WITNESSES", 10**6)
        rng = np.random.default_rng(2024)
        count, horizon = 2 * 37 + 1, 64
        stopped = late = 0
        for case in range(40):
            plant, controller, safe_set = edge_loop(rng, 2 + case % 2)
            lifts = counting_lifts(monkeypatch, plant.dictionary)
            for chunk in (37, verify._MC_CHUNK):
                monkeypatch.setattr(verify, "_MC_CHUNK", chunk)
                lifts.clear()
                report = verify.monte_carlo_invariance(plant, controller, safe_set, count,
                                                       horizon, seed=case)
                assert_matches_unchunked(report, plant, controller, safe_set, count,
                                         horizon, case)
                stopped += len(lifts) < len(set(lifts)) * horizon
                late += any(exit_time > 8 for _, exit_time, _ in report.witnesses)
        assert stopped >= 10 and late >= 5, (stopped, late)

    def test_stop_fires_on_the_secv_design(self, secv_plant, secv_set, secv_design,
                                           monkeypatch):
        # secV's design maps rho S into itself for every rho in [0.124, 1],
        # with room to spare: each chunk stops at its first or second step
        controller, _ = secv_design
        monkeypatch.setattr(verify, "_MC_CHUNK", 1000)
        lifts = counting_lifts(monkeypatch, secv_plant.dictionary)
        report = verify.monte_carlo_invariance(secv_plant, controller, secv_set, 3000, 200,
                                               seed=7)
        assert len(lifts) <= 2 * 3 and set(lifts) == {1000}
        assert report.passed and report.mc_stats["horizon"] == 200
        assert_matches_unchunked(report, secv_plant, controller, secv_set, 3000, 200, 7)

    def test_stop_waits_until_no_margin_can_rise(self, monkeypatch):
        # x1 contracts by 0.97 and drives x2 = 0.1 x1 + w: rho S is invariant
        # from step 1, but the x2 rows' worst margins come from two runs'
        # noise there, and fresh noise raises them before step 8
        dictionary = Dictionary([Monomial((1, 1))], 2)
        plant = PlantModel(a1=np.zeros((2, 2)), a2=np.zeros((2, 1)), b=np.eye(2),
                           dictionary=dictionary, w_bound=0.02)
        controller = synthesis.Controller(
            k1=np.array([[0.97, 0.0], [0.1, 0.0]]), k2=np.array([[0.0], [0.01]]),
            g1=np.zeros((1, 2)), g2=np.zeros((1, 1)))
        safe_set = PolyhedralSet(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        lifts = counting_lifts(monkeypatch, dictionary)
        report = verify.monte_carlo_invariance(plant, controller, safe_set, 4, 64, seed=0)
        assert lifts == [4] * 8
        assert_matches_unchunked(report, plant, controller, safe_set, 4, 64, 0)
        first, _, _ = unchunked_monte_carlo(plant, controller, safe_set, 4, 1, seed=0)
        assert report.row_margins[1] > first[1]

    @pytest.mark.parametrize("case", ["late-exit", "tri-verify", "four-states"])
    def test_stop_never_fires_where_it_cannot_hold(self, monkeypatch, case):
        # late-exit: x1 contracts and x2 grows by 1.01 - 0.05 x1**2, so the
        # vertex runs stay in the box until step 27; tri-verify: two rows
        # of the 3-state design get their margin from the disturbance alone;
        # four-states: the set has no vertices to bound the image with
        if case == "late-exit":
            dictionary = Dictionary([Monomial((2, 1))], 2)
            plant = PlantModel(a1=np.zeros((2, 2)), a2=np.zeros((2, 1)), b=np.eye(2),
                               dictionary=dictionary, w_bound=0.001)
            controller = synthesis.Controller(
                k1=np.diag([0.9, 1.01]), k2=np.array([[0.0], [-0.05]]),
                g1=np.zeros((1, 2)), g2=np.zeros((1, 1)))
            safe_set = PolyhedralSet(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
            count, horizon, seed = 4, 64, 1
        elif case == "tri-verify":
            plant, _ = tri_plant_and_set()
            safe_set, data = tri_problem(60)
            controller, _ = synthesis.synthesize_noiseless(data, safe_set)
            count, horizon, seed = 2000, 100, 11
        else:
            dictionary = Dictionary([Monomial((2, 0, 0, 0)), Monomial((0, 0, 1, 1))], 4)
            plant = PlantModel(a1=np.zeros((4, 4)), a2=np.zeros((4, 2)), b=np.eye(4),
                               dictionary=dictionary, w_bound=0.02)
            controller = zero_controller(n=4, m=4)
            controller = synthesis.Controller(k1=0.5 * np.eye(4), k2=controller.k2,
                                              g1=controller.g1, g2=controller.g2)
            safe_set = PolyhedralSet(np.vstack([np.eye(4), -np.eye(4)]), np.ones(8))
            count, horizon, seed = 200, 50, 3
        monkeypatch.setattr(verify, "_MAX_WITNESSES", 10**6)
        lifts = counting_lifts(monkeypatch, plant.dictionary)
        report = verify.monte_carlo_invariance(plant, controller, safe_set, count, horizon,
                                               seed=seed)
        # every step runs until the last run exits
        assert lifts == [count] * (27 if case == "late-exit" else horizon)
        assert_matches_unchunked(report, plant, controller, safe_set, count, horizon, seed)
        if case == "late-exit":
            assert report.violations == 4 and {w[1] for w in report.witnesses} == {27}
        else:
            assert report.passed

    @pytest.mark.parametrize("case", ["zero", "half-k1"])
    def test_vertex_runs_match_plant_simulation(self, secv_plant, secv_set, secv_design,
                                                monkeypatch, case):
        # a run that starts on a vertex and exits is replayed one state at a
        # time by the plant itself, with the noise rebuilt from its addressed
        # stream positions; a transposed or misordered batch cannot pass this
        design, _ = secv_design
        controller = zero_controller() if case == "zero" else synthesis.Controller(
            k1=0.5 * design.k1, k2=design.k2, g1=design.g1, g2=design.g2)
        count, horizon, seed = 300, 60, 5
        monkeypatch.setattr(verify, "_MAX_WITNESSES", 10**6)
        report = verify.monte_carlo_invariance(secv_plant, controller, secv_set, count,
                                               horizon, seed=seed)
        vertices = enumerate_vertices(secv_set)
        noise = np.ldexp(secv_plant.w_bound, -31) * addressed_noise(secv_plant, count,
                                                                    horizon, seed)
        replayed = 0
        for index, exit_time, state in report.witnesses:
            if index < len(vertices):
                run = secv_plant.simulate(controller, vertices[index], exit_time,
                                          noise[:, index])
                np.testing.assert_allclose(state, run.states[exit_time], rtol=1e-12, atol=0)
                replayed += 1
        assert replayed == len(vertices)

    def test_prefix_stable(self, secv_plant, secv_set, secv_design, monkeypatch):
        # trajectory i draws its start and its noise at fixed stream
        # positions, so running more trajectories leaves the first ones as
        # they were
        design, _ = secv_design
        controller = synthesis.Controller(k1=0.5 * design.k1, k2=design.k2,
                                          g1=design.g1, g2=design.g2)
        monkeypatch.setattr(verify, "_MAX_WITNESSES", 10**6)
        short, long = (verify.monte_carlo_invariance(
            secv_plant, controller, secv_set, count, 60, seed=5)
            for count in (300, 600))
        assert 0 < short.violations < 300
        head = [w for w in long.witnesses if w[0] < 300]
        assert [w[:2] for w in head] == [w[:2] for w in short.witnesses]
        for (_, _, state), (_, _, ref_state) in zip(head, short.witnesses):
            np.testing.assert_array_equal(state, ref_state)

    def test_memory_flat_in_trajectory_count(self, secv_plant, secv_set, secv_design,
                                             monkeypatch):
        # trajectories run in fixed-size chunks, so eight times the
        # trajectories needs no more memory; a small chunk makes both counts
        # span several chunks
        controller, _ = secv_design
        monkeypatch.setattr(verify, "_MC_CHUNK", 1000)
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

    def test_memory_flat_in_horizon(self, secv_plant, secv_set, secv_design):
        # each step writes its own disturbance words into n rows of the lift
        # buffers, so eight times the horizon needs no more memory; a
        # (chunk, horizon, n) buffer of 32-bit words would take 0.8 MB at
        # horizon 50 and 6.4 MB at 400
        controller, _ = secv_design
        verify.monte_carlo_invariance(secv_plant, controller, secv_set, 10, 50, seed=2)
        peaks = []
        for horizon in (50, 400):
            tracemalloc.start()
            try:
                verify.monte_carlo_invariance(secv_plant, controller, secv_set, 2000, horizon,
                                              seed=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_noise_pinned_to_stream_position(self, secv_plant, monkeypatch):
        # with a zero closed loop, x(t) is exactly w * 2**-31 times the words
        # of step t - 1, and a run exits when a coordinate of it leaves
        # [-0.99, 0.99]; every exit state must be the word pair of run i at
        # the addresses (t - 1) * n + k, whichever chunk holds run i: chunks
        # of 37 start at odd runs 37 and 111, which skip a half-output
        n = secv_plant.state_dim
        n_terms = secv_plant.dictionary.n_terms
        plant = PlantModel(a1=np.zeros((n, n)), a2=np.zeros((n, n_terms)), b=np.eye(n),
                           dictionary=secv_plant.dictionary, w_bound=1.0)
        box = PolyhedralSet(np.vstack([np.eye(n), -np.eye(n)]), np.full(2 * n, 0.99))
        controller = zero_controller(n_terms=n_terms, m=n)
        monkeypatch.setattr(verify, "_MC_CHUNK", 37)
        monkeypatch.setattr(verify, "_MAX_WITNESSES", 10**6)
        count, seed = 4 * 37, 4
        report = verify.monte_carlo_invariance(plant, controller, box, count, 100, seed=seed)
        words = addressed_noise(plant, count, 100, seed)
        for index, exit_time, state in report.witnesses:
            np.testing.assert_array_equal(state, np.ldexp(words[exit_time - 1, index], -31))
        assert report.violations == len(report.witnesses)
        assert {index // 37 for index, _, _ in report.witnesses} == {0, 1, 2, 3}
        assert {index % 2 for index, _, _ in report.witnesses if index // 37 in (1, 3)} == {0, 1}
        assert len({exit_time for _, exit_time, _ in report.witnesses}) > 10

    def test_extreme_words_map_to_the_interval_ends(self, secv_plant, monkeypatch):
        # every output 0x7fffffff_80000000 gives even runs the low word -2**31
        # and odd runs the high word 2**31 - 1; through a zero closed loop the
        # first states are exactly -w and w - w * 2**-31 on every coordinate
        class ExtremeWords:
            def __init__(self, seed):
                pass

            def advance(self, delta):
                return self

            def random_raw(self, size):
                return np.full(size, 0x7FFFFFFF_80000000, dtype=np.uint64)

        n = secv_plant.state_dim
        n_terms = secv_plant.dictionary.n_terms
        w = secv_plant.w_bound
        plant = PlantModel(a1=np.zeros((n, n)), a2=np.zeros((n, n_terms)), b=np.eye(n),
                           dictionary=secv_plant.dictionary, w_bound=w)
        box = PolyhedralSet(np.vstack([np.eye(n), -np.eye(n)]), np.full(2 * n, 0.5 * w))
        monkeypatch.setattr(np.random, "PCG64", ExtremeWords)
        report = verify.monte_carlo_invariance(plant, zero_controller(n_terms=n_terms, m=n),
                                               box, 5, 1, seed=0)
        assert [index for index, _, _ in report.witnesses] == [0, 1, 2, 3, 4]
        for index, _, state in report.witnesses:
            expected = w - np.ldexp(w, -31) if index % 2 else -w
            assert state.tolist() == [expected] * n

    def test_step_streams_walk_the_full_state_cycle(self):
        # coordinate k of a run reads its words at (t * n + k) * _MC_STEP_STRIDE
        # stream positions; the low j bits of a PCG64 state repeat every 2**j
        # positions, so over the first 256 (step, coordinate) pairs the low
        # byte of the states read takes all 256 values only if the stride is
        # odd: a power-of-two stride would fix it, and coordinates 2**64
        # apart would share all of the low word
        stream = np.random.PCG64(np.random.SeedSequence(4).spawn(2)[1])
        start = 12345
        for n in (2, 3):
            low_bytes, low_words = set(), set()
            for t, k in itertools.product(range(-(-256 // n)), range(n)):
                step = np.random.PCG64()
                step.state = stream.state
                step.advance(((t * n + k) * verify._MC_STEP_STRIDE + start) % 2**128)
                state = step.state["state"]["state"]
                if t * n + k < 256:
                    low_bytes.add(state % 256)
                low_words.add(state % 2**64)
            assert len(low_bytes) == 256
            assert len(low_words) == -(-256 // n) * n

    @pytest.mark.parametrize("count, horizon, name",
                             [(0, 10, "n_trajectories"), (-1, 10, "n_trajectories"),
                              (10, 0, "horizon"), (10, -3, "horizon")])
    def test_rejects_empty_runs(self, secv_plant, secv_set, secv_design, count, horizon, name):
        # no trajectory or no step checks nothing, so it may not pass
        controller, _ = secv_design
        with pytest.raises(ValueError, match=f"{name} must be at least 1, got {min(count, horizon)}"):
            verify.monte_carlo_invariance(secv_plant, controller, secv_set, count, horizon, seed=0)


class TestConservatism:
    LUMPED = np.array([0.125, 0.125, 0.0625, 0.0625])  # a lumped bound per secV row

    def test_table_renders_both_methods(self, secv_data, secv_set, secv_design,
                                        secv_dictionary):
        # one row per design, in the map's order, each with its own numbers
        baseline = synthesis.synthesize_min_remainder(secv_data, secv_set)
        lumped = verify.lumped_disturbance_bounds(
            secv_data, secv_set, secv_design[0], 0.05)
        table = verify.conservatism_report(
            secv_set, secv_dictionary,
            {"thm2": secv_design, "cor2": "infeasible", "thm1": baseline},
            lumped_bounds=lumped)
        assert list(table.rows) == ["thm2", "cor2", "thm1"]
        assert table.rows["thm2"]["min_level"] == secv_design[1].contraction
        assert table.rows["thm1"]["min_level"] == baseline[1].contraction
        for name in ("thm2", "thm1"):
            assert all(np.isfinite(v) for v in table.rows[name].values())
        lines = table.render().splitlines()
        assert [line.split()[0] for line in lines[2:5]] == ["thm2", "cor2", "thm1"]
        assert "infeasible" in lines[3]  # the cor2 row
        assert "nan" not in table.render()
        assert lines[5].startswith("lumped")

    def test_missing_baseline_marked(self, secv_set, secv_design, secv_dictionary):
        # a method with no design is its status, in the row and in the table
        table = verify.conservatism_report(
            secv_set, secv_dictionary,
            {"thm2": secv_design, "cor2": "solver-failed", "thm1": "unsupported"}, self.LUMPED)
        assert table.rows["thm1"] == "unsupported"
        assert table.rows["cor2"] == "solver-failed"
        lines = table.render().splitlines()
        assert lines[3].split() == ["cor2", "solver-failed", "-", "-"]
        assert lines[4].split() == ["thm1", "unsupported", "-", "-"]

    def test_columns_fit_every_status(self, secv_set, secv_design, secv_dictionary):
        # the level column is as wide as the longest status, so each row's
        # right-aligned cells end where the header's columns end
        statuses = ["infeasible", "rank-deficient", "inconsistent-data", "unsupported",
                    "solver-failed"]
        designs = {"thm2": secv_design, **{f"m{i}": status for i, status in enumerate(statuses)}}
        lines = verify.conservatism_report(secv_set, secv_dictionary, designs,
                                          self.LUMPED).render().splitlines()

        def ends(line, cell):
            return [match.end() for match in re.finditer(cell, line)]

        columns = ends(lines[0], r"\S+(?: \S+)*")   # "min level" and "max effort" hold a space
        assert len(columns) == 4 and len(lines) == 2 + 1 + len(statuses) + 1
        assert lines[-1].startswith("lumped")
        for row in lines[2:-1]:
            assert ends(row, r"\S+")[1:] == columns[1:], row

    def test_deterministic(self, secv_set, secv_design, secv_dictionary):
        designs = {"thm2": secv_design, "cor2": "infeasible"}
        t1 = verify.conservatism_report(secv_set, secv_dictionary, designs, self.LUMPED)
        t2 = verify.conservatism_report(secv_set, secv_dictionary, designs, self.LUMPED)
        assert t1.render() == t2.render()

    @pytest.mark.parametrize("problem", ["secv", "tri"])
    @pytest.mark.parametrize("method", ["thm2", "thm1"])
    def test_lumped_bounds_match_materialized_grid(self, secv_data, secv_set, problem, method):
        # the lift of the set's sample gives the bits of one remainder
        # evaluation over its points, the default grid plus the vertices
        safe_set, data = (secv_set, secv_data) if problem == "secv" else tri_problem(60)
        if method == "thm2":
            controller, _ = synthesis.synthesize_noiseless(data, safe_set)
        else:
            controller, _ = synthesis.synthesize_min_remainder(data, safe_set)
        w_bound = 0.05
        rem = data.dictionary.remainder(sample_points(safe_set).T)
        coeffs = safe_set.normals @ data.next_states @ controller.g2
        box = interval_enclosure(safe_set)
        rn = polytope.row_norms(safe_set.normals)
        leakage = data.n_samples * w_bound * rn * (
            polytope._norm_inf(controller.g1) * box.max_abs
            + polytope._norm_inf(controller.g2) * data.dictionary.lipschitz_bound(box)
            * box.max_abs)
        reference = np.max(coeffs @ rem.T, axis=1) + leakage + w_bound * rn
        bounds = verify.lumped_disturbance_bounds(data, safe_set, controller, w_bound)
        assert bounds.tobytes() == reference.tobytes()

    def test_control_effort_positive(self, secv_set, secv_design, secv_dictionary):
        effort = verify.control_effort(secv_design[0], secv_set, secv_dictionary)
        # the cancelling gain pays for the quadratic at the far vertex:
        # |k2 @ remainder| ~ 36 there
        assert effort > 30.0


def test_verify_imports_nothing_from_synthesis():
    # the checks must stand apart from the module whose designs they check
    tree = ast.parse(Path(verify.__file__).read_text())
    imported = []  # every module and name an import statement reads
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.name for alias in node.names]
    assert not [name for name in imported if "synthesis" in name.split(".")], imported
