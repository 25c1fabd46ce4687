import itertools

import numpy as np
import pytest

from polysafe import lpcore, synthesis, verify
from polysafe.datagen import collect, collect_informative
from polysafe.dynamics import Dictionary, Monomial, PlantModel, expansion_point
from polysafe.errors import (
    ExpansionPointSearchFailedError,
    NoFeasibleContractionError,
    NumericalInstabilityError,
    RankDeficientDataError,
    SynthesisInfeasibleError,
    ZeroExpansionPointError,
)
from polysafe.polytope import (PolyhedralSet, enumerate_vertices, grid_resolution,
                               interval_enclosure, sample_grid)

from conftest import SECV_F, SECV_G, duo_problem, tri_problem


def replay_certificate(data, safe_set, controller, cert):
    """Independent recomputation of every certificate equation from raw matrices."""
    F = safe_set.normals
    g = safe_set.offsets
    x1g1 = data.next_states @ controller.g1
    x1g2 = data.next_states @ controller.g2
    coeffs = F @ x1g2
    stacked = np.hstack([controller.g1, controller.g2])
    checks = {
        "contraction": np.max(cert.set_multiplier @ g + cert.slope_term @ cert.expansion.anchor
                              + cert.noise_margin - cert.contraction * g),
        "multiplier_match": np.max(np.abs(cert.set_multiplier @ F - F @ x1g1 - cert.slope_term)),
        "slope_match": np.max(np.abs(coeffs @ cert.expansion.slope - cert.slope_term)),
        "right_inverse": np.max(np.abs(
            data.regressor @ stacked - np.eye(data.state_dim + data.n_terms))),
        "gain_k1": np.max(np.abs(data.inputs @ controller.g1 - controller.k1)),
        "gain_k2": np.max(np.abs(data.inputs @ controller.g2 - controller.k2)),
    }
    margins = np.array([
        synthesis.smallest_eigenvalue(
            -np.einsum("j,jkl->kl", coeffs[i], cert.expansion.curvatures))
        for i in range(F.shape[0])
    ])
    return checks, margins, coeffs


def assert_certificate_valid(data, safe_set, controller, cert, dd_margin=1e-6):
    checks, margins, coeffs = replay_certificate(data, safe_set, controller, cert)
    assert checks["contraction"] <= 1e-6
    for name in ("multiplier_match", "slope_match", "right_inverse"):
        assert checks[name] <= 1e-6, name
    assert checks["gain_k1"] <= 1e-9
    assert checks["gain_k2"] <= 1e-9
    assert np.min(cert.set_multiplier) >= -1e-9
    if np.any(cert.enforced_rows):
        assert np.min(margins[cert.enforced_rows]) >= dd_margin / 2.0
    if np.any(cert.zeroed_rows):
        assert np.max(np.abs(coeffs[cert.zeroed_rows])) <= 1e-6


class TestSmallestEigenvalue:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            base = rng.normal(size=(n, n))
            sym = 0.5 * (base + base.T)
            got = synthesis.smallest_eigenvalue(sym)
            want = float(np.linalg.eigvalsh(sym)[0])
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_diagonal_dominance_is_sound(self):
        # a symmetric matrix passing the dominance test has min eigenvalue
        # at least the margin (Gershgorin)
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            off = rng.normal(size=(n, n))
            off = 0.5 * (off + off.T)
            np.fill_diagonal(off, 0.0)
            margin = rng.uniform(0.01, 1.0)
            diag = np.sum(np.abs(off), axis=1) + margin
            matrix = off + np.diag(diag)
            assert synthesis.smallest_eigenvalue(matrix) >= margin - 1e-12


class TestRowStructure:
    def test_secv_antipodal_pairs(self):
        assert synthesis.antipodal_pairs(SECV_F) == [(0, 1), (2, 3)]

    def test_no_pairs_in_triangle(self):
        assert synthesis.antipodal_pairs(np.array([[1.0, 0], [0, 1], [-1, -1]])) == []

    def test_row_norms(self):
        np.testing.assert_allclose(synthesis.row_norms(SECV_F, "one"),
                                   [0.6, 0.6, 0.35, 0.35])
        np.testing.assert_allclose(synthesis.row_norms(SECV_F, "inf"),
                                   [0.4, 0.4, 0.2, 0.2])
        with pytest.raises(ValueError):
            synthesis.row_norms(SECV_F, "two")


class TestNoiselessDesign:
    def test_secv_certificate_replays(self, secv_data, secv_set, secv_design):
        controller, cert = secv_design
        assert_certificate_valid(secv_data, secv_set, controller, cert)
        assert cert.margin is not None and cert.margin > 0.03

    def test_secv_cancels_remainder(self, secv_design):
        controller, cert = secv_design
        np.testing.assert_allclose(controller.k2, [[-1.0, -1.0]], atol=1e-6)
        assert np.all(cert.zeroed_rows)
        assert not np.any(cert.enforced_rows)

    def test_noiseless_ground_truth_identity(self, secv_plant, secv_data, secv_design):
        controller, _ = secv_design
        lin = secv_data.next_states @ controller.g1
        rem = secv_data.next_states @ controller.g2
        np.testing.assert_allclose(
            lin, secv_plant.linear_base() + secv_plant.b @ controller.k1, atol=1e-8)
        np.testing.assert_allclose(
            rem, secv_plant.a2 + secv_plant.b @ controller.k2, atol=1e-8)

    def test_zero_expansion_rejected(self, secv_data, secv_set):
        with pytest.raises(ZeroExpansionPointError):
            synthesis.synthesize_noiseless(secv_data, secv_set, 0.95, expansion=[0.0, 0.0])

    def test_contraction_validated(self, secv_data, secv_set):
        with pytest.raises(ValueError):
            synthesis.synthesize_noiseless(secv_data, secv_set, 1.5, expansion=[0.5, 0.5])
        with pytest.raises(ValueError):
            synthesis.synthesize_noiseless(secv_data, secv_set, 0.95,
                                           expansion=[0.5, 0.5], dd_margin=0.0)

    def test_strict_mode_infeasible_on_antipodal_set(self, secv_data, secv_set):
        with pytest.raises(SynthesisInfeasibleError) as err:
            synthesis.synthesize_noiseless(secv_data, secv_set, 0.95,
                                           expansion=[0.5, 0.5], definiteness="strict")
        assert err.value.outcome.infeasibility > 0.0

    def test_off_mode_feasible(self, secv_data, secv_set):
        controller, cert = synthesis.synthesize_noiseless(
            secv_data, secv_set, 0.95, expansion=[0.5, 0.5], definiteness="off")
        assert_certificate_valid(secv_data, secv_set, controller, cert)
        assert not np.any(cert.enforced_rows) and not np.any(cert.zeroed_rows)

    def test_rank_deficiency_detected(self, secv_set, secv_dictionary):
        from polysafe.datagen import ExperimentData
        states = np.tile(np.array([[0.3], [0.2]]), (1, 8))
        rem = secv_dictionary.remainder(states.T).T
        data = ExperimentData(
            inputs=np.ones((1, 8)), states=states, next_states=states,
            remainders=rem, regressor=np.vstack([states, rem]),
            dictionary=secv_dictionary)
        with pytest.raises(RankDeficientDataError):
            synthesis.synthesize_noiseless(data, secv_set, 0.95, expansion=[0.25, 0.1])

    def test_feasible_objective_mode(self, secv_data, secv_set):
        controller, cert = synthesis.synthesize_noiseless(
            secv_data, secv_set, 0.95, expansion=[0.5, 0.5], objective="feasible")
        assert cert.margin is None
        assert_certificate_valid(secv_data, secv_set, controller, cert)


class TestRobustDesign:
    def test_secv_budget_infeasible(self, secv_data, secv_set):
        # the tightening constant g_m * M_x * T = 0.03 * 6 * 40 = 7.2 alone
        # exceeds every contraction row, so no level in (0, 1] is feasible
        with pytest.raises(SynthesisInfeasibleError):
            synthesis.synthesize_robust(secv_data, secv_set, 0.95, w_bound=0.05,
                                        expansion=[0.5, 0.5])

    def test_gm_values(self, secv_set):
        # hand computation: max row norms are 0.6 (one) and 0.4 (inf)
        w = 0.05
        gm_one = w * float(np.max(synthesis.row_norms(secv_set.normals, "one")))
        gm_inf = w * float(np.max(synthesis.row_norms(secv_set.normals, "inf")))
        assert abs(gm_one - 0.03) <= 1e-15
        assert abs(gm_inf - 0.02) <= 1e-15

    def test_zero_disturbance_matches_noiseless(self, secv_data, secv_set, secv_design):
        controller, cert = synthesis.synthesize_robust(
            secv_data, secv_set, 0.95, w_bound=0.0, expansion=[0.5, 0.5])
        assert cert.noise_margin <= 1e-9
        assert abs(cert.margin - secv_design[1].margin) <= 1e-9
        assert_certificate_valid(secv_data, secv_set, controller, cert)

    def test_noisy_data_end_to_end(self):
        # data collected under real disturbances: the right inverse leaks
        # noise into the closed loop (the true remainder is only imperfectly
        # cancelled), the budget covers it, and the independently verified
        # true model still contracts with a wide margin
        dictionary = Dictionary([Monomial((2, 0)), Monomial((0, 2))], 2)
        b = np.array([[1.0], [0.5]])
        w = 3e-4
        plant = PlantModel(a1=[[0.5, 0.1], [-0.1, 0.4]], a2=b @ np.array([[0.05, 0.03]]),
                           b=b, dictionary=dictionary, w_bound=w)
        box_set = PolyhedralSet([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        data = collect(plant, 25, 0.5, [0.3, -0.2], seed=4, with_noise=True)
        controller, cert = synthesis.synthesize_robust(
            data, box_set, 0.98, w_bound=w, expansion=[0.3, 0.3])
        assert cert.noise_margin > 0.0
        true_rem = plant.a2 + plant.b @ controller.k2
        assert 0.0 < np.max(np.abs(true_rem)) < 0.05  # leakage, not cancellation
        report = verify.grid_contractivity(
            controller, box_set, 0.98, w, (101, 101), dictionary,
            source="true-model", plant=plant)
        assert report.passed
        mc = verify.monte_carlo_invariance(plant, controller, box_set, 500, 100, seed=12)
        assert mc.violations == 0

    def test_noise_budget_replays(self):
        # a plant whose nonlinearity is cancellable (range(a2) in range(b)) and a
        # disturbance small enough for the budget to fit at level 0.98
        dictionary = Dictionary([Monomial((2, 0)), Monomial((0, 2))], 2)
        b = np.array([[1.0], [0.5]])
        plant = PlantModel(a1=[[0.5, 0.1], [-0.1, 0.4]], a2=b @ np.array([[0.05, 0.03]]),
                           b=b, dictionary=dictionary, w_bound=0.01)
        box_set = PolyhedralSet([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        data = collect(plant, 25, 0.5, [0.3, -0.2], seed=4)
        w = 3e-4
        controller, cert = synthesis.synthesize_robust(
            data, box_set, 0.98, w_bound=w, expansion=[0.3, 0.3])
        box = interval_enclosure(box_set)
        lip = data.dictionary.lipschitz_bound(box)
        gm = w * float(np.max(synthesis.row_norms(box_set.normals, "one")))
        ninf = lambda m: float(np.max(np.abs(m).sum(axis=1)))
        budget = gm * box.max_abs * data.n_samples * (
            ninf(controller.g1) + lip * ninf(controller.g2) + 1.0)
        assert budget <= cert.noise_margin + 1e-6
        assert cert.noise_margin > 0.0
        assert_certificate_valid(data, box_set, controller, cert)


class TestExpansionSearch:
    def test_auto_matches_candidate_list(self, secv_data, secv_set):
        ep = synthesis.pick_expansion_point(secv_data, secv_set, 0.95, seed=0)
        vertices = enumerate_vertices(secv_set)
        candidates = [0.25 * v for v in vertices]
        assert any(np.allclose(ep.point, c) for c in candidates)

    def test_explicit_point_skips_search(self, secv_data, secv_set):
        controller, cert = synthesis.synthesize_noiseless(
            secv_data, secv_set, 0.95, expansion=[0.5, 0.5])
        np.testing.assert_allclose(cert.expansion.point, [0.5, 0.5])

    def test_search_failure_collects_log(self, secv_set, secv_dictionary, secv_plant):
        # uncontrollable unstable plant: no candidate can be feasible
        bad = PlantModel(a1=2.0 * np.eye(2), a2=[[0.0, 0.0], [0.0, 0.0]],
                         b=[[0.0], [0.0]], dictionary=secv_dictionary, w_bound=0.0)
        data = collect(bad, 40, 0.5, [0.01, 0.01], seed=3)
        with pytest.raises((ExpansionPointSearchFailedError, RankDeficientDataError)):
            synthesis.synthesize_noiseless(data, secv_set, 0.95, expansion="auto")

    def test_search_log_lists_every_candidate(self, secv_data, secv_set):
        # strict definiteness is infeasible at every expansion point on a set
        # with antipodal pairs, so the auto search must exhaust its list; the
        # vertex centroid of the symmetric set is the origin and is skipped
        with pytest.raises(ExpansionPointSearchFailedError) as err:
            synthesis.synthesize_noiseless(secv_data, secv_set, 0.95,
                                           expansion="auto", definiteness="strict",
                                           seed=0)
        attempts = err.value.attempts
        assert len(attempts) == 4 + 1 + 20  # scaled vertices + centroid + random
        reasons = [reason for _, reason in attempts]
        assert sum(r.startswith("skipped: zero point") for r in reasons) == 1
        assert sum(r.startswith("infeasible") for r in reasons) == len(attempts) - 1


class TestBaseline:
    def test_secv_finds_cancellation(self, secv_data, secv_set):
        result = synthesis.synthesize_min_remainder(secv_data, secv_set, 0.95)
        np.testing.assert_allclose(result.search.k2, [[-1.0, -1.0]], atol=1e-9)
        assert np.max(np.abs(result.row_bounds)) <= 1e-9
        assert result.margin > 0.03
        # baseline conditions replay
        ps = result.set_multiplier
        g1 = result.controller.g1
        assert np.max(ps @ SECV_G + result.row_bounds - 0.95 * SECV_G) <= 1e-6
        assert np.max(np.abs(ps @ SECV_F - SECV_F @ secv_data.next_states @ g1)) <= 1e-6
        e1 = np.zeros((4, 2))
        e1[:2] = np.eye(2)
        assert np.max(np.abs(secv_data.regressor @ g1 - e1)) <= 1e-6
        assert np.min(ps) >= -1e-9

    def test_exact_cancellation_with_square_input(self):
        # square invertible b: the grid contains -b^{-1} a2 exactly
        dictionary = Dictionary([Monomial((2, 0)), Monomial((0, 2))], 2)
        plant = PlantModel(a1=[[0.5, 0.1], [0.0, 0.4]], a2=[[0.3, 0.0], [0.0, 0.2]],
                           b=np.eye(2), dictionary=dictionary, w_bound=0.0)
        box = PolyhedralSet([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        data = collect(plant, 12, 0.4, [0.2, -0.1], seed=5)
        result = synthesis.synthesize_min_remainder(data, box, 0.95, x_resolution=(41, 41))
        np.testing.assert_allclose(result.search.k2, [[-0.3, 0.0], [0.0, -0.2]], atol=1e-9)
        assert np.max(np.abs(result.row_bounds)) <= 1e-9

    def test_grid_refinement_stability(self, secv_set):
        # nonzero remainder bound case: fix a plant whose cancellation is
        # outside the grid, then doubling the resolution moves the bound by
        # less than lipschitz * cell diagonal * max row coefficient norm
        dictionary = Dictionary([Monomial((2, 0)), Monomial((0, 2))], 2)
        plant = PlantModel(a1=[[0.8, 0.5], [-0.4, 1.2]], a2=[[0.0, 0.0], [1.0, 1.0]],
                           b=[[0.0], [1.0]], dictionary=dictionary, w_bound=0.0)
        data = collect(plant, 40, 0.003, [0, 0], seed=7)
        coarse = synthesis.baseline_search(data, secv_set, k2_lo=-0.5, k2_hi=0.5,
                                           k2_step=0.25, x_resolution=(51, 51))
        fine = synthesis.baseline_search(data, secv_set, k2_lo=-0.5, k2_hi=0.5,
                                         k2_step=0.25, x_resolution=(101, 101))
        box = interval_enclosure(secv_set)
        lip = dictionary.lipschitz_bound(box)
        cell = np.linalg.norm((box.hi - box.lo) / (np.array([51, 51]) - 1))
        coeffs = secv_set.normals @ data.next_states @ coarse.g2
        bound = lip * cell * float(np.max(np.abs(coeffs).sum(axis=1)))
        assert np.max(np.abs(coarse.row_bounds - fine.row_bounds)) <= bound

    def test_closed_loop_data_rejected(self, secv_plant, secv_set):
        from polysafe.datagen import ExperimentData
        d = secv_plant.dictionary
        k1 = np.array([[0.3, -1.3]])
        k2 = np.array([[-1.0, -1.0]])
        x = np.array([0.4, 0.3])
        states, inputs, nxt = [], [], []
        for _ in range(30):
            u = k1 @ x + k2 @ d.remainder(x)
            states.append(x)
            inputs.append(u)
            x = secv_plant.step(x, u)
            nxt.append(x)
        states = np.array(states)
        rem = d.remainder(states)
        data = ExperimentData(
            inputs=np.array(inputs).T, states=states.T, next_states=np.array(nxt).T,
            remainders=rem.T, regressor=np.vstack([states.T, rem.T]), dictionary=d)
        with pytest.raises(RankDeficientDataError):
            synthesis.baseline_search(data, secv_set)


def brute_force_search(data, safe_set, k2_lo=-2.0, k2_hi=2.0, k2_step=0.1):
    """The unpruned gain search: every grid gain scored over every point.

    Returns the winner index (``argmin``, so first on ties), the candidate
    grid and the winner's row bounds.
    """
    F = safe_set.normals
    n, N, m = data.state_dim, data.n_terms, data.input_dim
    points = sample_grid(safe_set, grid_resolution(n))
    points = np.vstack([points, np.array(enumerate_vertices(safe_set))])
    rem = data.dictionary.remainder(points)
    f_next = F @ data.next_states
    pinv = np.linalg.pinv(np.vstack([data.regressor, data.inputs]))
    e2 = np.zeros((n + N, N))
    e2[n:, :] = np.eye(N)
    base = pinv[:, :n + N] @ e2
    gain_map = pinv[:, n + N:]
    steps = int(round((k2_hi - k2_lo) / k2_step))
    axis = k2_lo + k2_step * np.arange(steps + 1)
    combos = np.array(list(itertools.product(axis, repeat=m * N)))
    scores = np.empty(len(combos))
    bounds = np.empty((len(combos), F.shape[0]))
    for idx, flat in enumerate(combos):
        k2 = flat.reshape(m, N)
        g2 = base + gain_map @ k2
        coeffs = f_next @ g2
        row_max = np.max(coeffs @ rem.T, axis=1)
        bounds[idx] = row_max
        scores[idx] = row_max.max()
    chosen = int(np.argmin(scores))
    return chosen, combos, bounds[chosen]


def duo_variant(a2, b=((0.0,), (1.0,))):
    """The duo plant with other remainder (and input) matrices, T=160."""
    safe_set = PolyhedralSet(SECV_F, SECV_G)
    dictionary = Dictionary([Monomial((2, 0)), Monomial((0, 2)), Monomial((1, 1))], 2)
    plant = PlantModel(a1=[[0.7, 0.3], [-0.2, 0.9]], a2=a2, b=b,
                       dictionary=dictionary, w_bound=0.02)
    data = collect_informative(plant, 160, 0.05, [0.0, 0.0], 7,
                               safe_set=safe_set, require_in_set=True)
    return safe_set, data


class TestBaselineSearchIsExact:
    """The pruned search returns what scoring every candidate returns."""

    def assert_matches_brute_force(self, data, safe_set, **grid):
        search = synthesis.baseline_search(data, safe_set, **grid)
        chosen, combos, row_bounds = brute_force_search(data, safe_set, **grid)
        np.testing.assert_array_equal(search.candidates, combos)
        assert search.chosen == chosen
        np.testing.assert_array_equal(search.k2, combos[chosen].reshape(search.k2.shape))
        np.testing.assert_array_equal(search.row_bounds, row_bounds)
        return search

    def test_secv(self, secv_data, secv_set):
        self.assert_matches_brute_force(secv_data, secv_set)

    def test_duo(self):
        safe_set, data = duo_problem(160)
        search = self.assert_matches_brute_force(data, safe_set)
        assert len(search.candidates) == 41 ** 3
        assert search.scored <= len(search.candidates) // 1000

    @pytest.mark.parametrize("a2", [[[0.2, 0.0, 0.1], [1.0, 0.5, -0.5]],
                                    [[0.0, 0.0, 0.0], [3.0, 0.5, -0.5]]])
    def test_non_cancelling_duo_variants(self, a2):
        # no grid gain cancels the remainder, so the best score is positive
        safe_set, data = duo_variant(a2)
        search = self.assert_matches_brute_force(data, safe_set, k2_step=0.2)
        assert search.row_bounds.max() > 0.1

    @pytest.mark.parametrize("b", [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]])
    def test_rounding_level_near_ties(self, secv_plant, secv_set, b):
        # an idle or a duplicated input leaves whole groups of gains whose
        # scores differ only by rounding; every one of them must be scored
        plant = PlantModel(a1=secv_plant.a1, a2=secv_plant.a2, b=b,
                           dictionary=secv_plant.dictionary, w_bound=0.0)
        data = collect(plant, 40, 0.003, [0.0, 0.0], seed=7)
        search = self.assert_matches_brute_force(data, secv_set, k2_step=0.5)
        assert search.scored > 9

    def test_exact_ties_go_to_the_first_candidate(self, secv_data, secv_set):
        # steps below half an ulp of 1.0 repeat grid values, so whole groups
        # of candidates are the same gain and tie bit for bit
        grid = {"k2_lo": 1.0, "k2_hi": 1.0 + 1e-15, "k2_step": 1e-16}
        search = self.assert_matches_brute_force(secv_data, secv_set, **grid)
        twins = np.all(search.candidates == search.candidates[search.chosen], axis=1)
        assert np.count_nonzero(twins) > 1
        assert search.chosen == np.flatnonzero(twins)[0]

    @pytest.mark.parametrize("grid, match", [
        ({"k2_step": 0.0}, "k2_step must be positive, got 0.0"),
        ({"k2_step": -0.1}, "k2_step must be positive, got -0.1"),
        ({"k2_lo": 1.0, "k2_hi": -1.0}, "k2_lo=1.0, k2_hi=-1.0"),
        ({"k2_step": 0.002}, "2001\\^2 = 4004001 candidates, above the cap"),
    ])
    def test_bad_gain_grid_rejected(self, secv_data, secv_set, grid, match):
        with pytest.raises(ValueError, match=match):
            synthesis.baseline_search(secv_data, secv_set, **grid)

    def test_six_gain_entries_exceed_the_cap(self):
        # two inputs and three terms: the default grid has 41^6 ~ 4.7e9 gains
        safe_set, data = duo_variant([[0.0, 0.0, 0.0], [1.0, 0.5, -0.5]], b=np.eye(2))
        with pytest.raises(ValueError, match="41\\^6 = 4750104241 candidates"):
            synthesis.baseline_search(data, safe_set)


class TestLumpedBounds:
    def test_zero_disturbance_reduces_to_grid_max(self, secv_data, secv_set, secv_design):
        controller, _ = secv_design
        bounds = synthesis.lumped_disturbance_bounds(
            secv_data, secv_set, controller, w_bound=0.0)
        points = sample_grid(secv_set, (101, 101))
        points = np.vstack([points, np.array(enumerate_vertices(secv_set))])
        rem = secv_data.dictionary.remainder(points)
        coeffs = secv_set.normals @ secv_data.next_states @ controller.g2
        np.testing.assert_allclose(bounds, np.max(coeffs @ rem.T, axis=1), atol=1e-12)

    def test_monotone_in_disturbance(self, secv_data, secv_set, secv_design):
        controller, _ = secv_design
        b0 = synthesis.lumped_disturbance_bounds(secv_data, secv_set, controller, 0.0)
        b1 = synthesis.lumped_disturbance_bounds(secv_data, secv_set, controller, 0.05)
        assert np.all(b1 >= b0)

    def test_pinv_controller_dominates_its_noiseless_run(self, secv_data, secv_set):
        right_inv = np.linalg.pinv(secv_data.regressor)
        g1, g2 = right_inv[:, :2], right_inv[:, 2:]
        controller = synthesis.Controller(
            k1=secv_data.inputs @ g1, k2=secv_data.inputs @ g2, g1=g1, g2=g2)
        b0 = synthesis.lumped_disturbance_bounds(secv_data, secv_set, controller, 0.0)
        b1 = synthesis.lumped_disturbance_bounds(secv_data, secv_set, controller, 0.05)
        assert np.all(np.isfinite(b1))
        assert np.all(b1 >= b0)

    def test_zero_controller_on_zero_remainder_system(self):
        # remainder identically zero and zero gains: only the direct term is left
        dictionary = Dictionary([Monomial((1, 0))], 2)  # linear term, zero remainder
        plant = PlantModel(a1=[[0.5, 0.0], [0.0, 0.5]], a2=[[0.1], [0.0]],
                           b=[[1.0], [0.0]], dictionary=dictionary, w_bound=0.05)
        box = PolyhedralSet([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        data = collect(plant, 10, 0.3, [0.1, 0.1], seed=2)
        zero = synthesis.Controller(
            k1=np.zeros((1, 2)), k2=np.zeros((1, 1)),
            g1=np.zeros((10, 2)), g2=np.zeros((10, 1)))
        bounds = synthesis.lumped_disturbance_bounds(data, box, zero, w_bound=0.05)
        np.testing.assert_allclose(
            bounds, 0.05 * synthesis.row_norms(box.normals, "one"), atol=1e-12)


class TestMinimalContraction:
    def test_exact_level_brackets(self, secv_data, secv_set):
        # the level is exact: feasible just above it, infeasible just below
        level = synthesis.minimal_contraction(secv_data, secv_set, method="thm2",
                                              expansion=[0.5, 0.5])
        assert abs(level - 0.758333) <= 1e-6
        synthesis.synthesize_noiseless(secv_data, secv_set, level + 1e-6,
                                       expansion=[0.5, 0.5])
        with pytest.raises(SynthesisInfeasibleError):
            synthesis.synthesize_noiseless(secv_data, secv_set, level - 1e-4,
                                           expansion=[0.5, 0.5])
        level = synthesis.minimal_contraction(secv_data, secv_set, method="thm1")
        assert abs(level - 0.758333) <= 1e-6
        synthesis.synthesize_min_remainder(secv_data, secv_set, level + 1e-6)
        with pytest.raises(SynthesisInfeasibleError):
            synthesis.synthesize_min_remainder(secv_data, secv_set, level - 1e-4)

    def test_degenerate_disturbance_agrees(self, secv_data, secv_set):
        a = synthesis.minimal_contraction(secv_data, secv_set, method="thm2",
                                          expansion=[0.5, 0.5])
        b = synthesis.minimal_contraction(secv_data, secv_set, method="cor2",
                                          w_bound=0.0, expansion=[0.5, 0.5])
        assert abs(a - b) <= 1e-9

    def test_margin_is_level_headroom(self, secv_data, secv_set):
        # rescaling rows gives the same set with unequal offsets: the level
        # must not move, and the margin at any level is the distance to it
        scale = np.array([2.0, 1.0, 0.5, 1.0])
        rescaled = PolyhedralSet(SECV_F * scale[:, None], SECV_G * scale)
        level = synthesis.minimal_contraction(secv_data, secv_set, expansion=[0.5, 0.5])
        assert abs(synthesis.minimal_contraction(
            secv_data, rescaled, expansion=[0.5, 0.5]) - level) <= 1e-9
        _, cert = synthesis.synthesize_noiseless(secv_data, rescaled, 0.95,
                                                 expansion=[0.5, 0.5])
        assert abs(cert.margin - (0.95 - level)) <= 1e-9

    def test_level_zero_is_clamped(self):
        # two inputs cancel the whole closed loop, so the minimal level is 0;
        # unclamped, 1 - margin comes out about -3e-15 on this data
        dictionary = Dictionary([Monomial((2, 0))], 2)
        plant = PlantModel(a1=[[0.4, 0.1], [0.0, 0.3]], a2=[[0.05], [0.02]],
                           b=np.eye(2), dictionary=dictionary, w_bound=0.0)
        box = PolyhedralSet([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        data = collect(plant, 8, 0.3, [0.1, 0.1], seed=2)
        for method, kwargs in (("thm2", {}), ("cor2", {"w_bound": 0.0})):
            level = synthesis.minimal_contraction(data, box, method=method, **kwargs)
            assert 0.0 <= level <= 1e-9, method

    def test_three_state_baseline(self):
        # the default state grid follows the set's dimension (22 per axis at
        # n=3); the coarse gain grid still holds the exact cancelling gain
        P = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.25], [0.2, 0.0, 1.0]])
        safe_set = PolyhedralSet(np.vstack([0.5 * P, -0.5 * P]), np.ones(6))
        dictionary = Dictionary(
            [Monomial((2, 0, 0)), Monomial((0, 2, 0)), Monomial((1, 0, 1))], 3)
        plant = PlantModel(a1=[[0.7, 0.2, 0.0], [0.0, 0.6, 0.3], [0.2, -0.3, 1.1]],
                           a2=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.5, -0.5]],
                           b=[[0.0], [0.0], [1.0]], dictionary=dictionary, w_bound=0.02)
        data = collect(plant, 40, 0.01, [0.0, 0.0, 0.0], seed=11)
        search = synthesis.baseline_search(data, safe_set, k2_step=0.5)
        assert search.x_resolution == (22, 22, 22)
        np.testing.assert_allclose(search.k2, [[-1.0, -0.5, 0.5]], atol=1e-12)
        level = synthesis.minimal_contraction(data, safe_set, method="thm1", search=search)
        result = synthesis.synthesize_min_remainder(data, safe_set, level + 1e-6, search=search)
        with pytest.raises(SynthesisInfeasibleError):
            synthesis.synthesize_min_remainder(data, safe_set, level - 1e-4, search=search)
        assert verify.control_effort(result.controller, safe_set, dictionary) > 0.0
        bounds = synthesis.lumped_disturbance_bounds(data, safe_set, result.controller, 0.02)
        assert bounds.shape == (6,)

    def test_infeasible_plant_raises(self, secv_set, secv_dictionary):
        bad = PlantModel(a1=2.0 * np.eye(2), a2=np.zeros((2, 2)), b=[[0.0], [0.0]],
                         dictionary=secv_dictionary, w_bound=0.0)
        data = collect(bad, 40, 0.5, [0.01, 0.01], seed=3)
        with pytest.raises((NoFeasibleContractionError, RankDeficientDataError)):
            synthesis.minimal_contraction(data, secv_set, method="thm2",
                                          expansion=[0.5, 0.5])


TRI_LEVEL = 0.9102463054185772  # tri thm2 minimal level, T=160


@pytest.fixture()
def solved_programs(monkeypatch):
    """Every program solved during the test, with its outcome, in solve order."""
    programs = []
    solve = lpcore.LinearProgram.solve

    def recording(lp):
        outcome = solve(lp)
        programs.append((lp, outcome))
        return outcome

    monkeypatch.setattr(lpcore.LinearProgram, "solve", recording)
    return programs


def highs_outcome(lp):
    """Status and objective of the same program under HiGHS, read from the
    program's assembled rows."""
    from scipy.optimize import linprog

    A, sense, b = lp._assemble()
    c = np.zeros(lp.n_variables)
    sign = 1.0
    if lp._objective is not None:
        obj_sense, terms = lp._objective
        sign = 1.0 if obj_sense == "min" else -1.0
        c = sign * lp._densify(terms)
    ineq, eq = sense != 0.0, sense == 0.0
    bounds = [(0.0, None) if block.nonneg else (None, None)
              for block in lp._blocks.values() for _ in range(block.size)]
    ref = linprog(c, A_ub=sense[ineq, None] * A[ineq], b_ub=sense[ineq] * b[ineq],
                  A_eq=A[eq], b_eq=b[eq], bounds=bounds, method="highs")
    status = {0: lpcore.LpStatus.OPTIMAL, 2: lpcore.LpStatus.INFEASIBLE,
              3: lpcore.LpStatus.UNBOUNDED}[ref.status]
    return status, (sign * ref.fun if status == lpcore.LpStatus.OPTIMAL else None)


class TestClosedLoopPrograms:
    def test_tri_expansion_point_is_first_candidate(self):
        # over G the first three vertex candidates broke down in the tableau
        # (replay residuals 81 to 2,922); over the closed loop each solves
        safe_set, data = tri_problem(160)
        candidates = [0.25 * v for v in enumerate_vertices(safe_set)]
        exp = synthesis.pick_expansion_point(data, safe_set, 1.0)
        np.testing.assert_array_equal(exp.point, candidates[0])
        for point in candidates[:4]:
            _, cert = synthesis.synthesize_noiseless(data, safe_set, 1.0, expansion=point)
            assert abs(1.0 - cert.margin - TRI_LEVEL) <= 1e-9

    def test_inputs_without_effect_fix_the_closed_loop(self):
        # with b = 0 no gain moves the closed loop off the open loop, and on
        # the unit box its level is the induced infinity norm of a1
        dictionary = Dictionary([Monomial((2, 0)), Monomial((0, 2))], 2)
        a1 = 0.6 * np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
        plant = PlantModel(a1=a1, a2=np.zeros((2, 2)), b=[[0.0], [0.0]],
                           dictionary=dictionary, w_bound=0.0)
        box = PolyhedralSet([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        data = collect(plant, 8, 0.3, [0.5, 0.3], seed=2)
        level = synthesis.minimal_contraction(data, box, expansion=[0.2, 0.1])
        assert abs(level - np.max(np.abs(a1).sum(axis=1))) <= 1e-9

    def test_program_size_does_not_grow_with_samples(self, solved_programs):
        sizes = []
        for samples in (40, 160):
            safe_set, data = duo_problem(samples)
            synthesis.synthesize_noiseless(data, safe_set, 0.95, expansion=[0.5, 0.5])
            thm2 = solved_programs[-1][0]
            synthesis.synthesize_min_remainder(data, safe_set, 0.95, k2_step=0.5)
            thm1 = solved_programs[-1][0]
            sizes.append([(lp.n_constraints, lp.n_variables) for lp in (thm2, thm1)])
        assert sizes[0] == sizes[1]
        # thm2: 1 + 4 + 8 + 8 + 6 rows; 5 loop + 16 multiplier + 8 slope + 1 slack columns
        assert sizes[0][0] == (27, 30)

    @pytest.mark.parametrize("problem", ["secV", "duo", "tri40", "tri60", "tri160"])
    def test_design_programs_match_highs(self, problem, secv_data, solved_programs):
        safe_set, data = {
            "secV": lambda: (PolyhedralSet(SECV_F, SECV_G), secv_data),
            "duo": lambda: duo_problem(160),
            "tri40": lambda: tri_problem(40),
            "tri60": lambda: tri_problem(60),
            "tri160": lambda: tri_problem(160),
        }[problem]()
        for vertex in enumerate_vertices(safe_set)[:4]:
            synthesis.synthesize_noiseless(data, safe_set, 1.0, expansion=0.25 * vertex)
        if problem in ("secV", "duo"):
            with pytest.raises(SynthesisInfeasibleError):
                synthesis.synthesize_robust(data, safe_set, 1.0, w_bound=0.02,
                                            expansion=[0.5, 0.5])
        designs = [(lp, out) for lp, out in solved_programs if "mult" in lp._blocks]
        assert len(designs) == (5 if problem in ("secV", "duo") else 4)
        for lp, outcome in designs:
            status, objective = highs_outcome(lp)
            assert outcome.status == status
            if status == lpcore.LpStatus.OPTIMAL:
                assert abs(outcome.objective - objective) <= 1e-9


class TestNumericalGuard:
    def test_near_inconsistent_program_is_refused(self, secv_set):
        # the remainder coefficients of this plant cannot be cancelled through
        # the single input, so the pair-zeroing equalities are inconsistent in
        # exact arithmetic; the ill-conditioned data lets the tableau "solve"
        # them with garbage magnitudes, which the replay cap must refuse
        dictionary = Dictionary([Monomial((2, 0)), Monomial((0, 2))], 2)
        plant = PlantModel(a1=[[1.05, 0.2], [0.0, 1.04]],
                           a2=[[0.01, 0.0], [0.0, 0.01]],
                           b=[[1.0], [0.0]], dictionary=dictionary, w_bound=0.0)
        data = collect(plant, 40, 0.01, [0.01, 0.02], seed=5)
        with pytest.raises((NumericalInstabilityError, SynthesisInfeasibleError,
                            ExpansionPointSearchFailedError)):
            synthesis.synthesize_noiseless(data, secv_set, 0.95,
                                           expansion=[0.5, 0.5], seed=0)
