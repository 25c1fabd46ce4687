import itertools
import tracemalloc

import numpy as np
import pytest

from polysafe import lpcore, polytope, synthesis, verify
from polysafe.datagen import collect, collect_informative
from polysafe.dynamics import Dictionary, Monomial, PlantModel
from polysafe.errors import (
    InconsistentDataError,
    NumericalInstabilityError,
    RankDeficientDataError,
    SynthesisInfeasibleError,
)
from polysafe.polytope import (PolyhedralSet, grid_resolution, interval_enclosure,
                               sample_points)

from conftest import (SECV_F, SECV_G, data_loop, duo_problem, grid_members, tri_plant_and_set,
                      tri_problem, true_loop)


def replay_certificate(data, safe_set, controller, cert):
    """Independent recomputation of every certificate equation from raw
    matrices, by one formula for every method."""
    F = safe_set.normals
    g = safe_set.offsets
    x1g1 = data.next_states @ controller.g1
    x1g2 = data.next_states @ controller.g2
    coeffs = F @ x1g2
    stacked = np.hstack([controller.g1, controller.g2])
    remainder = coeffs @ data.dictionary.remainder(sample_points(safe_set).T).T   # (s, k)
    checks = {
        "contraction": np.max(cert.set_multiplier @ g + cert.row_offsets
                              - cert.contraction * g),
        # each row's offset covers its closed-loop remainder term over the set's sample
        "remainder_covered": np.max(remainder.max(axis=1) - cert.row_offsets),
        "multiplier_match": np.max(np.abs(cert.set_multiplier @ F - F @ x1g1)),
        "right_inverse": np.max(np.abs(
            data.regressor @ stacked - np.eye(data.state_dim + data.n_terms))),
        "gain_k1": np.max(np.abs(data.inputs @ controller.g1 - controller.k1)),
        "gain_k2": np.max(np.abs(data.inputs @ controller.g2 - controller.k2)),
    }
    return checks, coeffs


def assert_certificate_valid(data, safe_set, controller, cert):
    checks, coeffs = replay_certificate(data, safe_set, controller, cert)
    assert cert.row_offsets.shape == (safe_set.n_rows,)
    for name in ("contraction", "remainder_covered", "multiplier_match", "right_inverse"):
        assert checks[name] <= 1e-6, name
    assert checks["gain_k1"] <= 1e-9
    assert checks["gain_k2"] <= 1e-9
    assert np.min(cert.set_multiplier) >= -1e-9
    if cert.method != "thm1":
        # thm2 and cor2 pin the closed-loop remainder to zero on every row
        assert np.max(np.abs(coeffs)) <= 1e-6
        assert cert.residuals["remainder_zeroed"] <= 1e-6


def robust_terms(data, safe_set, w_bound):
    """The robust entries ``synthesize_robust`` hands to the design program."""
    box = interval_enclosure(safe_set)
    return {"w_bound": w_bound, "lipschitz": float(data.dictionary.lipschitz_bound(box)),
            "state_bound": float(box.max_abs)}


def unmatched_problem(safe_set, unmatched=0.05):
    """The secV plant plus a remainder term in the first state, which the
    input (on the second state only) cannot cancel; T=40, data seed 7."""
    dictionary = Dictionary([Monomial((2, 0)), Monomial((0, 2))], 2)
    plant = PlantModel(a1=[[0.8, 0.5], [-0.4, 1.2]], a2=[[unmatched, 0.0], [1.0, 1.0]],
                       b=[[0.0], [1.0]], dictionary=dictionary, w_bound=0.0)
    return plant, collect_informative(plant, 40, 0.003, [0.0, 0.0], 7,
                                      safe_set=safe_set)


class TestRowStructure:
    def test_row_norms(self):
        np.testing.assert_allclose(polytope.row_norms(SECV_F), [0.6, 0.6, 0.35, 0.35])
        # the max-entry reading of the norm-budget formula is smaller on every row
        max_entry = np.abs(SECV_F).max(axis=1)
        np.testing.assert_allclose(max_entry, [0.4, 0.4, 0.2, 0.2])
        assert np.all(max_entry < polytope.row_norms(SECV_F))


class TestNoiselessDesign:
    def test_secv_certificate_replays(self, secv_data, secv_set, secv_design):
        controller, cert = secv_design
        assert_certificate_valid(secv_data, secv_set, controller, cert)
        assert abs(cert.contraction - 0.758333) <= 1e-6

    def test_secv_cancels_remainder(self, secv_design):
        controller, cert = secv_design
        np.testing.assert_allclose(controller.k2, [[-1.0, -1.0]], atol=1e-6)
        assert cert.residuals["remainder_zeroed"] <= 1e-9

    def test_noiseless_ground_truth_identity(self, secv_plant, secv_data, secv_design):
        controller, _ = secv_design
        lin = secv_data.next_states @ controller.g1
        rem = secv_data.next_states @ controller.g2
        np.testing.assert_allclose(
            lin, secv_plant.linear_base() + secv_plant.b @ controller.k1, atol=1e-8)
        np.testing.assert_allclose(
            rem, secv_plant.a2 + secv_plant.b @ controller.k2, atol=1e-8)

    def test_minimal_levels_of_benchmark_plants(self, secv_data):
        # exact minimal levels: secV 91/120, duo 27/40
        problems = {"secV": ((PolyhedralSet(SECV_F, SECV_G), secv_data), 91 / 120),
                    "duo": (duo_problem(160), 27 / 40),
                    "tri60": (tri_problem(60), TRI_LEVEL), "tri160": (tri_problem(160), TRI_LEVEL)}
        for name, ((safe_set, data), level) in problems.items():
            controller, cert = synthesis.synthesize_noiseless(data, safe_set)
            assert abs(cert.contraction - level) <= 1e-12, name
            assert_certificate_valid(data, safe_set, controller, cert)

    def test_uncancellable_remainder_is_infeasible(self, secv_set, solved_programs):
        # the first state carries a remainder term the single input cannot
        # reach, so no gain pins the closed-loop remainder to zero: the closed
        # form decides it, names what is left, and poses no program
        _, data = unmatched_problem(secv_set)
        with pytest.raises(SynthesisInfeasibleError,
                           match="noiseless design infeasible at every level") as err:
            synthesis.synthesize_noiseless(data, secv_set)
        assert err.value.outcome is None
        assert "remainder_zeroed 1.000e-02 at the least-squares pin" in str(err.value)
        assert solved_programs == []

    @pytest.mark.parametrize("problem", ["unmatched", "tri-row-0"])
    def test_uncancellable_verdict_replays(self, problem, secv_set):
        # the remainder part of next_states @ g off the inputs' reach (the
        # column space of next_states @ P, P the projector onto the
        # regressor's null space) is the same for every right inverse g, so
        # no gain cancels it; the verdict names its largest coefficient
        if problem == "unmatched":
            safe_set, data = secv_set, unmatched_problem(secv_set)[1]
        else:
            # "tri row 0": +0.02 on the first state's x0^2 and x0*x2 terms
            plant, safe_set = tri_plant_and_set()
            plant = PlantModel(a1=plant.a1, a2=[[0.02, 0.0, 0.02], *plant.a2[1:]], b=plant.b,
                               dictionary=plant.dictionary, w_bound=0.0)
            data = collect_informative(plant, 160, 0.01, [0.0, 0.0, 0.0], 11,
                                       safe_set=safe_set)
        n, N, T = data.state_dim, data.n_terms, data.n_samples
        pinv = np.linalg.pinv(data.regressor)
        null = np.eye(T) - pinv @ data.regressor
        other = pinv + null @ np.random.default_rng(3).normal(size=(T, n + N))
        assert np.max(np.abs(data.regressor @ other - np.eye(n + N))) <= 1e-9
        u, sv, _ = np.linalg.svd(data.next_states @ null)
        reach = u[:, sv > 1e-9 * np.linalg.norm(data.next_states, 2)]
        assert reach.shape[1] == data.input_dim

        def left(g):
            rem = data.next_states @ g[:, n:]
            return rem - reach @ (reach.T @ rem)

        np.testing.assert_allclose(left(other), left(pinv), rtol=0, atol=1e-9)
        coefficients = float(np.max(np.abs(safe_set.normals @ left(pinv))))
        assert coefficients > 1e-3
        with pytest.raises(SynthesisInfeasibleError) as err:
            synthesis.synthesize_noiseless(data, safe_set)
        assert f"remainder_zeroed {coefficients:.3e} at the least-squares pin" in str(err.value)

    def test_rank_deficiency_detected(self, secv_set, secv_dictionary):
        from polysafe.datagen import ExperimentData
        states = np.tile(np.array([[0.3], [0.2]]), (1, 8))
        rem = secv_dictionary.remainder(states.T).T
        data = ExperimentData(
            inputs=np.ones((1, 8)), states=states, next_states=states,
            remainders=rem, dictionary=secv_dictionary)
        with pytest.raises(RankDeficientDataError):
            synthesis.synthesize_noiseless(data, secv_set)


class TestRobustDesign:
    def test_secv_budget_infeasible(self, secv_data, secv_set):
        # the tightening constant g_m * M_x * T = 0.03 * 6 * 40 = 7.2 alone
        # exceeds every contraction row, so no level in (0, 1] is feasible
        with pytest.raises(SynthesisInfeasibleError):
            synthesis.synthesize_robust(secv_data, secv_set, w_bound=0.05)

    @pytest.mark.parametrize("problem", ["secV", "duo"])
    def test_noise_floor_verdict_replays_as_farkas_vector(self, problem, secv_data):
        # the floor verdict poses no program, so replay its proof on the raw
        # rows of the program it skips: contraction row i*, the budget row and
        # one norm row per part cancel the free columns and combine into
        # 0 <= y @ A @ x <= y @ b = min g - floor < 0
        safe_set, data, w_bound = {
            "secV": lambda: (PolyhedralSet(SECV_F, SECV_G), secv_data, 0.05),
            "duo": lambda: (*duo_problem(160), 0.02),
        }[problem]()
        with pytest.raises(SynthesisInfeasibleError, match="noise floor") as err:
            synthesis.synthesize_robust(data, safe_set, w_bound)
        assert err.value.outcome is None

        robust = robust_terms(data, safe_set, w_bound)
        lp = synthesis._robust_program(data, safe_set, robust)
        A, sense, b = lp._assemble()
        starts, start = {}, 0  # first row of each row group, keyed by the blocks it touches
        for mats, _, rhs in lp._groups:
            starts[frozenset(mats)] = start
            start += rhs.size

        def rows(*blocks):
            return slice(starts[frozenset(blocks)], None)

        F, g = safe_set.normals, safe_set.offsets
        floor = w_bound * np.max(np.abs(F).sum(axis=1)) * robust["state_bound"] * data.n_samples
        assert floor > g.min()
        i = int(np.argmin(g))
        y = np.zeros(len(b))
        y[rows("mult", "noise", "slack")][i] = 1.0                # contraction row i*
        y[rows("norm1", "norm2", "noise")][0] = 1.0               # budget: cancels noise
        # cancel norm1 and norm2 through one norm row each, so that no norm
        # weight covers the g2 columns of the other samples
        y[rows("g1_pos", "g1_neg", "norm1")][0] = floor
        y[rows("g2_pos", "g2_neg", "norm2")][0] = floor * robust["lipschitz"]

        assert np.all(y * sense >= 0.0)                           # inequality rows are <=
        free = np.concatenate([np.full(block.size, not block.nonneg)
                               for block in lp._blocks.values()])
        combined = y @ A
        size = np.abs(y) @ np.abs(A)                              # magnitude of the summed terms
        assert np.all(np.abs(combined[free]) <= 1e-12 * np.maximum(size[free], 1.0))
        assert np.all(combined[~free] >= -1e-12 * np.maximum(size[~free], 1.0))
        assert abs(y @ b - (g[i] - floor)) <= 1e-12 * floor
        assert y @ b < 0.0

    @pytest.mark.parametrize("w_bound", [-1e-3, float("nan")])
    def test_invalid_disturbance_bound_refused(self, w_bound, secv_data, secv_set):
        with pytest.raises(ValueError, match="w_bound must be non-negative"):
            synthesis.synthesize_robust(secv_data, secv_set, w_bound)

    def test_infinite_disturbance_bound_is_the_noise_floor_verdict(self, secv_data, secv_set):
        with pytest.raises(SynthesisInfeasibleError, match="noise floor") as err:
            synthesis.synthesize_robust(secv_data, secv_set, float("inf"))
        assert err.value.outcome is None

    def test_gm_values(self, secv_set):
        # hand computation: max row norms are 0.6 (one) and 0.4 (inf)
        w = 0.05
        gm_one = w * float(np.max(polytope.row_norms(secv_set.normals)))
        gm_inf = w * float(np.max(np.abs(secv_set.normals)))
        assert abs(gm_one - 0.03) <= 1e-15
        assert abs(gm_inf - 0.02) <= 1e-15

    def test_zero_disturbance_matches_noiseless(self, secv_data, secv_set, secv_design):
        controller, cert = synthesis.synthesize_robust(
            secv_data, secv_set, w_bound=0.0)
        assert np.max(cert.row_offsets) <= 1e-9
        assert abs(cert.contraction - secv_design[1].contraction) <= 1e-9
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
            data, box_set, w_bound=w)
        assert np.min(cert.row_offsets) > 0.0
        assert cert.contraction <= 0.98
        true_rem = plant.a2 + plant.b @ controller.k2
        assert 0.0 < np.max(np.abs(true_rem)) < 0.05  # leakage, not cancellation
        report = verify.grid_reports(
            true_loop(plant, controller), box_set, 0.98, w, (101, 101), dictionary)[0]
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
            data, box_set, w_bound=w)
        assert cert.contraction <= 0.98
        box = interval_enclosure(box_set)
        lip = data.dictionary.lipschitz_bound(box)
        gm = w * float(np.max(polytope.row_norms(box_set.normals)))
        ninf = lambda m: float(np.max(np.abs(m).sum(axis=1)))
        budget = gm * box.max_abs * data.n_samples * (
            ninf(controller.g1) + lip * ninf(controller.g2) + 1.0)
        # the noise margin is the same on every row
        assert np.all(cert.row_offsets == cert.row_offsets[0])
        assert budget <= cert.row_offsets[0] + 1e-6
        assert cert.row_offsets[0] > 0.0
        assert_certificate_valid(data, box_set, controller, cert)


class TestInfeasiblePlant:
    def test_uncontrollable_unstable_plant_refused(self, secv_set, secv_dictionary):
        # uncontrollable unstable plant: no design can be feasible
        bad = PlantModel(a1=2.0 * np.eye(2), a2=[[0.0, 0.0], [0.0, 0.0]],
                         b=[[0.0], [0.0]], dictionary=secv_dictionary, w_bound=0.0)
        data = collect(bad, 40, 0.5, [0.01, 0.01], seed=3)
        with pytest.raises((SynthesisInfeasibleError, RankDeficientDataError)):
            synthesis.synthesize_noiseless(data, secv_set)


class TestCertificateReplay:
    @pytest.mark.parametrize("problem", ["secV", "duo"])
    @pytest.mark.parametrize("method", synthesis.METHODS)
    def test_every_method_replays_from_raw_matrices(self, secv_data, method, problem):
        # one certificate type and one formula, mult @ g + row_offsets <=
        # level * g, for all three methods; cor2 takes a disturbance small
        # enough for its noise margin to fit
        safe_set, data = {"secV": lambda: (PolyhedralSet(SECV_F, SECV_G), secv_data),
                          "duo": lambda: duo_problem(160)}[problem]()
        controller, cert = {
            "thm2": lambda: synthesis.synthesize_noiseless(data, safe_set),
            "cor2": lambda: synthesis.synthesize_robust(data, safe_set, w_bound=1e-6),
            "thm1": lambda: synthesis.synthesize_min_remainder(data, safe_set),
        }[method]()
        assert isinstance(cert, synthesis.SynthesisCertificate) and cert.method == method
        assert_certificate_valid(data, safe_set, controller, cert)
        if method == "thm2":
            assert np.all(cert.row_offsets == 0.0)
        elif method == "cor2":
            # the noise margin, on every row
            assert cert.row_offsets[0] > 0.0 and np.all(cert.row_offsets == cert.row_offsets[0])
        else:
            # the searched remainder bounds
            search = synthesis.baseline_search(data, safe_set)
            assert cert.row_offsets.tobytes() == search.row_bounds.tobytes()
        # the certificate text carries the row offsets to the last bit
        line = next(line for line in synthesis.format_certificate(controller, cert).splitlines()
                    if line.startswith("row offsets: "))
        assert [float(v) for v in line.split(": ")[1].split(", ")] == cert.row_offsets.tolist()


class TestBaseline:
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: thm1's row bounds are sampled "
                       "maxima, so its certificate can claim a level its closed loop misses")
    def test_claimed_level_passes_the_data_grid(self):
        # curvature in the first state, which the input cannot reach: the
        # certificate replays (largest residual 1.6e-15) and claims 0.9, yet
        # at that level the 201^2 data-rep grid without disturbance finds 1
        # violation, worst margin +9.72e-4 (the 1001^2 grid: 18, +9.95e-4).
        # Sound row bounds make it pass.
        safe_set, data = duo_variant([[-0.04, 0.0, -0.03], [1.0, 0.5, -0.5]])
        controller, cert = synthesis.synthesize_min_remainder(data, safe_set)
        assert cert.max_residual <= 1e-12
        (report,) = verify.grid_reports(data_loop(data, controller), safe_set, cert.contraction,
                                        0.0, (201, 201), data.dictionary)
        assert report.passed, (float(np.max(report.row_margins)), report.violations)

    def test_unreachable_curvature_level_passes_the_data_grid(self):
        # the first state's own curvature alone: the LP gain claims 0.915
        # and passes the 1001^2 data-rep grid
        # and pass the data grid; its row offsets are the nonzero remainder
        # bounds, and its certificate replays from raw matrices
        safe_set, data = duo_variant([[-0.04, 0.0, 0.0], [1.0, 0.5, -0.5]])
        controller, cert = synthesis.synthesize_min_remainder(data, safe_set)
        assert cert.max_residual <= 1e-12
        assert cert.contraction <= 0.92
        assert np.max(cert.row_offsets) > 0.1
        assert_certificate_valid(data, safe_set, controller, cert)
        (report,) = verify.grid_reports(data_loop(data, controller), safe_set, cert.contraction,
                                        0.0, (1001, 1001), data.dictionary)
        assert report.passed, (float(np.max(report.row_margins)), report.violations)

    def test_secv_finds_cancellation(self, secv_data, secv_set):
        controller, cert = synthesis.synthesize_min_remainder(secv_data, secv_set)
        np.testing.assert_allclose(controller.k2, [[-1.0, -1.0]], atol=1e-9)
        assert np.max(np.abs(cert.row_offsets)) <= 1e-9
        assert abs(cert.contraction - 0.758333) <= 1e-6
        # baseline conditions replay at the certified level
        ps = cert.set_multiplier
        g1 = controller.g1
        assert np.max(ps @ SECV_G + cert.row_offsets - cert.contraction * SECV_G) <= 1e-6
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
        controller, cert = synthesis.synthesize_min_remainder(data, box)
        np.testing.assert_allclose(controller.k2, [[-0.3, 0.0], [0.0, -0.2]], atol=1e-9)
        assert np.max(np.abs(cert.row_offsets)) <= 1e-9

    def test_grid_refinement_stability(self, secv_set, monkeypatch):
        # nonzero remainder bound case: fix a plant whose cancellation is
        # outside the gain box; at the winner, a grid of about twice the
        # default resolution moves the row maxima of the sample by less than
        # lipschitz * sample cell diagonal * max row coefficient norm
        dictionary = Dictionary([Monomial((2, 0)), Monomial((0, 2))], 2)
        plant = PlantModel(a1=[[0.8, 0.5], [-0.4, 1.2]], a2=[[0.0, 0.0], [1.0, 1.0]],
                           b=[[0.0], [1.0]], dictionary=dictionary, w_bound=0.0)
        data = collect(plant, 40, 0.003, [0, 0], seed=7)
        monkeypatch.setattr(synthesis, "_K2_BOUND", 0.5)
        search = synthesis.baseline_search(data, secv_set)
        coeffs = secv_set.normals @ data.next_states @ search.g2
        fine = np.max(coeffs @ dictionary.remainder(grid_members(secv_set, (201, 201))).T,
                      axis=1)
        box = interval_enclosure(secv_set)
        lip = dictionary.lipschitz_bound(box)
        cell = np.linalg.norm((box.hi - box.lo) / (np.array(grid_resolution(2)) - 1))
        bound = lip * cell * float(np.max(np.abs(coeffs).sum(axis=1)))
        assert np.max(search.row_bounds) > bound
        assert np.max(np.abs(search.row_bounds - fine)) <= bound

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
            remainders=rem.T, dictionary=d)
        with pytest.raises(RankDeficientDataError):
            synthesis.baseline_search(data, secv_set)

    def test_noisy_data_refused(self):
        # next_states off the row space of the stacked data: no gain's
        # right-inverse columns give the closed-loop remainder they claim
        dictionary = Dictionary([Monomial((2, 0)), Monomial((0, 2)), Monomial((1, 1))], 2)
        plant = PlantModel(a1=[[0.7, 0.3], [-0.2, 0.9]], a2=[[0.0, 0.0, 0.0], [1.0, 0.5, -0.5]],
                           b=[[0.0], [1.0]], dictionary=dictionary, w_bound=0.001)
        safe_set = PolyhedralSet(SECV_F, SECV_G)
        data = collect_informative(plant, 160, 0.05, [0.0, 0.0], 7, with_noise=True,
                                   safe_set=safe_set)
        messages = set()
        for design in (synthesis.synthesize_noiseless, synthesis.baseline_search,
                       synthesis.synthesize_min_remainder):
            with pytest.raises(InconsistentDataError, match="off the row space") as err:
                design(data, safe_set)
            messages.add(str(err.value))
        assert len(messages) == 1


def grid_scores(data, safe_set, k2_step):
    """Every gain of a coarse grid in the search's box, scored the way the
    search scores its winner: its row maxima over the set's sample, the
    default grid plus the vertices.  Returns the gains ``(G, m*N)`` and their row maxima
    ``(G, s)``."""
    F = safe_set.normals
    n, N, m = data.state_dim, data.n_terms, data.input_dim
    rem = data.dictionary.remainder(sample_points(safe_set).T)
    f_next = F @ data.next_states
    pinv = np.linalg.pinv(np.vstack([data.regressor, data.inputs]))
    base, gain_map = pinv[:, n:n + N], pinv[:, n + N:]
    bound = synthesis._K2_BOUND
    axis = np.arange(-bound, bound + k2_step / 2, k2_step)
    gains = np.array(list(itertools.product(axis, repeat=m * N)))
    bounds = np.array([np.max(f_next @ (base + gain_map @ k2.reshape(m, N)) @ rem.T, axis=1)
                       for k2 in gains])
    return gains, bounds


def duo_variant(a2, b=((0.0,), (1.0,))):
    """The duo plant with other remainder (and input) matrices, T=160."""
    safe_set = PolyhedralSet(SECV_F, SECV_G)
    dictionary = Dictionary([Monomial((2, 0)), Monomial((0, 2)), Monomial((1, 1))], 2)
    plant = PlantModel(a1=[[0.7, 0.3], [-0.2, 0.9]], a2=a2, b=b,
                       dictionary=dictionary, w_bound=0.02)
    data = collect_informative(plant, 160, 0.05, [0.0, 0.0], 7,
                               safe_set=safe_set)
    return safe_set, data


class TestBaselineSearchIsExact:
    """The LP gain scores no worse than any gain of a coarse grid, and is the
    grid's gain where that one cancels the remainder."""

    def assert_no_grid_gain_beats(self, data, safe_set, k2_step):
        search = synthesis.baseline_search(data, safe_set)
        gains, bounds = grid_scores(data, safe_set, k2_step)
        assert search.row_bounds.max() <= bounds.max(axis=1).min() + 1e-12
        np.testing.assert_array_equal(search.candidates[-1], search.k2.ravel())
        return search, gains, bounds

    def assert_matches_grid(self, data, safe_set):
        search, gains, bounds = self.assert_no_grid_gain_beats(data, safe_set, 0.5)
        best = int(np.argmin(bounds.max(axis=1)))
        np.testing.assert_allclose(search.k2.ravel(), gains[best], atol=1e-12)
        np.testing.assert_allclose(search.row_bounds, bounds[best], atol=1e-12)
        assert np.max(np.abs(search.row_bounds)) <= 1e-12
        return search

    def test_secv(self, secv_data, secv_set):
        self.assert_matches_grid(secv_data, secv_set)

    def test_duo(self):
        # a handful of LPs
        safe_set, data = duo_problem(160)
        search = self.assert_matches_grid(data, safe_set)
        assert search.candidates.shape[1] == 3 and len(search.candidates) <= 5

    def test_tri(self):
        safe_set, data = tri_problem(160)
        self.assert_matches_grid(data, safe_set)

    @pytest.mark.parametrize("a2", [[[0.2, 0.0, 0.1], [1.0, 0.5, -0.5]],
                                    [[0.0, 0.0, 0.0], [3.0, 0.5, -0.5]]])
    def test_non_cancelling_duo_variants(self, a2):
        # no gain in the box cancels the remainder, so the best score is positive
        safe_set, data = duo_variant(a2)
        search, _, _ = self.assert_no_grid_gain_beats(data, safe_set, 0.2)
        assert search.row_bounds.max() > 0.1

    def test_duo_variant_with_unreachable_curvature(self):
        # the first state's own curvature, which the input cannot reach: the
        # LP gain scores 0.240, the best gain of a 0.1-step grid 0.271
        safe_set, data = duo_variant([[-0.04, 0.0, 0.0], [1.0, 0.5, -0.5]])
        search, _, bounds = self.assert_no_grid_gain_beats(data, safe_set, 0.2)
        assert 0.1 < search.row_bounds.max() < bounds.max(axis=1).min() - 0.01

    def test_one_gain_entry(self, secv_plant, secv_set):
        # one input and one term (m*N = 1)
        dictionary = Dictionary([Monomial((2, 0))], 2)
        plant = PlantModel(a1=secv_plant.a1, a2=[[0.0], [1.0]], b=[[0.0], [1.0]],
                           dictionary=dictionary, w_bound=0.0)
        data = collect(plant, 40, 0.003, [0.0, 0.0], seed=7)
        search, _, _ = self.assert_no_grid_gain_beats(data, secv_set, 0.1)
        assert search.candidates.shape[1] == 1

    def test_four_gain_entries(self, secv_plant, secv_set):
        # two inputs that both act and two terms (m*N = 4)
        plant = PlantModel(a1=secv_plant.a1, a2=secv_plant.a2, b=[[0.5, 0.0], [1.0, 1.0]],
                           dictionary=secv_plant.dictionary, w_bound=0.0)
        data = collect(plant, 40, 0.003, [0.0, 0.0], seed=7)
        search, _, _ = self.assert_no_grid_gain_beats(data, secv_set, 0.5)
        assert search.candidates.shape[1] == 4

    def test_no_gain_grid_is_built(self, secv_plant, secv_set):
        # two inputs and two terms (m*N = 4): a 0.1-step gain grid would hold
        # 41^4 gains, 90 MB; the search keeps only its LP iterates
        plant = PlantModel(a1=secv_plant.a1, a2=[[0.0, 0.0], [3.0, 1.0]], b=np.eye(2),
                           dictionary=secv_plant.dictionary, w_bound=0.0)
        data = collect(plant, 40, 0.003, [0.0, 0.0], seed=7)
        tracemalloc.start()
        try:
            search = synthesis.baseline_search(data, secv_set)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 41 ** 4 * 4 * 8 / 50, peak
        assert search.candidates.shape[1] == 4 and len(search.candidates) <= 20
        np.testing.assert_array_equal(search.candidates[-1], search.k2.ravel())

    @pytest.mark.parametrize("b", [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]])
    def test_rounding_level_near_ties(self, secv_plant, secv_set, b):
        # an idle or a duplicated input leaves whole sets of gains whose
        # scores differ only by rounding; the LP settles on one of them
        plant = PlantModel(a1=secv_plant.a1, a2=secv_plant.a2, b=b,
                           dictionary=secv_plant.dictionary, w_bound=0.0)
        data = collect(plant, 40, 0.003, [0.0, 0.0], seed=7)
        self.assert_no_grid_gain_beats(data, secv_set, 0.5)

    def test_default_grid_is_unchanged(self, secv_data, secv_set):
        # the default box [-2, 2] holds the cancelling gain, which the LP
        # reaches to within rounding
        controller, cert = synthesis.synthesize_min_remainder(secv_data, secv_set)
        np.testing.assert_allclose(controller.k2, [[-1.0, -1.0]], rtol=0, atol=1e-12)
        assert abs(cert.contraction - 0.7583333333333429) <= 1e-12


class TestLumpedBounds:
    def test_zero_disturbance_reduces_to_grid_max(self, secv_data, secv_set, secv_design):
        controller, _ = secv_design
        bounds = verify.lumped_disturbance_bounds(
            secv_data, secv_set, controller, w_bound=0.0)
        rem = secv_data.dictionary.remainder(sample_points(secv_set).T)
        coeffs = secv_set.normals @ secv_data.next_states @ controller.g2
        np.testing.assert_allclose(bounds, np.max(coeffs @ rem.T, axis=1), atol=1e-12)

    def test_monotone_in_disturbance(self, secv_data, secv_set, secv_design):
        controller, _ = secv_design
        b0 = verify.lumped_disturbance_bounds(secv_data, secv_set, controller, 0.0)
        b1 = verify.lumped_disturbance_bounds(secv_data, secv_set, controller, 0.05)
        assert np.all(b1 >= b0)

    def test_pinv_controller_dominates_its_noiseless_run(self, secv_data, secv_set):
        right_inv = np.linalg.pinv(secv_data.regressor)
        g1, g2 = right_inv[:, :2], right_inv[:, 2:]
        controller = synthesis.Controller(
            k1=secv_data.inputs @ g1, k2=secv_data.inputs @ g2, g1=g1, g2=g2)
        b0 = verify.lumped_disturbance_bounds(secv_data, secv_set, controller, 0.0)
        b1 = verify.lumped_disturbance_bounds(secv_data, secv_set, controller, 0.05)
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
        bounds = verify.lumped_disturbance_bounds(data, box, zero, w_bound=0.05)
        np.testing.assert_allclose(
            bounds, 0.05 * polytope.row_norms(box.normals), atol=1e-12)


class TestMinimalContraction:
    """Each design certifies its smallest level, read off one level-1 solve."""

    def test_exact_level_brackets(self, secv_data, secv_set):
        # the level is exact: both certificates replay at it, and a row of
        # each is tight there, so the same multipliers fail just below it
        # (that no other multipliers do is the HiGHS optimum check below)
        g = secv_set.offsets
        controller, cert = synthesis.synthesize_noiseless(secv_data, secv_set)
        assert abs(cert.contraction - 0.758333) <= 1e-6
        assert_certificate_valid(secv_data, secv_set, controller, cert)
        rows = cert.set_multiplier @ g
        assert abs(np.max(rows / g) - cert.contraction) <= 1e-9
        _, cert = synthesis.synthesize_min_remainder(secv_data, secv_set)
        assert abs(cert.contraction - 0.758333) <= 1e-6
        assert cert.residuals["contraction"] <= 1e-9
        rows = cert.set_multiplier @ g + cert.row_offsets
        assert abs(np.max(rows / g) - cert.contraction) <= 1e-9

    def test_degenerate_disturbance_agrees(self, secv_data, secv_set):
        _, a = synthesis.synthesize_noiseless(secv_data, secv_set)
        _, b = synthesis.synthesize_robust(secv_data, secv_set, w_bound=0.0)
        assert abs(a.contraction - b.contraction) <= 1e-9

    def test_margin_is_level_headroom(self, secv_data, secv_set, solved_programs):
        # rescaling rows gives the same set with unequal offsets: the level
        # must not move, and it is 1 minus the program's optimal headroom
        scale = np.array([2.0, 1.0, 0.5, 1.0])
        rescaled = PolyhedralSet(SECV_F * scale[:, None], SECV_G * scale)
        _, cert = synthesis.synthesize_noiseless(secv_data, secv_set)
        _, scaled = synthesis.synthesize_noiseless(secv_data, rescaled)
        assert abs(scaled.contraction - cert.contraction) <= 1e-9
        assert scaled.contraction == 1.0 - solved_programs[-1][1].objective

    def test_level_zero_is_clamped(self):
        # two inputs cancel the whole closed loop, so the minimal level is 0;
        # unclamped, 1 - headroom comes out about -3e-15 on this data
        dictionary = Dictionary([Monomial((2, 0))], 2)
        plant = PlantModel(a1=[[0.4, 0.1], [0.0, 0.3]], a2=[[0.05], [0.02]],
                           b=np.eye(2), dictionary=dictionary, w_bound=0.0)
        box = PolyhedralSet([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        data = collect(plant, 8, 0.3, [0.1, 0.1], seed=2)
        for method, design in (("thm2", synthesis.synthesize_noiseless(data, box)),
                               ("cor2", synthesis.synthesize_robust(data, box, w_bound=0.0))):
            assert 0.0 <= design[1].contraction <= 1e-9, method

    def test_three_state_baseline(self):
        # the set's sample at n=3 (22 points per axis, then the vertices);
        # the LP finds the exact cancelling gain
        P = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.25], [0.2, 0.0, 1.0]])
        safe_set = PolyhedralSet(np.vstack([0.5 * P, -0.5 * P]), np.ones(6))
        dictionary = Dictionary(
            [Monomial((2, 0, 0)), Monomial((0, 2, 0)), Monomial((1, 0, 1))], 3)
        plant = PlantModel(a1=[[0.7, 0.2, 0.0], [0.0, 0.6, 0.3], [0.2, -0.3, 1.1]],
                           a2=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.5, -0.5]],
                           b=[[0.0], [0.0], [1.0]], dictionary=dictionary, w_bound=0.02)
        data = collect(plant, 40, 0.01, [0.0, 0.0, 0.0], seed=11)
        controller, cert = synthesis.synthesize_min_remainder(data, safe_set)
        np.testing.assert_allclose(controller.k2, [[-1.0, -0.5, 0.5]], atol=1e-12)
        assert 0.0 < cert.contraction < 1.0
        assert cert.residuals["contraction"] <= 1e-9
        assert verify.control_effort(controller, safe_set, dictionary) > 0.0
        bounds = verify.lumped_disturbance_bounds(data, safe_set, controller, 0.02)
        assert bounds.shape == (6,)

    def test_infeasible_plant_raises(self, secv_set, secv_dictionary):
        bad = PlantModel(a1=2.0 * np.eye(2), a2=np.zeros((2, 2)), b=[[0.0], [0.0]],
                         dictionary=secv_dictionary, w_bound=0.0)
        data = collect(bad, 40, 0.5, [0.01, 0.01], seed=3)
        with pytest.raises((SynthesisInfeasibleError, RankDeficientDataError)):
            synthesis.synthesize_noiseless(data, secv_set)


POLYGON_LEVEL = 0.7928008748828859  # duo plant on the regular polygons below


class TestRegularPolygons:
    """Sets without antipodal rows: the remainder is still pinned to zero."""

    @pytest.mark.parametrize("sides", [3, 5, 7])
    def test_duo_plant_cancels_remainder(self, sides):
        # no two normals are opposite, so no pairing of rows can zero the
        # remainder coefficients; pinning the closed-loop remainder does,
        # and then thm2 and thm1 certify the same level
        angles = 0.3 + 2.0 * np.pi * np.arange(sides) / sides
        safe_set = PolyhedralSet(np.column_stack([np.cos(angles), np.sin(angles)]),
                                 np.ones(sides))
        dictionary = Dictionary([Monomial((2, 0)), Monomial((0, 2)), Monomial((1, 1))], 2)
        plant = PlantModel(a1=[[0.7, 0.3], [-0.2, 0.9]], a2=[[0.0, 0.0, 0.0], [1.0, 0.5, -0.5]],
                           b=[[0.0], [1.0]], dictionary=dictionary, w_bound=0.0)
        data = collect_informative(plant, 160, 0.05, [0.0, 0.0], 7,
                                   safe_set=safe_set)
        controller, cert = synthesis.synthesize_noiseless(data, safe_set)
        level = cert.contraction
        assert abs(level - POLYGON_LEVEL) <= 1e-9
        assert abs(level - synthesis.synthesize_min_remainder(data, safe_set)[1].contraction) <= 1e-9
        assert_certificate_valid(data, safe_set, controller, cert)
        np.testing.assert_allclose(controller.k2, [[-1.0, -0.5, 0.5]], atol=1e-6)
        report = verify.grid_reports(true_loop(plant, controller), safe_set, level + 1e-9, 0.0,
                                     (101, 101), dictionary)[0]
        assert report.passed


TRI_LEVEL = 0.9102463054187188  # tri thm2 minimal level, T=60 and T=160


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
    def test_auto_design_solves_once(self, solved_programs):
        # one design program, whose controller replays its certificate
        safe_set, data = tri_problem(60)
        controller, cert = synthesis.synthesize_noiseless(data, safe_set)
        designs = [lp for lp, _ in solved_programs if "mult" in lp._blocks]
        assert len(designs) == 1
        assert_certificate_valid(data, safe_set, controller, cert)

    def test_inputs_without_effect_fix_the_closed_loop(self):
        # with b = 0 no gain moves the closed loop off the open loop, and on
        # the unit box its level is the induced infinity norm of a1
        dictionary = Dictionary([Monomial((2, 0)), Monomial((0, 2))], 2)
        a1 = 0.6 * np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
        plant = PlantModel(a1=a1, a2=np.zeros((2, 2)), b=[[0.0], [0.0]],
                           dictionary=dictionary, w_bound=0.0)
        box = PolyhedralSet([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        data = collect(plant, 8, 0.3, [0.5, 0.3], seed=2)
        level = synthesis.synthesize_noiseless(data, box)[1].contraction
        assert abs(level - np.max(np.abs(a1).sum(axis=1))) <= 1e-9

    def test_program_size_does_not_grow_with_samples(self, solved_programs):
        sizes = []
        for samples in (40, 160):
            safe_set, data = duo_problem(samples)
            synthesis.synthesize_noiseless(data, safe_set)
            thm2 = solved_programs[-1][0]
            synthesis.synthesize_min_remainder(data, safe_set)
            thm1 = solved_programs[-1][0]
            sizes.append([(lp.n_constraints, lp.n_variables) for lp in (thm2, thm1)])
        assert sizes[0] == sizes[1]
        # 1 + 4 + 8 rows; 2 loop + 16 multiplier + 1 slack columns, for both
        assert sizes[0] == [(13, 19), (13, 19)]

    @pytest.mark.parametrize("problem", ["secV", "duo", "tri"])
    def test_thm2_and_thm1_pose_one_program(self, problem, secv_data, solved_programs):
        # with the remainder columns fixed first (thm2's closed-form pin,
        # thm1's searched gain), both pose the program over the linear columns
        safe_set, data = {"secV": lambda: (PolyhedralSet(SECV_F, SECV_G), secv_data),
                          "duo": lambda: duo_problem(160),
                          "tri": lambda: tri_problem(160)}[problem]()
        programs = []
        for design in (synthesis.synthesize_noiseless, synthesis.synthesize_min_remainder):
            design(data, safe_set)
            lp = solved_programs[-1][0]
            programs.append((sorted(lp._blocks), lp.n_constraints, lp.n_variables))
        assert programs[0] == programs[1]
        assert programs[0][0] == ["mult", "slack", "w1"]

    @pytest.mark.parametrize("problem", ["secV", "duo", "tri40", "tri60", "tri160"])
    def test_design_programs_match_highs(self, problem, secv_data, solved_programs):
        safe_set, data = {
            "secV": lambda: (PolyhedralSet(SECV_F, SECV_G), secv_data),
            "duo": lambda: duo_problem(160),
            "tri40": lambda: tri_problem(40),
            "tri60": lambda: tri_problem(60),
            "tri160": lambda: tri_problem(160),
        }[problem]()
        synthesis.synthesize_noiseless(data, safe_set)
        if problem in ("secV", "duo"):
            # the noise floor decides cor2 without a solve, so pose the raw
            # program directly: the simplex and HiGHS must both call it infeasible
            with pytest.raises(SynthesisInfeasibleError, match="noise floor"):
                synthesis.synthesize_robust(data, safe_set, w_bound=0.02)
            outcome = synthesis._robust_program(data, safe_set,
                                                robust_terms(data, safe_set, 0.02)).solve()
            assert outcome.status == lpcore.LpStatus.INFEASIBLE
        designs = [(lp, out) for lp, out in solved_programs if "mult" in lp._blocks]
        assert len(designs) == (2 if problem in ("secV", "duo") else 1)
        for lp, outcome in designs:
            status, objective = highs_outcome(lp)
            assert outcome.status == status
            if status == lpcore.LpStatus.OPTIMAL:
                assert abs(outcome.objective - objective) <= 1e-9


def matched_rows(safe_set, loop_linear, mult, level, row_offsets, points):
    """Row ``i``'s ``level g_i - offset_i - F_i L x - sum_j mult_ij (g_j - F_j x)``
    at each of ``points`` (k, n), one row per contraction row."""
    F, g = safe_set.normals, safe_set.offsets
    facets = g[:, None] - F @ points.T                             # (s, k)
    return ((level * g - row_offsets)[:, None] - F @ loop_linear @ points.T
            - mult @ facets)


class TestCoefficientMatching:
    def test_unit_box_by_hand(self):
        # on |x_k| <= 1 with L = diag(0.5, 0.25), row 0 reads 1 - 0.5 x1 and
        # its facets are 1 - x1, 1 + x1, 1 - x2, 1 + x2: matching x1 forces
        # mult[0, 0] - mult[0, 1] = 0.5, so the cheapest constant leaves 0.5,
        # the level
        box = PolyhedralSet([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        loop = np.diag([0.5, 0.25])
        lp = lpcore.LinearProgram()
        synthesis._match(lp, box, box.normals @ loop, {}, box.offsets)
        outcome = lp.solve()
        level = 1.0 - outcome.objective
        assert abs(level - 0.5) <= 1e-12
        assert abs(outcome["mult"][0, 0] - 0.5) <= 1e-12
        assert abs(outcome["mult"][1, 1] - 0.5) <= 1e-12
        points = np.random.default_rng(0).uniform(-1.0, 1.0, (50, 2))
        rows = matched_rows(box, loop, outcome["mult"], level, np.zeros(4), points)
        assert np.all(np.ptp(rows, axis=1) <= 1e-12)
        assert np.min(rows) >= -1e-12

    @pytest.mark.parametrize("problem,method", [("secV", "thm2"), ("tri", "thm2"),
                                                ("secV", "cor2")])
    def test_solved_designs_match_coefficients(self, problem, method, secv_data):
        # every design's certificate is the degree-1 identity: each row's
        # polynomial less its facet combination is a nonnegative constant
        safe_set, data = {"secV": lambda: (PolyhedralSet(SECV_F, SECV_G), secv_data),
                          "tri": lambda: tri_problem(60)}[problem]()
        design = {"thm2": synthesis.synthesize_noiseless,
                  "cor2": lambda d, s: synthesis.synthesize_robust(d, s, w_bound=1e-7)}[method]
        controller, cert = design(data, safe_set)
        box = interval_enclosure(safe_set)
        points = np.random.default_rng(3).uniform(box.lo, box.hi, (50, safe_set.dim))
        rows = matched_rows(safe_set, data.next_states @ controller.g1, cert.set_multiplier,
                            cert.contraction, cert.row_offsets, points)
        assert np.all(np.ptp(rows, axis=1) <= 1e-9)
        assert np.min(rows) >= -1e-9

    @pytest.mark.parametrize("problem,size", [("secV", (114, 340)), ("duo", (365, 1620))])
    def test_robust_program_column_layout(self, problem, size, secv_data):
        # the simplex finishes cor2's program in this column order; another
        # order can run it to its pivot cap, which takes minutes to show
        safe_set, data = {"secV": lambda: (PolyhedralSet(SECV_F, SECV_G), secv_data),
                          "duo": lambda: duo_problem(160)}[problem]()
        lp = synthesis._robust_program(data, safe_set, robust_terms(data, safe_set, 1e-7))
        assert list(lp._blocks) == ["g1_pos", "g1_neg", "g2_pos", "g2_neg", "mult", "slack",
                                    "noise", "norm1", "norm2"]
        assert (lp.n_constraints, lp.n_variables) == size


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
        with pytest.raises((NumericalInstabilityError, SynthesisInfeasibleError)):
            synthesis.synthesize_noiseless(data, secv_set)
