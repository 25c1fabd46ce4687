from pathlib import Path

import numpy as np
import pytest

from polysafe import cli, datagen, lpcore
from polysafe.datagen import (
    ExperimentData,
    collect,
    collect_informative,
    identification_rank,
    regressor_rank,
)
from polysafe.dynamics import Dictionary, Monomial, PlantModel
from polysafe.errors import RankDeficientDataError, TooFewSamplesError, TrajectoryDivergedError
from polysafe.polytope import PolyhedralSet
from conftest import SECV_F, SECV_G, stable_test_plant, tri_problem


def random_plant(rng, n, n_terms, m):
    terms = []
    for _ in range(n_terms):
        exps = [0] * n
        i, j = rng.integers(0, n, size=2)
        exps[i] += 1
        exps[j] += 1
        terms.append(Monomial(tuple(exps)))
    dictionary = Dictionary(terms, n)
    return PlantModel(
        a1=rng.uniform(-0.4, 0.4, size=(n, n)),
        a2=rng.uniform(-0.3, 0.3, size=(n, n_terms)),
        b=rng.uniform(-0.6, 0.6, size=(n, m)),
        dictionary=dictionary,
        w_bound=0.05,
    )


class TestCollect:
    def test_shapes(self, secv_plant, secv_data):
        assert secv_data.inputs.shape == (1, 40)
        assert secv_data.states.shape == (2, 40)
        assert secv_data.next_states.shape == (2, 40)
        assert secv_data.remainders.shape == (2, 40)
        assert secv_data.regressor.shape == (4, 40)

    def test_deterministic_for_seed(self, secv_plant):
        a = collect(secv_plant, 40, 0.003, [0, 0], seed=7)
        b = collect(secv_plant, 40, 0.003, [0, 0], seed=7)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.next_states, b.next_states)
        c = collect(secv_plant, 40, 0.003, [0, 0], seed=8)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_too_few_samples(self, secv_plant):
        with pytest.raises(TooFewSamplesError):
            collect(secv_plant, 4, 0.01, [0, 0], seed=7)

    def test_noiseless_identity(self, secv_plant, secv_data):
        # next_states = linear_base @ states + a2 @ remainders + b @ inputs exactly
        predicted = (secv_plant.linear_base() @ secv_data.states
                     + secv_plant.a2 @ secv_data.remainders
                     + secv_plant.b @ secv_data.inputs)
        assert np.max(np.abs(secv_data.next_states - predicted)) <= 1e-12

    def test_regressor_stacking(self, secv_data):
        np.testing.assert_array_equal(
            secv_data.regressor,
            np.vstack([secv_data.states, secv_data.remainders]))
        # the pseudo-inverse and the certificate residuals round by layout
        assert secv_data.regressor.flags.f_contiguous

    def test_divergence_guard(self, secv_plant, secv_set):
        # strong excitation blows the unstable plant out of twice the box;
        # the error names the first step outside and the state there
        with pytest.raises(TrajectoryDivergedError) as err:
            collect(secv_plant, 40, 0.5, [0, 0], seed=7,
                    safe_set=secv_set)
        assert str(err.value) == (
            "state [ 2.08814808 11.12566888] left twice the enclosure box at step 5")

    @pytest.mark.parametrize("x0, collected", [([10.0, 6.0], True), ([13.0, 0.0], False)],
                             ids=["inside-twice-the-box", "outside-twice-the-box"])
    def test_guard_is_twice_the_enclosure_box(self, secv_dictionary, monkeypatch, x0,
                                              collected):
        # a held state: (10, 6) leaves twice the set (F_0 x = 4.4 > 2) but not
        # twice its box [-12, 12] x [-7, 7], so it is collected; (13, 0)
        # leaves twice the box and raises.  Either way the box is solved once.
        solves = []
        maxima = lpcore.polytope_maxima
        monkeypatch.setattr(lpcore, "polytope_maxima",
                            lambda *args: solves.append(args) or maxima(*args))
        plant = PlantModel(a1=np.eye(2), a2=np.zeros((2, 2)), b=np.zeros((2, 1)),
                           dictionary=secv_dictionary, w_bound=0.0)
        safe_set = PolyhedralSet(SECV_F, SECV_G)  # a new set, whose box is not solved yet
        if collected:
            data = collect(plant, 10, 0.1, x0, seed=0, safe_set=safe_set)
            np.testing.assert_array_equal(data.next_states, np.tile([[10.0], [6.0]], 10))
        else:
            with pytest.raises(TrajectoryDivergedError,
                               match=r"state \[13.  0.\] left twice the enclosure box at step 1"):
                collect(plant, 10, 0.1, x0, seed=0, safe_set=safe_set)
        assert len(solves) == 1

    def test_trajectory_inside_twice_the_set_solves_no_enclosure(self, monkeypatch):
        # the tri-sweep experiment (T = 160) stays inside twice its set, so its
        # collection poses no enclosure LP
        solves = []
        monkeypatch.setattr(lpcore, "polytope_maxima", lambda *args: solves.append(args))
        safe_set, data = tri_problem(160)
        assert data.n_samples == 160 and not solves

    @pytest.mark.parametrize("u_max, x0, guarded, step", [
        (0.5, [0.0, 0.0], False, 14),      # without a guard the plant runs until it overflows
        (0.003, [1e200, 1e200], True, 1),  # a non-finite state is named before the guard
    ])
    def test_non_finite_state(self, secv_plant, secv_set, u_max, x0, guarded, step):
        with pytest.raises(TrajectoryDivergedError) as err:
            collect(secv_plant, 40, u_max, x0, seed=7, safe_set=secv_set if guarded else None)
        assert str(err.value) == f"state became non-finite at step {step}"

    def test_reseeding_gives_up(self, secv_plant, secv_set, monkeypatch):
        monkeypatch.setattr(datagen, "_MAX_ATTEMPTS", 3)
        with pytest.raises(TrajectoryDivergedError):
            collect_informative(secv_plant, 40, 0.5, [0, 0], seed=7, safe_set=secv_set)

    def test_rank_deficient_attempts_are_not_divergence(self, secv_dictionary, tmp_path):
        # with no input channel and the origin as start, every experiment stays
        # at the origin: the attempts are rank-deficient, none left the set
        plant = PlantModel(a1=[[0.8, 0.5], [-0.4, 1.2]], a2=[[0.0, 0.0], [1.0, 1.0]],
                           b=[[0.0], [0.0]], dictionary=secv_dictionary, w_bound=0.05)
        with pytest.raises(RankDeficientDataError) as err:
            collect_informative(plant, 40, 0.003, [0, 0], seed=7)
        assert not isinstance(err.value, TrajectoryDivergedError)
        assert str(err.value).startswith(
            "no informative experiment in 10 attempts (last rank diagnostic: rank 0/4 ")
        assert err.value.diagnostic.rank == 0 and not err.value.diagnostic.full_row_rank
        # the command-line exit code stays the one of every collection error
        scenario = cli.load_scenario(Path(__file__).resolve().parent.parent
                                     / "scenarios" / "secV.json")
        scenario.system.b = [[0.0], [0.0]]
        cli.save_scenario(scenario, tmp_path / "idle.json")
        assert cli.main(["collect", "--scenario", str(tmp_path / "idle.json"),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE

    def test_noise_recorded(self):
        plant = stable_test_plant()
        data = collect(plant, 20, 0.3, [0.1, 0.0], seed=1, with_noise=True)
        assert data.true_noise is not None
        assert np.max(np.abs(data.true_noise)) <= plant.w_bound
        assert np.max(np.abs(data.true_noise)) > 0.0


class TestRightInverseIdentities:
    def test_noiseless_closed_loop_identity(self):
        # pseudo-inverse right inverse reproduces [linear_base a2] + b @ inputs @ G
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(2, 5))
            n_terms = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            plant = random_plant(rng, n, n_terms, m)
            data = collect(plant, n + n_terms + 5, 0.5, rng.uniform(-0.3, 0.3, n),
                           seed=100 + trial)
            if not regressor_rank(data).full_row_rank:
                continue
            G = np.linalg.pinv(data.regressor)
            lhs = data.next_states @ G
            rhs = np.hstack([plant.linear_base(), plant.a2]) + plant.b @ (data.inputs @ G)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_noisy_residual_bounded_by_leakage(self):
        plant = stable_test_plant()
        data = collect(plant, 30, 0.3, [0.1, 0.0], seed=3, with_noise=True)
        assert regressor_rank(data).full_row_rank
        G = np.linalg.pinv(data.regressor)
        lhs = data.next_states @ G
        rhs = np.hstack([plant.linear_base(), plant.a2]) + plant.b @ (data.inputs @ G)
        leakage = np.max(np.abs(data.true_noise @ G))
        assert np.max(np.abs(lhs - rhs)) <= leakage + 1e-8


class TestRankChecks:
    def test_secv_full_ranks(self, secv_data):
        reg = regressor_rank(secv_data)
        assert reg.full_row_rank and reg.rank == 4
        ident = identification_rank(secv_data)
        assert ident.full_row_rank and ident.rank == 5

    def test_all_zero_data(self, secv_plant):
        data = collect(secv_plant, 40, 1e-30, [0, 0], seed=7)
        # inputs are ~1e-30: numerically zero relative to the rank threshold
        assert regressor_rank(data).rank == 0 or regressor_rank(data).singular_values[0] < 1e-20

    def test_duplicated_column_rank_one(self, secv_dictionary):
        col_x = np.array([[0.3], [0.2]])
        states = np.repeat(col_x, 8, axis=1)
        rem = secv_dictionary.remainder(states.T).T
        data = ExperimentData(
            inputs=np.ones((1, 8)),
            states=states,
            next_states=states,
            remainders=rem,
            dictionary=secv_dictionary,
        )
        assert regressor_rank(data).rank == 1
        assert not regressor_rank(data).full_row_rank

    def test_closed_loop_data_is_identification_deficient(self, secv_plant, secv_set):
        # inputs produced by a feedback law are linearly dependent on the regressor
        d = secv_plant.dictionary
        k1 = np.array([[0.3, -1.3]])
        k2 = np.array([[-1.0, -1.0]])
        x = np.array([0.4, 0.3])
        states, inputs = [], []
        for _ in range(30):
            u = k1 @ x + k2 @ d.remainder(x)
            states.append(x)
            inputs.append(u)
            x = secv_plant.step(x, u)
        states = np.array(states)
        rem = d.remainder(states)
        data = ExperimentData(
            inputs=np.array(inputs).T,
            states=states.T,
            next_states=np.roll(states, -1, axis=0).T,
            remainders=rem.T,
            dictionary=d,
        )
        assert not identification_rank(data).full_row_rank

    def test_reseeding_loop_returns_first_good(self, secv_plant, secv_data):
        data = collect_informative(secv_plant, 40, 0.003, [0, 0], seed=7)
        np.testing.assert_array_equal(data.inputs, secv_data.inputs)


class TestCsvExport:
    def test_export_and_reparse(self, secv_data, tmp_path):
        files = secv_data.export_csv(tmp_path)
        names = {f.name for f in files}
        assert names == {"inputs.csv", "states.csv", "next_states.csv",
                         "remainders.csv", "regressor.csv"}
        back = np.loadtxt(tmp_path / "regressor.csv", delimiter=",")
        np.testing.assert_array_equal(back, secv_data.regressor)
