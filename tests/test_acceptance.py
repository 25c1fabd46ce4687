"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from polysafe import cli, lpcore, synthesis, verify
from polysafe.datagen import collect, regressor_rank
from polysafe.dynamics import Dictionary, Monomial, PlantModel
from polysafe.polytope import enumerate_vertices, interval_enclosure

from conftest import SECV_F, SECV_G, SECV_VERTICES, grid_members
from test_synthesis import assert_certificate_valid

REPO_ROOT = Path(__file__).resolve().parent.parent


def _criterion(number, description, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} exceeded its {budget_seconds}s budget ({elapsed:.1f}s)")
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s)")


def _norm_inf(mat):
    return float(np.max(np.abs(np.atleast_2d(mat)).sum(axis=1)))


def test_criterion_1_closed_loop_identity():
    def body():
        rng = np.random.default_rng(2024)
        done = 0
        attempts = 0
        while done < 100:
            attempts += 1
            assert attempts < 500, "could not draw 100 informative systems"
            n = int(rng.integers(2, 5))
            n_terms = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            terms = []
            for _ in range(n_terms):
                exps = [0] * n
                i, j = rng.integers(0, n, size=2)
                exps[i] += 1
                exps[j] += 1
                terms.append(Monomial(tuple(exps)))
            plant = PlantModel(
                a1=rng.uniform(-0.4, 0.4, size=(n, n)),
                a2=rng.uniform(-0.3, 0.3, size=(n, n_terms)),
                b=rng.uniform(-0.6, 0.6, size=(n, m)),
                dictionary=Dictionary(terms, n),
                w_bound=0.0,
            )
            data = collect(plant, n + n_terms + 5, 0.5,
                           rng.uniform(-0.3, 0.3, size=n), seed=int(rng.integers(1 << 30)))
            if not regressor_rank(data).full_row_rank:
                continue
            right_inv = np.linalg.pinv(data.regressor)
            lhs = data.next_states @ right_inv
            rhs = (np.hstack([plant.linear_base(), plant.a2])
                   + plant.b @ (data.inputs @ right_inv))
            assert _norm_inf(lhs - rhs) <= 1e-8
            done += 1

    _criterion(1, "data-based closed-loop identity on 100 random systems", 10.0, body)


def test_criterion_2_certificate_replay(secv_data, secv_set):
    def body():
        runs = {
            "noiseless": lambda: synthesis.synthesize_noiseless(secv_data, secv_set),
            "robust-degenerate": lambda: synthesis.synthesize_robust(
                secv_data, secv_set, w_bound=0.0),
        }
        for name, run in runs.items():
            start = time.perf_counter()
            controller, cert = run()
            assert_certificate_valid(secv_data, secv_set, controller, cert)
            assert cert.max_residual <= 1e-6, name
            assert float(np.min(cert.set_multiplier)) >= -1e-9, name
            assert time.perf_counter() - start < 60.0, name

    _criterion(2, "synthesized certificates replay to stated tolerances", 125.0, body)


def test_criterion_3_end_to_end_report(tmp_path):
    def body():
        out = tmp_path / "report"
        code = cli.main(["report",
                         "--scenario", str(REPO_ROOT / "scenarios" / "secV.json"),
                         "--out", str(out)])
        doc = json.loads((out / "report.json").read_text())
        if code == cli.EXIT_OK:
            # branch (a): feasible at the scenario level and fully verified
            assert doc["status"] == "verified"
            assert doc["grid_true_model"]["passed"]
            assert doc["grid_data_rep"]["passed"]
            assert doc["grid_true_model"]["violations"] == 0
            assert doc["monte_carlo"]["mc"]["trajectories"] == 10000
            assert doc["monte_carlo"]["mc"]["horizon"] == 200
            assert doc["monte_carlo"]["mc"]["exits"] == 0
        else:
            # branch (b): infeasible at the requested level; the report gives
            # minimal levels and the minimal-level controller must verify
            assert code == cli.EXIT_INFEASIBLE
            assert doc["min_levels"][doc["method"]] is not None
            assert doc["status"] == "verified"
            assert doc["monte_carlo"]["mc"]["exits"] == 0

    _criterion(3, "shipped scenario report reaches a definitive verified verdict",
               120.0, body)


def test_criterion_4_strong_duality(secv_set):
    def body():
        vertices = np.array(enumerate_vertices(secv_set))
        rng = np.random.default_rng(31)
        for _ in range(50):
            linear_map = rng.normal(size=(2, 2))
            for i in range(4):
                functional = SECV_F[i] @ linear_map
                primal = float(np.max(vertices @ functional))
                lp = lpcore.LinearProgram()
                lp.add_block("alpha", (4,), nonneg=True)
                lp.add_constraint_rows({"alpha": SECV_F.T}, "=", functional)
                lp.set_objective("min", {"alpha": SECV_G})
                out = lp.solve()
                assert out.status == lpcore.LpStatus.OPTIMAL
                assert abs(primal - out.objective) <= 1e-7

    _criterion(4, "vertex primal equals dual LP minimum on 50 random maps", 10.0, body)


def test_criterion_5_interval_enclosure(secv_set):
    def body():
        box = interval_enclosure(secv_set)
        assert np.max(np.abs(box.lo - np.array([-6.0, -3.5]))) <= 1e-9
        assert np.max(np.abs(box.hi - np.array([6.0, 3.5]))) <= 1e-9
        assert abs(box.max_abs - 6.0) <= 1e-9
        got = sorted(tuple(np.round(v, 9)) for v in enumerate_vertices(secv_set))
        want = sorted(tuple(v) for v in SECV_VERTICES)
        assert got == want

    _criterion(5, "interval enclosure and vertices of the shipped safe set", 1.0, body)


def test_criterion_6_lipschitz_soundness(secv_set, secv_dictionary):
    def body():
        box = interval_enclosure(secv_set)
        bound = secv_dictionary.lipschitz_bound(box)
        assert abs(bound - 12.0) <= 1e-12
        rng = np.random.default_rng(41)
        x = rng.uniform(box.lo, box.hi, size=(100_000, 2))
        y = rng.uniform(box.lo, box.hi, size=(100_000, 2))
        lhs = np.max(np.abs(secv_dictionary.remainder(x)
                            - secv_dictionary.remainder(y)), axis=1)
        rhs = bound * np.max(np.abs(x - y), axis=1)
        assert np.all(lhs <= rhs + 1e-12)

    _criterion(6, "interval Lipschitz bound is 12 and sound on 1e5 pairs", 5.0, body)


def test_criterion_7_baseline_consistency(secv_data, secv_set):
    def body():
        controller, cert = synthesis.synthesize_min_remainder(secv_data, secv_set)
        box = interval_enclosure(secv_set)
        lip = secv_data.dictionary.lipschitz_bound(box)
        cell = float(np.linalg.norm((box.hi - box.lo) / np.array([100.0, 100.0])))
        coeffs = secv_set.normals @ secv_data.next_states @ controller.g2
        bound = lip * cell * float(np.max(np.abs(coeffs).sum(axis=1)))
        # the searched bounds are maxima over the 101 x 101 default grid and
        # the vertices; a 201 x 201 grid at the same gain moves them by less
        # than the refinement bound
        fine_grid = grid_members(secv_set, (201, 201))
        fine = np.max(coeffs @ secv_data.dictionary.remainder(fine_grid).T, axis=1)
        delta = float(np.max(np.abs(cert.row_offsets - fine)))
        # the winner cancels the remainder exactly, so both sides are float
        # dust; 1e-9 absorbs it without weakening the nonzero case
        assert delta < bound + 1e-9
        ps = cert.set_multiplier
        g1 = controller.g1
        assert np.max(ps @ SECV_G + cert.row_offsets - cert.contraction * SECV_G) <= 1e-6
        assert np.max(np.abs(ps @ SECV_F
                             - SECV_F @ secv_data.next_states @ g1)) <= 1e-6
        e1 = np.zeros((4, 2))
        e1[:2] = np.eye(2)
        assert np.max(np.abs(secv_data.regressor @ g1 - e1)) <= 1e-6
        assert float(np.min(ps)) >= -1e-9

    _criterion(7, "baseline bound is grid-stable and its program replays", 120.0, body)


def test_criterion_8_disturbance_bound_soundness(secv_set):
    def body():
        rng = np.random.default_rng(53)
        w = rng.uniform(-0.05, 0.05, size=(100_000, 2))
        values = w @ SECV_F.T
        sound = verify.disturbance_offsets(secv_set, 0.05)
        assert np.all(values <= sound + 1e-15)
        literal = 0.05 * np.abs(SECV_F).max(axis=1)
        assert np.any(values > literal + 1e-12), \
            "the max-entry reading must be violated by sampling"

    _criterion(8, "one-norm offsets sound, max-entry reading refuted", 5.0, body)


def test_criterion_9_degenerate_consistency(secv_data, secv_set):
    def body():
        _, thm2 = synthesis.synthesize_noiseless(secv_data, secv_set)
        _, cor2 = synthesis.synthesize_robust(secv_data, secv_set, w_bound=0.0)
        assert abs(thm2.contraction - cor2.contraction) <= 1e-9

    _criterion(9, "zero-disturbance robust level matches the noiseless level",
               120.0, body)
