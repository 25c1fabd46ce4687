import json
from pathlib import Path

import numpy as np
import pytest

from polysafe import cli, lpcore, synthesis, verify
from polysafe.errors import ScenarioValidationError

REPO_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "secV.json"


@pytest.fixture(scope="session")
def scenario_path(tmp_path_factory):
    # a fast variant of the shipped scenario for CLI round trips
    scenario = cli.secv_scenario()
    scenario.verify.grid = [41, 41]
    scenario.verify.mc_trajectories = 200
    scenario.verify.horizon = 50
    path = tmp_path_factory.mktemp("scenario") / "fast.json"
    cli.save_scenario(scenario, path)
    return path


class TestScenarioSchema:
    def test_shipped_file_is_valid(self):
        scenario = cli.load_scenario(REPO_SCENARIO)
        assert scenario.synthesis.method == "thm2"
        assert scenario.data.seed == 7
        assert scenario.data.samples == 40
        np.testing.assert_allclose(scenario.safe_set.offsets, np.ones(4))

    def test_shipped_file_matches_builtin(self):
        # scenarios/secV.json and cli.secv_scenario() are two copies of one scenario
        assert cli.load_scenario(REPO_SCENARIO).to_json() == cli.secv_scenario().to_json()

    def test_round_trip(self, tmp_path):
        scenario = cli.secv_scenario()
        path = tmp_path / "copy.json"
        cli.save_scenario(scenario, path)
        again = cli.load_scenario(path)
        assert again.to_json() == scenario.to_json()

    def test_zero_offset_rejected(self):
        doc = cli.secv_scenario().to_json()
        doc["safe_set"]["offsets"][0] = 0.0
        with pytest.raises(ScenarioValidationError, match="offsets"):
            cli.scenario_from_json(doc)

    def test_exponent_length_rejected(self):
        doc = cli.secv_scenario().to_json()
        doc["system"]["dictionary"][0]["exponents"] = [2]
        with pytest.raises(ScenarioValidationError, match="dictionary"):
            cli.scenario_from_json(doc)

    def test_unknown_term_kind_rejected(self):
        doc = cli.secv_scenario().to_json()
        doc["system"]["dictionary"][0] = {"kind": "tanh", "coord": 0}
        with pytest.raises(ScenarioValidationError, match="kind"):
            cli.scenario_from_json(doc)

    def test_too_few_samples_rejected(self):
        doc = cli.secv_scenario().to_json()
        doc["data"]["samples"] = 4
        with pytest.raises(ScenarioValidationError, match="samples"):
            cli.scenario_from_json(doc)

    def test_bad_method_rejected(self):
        doc = cli.secv_scenario().to_json()
        doc["synthesis"]["method"] = "thm9"
        with pytest.raises(ScenarioValidationError, match="method"):
            cli.scenario_from_json(doc)

    def test_version_checked(self):
        doc = cli.secv_scenario().to_json()
        doc["version"] = 2
        with pytest.raises(ScenarioValidationError, match="version"):
            cli.scenario_from_json(doc)

    @pytest.mark.parametrize("key, value", [("definiteness", "off"), ("dd_margin", 1e-6),
                                            ("objective", "margin"), ("row_norm", "one"),
                                            ("contraciton", 0.9)])
    def test_unknown_synthesis_key_rejected(self, key, value):
        # a removed or misspelt key must not silently fall back to a default
        doc = cli.secv_scenario().to_json()
        doc["synthesis"][key] = value
        with pytest.raises(ScenarioValidationError, match=f"synthesis.{key}: unknown key"):
            cli.scenario_from_json(doc)

    def test_unknown_synthesis_key_exit_one(self, tmp_path, capsys):
        doc = cli.secv_scenario().to_json()
        doc["synthesis"]["definiteness"] = "strict"
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["synth", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "synthesis.definiteness" in capsys.readouterr().err

    def test_error_messages_carry_field_paths(self):
        doc = cli.secv_scenario().to_json()
        doc["system"]["b"] = [[0.0]]
        with pytest.raises(ScenarioValidationError, match="system.b"):
            cli.scenario_from_json(doc)


class TestCommands:
    def test_missing_file_exit_one(self, tmp_path, capsys):
        code = cli.main(["report", "--scenario", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "not found" in capsys.readouterr().err

    def test_usage_error_exit_one(self, capsys):
        assert cli.main(["report"]) == cli.EXIT_USAGE

    def test_bad_override_exit_one(self, scenario_path, tmp_path):
        assert cli.main(["report", "--scenario", str(scenario_path),
                         "--out", str(tmp_path / "x"), "--lambda", "2.0"]) == cli.EXIT_USAGE
        assert cli.main(["report", "--scenario", str(scenario_path),
                         "--out", str(tmp_path / "y"), "--grid", "abc"]) == cli.EXIT_USAGE

    def test_collect_writes_data_and_ranks(self, scenario_path, tmp_path):
        out = tmp_path / "collect"
        assert cli.main(["collect", "--scenario", str(scenario_path),
                         "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["regressor_rank"]["full_row_rank"]
        assert (out / "data" / "regressor.csv").exists()

    def test_synth_writes_certificate(self, scenario_path, tmp_path):
        out = tmp_path / "synth"
        assert cli.main(["synth", "--scenario", str(scenario_path),
                         "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "feasible"
        np.testing.assert_allclose(np.array(summary["k2"]), [[-1.0, -1.0]], atol=1e-6)
        text = (out / "certificate.txt").read_text()
        assert "residuals" in text and "set_multiplier" in text

    def test_synth_infeasible_exit_two(self, scenario_path, tmp_path):
        out = tmp_path / "synth_cor2"
        code = cli.main(["synth", "--scenario", str(scenario_path), "--out", str(out),
                         "--method", "cor2"])
        assert code == cli.EXIT_INFEASIBLE
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "infeasible"

    def test_verify_passes(self, scenario_path, tmp_path):
        out = tmp_path / "verify"
        assert cli.main(["verify", "--scenario", str(scenario_path),
                         "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "pass"
        assert summary["monte_carlo"]["mc"]["exits"] == 0
        assert (out / "plot.svg").read_text().startswith("<svg")

    def test_verify_samples_the_grid_once(self, scenario_path, tmp_path, monkeypatch):
        # both grid checks, true model and data representation, share one grid
        grids = []
        sample = verify.sample_grid
        monkeypatch.setattr(verify, "sample_grid",
                            lambda *args: grids.append(args) or sample(*args))
        assert cli.main(["verify", "--scenario", str(scenario_path),
                         "--out", str(tmp_path / "once")]) == cli.EXIT_OK
        assert len(grids) == 1

    def test_simulate_csv_columns(self, scenario_path, tmp_path):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--scenario", str(scenario_path),
                         "--out", str(out)]) == cli.EXIT_OK
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x1,x2,u1"
        assert len(lines) == 52  # header + horizon + 1 states

    def test_sweep_reports_all_methods(self, scenario_path, tmp_path):
        out = tmp_path / "sweep"
        assert cli.main(["sweep-lambda", "--scenario", str(scenario_path),
                         "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert "tolerance" not in summary
        levels = summary["min_levels"]
        assert levels["cor2"] is None
        assert levels["thm2"] is not None and abs(levels["thm2"] - levels["thm1"]) <= 1e-9

    def test_sweep_rank_deficient_exit_two(self, tmp_path):
        # n=2, N=1, m=2 with samples=4 satisfies the regressor floor but the
        # stacked matrix has 5 rows and only 4 columns: thm1 cannot run
        doc = {
            "version": 1,
            "system": {
                "a1": [[0.4, 0.1], [0.0, 0.3]],
                "a2": [[0.05], [0.02]],
                "b": [[1.0, 0.0], [0.0, 1.0]],
                "dictionary": [{"kind": "monomial", "exponents": [2, 0]}],
                "w_bound": 0.0,
            },
            "safe_set": {"normals": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                         "offsets": [1.0, 1.0, 1.0, 1.0]},
            "data": {"samples": 4, "u_max": 0.3, "x0": [0.1, 0.1],
                     "seed": 2, "noise": False},
            "synthesis": {"method": "thm1"},
            "verify": {"grid": [11, 11], "mc_trajectories": 10, "horizon": 5},
        }
        path = tmp_path / "deficient.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sweep2"
        code = cli.main(["sweep-lambda", "--scenario", str(path), "--out", str(out),
                         "--method", "thm1"])
        assert code == cli.EXIT_INFEASIBLE

    def test_report_end_to_end(self, scenario_path, tmp_path, monkeypatch):
        # the thm1 gain search does not depend on the level, so one search
        # serves the sweep and the baseline row
        searches = []
        search = synthesis.baseline_search

        def counted(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(synthesis, "baseline_search", counted)
        out = tmp_path / "report"
        assert cli.main(["report", "--scenario", str(scenario_path),
                         "--out", str(out)]) == cli.EXIT_OK
        assert len(searches) == 1
        doc = json.loads((out / "report.json").read_text())
        assert doc["status"] == "verified"
        assert doc["monte_carlo"]["mc"]["exits"] == 0
        assert doc["min_levels"]["cor2"] is None
        assert (out / "report.txt").exists()
        assert (out / "certificate.txt").exists()

    def test_report_infeasible_level_recovers_at_sweep_minimum(self, tmp_path):
        # level 0.5 is below the minimal feasible level (~0.76): the report
        # must verify the method's design at its minimum and still exit 2
        # for the requested level.  With zero disturbance there are no
        # offsets to add, so the verified level is the minimum itself.
        scenario = cli.secv_scenario()
        scenario.system.w_bound = 0.0
        scenario.verify.grid = [41, 41]
        scenario.verify.mc_trajectories = 100
        scenario.verify.horizon = 50
        path = tmp_path / "quiet.json"
        cli.save_scenario(scenario, path)
        out = tmp_path / "lowlevel"
        code = cli.main(["report", "--scenario", str(path),
                         "--out", str(out), "--lambda", "0.5"])
        assert code == cli.EXIT_INFEASIBLE
        doc = json.loads((out / "report.json").read_text())
        assert doc["status"] == "verified"
        assert doc["min_levels"]["thm2"] is not None
        assert abs(doc["level_verified"] - doc["min_levels"]["thm2"]) <= 1e-12
        assert doc["monte_carlo"]["mc"]["exits"] == 0

    def test_report_recovery_verifies_above_disturbance_offsets(self, scenario_path,
                                                                tmp_path):
        # same recovery path with the real disturbance: the design's rows
        # leave out the offsets d_i = 0.03 / 0.0175 that the grid check adds,
        # so the report verifies at the minimal level plus max_i d_i / g_i
        out = tmp_path / "offsets"
        code = cli.main(["report", "--scenario", str(scenario_path),
                         "--out", str(out), "--lambda", "0.5"])
        assert code == cli.EXIT_INFEASIBLE
        doc = json.loads((out / "report.json").read_text())
        assert doc["status"] == "verified"
        assert abs(doc["level_verified"] - (doc["min_levels"]["thm2"] + 0.03)) <= 1e-12
        assert abs(doc["level_verified"] - 0.788333) <= 1e-6
        assert doc["monte_carlo"]["mc"]["exits"] == 0

    def test_report_solves_each_program_once(self, scenario_path, tmp_path, monkeypatch):
        # four enclosure LPs plus one thm2 and one thm1 design; the noise
        # floor decides cor2 without posing its program
        solves = []
        solve = lpcore.LinearProgram.solve
        monkeypatch.setattr(lpcore.LinearProgram, "solve",
                            lambda lp: solves.append(lp) or solve(lp))
        assert cli.main(["report", "--scenario", str(scenario_path),
                         "--out", str(tmp_path / "once")]) == cli.EXIT_OK
        assert len(solves) == 6

    @pytest.mark.parametrize("command, summary, w_bound", [
        pytest.param("synth", "summary.json", 0.0, id="synth-summary.json"),
        pytest.param("report", "report.json", 0.0, id="report-report.json"),
        # the shipped disturbance: the noise floor (7.2) decides cor2 before
        # any candidate program is posed, where searching took 170-190 s
        pytest.param("report", "report.json", 0.05, id="report-noise-floor"),
    ])
    def test_failed_expansion_search_exit_two(self, tmp_path, command, summary, w_bound):
        # a remainder term on the first state, which the input cannot cancel:
        # no 'auto' candidate is feasible, a synthesis verdict, not a usage error.
        # Without a disturbance the noise floor is 0, so the report's cor2
        # design searches every candidate too.
        scenario = cli.secv_scenario()
        scenario.system.a2[0][0] = 0.05
        scenario.system.w_bound = w_bound
        scenario.synthesis.expansion_point = "auto"
        scenario.verify.grid = [41, 41]
        scenario.verify.mc_trajectories = 100
        path = tmp_path / "unmatched.json"
        cli.save_scenario(scenario, path)
        out = tmp_path / command
        code = cli.main([command, "--scenario", str(path), "--out", str(out)])
        assert code == cli.EXIT_INFEASIBLE
        doc = json.loads((out / summary).read_text())
        assert doc["status"] == "infeasible"
        assert "no feasible expansion point" in doc.get("detail", doc.get("infeasible_detail"))
        if command == "report":
            assert doc["min_levels"]["cor2"] is None

    def test_report_no_feasible_level_stops_cleanly(self, scenario_path, tmp_path):
        # cor2 has no feasible level on the shipped system: definitive verdict
        out = tmp_path / "nofeasible"
        code = cli.main(["report", "--scenario", str(scenario_path),
                         "--out", str(out), "--method", "cor2"])
        assert code == cli.EXIT_INFEASIBLE
        doc = json.loads((out / "report.json").read_text())
        assert doc["status"] == "infeasible"
        assert doc["min_levels"]["cor2"] is None

    def test_report_determinism(self, scenario_path, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert cli.main(["report", "--scenario", str(scenario_path),
                         "--out", str(out1)]) == cli.EXIT_OK
        assert cli.main(["report", "--scenario", str(scenario_path),
                         "--out", str(out2)]) == cli.EXIT_OK
        for name in ("report.json", "report.txt", "certificate.txt", "plot.svg",
                     "data/inputs.csv", "data/states.csv", "data/next_states.csv",
                     "data/remainders.csv", "data/regressor.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_override_changes_data(self, scenario_path, tmp_path):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        assert cli.main(["collect", "--scenario", str(scenario_path),
                         "--out", str(out1)]) == cli.EXIT_OK
        assert cli.main(["collect", "--scenario", str(scenario_path),
                         "--out", str(out2), "--seed", "9"]) == cli.EXIT_OK
        a = (out1 / "data" / "inputs.csv").read_text()
        b = (out2 / "data" / "inputs.csv").read_text()
        assert a != b

    def test_negative_seed_exit_one(self, scenario_path, tmp_path, capsys):
        # SeedSequence takes no negative entropy; both routes name the field and its limit
        bad = tmp_path / "negative.json"
        doc = json.loads(scenario_path.read_text())
        doc["data"]["seed"] = -3
        bad.write_text(json.dumps(doc))
        for argv in (["--scenario", str(bad)], ["--scenario", str(scenario_path), "--seed", "-3"]):
            code = cli.main(["collect", "--out", str(tmp_path / "out"), *argv])
            assert code == cli.EXIT_USAGE
            err = capsys.readouterr().err
            assert "scenario error: data.seed" in err and ">= 0" in err

    @pytest.mark.parametrize("section, key", [("verify", "mc_trajectories"),
                                              ("verify", "horizon"),
                                              ("data", "samples"), ("data", "seed"),
                                              ("system", "w_bound")])
    def test_boolean_integer_key_exit_one(self, scenario_path, tmp_path, capsys,
                                          section, key):
        # JSON true would otherwise pass as the number 1
        bad = tmp_path / "boolean.json"
        doc = json.loads(scenario_path.read_text())
        doc[section][key] = True
        bad.write_text(json.dumps(doc))
        code = cli.main(["verify", "--scenario", str(bad), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert f"scenario error: {section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [("data", "x0"),
                                              ("synthesis", "expansion_point")])
    def test_non_numeric_point_exit_one(self, scenario_path, tmp_path, capsys,
                                        section, key):
        bad = tmp_path / "point.json"
        doc = json.loads(scenario_path.read_text())
        doc[section][key] = ["a", 0.0]
        bad.write_text(json.dumps(doc))
        code = cli.main(["synth", "--scenario", str(bad), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert f"scenario error: {section}.{key}" in capsys.readouterr().err

    def test_removed_definiteness_flag_is_a_usage_error(self, scenario_path, tmp_path):
        # --row-norm went the same way: the one-norm is the only sound offset
        for flag, value in (("--definiteness", "strict"), ("--row-norm", "inf")):
            code = cli.main(["synth", "--scenario", str(scenario_path),
                             "--out", str(tmp_path / "removed"), flag, value])
            assert code == cli.EXIT_USAGE, flag


class TestUnsoundCertificateIsCaught:
    """Claims the true closed loop does not keep are refused or caught.

    In the first plant the remainder enters the autonomous second state
    with a fixed coefficient; at a near-zero expansion point the slope
    terms are tiny, so the first-order equations alone would close, yet the
    curvature drives corner states out of the scaled set.  ``thm2`` pins
    the closed-loop remainder to zero and so refuses at synthesis (exit 2).
    A design whose stated rows hold but leave no room for the disturbance
    offsets must fail verification (exit 3).
    """

    @pytest.fixture()
    def unsound_path(self, tmp_path):
        doc = {
            "version": 1,
            "system": {
                "a1": [[0.6, 0.1], [0.0, 0.7]],
                "a2": [[0.0], [-0.8]],
                "b": [[1.0], [0.0]],
                "dictionary": [{"kind": "cosm1", "coord": 1}],
                "w_bound": 0.0,
            },
            "safe_set": {"normals": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                         "offsets": [2.0, 2.0, 2.0, 2.0]},
            "data": {"samples": 30, "u_max": 0.4, "x0": [0.2, 0.4],
                     "seed": 6, "noise": False},
            "synthesis": {"method": "thm2", "contraction": 0.95,
                          "expansion_point": [0.1, 0.1]},
            "verify": {"grid": [41, 41], "mc_trajectories": 100, "horizon": 40},
        }
        path = tmp_path / "unsound.json"
        path.write_text(json.dumps(doc))
        return path

    def test_verification_failure_exit_three(self, scenario_path, tmp_path):
        # secV at 0.76 is feasible (minimal level 0.758333), but its headroom
        # of 0.0017 is below the disturbance offsets 0.03 and 0.0175
        out = tmp_path / "out3"
        code = cli.main(["verify", "--scenario", str(scenario_path), "--out", str(out),
                         "--lambda", "0.76"])
        assert code == cli.EXIT_VERIFY_FAILED
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "fail"
        assert not summary["grid_true_model"]["passed"]
        assert not summary["grid_data_rep"]["passed"]

    def test_thm2_refuses_fixed_remainder(self, unsound_path, tmp_path):
        out = tmp_path / "out2"
        code = cli.main(["verify", "--scenario", str(unsound_path), "--out", str(out)])
        assert code == cli.EXIT_INFEASIBLE
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "infeasible"
