import json
from pathlib import Path

import numpy as np
import pytest

from polysafe import cli, lpcore, polytope, synthesis, verify
from polysafe.datagen import ExperimentData, identification_rank
from polysafe.errors import (DimensionTooLargeError, NumericalInstabilityError,
                             RankDeficientDataError, ScenarioValidationError,
                             SolverStalledError, SynthesisInfeasibleError)

from conftest import tri_plant_and_set

REPO_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "secV.json"


@pytest.fixture(scope="session")
def scenario_path(tmp_path_factory):
    # a fast variant of the shipped scenario for CLI round trips
    scenario = cli.load_scenario(REPO_SCENARIO)
    scenario.verify.grid = [41, 41]
    scenario.verify.mc_trajectories = 200
    scenario.verify.horizon = 50
    path = tmp_path_factory.mktemp("scenario") / "fast.json"
    cli.save_scenario(scenario, path)
    return path


def duo_scenario(tmp_path, b=((0.0,), (1.0,)), noise=False, w_bound=0.02):
    """The 2-state, 3-term plant on the shipped safe set, with a fast
    verification budget; returns the path of its scenario file."""
    doc = json.loads(REPO_SCENARIO.read_text())
    doc["system"].update(a1=[[0.7, 0.3], [-0.2, 0.9]], a2=[[0.0, 0.0, 0.0], [1.0, 0.5, -0.5]],
                         b=[list(row) for row in b], w_bound=w_bound,
                         dictionary=[{"kind": "monomial", "exponents": e}
                                     for e in ([2, 0], [0, 2], [1, 1])])
    doc["data"].update(samples=160, u_max=0.05, seed=7, noise=noise)
    doc["verify"] = {"grid": [41, 41], "mc_trajectories": 200, "horizon": 50}
    path = tmp_path / "duo.json"
    path.write_text(json.dumps(doc))
    return path


def quad_scenario(tmp_path):
    """A 4-state plant whose last state takes ``x0^2`` and ``x2 x3`` through
    the input, on the box ``|x_k| <= 2``; its 0.02 disturbance gives cor2 a
    noise floor of 1.2, so cor2 is refused without an LP.  Returns the path
    of its scenario file."""
    normals = [[sign * 0.5 * (k == j) for j in range(4)] for k in range(4) for sign in (1, -1)]
    doc = {
        "version": 1,
        "system": {"a1": [[0.7, 0.2, 0, 0], [0, 0.6, 0.3, 0], [0, 0, 0.5, 0.2],
                          [0.2, -0.3, 0, 1.1]],
                   "a2": [[0, 0], [0, 0], [0, 0], [1.0, 0.5]], "b": [[0], [0], [0], [1.0]],
                   "dictionary": [{"kind": "monomial", "exponents": e}
                                  for e in ([2, 0, 0, 0], [0, 0, 1, 1])],
                   "w_bound": 0.02},
        "safe_set": {"normals": normals, "offsets": [1.0] * 8},
        "data": {"samples": 60, "u_max": 0.01, "x0": [0.0] * 4, "seed": 11, "noise": False},
        "verify": {"grid": [11] * 4, "mc_trajectories": 200, "horizon": 50},
    }
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(doc))
    return path


class TestScenarioSchema:
    def test_shipped_file_is_valid(self):
        scenario = cli.load_scenario(REPO_SCENARIO)
        assert scenario.synthesis.method == "thm2"
        assert scenario.data.seed == 7
        assert scenario.data.samples == 40
        np.testing.assert_allclose(scenario.safe_set.offsets, np.ones(4))

    def test_shipped_tri_file_is_the_three_state_plant(self):
        # scenarios/tri.json carries the 3-state plant and set of the tests'
        # tri problem, with the verification budget of the benchmark
        scenario = cli.load_scenario(REPO_SCENARIO.with_name("tri.json"))
        plant, safe_set = tri_plant_and_set()
        loaded = scenario.plant()
        for name in ("a1", "a2", "b", "w_bound"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(plant, name))
        assert loaded.dictionary.terms == plant.dictionary.terms
        np.testing.assert_array_equal(scenario.polytope().normals, safe_set.normals)
        np.testing.assert_array_equal(scenario.polytope().offsets, safe_set.offsets)
        assert (scenario.data.samples, scenario.data.seed, scenario.data.u_max) == (60, 11, 0.01)
        assert scenario.verify.grid == [101, 101, 101]
        assert (scenario.verify.mc_trajectories, scenario.verify.horizon) == (2000, 100)
        doc = json.loads(REPO_SCENARIO.with_name("tri.json").read_text())
        assert "expansion_point" not in doc["synthesis"]

    def test_round_trip(self, tmp_path):
        scenario = cli.load_scenario(REPO_SCENARIO)
        path = tmp_path / "copy.json"
        cli.save_scenario(scenario, path)
        # the expansion point has no effect, so a saved scenario leaves it out
        assert "expansion_point" not in json.loads(path.read_text())["synthesis"]
        again = cli.load_scenario(path)
        assert again.to_json() == scenario.to_json()

    def test_zero_offset_rejected(self):
        doc = cli.load_scenario(REPO_SCENARIO).to_json()
        doc["safe_set"]["offsets"][0] = 0.0
        with pytest.raises(ScenarioValidationError, match="offsets"):
            cli.scenario_from_json(doc)

    def test_exponent_length_rejected(self):
        doc = cli.load_scenario(REPO_SCENARIO).to_json()
        doc["system"]["dictionary"][0]["exponents"] = [2]
        with pytest.raises(ScenarioValidationError, match="dictionary"):
            cli.scenario_from_json(doc)

    def test_unknown_term_kind_rejected(self):
        doc = cli.load_scenario(REPO_SCENARIO).to_json()
        doc["system"]["dictionary"][0] = {"kind": "tanh", "coord": 0}
        with pytest.raises(ScenarioValidationError, match="kind"):
            cli.scenario_from_json(doc)

    def test_too_few_samples_rejected(self):
        doc = cli.load_scenario(REPO_SCENARIO).to_json()
        doc["data"]["samples"] = 4
        with pytest.raises(ScenarioValidationError, match="samples"):
            cli.scenario_from_json(doc)

    def test_bad_method_rejected(self):
        doc = cli.load_scenario(REPO_SCENARIO).to_json()
        doc["synthesis"]["method"] = "thm9"
        with pytest.raises(ScenarioValidationError, match="method"):
            cli.scenario_from_json(doc)

    def test_version_checked(self):
        # JSON true and 1.0 compare equal to 1 but are not the integer version
        doc = cli.load_scenario(REPO_SCENARIO).to_json()
        for version in (2, True, 1.0):
            doc["version"] = version
            with pytest.raises(ScenarioValidationError, match="version"):
                cli.scenario_from_json(doc)

    @pytest.mark.parametrize("key, value", [("definiteness", "off"), ("dd_margin", 1e-6),
                                            ("objective", "margin"), ("row_norm", "one"),
                                            ("contraciton", 0.9)])
    def test_unknown_synthesis_key_rejected(self, key, value):
        # a removed or misspelt key must not silently fall back to a default
        doc = cli.load_scenario(REPO_SCENARIO).to_json()
        doc["synthesis"][key] = value
        with pytest.raises(ScenarioValidationError, match=f"synthesis.{key}: unknown key"):
            cli.scenario_from_json(doc)

    def test_unknown_synthesis_key_exit_one(self, tmp_path, capsys):
        doc = cli.load_scenario(REPO_SCENARIO).to_json()
        doc["synthesis"]["definiteness"] = "strict"
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["synth", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "synthesis.definiteness" in capsys.readouterr().err

    @pytest.mark.parametrize("section, meant, typo", [
        ("", None, "extra"), ("system", "w_bound", "w_bnd"), ("safe_set", "offsets", "offset"),
        ("data", "noise", "nosie"), ("synthesis", "contraction", "contraciton"),
        ("verify", "mc_trajectories", "mc_trajectory")])
    def test_unknown_key_exit_one(self, tmp_path, capsys, section, meant, typo):
        # a misspelt key in any section, or at the top level, must not fall
        # back to the default of the key it was meant to be
        doc = cli.load_scenario(REPO_SCENARIO).to_json()
        part = doc[section] if section else doc
        part[typo] = part.pop(meant) if meant else 1
        name = f"{section}.{typo}" if section else typo
        with pytest.raises(ScenarioValidationError, match=f"^{name}: unknown key"):
            cli.scenario_from_json(doc)
        path = tmp_path / "misspelt.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["synth", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert f"scenario error: {name}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["system", "safe_set", "data", "verify"])
    def test_non_object_section_exit_one(self, tmp_path, capsys, section):
        # a list where an object belongs is named, not a traceback
        doc = cli.load_scenario(REPO_SCENARIO).to_json()
        doc[section] = [doc[section]]
        with pytest.raises(ScenarioValidationError, match=f"^{section}: must be an object"):
            cli.scenario_from_json(doc)
        path = tmp_path / "list.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["synth", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert f"scenario error: {section}: must be an object" in capsys.readouterr().err

    def test_error_messages_carry_field_paths(self):
        doc = cli.load_scenario(REPO_SCENARIO).to_json()
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

    @pytest.mark.parametrize("command, key", [("collect", "files"), ("simulate", "file")])
    def test_summary_names_files_relative_to_out(self, scenario_path, tmp_path, command, key):
        # two runs of one scenario write the same summary bytes, whatever --out is
        summaries = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert cli.main([command, "--scenario", str(scenario_path),
                             "--out", str(out)]) == cli.EXIT_OK
            summaries.append((out / "summary.json").read_bytes())
            named = json.loads(summaries[-1])[key]
            assert all((out / f).is_file() for f in (named if command == "collect" else [named]))
        assert summaries[0] == summaries[1]

    def test_synth_writes_certificate(self, scenario_path, tmp_path):
        out = tmp_path / "synth"
        assert cli.main(["synth", "--scenario", str(scenario_path),
                         "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "feasible"
        np.testing.assert_allclose(np.array(summary["k2"]), [[-1.0, -1.0]], atol=1e-6)
        text = (out / "certificate.txt").read_text()
        assert "residuals" in text and "set_multiplier" in text

    def test_synth_thm1_writes_certificate(self, scenario_path, tmp_path):
        # thm1 certifies like thm2: its searched remainder bounds are the
        # certificate's row offsets, not a summary key of their own
        out = tmp_path / "synth_thm1"
        assert cli.main(["synth", "--scenario", str(scenario_path), "--out", str(out),
                         "--method", "thm1"]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "feasible" and "row_bounds" not in summary
        lines = (out / "certificate.txt").read_text().splitlines()
        assert lines[0] == "method: thm1"
        assert lines[2].startswith("row offsets: ") and len(lines[2].split(", ")) == 4
        assert "set_multiplier =" in lines and "residuals:" in lines

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
        # both grid checks, true model and data representation, come from
        # one walk of the grid blocks
        walks = []
        blocks = verify.grid_blocks
        monkeypatch.setattr(verify, "grid_blocks",
                            lambda *args: walks.append(args) or blocks(*args))
        assert cli.main(["verify", "--scenario", str(scenario_path),
                         "--out", str(tmp_path / "once")]) == cli.EXIT_OK
        assert len(walks) == 1

    @pytest.mark.parametrize("name", ["secV.json", "tri.json"])
    def test_report_samples_the_set_once(self, tmp_path, monkeypatch, name):
        # the gain search, the lumped bounds and both control efforts read
        # one sample of the default grid; only the grid check walks its own
        # resolution
        walks = []

        def counted(blocks):
            def walk(safe_set, resolution=None):
                walks.append(tuple(resolution or polytope.grid_resolution(safe_set.dim)))
                return blocks(safe_set, resolution)
            return walk

        for module in (polytope, verify):
            monkeypatch.setattr(module, "grid_blocks", counted(module.grid_blocks))
        path = REPO_SCENARIO.with_name(name)
        scenario = cli.load_scenario(path)
        assert cli.main(["report", "--scenario", str(path),
                         "--out", str(tmp_path / "report")]) == cli.EXIT_OK
        default = polytope.grid_resolution(len(scenario.system.a1))
        assert walks.count(default) == 1
        assert sorted(walks) == sorted([default, tuple(scenario.verify.grid)])

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
        assert list(summary["failures"]) == ["cor2"]
        assert summary["failures"]["cor2"]["status"] == "infeasible"

    def test_report_on_two_inputs_and_three_terms(self, tmp_path):
        # two inputs and three terms (m*N = 6): thm1's gain search is a few
        # small LPs however many gain entries there are
        path = duo_scenario(tmp_path, b=[[1.0, 0.0], [0.0, 1.0]])
        out = tmp_path / "report"
        assert cli.main(["report", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["status"] == "verified"
        assert 0.0 <= doc["min_levels"]["thm1"] <= 1e-12

    @pytest.mark.parametrize("command", ["synth", "verify", "sweep-lambda"])
    @pytest.mark.parametrize("method", ["thm2", "thm1"])
    def test_noisy_data_are_inconsistent(self, tmp_path, command, method):
        # data collected under a 0.001 disturbance fit no noiseless plant, so
        # the noiseless methods give no design: a thm2 design on them claims
        # a level near 0 that the true-model grid fails (at 0.5 with one
        # input; at 0.1 with two, where next_states @ P has rank m = n)
        for b in (((0.0,), (1.0,)), ((1.0, 0.0), (0.0, 1.0))):
            path = duo_scenario(tmp_path, b=b, noise=True, w_bound=0.001)
            out = tmp_path / f"noisy-{len(b[0])}"
            code = cli.main([command, "--scenario", str(path), "--out", str(out),
                             "--method", method, "--lambda", "0.5"])
            assert code == cli.EXIT_INFEASIBLE, b
            doc = json.loads((out / "summary.json").read_text())
            assert doc["status"] == "inconsistent-data", b
            assert "do not fit a noiseless plant" in doc["detail"]

    def test_noisy_data_sweep_keeps_cor2_infeasible(self, tmp_path):
        # the all-method sweep on noisy two-input data: both noiseless
        # methods are refused by the one data gate, and cor2's verdict stands
        path = duo_scenario(tmp_path, b=((1.0, 0.0), (0.0, 1.0)), noise=True, w_bound=0.001)
        out = tmp_path / "sweep"
        assert cli.main(["sweep-lambda", "--scenario", str(path),
                         "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads((out / "summary.json").read_text())
        assert doc["min_levels"] == {"thm2": None, "cor2": None, "thm1": None}
        assert {m: f["status"] for m, f in doc["failures"].items()} == {
            "thm2": "inconsistent-data", "cor2": "infeasible", "thm1": "inconsistent-data"}
        assert doc["failures"]["thm2"]["detail"] == doc["failures"]["thm1"]["detail"]

    def test_collect_writes_the_true_noise(self, tmp_path):
        # noisy data keep the injected disturbance, written and listed with
        # the other matrices
        path = duo_scenario(tmp_path, noise=True, w_bound=0.001)
        out = tmp_path / "collect"
        assert cli.main(["collect", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads((out / "summary.json").read_text())
        assert "data/true_noise.csv" in doc["files"]
        noise = np.loadtxt(out / "data" / "true_noise.csv", delimiter=",")
        assert noise.shape == (2, 160)
        assert 0.0 < np.max(np.abs(noise)) <= 0.001

    def test_report_that_fails_verification_exits_3(self, tmp_path):
        # 0.76 clears the design's minimal level 0.758333, but not the grid,
        # which adds the worst-case disturbance offsets
        out = tmp_path / "report"
        assert cli.main(["report", "--scenario", str(REPO_SCENARIO), "--out", str(out),
                         "--lambda", "0.76"]) == cli.EXIT_VERIFY_FAILED
        doc = json.loads((out / "report.json").read_text())
        assert (doc["status"], doc["level_verified"]) == ("verification-failed", 0.76)
        assert not doc["grid_true_model"]["passed"] and not doc["grid_data_rep"]["passed"]
        assert doc["monte_carlo"]["passed"]

    def test_simulate_four_states(self, tmp_path):
        # no vertices above 3 states: the rollout starts at the first grid
        # member, the box corner
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--scenario", str(quad_scenario(tmp_path)),
                         "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads((out / "summary.json").read_text())
        assert (doc["status"], doc["start"], doc["horizon"]) == ("ok", [-2.0] * 4, 50)
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,x4,u1"
        assert len(lines) == 52

    @pytest.mark.parametrize("command", ["report", "sweep-lambda"])
    def test_four_states_leave_thm1_unsupported(self, tmp_path, command):
        # vertex enumeration stops above 3 states, so thm1 has no certified
        # row bounds there; the other methods' levels stand, and the report
        # verifies the thm2 design
        out = tmp_path / command
        assert cli.main([command, "--scenario", str(quad_scenario(tmp_path)),
                         "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads((out / ("report.json" if command == "report"
                                 else "summary.json")).read_text())
        assert doc["min_levels"]["thm1"] is None and doc["min_levels"]["cor2"] is None
        assert abs(doc["min_levels"]["thm2"] - 0.9) <= 1e-9
        assert {m: f["status"] for m, f in doc["failures"].items()} == {
            "cor2": "infeasible", "thm1": "unsupported"}
        if command == "report":
            assert (doc["status"], doc["level_verified"]) == ("verified", 0.95)
            # the table names each failure by its status, not all as infeasible
            assert doc["conservatism"]["rows"]["thm1"] == "unsupported"
            assert doc["conservatism"]["rows"]["cor2"] == "infeasible"
            rows = (out / "report.txt").read_text().splitlines()[3:5]
            assert [row.split()[:2] for row in rows] == [["cor2", "infeasible"],
                                                         ["thm1", "unsupported"]]

    def test_four_states_thm1_exit_one(self, tmp_path):
        out = tmp_path / "thm1"
        assert cli.main(["sweep-lambda", "--scenario", str(quad_scenario(tmp_path)),
                         "--out", str(out), "--method", "thm1"]) == cli.EXIT_USAGE
        doc = json.loads((out / "summary.json").read_text())
        assert doc["min_levels"] == {"thm1": None}
        assert doc["status"] == "unsupported"
        assert "limited to dim <= 3, got 4" in doc["detail"]

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

    def test_report_rows_of_other_methods_are_numbers(self, scenario_path, tmp_path):
        # every feasible design gets its own row, not only the report's method,
        # and the report is strict JSON: no NaN or Infinity anywhere
        def refuse(constant):
            raise ValueError(f"non-finite constant {constant} in report.json")

        out = tmp_path / "report"
        assert cli.main(["report", "--scenario", str(scenario_path), "--out", str(out),
                         "--method", "thm1"]) == cli.EXIT_OK
        doc = json.loads((out / "report.json").read_text(), parse_constant=refuse)
        rows = doc["conservatism"]["rows"]
        assert rows["cor2"] == "infeasible"
        for method in ("thm2", "thm1"):
            assert rows[method]["min_level"] == doc["min_levels"][method]
            assert all(np.isfinite(v) for v in rows[method].values())
        assert "nan" not in (out / "report.txt").read_text()

    def test_report_infeasible_level_recovers_at_sweep_minimum(self, tmp_path):
        # level 0.5 is below the minimal feasible level (~0.76): the report
        # must verify the method's design at its minimum and still exit 2
        # for the requested level.  With zero disturbance there are no
        # offsets to add, so the verified level is the minimum itself.
        scenario = cli.load_scenario(REPO_SCENARIO)
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
        # three design programs posed, each once: the thm2 design, the
        # enclosure (one tableau for its four coordinate objectives; collection
        # needs none while the trajectory stays in twice the set) for cor2's
        # noise floor, which decides cor2 without posing its program, then
        # thm1's gain search (one LP here: its seed pairs already hold the
        # cancelling gain's row maximizers) and the thm1 design
        posed = []
        solve_each = lpcore.LinearProgram._solve_each
        monkeypatch.setattr(lpcore.LinearProgram, "_solve_each", lambda lp, objectives: (
            posed.append((lp, len(objectives))) or solve_each(lp, objectives)))
        assert cli.main(["report", "--scenario", str(scenario_path),
                         "--out", str(tmp_path / "once")]) == cli.EXIT_OK
        assert [count for _, count in posed] == [1, 4, 1, 1]
        assert len({id(lp) for lp, _ in posed}) == 4
        assert ["mult" in lp._blocks for lp, _ in posed] == [True, False, False, True]
        assert "excess" in posed[2][0]._blocks

    def test_report_ranks_the_regressor_once(self, scenario_path, tmp_path, monkeypatch):
        # collection, the thm2 and cor2 designs and the report's own entry
        # read one rank diagnostic of the data set: one SVD of the (4, 40)
        # regressor
        shapes = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda mat, **kwargs: shapes.append(mat.shape) or svd(mat, **kwargs))
        assert cli.main(["report", "--scenario", str(scenario_path),
                         "--out", str(tmp_path / "once")]) == cli.EXIT_OK
        assert shapes.count((4, 40)) == 1

    @pytest.mark.parametrize("command, limit", [
        pytest.param(["report"], 6, id="report"),
        pytest.param(["sweep-lambda", "--method", "thm2"], 5, id="sweep-thm2"),
    ])
    def test_experiment_is_factored_once(self, tmp_path, monkeypatch, command, limit):
        # every SVD, pseudo-inverse and matrix 2-norm of the experiment is
        # taken once per data set: the regressor's SVD (its rank and
        # pseudo-inverse), the closed loop's SVD, |next_states|_2 and the
        # row-space distance's pinv and norm; the report adds the stacked
        # matrix's SVD (its rank and pseudo-inverse)
        calls = []

        def counted(name, original):
            def wrapper(mat, *args, **kwargs):
                order = args[0] if args else kwargs.get("ord")
                if name != "norm" or (np.ndim(mat) == 2 and order == 2):
                    calls.append(name)
                return original(mat, *args, **kwargs)
            return wrapper

        for name in ("svd", "pinv", "norm"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        assert cli.main([*command, "--scenario", str(REPO_SCENARIO),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        assert len(calls) <= limit, calls

    @pytest.mark.parametrize("command", ["report", "verify"])
    def test_vertices_enumerated_once(self, scenario_path, tmp_path, monkeypatch, command):
        # the grid check, Monte Carlo, the control effort, the gain search,
        # the lumped bounds, the plot and the trajectories share one enumeration
        calls = []
        enumerate_rows = polytope._vertex_rows
        monkeypatch.setattr(polytope, "_vertex_rows",
                            lambda *args: calls.append(args) or enumerate_rows(*args))
        assert cli.main([command, "--scenario", str(scenario_path),
                         "--out", str(tmp_path / command)]) == cli.EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("command, summary, w_bound", [
        pytest.param("synth", "summary.json", 0.0, id="synth-summary.json"),
        pytest.param("report", "report.json", 0.0, id="report-report.json"),
        # the shipped disturbance: the noise floor (7.2) decides cor2 before
        # its program is posed
        pytest.param("report", "report.json", 0.05, id="report-noise-floor"),
    ])
    def test_failed_expansion_search_exit_two(self, tmp_path, monkeypatch, command, summary,
                                              w_bound):
        # a remainder term on the first state, which the input cannot cancel:
        # the design is infeasible, a synthesis verdict, not a usage error.
        # thm2's closed-form pin decides it and poses no program; each other
        # method poses one design program at most, and without a disturbance
        # the noise floor is 0, so the report poses cor2's too.
        designs = []
        solve = lpcore.LinearProgram.solve
        monkeypatch.setattr(lpcore.LinearProgram, "solve", lambda lp: (
            "mult" in lp._blocks and designs.append(lp)) or solve(lp))
        scenario = cli.load_scenario(REPO_SCENARIO)
        scenario.system.a2[0][0] = 0.05
        scenario.system.w_bound = w_bound
        scenario.verify.grid = [41, 41]
        scenario.verify.mc_trajectories = 100
        path = tmp_path / "unmatched.json"
        cli.save_scenario(scenario, path)
        out = tmp_path / command
        code = cli.main([command, "--scenario", str(path), "--out", str(out)])
        assert code == cli.EXIT_INFEASIBLE
        doc = json.loads((out / summary).read_text())
        assert doc["status"] == "infeasible"
        detail = doc.get("detail", doc.get("infeasible_detail"))
        assert detail.startswith("noiseless design infeasible at every level")
        assert "remainder_zeroed 1.000e-02 at the least-squares pin" in detail
        if command == "report":
            assert doc["min_levels"]["thm2"] is None and doc["min_levels"]["cor2"] is None
            assert len(designs) == (1 if w_bound else 2)  # thm1 and, below the floor, cor2
        else:
            assert designs == []

    def test_report_no_feasible_level_stops_cleanly(self, scenario_path, tmp_path):
        # cor2 has no feasible level on the shipped system: definitive verdict
        out = tmp_path / "nofeasible"
        code = cli.main(["report", "--scenario", str(scenario_path),
                         "--out", str(out), "--method", "cor2"])
        assert code == cli.EXIT_INFEASIBLE
        doc = json.loads((out / "report.json").read_text())
        assert doc["status"] == "infeasible"
        assert doc["min_levels"]["cor2"] is None

    @staticmethod
    def _stall(monkeypatch, design, error=SolverStalledError):
        def stalled(*args, **kwargs):
            raise error("no verdict")

        monkeypatch.setattr(synthesis, design, stalled)

    @pytest.mark.parametrize("error", [SolverStalledError, NumericalInstabilityError])
    @pytest.mark.parametrize("command, summary", [("report", "report.json"),
                                                  ("sweep-lambda", "summary.json")])
    def test_stalled_method_is_its_own_entry(self, scenario_path, tmp_path, monkeypatch,
                                             command, summary, error):
        # a thm1 solve at its pivot cap, or one that does not replay, fails
        # thm1 alone: the other methods' levels stand, and thm1's failure
        # says "solver-failed", not "infeasible"
        self._stall(monkeypatch, "synthesize_min_remainder", error)
        out = tmp_path / command
        assert cli.main([command, "--scenario", str(scenario_path),
                         "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads((out / summary).read_text())
        levels = doc["min_levels"]
        assert levels["thm1"] is None
        assert doc["failures"]["thm1"] == {"status": "solver-failed", "detail": "no verdict"}
        assert isinstance(levels["thm2"], float) and levels["cor2"] is None
        if command == "report":
            assert doc["status"] == "verified"
            row = next(line for line in (out / "report.txt").read_text().splitlines()
                       if line.startswith("thm1"))
            assert row.split() == ["thm1", "solver-failed", "-", "-"]

    @pytest.mark.parametrize("command, summary", [("report", "report.json"),
                                                  ("sweep-lambda", "summary.json")])
    def test_stalled_scenario_method_exit_one(self, scenario_path, tmp_path, monkeypatch,
                                              command, summary):
        self._stall(monkeypatch, "synthesize_noiseless")
        out = tmp_path / command
        assert cli.main([command, "--scenario", str(scenario_path), "--out", str(out),
                         "--method", "thm2"]) == cli.EXIT_USAGE
        doc = json.loads((out / summary).read_text())
        assert doc["status"] == "solver-failed"
        assert doc["min_levels"]["thm2"] is None
        assert doc["failures"]["thm2"] == {"status": "solver-failed", "detail": "no verdict"}

    @pytest.mark.parametrize("status, error, code", [
        ("infeasible", SynthesisInfeasibleError, cli.EXIT_INFEASIBLE),
        ("rank-deficient", RankDeficientDataError, cli.EXIT_INFEASIBLE),
        ("unsupported", DimensionTooLargeError, cli.EXIT_USAGE),
        ("solver-failed", SolverStalledError, cli.EXIT_USAGE),
    ])
    @pytest.mark.parametrize("command, summary", [
        ("synth", "summary.json"), ("verify", "summary.json"), ("simulate", "summary.json"),
        ("report", "report.json"), ("sweep-lambda", "summary.json")])
    def test_each_outcome_written_one_way(self, scenario_path, tmp_path, monkeypatch,
                                          command, summary, status, error, code):
        # the command's own method ends in each outcome in turn: every command
        # writes its summary with that status and the error's message, and
        # exits by the status; a sweep gives the method a null level and its failure
        self._stall(monkeypatch, "synthesize_noiseless", error)
        out = tmp_path / command
        exit_code = cli.main([command, "--scenario", str(scenario_path), "--out", str(out),
                              "--method", "thm2"])
        doc = json.loads((out / summary).read_text())
        if command == "sweep-lambda":
            assert doc["min_levels"] == {"thm2": None}
            assert doc["failures"] == {"thm2": {"status": status, "detail": "no verdict"}}
            if status == "infeasible":
                assert (exit_code, doc["status"]) == (cli.EXIT_OK, "ok")
                assert "detail" not in doc
                return
        assert exit_code == code
        assert doc["status"] == status and doc["detail"] == "no verdict"
        assert doc["command"] == command

    def test_sweep_reuses_parser_and_skips_unused_rank(self, scenario_path, tmp_path,
                                                        monkeypatch):
        # later commands reuse the parser; only a sweep that runs thm1 pays
        # for the stacked-rank SVD, once, in the gain search that needs it
        ranks = []
        for module in (cli, synthesis):
            monkeypatch.setattr(module, "identification_rank",
                                lambda data: ranks.append(data) or identification_rank(data))
        parser = cli._build_parser()
        for methods in ([], ["--method", "thm2"], ["--method", "thm1"]):
            assert cli.main(["sweep-lambda", "--scenario", str(scenario_path),
                             "--out", str(tmp_path / "sweep"), *methods]) == cli.EXIT_OK
        assert cli._build_parser() is parser
        assert len(ranks) == 2

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

    @pytest.mark.parametrize("section, key, value, field", [
        pytest.param("data", "u_max", float("inf"), "data.u_max", id="u_max-inf"),
        pytest.param("safe_set", "offsets", [float("inf"), 1.0, 1.0, 1.0], "safe_set.offsets[0]",
                     id="offsets-inf"),
        pytest.param("system", "w_bound", float("inf"), "system.w_bound", id="w_bound-inf"),
        pytest.param("system", "a1", [[float("nan"), 0.5], [-0.4, 1.2]], "system.a1",
                     id="a1-nan"),
    ])
    def test_non_finite_number_exit_one(self, scenario_path, tmp_path, capsys,
                                        section, key, value, field):
        # json reads NaN and Infinity; each must be refused at its field path
        bad = tmp_path / "non_finite.json"
        doc = json.loads(scenario_path.read_text())
        doc[section][key] = value
        bad.write_text(json.dumps(doc))
        code = cli.main(["synth", "--scenario", str(bad), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert f"scenario error: {field}:" in capsys.readouterr().err

    def test_all_zero_normal_row_exit_one(self, scenario_path, tmp_path, capsys):
        # refused at its field path, not by a traceback from the set constructor
        bad = tmp_path / "zero_row.json"
        doc = json.loads(scenario_path.read_text())
        doc["safe_set"]["normals"][2] = [0.0, 0]
        bad.write_text(json.dumps(doc))
        code = cli.main(["synth", "--scenario", str(bad), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "scenario error: safe_set.normals[2]: " in capsys.readouterr().err

    @pytest.mark.parametrize("point", ["auto", [0.5, 0.5], [10.0, 10.0]],
                             ids=["auto", "inside", "outside"])
    def test_expansion_point_has_no_effect(self, tmp_path, point):
        # the key is accepted and shape-checked, and no value moves a byte of
        # the outputs, a point outside the set included
        doc = json.loads(REPO_SCENARIO.read_text())
        assert "expansion_point" not in doc["synthesis"]
        outputs = []
        for name in ("absent", "given"):
            if name == "given":
                doc["synthesis"]["expansion_point"] = point
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / name
            assert cli.main(["synth", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK
            outputs.append([(out / f).read_bytes() for f in ("certificate.txt", "summary.json")])
        assert outputs[0] == outputs[1]

    def test_removed_definiteness_flag_is_a_usage_error(self, scenario_path, tmp_path):
        # --row-norm went the same way: the one-norm is the only sound offset
        for flag, value in (("--definiteness", "strict"), ("--row-norm", "inf")):
            code = cli.main(["synth", "--scenario", str(scenario_path),
                             "--out", str(tmp_path / "removed"), flag, value])
            assert code == cli.EXIT_USAGE, flag


class TestUnsoundCertificateIsCaught:
    """Claims the true closed loop does not keep are refused or caught.

    In the first plant the remainder enters the autonomous second state
    with a fixed coefficient; near the origin its slope is tiny, so the
    first-order equations alone would close, yet the curvature drives
    corner states out of the scaled set.  ``thm2`` pins
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
            "synthesis": {"method": "thm2", "contraction": 0.95},
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

    def test_certificate_that_does_not_replay_is_refused(self, scenario_path, tmp_path,
                                                         monkeypatch, secv_data, secv_set):
        # a scaled preimage keeps regressor @ G = I but moves next_states @ G
        # off the closed loop the program solved for: the multiplier rows no
        # longer match, so thm2 and thm1 are refused, not certified
        closed_loop = ExperimentData.closed_loop.func

        def perturbed(data):
            base, lift, g0, preimage = closed_loop(data)
            return base, lift, g0, 1.01 * preimage

        # a property outranks the value a data set already cached
        monkeypatch.setattr(ExperimentData, "closed_loop", property(perturbed))
        with pytest.raises(NumericalInstabilityError, match="thm2 certificate does not replay"):
            synthesis.synthesize_noiseless(secv_data, secv_set)
        with pytest.raises(NumericalInstabilityError, match="thm1 certificate does not replay"):
            synthesis.synthesize_min_remainder(secv_data, secv_set)
        out = tmp_path / "sweep"
        assert cli.main(["sweep-lambda", "--scenario", str(scenario_path),
                         "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads((out / "summary.json").read_text())
        levels, failures = doc["min_levels"], doc["failures"]
        for method in ("thm2", "thm1"):
            assert levels[method] is None and failures[method]["status"] == "solver-failed"
            assert failures[method]["detail"].startswith(
                f"{method} certificate does not replay"), failures
        assert levels["cor2"] is None


class TestPublicApi:
    def test_every_exported_name_resolves(self):
        # the package exports only names that exist, and none of the
        # entries that no command or check reaches
        import polysafe

        missing = [name for name in polysafe.__all__ if not hasattr(polysafe, name)]
        assert not missing
        removed = {"dual_gap_check", "grid_contractivity", "BaselineResult"}
        assert not removed & set(polysafe.__all__)
        assert not hasattr(synthesis, "BaselineResult") and not hasattr(cli, "SOLVER_FAILED")
        assert not removed & set(vars(verify))
        assert not hasattr(polysafe.Dictionary, "hessians")
        assert not hasattr(lpcore.LinearProgram, "dump")
        assert "lumped_disturbance_bounds" not in vars(synthesis)
        assert polysafe.lumped_disturbance_bounds is verify.lumped_disturbance_bounds
