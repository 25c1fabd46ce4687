"""Batch front end: scenario files and the collect/synth/verify pipelines.

A scenario JSON file fully describes one study: the ground-truth system
(used for data collection and verification only), the safe set, the
excitation experiment, the synthesis configuration and the verification
budgets.  Every command is deterministic for a fixed scenario, so two
runs produce byte-identical artifacts.

Exit codes: 0 success (feasible and verified where applicable), 1 usage
or validation error, or a solver with no verdict (``solver-failed``) or an
unsupported input (``unsupported``) on the command's own method, 2 no
feasible level (``infeasible``), rank-deficient data (``rank-deficient``)
or data that no noiseless plant fits, given to a method that assumes
noiseless data (``inconsistent-data``), 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import synthesis, verify
from .datagen import collect_informative, identification_rank, regressor_rank
from .dynamics import Dictionary, PlantModel
from .errors import (
    DimensionTooLargeError,
    InconsistentDataError,
    NumericalInstabilityError,
    PolysafeError,
    RankDeficientDataError,
    ScenarioValidationError,
    SolverStalledError,
    SynthesisInfeasibleError,
)
from .polytope import (PolyhedralSet, enumerate_vertices, grid_resolution, sample_points,
                       sample_vertices)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3


# ---------------------------------------------------------------------------
# scenario model


@dataclass
class SystemSection:
    a1: list
    a2: list
    b: list
    dictionary: list
    w_bound: float


@dataclass
class SafeSetSection:
    normals: list
    offsets: list


@dataclass
class DataSection:
    samples: int
    u_max: float
    x0: list
    seed: int
    noise: bool


@dataclass
class SynthesisSection:
    method: str
    contraction: float


@dataclass
class VerifySection:
    grid: list
    mc_trajectories: int
    horizon: int


@dataclass
class Scenario:
    system: SystemSection
    safe_set: SafeSetSection
    data: DataSection
    synthesis: SynthesisSection
    verify: VerifySection
    version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    def plant(self) -> PlantModel:
        n = len(self.system.a1)
        return PlantModel(
            a1=np.asarray(self.system.a1, dtype=float),
            a2=np.asarray(self.system.a2, dtype=float),
            b=np.asarray(self.system.b, dtype=float),
            dictionary=Dictionary.from_json(self.system.dictionary, n),
            w_bound=float(self.system.w_bound),
        )

    def polytope(self) -> PolyhedralSet:
        return PolyhedralSet(np.asarray(self.safe_set.normals, dtype=float),
                             np.asarray(self.safe_set.offsets, dtype=float))

    def to_json(self) -> dict:
        return asdict(self)


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ScenarioValidationError(f"{path}: {message}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is not 1


def _is_number(value) -> bool:
    # json reads NaN and Infinity, which no field accepts
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _known_keys(doc: dict, section: str, cls) -> None:
    """Refuse a key of ``doc`` that is not a field of ``cls``."""
    known = {f.name for f in fields(cls)}
    if cls is SynthesisSection:
        # expansion_point is shape-checked and has no effect, so that files
        # that set it still load; it is not kept, and saved scenarios leave it out
        known.add("expansion_point")
    for key in doc:
        _expect(key in known, f"{section}.{key}" if section else key,
                f"unknown key; {section or 'the scenario'} takes {sorted(known)}")


def _matrix(obj, path: str) -> list:
    _expect(isinstance(obj, list) and obj and all(isinstance(r, list) for r in obj),
            path, "expected a non-empty list of rows")
    width = len(obj[0])
    _expect(width > 0 and all(len(r) == width for r in obj), path, "ragged rows")
    for r in obj:
        for v in r:
            _expect(_is_number(v), path, f"non-numeric or non-finite entry {v!r}")
    return obj


def scenario_from_json(doc: dict) -> Scenario:
    """Validate a parsed scenario document; error messages carry field paths."""
    _expect(isinstance(doc, dict), "$", "scenario must be an object")
    _known_keys(doc, "", Scenario)
    version = doc.get("version")
    _expect(_is_int(version) and version == SCHEMA_VERSION, "version",
            f"expected schema version {SCHEMA_VERSION}")
    for section in ("system", "safe_set", "data"):
        _expect(section in doc, section, "missing section")
    for section, cls in (("system", SystemSection), ("safe_set", SafeSetSection),
                         ("data", DataSection), ("synthesis", SynthesisSection),
                         ("verify", VerifySection)):
        _expect(isinstance(doc.get(section, {}), dict), section, "must be an object")
        _known_keys(doc.get(section, {}), section, cls)

    sys_doc = doc["system"]
    a1 = _matrix(sys_doc.get("a1"), "system.a1")
    n = len(a1)
    _expect(all(len(r) == n for r in a1), "system.a1", "must be square")
    a2 = _matrix(sys_doc.get("a2"), "system.a2")
    _expect(len(a2) == n, "system.a2", f"expected {n} rows")
    b = _matrix(sys_doc.get("b"), "system.b")
    _expect(len(b) == n, "system.b", f"expected {n} rows")
    terms = sys_doc.get("dictionary")
    _expect(isinstance(terms, list) and terms, "system.dictionary", "need at least one term")
    n_terms = len(terms)
    for idx, term in enumerate(terms):
        path = f"system.dictionary[{idx}]"
        _expect(isinstance(term, dict), path, "term must be an object")
        kind = term.get("kind")
        _expect(kind in ("monomial", "sin", "cosm1"), path, f"unknown term kind {kind!r}")
        if kind == "monomial":
            exps = term.get("exponents")
            _expect(isinstance(exps, list) and len(exps) == n, path,
                    f"exponents must have length {n}")
            _expect(all(_is_int(e) and e >= 0 for e in exps), path,
                    "exponents must be non-negative integers")
            _expect(sum(exps) >= 1, path, "total degree must be >= 1")
        else:
            coord = term.get("coord")
            _expect(_is_int(coord) and 0 <= coord < n, path,
                    f"coord must be in [0, {n})")
    _expect(len(a2[0]) == n_terms, "system.a2", f"expected {n_terms} columns")
    w_bound = sys_doc.get("w_bound", 0.0)
    _expect(_is_number(w_bound) and w_bound >= 0, "system.w_bound",
            "must be a finite non-negative number")

    set_doc = doc["safe_set"]
    normals = _matrix(set_doc.get("normals"), "safe_set.normals")
    _expect(all(len(r) == n for r in normals), "safe_set.normals",
            f"rows must have length {n}")
    for i, row in enumerate(normals):
        _expect(any(v != 0 for v in row), f"safe_set.normals[{i}]", "row must not be all zero")
    offsets = set_doc.get("offsets")
    _expect(isinstance(offsets, list) and len(offsets) == len(normals),
            "safe_set.offsets", "one offset per normal row")
    for i, v in enumerate(offsets):
        _expect(_is_number(v) and v > 0, f"safe_set.offsets[{i}]",
                "offsets must be finite and strictly positive")

    data_doc = doc["data"]
    samples = data_doc.get("samples")
    _expect(_is_int(samples) and samples >= 1, "data.samples",
            "must be a positive integer")
    _expect(samples >= n + n_terms + 1, "data.samples",
            f"must be at least n + N + 1 = {n + n_terms + 1}")
    u_max = data_doc.get("u_max")
    _expect(_is_number(u_max) and u_max > 0, "data.u_max", "must be finite and positive")
    x0 = data_doc.get("x0")
    _expect(isinstance(x0, list) and len(x0) == n and all(_is_number(v) for v in x0),
            "data.x0", f"must be {n} finite numbers")
    seed = data_doc.get("seed")
    _expect(_is_int(seed) and seed >= 0, "data.seed", "must be an integer >= 0")
    noise = data_doc.get("noise", False)
    _expect(isinstance(noise, bool), "data.noise", "must be a boolean")

    synth_doc = doc.get("synthesis", {})
    method = synth_doc.get("method", "thm2")
    _expect(method in synthesis.METHODS, "synthesis.method",
            f"must be one of {synthesis.METHODS}")
    contraction = synth_doc.get("contraction", 0.95)
    _expect(_is_number(contraction) and 0 < contraction <= 1,
            "synthesis.contraction", "must lie in (0, 1]")
    expansion = synth_doc.get("expansion_point", "auto")
    if expansion != "auto":
        _expect(isinstance(expansion, list) and len(expansion) == n
                and all(_is_number(v) for v in expansion),
                "synthesis.expansion_point", f"must be 'auto' or a point of {n} finite numbers")

    verify_doc = doc.get("verify", {})
    grid = verify_doc.get("grid", list(grid_resolution(n)))
    _expect(isinstance(grid, list) and len(grid) == n
            and all(_is_int(r) and r >= 2 for r in grid),
            "verify.grid", f"must be {n} integers >= 2")
    mc = verify_doc.get("mc_trajectories", 10000)
    _expect(_is_int(mc) and mc >= 1, "verify.mc_trajectories",
            "must be a positive integer")
    horizon = verify_doc.get("horizon", 200)
    _expect(_is_int(horizon) and horizon >= 1, "verify.horizon",
            "must be a positive integer")

    return Scenario(
        system=SystemSection(a1=a1, a2=a2, b=b, dictionary=terms, w_bound=float(w_bound)),
        safe_set=SafeSetSection(normals=normals, offsets=list(offsets)),
        data=DataSection(samples=samples, u_max=float(u_max), x0=list(x0),
                         seed=seed, noise=noise),
        synthesis=SynthesisSection(method=method, contraction=float(contraction)),
        verify=VerifySection(grid=list(grid), mc_trajectories=mc, horizon=horizon),
    )


def _read_document(path):
    path = Path(path)
    if not path.exists():
        raise ScenarioValidationError(f"$: scenario file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ScenarioValidationError(f"$: not valid JSON ({err})") from err


def load_scenario(path) -> Scenario:
    return scenario_from_json(_read_document(path))


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario.to_json(), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# helpers shared by the commands


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")


def _collect(scenario: Scenario):
    plant = scenario.plant()
    safe_set = scenario.polytope()
    data = collect_informative(
        plant, scenario.data.samples, scenario.data.u_max, scenario.data.x0,
        scenario.data.seed, with_noise=scenario.data.noise, safe_set=safe_set)
    return plant, safe_set, data


def _design(scenario: Scenario, data, safe_set, method: str):
    """The method's level-free design: the controller and its certificate,
    whose ``contraction`` is the smallest level the certificate holds at."""
    if method == "thm2":
        return synthesis.synthesize_noiseless(data, safe_set)
    if method == "cor2":
        return synthesis.synthesize_robust(data, safe_set, w_bound=scenario.system.w_bound)
    return synthesis.synthesize_min_remainder(data, safe_set)


@dataclass(frozen=True)
class _Failure:
    """Why a method gives no design: ``status`` is ``"infeasible"``,
    ``"rank-deficient"``, ``"inconsistent-data"``, ``"unsupported"`` or
    ``"solver-failed"``, ``detail`` says why."""
    status: str
    detail: str


_FAILURE_EXIT = {"infeasible": EXIT_INFEASIBLE, "rank-deficient": EXIT_INFEASIBLE,
                 "inconsistent-data": EXIT_INFEASIBLE, "unsupported": EXIT_USAGE,
                 "solver-failed": EXIT_USAGE}


def _check_level(scenario: Scenario, cert) -> _Failure | None:
    """The ``infeasible`` record when the design misses the requested level."""
    requested = scenario.synthesis.contraction
    if requested < cert.contraction:
        return _Failure("infeasible",
                        f"{scenario.synthesis.method} design certifies level {cert.contraction} "
                        f"at best, above the requested level {requested}")
    return None


def _sweep(scenario: Scenario, data, safe_set, methods) -> dict:
    """Each method's design, or the :class:`_Failure` saying why it has none.
    One method's failure leaves the other methods' designs standing."""
    designs: dict = {}
    for method in methods:
        # the message only: the error's traceback would hold every frame
        # of the command, and the data with them, until a garbage collection
        try:
            designs[method] = _design(scenario, data, safe_set, method)
        except SynthesisInfeasibleError as err:
            designs[method] = _Failure("infeasible", str(err))
        except RankDeficientDataError as err:
            designs[method] = _Failure("rank-deficient", str(err))
        except InconsistentDataError as err:
            designs[method] = _Failure("inconsistent-data", str(err))
        except DimensionTooLargeError as err:
            designs[method] = _Failure("unsupported", str(err))
        except (SolverStalledError, NumericalInstabilityError) as err:
            designs[method] = _Failure("solver-failed", str(err))
    return designs


def _scenario_design(scenario: Scenario, data, safe_set):
    """The scenario method's design, or its failure; a design that misses
    the requested level is ``infeasible``."""
    method = scenario.synthesis.method
    design = _sweep(scenario, data, safe_set, [method])[method]
    if isinstance(design, _Failure):
        return design
    return _check_level(scenario, design[1]) or design


def _write_failure(path: Path, payload: dict, failure: _Failure) -> int:
    """Write ``payload`` with the failure's status and detail, say so, and
    return the status's exit code."""
    _write_json(path, {**payload, "status": failure.status, "detail": failure.detail})
    print(f"{failure.status}: {failure.detail}", file=sys.stderr)
    return _FAILURE_EXIT[failure.status]


def _outcomes(designs: dict) -> dict:
    """``min_levels``, each method's minimal level or ``None`` when it has no
    design, and ``failures``, the status and detail of each method with none."""
    return {"min_levels": {method: None if isinstance(design, _Failure) else design[1].contraction
                           for method, design in designs.items()},
            "failures": {method: asdict(design) for method, design in designs.items()
                         if isinstance(design, _Failure)}}


def _write_design(out_dir: Path, payload: dict, controller, cert) -> None:
    """Add the design's gains and residuals to ``payload``, then write its
    certificate file."""
    payload.update(k1=controller.k1, k2=controller.k2, residuals=cert.residuals)
    (out_dir / "certificate.txt").write_text(synthesis.format_certificate(controller, cert))


def _verify_controller(scenario: Scenario, plant, data, safe_set, controller, level,
                       out_dir: Path, payload: dict):
    """Grid-check both closed loops at ``level`` and roll the true one out:
    add the three reports to ``payload``, draw the plot, return the reports.
    The data-rep loop is the one the data represent, ``next_states @ [g1 g2]``."""
    loops = {"true-model": plant.closed_loop(controller),
             "data-rep": (data.next_states @ controller.g1, data.next_states @ controller.g2)}
    grid_true, grid_data = verify.grid_reports(
        loops, safe_set, level, scenario.system.w_bound, scenario.verify.grid, plant.dictionary)
    mc = verify.monte_carlo_invariance(
        plant, controller, safe_set, scenario.verify.mc_trajectories,
        scenario.verify.horizon, scenario.data.seed)
    payload.update(grid_true_model=_report_entry(grid_true),
                   grid_data_rep=_report_entry(grid_data), monte_carlo=_report_entry(mc))
    _plot_svg(out_dir / "plot.svg", scenario, plant, safe_set, controller, level)
    return grid_true, grid_data, mc


def _report_entry(report: verify.VerificationReport) -> dict:
    return {
        "method": report.method,
        "passed": report.passed,
        "row_margins": report.row_margins,
        "violations": report.violations,
        "samples": report.samples,
        "mc": report.mc_stats,
        "cell_diagonal": report.cell_diagonal,
        "refinement_bound": report.refinement_bound,
    }


def _plot_svg(path: Path, scenario: Scenario, plant, safe_set: PolyhedralSet,
              controller, level: float) -> None:
    """Phase-plane SVG: safe polygon, scaled polygon, closed-loop trajectories.

    Only two-state sets are drawn; the trajectories are run only then."""
    if safe_set.dim != 2:
        return
    vertices = np.array(enumerate_vertices(safe_set))
    center = vertices.mean(axis=0)
    order = np.argsort(np.arctan2(*(vertices - center).T[::-1]))
    ring = vertices[order]
    lo = vertices.min(axis=0) * 1.15
    hi = vertices.max(axis=0) * 1.15
    size = 640.0

    def xy(p):
        u = (p[0] - lo[0]) / (hi[0] - lo[0]) * size
        v = size - (p[1] - lo[1]) / (hi[1] - lo[1]) * size
        return f"{u:.2f},{v:.2f}"

    def ring_path(points):
        return "M " + " L ".join(xy(p) for p in points) + " Z"

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
             f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
             f'<path d="{ring_path(ring)}" fill="#e8f0fe" stroke="#1a56a0" stroke-width="2"/>',
             f'<path d="{ring_path(level * ring)}" fill="none" stroke="#a01a1a" '
             f'stroke-width="1.5" stroke-dasharray="6 4"/>']
    horizon = min(scenario.verify.horizon, 60)
    for i, vertex in enumerate(vertices[:5]):
        traj = _rollout(scenario, plant, controller, vertex, horizon, i).states
        pts = " L ".join(xy(p) for p in traj)
        parts.append(f'<path d="M {pts}" fill="none" stroke="#2d7d46" stroke-width="1"/>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _rollout(scenario: Scenario, plant, controller, start, horizon: int, index: int):
    """Rollout ``index`` of the true closed loop from ``start``: its disturbances
    are uniform in the plant's bound, drawn from ``default_rng([seed, index])``."""
    noise = None
    if plant.w_bound > 0:
        rng = np.random.default_rng([scenario.data.seed, index])
        noise = rng.uniform(-plant.w_bound, plant.w_bound, size=(horizon, plant.state_dim))
    return plant.simulate(controller, start, horizon, noise)


# ---------------------------------------------------------------------------
# commands


def _cmd_collect(scenario: Scenario, out_dir: Path) -> int:
    plant, safe_set, data = _collect(scenario)
    files = data.export_csv(out_dir / "data")
    reg = regressor_rank(data)
    ident = identification_rank(data)
    _write_json(out_dir / "summary.json", {
        "command": "collect",
        "status": "ok",
        "samples": data.n_samples,
        "regressor_rank": {"rank": reg.rank, "required": reg.required,
                           "full_row_rank": reg.full_row_rank},
        "identification_rank": {"rank": ident.rank, "required": ident.required,
                                "full_row_rank": ident.full_row_rank},
        "files": [f.relative_to(out_dir).as_posix() for f in files],
    })
    print(f"collected {data.n_samples} samples; regressor {reg}; stacked {ident}",
          file=sys.stderr)
    return EXIT_OK


def _cmd_synth(scenario: Scenario, out_dir: Path) -> int:
    plant, safe_set, data = _collect(scenario)
    payload = {"command": "synth", "method": scenario.synthesis.method,
               "contraction": scenario.synthesis.contraction}
    design = _scenario_design(scenario, data, safe_set)
    if isinstance(design, _Failure):
        return _write_failure(out_dir / "summary.json", payload, design)
    controller, cert = design
    payload["status"] = "feasible"
    _write_design(out_dir, payload, controller, cert)
    _write_json(out_dir / "summary.json", payload)
    print(f"synthesized {scenario.synthesis.method} controller, "
          f"k1={controller.k1.tolist()}, k2={controller.k2.tolist()}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(scenario: Scenario, out_dir: Path) -> int:
    plant, safe_set, data = _collect(scenario)
    summary: dict = {"command": "verify"}
    design = _scenario_design(scenario, data, safe_set)
    if isinstance(design, _Failure):
        return _write_failure(out_dir / "summary.json", summary, design)
    controller, _ = design
    grid_true, grid_data, mc = _verify_controller(
        scenario, plant, data, safe_set, controller, scenario.synthesis.contraction,
        out_dir, summary)
    passed = grid_true.passed and grid_data.passed and mc.passed
    summary["status"] = "pass" if passed else "fail"
    _write_json(out_dir / "summary.json", summary)
    print(f"verification {'pass' if passed else 'FAIL'}: "
          f"grid(true)={grid_true.passed} grid(data)={grid_data.passed} "
          f"mc exits={mc.violations}", file=sys.stderr)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _cmd_simulate(scenario: Scenario, out_dir: Path) -> int:
    plant, safe_set, data = _collect(scenario)
    design = _scenario_design(scenario, data, safe_set)
    if isinstance(design, _Failure):
        return _write_failure(out_dir / "summary.json", {"command": "simulate"}, design)
    controller, _ = design
    # the first vertex, or above 3 states (no vertices) the first grid member
    vertices = sample_vertices(safe_set)
    start = (vertices if vertices.shape[1] else sample_points(safe_set))[:, 0]
    horizon = scenario.verify.horizon
    traj = _rollout(scenario, plant, controller, start, horizon, 0)
    path = out_dir / "trajectory.csv"
    with open(path, "w") as handle:
        headers = ["t"] + [f"x{i + 1}" for i in range(plant.state_dim)] \
            + [f"u{i + 1}" for i in range(plant.input_dim)]
        handle.write(",".join(headers) + "\n")
        for t in range(horizon + 1):
            cells = [str(t)]
            cells += [f"{v:.17g}" for v in traj.states[t]]
            if t < horizon:
                cells += [f"{v:.17g}" for v in traj.inputs[t]]
            else:
                cells += [""] * plant.input_dim
            handle.write(",".join(cells) + "\n")
    _write_json(out_dir / "summary.json", {
        "command": "simulate", "status": "ok", "start": start,
        "horizon": horizon, "file": path.name,
    })
    print(f"simulated {horizon} steps from {start.tolist()}", file=sys.stderr)
    return EXIT_OK


def _cmd_sweep(scenario: Scenario, out_dir: Path, requested=None) -> int:
    plant, safe_set, data = _collect(scenario)
    designs = _sweep(scenario, data, safe_set, requested or synthesis.METHODS)
    summary = {"command": "sweep-lambda", **_outcomes(designs)}
    shown = {m: d.status if isinstance(d, _Failure) else format(d[1].contraction, ".4f")
             for m, d in designs.items()}
    print("minimal feasible levels: " + ", ".join(f"{m}={v}" for m, v in shown.items()),
          file=sys.stderr)
    # a method named on the command line whose solver gives no verdict,
    # whose data are rank-deficient or inconsistent, or whose input is
    # unsupported, is the command's failure; an infeasible named method, and
    # every failed method of the all-method sweep, is only its entry
    own = designs[requested[0]] if requested else None
    if isinstance(own, _Failure) and own.status != "infeasible":
        return _write_failure(out_dir / "summary.json", summary, own)
    _write_json(out_dir / "summary.json", {**summary, "status": "ok"})
    return EXIT_OK


def _cmd_report(scenario: Scenario, out_dir: Path) -> int:
    plant, safe_set, data = _collect(scenario)
    data.export_csv(out_dir / "data")
    reg = regressor_rank(data)
    method = scenario.synthesis.method
    # one level-free design per method gives the minimal levels, the verified
    # controller and the conservatism rows
    designs = _sweep(scenario, data, safe_set, synthesis.METHODS)
    summary: dict = {
        "command": "report",
        "method": method,
        "contraction": scenario.synthesis.contraction,
        "regressor_rank": {"rank": reg.rank, "required": reg.required,
                           "full_row_rank": reg.full_row_rank},
        **_outcomes(designs),
    }
    if isinstance(designs[method], _Failure):
        return _write_failure(out_dir / "report.json", summary, designs[method])

    controller, cert = designs[method]
    level = scenario.synthesis.contraction
    short = _check_level(scenario, cert)
    if short:
        summary["infeasible_detail"] = short.detail
        print(f"synthesis infeasible at {level}: {short.detail}", file=sys.stderr)
        # the design's rows leave out the disturbance offsets d_i that the grid
        # check adds, so verify at the minimal level plus max_i d_i / g_i
        offsets = verify.disturbance_offsets(safe_set, scenario.system.w_bound)
        level = min(1.0, cert.contraction + float(np.max(offsets / safe_set.offsets)))

    summary["level_verified"] = level
    _write_design(out_dir, summary, controller, cert)
    grid_true, grid_data, mc = _verify_controller(
        scenario, plant, data, safe_set, controller, level, out_dir, summary)
    verified = grid_true.passed and grid_data.passed and mc.passed

    lumped = verify.lumped_disturbance_bounds(
        data, safe_set, controller, scenario.system.w_bound)
    # a feasible method's row is its design; the others' is their status
    table = verify.conservatism_report(
        safe_set, plant.dictionary,
        {m: d.status if isinstance(d, _Failure) else d for m, d in designs.items()}, lumped)
    summary["conservatism"] = {"rows": table.rows, "lumped_bounds": lumped}
    (out_dir / "report.txt").write_text(table.render() + "\n")

    summary["status"] = "verified" if verified else "verification-failed"
    _write_json(out_dir / "report.json", summary)
    print(f"report: level={level} verified={verified} "
          f"(grid true {grid_true.passed}, grid data {grid_data.passed}, "
          f"mc exits {mc.violations})", file=sys.stderr)
    if not verified:
        return EXIT_VERIFY_FAILED
    return EXIT_INFEASIBLE if short else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit code 1, not argparse's 2
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on the first call and reused after."""
    parser = _Parser(prog="polysafe", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("collect", "synth", "verify", "simulate", "sweep-lambda", "report"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        cmd.add_argument("--out", default="out", help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override data.seed")
        cmd.add_argument("--lambda", dest="contraction", type=float, default=None,
                         help="override synthesis.contraction")
        cmd.add_argument("--method", choices=list(synthesis.METHODS), default=None,
                         help="override synthesis.method")
        cmd.add_argument("--grid", default=None, metavar="RxC",
                         help="override verify.grid, e.g. 201x201")
    return parser


def _apply_overrides(doc, args):
    """Write the flag values into the scenario document, so that the
    schema checks them as it checks the file's own values."""
    grid = None
    if args.grid is not None:
        try:
            grid = [int(part) for part in args.grid.lower().split("x")]
        except ValueError as err:
            raise ScenarioValidationError(f"--grid must look like 201x201, got {args.grid!r}") from err
    for section, key, value in (("data", "seed", args.seed),
                                ("synthesis", "contraction", args.contraction),
                                ("synthesis", "method", args.method), ("verify", "grid", grid)):
        if value is not None and isinstance(doc, dict) and isinstance(doc.get(section, {}), dict):
            doc[section] = {**doc.get(section, {}), key: value}
    return doc


_COMMANDS = {
    "collect": _cmd_collect,
    "synth": _cmd_synth,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        scenario = scenario_from_json(_apply_overrides(_read_document(args.scenario), args))
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "sweep-lambda":
            methods = [args.method] if args.method else None
            return _cmd_sweep(scenario, out_dir, methods)
        return _COMMANDS[args.command](scenario, out_dir)
    except ScenarioValidationError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except PolysafeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
