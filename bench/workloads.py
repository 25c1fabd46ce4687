"""The benchmark's workloads: scenario documents, CLI arguments and output checks.

Every workload is one ``polysafe`` CLI command on one scenario.  The
``tri-*`` and ``duo-sweep`` documents are built here; ``secv-report`` runs
the shipped ``scenarios/secV.json``.  The program only ever sees the JSON
files written from these documents.

The documents are pinned: the workload seed does not change them.  Other
excitation-data seeds, and even a reordering of the safe-set rows or of
the dictionary terms, change the cost of a sweep several-fold, move the
``tri`` minimal level, and on ``duo-sweep`` make the simplex stop at its
iteration cap (exit code 1).  ``NOTES.md`` records the measurements.

This module imports nothing from ``polysafe`` or numpy, so the parent
process of a run stays light.
"""

from __future__ import annotations

import json
from pathlib import Path

SECV_PATH = Path("scenarios") / "secV.json"

# Minimal contraction levels from today's bisection (tolerance 1e-3).  A
# reported level must lie in [ref - 1e-3, ref + 1e-6]: that holds for the
# bisection's upper bracket and for the exact minimum it brackets.
REF_LEVELS = {
    "secv": {"thm2": 0.7587890625, "thm1": 0.7587890625},
    "tri": {"thm2": 0.9111328125},
    "duo": {"thm2": 0.67578125, "thm1": 0.67578125},
}
LEVEL_BELOW = 1e-3
LEVEL_ABOVE = 1e-6

_TRI_P = [[1.0, 0.3, 0.0], [0.0, 1.0, 0.25], [0.2, 0.0, 1.0]]


def _monomials(exponents) -> list:
    return [{"kind": "monomial", "exponents": list(e)} for e in exponents]


def tri_document(samples: int, grid, mc_trajectories: int, horizon: int) -> dict:
    """The 3-state plant with an 'auto' expansion point."""
    normals = [[0.5 * v for v in row] for row in _TRI_P] \
        + [[-0.5 * v for v in row] for row in _TRI_P]
    return {
        "version": 1,
        "system": {
            "a1": [[0.7, 0.2, 0.0], [0.0, 0.6, 0.3], [0.2, -0.3, 1.1]],
            "a2": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.5, -0.5]],
            "b": [[0.0], [0.0], [1.0]],
            "dictionary": _monomials([[2, 0, 0], [0, 2, 0], [1, 0, 1]]),
            "w_bound": 0.02,
        },
        "safe_set": {"normals": normals, "offsets": [1.0] * 6},
        "data": {"samples": samples, "u_max": 0.01, "x0": [0.0, 0.0, 0.0],
                 "seed": 11, "noise": False},
        "synthesis": {"method": "thm2", "contraction": 0.95, "expansion_point": "auto"},
        "verify": {"grid": list(grid), "mc_trajectories": mc_trajectories,
                   "horizon": horizon},
    }


def duo_document(samples: int, secv: dict) -> dict:
    """The stable 2-state plant with three terms, on the secV safe set."""
    return {
        "version": 1,
        "system": {
            "a1": [[0.7, 0.3], [-0.2, 0.9]],
            "a2": [[0.0, 0.0, 0.0], [1.0, 0.5, -0.5]],
            "b": [[0.0], [1.0]],
            "dictionary": _monomials([[2, 0], [0, 2], [1, 1]]),
            "w_bound": 0.02,
        },
        "safe_set": json.loads(json.dumps(secv["safe_set"])),
        "data": {"samples": samples, "u_max": 0.05, "x0": [0.0, 0.0],
                 "seed": 7, "noise": False},
        "synthesis": {"method": "thm2", "contraction": 0.95, "expansion_point": [0.5, 0.5]},
        "verify": {"grid": [201, 201], "mc_trajectories": 10000, "horizon": 200},
    }


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output holds


def _read(path: Path) -> dict:
    """The JSON document at ``path``; empty when it is missing or malformed."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def _check_levels(levels, refs: dict, null_methods=()) -> list:
    if not isinstance(levels, dict):
        return [f"min_levels missing: {levels!r}"]
    problems = []
    for method, ref in refs.items():
        value = levels.get(method)
        lo, hi = ref - LEVEL_BELOW, ref + LEVEL_ABOVE
        if not isinstance(value, (int, float)) or not lo <= value <= hi:
            problems.append(f"{method} level {value!r} outside [{lo}, {hi}]")
    for method in null_methods:
        if method in levels and levels[method] is not None:
            problems.append(f"{method} level {levels[method]!r}, expected null")
    return problems


def check_secv_report(out_dir: Path) -> list:
    doc = _read(out_dir / "report.json")
    problems = [] if doc.get("status") == "verified" else [
        f"status {doc.get('status')!r}, expected 'verified'"]
    for key in ("grid_true_model", "grid_data_rep"):
        if (doc.get(key) or {}).get("passed") is not True:
            problems.append(f"{key} did not pass")
    exits = ((doc.get("monte_carlo") or {}).get("mc") or {}).get("exits")
    if exits != 0:
        problems.append(f"Monte Carlo exits {exits!r}, expected 0")
    return problems + _check_levels(doc.get("min_levels"), REF_LEVELS["secv"],
                                    null_methods=("cor2",))


def check_tri_sweep(out_dir: Path) -> list:
    doc = _read(out_dir / "summary.json")
    problems = [] if doc.get("status") == "ok" else [f"status {doc.get('status')!r}"]
    return problems + _check_levels(doc.get("min_levels"), REF_LEVELS["tri"])


def check_tri_verify(out_dir: Path) -> list:
    doc = _read(out_dir / "summary.json")
    return [] if doc.get("status") == "pass" else [f"status {doc.get('status')!r}, expected 'pass'"]


def check_duo_sweep(out_dir: Path) -> list:
    doc = _read(out_dir / "summary.json")
    problems = [] if doc.get("status") == "ok" else [f"status {doc.get('status')!r}"]
    return problems + _check_levels(doc.get("min_levels"), REF_LEVELS["duo"],
                                    null_methods=("cor2",))


# ---------------------------------------------------------------------------
# the workloads


def _secv(checkout: Path, tiny: bool) -> dict:
    doc = json.loads((checkout / SECV_PATH).read_text())
    if tiny:
        doc["verify"] = {"grid": [21, 21], "mc_trajectories": 200, "horizon": 50}
    return doc


def _tri_sweep(checkout: Path, tiny: bool) -> dict:
    return tri_document(40 if tiny else 160, [101] * 3, 2000, 100)


def _tri_verify(checkout: Path, tiny: bool) -> dict:
    if tiny:
        return tri_document(60, [11] * 3, 100, 20)
    return tri_document(60, [101] * 3, 2000, 100)


def _duo_sweep(checkout: Path, tiny: bool) -> dict:
    secv = json.loads((checkout / SECV_PATH).read_text())
    return duo_document(40 if tiny else 160, secv)


WORKLOADS = {
    "secv-report": {"scenario": _secv, "argv": ["report"], "check": check_secv_report},
    "tri-sweep": {"scenario": _tri_sweep, "argv": ["sweep-lambda", "--method", "thm2"],
                  "check": check_tri_sweep},
    "tri-verify": {"scenario": _tri_verify, "argv": ["verify"], "check": check_tri_verify},
    "duo-sweep": {"scenario": _duo_sweep, "argv": ["sweep-lambda"], "check": check_duo_sweep},
}


def write_scenario(name: str, checkout: Path, tiny: bool, path: Path) -> Path:
    """Write the workload's scenario document to ``path``."""
    doc = WORKLOADS[name]["scenario"](checkout, tiny)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def operation_argv(name: str, scenario: Path, out_dir: Path) -> list:
    return [*WORKLOADS[name]["argv"], "--scenario", str(scenario), "--out", str(out_dir)]


def check_output(name: str, exit_code: int, out_dir: Path) -> list:
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    return WORKLOADS[name]["check"](out_dir)
