"""One workload in one process: repeated ``polysafe.cli.main`` calls, each checked.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and one BLAS thread.  One warm-up operation runs first; then operations run
back to back, one at a time, until ``--seconds`` have passed (at least one).

With ``--trace 0`` the phase also times ``--setup-runs`` fresh interpreters
that import ``polysafe`` and load the scenario, spread evenly over the phase
between operations, so that a short slow spell of the machine moves few of
them.  With ``--trace 1`` every other operation of the phase is traced, and
the untraced ones in between are the reference for the tracer's overhead.
The result, with the operation times, goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

SETUP_CODE = "import sys, polysafe; from polysafe import cli; cli.load_scenario(sys.argv[1])"


def setup_start(scenario: Path) -> float:
    """Wall time of one fresh interpreter that imports polysafe and loads ``scenario``."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(scenario)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"setup failed with exit code {proc.returncode}:\n{proc.stderr}")
    return elapsed


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    def __init__(self, cli, name: str, scenario: Path, out_dir: Path):
        self.cli = cli
        self.name = name
        self.scenario = scenario
        self.argv = workloads.operation_argv(name, scenario, out_dir)
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def operation(self) -> float:
        """Run one checked operation and return its wall time."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = self.cli.main(self.argv)
        except Exception:  # an escaped exception is a failed operation
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            found = ["raised, see the worker log"]
        else:
            elapsed = time.perf_counter() - start
            found = workloads.check_output(self.name, code, self.out_dir)
        self.failed += bool(found)
        self.problems += [f"operation {self.attempted}: {p}" for p in found]
        return elapsed

    def phase(self, seconds: float, setup_runs: int) -> tuple[list[float], list[float]]:
        """Operation times and setup times of one phase of ``seconds``.

        After each operation, fresh interpreters start until their count
        keeps pace with the share of the phase gone by; those still missing
        when the phase ends start after it.
        """
        times, setup = [], []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            times.append(self.operation())
            gone = (time.perf_counter() - start) / seconds if seconds > 0 else 1.0
            while len(setup) < round(setup_runs * min(1.0, gone)):
                setup.append(setup_start(self.scenario))
        while len(setup) < setup_runs:
            setup.append(setup_start(self.scenario))
        return times, setup

    def traced_phase(self, seconds: float, tracer) -> tuple[list[float], list[float], list[int]]:
        """Operations for ``seconds``, traced and untraced in turn, at least one of each.

        Returns the untraced times, the traced times and the bytes each
        traced operation left in the output directory.
        """
        plain, traced, written = [], [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < seconds:
            if len(traced) > len(plain):
                plain.append(self.operation())
                continue
            tracer.op = self.attempted + 1
            tracer.install()
            try:
                traced.append(self.operation())
            finally:
                tracer.uninstall()
            written.append(_bytes_under(self.out_dir) if self.out_dir.exists() else 0)
        return plain, traced, written


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--scenario", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-runs", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    import numpy
    import scipy
    import polysafe
    from polysafe import cli

    src = Path.cwd().resolve() / "src"
    if not Path(polysafe.__file__).resolve().is_relative_to(src):
        print(f"polysafe imported from {polysafe.__file__}, not from {src}", file=sys.stderr)
        return 2
    cli.load_scenario(args.scenario)
    setup_start(args.scenario)  # untimed: the first start may still compile bytecode

    runner = Runner(cli, args.workload, args.scenario, args.work / "out")
    runner.operation()  # warm-up: lazy imports and first-touch allocations
    result = {"env": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                      "numpy": numpy.__version__, "scipy": scipy.__version__,
                      "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}}
    if args.trace:
        from tracing import LAYERS, Tracer, layer_metrics

        tracer = Tracer()
        plain, traced, written = runner.traced_phase(args.seconds, tracer)
        layers = layer_metrics(tracer.spans, len(traced))
        layers["cli.bytes_written"] = statistics.mean(written)
        # each traced operation against the untraced one right after it, so
        # that a slow spell of the machine falls on both sides of a difference
        layers["bench.trace_overhead_s"] = statistics.median(
            t - p for t, p in zip(traced, plain))
        # the layers' self times cover the traced operations; this is what they miss
        layers["bench.unattributed_s"] = (statistics.mean(traced)
                                          - sum(layers[f"{layer}.self_s"] for layer in LAYERS))
        result.update(times=plain, traced_times=traced, layers=layers)
        tracer.dump(args.work / "spans.json")
    else:
        times, setup = runner.phase(args.seconds, args.setup_runs)
        result.update(times=times, setup=setup, peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
