"""The polysafe benchmark: one workload per run, end to end or traced.

Run from the root of a polysafe checkout:

    python3 bench/run.py --workload secv-report --seed 0 --seconds 25 --trace 0

The program is used from the checkout's ``src`` directory; nothing is
installed.  A run writes only under ``.bench_work/<workload>/``:

1. it writes the workload's scenario file;
2. it starts ``worker.py`` in its own process, with one BLAS thread, which
   issues ``polysafe.cli.main`` operations back to back, checks each
   operation's output and, between operations, times ``SETUP_RUNS`` fresh
   interpreters that import ``polysafe`` and load the scenario.

It prints one line per metric, then as its last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced phase with
``--trace 1``.  ``NOTES.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

SETUP_RUNS = 20
# a run is one phase of --seconds plus this: interpreter starts, the scenario,
# the warm-up operation and the operation that overruns the phase
RUN_MARGIN_S = 120.0
TAIL_BEYOND = 10  # run_tail_s is the highest percentile with this many samples above it
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the layer each workload was designed to be dominated by, one per workload
DOMINANT_CANDIDATES = ("verify.mc_s", "lpcore.solve_s", "verify.grid_s", "synthesis.gain_search_s")


class BenchError(Exception):
    pass


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ``TAIL_BEYOND`` samples above it.

    With fewer than ``TAIL_BEYOND + 1`` samples no such percentile exists and
    the maximum (percentile 100) is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    idx = n - 1 - TAIL_BEYOND
    return ordered[idx], 100.0 * idx / (n - 1)


def run_worker(args, scenario: Path, work: Path, env: dict, deadline: float) -> dict:
    result_path = work / "result.json"
    log_path = work / "worker.log"
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
           "--workload", args.workload, "--scenario", str(scenario), "--work", str(work),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--setup-runs", str(1 if args.tiny else SETUP_RUNS), "--result", str(result_path)]
    with open(log_path, "w") as log:
        # its own session, so that a timeout also stops the interpreter it may be timing
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0 or not result_path.exists():
        log_tail = log_path.read_text()[-3000:]
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n{log_tail}")
    return json.loads(result_path.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the workload documents are pinned (NOTES.md)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the measured phase (one operation at least)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smaller scenarios and one setup start, for the smoke test")
    args = parser.parse_args()

    time_limit = args.seconds + RUN_MARGIN_S
    deadline = time.monotonic() + time_limit
    checkout = Path.cwd().resolve()
    needed = [Path("src") / "polysafe" / "__init__.py", workloads.SECV_PATH]
    missing = [str(p) for p in needed if not (checkout / p).is_file()]
    if missing:
        print(f"not the root of a polysafe checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    work = checkout / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = workloads.write_scenario(args.workload, checkout, args.tiny,
                                        work / "scenario.json")
    # bytecode is written, as an installed package has it, whatever the caller's setting
    env = {name: value for name, value in os.environ.items() if name != "PYTHONDONTWRITEBYTECODE"}
    env.update(BLAS_ENV, PYTHONPATH=str(checkout / "src"))

    try:
        result = run_worker(args, scenario, work, env, deadline)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {time_limit:.0f} s", file=sys.stderr)
        return 1
    except BenchError as err:
        print(err, file=sys.stderr)
        return 1

    times = result["times"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed} (documents pinned)  trace {args.trace}")
    print("environment  nproc={nproc}  python {python}  numpy {numpy}  scipy {scipy}  "
          "BLAS threads {blas_threads}".format(**result["env"]))
    print(f"fail_ratio   {failed / attempted:.4f}  ({failed} of {attempted} operations failed)")
    for problem in result["problems"][:20]:
        print(f"  check failed: {problem}")

    if args.trace:
        layers = result["layers"]
        dominant = max(DOMINANT_CANDIDATES, key=layers.get)
        print(f"operations   {len(result['traced_times'])} traced, {len(times)} untraced")
        print(f"dominant     {dominant}  ({layers[dominant]:.3f} s of "
              f"{layers['bench.traced_op_s']:.3f} s per traced operation)")
        for name in sorted(layers):
            print(f"  {name:32s} {layers[name]:.6g}")
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layers.items()}
    else:
        setup = result["setup"]
        tail_value, tail_pct = tail(times)
        print(f"run_s        {statistics.median(times):.4f} s  (median of {len(times)} operations)")
        print(f"run_tail_s   {tail_value:.4f} s  (p{tail_pct:.1f} of {len(times)} operations)")
        print(f"setup_s      {statistics.median(setup):.4f} s  (median of {len(setup)} starts)")
        print(f"peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
        metrics = {
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb_max"):
        return "MB"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
