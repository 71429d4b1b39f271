"""Benchmark of the oneshot-qit CLI.

Run from the repository root:

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in fresh child processes (``harness.py``) with
single-threaded BLAS.  Set-up is timed from process start to the end of
the warm-up job, in ``SETUP_REPEATS`` set-up-only children plus the
measuring child; the median is reported at the harness's reference speed.  With ``--trace 0`` the
result holds the end-to-end metrics; with ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is the
result as one JSON object; the lines before it give every metric with
its unit, the sample counts, the failed fraction and the provenance.
``--workload all`` runs the four workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS = HERE / "harness.py"
WORKLOADS = ("spectrum", "sandwich", "protocol-exact", "protocol-mc")

SETUP_REPEATS = 8
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)  # the harness imports the library from src/
    return env


def run_child(argv: list[str], timeout: float) -> tuple[float, str]:
    """Start the harness; return (seconds until READY, the rest of stdout).

    The child is killed if it outlives ``timeout``; a failed child is an
    error of the whole benchmark.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HARNESS), *argv], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise RuntimeError(f"harness {' '.join(argv)} failed with exit code {code}")
    return ready, rest


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [run_child([*base, "--setup-only"], SETUP_TIMEOUT_S)[0]
              for _ in range(SETUP_REPEATS)]
    ready, rest = run_child([*base, "--seconds", str(seconds), "--trace", str(trace)],
                            RUN_TIMEOUT_S)
    result = json.loads(rest.strip().splitlines()[-1])
    setups.append(ready)
    info = result["info"]
    # at the reference speed of the job times, taken from the probes of the
    # measuring child, which starts within seconds of the set-up children
    setup_s = statistics.median(setups) * info["probe_nominal_s"] / info["probe_median_s"]
    if not trace:
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"},
                             **result["metrics"]}
    info["setup_samples_s"] = setups
    info.setdefault("raw", {})["setup_s"] = statistics.median(setups)
    return result


def report(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['attempted']} jobs, {result['failed']} failed "
          f"(failed_frac {result['info']['failed_frac']:.6g} ratio)")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    info = {k: v for k, v in result["info"].items() if k != "failures"}
    print("  info " + json.dumps(info))
    for reason in result["info"]["failures"]:
        print(f"  FAILED {reason}")
    print("  provenance " + json.dumps(result["provenance"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the oneshot-qit CLI.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oneshot_qit" / "cli.py").is_file():
        print(f"error: no oneshot_qit sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, ValueError, IndexError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(name, results[name])

    if args.workload != "all":
        final = {key: results[args.workload][key]
                 for key in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {name: {"correct": r["correct"], "failed_frac": r["info"]["failed_frac"],
                        "metrics": r["metrics"]} for name, r in results.items()}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
