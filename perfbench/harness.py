"""Run one workload in this process and print its result as JSON.

Started by ``run.py`` in a fresh child process with single-threaded
BLAS.  It imports the library from ``src/``, writes the workload's
inputs, runs the first job once as a warm-up, prints ``READY`` (the
parent times set-up up to that line) and then, unless ``--setup-only``,
runs passes over the job list in a closed loop: one client, one job at
a time, each job a call of ``oneshot_qit.cli.run(argv)``.

Untraced runs go on until ``--seconds`` have passed and at least
``MIN_JOBS`` jobs in ``MIN_PASSES`` passes are timed, always finishing
the current pass.  Traced
runs alternate untraced and traced passes over the same time, so the
tracing overhead is the difference between the two kinds of pass.
Outputs are checked after the timed part.

Job times are reported at a reference machine speed (see
``SpeedProbe``); the raw times are reported alongside them.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from oneshot_qit import cli  # noqa: E402

# p90 needs at least ten samples beyond it; a job's median over passes
# needs a few passes
MIN_JOBS = 100
MIN_PASSES = 5
REFERENCES = Path(__file__).with_name("references.json")

# The speed of a shared host drifts by 15% and more over tens of seconds
# as other tenants load it, and whole runs move with it.  A fixed probe
# of the same kind of work as the jobs runs between them, and each job
# time is scaled to a machine on which the probe takes PROBE_NOMINAL_S.
PROBE_NOMINAL_S = 0.015
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 2.5

END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
                    "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_per_call"):
        return "count/call"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_util"):
        return "ratio"
    return "count"


class SpeedProbe:
    """Times a fixed mix of small LAPACK calls, one batched eigenvalue
    call and interpreted Python, every ``PROBE_EVERY_S`` between jobs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        small = rng.normal(size=(64, 8, 8))
        batch = rng.normal(size=(2048, 4, 4))
        self._small = small + small.transpose(0, 2, 1)
        self._batch = batch + batch.transpose(0, 2, 1)
        # bound before any tracing starts, so spans never include the probe
        self._eigh, self._eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        self.ends: list[int] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter_ns()
        for _ in range(2):
            for matrix in self._small:
                self._eigh(matrix)
            self._eigvalsh(self._batch)
            sum(i * i for i in range(20_000))
        end = time.perf_counter_ns()
        self.ends.append(end)
        self.seconds.append((end - start) * 1e-9)

    def due(self) -> bool:
        return time.perf_counter_ns() - self.ends[-1] >= PROBE_EVERY_S * 1e9

    def scale(self, start_ns: int) -> float:
        """PROBE_NOMINAL_S over the median probe time within PROBE_WINDOW_S
        of ``start_ns``: single probes scatter more than the drift they track."""
        window = int(PROBE_WINDOW_S * 1e9)
        lo = bisect.bisect_left(self.ends, start_ns - window)
        hi = bisect.bisect_right(self.ends, start_ns + window)
        if lo == hi:  # no probe that close: take the nearest one
            lo = min(lo, len(self.ends) - 1)
            hi = lo + 1
        return PROBE_NOMINAL_S / statistics.median(self.seconds[lo:hi])


def run_job(job: workloads.Job) -> tuple[int, object, str, str]:
    """(elapsed ns, exit code or exception text, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(job.argv))
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter_ns() - start, code, out.getvalue(), err.getvalue()


def run_passes(jobs, seconds: float, trace: tracer.Tracer | None):
    """Run passes over the jobs; each pass records its jobs' start times,
    raw latencies (ns and ms), latencies at the reference speed (ms) and
    outputs.  Returns the passes and the speed probe."""
    passes = []
    probe = SpeedProbe()
    probe.sample()
    start = time.perf_counter()
    timed = 0
    while True:
        traced = trace is not None and len(passes) % 2 == 1
        mark = len(trace.spans) if traced else 0
        starts, latencies, outputs = [], [], []
        if traced:
            trace.install()
        try:
            for job in jobs:
                if probe.due():
                    probe.sample()
                if traced:
                    trace.job = f"{len(passes)}/{job.id}"
                starts.append(time.perf_counter_ns())
                elapsed, code, out, err = run_job(job)
                latencies.append(elapsed)
                outputs.append((code, out, err))
        finally:
            if traced:
                trace.uninstall()
        probe.sample()
        passes.append({"traced": traced, "starts": starts, "latencies": latencies,
                       "outputs": outputs,
                       "spans": trace.spans[mark:] if traced else None})
        timed += len(jobs)
        if time.perf_counter() - start < seconds:
            continue
        if trace is None and (timed < MIN_JOBS or len(passes) < MIN_PASSES):
            continue
        if trace is not None and len(passes) < 2:
            continue
        for record in passes:
            record["raw_ms"] = [ns * 1e-6 for ns in record["latencies"]]
            record["scaled_ms"] = [ns * 1e-6 * probe.scale(t)
                                   for t, ns in zip(record["starts"], record["latencies"])]
        return passes, probe


def check_passes(jobs, passes, references: dict) -> tuple[int, list[str]]:
    """Count failed jobs; records each pass's Monte-Carlo sample count."""
    verdicts: dict[tuple[str, str], str | None] = {}
    failed, reasons = 0, []
    for record in passes:
        results_of, mc_samples = {}, 0
        for job, (code, out, err) in zip(jobs, record["outputs"]):
            try:
                results = json.loads(out)["results"] if code == 0 else None
            except (ValueError, KeyError):
                code = "output is not a result document"
            if code != 0:
                reason = f"exit {code}: {err.strip()[:300]}"
            else:
                results_of[job.id] = results
                if results.get("method") == "monte-carlo":
                    mc_samples += results["samples"]
                key = (job.id, out)
                if key not in verdicts:
                    verdicts[key] = (checks.against_reference(job.kind, results,
                                                              references[job.id])
                                     or (checks.ORACLES[job.oracle](results, job.oracle_args)
                                         if job.oracle in checks.ORACLES else None))
                reason = verdicts[key]
                if reason is None and job.oracle == "same_as":
                    reason = checks.same_as(results, results_of[job.oracle_args["partner"]])
            if reason is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{job.id}: {reason}")
        record["mc_samples"] = mc_samples
    return failed, reasons


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict:
    """Unified cache sizes of CPU 0 by level, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Unified":
                sizes[f"l{(index / 'level').read_text().strip()}"] = \
                    (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def provenance(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "input_variant": seed % workloads.VARIANTS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
    }


def _typical_pass_s(passes, key: str = "scaled_ms") -> float:
    """Seconds of a typical pass: the sum over jobs of each job's median
    latency across passes, which one slow pass cannot move."""
    return float(np.median([p[key] for p in passes], axis=0).sum()) * 1e-3


def end_to_end(jobs, passes, key: str = "scaled_ms") -> dict:
    latencies = np.array([ms for p in passes for ms in p[key]])
    p50, p90 = np.percentile(latencies, [50, 90])
    return {
        "jobs_per_s": len(jobs) / _typical_pass_s(passes, key),
        "job_p50_ms": float(p50),
        "job_p90_ms": float(p90),
    }


def per_layer(jobs, passes) -> tuple[dict, bool]:
    """Per-layer metrics; counts from the first traced pass, times as the
    median over traced passes.  Also says whether counts repeated."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    layers = [tracer.layer_metrics(p["spans"]) for p in traced]
    metrics = {}
    repeated = True
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if per_layer_unit(name) in ("count", "count/call"):
            metrics[name] = values[0]
            repeated &= all(v == values[0] for v in values)
        else:
            metrics[name] = statistics.median(values)
    metrics["simulate.mc_samples_per_s"] = untraced[0]["mc_samples"] / _typical_pass_s(untraced)
    metrics["trace.overhead_jobs_per_s"] = (len(jobs) / _typical_pass_s(untraced)
                                            - len(jobs) / _typical_pass_s(traced))
    return metrics, repeated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: oneshot_qit imported from {cli.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        run_job(jobs[0])
        print("READY", flush=True)
        if args.setup_only:
            return 0

        trace = tracer.Tracer() if args.trace else None
        passes, probe = run_passes(jobs, args.seconds, trace)
        references = json.loads(REFERENCES.read_text())
        variant = str(args.seed % workloads.VARIANTS)
        failed, reasons = check_passes(jobs, passes, references[args.workload][variant])
        attempted = sum(len(p["latencies"]) for p in passes)
        info = {"passes": len(passes), "jobs_per_pass": len(jobs),
                "timed_jobs": attempted, "failed_frac": failed / attempted,
                "probe_median_s": statistics.median(probe.seconds),
                "probe_nominal_s": PROBE_NOMINAL_S, "failures": reasons}
        if trace is None:
            values = end_to_end(jobs, passes)
            values["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            units = END_TO_END_UNITS
            info["latency_samples"] = attempted
            info["mc_samples_per_s"] = passes[0]["mc_samples"] / _typical_pass_s(passes)
            info["raw"] = end_to_end(jobs, passes, key="raw_ms")
        else:
            values, repeated = per_layer(jobs, passes)
            units = {name: per_layer_unit(name) for name in values}
            info["counts_repeat_across_passes"] = repeated
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            trace.write(spans_path)
            info["spans_file"] = str(spans_path.relative_to(ROOT))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()},
            "info": info,
            "provenance": provenance(args.workload, args.seed),
        }), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
