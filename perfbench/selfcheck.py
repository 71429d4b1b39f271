"""Self-checks of the benchmark itself.

Run from the repository root:

    python3 perfbench/selfcheck.py

For every workload it checks that

- the same seed gives the same inputs, and another seed gives other
  inputs with the same job count, job ids and job kinds;
- one pass of the jobs passes its checks against the recorded
  references, and fails them (failed fraction > 0) once every recorded
  number is perturbed.

Exits 1 if any check does not hold.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402


def _inputs(workload: str, seed: int, workdir: Path) -> tuple[list, list]:
    """(job shapes, job inputs) with every state-file path replaced by its content."""
    jobs = workloads.build(workload, seed, workdir)
    shapes = [(job.id, job.kind, job.oracle) for job in jobs]
    inputs = [[Path(a).read_text() if a.startswith(str(workdir)) else a for a in job.argv]
              for job in jobs]
    return shapes, inputs


def _perturb(value):
    if isinstance(value, dict):
        return {k: _perturb(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_perturb(v) for v in value]
    if isinstance(value, float):
        return value + 1e-6 * (1.0 + abs(value))
    return value


def check_workload(workload: str, references: dict, scratch: Path) -> list[str]:
    problems = []
    shapes1, inputs1 = _inputs(workload, 1, scratch / "a")
    shapes1b, inputs1b = _inputs(workload, 1, scratch / "a")
    shapes2, inputs2 = _inputs(workload, 2, scratch / "b")
    if inputs1 != inputs1b:
        problems.append("the same seed gave different inputs")
    if shapes1 != shapes2:
        problems.append("another seed changed the job count, ids or kinds")
    if inputs1 == inputs2:
        problems.append("another seed left the inputs unchanged")

    jobs = workloads.build(workload, 1, scratch / "a")
    passes = [{"outputs": [harness.run_job(job)[1:] for job in jobs]}]
    recorded = references[workload][str(1 % workloads.VARIANTS)]
    failed, reasons = harness.check_passes(jobs, passes, recorded)
    if failed:
        problems.append(f"{failed} jobs failed against the recorded references: {reasons}")
    failed, _ = harness.check_passes(jobs, passes, _perturb(recorded))
    print(f"{workload}: perturbed references fail {failed} of {len(jobs)} jobs")
    if failed == 0:
        problems.append("perturbed references did not fail any job")
    return problems


def main() -> int:
    references = json.loads(harness.REFERENCES.read_text())
    scratch = harness.ROOT / ".perfbench_work" / f"selfcheck-{os.getpid()}"
    problems = []
    try:
        for workload in workloads.WORKLOADS:
            problems += [f"{workload}: {p}" for p in
                         check_workload(workload, references, scratch)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-checks passed" if not problems else f"{len(problems)} self-checks failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
