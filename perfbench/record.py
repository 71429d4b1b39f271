"""Record the reference outputs that the benchmark checks jobs against.

Run from the repository root:

    python3 perfbench/record.py

It runs every job of every workload once for each input variant, checks
the independent oracles, and rewrites ``perfbench/references.json``.
Record only at a commit whose outputs are trusted: a later change that
alters an output beyond its tolerance must fail the benchmark, so
re-recording is a deliberate change to the benchmark, never part of an
optimisation.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def record_variant(workload: str, variant: int) -> dict:
    workdir = harness.ROOT / ".perfbench_work" / f"record-{workload}-{os.getpid()}"
    try:
        jobs = workloads.build(workload, variant, workdir)
        outputs = {}
        for job in jobs:
            _, code, out, err = harness.run_job(job)
            if code != 0:
                raise SystemExit(f"{workload}/{variant}/{job.id}: exit {code}: {err}")
            results = json.loads(out)["results"]
            if job.oracle == "same_as":
                reason = checks.same_as(results, outputs[job.oracle_args["partner"]])
            elif job.oracle:
                reason = checks.ORACLES[job.oracle](results, job.oracle_args)
            else:
                reason = None
            if reason:
                raise SystemExit(f"{workload}/{variant}/{job.id}: oracle: {reason}")
            outputs[job.id] = results
        return outputs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    references = {}
    for workload in workloads.WORKLOADS:
        references[workload] = {
            str(v): record_variant(workload, v) for v in range(workloads.VARIANTS)
        }
        print(f"recorded {workload}", file=sys.stderr)
    harness.REFERENCES.write_text(json.dumps(references, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
