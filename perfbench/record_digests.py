"""Write ``digests.json``: the SHA-256 of every job's artifact at every shift.

Run from the root of a checkout whose outputs are trusted::

    python3 perfbench/record_digests.py

A job whose exit code is not 0, or whose JSON report lacks ``"ok": true``,
stops the recording: no digest is written for a failing job.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run
from jobs import WORKLOADS, workload_jobs

SHIFTS = range(4)


def main() -> int:
    workdir = os.path.join(run.OUT, f"record-{os.getpid()}")
    os.makedirs(workdir)
    env = run.child_env(workdir)
    digests: dict[str, list[str]] = {}
    try:
        refusal = run.guard_import(env, workdir)
        if refusal:
            print(refusal, file=sys.stderr)
            return 2
        for workload in WORKLOADS:
            for n in SHIFTS:
                for job in workload_jobs(workload, n):
                    out = os.path.join(workdir, f"artifact.{run.artifact_ext(job)}")
                    rec = run.spawn(run.job_command(job, n, out, None), env, workdir,
                                    os.path.join(workdir, "stderr"))
                    reason, data = run.check_report(rec["exit"], out)
                    if reason:
                        print(f"{job.name} at shift {n}: {reason}", file=sys.stderr)
                        return 3
                    digests.setdefault(job.name, []).append(hashlib.sha256(data).hexdigest())
                    os.remove(out)
                    print(f"{job.name} n={n} {rec['wall_s']:.2f}s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
