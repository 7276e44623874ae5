"""Self-checks of the benchmark itself, run from the root of a checkout::

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N]

1. The gate rejects a bad job: a tampered artifact, a report whose ``ok`` is
   not true, and a non-zero exit code.  A genuine artifact passes.
2. Every count metric of the traced run (units ``count`` and ``bytes``, and
   the ratios built only from counts) repeats exactly between two traced
   passes of the same workload and seed.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
from jobs import WORKLOADS, workload_jobs

COUNT_UNITS = ("count", "bytes", "ratio")


def gate_rejects_bad_jobs(env: dict, workdir: str, digests: dict) -> list[str]:
    n = 0
    job = workload_jobs("character-full", n)[0]
    out = os.path.join(workdir, "gate.json")
    rec = run.spawn(run.job_command(job, n, out, None), env, workdir,
                    os.path.join(workdir, "gate.stderr"))
    problems = []
    if run.check_artifact(job, n, rec["exit"], out, digests) is not None:
        problems.append("a genuine artifact fails the gate")
    if run.check_artifact(job, n, 3, out, digests) is None:
        problems.append("the gate accepts a non-zero exit code")
    with open(out, "rb") as fh:
        genuine = fh.read()
    tampered = genuine.replace(b"+", b"-", 1)
    not_ok = json.dumps({**json.loads(genuine), "ok": False}).encode()
    for label, data in (("tampered artifact", tampered), ('"ok": false report', not_ok)):
        with open(out, "wb") as fh:
            fh.write(data)
        if run.check_artifact(job, n, 0, out, digests) is None:
            problems.append(f"the gate accepts a {label}")
    return problems


def counts_repeat(workload: str, seed: int, env: dict, workdir: str, digests: dict,
                  declared: list[dict]) -> list[str]:
    n = run.level_shift(seed)
    jobs = workload_jobs(workload, n)
    seen = []
    meter = run.Meter()
    for _ in range(2):
        traced = run.run_pass(meter, jobs, n, env, workdir, digests, traced=True)
        failed = [r["job"] for r in traced["jobs"] if not r["ok"]]
        if failed:
            return [f"{workload}: traced jobs failed the gate: {failed}"]
        seen.append(run.per_layer(traced)[0])
    problems = []
    for m in declared:
        name = m["name"]
        # trace.overhead_ratio, a ratio of times, is not in per_layer()'s output.
        if m["unit"] in COUNT_UNITS:
            if seen[0].get(name) != seen[1].get(name):
                problems.append(
                    f"{workload}: {name} differs: {seen[0].get(name)} vs {seen[1].get(name)}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description="benchmark self-checks")
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer"]
    with open(os.path.join(run.HERE, "digests.json")) as fh:
        digests = json.load(fh)
    os.makedirs(run.OUT, exist_ok=True)
    workdir = os.path.join(run.OUT, f"selfcheck-{os.getpid()}")
    os.makedirs(workdir)
    env = run.child_env(workdir)
    try:
        refusal = run.guard_import(env, workdir)
        if refusal:
            print(refusal, file=sys.stderr)
            return 1
        problems = gate_rejects_bad_jobs(env, workdir, digests)
        for workload in args.workload or WORKLOADS:
            problems += counts_repeat(workload, args.seed, env, workdir, digests, declared)
            print(f"{workload}: traced twice", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
