"""spinlaw benchmark: cold-process job lists, timed from spawn to artifact.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload character-full --seed 1 --seconds 45 --trace 0

One client runs the workload's job list in order, each job a fresh
interpreter against this checkout's ``src`` (closed loop, no threads).  The
whole list runs at least once, and again while one more pass still fits in
``--seconds``.
Every job passes a correctness gate: exit code 0, ``"ok": true`` in a JSON
artifact, and the artifact's SHA-256 equal to the one in ``digests.json``
for that job and level shift.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the list once more with ``tracer.py`` wrapping the
library's layers and prints the per-layer metrics instead.  The last line
of stdout is one JSON object; a result file with provenance and per-job
sizes goes to ``.perfbench_out/``.  See ``README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from jobs import WORKLOADS, Job, workload_jobs  # noqa: E402

SETUP_SPAWNS_PER_PASS = 4
JOB_TIMEOUT_S = 150
SETUP_CODE = "import spinlaw.cli as c; c.build_parser()"
# The reference speed: times are reported as if Meter.calibrate() took this
# long.  On the 2-vCPU VM where the benchmark was defined it took 0.08-0.12 s
# within one minute, depending on the load its host carried.
CAL_REF_S = 0.1


class JobTimeout(Exception):
    pass


def level_shift(seed: int) -> int:
    """The seed picks the level shift added to every level and window."""
    return seed % 4


def child_env(artifacts: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["SPINLAW_OUT"] = artifacts
    return env


def spawn(cmd: list[str], env: dict, cwd: str, stderr_path: str) -> dict:
    """Run one process to completion; wall from spawn to exit, and rusage."""
    def on_alarm(signum, frame):
        raise JobTimeout

    old = signal.signal(signal.SIGALRM, on_alarm)
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                                stderr=err)
        signal.alarm(JOB_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            code = os.waitstatus_to_exitcode(status)
        except JobTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            code = "timeout"
        finally:
            wall = time.perf_counter() - start
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
    proc.returncode = code if isinstance(code, int) else -1  # reaped by wait4
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit": code,
    }


class Meter:
    """Spawns processes and reads the machine's speed around each one.

    The benchmark's host shares its CPUs: the same job can take a third
    longer in one minute than in the next.  So ``calibrate()`` runs just
    before and just after every spawn, and the spawn's times are also given
    scaled to the reference speed, ``CAL_REF_S`` over the mean of the two
    calibrations.  Those ``ref_*`` times are what the metrics report.
    """

    def __init__(self):
        # A sparse polynomial in spinlaw's shape: 7-exponent tuple keys and
        # Fraction coefficients, a few MB, so that it feels the contention
        # for caches and memory that the jobs feel.
        self.poly = {
            m: Fraction(i % 7 + 1, i % 5 + 1)
            for i, m in enumerate(itertools.product(range(-2, 2), repeat=7))
        }
        self.cal = self.calibrate()

    def calibrate(self) -> float:
        """Time a fixed piece of the program's kind of work.

        One monomial times the polynomial, as spinlaw's ``mono_mul`` and
        ``Fraction`` arithmetic do it.  The code is the benchmark's own, so
        no commit of the program changes it.
        """
        start = time.perf_counter()
        acc: dict = {}
        for m, c in self.poly.items():
            key = tuple(a + b for a, b in zip(m, (1, 0, 0, 0, 0, 1, 1)))
            acc[key] = acc.get(key, 0) + c * c
        return time.perf_counter() - start

    def spawn(self, cmd: list[str], env: dict, cwd: str, stderr_path: str) -> dict:
        rec = spawn(cmd, env, cwd, stderr_path)
        after = self.calibrate()
        rec["cal_s"] = (self.cal + after) / 2
        self.cal = after
        rec["ref_wall_s"] = rec["wall_s"] * CAL_REF_S / rec["cal_s"]
        rec["ref_cpu_s"] = rec["cpu_s"] * CAL_REF_S / rec["cal_s"]
        return rec


def guard_import(env: dict, workdir: str) -> str | None:
    """Reason to refuse, unless ``spinlaw`` imports from this checkout's src."""
    probe = subprocess.run(
        [sys.executable, "-c", "import spinlaw; print(spinlaw.__file__)"],
        env=env, cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        return f"spinlaw does not import from {SRC}: {probe.stderr.strip()[-300:]}"
    found = os.path.realpath(probe.stdout.strip())
    want = os.path.realpath(os.path.join(SRC, "spinlaw")) + os.sep
    if not found.startswith(want):
        return f"spinlaw imports from {found}, not from {want}"
    return None


def artifact_ext(job: Job) -> str:
    if job.kind == "lib":
        return "json"
    fmt = job.args[job.args.index("--format") + 1] if "--format" in job.args else "json"
    return {"latex": "tex"}.get(fmt, fmt)


def job_command(job: Job, n: int, out: str, spans: str | None) -> list[str]:
    if job.kind == "cli":
        body = ["cli", *job.args, "--out", out]
    else:
        body = ["lib", job.args[0], str(n), out]
    if spans is not None:
        return [sys.executable, os.path.join(HERE, "tracer.py"), spans, *body]
    if job.kind == "cli":
        return [sys.executable, "-m", "spinlaw.cli", *body[1:]]
    return [sys.executable, os.path.join(HERE, "jobs.py"), *body[1:]]


def check_report(exit_code, path: str) -> tuple[str | None, bytes]:
    """Reason the job failed by its exit code or report, and the artifact."""
    if exit_code != 0:
        return f"exit code {exit_code}", b""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return "no artifact written", b""
    if path.endswith(".json"):
        try:
            report = json.loads(data)
        except ValueError:
            return "artifact is not JSON", data
        if report.get("ok") is not True:
            return 'report lacks "ok": true', data
    return None, data


def check_artifact(job: Job, n: int, exit_code, path: str, digests: dict) -> str | None:
    """The gate: reason the job failed, or None.  stderr is not consulted."""
    reason, data = check_report(exit_code, path)
    if reason:
        return reason
    want = digests.get(job.name)
    if not want:
        return "no digest recorded for this job"
    if hashlib.sha256(data).hexdigest() != want[n]:
        return "artifact SHA-256 differs from the recorded digest"
    return None


_TERM_SEP = re.compile(r"(?<!\^)[+-]")
_FACTOR = re.compile(r"\(1-[^()]*\)(?:\^\{?(\d+)\}?)?")


def artifact_sizes(path: str) -> dict:
    """Sizes read back from an artifact: bytes, and JSON counts if any."""
    sizes = {"artifact_bytes": os.path.getsize(path)}
    if not path.endswith(".json"):
        return sizes
    with open(path) as fh:
        report = json.load(fh)
    for key, value in report.items():
        if key.endswith("_count") or key == "pairs_reduced":
            sizes[key] = value
    if "numerator" in report:
        sizes["num_terms"] = 1 + len(_TERM_SEP.findall(report["numerator"][1:]))
        sizes["den_factors"] = sum(
            int(e or 1) for e in _FACTOR.findall(report["denominator"])
        )
    if "terms_per_order" in report:
        sizes["terms_per_order"] = report["terms_per_order"]
    return sizes


def run_pass(meter: Meter, jobs: list[Job], n: int, env: dict, workdir: str,
             digests: dict, traced: bool) -> dict:
    """Run the job list once; time it, then gate every artifact."""
    records = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        out = os.path.join(workdir, f"{i}.{artifact_ext(job)}")
        spans = os.path.join(workdir, f"{i}.spans.json") if traced else None
        for stale in (out, spans):
            if stale and os.path.exists(stale):
                os.remove(stale)
        rec = meter.spawn(job_command(job, n, out, spans), env, workdir,
                          os.path.join(workdir, f"{i}.stderr"))
        records.append((job, out, spans, rec))
    wall = time.perf_counter() - start
    results = []
    for job, out, spans, rec in records:
        reason = check_artifact(job, n, rec["exit"], out, digests)
        rec.update(job=job.name, kind=job.kind, ok=reason is None, reason=reason)
        if reason is None:
            rec["sizes"] = artifact_sizes(out)
        if spans is not None and os.path.exists(spans):
            with open(spans) as fh:
                rec["trace"] = json.load(fh)
        results.append(rec)
    return {"wall_s": wall, "jobs": results}


def job_medians(passes: list[dict], key: str) -> list[float]:
    """Each job's median ``key`` over the passes, in job-list order.

    A job's time varies by several percent from spawn to spawn on a shared
    machine; taking each job's median before summing keeps one slow spawn
    from moving the workload's figure.
    """
    return [statistics.median(p["jobs"][i][key] for p in passes)
            for i in range(len(passes[0]["jobs"]))]


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    jobs = [r for p in passes for r in p["jobs"]]
    walls = job_medians(passes, "ref_wall_s")
    return {
        "wall_s": sum(walls),
        "cpu_s": sum(job_medians(passes, "ref_cpu_s")),
        "slowest_job_s": max(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["maxrss_kb"] for r in jobs) / 1024,
        "pass_ratio": sum(r["ok"] for r in jobs) / len(jobs),
    }


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def per_layer(traced: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and reasons for missing ones."""
    values: dict = {}
    missing: dict = {}
    counts: dict = {}
    caches: dict = {}
    gone: set = set()
    for rec in traced["jobs"]:
        tr = rec.get("trace")
        if tr is None:
            continue
        gone.update(tr["missing"])
        for key, c in tr["counts"].items():
            counts[key] = counts.get(key, 0) + c
        for key, info in tr["caches"].items():
            acc = caches.setdefault(key, {"hits": 0, "misses": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
        spans = tr["spans"]
        for span, own in zip(spans, _self_times(spans)):
            name = span[0]
            layer = name.split(".")[0]
            values[f"{layer}.self_s"] = values.get(f"{layer}.self_s", 0.0) + own
            values[f"{layer}.calls"] = values.get(f"{layer}.calls", 0) + 1
            values[f"{name}.calls"] = values.get(f"{name}.calls", 0) + 1
            if not span[4]:
                values[f"{name}.s"] = values.get(f"{name}.s", 0.0) + span[2] - span[1]
    for name in gone:
        missing[name] = "function no longer exists in the package"
    values.update(counts)

    def ratio(key, num, den, why):
        if den:
            values[key] = num / den
        else:
            missing[key] = why

    ratio("charseries.reduced.cancel_ratio",
          counts.get("charseries.reduced.factors_cancelled", 0),
          counts.get("charseries.reduced.factors_offered", 0),
          "reduced() was offered no factors")
    ratio("polyring.sparse_rank.rank_per_row",
          counts.get("polyring.sparse_rank.rank", 0),
          counts.get("polyring.sparse_rank.rows", 0),
          "sparse_rank() was given no rows")
    if "charseries._character" in caches:
        info = caches["charseries._character"]
        ratio("charseries.character.cache_hit_ratio", info["hits"],
              info["hits"] + info["misses"], "the character cache was not used")
    else:
        missing["charseries.character.cache_hit_ratio"] = "the character cache is gone"
    values["cli.artifact_bytes"] = sum(
        r["sizes"]["artifact_bytes"] for r in traced["jobs"]
        if "sizes" in r and r["kind"] == "cli"
    )
    imports = [r["trace"]["import_s"] for r in traced["jobs"] if "trace" in r]
    if imports:
        values["setup.import_s"] = statistics.median(imports)
    return values, missing


def git_revision() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)
    n = level_shift(args.seed)
    jobs = workload_jobs(args.workload, n)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    env = child_env(workdir)
    try:
        refusal = guard_import(env, workdir)
        if refusal:
            print(f"perfbench: {refusal}", file=sys.stderr)
            return 2
        meter = Meter()
        setup_runs, passes = [], []
        start = time.perf_counter()
        while True:
            # The machine's speed drifts over tens of seconds, so set-up
            # spawns are spread over the run rather than bunched at its start.
            setup_runs += [
                meter.spawn([sys.executable, "-c", SETUP_CODE], env, workdir,
                            os.path.join(workdir, "setup.stderr"))
                for _ in range(SETUP_SPAWNS_PER_PASS)
            ]
            passes.append(run_pass(meter, jobs, n, env, workdir, digests, traced=False))
            # Stop unless one more pass, as long as the average one, still
            # ends within --seconds.
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        traced = None
        if args.trace:
            traced = run_pass(meter, jobs, n, env, workdir, digests, traced=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_jobs = [r for p in passes + ([traced] if traced else []) for r in p["jobs"]]
    failed = sum(not r["ok"] for r in all_jobs)
    failed += sum(r["exit"] != 0 for r in setup_runs)
    attempted = len(all_jobs) + len(setup_runs)
    setup = [r["ref_wall_s"] for r in setup_runs]
    if args.trace:
        values, missing = per_layer(traced)
        values["trace.overhead_ratio"] = (
            sum(r["ref_wall_s"] for r in traced["jobs"])
            / sum(job_medians(passes, "ref_wall_s")) - 1
        )
        declared = bench["per_layer"]
    else:
        values, missing = end_to_end(passes, setup), {}
        declared = bench["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            missing.setdefault(m["name"], "not reached by this workload")
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}

    for r in all_jobs:
        if not r["ok"]:
            print(f"perfbench: job {r['job']} failed: {r['reason']}", file=sys.stderr)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "level_shift": n,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "setup_spawns": setup_runs,
        "cal_ref_s": CAL_REF_S,
        "passes": passes,
        "traced_pass": traced,
        "metrics": metrics,
        "missing": missing,
    }
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if missing:
        print(json.dumps({"missing": missing}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
