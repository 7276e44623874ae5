"""Workload job lists, and the library jobs the benchmark runs.

A job is one fresh interpreter.  CLI jobs run ``python -m spinlaw.cli``;
library jobs run this file as a script, which calls the library, writes a
small JSON artifact and exits 0 only when its two routes agree.

Every job list is a function of the level shift ``n``: it is added to every
weight level and window, which keeps the size of every interval and window
the same (the shifted interval is isomorphic to the unshifted one).  Jobs
marked "fixed input" do not depend on the shift.

Run a library job by hand with
``PYTHONPATH=src python3 perfbench/jobs.py <name> <shift> <out-path>``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import NamedTuple


class Job(NamedTuple):
    name: str  # unique within the whole benchmark; keys the digest table
    kind: str  # "cli" or "lib"
    args: tuple  # CLI arguments, or the library job's name


def _iv(lo: str, lo_level: int, hi: str, hi_level: int, n: int) -> tuple:
    return ("--lo", f"{lo}@{lo_level + n}", "--hi", f"{hi}@{hi_level + n}")


def _window(lo: int, hi: int, n: int) -> tuple:
    return ("--window", f"{lo + n}..{hi + n}")


def workload_jobs(workload: str, n: int) -> list[Job]:
    """The job list of ``workload`` at level shift ``n``, in run order."""
    if workload == "character-full":
        return [
            Job("char-(1)@0", "cli", ("character", *_iv("(0)", 0, "(1)", 0, n))),
            Job("char-(15)@1", "cli", ("character", *_iv("(0)", 0, "(15)", 1, n))),
            Job("char-(5)@1", "cli", ("character", *_iv("(0)", 0, "(5)", 1, n))),
            Job("char-(1)@1-q1", "cli",
                ("character", *_iv("(0)", 0, "(1)", 1, n), "--specialize", "q=1")),
            Job("char-(1)@1-s1-latex", "cli",
                ("character", *_iv("(0)", 0, "(1)", 1, n), "--specialize", "s=1",
                 "--format", "latex")),
            Job("dims-(1)@2", "cli", ("dims", *_iv("(0)", 0, "(1)", 2, n))),
        ]
    if workload == "series-check":
        return [
            Job("series-oracle-(1)@1", "lib", ("series_oracle",)),
            # fixed input: the next three take no interval.
            Job("recursion-J-1-4", "lib", ("recursion_J",)),
            Job("lower-recursions-4", "lib", ("lower_recursions",)),
            Job("delannoy-12-16", "cli", ("delannoy-check", "--r-max", "12", "--k-max", "16")),
            Job("char-(1)@2-s1q1-series12", "cli",
                ("character", *_iv("(0)", 0, "(1)", 2, n), "--specialize", "s=1,q=1",
                 "--series", "12")),
        ]
    if workload == "straighten-check":
        return [
            Job("straightened-(1)@1-k4", "cli",
                ("straightened-check", *_iv("(0)", 0, "(1)", 1, n), "--k-max", "4")),
            Job("regseq-(1)@0-d4", "cli",
                ("regseq-check", *_iv("(0)", 0, "(1)", 0, n), "--d-max", "4")),
            Job("groebner-(1)@3", "cli", ("groebner-check", *_iv("(0)", 0, "(1)", 3, n))),
            Job("obstructions-(1)@3", "cli", ("obstructions", *_iv("(0)", 0, "(1)", 3, n))),
            # fixed input: fierz-check's default modes and weyl-check's orbit
            # seed are absolute (level 0), so a shifted window is less work.
            Job("fierz-0..3", "cli", ("fierz-check", "--window", "0..3")),
            Job("weyl-0..3", "cli", ("weyl-check", "--window", "0..3")),
            Job("hasse-0..3-dot", "cli", ("hasse", *_window(0, 3, n), "--format", "dot")),
            Job("relations-(1)@2-csv", "cli",
                ("relations", *_iv("(0)", 0, "(1)", 2, n), "--format", "csv")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("character-full", "series-check", "straighten-check")


# ------------------------------------------------------------ library jobs


def _series_oracle(n: int) -> dict:
    from spinlaw import charseries as cs
    from spinlaw import weightlattice as wl

    iv = wl.interval(("(0)", n), ("(1)", 1 + n))
    climb = cs.character(iv).series(5)
    oracle = cs.chain_series_direct(iv, 5)
    # The coefficients run to tens of thousands of terms; the artifact holds
    # their digest, so the gate still pins every one of them.
    canonical = repr([p.sorted_terms() for p in oracle]).encode()
    return {
        "ok": climb == oracle,
        "terms_per_order": [len(p.coeffs) for p in oracle],
        "series_sha256": hashlib.sha256(canonical).hexdigest(),
    }


def _recursion_j(n: int) -> dict:
    from spinlaw import charseries as cs

    return {"ok": cs.recursion_check_J(1, 4)}


def _lower_recursions(n: int) -> dict:
    from spinlaw import charseries as cs

    return {"ok": cs.lower_bound_recursions_check(4)}


LIBRARY = {
    "series_oracle": _series_oracle,
    "recursion_J": _recursion_j,
    "lower_recursions": _lower_recursions,
}


def run_library(name: str, n: int, out: str) -> int:
    """Run one library job, write its artifact, return the exit code."""
    report = {"job": name, **LIBRARY[name](n)}
    with open(out, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if report["ok"] is True else 3


if __name__ == "__main__":
    sys.exit(run_library(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
