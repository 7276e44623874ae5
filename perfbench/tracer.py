"""Run one benchmark job in-process with spans around the library's layers.

The tracer wraps coarse public functions of each ``spinlaw`` module from
outside the package: no file of the package changes.  Each call becomes a
span ``[name, start, end, parent]`` kept in memory, and a few calls also add
to counters (sizes in and out).  Hot helpers (``leq``, ``mono_mul``, the
``Poly``/``LaurentPoly`` operators, ``Fraction``) are never wrapped, so the
traced run stays close to the untraced one.  When the job ends, the spans,
counters and cache statistics are written as JSON.

Usage (``PYTHONPATH`` must reach the package)::

    python3 perfbench/tracer.py <spans.json> cli <spinlaw CLI args...>
    python3 perfbench/tracer.py <spans.json> lib <library job> <shift> <out>
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

SPANS: list[list] = []  # [name, start, end, parent index or -1, nested]
COUNTS: Counter = Counter()
_STACK: list[int] = []
_ACTIVE: Counter = Counter()


def _sizes_reduced(args, result) -> None:
    before, after = args[0], result
    COUNTS["charseries.reduced.terms_in"] += len(before.num.coeffs)
    COUNTS["charseries.reduced.terms_out"] += len(after.num.coeffs)
    COUNTS["charseries.reduced.factors_offered"] += sum(before.den.values())
    COUNTS["charseries.reduced.factors_cancelled"] += (
        sum(before.den.values()) - sum(after.den.values())
    )


def _sizes_character(args, result) -> None:
    COUNTS["charseries.character.num_terms"] += len(result.num.coeffs)
    COUNTS["charseries.character.den_factors"] += sum(result.den.values())


def _sizes_buchberger(args, result) -> None:
    COUNTS["polyring.buchberger_check.pairs"] += len(result)


def _sizes_sparse_rank(args, result) -> None:
    COUNTS["polyring.sparse_rank.rank"] += result


def _sizes_obstructions(args, result) -> None:
    COUNTS["richardson.obstruction_coverage.pairs"] += len(result)


# (module, class or None, function, hook on (args, result) or None)
TARGETS = [
    ("cli", None, "main", None),
    ("charseries", "RationalChar", "reduced", _sizes_reduced),
    ("charseries", "RationalChar", "series", None),
    ("charseries", None, "character", _sizes_character),
    ("charseries", None, "chain_series_direct", None),
    ("charseries", None, "recursion_check_J", None),
    ("charseries", None, "lower_bound_recursions_check", None),
    ("charseries", None, "delannoy_acceptance", None),
    ("charseries", None, "pole_order", None),
    ("polyring", None, "buchberger_check", _sizes_buchberger),
    ("polyring", None, "reduce", None),
    ("polyring", None, "graded_quotient_dim", None),
    ("polyring", None, "sparse_rank", _sizes_sparse_rank),
    ("richardson", None, "build_relations", None),
    ("richardson", None, "straightening_shape_check", None),
    ("richardson", None, "standard_monomials", None),
    ("richardson", None, "obstruction_coverage", _sizes_obstructions),
    ("richardson", None, "regular_sequence_check", None),
    ("richardson", None, "dimension_report", None),
    ("spinalg", None, "affine_fierz", None),
    ("spinalg", None, "gamma_affine", None),
    ("spinalg", None, "generate_hasse", None),
    ("spinalg", None, "weyl_hasse_check", None),
    ("spinalg", None, "weyl_orbit_check", None),
    ("weightlattice", None, "interval", None),
    ("weightlattice", None, "clutters", None),
    ("weightlattice", None, "chain_length", None),
    ("weightlattice", None, "affine_covers", None),
    ("weightlattice", None, "hasse_json", None),
    ("weightlattice", None, "hasse_dot", None),
]


def _wrap(name: str, fn, hook):
    def traced(*args, **kwargs):
        idx = len(SPANS)
        span = [name, 0.0, 0.0, _STACK[-1] if _STACK else -1, _ACTIVE[name] > 0]
        SPANS.append(span)
        _STACK.append(idx)
        _ACTIVE[name] += 1
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            _ACTIVE[name] -= 1
            _STACK.pop()
        if hook is not None:
            hook(args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _counting_rows(rows):
    for row in rows:
        COUNTS["polyring.sparse_rank.rows"] += 1
        yield row


def install() -> list[str]:
    """Wrap every target that exists; return the names of those missing.

    A module-level function is rebound in every ``spinlaw`` module that
    imported it by name, so calls between modules are traced too.
    """
    import spinlaw

    modules = [m for k, m in vars(spinlaw).items() if type(m) is type(sys)]
    missing = []
    for mod_name, cls_name, fn_name, hook in TARGETS:
        name = f"{mod_name}.{fn_name}"
        mod = getattr(spinlaw, mod_name, None)
        owner = getattr(mod, cls_name, None) if cls_name else mod
        fn = getattr(owner, fn_name, None)
        if fn is None:
            missing.append(name)
            continue
        if name == "polyring.sparse_rank":
            inner = fn
            fn = lambda rows, *a, **k: inner(_counting_rows(rows), *a, **k)  # noqa: E731
        traced = _wrap(name, fn, hook)
        if cls_name:
            setattr(owner, fn_name, traced)
            continue
        original = getattr(owner, fn_name)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
    return missing


def _cache_info() -> dict:
    """``lru_cache`` statistics of the package's caches that still exist."""
    import spinlaw

    out = {}
    for mod_name, fn_name in (
        ("charseries", "_character"),
        ("charseries", "_matrix_chars"),
        ("richardson", "_coverage_index"),
        ("richardson", "_affine_clutter"),
        ("spinalg", "gamma_quadrics"),
        ("spinalg", "fierz_identities"),
    ):
        fn = getattr(getattr(spinlaw, mod_name, None), fn_name, None)
        if hasattr(fn, "cache_info"):
            info = fn.cache_info()
            out[f"{mod_name}.{fn_name}"] = {"hits": info.hits, "misses": info.misses}
    return out


def main(argv: list[str]) -> int:
    spans_path, kind, rest = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import spinlaw.cli

    import_s = time.perf_counter() - start
    missing = install()
    if kind == "cli":
        code = spinlaw.cli.main(rest)
    else:
        import jobs

        code = jobs.run_library(rest[0], int(rest[1]), rest[2])
    with open(spans_path, "w") as fh:
        json.dump(
            {
                "import_s": import_s,
                "spans": SPANS,
                "counts": COUNTS,
                "caches": _cache_info(),
                "missing": missing,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
