"""Command-line surface: every check and computation as a reproducible batch job.

Each subcommand runs one verification or computation, prints its report to
stdout, and always writes the same bytes to an artifact file (``--out``, or
``<command>.<ext>`` inside ``$SPINLAW_OUT`` / the working directory).  Reports
are deterministic: JSON is emitted with sorted keys, two-space indent, a
trailing newline, and no timestamps, so identical configurations produce
byte-identical artifacts.

Report contract: a ``cmd_*`` handler takes the arguments and the parsed
interval or window (``None`` for ``delannoy-check``) and returns ``(body,
text)``, its own report keys and the dot/csv/latex rendering (``None`` for
JSON).  :func:`main` alone adds the envelope (``schema_version``,
``command``, ``interval`` or ``window``), names the artifact by ``--format``
(``latex`` → ``tex``; error reports are JSON) and takes the exit code from
the report's ``ok`` alone (``hasse`` has none and cannot fail).

Exit codes: 0 — all asserted properties hold; 2 — configuration or parse
error, an unwritable artifact path, or the run ran out of memory or
recursion depth (nothing is written); 3 — a checked property failed (the
report is still written, with ``"ok": false``).

Each subcommand imports the library layers it runs inside its ``cmd_*``
function, so a run loads only those: ``character``, ``dims`` and
``delannoy-check`` load ``charseries`` (on ``weightlattice``), ``hasse`` and
``--help`` load ``weightlattice`` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import weightlattice as wl

SCHEMA_VERSION = 1

MONO_VARS = ("s1", "s2", "s3", "s4", "s5", "q", "t")
MONO_VARS_TEX = ("s_1", "s_2", "s_3", "s_4", "s_5", "q", "t")


# -------------------------------------------------------------- rendering


def format_mono(m, *, tex: bool = False) -> str:
    """Render an exponent vector: ``(0,…,0,2)`` → ``"t^2"``, zeros → ``"1"``.

    >>> format_mono((0, 0, 0, 0, 0, 0, 2))
    't^2'
    >>> format_mono((0,) * 7)
    '1'
    >>> format_mono((1, 0, 0, 0, 0, 3, 1), tex=True)
    's_1q^{3}t'
    """
    parts = []
    for name, e in zip(MONO_VARS_TEX if tex else MONO_VARS, m):
        if e == 0:
            continue
        if e == 1:
            parts.append(name)
        elif tex:
            parts.append(f"{name}^{{{e}}}")
        else:
            parts.append(f"{name}^{e}")
    if not parts:
        return "1"
    return ("" if tex else "*").join(parts)


def format_laurent(p, *, tex: bool = False) -> str:
    """Render a :class:`~spinlaw.charseries.LaurentPoly`: ``1+5t+5t^2+t^3``."""
    if p.is_zero():
        return "0"
    out = []
    for m, c in p.sorted_terms():
        mono = format_mono(m, tex=tex)
        if mono == "1":
            term = str(c)
        elif c == 1:
            term = mono
        elif c == -1:
            term = "-" + mono
        else:
            term = str(c) + mono
        out.append(term)
    return "+".join(out).replace("+-", "-")


def format_denominator(den, *, tex: bool = False) -> str:
    """Render a factor multiset: ``{t: 11}`` → ``"(1-t)^11"``.

    >>> format_denominator({(0, 0, 0, 0, 0, 0, 1): 11})
    '(1-t)^11'
    >>> format_denominator({})
    '1'
    """
    if not den:
        return "1"
    parts = []
    for m in sorted(den):
        e = den[m]
        base = f"(1-{format_mono(m, tex=tex)})"
        if e == 1:
            parts.append(base)
        elif tex:
            parts.append(f"{base}^{{{e}}}")
        else:
            parts.append(f"{base}^{e}")
    return ("" if tex else "*").join(parts)


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_csv(rows: list[dict], columns: list[str]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------- parsing


def parse_window(text: str) -> tuple[int, int]:
    """``"0..1"`` → ``(0, 1)``; both bounds are levels, and ``lo <= hi``.

    >>> parse_window("0..1")
    (0, 1)
    >>> parse_window("2..1")
    Traceback (most recent call last):
    ...
    ValueError: window is empty: '2..1'
    """
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"window must look like 0..1, got {text!r}")
    try:
        window = (int(lo), int(hi))
    except ValueError:
        raise ValueError(f"window bounds must be integers, got {text!r}") from None
    if window[0] > window[1]:
        raise ValueError(f"window is empty: {text!r}")
    return window


def parse_interval(args) -> wl.Interval:
    return wl.interval(wl.parse_weight(args.lo), wl.parse_weight(args.hi))


def parse_specialize(text: str) -> dict:
    """``"s=1,q=1"`` → ``{"s": 1, "q": 1}``; :func:`spinlaw.charseries.character`
    decides which names and values it accepts."""
    from fractions import Fraction

    spec = {}
    if not text:
        return spec
    for item in text.split(","):
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep:
            raise ValueError(f"bad specialization {item!r} (expected name=value)")
        if name in spec:
            raise ValueError(f"bad specialization {item!r} ({name} given twice)")
        try:
            spec[name] = Fraction(value.strip())
        except ValueError:
            raise ValueError(f"bad specialization {item!r} (value is not a number)") from None
    return spec


def parse_modes(text: str) -> list[int]:
    """``"0,2"`` → ``[0, 2]``; every item an integer, none given twice."""
    modes: list[int] = []
    for item in text.split(",") if text else []:
        try:
            n = int(item)
        except ValueError:
            raise ValueError(f"bad mode {item!r} (not an integer)") from None
        if n in modes:
            raise ValueError(f"bad mode {item!r} ({n} given twice)")
        modes.append(n)
    return modes


# -------------------------------------------------------------- commands


def cmd_hasse(args, window):
    data = wl.hasse_json(window)
    if args.format == "dot":
        return data, wl.hasse_dot(data)
    if args.format == "csv":
        rows = [
            {"kind": "node", "id": n["id"], "tag": n["tag"],
             "level": n["level"], "ht": n["ht"], "dst": ""}
            for n in data["nodes"]
        ] + [
            {"kind": "edge", "id": e["src"], "tag": "", "level": "",
             "ht": "", "dst": e["dst"]}
            for e in data["edges"]
        ]
        return data, render_csv(rows, ["kind", "id", "tag", "level", "ht", "dst"])
    return {
        "node_count": len(data["nodes"]),
        "edge_count": len(data["edges"]),
        **data,
    }, None


def cmd_relations(args, iv):
    from . import polyring as pr
    from . import richardson as rich

    # in (l, GAMMA_LABELS) order, one per clutter of the interval
    rows = [
        {
            "s": r.s,
            "l": r.l,
            "clutter": [wl.format_weight(w) for w in r.clutter],
            "body": pr.format_poly(r.body),
            "straightening_shape": rich.straightening_shape_check(r),
        }
        for r in rich.build_relations(iv)
    ]
    report = {
        "relation_count": len(rows),
        "clutter_count": len(rows),
        "relations": rows,
        "ok": all(row["straightening_shape"] for row in rows),
    }
    if args.format == "csv":
        flat = [
            {
                "s": row["s"],
                "l": row["l"],
                "clutter_lo": row["clutter"][0],
                "clutter_hi": row["clutter"][1],
                "straightening_shape": row["straightening_shape"],
                "body": row["body"],
            }
            for row in rows
        ]
        return report, render_csv(
            flat, ["s", "l", "clutter_lo", "clutter_hi", "straightening_shape", "body"]
        )
    return report, None


def cmd_groebner_check(args, iv):
    from . import polyring as pr
    from . import richardson as rich

    bodies = [r.body for r in rich.build_relations(iv)]
    remainders = pr.buchberger_check(bodies)
    nonzero = sorted(ij for ij, rem in remainders.items() if not rem.is_zero())
    return {
        "relation_count": len(bodies),
        "pairs_reduced": len(remainders),
        "nonzero_remainders": [list(ij) for ij in nonzero],
        "ok": not nonzero,
    }, None


def cmd_fierz_check(args, window):
    from . import polyring as pr
    from . import spinalg as sa

    # h_{α^n} pairs a variable of level l' with the quadric mode n − l', which
    # is zero outside 2·lo..2·hi, so only modes 3·lo..3·hi have terms.
    lo, hi = 3 * window[0], 3 * window[1]
    modes = parse_modes(args.modes) or list(range(lo, hi + 1))
    bad = [n for n in modes if not lo <= n <= hi]
    if bad:
        raise ValueError(
            f"modes {bad} have no terms on window {args.window}: "
            f"use modes in {lo}..{hi}"
        )
    residues = {
        f"{alpha}@{n}": pr.format_poly(sa.affine_fierz(alpha, n, window))
        for alpha in wl.TAGS
        for n in modes
    }
    return {
        "modes": modes,
        "identity_count": len(residues),
        "residues": residues,
        "ok": all(v == "0" for v in residues.values()),
    }, None


def cmd_straightened_check(args, iv):
    from . import richardson as rich

    law = rich.straightened_law_report(iv, args.k_max)
    return {"k_max": args.k_max, **law}, None


def cmd_obstructions(args, iv):
    from . import richardson as rich

    entries = []
    for e in rich.obstruction_coverage(iv):
        pair = [
            [
                wl.format_weight(ob.outer),
                [wl.format_weight(w) for w in sorted(ob.inner, key=wl.apos)],
            ]
            for ob in e["pair"]
        ]
        entries.append(
            {
                "label": e["label"],
                "element": wl.format_weight(e["element"]),
                "route": e["route"],
                "pair": pair,
            }
        )
    report = {"pair_count": len(entries), "pairs": entries, "ok": True}
    if args.format == "csv":
        flat = [
            {
                "label": row["label"],
                "route": row["route"],
                "outer_1": row["pair"][0][0],
                "inner_1": " ".join(row["pair"][0][1]),
                "outer_2": row["pair"][1][0],
                "inner_2": " ".join(row["pair"][1][1]),
            }
            for row in entries
        ]
        return report, render_csv(
            flat, ["label", "route", "outer_1", "inner_1", "outer_2", "inner_2"]
        )
    return report, None


def cmd_dims(args, iv):
    from . import charseries as cs

    rep = cs.dimension_report(iv)
    return {"element_count": len(iv.elements), **rep, "ok": True}, None


def cmd_character(args, iv):
    from . import charseries as cs

    if args.format == "latex" and args.series is not None:
        raise ValueError("--series has no latex rendering")
    spec = parse_specialize(args.specialize)
    c = cs.character(iv, specialize=spec or None).reduced()
    if args.format == "latex":
        tex = "\\frac{%s}{%s}\n" % (
            format_laurent(c.num, tex=True),
            format_denominator(c.den, tex=True),
        )
        return {"ok": True}, tex
    report = {
        "specialize": {k: 1 for k in sorted(spec)},
        "numerator": format_laurent(c.num),
        "denominator": format_denominator(c.den),
        "pole_order": cs.pole_order(c),
        "ok": True,
    }
    if args.series is not None:
        report["series"] = [format_laurent(p) for p in c.series(args.series)]
    return report, None


def cmd_delannoy_check(args, _):
    from . import charseries as cs

    ok = cs.delannoy_acceptance(args.r_max, args.k_max)
    return {
        "r_max": args.r_max,
        "k_max": args.k_max,
        "rows": [cs.delannoy(n) for n in range(12)],
        "targets": [
            wl.format_weight(cs.j_sequence(r)) for r in range(args.r_max + 1)
        ],
        "ok": ok,
    }, None


def cmd_weyl_check(args, window):
    from . import spinalg as sa

    hasse = sa.weyl_hasse_check(window)
    orbits = sa.weyl_orbit_check(window)
    return {
        "reflection_graph": hasse,
        "orbit_check": orbits,
        "regenerated_cover_count": len(sa.generate_hasse(window)),
        "ok": orbits["finite_ok"] and orbits["affine_ok"] and orbits["l_image_ok"],
    }, None


def cmd_regseq_check(args, iv):
    from . import richardson as rich

    ok = rich.regular_sequence_check(iv, args.d_max)
    return {"d_max": args.d_max, "ok": ok}, None


COMMANDS = {
    "hasse": cmd_hasse,
    "relations": cmd_relations,
    "groebner-check": cmd_groebner_check,
    "fierz-check": cmd_fierz_check,
    "straightened-check": cmd_straightened_check,
    "obstructions": cmd_obstructions,
    "dims": cmd_dims,
    "character": cmd_character,
    "delannoy-check": cmd_delannoy_check,
    "weyl-check": cmd_weyl_check,
    "regseq-check": cmd_regseq_check,
}


# ----------------------------------------------------------------- driver


def _add_interval_args(p):
    p.add_argument("--lo", required=True, help="lower endpoint, e.g. (0)@0")
    p.add_argument("--hi", required=True, help="upper endpoint, e.g. (1)@0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinlaw",
        description="Exact checks and characters for the pure-spinor weight poset.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, formats=("json",)):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--out", help="artifact path (default: $SPINLAW_OUT or cwd)")
        p.add_argument("--format", choices=formats, default="json")
        return p

    p = add("hasse", "emit the cover diagram of a level window",
            ("json", "dot", "csv"))
    p.add_argument("--window", default="0..0", help="level window, e.g. 0..1")

    p = add("relations", "emit the straightening relations of an interval",
            ("json", "csv"))
    _add_interval_args(p)

    p = add("groebner-check", "reduce all S-pairs of the interval's relations")
    _add_interval_args(p)

    p = add("fierz-check", "verify the bilinear identities vanish on a window")
    p.add_argument("--window", default="0..0", help="level window, e.g. 0..1")
    p.add_argument("--modes", default="", help="comma-separated modes (default: all)")

    p = add("straightened-check",
            "standard monomials vs graded dimensions plus confluence")
    _add_interval_args(p)
    p.add_argument("--k-max", type=int, default=2)

    p = add("obstructions", "enumerate obstruction pairs and their resolutions",
            ("json", "csv"))
    _add_interval_args(p)

    p = add("dims", "chain length, height difference, and pole order")
    _add_interval_args(p)

    p = add("character", "equivariant character of an interval algebra",
            ("json", "latex"))
    _add_interval_args(p)
    p.add_argument("--specialize", default="", help="e.g. s=1,q=1")
    p.add_argument("--series", type=int, default=None,
                   help="also expand the series to this order (json only)")

    p = add("delannoy-check", "characters along J vs the Delannoy closed forms")
    p.add_argument("--r-max", type=int, default=4)
    p.add_argument("--k-max", type=int, default=8)

    p = add("weyl-check", "reflection-graph and regenerated-diagram checks")
    p.add_argument("--window", default="0..1", help="level window, e.g. 0..1")

    p = add("regseq-check", "regular-sequence test for the height filtration")
    _add_interval_args(p)
    p.add_argument("--d-max", type=int, default=2)

    return parser


def _artifact_path(args, text) -> str:
    if args.out:
        return args.out
    ext = "json" if text is None else "tex" if args.format == "latex" else args.format
    return os.path.join(os.environ.get("SPINLAW_OUT", ""), f"{args.command}.{ext}")


def _parsed_input(args):
    """The command's parsed interval or window, and its envelope entry."""
    if hasattr(args, "lo"):
        iv = parse_interval(args)
        return iv, {"interval": [wl.format_weight(iv.lo), wl.format_weight(iv.hi)]}
    if hasattr(args, "window"):
        window = parse_window(args.window)
        return window, {"window": list(window)}
    return None, {}


# Options whose value may begin with "-": a negative level or mode.
_SIGNED_OPTIONS = ("--window", "--modes")


def _glue_signed_values(argv: list[str]) -> list[str]:
    """``argv`` with each ``--window -2..-1`` written ``--window=-2..-1``.

    argparse takes a token that begins with ``-`` for an option unless it
    is a plain negative number, so it would refuse a negative window or
    mode list given after a space; glued with ``=``, both forms parse alike.

    >>> _glue_signed_values(["hasse", "--window", "-2..-1", "--format", "dot"])
    ['hasse', '--window=-2..-1', '--format', 'dot']
    >>> _glue_signed_values(["fierz-check", "--window", "--modes", "-3,-2"])
    ['fierz-check', '--window', '--modes=-3,-2']
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_OPTIONS and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_glue_signed_values(argv))
    envelope = {"schema_version": SCHEMA_VERSION, "command": args.command}
    try:
        given, entry = _parsed_input(args)
        body, text = COMMANDS[args.command](args, given)
        report = {**envelope, **entry, **body}
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as e:
        # before RuntimeError, RecursionError's base: out of resources, not a finding
        print(f"error: {e!r}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        report, text = {**envelope, "error": str(e), "ok": False}, None
    out = text if text is not None else render_json(report)
    try:
        with open(_artifact_path(args, text), "w") as fh:
            fh.write(out)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return 0 if report.get("ok", True) else 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
