"""
The pure-spinor weight poset and its affinization.

The finite poset ``E`` has sixteen elements, written ``(0)``, ``(ij)`` for
``1 <= i < j <= 5`` and ``(k)`` for ``1 <= k <= 5``.  Its order is generated
by twenty cover arrows arranged in four horizontal rows threaded by eight
vertical arrows:

    (0)--(12)--(13)--(23)            rows read left to right,
    (14)--(24)--(34)--(5)            verticals join consecutive rows:
    (15)--(25)--(35)--(4)            (13)-(14), (23)-(24), (14)-(15),
    (45)--(3)--(2)--(1)              (24)-(25), (34)-(35), (5)-(4),
                                     (35)-(45), (4)-(3)

The affinization ``Ê = E x Z`` repeats this diagram over integer levels and
adds four cross-level arrows per level:

    (45)^r -> (0)^{r+1},  (3)^r -> (12)^{r+1},
    (2)^r  -> (13)^{r+1}, (1)^r -> (23)^{r+1}.

Every cover raises the height ``ht((a)^r) = 8*r + c(a)`` by exactly one, so
``Ê`` is graded with exactly two elements at every height (the "column
pairs").  Weights are represented as ``(tag, level)`` tuples such as
``("(12)", 0)`` and printed ``(12)@0``.

This module owns the pure combinatorics: covers, the order relation, meets
and joins, intervals, clutters (incomparable pairs), height bookkeeping, the
total-order position of each element used by the polynomial layer, the level
shift, the order-reversing involution, the torus weight of each element, and
DOT/JSON emitters for Hasse diagrams.
"""

from __future__ import annotations

import re
from collections import namedtuple

Weight = tuple[str, int]

#: The sixteen tags, listed in the increasing total order used for level-0
#: polynomial variables.
TAGS: tuple[str, ...] = (
    "(0)", "(12)", "(13)", "(14)", "(23)", "(15)", "(24)", "(25)",
    "(34)", "(35)", "(5)", "(45)", "(4)", "(3)", "(2)", "(1)",
)

#: Height offset ``c(tag)``; ``ht((a)^r) = 8*r + c(a)``.
HT_OFFSET: dict[str, int] = {
    "(0)": 0, "(12)": 1, "(13)": 2, "(14)": 3, "(23)": 3, "(15)": 4,
    "(24)": 4, "(25)": 5, "(34)": 5, "(35)": 6, "(5)": 6, "(45)": 7,
    "(4)": 7, "(3)": 8, "(2)": 9, "(1)": 10,
}

_ROWS = (
    ("(0)", "(12)", "(13)", "(23)"),
    ("(14)", "(24)", "(34)", "(5)"),
    ("(15)", "(25)", "(35)", "(4)"),
    ("(45)", "(3)", "(2)", "(1)"),
)

_VERTICAL = (
    ("(13)", "(14)"), ("(23)", "(24)"), ("(14)", "(15)"), ("(24)", "(25)"),
    ("(34)", "(35)"), ("(5)", "(4)"), ("(35)", "(45)"), ("(4)", "(3)"),
)

#: Cross-level cover targets: ``tag^r -> CROSS_COVERS[tag]^{r+1}``.
CROSS_COVERS: dict[str, str] = {
    "(45)": "(0)", "(3)": "(12)", "(2)": "(13)", "(1)": "(23)",
}

#: The order-reversing involution on tags (extended to weights by
#: ``anti_auto``).
U_TAG: dict[str, str] = {
    "(0)": "(1)", "(12)": "(2)", "(13)": "(3)", "(14)": "(4)",
    "(15)": "(5)", "(23)": "(45)", "(24)": "(35)", "(25)": "(34)",
}
U_TAG.update({v: k for k, v in U_TAG.items()})

#: Column of each tag inside its height pair (0 = first column).
COLUMN: dict[str, int] = {
    "(0)": 0, "(12)": 0, "(13)": 0, "(14)": 0, "(15)": 0, "(25)": 0,
    "(35)": 0, "(45)": 0,
    "(3)": 1, "(2)": 1, "(1)": 1, "(23)": 1, "(24)": 1, "(34)": 1,
    "(5)": 1, "(4)": 1,
}

# Same-level cover adjacency, as tag -> tuple of tags.
_UP_SAME: dict[str, tuple[str, ...]] = {t: () for t in TAGS}


def _add_up(src: str, dst: str) -> None:
    _UP_SAME[src] = _UP_SAME[src] + (dst,)


for _row in _ROWS:
    for _a, _b in zip(_row, _row[1:]):
        _add_up(_a, _b)
for _a, _b in _VERTICAL:
    _add_up(_a, _b)

def _reachable_same(start: str) -> frozenset[str]:
    seen = {start}
    stack = [start]
    while stack:
        for nxt in _UP_SAME[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


# _FINITE_UP[a] = set of tags b with a <= b at the same level.
_FINITE_UP: dict[str, frozenset[str]] = {t: _reachable_same(t) for t in TAGS}

# _CROSS_UP[a] = set of tags b with a^r <= b^{r+1}.
_CROSS_UP: dict[str, frozenset[str]] = {
    a: frozenset(
        b
        for b in TAGS
        if any(
            x in _FINITE_UP[a] and b in _FINITE_UP[target]
            for x, target in CROSS_COVERS.items()
        )
    )
    for a in TAGS
}

_WEIGHT_RE = re.compile(r"^(\((?:0|[1-5]|[1-5][1-5])\))(?:[@^](-?\d+))?$")


def parse_weight(text: str) -> Weight:
    """Parse ``(tag)@level`` (or ``(tag)^level``, or a bare tag for level 0).

    >>> parse_weight("(12)@0")
    ('(12)', 0)
    >>> parse_weight("(5)^-1")
    ('(5)', -1)
    """
    m = _WEIGHT_RE.match(text.strip())
    if not m or m.group(1) not in HT_OFFSET:
        raise ValueError(f"not a weight: {text!r} (expected e.g. '(12)@0')")
    return (m.group(1), int(m.group(2) or 0))


def format_weight(w: Weight) -> str:
    """Canonical text form of a weight, e.g. ``(12)@0``."""
    return f"{w[0]}@{w[1]}"


def ht(w: Weight) -> int:
    """Height ``8*level + c(tag)``; covers raise it by exactly one."""
    return 8 * w[1] + HT_OFFSET[w[0]]


def column_of(tag: str) -> int:
    """Column (0 or 1) of a tag inside its height pair."""
    return COLUMN[tag]


def ht_pair(m: int) -> tuple[Weight, Weight]:
    """The two elements of height ``m``, as (first column, second column)."""
    r, c = divmod(m, 8)
    table = (
        (("(0)", 0), ("(3)", -1)),
        (("(12)", 0), ("(2)", -1)),
        (("(13)", 0), ("(1)", -1)),
        (("(14)", 0), ("(23)", 0)),
        (("(15)", 0), ("(24)", 0)),
        (("(25)", 0), ("(34)", 0)),
        (("(35)", 0), ("(5)", 0)),
        (("(45)", 0), ("(4)", 0)),
    )[c]
    return tuple((tag, lvl + r) for tag, lvl in table)  # type: ignore[return-value]


def apos(w: Weight) -> int:
    """Position of a weight in the global variable order (smaller = earlier).

    Equals ``2*ht(w) + column_of(tag)``; consecutive positions walk the two
    height columns in lockstep, so the map is a bijection ``Ê -> Z``.
    """
    return 2 * ht(w) + COLUMN[w[0]]


def weight_from_apos(key: int) -> Weight:
    """Inverse of :func:`apos`."""
    m, col = divmod(key, 2)
    return ht_pair(m)[col]


def shift(w: Weight, k: int = 1) -> Weight:
    """Level shift ``T^k``: ``(a)^r -> (a)^{r+k}``."""
    return (w[0], w[1] + k)


def anti_auto(w: Weight) -> Weight:
    """The order-reversing involution ``(a)^r -> (u(a))^{-r}``.

    Satisfies ``ht(anti_auto(w)) == 10 - ht(w)`` and reverses ``leq``.
    """
    return (U_TAG[w[0]], -w[1])


def torus_weight(w: Weight) -> tuple[int, int, int, int, int, int]:
    """Exponent vector (a₁..a₅, m) of the weight e_α q^level in the
    half-step variables s_i (s_i² = z_i) and the loop variable q.

    >>> torus_weight(("(0)", 0))
    (-1, -1, -1, -1, -1, 0)
    >>> torus_weight(("(3)", 2))
    (1, 1, -1, 1, 1, 2)
    """
    tag, level = w
    digits = tag.strip("()")
    if digits == "0":
        s = [-1] * 5
    elif len(digits) == 2:
        s = [-1] * 5
        s[int(digits[0]) - 1] = 1
        s[int(digits[1]) - 1] = 1
    else:
        s = [1] * 5
        s[int(digits) - 1] = -1
    return (*s, level)


def covers_up(w: Weight) -> tuple[Weight, ...]:
    """All covers of ``w`` (same-level arrows, plus cross-level if any)."""
    tag, lvl = w
    out = [(b, lvl) for b in _UP_SAME[tag]]
    if tag in CROSS_COVERS:
        out.append((CROSS_COVERS[tag], lvl + 1))
    return tuple(out)


_DOWN_SAME: dict[str, tuple[str, ...]] = {t: () for t in TAGS}
for _a in TAGS:
    for _b in _UP_SAME[_a]:
        _DOWN_SAME[_b] = _DOWN_SAME[_b] + (_a,)
_CROSS_DOWN: dict[str, tuple[str, ...]] = {t: () for t in TAGS}
for _a, _b in CROSS_COVERS.items():
    _CROSS_DOWN[_b] = _CROSS_DOWN[_b] + (_a,)


def covers_down(w: Weight) -> tuple[Weight, ...]:
    """All elements covered by ``w``."""
    tag, lvl = w
    out = [(b, lvl) for b in _DOWN_SAME[tag]]
    out.extend((b, lvl - 1) for b in _CROSS_DOWN[tag])
    return tuple(out)


def leq(a: Weight, b: Weight) -> bool:
    """Order relation of ``Ê``.

    Levels weakly increase along covers, so a level gap decides quickly:
    ``a <= b`` is impossible when ``level(a) > level(b)`` and automatic when
    ``level(b) - level(a) >= 2`` (from any element one can climb to the top
    tag of its level, cross, and descend from the bottom tag two levels up).
    The remaining gaps 0 and 1 use precomputed reachability tables.
    """
    d = b[1] - a[1]
    if d < 0:
        return False
    if d == 0:
        return b[0] in _FINITE_UP[a[0]]
    if d == 1:
        return b[0] in _CROSS_UP[a[0]]
    return True


def affine_covers(window: tuple[int, int]) -> list[tuple[Weight, Weight]]:
    """All cover arrows with both endpoints' levels inside ``window``.

    ``window = (lo_level, hi_level)`` is inclusive.
    """
    lo_lvl, hi_lvl = window
    out: list[tuple[Weight, Weight]] = []
    for lvl in range(lo_lvl, hi_lvl + 1):
        for tag in TAGS:
            w = (tag, lvl)
            for c in covers_up(w):
                if lo_lvl <= c[1] <= hi_lvl:
                    out.append((w, c))
    out.sort(key=lambda e: (apos(e[0]), apos(e[1])))
    return out


def _bound_candidates(a: Weight, b: Weight, lower: bool) -> list[Weight]:
    lvl = min(a[1], b[1]) if lower else max(a[1], b[1])
    cands = []
    for tag in TAGS:
        x = (tag, lvl)
        ok = (leq(x, a) and leq(x, b)) if lower else (leq(a, x) and leq(b, x))
        if ok:
            cands.append(x)
    return cands


def meet(a: Weight, b: Weight) -> Weight:
    """Greatest lower bound.  Raises if the bound is not unique."""
    if leq(a, b):
        return a
    if leq(b, a):
        return b
    cands = _bound_candidates(a, b, lower=True)
    maxima = [x for x in cands if not any(leq(x, y) and x != y for y in cands)]
    if len(maxima) != 1:
        raise ValueError(f"meet not unique for {format_weight(a)}, {format_weight(b)}")
    return maxima[0]


def join(a: Weight, b: Weight) -> Weight:
    """Least upper bound.  Raises if the bound is not unique."""
    if leq(a, b):
        return b
    if leq(b, a):
        return a
    cands = _bound_candidates(a, b, lower=False)
    minima = [x for x in cands if not any(leq(y, x) and x != y for y in cands)]
    if len(minima) != 1:
        raise ValueError(f"join not unique for {format_weight(a)}, {format_weight(b)}")
    return minima[0]


class Interval:
    """The closed interval ``[lo, hi]`` of ``Ê``.

    Eagerly enumerates its elements (sorted by :func:`apos`); its clutters
    (incomparable pairs) are computed on demand by :func:`clutters`.
    Intervals are convex, so the induced Hasse diagram is the restriction of
    the ambient covers.
    """

    def __init__(self, lo: Weight, hi: Weight):
        if not leq(lo, hi):
            raise ValueError(
                f"empty interval: {format_weight(lo)} is not <= {format_weight(hi)}"
            )
        self.lo = lo
        self.hi = hi
        els = []
        for lvl in range(lo[1], hi[1] + 1):
            for tag in TAGS:
                w = (tag, lvl)
                if leq(lo, w) and leq(w, hi):
                    els.append(w)
        els.sort(key=apos)
        self.elements: tuple[Weight, ...] = tuple(els)

    def __contains__(self, w: Weight) -> bool:
        return leq(self.lo, w) and leq(w, self.hi)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"Interval({format_weight(self.lo)}, {format_weight(self.hi)})"


def interval(lo: Weight, hi: Weight) -> Interval:
    """Construct the closed interval ``[lo, hi]``."""
    return Interval(lo, hi)


def clutters(iv: Interval) -> list[tuple[Weight, Weight]]:
    """All clutters (incomparable pairs) inside the interval.

    Each pair is returned with the :func:`apos`-smaller member first, and the
    list is sorted.
    """
    els = iv.elements
    out = []
    for i, a in enumerate(els):
        for b in els[i + 1 :]:
            if not leq(a, b) and not leq(b, a):
                out.append((a, b))
    return out


def chain_length(iv: Interval) -> int:
    """Number of elements in a longest chain from ``lo`` to ``hi``.

    Computed by dynamic programming over the interval's covers; because the
    poset is graded this always equals ``ht(hi) - ht(lo) + 1``.
    """
    best = {iv.lo: 1}
    for w in iv.elements:  # apos order is a linear extension
        if w == iv.lo:
            continue
        preds = [p for p in covers_down(w) if p in best]
        if preds:
            best[w] = 1 + max(best[p] for p in preds)
    return best[iv.hi]


class Tail(namedtuple("Tail", "below")):
    """Decomposition step: ``below`` is the unique maximal element below the top."""

    __slots__ = ()


class Pair(namedtuple("Pair", "tail other")):
    """Decomposition step: two maximal elements below the top.

    ``tail`` is a side whose lower set ``[lo, tail)`` equals
    ``[lo, meet(tail, other)]`` — the property the chain-counting recursion
    needs.  When both sides qualify the :func:`apos`-smaller one is chosen.
    """

    __slots__ = ()


def decompose_below(iv: Interval, top: Weight | None = None) -> Tail | Pair:
    """Classify the maximal elements of ``[lo, top)`` as a Tail or a Pair."""
    if top is None:
        top = iv.hi
    if top == iv.lo:
        raise ValueError("decompose_below needs top != lo")
    maxima = [y for y in covers_down(top) if leq(iv.lo, y)]
    maxima.sort(key=apos)
    if len(maxima) == 1:
        return Tail(maxima[0])
    a, b = maxima
    m = meet(a, b)

    # A side x is a tail when [lo, x) == [lo, m] as subsets of the interval.
    def lower_strict(x: Weight) -> frozenset[Weight]:
        return frozenset(w for w in iv.elements if leq(w, x) and w != x)

    def lower_closed(x: Weight) -> frozenset[Weight]:
        return frozenset(w for w in iv.elements if leq(w, x))

    if lower_strict(a) == lower_closed(m):
        return Pair(tail=a, other=b)
    if lower_strict(b) == lower_closed(m):
        return Pair(tail=b, other=a)
    raise ValueError(f"no tail side below {format_weight(top)}")


def hasse_json(window: tuple[int, int]) -> dict:
    """JSON-serialisable Hasse diagram of the level window (inclusive).

    ``nodes`` is a list of ``{"id", "tag", "level", "ht"}`` sorted by
    position; ``edges`` is a list of ``{"src", "dst"}`` referring to node
    ids, sorted likewise.  The CLI's envelope adds the schema version and
    the window.
    """
    lo_lvl, hi_lvl = window
    nodes = []
    for lvl in range(lo_lvl, hi_lvl + 1):
        for tag in TAGS:
            nodes.append((tag, lvl))
    nodes.sort(key=apos)
    edges = affine_covers(window)
    return {
        "nodes": [
            {"id": format_weight(w), "tag": w[0], "level": w[1], "ht": ht(w)}
            for w in nodes
        ],
        "edges": [
            {"src": format_weight(a), "dst": format_weight(b)} for a, b in edges
        ],
    }


def hasse_dot(data: dict) -> str:
    """GraphViz DOT rendering of a Hasse diagram built by :func:`hasse_json`."""
    lines = [
        "digraph hasse {",
        "  rankdir=BT;",
        '  node [shape=plaintext, fontname="monospace"];',
    ]
    for n in data["nodes"]:
        lines.append(f'  "{n["id"]}" [label="{n["id"]}  ht={n["ht"]}"];')
    for e in data["edges"]:
        lines.append(f'  "{e["src"]}" -> "{e["dst"]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
