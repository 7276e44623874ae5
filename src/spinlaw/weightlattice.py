"""
The pure-spinor weight poset and its affinization.

The finite poset ``E`` has sixteen elements, written ``(0)``, ``(ij)`` for
``1 <= i < j <= 5`` and ``(k)`` for ``1 <= k <= 5``.  Its order is generated
by twenty cover arrows, pictured as four horizontal rows threaded by eight
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
pairs"), and each column is a chain of covers.  The pairs of heights 0..7
(``_PAIRS``) state the grid once: the offsets ``c``, the columns, the order
of ``TAGS`` and the involution ``U_TAG`` are read off them.  So are the
arrows: ``b`` covers ``a`` exactly when ``b`` is one height up and their
torus weights differ by a simple root (``_SIMPLE_ROOTS``).  Weights are
represented as ``(tag, level)`` tuples such as ``("(12)", 0)`` and printed
``(12)@0``.

This module owns the pure combinatorics: covers, the order relation, meets
and joins, intervals (a level window is the interval ``[(0)^lo, (1)^hi]``),
clutters (incomparable pairs), height bookkeeping, the total-order position
of each element used by the polynomial layer, the level shift, the
order-reversing involution, the subset of {1..5} each tag names, the torus
weight of each element, and DOT/JSON emitters for Hasse diagrams.
"""

from __future__ import annotations

import re
from collections import namedtuple

Weight = tuple[str, int]

#: The height pairs of level 0: row ``c`` holds the two weights of height
#: ``c`` as (first column, second column).  Every table of the grid below is
#: read off these eight rows.
_PAIRS: tuple[tuple[Weight, Weight], ...] = (
    (("(0)", 0), ("(3)", -1)),
    (("(12)", 0), ("(2)", -1)),
    (("(13)", 0), ("(1)", -1)),
    (("(14)", 0), ("(23)", 0)),
    (("(15)", 0), ("(24)", 0)),
    (("(25)", 0), ("(34)", 0)),
    (("(35)", 0), ("(5)", 0)),
    (("(45)", 0), ("(4)", 0)),
)

#: Height offset ``c(tag)``; ``ht((a)^r) = 8*r + c(a)``.
HT_OFFSET: dict[str, int] = {
    tag: c - 8 * lvl for c, row in enumerate(_PAIRS) for tag, lvl in row
}

#: Column of each tag inside its height pair (0 = first column).
COLUMN: dict[str, int] = {
    tag: col for row in _PAIRS for col, (tag, _) in enumerate(row)
}

#: The sixteen tags, listed in the increasing total order used for level-0
#: polynomial variables.
TAGS: tuple[str, ...] = tuple(sorted(HT_OFFSET, key=lambda t: (HT_OFFSET[t], COLUMN[t])))

#: The subset of {1..5} each tag names: ``(0)`` ↦ ∅, ``(ij)`` ↦ {i, j} and
#: ``(k)`` ↦ {1..5}∖{k}.  The torus weight, the Fock basis and the vertex
#: encoding ψ all read it.
TAG_SUBSET: dict[str, frozenset[int]] = {
    "(0)": frozenset(),
    **{f"({i}{j})": frozenset({i, j}) for i in range(1, 6) for j in range(i + 1, 6)},
    **{f"({k})": frozenset({1, 2, 3, 4, 5} - {k}) for k in range(1, 6)},
}

#: The order-reversing involution on tags (extended to weights by
#: ``anti_auto``): the tag at height offset ``10 - c`` in the other column.
U_TAG: dict[str, str] = {
    a: b for a in TAGS for b in TAGS
    if HT_OFFSET[a] + HT_OFFSET[b] == 10 and COLUMN[a] != COLUMN[b]
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


def ht_pair(m: int) -> tuple[Weight, Weight]:
    """The two elements of height ``m``, as (first column, second column)."""
    return (weight_from_apos(2 * m), weight_from_apos(2 * m + 1))


def apos(w: Weight) -> int:
    """Position of a weight in the global variable order (smaller = earlier).

    Equals ``2*ht(w) + COLUMN[tag]``; consecutive positions walk the two
    height columns in lockstep, so the map is a bijection ``Ê -> Z``.
    """
    return 2 * ht(w) + COLUMN[w[0]]


def weight_from_apos(key: int) -> Weight:
    """Inverse of :func:`apos`."""
    m, col = divmod(key, 2)
    tag, lvl = _PAIRS[m % 8][col]
    return (tag, lvl + m // 8)


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
    sub = TAG_SUBSET[tag]
    return (*(1 if i in sub else -1 for i in range(1, 6)), level)


#: The simple roots of affine D5 in :func:`torus_weight`'s coordinates, in
#: the order of spinalg's root operators R₁..R₆: ε₂−ε₁, ε₁+ε₂, ε₃−ε₂,
#: ε₄−ε₃, ε₅−ε₄ and δ−θ (θ = ε₄+ε₅), the one that raises the level.
_SIMPLE_ROOTS: tuple[tuple[int, ...], ...] = (
    (-2, 2, 0, 0, 0, 0), (2, 2, 0, 0, 0, 0), (0, -2, 2, 0, 0, 0),
    (0, 0, -2, 2, 0, 0), (0, 0, 0, -2, 2, 0), (0, 0, 0, -2, -2, 1),
)

# The cover arrows a^r -> b^{r+step}, as _UP[a] = [(b, step), ...] and
# _DOWN[b] = [(a, step), ...], each b^step from the height pair above a^0.
_UP: dict[str, list[tuple[str, int]]] = {t: [] for t in TAGS}
_DOWN: dict[str, list[tuple[str, int]]] = {t: [] for t in TAGS}
for _a in TAGS:
    _wa = torus_weight((_a, 0))
    for _b, _step in ht_pair(HT_OFFSET[_a] + 1):
        if tuple(y - x for x, y in zip(_wa, torus_weight((_b, _step)))) in _SIMPLE_ROOTS:
            _UP[_a].append((_b, _step))
            _DOWN[_b].append((_a, _step))

# _FINITE_UP[a] = set of tags b with a <= b at the same level, filled from
# the top tag down (TAGS is a linear extension).
_FINITE_UP: dict[str, frozenset[str]] = {}
for _a in reversed(TAGS):
    _FINITE_UP[_a] = frozenset({_a}).union(
        *(_FINITE_UP[b] for b, step in _UP[_a] if not step))

# _CROSS_UP[a] = set of tags b with a^r <= b^{r+1}.
_CROSS_UP: dict[str, frozenset[str]] = {
    a: frozenset(
        b for x in _FINITE_UP[a] for y, step in _UP[x] if step for b in _FINITE_UP[y]
    )
    for a in TAGS
}


def covers_up(w: Weight) -> tuple[Weight, ...]:
    """All covers of ``w`` (same-level arrows, plus cross-level if any)."""
    return tuple((b, w[1] + step) for b, step in _UP[w[0]])


def covers_down(w: Weight) -> tuple[Weight, ...]:
    """All elements covered by ``w``."""
    return tuple((a, w[1] - step) for a, step in _DOWN[w[0]])


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
    return _covers_from(window_weights(window), window[1])


def _covers_from(weights, hi_lvl: int) -> list[tuple[Weight, Weight]]:
    """:func:`affine_covers` given the window's weights (sorted by
    :func:`apos`) and its top level: covers never go down a level."""
    return [(w, c) for w in weights for c in sorted(covers_up(w), key=apos)
            if c[1] <= hi_lvl]


def _bound(a: Weight, b: Weight, lower: bool) -> Weight:
    """The greatest lower (``lower``) or least upper bound of ``a`` and ``b``.

    ``toward(x, y)`` reads "x lies on the bound's side of y".  When neither
    is the bound it is sought on the lower (upper) level; raises unless unique.
    """
    toward = leq if lower else (lambda x, y: leq(y, x))
    if toward(a, b):
        return a
    if toward(b, a):
        return b
    lvl = min(a[1], b[1]) if lower else max(a[1], b[1])
    cands = [(t, lvl) for t in TAGS if toward((t, lvl), a) and toward((t, lvl), b)]
    best = [x for x in cands if not any(toward(x, y) and x != y for y in cands)]
    if len(best) != 1:
        kind = "meet" if lower else "join"
        raise ValueError(f"{kind} not unique for {format_weight(a)}, {format_weight(b)}")
    return best[0]


def meet(a: Weight, b: Weight) -> Weight:
    """Greatest lower bound.  Raises if the bound is not unique."""
    return _bound(a, b, lower=True)


def join(a: Weight, b: Weight) -> Weight:
    """Least upper bound.  Raises if the bound is not unique."""
    return _bound(a, b, lower=False)


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
        # apos is a linear extension, so [lo, hi] lies in [apos(lo), apos(hi)]
        self.elements: tuple[Weight, ...] = tuple(
            w for w in map(weight_from_apos, range(apos(lo), apos(hi) + 1))
            if leq(lo, w) and leq(w, hi)
        )

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"Interval({format_weight(self.lo)}, {format_weight(self.hi)})"


def interval(lo: Weight, hi: Weight) -> Interval:
    """Construct the closed interval ``[lo, hi]``."""
    return Interval(lo, hi)


def window_weights(window: tuple[int, int]) -> tuple[Weight, ...]:
    """All weights with level in ``window`` (inclusive), sorted by :func:`apos`.

    They are the interval ``[(0)^lo, (1)^hi]``, ``(0)`` and ``(1)`` being
    each level's bottom and top; an empty window (``lo > hi``) has none.
    """
    lo, hi = window
    return interval(("(0)", lo), ("(1)", hi)).elements if lo <= hi else ()


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


class Pair(namedtuple("Pair", "tail other meet")):
    """Decomposition step: two maximal elements below the top, and their meet.

    ``tail`` is a side whose lower set ``[lo, tail)`` equals ``[lo, meet]``,
    with ``meet = meet(tail, other)`` — the property the chain-counting
    recursion needs.  When both sides qualify the :func:`apos`-smaller one
    is chosen.
    """

    __slots__ = ()


def decompose_below(iv: Interval, top: Weight | None = None) -> Tail | Pair:
    """Classify the maximal elements of ``[lo, top)`` as a Tail or a Pair;
    a Pair carries the meet of its two sides, computed once here."""
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
    # A side x is a tail when [lo, x) == [lo, m]: the maxima of [lo, x), its
    # lower covers above lo, are m alone.
    for x, y in ((a, b), (b, a)):
        if [z for z in covers_down(x) if leq(iv.lo, z)] == [m]:
            return Pair(tail=x, other=y, meet=m)
    raise ValueError(f"no tail side below {format_weight(top)}")


def hasse_json(window: tuple[int, int]) -> dict:
    """JSON-serialisable Hasse diagram of the level window (inclusive).

    ``nodes`` is a list of ``{"id", "tag", "level", "ht"}`` sorted by
    position; ``edges`` is a list of ``{"src", "dst"}`` referring to node
    ids, sorted likewise.  The CLI's envelope adds the schema version and
    the window.
    """
    weights = window_weights(window)
    return {
        "nodes": [
            {"id": format_weight(w), "tag": w[0], "level": w[1], "ht": ht(w)}
            for w in weights
        ],
        "edges": [
            {"src": format_weight(a), "dst": format_weight(b)}
            for a, b in _covers_from(weights, window[1])
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
