"""Richardson algebras of weight-poset intervals and their straightening data.

For an interval ``[δ, δ']`` of the affinized weight poset, the Richardson
algebra is the quotient of the polynomial ring on the interval's weight
variables ``λ^{α̂}`` by the coefficients of the affinized quadrics that
survive projection to the interval.  This module builds those relations by
mode convolution, checks that each retained relation carries a unique
clutter (an incomparable variable pair) and that the relations are in
bijection with the interval's clutters, verifies the straightening shape

    λ^α λ^α'  =  ± λ^{α∧α'} λ^{α∨α'}  +  Σ ± λ^γ λ^{γ'},
        γ < α∧α',  γ' > α∨α',

counts standard monomials (multichains) against graded quotient dimensions
in one report (:func:`straightened_law_report`), enumerates the
noncommutative obstructions — triples of variables whose product admits
two distinct clutter factorizations — and certifies that
every obstruction pair is resolved, with opposite unit signs, by one of the
bilinear Fierz elements ``h_{α^n}``.  Dimension and depth diagnostics
complete the picture: the regular-sequence test on the height-graded linear
forms here, and :func:`spinlaw.charseries.dimension_report` (longest chain,
height difference, character pole order) next to the characters.

All arithmetic is exact; every structural claim is either checked against
an independent oracle here or raised as a hard error when falsified.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from . import polyring as pr
from . import spinalg as sa
from . import weightlattice as wl
from .polyring import Poly
from .spinalg import GAMMA_LABELS
from .weightlattice import (
    Interval,
    Weight,
    apos,
    format_weight,
    ht,
    interval,
    leq,
    parse_weight,
)

__all__ = [
    "AffineRelation",
    "Obstruction",
    "build_relations",
    "straightening_shape_check",
    "standard_monomials",
    "straightened_law_report",
    "enumerate_obstructions",
    "obstruction_coverage",
    "regular_sequence_check",
]


# ------------------------------------------------------------- relations


class AffineRelation(namedtuple("AffineRelation", "s l body clutter")):
    """One retained relation of a Richardson algebra.

    ``body`` is the mode-``l`` coefficient of the affinized quadric
    ``Γ^{s}(λ(z)λ(z))`` projected to the interval's variables; it is
    homogeneous of degree two and contains exactly one clutter monomial,
    recorded in ``clutter`` with the :func:`~spinlaw.weightlattice.apos`-
    smaller weight first.
    """

    __slots__ = ()

    def __new__(cls, s: str, l: int, body: Poly, clutter: tuple[Weight, Weight]):
        if not body.is_homogeneous() or body.degree() != 2:
            raise ValueError("relation body must be homogeneous of degree 2")
        return super().__new__(cls, s, l, body, clutter)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: validate there too
        return cls(*iterable)


def _monomial_pair(m: pr.Monomial) -> tuple[Weight, Weight]:
    """The (multiset) pair of weights of a degree-2 monomial."""
    ws = pr.monomial_weights(m)
    if len(ws) != 2:
        raise ValueError("not a degree-2 monomial")
    return (ws[0], ws[1])


def _is_clutter_pair(a: Weight, b: Weight) -> bool:
    return a != b and not leq(a, b) and not leq(b, a)


def _clutter_monomials(f: Poly) -> list[tuple[Weight, Weight]]:
    out = []
    for m in f.coeffs:
        a, b = _monomial_pair(m)
        if _is_clutter_pair(a, b):
            out.append((a, b))
    return sorted(out)


def _project(f: Poly, keys: set[int]) -> Poly:
    return Poly._of({m: c for m, c in f.coeffs.items() if keys.issuperset(m)})


def build_relations(iv: Interval) -> list[AffineRelation]:
    """The relations of the Richardson algebra on the interval.

    Every quadric mode is projected to the interval's variables, and every
    nonzero projection is retained with its clutter.  A projection with no
    clutter or with several would falsify the unique-clutter proposition,
    and the retained clutters must biject onto
    :func:`~spinlaw.weightlattice.clutters`; each mismatch is a hard error,
    not a warning.

    >>> len(build_relations(interval(parse_weight("(0)@0"), parse_weight("(1)@0"))))
    10
    >>> build_relations(interval(parse_weight("(0)@0"), parse_weight("(15)@0")))
    []
    >>> [r] = build_relations(interval(parse_weight("(0)@0"), parse_weight("(5)@0")))
    >>> (r.s, r.l, len(r.body.coeffs)), [format_weight(w) for w in r.clutter]
    (('5', 0, 4), ['(14)@0', '(23)@0'])
    """
    lo_lvl, hi_lvl = iv.lo[1], iv.hi[1]
    window = (lo_lvl, hi_lvl)
    keys = {apos(w) for w in iv.elements}
    retained: list[AffineRelation] = []
    for l in range(2 * lo_lvl, 2 * hi_lvl + 1):
        for s in GAMMA_LABELS:
            proj = _project(sa.gamma_affine(s, l, window), keys)
            if proj.is_zero():
                continue
            cls = _clutter_monomials(proj)
            if len(cls) != 1:
                raise RuntimeError(f"projection of {s}^{l} has {len(cls)} clutters")
            retained.append(AffineRelation(s, l, proj, cls[0]))
    got = sorted(r.clutter for r in retained)
    want = wl.clutters(iv)
    if got != sorted(want):
        raise RuntimeError(
            "retained relations are not in bijection with the interval's "
            f"clutters ({len(got)} relations, {len(want)} clutters)"
        )
    return retained


def straightening_shape_check(rel: AffineRelation) -> bool:
    """Does the relation, solved for its clutter, have straightening shape?

    The clutter term and the meet∨join term must both carry unit
    coefficients, and every other monomial must be ``±λ^γ λ^{γ'}`` with
    ``γ`` strictly below the meet and ``γ'`` strictly above the join.

    >>> iv = interval(parse_weight("(0)@0"), parse_weight("(1)@0"))
    >>> all(straightening_shape_check(r) for r in build_relations(iv))
    True
    """
    a, b = rel.clutter
    m, j = wl.meet(a, b), wl.join(a, b)
    c_cl = rel.body[pr.monomial_from_weights([a, b])]
    c_mj = rel.body[pr.monomial_from_weights([m, j])]
    if abs(c_cl) != 1 or abs(c_mj) != 1:
        return False
    for mono, coeff in rel.body.coeffs.items():
        x, y = _monomial_pair(mono)
        if (x, y) in ((a, b), (m, j)):
            continue
        if abs(coeff) != 1:
            return False
        if not (leq(x, m) and x != m and leq(j, y) and y != j):
            return False
    return True


# ------------------------------------------------------ standard monomials


def standard_monomials(iv: Interval, k: int) -> int:
    """Number of multichains of length ``k``.

    Multichains ``α₁ ≤ … ≤ α_k`` in the interval label the standard
    monomials ``λ^{α₁} ⋯ λ^{α_k}``.

    >>> iv = interval(parse_weight("(0)@0"), parse_weight("(1)@0"))
    >>> standard_monomials(iv, 2)
    126
    >>> standard_monomials(iv, 0)
    1
    >>> standard_monomials(interval(parse_weight("(0)@0"),
    ...                             parse_weight("(15)@0")), 3)
    35
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return 1
    els = iv.elements
    below = {x: [y for y in els if leq(y, x)] for x in els}
    counts = {x: 1 for x in els}
    for _ in range(k - 1):
        counts = {x: sum(counts[y] for y in below[x]) for x in els}
    return sum(counts.values())


def straightened_law_report(iv: Interval, k_max: int) -> dict:
    """Standard monomials span: dimensions match, rewriting is confluent.

    ``dimensions`` lists ``standard_monomials(iv, k)`` next to the graded
    quotient dimension by :func:`build_relations` for every ``k ≤ k_max``;
    ``dimensions_ok`` says they all agree, ``buchberger_ok`` that the first
    Buchberger round on the relations leaves zero remainders, and
    ``shapes_ok`` that every relation passes
    :func:`straightening_shape_check`.  ``ok`` is all three.

    ``buchberger_ok`` with ``shapes_ok`` proves the law in every degree, not
    only for ``k ≤ k_max``: the shape puts every other term of a relation
    below its clutter monomial, which is therefore its tip, and zero
    remainders make the relations a Gröbner basis.  So the initial ideal is
    spanned by the clutters' products, and the standard monomials, those no
    clutter divides, are the multichains; the graded dimensions are the
    independent second route.

    >>> rep = straightened_law_report(
    ...     interval(parse_weight("(0)@0"), parse_weight("(15)@0")), 4)
    >>> rep["ok"], rep["relation_count"], rep["dimensions"][4]
    (True, 0, {'k': 4, 'standard': 70, 'graded': 70})
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    rels = build_relations(iv)
    bodies = [r.body for r in rels]
    keys = [apos(w) for w in iv.elements]
    graded = pr.graded_quotient_dims(bodies, keys, k_max)
    dims = [
        {"k": k, "standard": standard_monomials(iv, k), "graded": graded[k]}
        for k in range(k_max + 1)
    ]
    dims_ok = all(d["standard"] == d["graded"] for d in dims)
    buch_ok = all(rem.is_zero() for rem in pr.buchberger_check(bodies).values())
    shapes_ok = all(straightening_shape_check(r) for r in rels)
    return {
        "relation_count": len(rels),
        "dimensions": dims,
        "dimensions_ok": dims_ok,
        "buchberger_ok": buch_ok,
        "shapes_ok": shapes_ok,
        "ok": dims_ok and buch_ok and shapes_ok,
    }


# ----------------------------------------------------------- obstructions


class Obstruction(namedtuple("Obstruction", "outer inner")):
    """One clutter factorization ``λ^{outer} · (λ^a λ^b)`` of a cubic monomial.

    ``inner`` is an unordered clutter pair; ``outer`` is incomparable to at
    least one inner weight (it belongs to the complementary factorization's
    clutter), which is validated on construction.
    """

    __slots__ = ()

    def __new__(cls, outer: Weight, inner: frozenset[Weight]):
        a, b = sorted(inner, key=apos)
        if not _is_clutter_pair(a, b):
            raise ValueError("inner pair is not a clutter")
        if not any(_is_clutter_pair(outer, w) for w in (a, b)):
            raise ValueError("outer weight clutters with no inner weight")
        return super().__new__(cls, outer, inner)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: validate there too
        return cls(*iterable)

    def key(self) -> tuple:
        return (apos(self.outer), tuple(sorted(map(apos, self.inner))))


ObstructionPair = tuple[Obstruction, Obstruction]


def enumerate_obstructions(iv: Interval) -> list[ObstructionPair]:
    """All complementary obstruction pairs of the interval.

    A cubic monomial ``λ^x λ^y λ^z`` on three distinct weights is obstructed
    when exactly two of its three sub-pairs are clutters; the two clutter
    factorizations then form a complementary pair with equal product.  A
    triple with three clutter sub-pairs would break the pairing and raises
    (the incomparability graphs here are triangle-free).

    An obstructed triple is a path x–z–y in the incomparability graph, z
    being the weight in both clutters, so the triples are found by walking
    the pairs of clutter-neighbours of each z: Σ deg² steps, not all
    C(n, 3) triples.  A triangle shows up as a neighbour pair that is
    itself a clutter.

    >>> iv = interval(parse_weight("(0)@0"), parse_weight("(1)@0"))
    >>> len(enumerate_obstructions(iv))
    16
    >>> enumerate_obstructions(interval(parse_weight("(0)@0"),
    ...                                 parse_weight("(15)@0")))
    []
    """
    els = iv.elements
    nbrs: dict[Weight, list[Weight]] = {w: [] for w in els}
    for x, y in wl.clutters(iv):
        nbrs[x].append(y)
        nbrs[y].append(x)
    out: list[ObstructionPair] = []
    for z in els:
        for x, y in itertools.combinations(nbrs[z], 2):
            if y in nbrs[x]:
                raise RuntimeError(
                    "clutter triangle at "
                    + ", ".join(format_weight(w) for w in sorted((x, y, z), key=els.index))
                )
            facts = sorted(
                (Obstruction(y, frozenset((x, z))), Obstruction(x, frozenset((y, z)))),
                key=Obstruction.key,
            )
            out.append((facts[0], facts[1]))
    # a factorization determines its triple, so the sort keys are distinct
    out.sort(key=lambda p: p[0].key())
    return out


def _find_cover(pair: ObstructionPair) -> tuple[str, int] | None:
    """A Fierz element ``h_{α^n}`` resolving the pair, if one exists.

    Substituting the quadric for the placeholder in a term
    ``c · λ^{β} x_{s^m}`` of ``h_{α^n}`` gives the cubic monomial
    ``λ^{β} λ^a λ^b`` with coefficient ``c · cc``, ``cc`` being that of
    ``λ^a λ^b`` in ``Γ^{s^m}``.  Affinization copies coefficients, so
    ``c`` and ``cc`` are read at level 0: ``Γ^s`` is the one quadric
    holding ``λ^{tag a} λ^{tag b}``, and ``n`` is the triple's total level.
    Both factorizations must appear in the same element with opposite unit
    product coefficients; the first such ``α`` in tag order is returned.
    """
    quads, fierz = sa.gamma_quadrics(), sa.fierz_identities()
    hits = []
    for ob in pair:
        inner = pr.monomial_from_weights([(w[0], 0) for w in ob.inner])
        outer = pr.monomial_from_weights([(ob.outer[0], 0)])
        hits.append({
            alpha: comps[s][outer] * q[inner]
            for s, q in quads.items() if q[inner]
            for alpha, comps in fierz.items() if s in comps
        })
    n = sum(w[1] for w in (pair[0].outer, *pair[0].inner))
    for alpha, c1 in hits[0].items():
        if abs(c1) == 1 and hits[1].get(alpha) == -c1:
            return alpha, n
    return None


def obstruction_coverage(iv: Interval) -> list[dict]:
    """Per-pair coverage report: which ``h_{α^n}`` resolves each obstruction.

    Every pair is covered directly (``route: "direct"``):
    :func:`_find_cover` reads the level-0 quadric and Fierz tables, and the
    tests check it against the affinized identities on every pair of
    ``[(0)@0, (1)@2]`` and ``[(0)@-2, (1)@0]``.  An uncovered pair would
    falsify the central resolution claim and raises.
    """
    report = []
    for pair in enumerate_obstructions(iv):
        cover = _find_cover(pair)
        if cover is None:
            raise RuntimeError(
                "uncovered obstruction pair: "
                + " / ".join(
                    f"{format_weight(ob.outer)}·"
                    + "".join(format_weight(w) for w in sorted(ob.inner, key=apos))
                    for ob in pair
                )
            )
        alpha, n = cover
        report.append(
            {
                "pair": pair,
                "element": (alpha, n),
                "label": f"o_{format_weight((alpha, n))}",
                "route": "direct",
            }
        )
    return report


def regular_sequence_check(iv: Interval, d_max: int) -> bool:
    """Are the height-graded linear forms a regular sequence on the algebra?

    With ``y_j`` the sum of the interval's variables at the j-th height and
    ``H_j`` the Hilbert function of ``A/(y_1..y_j)``, multiplying by ``y_j``
    gives ``H_j = (1 − t)·H_{j−1} + t·K_j``, ``K_j ≥ 0`` the Hilbert function
    of the annihilator of ``y_j``.  So ``H_n − (1 − t)^n·H_0`` is
    ``Σ_j t(1 − t)^{n−j}·K_j``, whose lowest term is ``t^{e+1}·Σ_j K_j[e]``,
    ``e`` the lowest degree of any nonzero ``K_j``: every ``K_j`` vanishes
    below ``d_max`` exactly when ``H_n(k) = Σ_i (−1)^i·C(n, i)·H_0(k − i)``
    for all ``k ≤ d_max``.  ``A/(y)`` is the relations reduced by the forms,
    in the variables that are no form's tip (each height's largest key).

    >>> regular_sequence_check(
    ...     interval(parse_weight("(0)@0"), parse_weight("(15)@0")), 3)
    True
    """
    if d_max < 2:
        raise ValueError("d_max must be >= 2")
    rels = [r.body for r in build_relations(iv)]
    keys = [apos(w) for w in iv.elements]
    by_ht: dict[int, dict] = {}
    for w in iv.elements:
        by_ht.setdefault(ht(w), {})[pr.monomial_from_weights([w])] = 1
    ys = [Poly._of(by_ht[i]) for i in sorted(by_ht)]
    tips = {pr.tip(y)[0] for y in ys}
    h0 = pr.graded_quotient_dims(rels, keys, d_max)
    hn = pr.graded_quotient_dims(
        [g for g in map(pr.reducer(ys), rels) if g],
        [k for k in keys if k not in tips], d_max)
    n = len(ys)
    return all(
        hn[k] == sum((-1) ** i * math.comb(n, i) * h0[k - i] for i in range(min(n, k) + 1))
        for k in range(d_max + 1)
    )
