"""Polynomial layer: order, division, S-pairs, graded dimensions, text I/O.

The monomial order is cross-checked against sympy's graded reverse
lexicographic key on dense exponent vectors (an independent implementation).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cmp_to_key

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlaw import polyring as pr
from spinlaw import richardson as rich
from spinlaw import weightlattice as wl

W = wl.parse_weight

X0 = pr.variable(0)
X1 = pr.variable(1)
X2 = pr.variable(2)


# ------------------------------------------------------------- monomials


def monomial_divides(a, b):
    """True when `a` divides `b`."""
    eb = dict(b)
    return all(eb.get(k, 0) >= e for k, e in a)


def test_monomial_basics():
    m = pr.monomial([4, 0, 4])
    assert m == ((0, 1), (4, 2))
    assert pr.monomial_degree(m) == 3
    assert pr.monomial_mul(m, pr.monomial([0])) == ((0, 2), (4, 2))
    assert monomial_divides(pr.monomial([4]), m)
    assert not monomial_divides(pr.monomial([4, 4, 4]), m)
    assert pr.monomial_div(m, pr.monomial([0, 4])) == ((4, 1),)
    assert pr.monomial_lcm(pr.monomial([0, 0]), m) == ((0, 2), (4, 2))
    with pytest.raises(ValueError):
        pr.monomial_div(pr.monomial([0]), pr.monomial([2]))


KEYS = [0, 2, 4, 6, 7, 9, 13, 21]


def sparse_to_dense(m, keys):
    d = dict(m)
    return tuple(d.get(k, 0) for k in keys)


from sympy.polys.orderings import grevlex as _sympy_grevlex


def sympy_grevlex_cmp(a, b, keys):
    """Independent order oracle: sympy's grevlex key on dense vectors.

    sympy lists exponents with the largest generator first, so the dense
    vectors are built over `keys` in descending order.
    """
    desc = sorted(keys, reverse=True)
    ka = _sympy_grevlex(sparse_to_dense(a, desc))
    kb = _sympy_grevlex(sparse_to_dense(b, desc))
    return (ka > kb) - (ka < kb)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(KEYS), max_size=6),
    st.lists(st.sampled_from(KEYS), max_size=6),
)
def test_cmp_matches_sympy_grevlex(la, lb):
    a, b = pr.monomial(la), pr.monomial(lb)
    assert pr.cmp_monomials(a, b) == sympy_grevlex_cmp(a, b, KEYS)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(KEYS), max_size=5).map(pr.monomial),
                max_size=12))
def test_sort_key_matches_comparator_and_sympy(ms):
    by_key = sorted(ms, key=pr.monomial_sort_key)
    assert by_key == sorted(ms, key=cmp_to_key(pr.cmp_monomials))
    desc = sorted(KEYS, reverse=True)
    assert by_key == sorted(
        ms, key=lambda m: _sympy_grevlex(sparse_to_dense(m, desc))
    )


def test_cmp_reference_examples():
    # on equal degree the monomial missing the bottom variable is larger
    x, y = pr.monomial([0]), pr.monomial([2])
    assert pr.cmp_monomials(pr.monomial([0, 2]), pr.monomial([2, 2])) == -1
    assert pr.cmp_monomials(x, y) == -1
    assert pr.cmp_monomials(pr.monomial([0, 0]), y) == 1  # degree wins
    assert pr.cmp_monomials(x, x) == 0


# ------------------------------------------------- tips on typed quadrics


GAMMA5_TEXT = (
    "l{(0)^0} * l{(5)^0} + l{(14)^0} * l{(23)^0}"
    " - l{(13)^0} * l{(24)^0} + l{(12)^0} * l{(34)^0}"
)
GAMMA2STAR_TEXT = (
    "-l{(1)^0} * l{(12)^0} + l{(3)^0} * l{(23)^0}"
    " - l{(4)^0} * l{(24)^0} + l{(5)^0} * l{(25)^0}"
)


def test_tip_of_reference_quadrics_is_the_incomparable_pair():
    g5 = pr.parse_poly(GAMMA5_TEXT)
    assert pr.tip(g5) == pr.monomial_from_weights([W("(14)"), W("(23)")])
    assert pr.lc(g5) == 1
    g2s = pr.parse_poly(GAMMA2STAR_TEXT)
    assert pr.tip(g2s) == pr.monomial_from_weights([W("(25)"), W("(5)")])
    assert pr.lc(g2s) == 1


# ------------------------------------------------------------- arithmetic


def polys(keys=KEYS[:4], min_size=0, max_size=5):
    monos = st.lists(st.sampled_from(keys), max_size=3).map(pr.monomial)
    coeffs = st.fractions(
        min_value=-4, max_value=4, max_denominator=3
    ).filter(lambda c: c != 0)
    return st.dictionaries(
        monos, coeffs, min_size=min_size, max_size=max_size
    ).map(pr.Poly)


@settings(max_examples=200)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert (f + g) - g == f
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert 2 * f == f + f
    assert f + (-f) == pr.Poly.zero()


def canonical(p):
    """Each coefficient is nonzero, and an int unless it is not integral."""
    return all(type(c) is int and c or type(c) is Fraction and c.denominator > 1
               for c in p.coeffs.values())


@settings(max_examples=150)
@given(polys(), polys())
def test_sums_hold_nonzero_fractions(f, g):
    for h in (f + g, f - g, g - f, -f, f * g, 3 * f):
        assert canonical(h)
        assert bool(h) == (not h.is_zero())
    assert (f - f).coeffs == {} and not (f - f)
    assert (X0 - X0).coeffs == {}


def test_exactness():
    f = Fraction(1, 3) * X0
    assert (3 * f)[pr.monomial([0])] == 1


# --------------------------------------------------------------- S-pairs


def test_s_polynomial_small_example():
    f = X2 * X2 - X0 * X0  # tip x2^2 (fewer at the bottom variable wins)
    g = X0 * X2  # tip x0*x2
    s = pr.s_polynomial(f, g)
    # T = x0 x2^2:  lc(f) * x2 * g - lc(g) * x0 * f = x0^3
    assert s == X0 * X0 * X0


@settings(max_examples=150)
@given(polys(), polys())
def test_s_polynomial_cancels_lcm(f, g):
    if f.is_zero() or g.is_zero():
        return
    big = pr.monomial_lcm(pr.tip(f), pr.tip(g))
    s = pr.s_polynomial(f, g)
    for m in s.coeffs:
        assert pr.cmp_monomials(m, big) == -1


# --------------------------------------------------------------- reduce


def test_reduce_example_with_tracking():
    g1 = X2 * X2 - X0 * X0  # tip x2^2
    g2 = X0 * X2
    f = X0 * X2 * X2
    r, q = pr.reduce(f, [g1, g2], track=True)
    assert r == X0 * X0 * X0
    rebuilt = q[0] * g1 + q[1] * g2 + r
    assert rebuilt == f


@settings(max_examples=150)
@given(polys())
def test_reduce_leaves_no_divisible_monomial(f):
    basis = [X0 * X0 - X2 * X2, X0 * X2]
    r, q = pr.reduce(f, basis, track=True)
    tips = [pr.tip(g) for g in basis]
    for m in r.coeffs:
        assert not any(monomial_divides(t, m) for t in tips)
    assert q[0] * basis[0] + q[1] * basis[1] + r == f


# ------------------------------------------------------ buchberger_check


def test_buchberger_check_skips_coprime_tips():
    assert pr.buchberger_check([X0 * X0, X2 * X2]) == {}


def test_buchberger_check_flags_nonconfluent_pair():
    out = pr.buchberger_check([X2 * X2 - X0 * X0, X0 * X2])
    assert set(out) == {(0, 1)}
    assert out[(0, 1)] == X0 * X0 * X0  # not zero: basis is not complete


def test_buchberger_check_confluent_pair():
    out = pr.buchberger_check([X0 * X1, X1 * X2])
    assert set(out) == {(0, 1)}
    assert out[(0, 1)].is_zero()


# ------------------------------------------------- a Fraction-only oracle
# Polynomials as plain {monomial: Fraction} dicts: an oracle for Poly's
# int | Fraction arithmetic that holds no int coefficient anywhere.


def fr(p):
    """`p` as a {monomial: Fraction} dict."""
    return {m: Fraction(c) for m, c in p.coeffs.items()}


def fr_add(a, b, scale=Fraction(1)):
    """a + scale·b, without zero terms."""
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + scale * c
    return {m: c for m, c in out.items() if c}


def fr_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = pr.monomial_mul(ma, mb)
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def fr_tip(a):
    return max(a, key=pr.monomial_sort_key)


def fr_s_polynomial(a, b):
    ta, tb = fr_tip(a), fr_tip(b)
    big = pr.monomial_lcm(ta, tb)
    left = fr_mul({pr.monomial_div(big, tb): a[ta]}, b)
    return fr_add(left, fr_mul({pr.monomial_div(big, ta): b[tb]}, a), Fraction(-1))


def reduce_oracle(f, basis):
    """Division of the dict `f` by a list of dicts that re-sorts the whole
    remainder before every step, then rewrites its largest monomial some tip
    divides by the first such basis element.  Returns ``(remainder,
    quotients)`` as dicts."""
    tips = [fr_tip(g) for g in basis]
    r, quotients = f, [{} for _ in basis]
    while True:
        hit = next(((m, i) for m in sorted(r, key=pr.monomial_sort_key, reverse=True)
                    for i, t in enumerate(tips) if monomial_divides(t, m)), None)
        if hit is None:
            return r, quotients
        m, i = hit
        q = {pr.monomial_div(m, tips[i]): r[m] / basis[i][tips[i]]}
        r = fr_add(r, fr_mul(q, basis[i]), Fraction(-1))
        quotients[i] = fr_add(quotients[i], q)


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), st.sampled_from([2, -3, Fraction(1, 2), Fraction(-4, 3)]),
       st.lists(polys(min_size=1, max_size=4), min_size=1, max_size=3))
def test_arithmetic_is_canonical_and_matches_fraction_oracle(f, g, s, basis):
    # no float, no integral Fraction, and the values of the Fraction route
    a, b = fr(f), fr(g)
    cases = [
        (f + g, fr_add(a, b)),
        (f - g, fr_add(a, b, Fraction(-1))),
        (f * g, fr_mul(a, b)),
        (s * f, fr_mul({pr.ONE: Fraction(s)}, a)),
        (f * Fraction(1, 2) * 2, a),
    ]
    if f and g:
        cases.append((pr.s_polynomial(f, g), fr_s_polynomial(a, b)))
    r, q = pr.reduce(f, basis, track=True)
    want_r, want_q = reduce_oracle(a, [fr(x) for x in basis])
    cases += [(r, want_r), *zip(q, want_q)]
    for got, want in cases:
        assert canonical(got) and fr(got) == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reduce_matches_sort_every_step_oracle(data):
    # Fraction and non-unit leading coefficients, mixed degrees, a tip
    # repeated with another tail, maybe a constant element, any order
    basis = data.draw(st.lists(polys(min_size=1, max_size=4), min_size=1, max_size=4))
    g = data.draw(st.sampled_from(basis))
    t = pr.tip(g)
    keep = data.draw(st.lists(st.booleans(), min_size=len(g.coeffs),
                              max_size=len(g.coeffs)))
    scale = data.draw(st.sampled_from([1, -2, Fraction(1, 3)]))
    basis.append(pr.Poly({m: scale * c for (m, c), k in zip(g.coeffs.items(), keep)
                          if k or m == t}))
    if data.draw(st.booleans()):
        basis.append(pr.Poly({pr.ONE: data.draw(st.sampled_from([1, -3, Fraction(2, 5)]))}))
    basis = data.draw(st.permutations(basis))
    f = data.draw(polys(min_size=1, max_size=8))
    want_r, want_q = reduce_oracle(fr(f), [fr(g) for g in basis])
    r, q = pr.reduce(f, basis, track=True)
    assert fr(r) == want_r and [fr(p) for p in q] == want_q
    assert pr.reduce(f, basis) == r
    assert all(canonical(p) for p in [r, *q])


def test_reduce_by_a_constant_and_by_repeated_tips():
    # x0·x1 has no divisor but the constant; x2 is the tip of x2 − x0
    r, q = pr.reduce(X0 * X1 + 3 * X2, [X2 - X0, pr.Poly({pr.ONE: 2})], track=True)
    assert r.is_zero()
    assert q == [3 * pr.Poly({pr.ONE: 1}), Fraction(1, 2) * X0 * X1 + Fraction(3, 2) * X0]
    # both elements have tip x2; the first in list order divides
    r, q = pr.reduce(X1 * X2, [X2 - X0, 2 * X2 + X1], track=True)
    assert r == X0 * X1 and q[1].is_zero()


@pytest.mark.parametrize("r", range(4))
def test_buchberger_check_matches_oracle_on_intervals(r):
    bodies = [x.body for x in rich.build_relations(
        wl.interval(W("(0)@0"), W(f"(1)@{r}")))]
    tips = [pr.tip(g) for g in bodies]
    dicts = [fr(g) for g in bodies]
    want = {
        (i, j): reduce_oracle(fr_s_polynomial(dicts[i], dicts[j]), dicts)[0]
        for i in range(len(bodies)) for j in range(i + 1, len(bodies))
        if {k for k, _ in tips[i]} & {k for k, _ in tips[j]}
    }
    assert {ij: fr(rem) for ij, rem in pr.buchberger_check(bodies).items()} == want


# ------------------------------------------------- graded quotient dims


def test_graded_quotient_dim_hand_oracles():
    xy = X0 * X1
    assert [pr.graded_quotient_dim([xy], [0, 1], k) for k in range(5)] == [
        1, 2, 2, 2, 2,
    ]
    sq = [X0 * X0, X0 * X1, X1 * X1]
    assert [pr.graded_quotient_dim(sq, [0, 1], k) for k in range(4)] == [1, 2, 0, 0]
    # full polynomial ring when there are no relations
    assert pr.graded_quotient_dim([], [0, 1, 2], 3) == 10
    # x0/2 − x1 is a multiple of x0 − 2·x1; x0/2 − x1/3 is not
    lines = [Fraction(1, 2) * X0 - X1, Fraction(1, 2) * X0 - Fraction(1, 3) * X1]
    assert pr.graded_quotient_dims([X0 - 2 * X1], lines, [0, 1], 1) == [1, 1, 0]


def test_graded_quotient_dim_rejects_bad_input():
    with pytest.raises(ValueError):
        pr.graded_quotient_dim([X0 + X0 * X1], [0, 1], 2)
    with pytest.raises(ValueError):
        pr.graded_quotient_dim([X0 * X2], [0, 1], 2)
    with pytest.raises(ValueError):
        pr.graded_quotient_dims([X0 * X1], [X0 + X0 * X1], [0, 1], 2)
    with pytest.raises(ValueError):
        pr.graded_quotient_dims([X0 * X1], [X2], [0, 1], 2)
    assert pr.graded_quotient_dims([X0 * X1], [X0, X1], [0, 1], -1) == [0, 0, 0]


def height_forms(hi):
    """Relations, variable keys and height-graded linear forms of [(0)@0, hi]."""
    iv = wl.interval(W("(0)@0"), W(hi))
    rels = [r.body for r in rich.build_relations(iv)]
    keys = [wl.apos(w) for w in iv.elements]
    heights = sorted({wl.ht(w) for w in iv.elements})
    ys = [
        sum((pr.lam(w) for w in iv.elements if wl.ht(w) == h), pr.Poly.zero())
        for h in heights
    ]
    return rels, keys, ys


@pytest.mark.parametrize("hi", ["(15)@0", "(1)@0"])
def test_graded_quotient_dims_equal_prefix_dims(hi):
    rels, keys, ys = height_forms(hi)
    for k in range(4):
        dims = pr.graded_quotient_dims(rels, ys, keys, k)
        assert dims == [
            pr.graded_quotient_dim(rels + ys[:j], keys, k) for j in range(len(ys) + 1)
        ]


def graded_quotient_dims_oracle(relations, extra, var_keys, k):
    """:func:`pr.graded_quotient_dims` with each degree-`k` monomial indexed
    by its sorted tuple of variable keys, each product ``monomial · g``
    built as a tuple, and ``Fraction`` rows handed to ``Echelon.add``."""
    if k < 0:
        return [0] * (len(extra) + 1)
    keys = sorted(var_keys)
    index = {
        c: i for i, c in enumerate(itertools.combinations_with_replacement(keys, k))
    }
    echelon = pr.Echelon()

    def add_rows(g):
        d = g.degree()
        if 0 <= d <= k:
            terms = [
                (tuple(kk for kk, e in m for _ in range(e)), coeff)
                for m, coeff in g.coeffs.items()
            ]
            for c in itertools.combinations_with_replacement(keys, k - d):
                echelon.add({index[tuple(sorted(c + m))]: coeff for m, coeff in terms})
        return len(index) - echelon.rank

    for g in relations:
        add_rows(g)
    return [len(index) - echelon.rank] + [add_rows(g) for g in extra]


def homogeneous(keys, d):
    monos = st.lists(st.sampled_from(keys), min_size=d, max_size=d).map(pr.monomial)
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    return st.dictionaries(monos, coeffs, max_size=4).map(pr.Poly)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_graded_quotient_dims_match_tuple_index_oracle(data):
    # the generators use only some of var_keys; degrees 0..3, zero allowed
    var_keys = data.draw(st.lists(st.integers(0, 40), min_size=2, max_size=5, unique=True))
    used = data.draw(st.lists(st.sampled_from(var_keys), min_size=2, unique=True))
    gens = st.lists(st.integers(0, 3).flatmap(lambda d: homogeneous(used, d)), max_size=3)
    rels, extra = data.draw(gens), data.draw(gens)
    # g + s·h lies in the span of g and h; whether the other generators'
    # rows reach it depends on the exact coefficient ratios
    d = data.draw(st.integers(1, 3))
    g, h = data.draw(st.lists(homogeneous(used, d).filter(bool), min_size=2, max_size=2))
    rels.append(g)
    extra += [h, g + data.draw(st.sampled_from([Fraction(1, 3), Fraction(-5, 2)])) * h]
    k = data.draw(st.integers(-1, 4))
    assert pr.graded_quotient_dims(rels, extra, var_keys, k) == (
        graded_quotient_dims_oracle(rels, extra, var_keys, k))


def test_graded_quotient_dims_without_variables():
    two = pr.Poly({pr.ONE: 2})
    for k in (0, 1):
        assert pr.graded_quotient_dims([], [two], [], k) == (
            graded_quotient_dims_oracle([], [two], [], k)) == [1 - k, 0]


def test_graded_quotient_dims_height_table_of_1_at_0():
    rels, keys, ys = height_forms("(1)@0")
    assert [pr.graded_quotient_dims(rels, ys, keys, k) for k in range(5)] == [
        [1] * 12,
        list(range(16, 4, -1)),
        [126, 110, 95, 81, 68, 56, 45, 35, 26, 18, 11, 5],
        [672, 546, 436, 341, 260, 192, 136, 91, 56, 30, 12, 1],
        [2772, 2100, 1554, 1118, 777, 517, 325, 189, 98, 42, 12, 0],
    ]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8])
def test_packed_keys_do_not_alias_at_field_boundaries(k):
    # k is where the field width k.bit_length() steps.  One bit less makes
    # x0^k and x0^(k−w)·x1 collide, w = 2^(width−1), at k = 1, 3, 7; at
    # k = 2, 4, 8 it leaves base k, still alias-free in degree k.  Every
    # degree-k monomial of x0, x1, x2 (x_i^k among them) added one at a time
    # drops the dimension by one, and x0^k also arises as x0^(k−1) · x0
    x = [X0, X1, X2]
    monos = [math.prod((x[i] for i in c), start=pr.monomial_poly(pr.ONE))
             for c in itertools.combinations_with_replacement(range(3), k)]
    total = math.comb(k + 3, 3)  # over the four keys 0, 1, 2, 9
    assert pr.graded_quotient_dims([], monos, [0, 1, 2, 9], k) == [
        total - j for j in range(len(monos) + 1)]
    binomial = monos[0] - math.prod([X1] * k)  # x0^k − x1^k
    for rels, extra, want in (([X0 - X2], [binomial], [k + 1, k]),
                              ([X0], [X1 * X2 - X1 * X1], [k + 1, min(k + 1, 2)])):
        assert pr.graded_quotient_dims(rels, extra, [0, 1, 2], k) == (
            graded_quotient_dims_oracle(rels, extra, [0, 1, 2], k)) == want


# ------------------------------------------------------------- sparse rank


def rank_rows(base, derived):
    """The base rows, then zero, repeated and dependent rows built from them."""
    rows = list(base)
    for kind, i, j, scale in derived:
        if not rows:
            break
        a, b = rows[i % len(rows)], rows[j % len(rows)]
        if kind == "zero":
            rows.append({c: 0 for c in a} if a else {})
        elif kind == "copy":
            rows.append(dict(a))
        elif kind == "scaled":
            rows.append({c: scale * v for c, v in a.items()})
        else:
            rows.append({c: a.get(c, 0) - scale * b.get(c, 0) for c in {*a, *b}})
    return rows


entries = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.integers(-10**15, 10**15),
    st.integers(-3, 3),
)
base_rows = st.lists(
    st.dictionaries(st.integers(0, 6), entries, max_size=6), max_size=7
)
derived_rows = st.lists(
    st.tuples(
        st.sampled_from(["zero", "copy", "scaled", "combination"]),
        st.integers(0, 20),
        st.integers(0, 20),
        st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    ),
    max_size=5,
)


@settings(max_examples=250, deadline=None)
@given(base_rows, derived_rows, st.randoms(use_true_random=False))
def test_sparse_rank_matches_sympy(base, derived, rnd):
    rows = rank_rows(base, derived)
    rnd.shuffle(rows)
    dense = [[sympy.Rational(str(Fraction(r.get(c, 0)))) for c in range(7)]
             for r in rows]
    expected = sympy.Matrix(dense).rank() if rows else 0
    assert pr.sparse_rank(rows) == expected
    echelon = pr.Echelon()
    grew = [echelon.add(r) for r in rows]
    assert sum(grew) == echelon.rank == expected
    for col, prow in echelon.pivots.items():
        assert min(prow) == col and prow[col] > 0
        assert all(type(v) is int and v for v in prow.values())
        assert math.gcd(*prow.values()) == 1


def test_echelon_divides_out_content_when_a_is_not_1():
    # leading entries 6 (pivot) and 4: a = 3, b = 2; 3·row − 2·pivot has content 2
    n = 10**20
    e = pr.Echelon()
    assert e.add({0: 6, 1: n, 2: 1})
    assert e.add({0: 4, 1: 2 * n + 6, 2: 2})
    assert e.pivots[1] == {1: 2 * n + 9, 2: 2}
    assert not e.add({1: -(2 * n + 9), 2: -2})


# ------------------------------------------------------------ text I/O


def test_format_reference_strings():
    assert pr.format_poly(pr.Poly.zero()) == "0"
    f = 3 * pr.lam(W("(0)")) * pr.lam(W("(0)")) - pr.lam(W("(1)@2"))
    assert pr.format_poly(f) == "3 * l{(0)^0}^2 - l{(1)^2}"
    # canonical emission orders terms with the leading monomial first
    g = pr.parse_poly(GAMMA5_TEXT)
    assert pr.format_poly(g) == (
        "l{(14)^0} * l{(23)^0} - l{(13)^0} * l{(24)^0}"
        " + l{(12)^0} * l{(34)^0} + l{(0)^0} * l{(5)^0}"
    )
    assert pr.parse_poly(pr.format_poly(g)) == g


def test_parse_accepts_weight_variants():
    assert pr.parse_poly("l{(12)@0}") == pr.parse_poly("l{(12)^0}")
    assert pr.parse_poly("l{(12)}") == pr.lam(W("(12)"))
    assert pr.parse_poly("1/2 * l{(5)^-1}") == Fraction(1, 2) * pr.lam(("(5)", -1))


@pytest.mark.parametrize("bad", ["", "l{(6)^0}", "x + y", "2 ** l{(12)^0}", "- "])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        pr.parse_poly(bad)


@settings(max_examples=200)
@given(polys(keys=[0, 2, 16, 17, 21]))
def test_format_parse_roundtrip(f):
    assert pr.parse_poly(pr.format_poly(f)) == f
