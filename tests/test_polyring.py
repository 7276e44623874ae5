"""Polynomial layer: order, division, S-pairs, graded dimensions, text I/O.

The monomial order is cross-checked against sympy's graded reverse
lexicographic key on dense exponent vectors (an independent implementation).
"""

from __future__ import annotations

import contextlib
import itertools
import math
import unittest.mock
from collections import Counter
from fractions import Fraction

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
    return not Counter(a) - Counter(b)


def test_monomial_basics():
    m = pr.monomial([4, 0, 4])
    assert m == (0, 4, 4) and pr.ONE == ()
    assert len(m) == 3
    assert pr.monomial_mul(m, pr.monomial([0])) == (0, 0, 4, 4)
    assert monomial_divides(pr.monomial([4]), m)
    assert not monomial_divides(pr.monomial([4, 4, 4]), m)
    assert pr.monomial_div(m, pr.monomial([0, 4])) == (4,)
    assert pr.monomial_lcm(pr.monomial([0, 0]), m) == (0, 0, 4, 4)
    with pytest.raises(ValueError):
        pr.monomial_div(pr.monomial([0]), pr.monomial([2]))
    assert wl.apos(("(0)", -1)) == KEYS[0]


# variables at levels -1 and 0: -16 is (0)@-1
KEYS = [-16, -11, -3, 0, 2, 4, 6, 7, 9, 13, 21]


def from_counter(c):
    """The monomial whose key multiplicities are the Counter `c`."""
    return tuple(sorted(c.elements()))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(KEYS), max_size=6),
       st.lists(st.sampled_from(KEYS), max_size=6))
def test_monomial_ops_match_counter_oracle(la, lb):
    a, b = pr.monomial(la), pr.monomial(lb)
    ca, cb = Counter(la), Counter(lb)
    for m in (a, b, pr.monomial_mul(a, b), pr.monomial_lcm(a, b)):
        assert type(m) is tuple and list(m) == sorted(m)
    assert pr.monomial_mul(a, b) == from_counter(ca + cb)
    assert pr.monomial_lcm(a, b) == from_counter(ca | cb)
    ab = pr.monomial_mul(a, b)
    assert pr.monomial_div(ab, a) == b and pr.monomial_div(ab, b) == a
    if ca - cb:  # some key has a higher multiplicity in a than in b
        with pytest.raises(ValueError):
            pr.monomial_div(b, a)
    else:
        assert pr.monomial_div(b, a) == from_counter(cb - ca)


def sparse_to_dense(m, keys):
    d = Counter(m)
    return tuple(d[k] for k in keys)


from sympy.polys.orderings import grevlex as _sympy_grevlex


def cmp(ka, kb):
    return (ka > kb) - (ka < kb)


def sympy_grevlex_key(m, keys):
    """Independent order oracle: sympy's grevlex key on dense vectors.

    sympy lists exponents with the largest generator first, so the dense
    vectors are built over `keys` in descending order.
    """
    return _sympy_grevlex(sparse_to_dense(m, sorted(keys, reverse=True)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(KEYS), max_size=6),
    st.lists(st.sampled_from(KEYS), max_size=6),
)
def test_cmp_matches_sympy_grevlex(la, lb):
    a, b = pr.monomial(la), pr.monomial(lb)
    assert cmp(pr.monomial_sort_key(a), pr.monomial_sort_key(b)) == cmp(
        sympy_grevlex_key(a, KEYS), sympy_grevlex_key(b, KEYS))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(KEYS), max_size=5).map(pr.monomial),
                max_size=12))
def test_sort_key_matches_comparator_and_sympy(ms):
    assert sorted(ms, key=pr.monomial_sort_key) == sorted(
        ms, key=lambda m: sympy_grevlex_key(m, KEYS))


def test_cmp_reference_examples():
    # on equal degree the monomial missing the bottom variable is larger
    key = pr.monomial_sort_key
    x, y = pr.monomial([0]), pr.monomial([2])
    assert key(pr.monomial([0, 2])) < key(pr.monomial([2, 2]))
    assert key(x) < key(y)
    assert key(pr.monomial([0, 0])) > key(y)  # degree wins
    assert key(x) == key(x)
    assert key(pr.monomial([-16, 2])) < key(pr.monomial([-11, -11]))


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


def test_poly_is_unhashable():
    # its coeffs dict is public and mutable, so a stored hash could go stale
    with pytest.raises(TypeError):
        hash(X0 + X1)


@pytest.mark.parametrize("build", [
    lambda c: pr.Poly({pr.monomial([0]): c}),
    lambda c: pr.monomial_poly(pr.monomial([0]), c),
    lambda c: X0 * c,
], ids=["init", "monomial_poly", "mul"])
def test_float_coefficients_are_refused(build):
    # 3/3/7 is the binary fraction 2573485501354569/2^54, not 1/7
    for c in (3 / 3 / 7, 0.0):
        with pytest.raises(TypeError):
            build(c)
    assert build(Fraction(1, 7))[pr.monomial([0])] == Fraction(1, 7)


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
        assert pr.monomial_sort_key(m) < pr.monomial_sort_key(big)


# --------------------------------------------------------------- reduce


def test_reduce_example_with_tracking():
    g1 = X2 * X2 - X0 * X0  # tip x2^2
    g2 = X0 * X2
    f = X0 * X2 * X2
    r, q = pr.reducer([g1, g2])(f, track=True)
    assert r == X0 * X0 * X0
    rebuilt = q[0] * g1 + q[1] * g2 + r
    assert rebuilt == f


@settings(max_examples=150)
@given(polys())
def test_reduce_leaves_no_divisible_monomial(f):
    basis = [X0 * X0 - X2 * X2, X0 * X2]
    r, q = pr.reducer(basis)(f, track=True)
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
    r, q = pr.reducer(basis)(f, track=True)
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
    r, q = pr.reducer(basis)(f, track=True)
    assert fr(r) == want_r and [fr(p) for p in q] == want_q
    assert pr.reducer(basis)(f) == r
    assert all(canonical(p) for p in [r, *q])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduce_matches_oracle_past_the_basis_variables_and_degree(data):
    # one reducer, several inputs: f in variables no basis element holds, f
    # with one variable to the 9th power, and a Fraction lead next to a
    # constant element; each input the packing does not cover widens it
    basis = data.draw(st.lists(polys(min_size=1, max_size=4), min_size=1, max_size=3))
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(basis) - 1))
        g = basis[i]
        basis[i] = g * (data.draw(st.sampled_from([Fraction(1, 3), Fraction(-5, 2)])) / pr.lc(g))
        const = pr.Poly({pr.ONE: data.draw(st.sampled_from([1, -3, Fraction(2, 5)]))})
        basis.insert(i + data.draw(st.integers(0, 1)), const)
    run = pr.reducer(basis)
    for _ in range(data.draw(st.integers(1, 3))):
        f = data.draw(polys(KEYS, max_size=8))
        if data.draw(st.booleans()):
            x9 = (data.draw(st.sampled_from(KEYS)),) * 9
            f = f + pr.monomial_poly(x9, data.draw(st.sampled_from([1, -2, Fraction(3, 4)])))
        want_r, want_q = reduce_oracle(fr(f), [fr(g) for g in basis])
        r, q = run(f, True)
        assert fr(r) == want_r and [fr(p) for p in q] == want_q
        assert run(f) == r == pr.reducer(basis)(f)
        assert all(canonical(p) for p in [r, *q])


def test_reduce_widens_the_packing_for_new_variables_and_degrees():
    # the basis holds x0..x2 in degree 2; x13 is foreign and x2^9 past its
    # degree, and the reducer keeps serving inputs it covered before
    basis = [X2 * X2 - X0 * X0, X0 * X2]
    x13 = pr.variable(13)
    run = pr.reducer(basis)
    cases = [X0 * X2 * X2, x13 * X2 * X2 + X1, pr.monomial_poly((2,) * 9),
             pr.monomial_poly((2, 2) + (13,) * 9) - X0, X0 * X2 * X2]
    for f in cases:
        want_r, want_q = reduce_oracle(fr(f), [fr(g) for g in basis])
        r, q = run(f, True)
        assert fr(r) == want_r and [fr(p) for p in q] == want_q
    assert run(x13) == x13 and run(pr.monomial_poly((2,) * 9)).is_zero()


def test_reduce_by_a_constant_and_by_repeated_tips():
    # x0·x1 has no divisor but the constant; x2 is the tip of x2 − x0
    r, q = pr.reducer([X2 - X0, pr.Poly({pr.ONE: 2})])(X0 * X1 + 3 * X2, track=True)
    assert r.is_zero()
    assert q == [3 * pr.Poly({pr.ONE: 1}), Fraction(1, 2) * X0 * X1 + Fraction(3, 2) * X0]
    # both elements have tip x2; the first in list order divides
    r, q = pr.reducer([X2 - X0, 2 * X2 + X1])(X1 * X2, track=True)
    assert r == X0 * X1 and q[1].is_zero()


@settings(max_examples=150, deadline=None)
@given(st.lists(polys(min_size=1, max_size=4), min_size=2, max_size=4))
def test_buchberger_check_matches_tuple_s_polynomials(basis):
    # the S-polynomials built on packed terms, against s_polynomial on
    # tuples, on bases whose remainders are mostly not zero
    tips = [set(pr.tip(g)) for g in basis]
    want = {(i, j): pr.reducer(basis)(pr.s_polynomial(basis[i], basis[j]))
            for i in range(len(basis)) for j in range(i + 1, len(basis))
            if tips[i] & tips[j]}
    assert pr.buchberger_check(basis) == want


@pytest.mark.parametrize("r", range(4))
def test_buchberger_check_matches_oracle_on_intervals(r):
    bodies = [x.body for x in rich.build_relations(
        wl.interval(W("(0)@0"), W(f"(1)@{r}")))]
    tips = [pr.tip(g) for g in bodies]
    dicts = [fr(g) for g in bodies]
    want = {
        (i, j): reduce_oracle(fr_s_polynomial(dicts[i], dicts[j]), dicts)[0]
        for i in range(len(bodies)) for j in range(i + 1, len(bodies))
        if set(tips[i]) & set(tips[j])
    }
    assert {ij: fr(rem) for ij, rem in pr.buchberger_check(bodies).items()} == want


# ------------------------------------------------- graded quotient dims


def test_graded_quotient_dim_hand_oracles():
    xy = X0 * X1
    assert pr.graded_quotient_dims([xy], [0, 1], 4) == [1, 2, 2, 2, 2]
    sq = [X0 * X0, X0 * X1, X1 * X1]
    assert pr.graded_quotient_dims(sq, [0, 1], 3) == [1, 2, 0, 0]
    # full polynomial ring when there are no relations
    assert pr.graded_quotient_dims([], [0, 1, 2], 3)[3] == 10
    # x0/2 − x1 is a multiple of x0 − 2·x1; x0/2 − x1/3 is not
    lines = [X0 - 2 * X1, Fraction(1, 2) * X0 - X1, Fraction(1, 2) * X0 - Fraction(1, 3) * X1]
    assert [pr.graded_quotient_dims(lines[:j], [0, 1], 1) for j in (1, 2, 3)] == [
        [1, 1], [1, 1], [1, 0]]


def test_graded_quotient_dim_rejects_bad_input():
    with pytest.raises(ValueError):
        pr.graded_quotient_dims([X0 + X0 * X1], [0, 1], 2)
    with pytest.raises(ValueError):
        pr.graded_quotient_dims([X0 * X2], [0, 1], 2)
    # a bad generator after a good one, also when k_max leaves no degree
    with pytest.raises(ValueError):
        pr.graded_quotient_dims([X0 * X1, X0 + X0 * X1], [0, 1], 2)
    with pytest.raises(ValueError):
        pr.graded_quotient_dims([X0 * X1, X2], [0, 1], 2)
    with pytest.raises(ValueError):
        pr.graded_quotient_dims([X0 * X1, X2], [0, 1], -1)
    assert pr.graded_quotient_dims([X0 * X1, X0, X1], [0, 1], -1) == []


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


def reduced_prefix_dims(rels, keys, ys, j, k_max):
    """The dimensions modulo ``rels + ys[:j]``, as those of the relations
    reduced by the forms in the variables that are no form's tip: the forms
    have distinct linear tips, so reducing by them is a substitution."""
    forms = ys[:j]
    tips = {pr.tip(y)[0] for y in forms}
    return pr.graded_quotient_dims(
        [g for g in (pr.reducer(forms)(f) for f in rels) if g],
        [kk for kk in keys if kk not in tips], k_max)


def prefix_table(rels, keys, ys, k_max):
    """``table[k][j]``: the degree-`k` dimension modulo ``rels + ys[:j]``."""
    columns = [reduced_prefix_dims(rels, keys, ys, j, k_max) for j in range(len(ys) + 1)]
    return [list(row) for row in zip(*columns)]


@pytest.mark.parametrize("hi", ["(15)@0", "(1)@0"])
def test_graded_quotient_dims_equal_prefix_dims(hi):
    # the relations reduced by the forms, and the forms kept as generators
    # at each k_max (so at each field width), give one table
    rels, keys, ys = height_forms(hi)
    table = prefix_table(rels, keys, ys, 3)
    assert [row[0] for row in table] == pr.graded_quotient_dims(rels, keys, 3)
    for k in range(4):
        assert table[k] == [
            pr.graded_quotient_dims(rels + ys[:j], keys, k)[k]
            for j in range(len(ys) + 1)
        ]


def int_row(row):
    """`row` times the lcm of its entries' denominators: every entry an int,
    a zero kept."""
    den = math.lcm(*[Fraction(v).denominator for v in row.values()])
    return {c: int(v * den) for c, v in row.items()}


def graded_quotient_dims_oracle(relations, var_keys, k):
    """Entry `k` of :func:`pr.graded_quotient_dims`, with every row built
    apart: each degree-`k` monomial indexed by its sorted tuple of variable
    keys, each product ``monomial · g`` built as a tuple, and each
    ``Fraction`` row scaled to ints and handed to ``Echelon.eliminate``."""
    keys = sorted(var_keys)
    index = {
        c: i for i, c in enumerate(itertools.combinations_with_replacement(keys, k))
    }
    echelon = pr.Echelon()
    for g in relations:
        for row in oracle_rows(g, keys, k, index):
            echelon.eliminate(int_row(row))
    return len(index) - echelon.rank


def oracle_rows(g, keys, k, index):
    """The rows ``monomial · g`` of degree `k`, columns taken from `index`."""
    d = g.degree()
    if 0 <= d <= k:
        for c in itertools.combinations_with_replacement(keys, k - d):
            yield {index[tuple(sorted(c + m))]: coeff for m, coeff in g.coeffs.items()}


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
    gens = data.draw(st.lists(st.integers(0, 3).flatmap(lambda d: homogeneous(used, d)),
                              max_size=6))
    # g + s·h lies in the span of g and h; whether the other generators'
    # rows reach it depends on the exact coefficient ratios
    d = data.draw(st.integers(1, 3))
    g, h = data.draw(st.lists(homogeneous(used, d).filter(bool), min_size=2, max_size=2))
    gens += [g, h, g + data.draw(st.sampled_from([Fraction(1, 3), Fraction(-5, 2)])) * h]
    k = data.draw(st.integers(0, 4))
    assert pr.graded_quotient_dims(gens, var_keys, k)[k] == (
        graded_quotient_dims_oracle(gens, var_keys, k))


def monomial_count(n, k):
    """The number of degree-`k` monomials in `n` variables."""
    return math.comb(n + k - 1, k) if n else int(k == 0)


def row_total(gens, n, k_max):
    """Every row ``u·g`` of degree ≤ `k_max`."""
    return sum(monomial_count(n, k - g.degree())
               for g in gens for k in range(k_max + 1) if 0 <= g.degree() <= k)


def rows_built(made):
    """The rows the graded ranks built into the echelons `made`: each became a
    pivot as it was, or went through ``eliminate`` and became one or reduced
    to zero."""
    return sum(e.rank + e.zeros for e in made)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_graded_quotient_table_skips_exactly_the_criterion_rows(data):
    # generators that are not a regular sequence: the dimensions are the
    # oracle's, and every row u·g is built exactly once, none skipped
    var_keys = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=4, unique=True))
    gen = st.integers(0, 3).flatmap(lambda d: homogeneous(var_keys, d))
    rels = data.draw(st.lists(gen, max_size=3))
    extra = data.draw(st.lists(gen, min_size=1, max_size=3))
    k_max = data.draw(st.integers(0, 4))

    def nonzero(d):
        return data.draw(homogeneous(var_keys, d).filter(bool))

    kinds = ["repeat", "in-span", "zero-divisor", "constant", "above-k-max"]
    for kind in data.draw(st.lists(st.sampled_from(kinds), unique=True)):
        if kind == "repeat":
            g = data.draw(st.sampled_from(extra))
        elif kind == "in-span":  # a combination of the relations of one degree
            top = max((r.degree() for r in rels), default=0)
            g = sum((data.draw(homogeneous(var_keys, 1)) * r
                     for r in rels if r.degree() == top), pr.Poly.zero())
        elif kind == "zero-divisor":  # p, with p·q among the relations
            g = nonzero(1)
            rels.append(g * nonzero(1))
        elif kind == "constant":
            g = pr.Poly({pr.ONE: data.draw(st.sampled_from([1, -3]))})
        else:
            g = nonzero(k_max + 1)
        extra.insert(data.draw(st.integers(0, len(extra))), g)
    gens = rels + extra
    with recorded_echelons() as made:
        dims = pr.graded_quotient_dims(gens, var_keys, k_max)
    assert len(made) == k_max + 1
    assert dims == [graded_quotient_dims_oracle(gens, var_keys, k)
                    for k in range(k_max + 1)]
    assert rows_built(made) == row_total(gens, len(var_keys), k_max)


def test_graded_quotient_dims_without_variables():
    two = pr.Poly({pr.ONE: 2})
    for k in (0, 1):
        assert [pr.graded_quotient_dims(gens, [], k)[k] for gens in ([], [two])] == [
            graded_quotient_dims_oracle(gens, [], k) for gens in ([], [two])] == [1 - k, 0]


def test_graded_quotient_dims_height_table_of_1_at_0():
    # the last column is the h-vector 1 + 5t + 5t² + t³ of the numerator
    rels, keys, ys = height_forms("(1)@0")
    table = prefix_table(rels, keys, ys, 4)
    assert table == [
        [1] * 12,
        list(range(16, 4, -1)),
        [126, 110, 95, 81, 68, 56, 45, 35, 26, 18, 11, 5],
        [672, 546, 436, 341, 260, 192, 136, 91, 56, 30, 12, 1],
        [2772, 2100, 1554, 1118, 777, 517, 325, 189, 98, 42, 12, 0],
    ]
    assert [row[0] for row in table] == pr.graded_quotient_dims(rels, keys, 4)


def test_graded_quotient_table_of_1_at_1():
    # pinned from the elimination that built every row u·g (88,479
    # eliminate calls, 82,613 of them reducing to zero)
    rels, keys, ys = height_forms("(1)@1")
    table = prefix_table(rels, keys, ys, 4)
    assert table == [
        [1] * 20,
        list(range(32, 12, -1)),
        [498, 466, 435, 405, 376, 348, 321, 295, 270, 246, 223, 201, 180, 160,
         141, 123, 106, 90, 75, 61],
        [5088, 4590, 4124, 3689, 3284, 2908, 2560, 2239, 1944, 1674, 1428, 1205,
         1004, 824, 664, 523, 400, 294, 204, 129],
        [38775, 33687, 29097, 24973, 21284, 18000, 15092, 12532, 10293, 8349,
         6675, 5247, 4042, 3038, 2214, 1550, 1027, 627, 333, 129],
    ]
    assert [row[0] for row in table] == pr.graded_quotient_dims(rels, keys, 4)
    # regular_sequence_check reads the first and the last column: 2,319
    # eliminate calls for the relations, 1,103 for them reduced by the
    # forms, and every one reduces to zero
    with recorded_echelons() as made:
        assert rich.regular_sequence_check(wl.interval(W("(0)@0"), W("(1)@1")), 4)
    assert sum(e.calls for e in made) == sum(e.zeros for e in made) == 3422
    assert rows_built(made) == 19980


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8])
def test_packed_keys_do_not_alias_at_field_boundaries(k):
    # k is where the field width k.bit_length() + 1 steps: the bits of an
    # exponent up to k and a guard bit above them.  At k = 1, 3, 7 an
    # exponent k sets every bit below the guard; at k = 2, 4, 8 the width has
    # just grown by one.  Every degree-k monomial of x0, x1, x2 (x_i^k among
    # them) added one at a time drops the dimension by one, and x0^k also
    # arises as x0^(k−1) · x0
    x = [X0, X1, X2]
    monos = [math.prod((x[i] for i in c), start=pr.monomial_poly(pr.ONE))
             for c in itertools.combinations_with_replacement(range(3), k)]
    total = math.comb(k + 3, 3)  # over the four keys 0, 1, 2, 9
    assert [pr.graded_quotient_dims(monos[:j], [0, 1, 2, 9], k)[k]
            for j in range(len(monos) + 1)] == [total - j for j in range(len(monos) + 1)]
    binomial = monos[0] - math.prod([X1] * k)  # x0^k − x1^k
    for gens, want in (([X0 - X2, binomial], [k + 1, k]),
                       ([X0, X1 * X2 - X1 * X1], [k + 1, min(k + 1, 2)])):
        assert [pr.graded_quotient_dims(gens[:j], [0, 1, 2], k)[k] for j in (1, 2)] == [
            graded_quotient_dims_oracle(gens[:j], [0, 1, 2], k) for j in (1, 2)] == want


def test_graded_quotient_dims_refuse_repeated_var_keys():
    # counted twice, the key 0 would make 3 of the two variables' 2
    with pytest.raises(ValueError, match="repeats"):
        pr.graded_quotient_dims([], [0, 0, 1], 1)
    assert pr.graded_quotient_dims([], [1, 0], 1)[1] == 2


@contextlib.contextmanager
def recorded_echelons():
    """Collect every :class:`pr.Echelon` that polyring makes meanwhile, each
    counting its ``eliminate`` calls and those that reduced to zero."""
    made = []

    class Recording(pr.Echelon):
        __slots__ = ("calls", "zeros")

        def __init__(self):
            super().__init__()
            self.calls = self.zeros = 0
            made.append(self)

        def eliminate(self, row):
            grew = super().eliminate(row)
            self.calls += 1
            self.zeros += not grew
            return grew

    with unittest.mock.patch.object(pr, "Echelon", Recording):
        yield made


def pivot_rows(echelon):
    """Each pivot of `echelon` as a ``{column: entry}`` row, once its one form
    is checked: ``(offset, terms)``, the terms' columns strictly increasing
    from the pivot's own."""
    rows = {}
    for col, (offset, terms) in echelon.pivots.items():
        cols = [offset + t for t, _ in terms]
        assert cols[0] == col and all(a < b for a, b in itertools.pairwise(cols))
        rows[col] = {offset + t: v for t, v in terms}
    return rows


def check_expanded_pivots(gens, var_keys, k_max):
    """Run :func:`pr.graded_quotient_dims` and compare each degree with the
    oracle; then read every pivot of the :class:`pr.Echelon` of every degree
    and check it: its smallest column is its own, with a positive entry; its
    entries are nonzero ints of content 1; and it lies in the span of all
    the rows of its degree."""
    with recorded_echelons() as made:
        dims = pr.graded_quotient_dims(gens, var_keys, k_max)
    assert dims == [graded_quotient_dims_oracle(gens, var_keys, k)
                    for k in range(k_max + 1)]
    assert len(made) == k_max + 1
    keys = sorted(var_keys)
    monomial_of = pr._Packing(keys, k_max).unpack

    for k, echelon in enumerate(made):
        index = {
            c: i for i, c in enumerate(itertools.combinations_with_replacement(keys, k))
        }
        assert echelon.rank == len(index) - dims[k]
        span = pr.Echelon()
        for g in gens:
            for row in oracle_rows(g, keys, k, index):
                span.eliminate(int_row(row))
        for col, prow in pivot_rows(echelon).items():
            assert min(prow) == col and prow[col] > 0
            assert all(type(v) is int and v for v in prow.values())
            assert math.gcd(*prow.values()) == 1
            assert not span.eliminate({index[monomial_of(c)]: v for c, v in prow.items()})
    return dims


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_by_reference_pivots_expand_to_echelon_rows(data):
    var_keys = data.draw(st.lists(st.integers(0, 40), min_size=2, max_size=4, unique=True))
    # a scale gives a generator content, a negative lead or a denominator
    scales = st.sampled_from([1, 2, -1, -6, Fraction(1, 2), Fraction(-4, 3)])
    gen = st.tuples(st.integers(0, 3).flatmap(lambda d: homogeneous(var_keys, d)),
                    scales).map(lambda gs: gs[0] * gs[1])
    gens = data.draw(st.lists(gen, max_size=6))
    check_expanded_pivots(gens, var_keys, data.draw(st.integers(0, 4)))


@pytest.mark.parametrize("relations, extra, k", [
    ([2 * X0 * X0 + 4 * X0 * X1], [6 * X0 * X1 - 4 * X1 * X1], 2),  # content 2
    ([-X0 + 3 * X1], [X1 - X2, -2 * X0 - 6 * X2], 3),  # negative leads
    ([Fraction(1, 2) * X0 * X1 - Fraction(1, 3) * X2 * X2],
     [Fraction(-2, 3) * X0 + Fraction(5, 6) * X1], 3),  # denominators
    ([X0 * X1], [pr.Poly({pr.ONE: -3})], 2),  # a degree-0 constant
    ([X0 * X1 * X2, X0 * X0], [X0 - X1, X0 * X1 * X2 * X2], 2),  # degrees above k
], ids=["content-2", "negative-lead", "fractions", "constant", "degree-above-k"])
def test_by_reference_pivots_explicit_cases(relations, extra, k):
    check_expanded_pivots(relations + extra, [0, 1, 2], k)


def test_by_reference_pivot_is_normalised_once():
    # −4·x0·x1 − 2·x0² at k = 2 (content 2, negative lead: x0·x1 is the
    # grevlex tip) is one row with a free column: stored as (u, terms), unreduced
    with recorded_echelons() as made:
        assert pr.graded_quotient_dims([-2 * X0 * X0 - 4 * X0 * X1], [0, 1], 2)[2] == 2
    *lower, echelon = made
    assert [e.pivots for e in lower] == [{}, {}]
    pack = pr._Packing([0, 1], 2).pack
    xy, xx = pack((0, 1)), pack((0, 0))
    assert echelon.pivots == {xy: (0, [(xy, 2), (xx, 1)])}
    # a row reaching that column reduces to zero against it, which stays as is
    assert not echelon.eliminate({xx: -3, xy: -6})
    assert echelon.pivots == {xy: (0, [(xy, 2), (xx, 1)])}
    assert pivot_rows(echelon) == {xy: {xy: 2, xx: 1}}


def test_graded_ranks_lead_with_the_reducers_tips():
    # both routes pack monomials one way: the pivot columns of the degree-2
    # quadrics of [(0)@0, (1)@1] are the reducer's packed grevlex tips
    rels, keys, _ = height_forms("(1)@1")
    with recorded_echelons() as made:
        pr.graded_quotient_dims(rels, keys, 2)
    red = pr.reducer(rels)
    red._layout(set(keys), 2)
    assert len(rels) == len(made[2].pivots) == 30
    assert sorted(made[2].pivots) == sorted(red.ptips)


def test_graded_ranks_eliminate_only_colliding_rows():
    # before pivots by reference every row went through eliminate: 16,830
    # calls.  regseq-check builds the rows of the relations and of the
    # relations reduced by the height forms, each once, and no others
    iv = wl.interval(W("(0)@0"), W("(1)@1"))
    with recorded_echelons() as made:
        assert rich.straightened_law_report(iv, 4)["ok"]
    assert sum(e.calls for e in made) == 2319
    assert rows_built(made) == 16830
    rels, keys, ys = height_forms("(1)@0")
    with recorded_echelons() as made:
        assert rich.regular_sequence_check(wl.interval(W("(0)@0"), W("(1)@0")), 4)
    assert sum(e.calls for e in made) == 368
    assert rows_built(made) == 1740
    reduced = [g for g in (pr.reducer(ys)(f) for f in rels) if g]
    assert row_total(rels, len(keys), 4) + row_total(reduced, len(keys) - len(ys), 4) == 1740


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
    # a row scaled by a nonzero int spans the same line; zeros stay in
    rows = [int_row(r) for r in rows]
    assert pr.sparse_rank(rows) == expected
    echelon = pr.Echelon()
    grew = [echelon.eliminate({c: v for c, v in r.items() if v}) for r in rows]
    assert sum(grew) == echelon.rank == expected
    for col, prow in pivot_rows(echelon).items():
        assert min(prow) == col and prow[col] > 0
        assert all(type(v) is int and v for v in prow.values())
        assert math.gcd(*prow.values()) == 1


def test_echelon_divides_out_content_when_a_is_not_1():
    # leading entries 6 (pivot) and 4: a = 3, b = 2; 3·row − 2·pivot has content 2
    n = 10**20
    e = pr.Echelon()
    assert e.eliminate({0: 6, 1: n, 2: 1})
    assert e.eliminate({0: 4, 1: 2 * n + 6, 2: 2})
    assert pivot_rows(e)[1] == {1: 2 * n + 9, 2: 2}
    assert not e.eliminate({1: -(2 * n + 9), 2: -2})


@pytest.mark.parametrize("entry", [0.5, "1/2", Fraction(2, 1)],
                         ids=["float", "str", "fraction"])
def test_echelon_refuses_inexact_entries(entry):
    # sparse_rank takes int rows: a Fraction is refused even when integral
    with pytest.raises(TypeError, match="inexact coefficient"):
        pr.sparse_rank([{0: 1}, {0: entry}])


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
