"""Character series: exact rational chain series, transfer climb, Delannoy.

The down-set recursion behind `character` is cross-checked against an
independent dynamic-programming oracle (`chain_series_direct`) and against a
test-side transfer-matrix climb, the transfer matrices' zero pattern and
eight-height period against the order, the Delannoy polynomials against a
square-array grid recurrence, and the J-ladder recursions' numerator check
against the series route kept here, with full torus weights.  The packed-key `LaurentPoly` and its
trial division are checked against the tuple-keyed arithmetic kept here as
their oracle, and the line sums that screen `reduced()` against division.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinlaw import charseries as cs
from spinlaw import cli
from spinlaw import weightlattice as wl

W = wl.parse_weight
ONE = cs.LaurentPoly.one()
T = cs.T_M


def tmono(k: int) -> tuple:
    return (0, 0, 0, 0, 0, 0, k)


def tpoly(coeffs: list[int]) -> cs.LaurentPoly:
    return cs.LaurentPoly({tmono(i): Fraction(c) for i, c in enumerate(coeffs)})


# ------------------------------------------------------ tuple-keyed oracle
#
# Laurent polynomials as {exponent tuple: Fraction}, the arithmetic the
# packed kernel replaced, kept as its reference.


class TupleLaurent:
    """Laurent polynomial in (s1..s5, q, t) as ``{Mono: Fraction}``."""

    def __init__(self, coeffs=None):
        self.coeffs = {m: Fraction(c) for m, c in (coeffs or {}).items() if c}

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return TupleLaurent(out)

    def __neg__(self):
        return TupleLaurent({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return TupleLaurent(out)

    def specialized(self, *, s_one=False, q_one=False):
        out = {}
        for m, c in self.coeffs.items():
            m = (*((0,) * 5 if s_one else m[:5]), 0 if q_one else m[5], m[6])
            out[m] = out.get(m, 0) + c
        return TupleLaurent(out)

    def subs_t_qt(self, n):
        return TupleLaurent(
            {(*m[:5], m[5] + n * m[6], m[6]): c for m, c in self.coeffs.items()}
        )

    def sorted_terms(self):
        return sorted(self.coeffs.items())


def tuple_div_one_minus(num: dict, m: tuple) -> dict | None:
    """``num / (1 - x^m)`` by running the t-degree down, or None."""
    k = m[6]
    if k < 1:
        raise ValueError("denominator factor needs positive t-degree")
    by_deg: dict = {}
    for e, c in num.items():
        by_deg.setdefault(e[6], {})[e] = c
    floor = min(by_deg, default=0) + k
    quot: dict = {}
    while by_deg:
        d = max(by_deg)
        bucket = by_deg.pop(d)
        if not bucket:
            continue
        if d < floor:
            return None
        lower = by_deg.setdefault(d - k, {})
        for e, c in bucket.items():
            qe = tuple(x - y for x, y in zip(e, m))
            quot[qe] = quot.get(qe, 0) - c
            lower[qe] = lower.get(qe, 0) + c
            for acc in (quot, lower):
                if not acc[qe]:
                    del acc[qe]
    return quot


def assert_same(p: cs.LaurentPoly, t: TupleLaurent) -> None:
    """The packed polynomial has exactly the oracle's terms, no zeros."""
    assert p.sorted_terms() == t.sorted_terms()
    assert all(type(c) is Fraction for _, c in p.sorted_terms())
    assert p.coeffs == t.coeffs and len(p.coeffs) == len(t.coeffs)
    assert p == cs.LaurentPoly(t.coeffs)


# -------------------------------------------------------- Laurent algebra


def test_laurent_poly_arithmetic():
    p = ONE + cs.LaurentPoly.monomial(T)
    assert p * p == tpoly([1, 2, 1])
    assert (p - p).is_zero()
    assert tpoly([0, 1]).t_degree() == 1
    with pytest.raises(ValueError):
        cs.LaurentPoly.zero().t_degree()
    for unhashable in (p, cs.RationalChar(p, Counter({T: 1}))):
        with pytest.raises(TypeError):
            hash(unhashable)


def test_add_into_takes_only_unit_signs():
    src = (ONE + cs.LaurentPoly.monomial(T, Fraction(1, 2)))._terms
    d = cs._delta(T)
    for sign in (1, -1):
        acc = {cs._ONE_KEY: 3}
        cs._add_into(acc, src, d, sign)
        assert acc == {cs._ONE_KEY: 3, cs._ONE_KEY + d: sign,
                       cs._ONE_KEY + 2 * d: Fraction(sign, 2)}
    acc = dict(src)
    cs._add_into(acc, src, 0, -1)        # cancelled terms stay as zeros
    assert list(acc.values()) == [0, 0]
    for sign in (0, 2, -2):
        acc = {cs._ONE_KEY: 3}
        with pytest.raises(ValueError, match="sign"):
            cs._add_into(acc, src, d, sign)
        assert acc == {cs._ONE_KEY: 3}


@pytest.mark.parametrize("build", [
    lambda c: cs.LaurentPoly({T: c}),
    lambda c: cs.LaurentPoly.monomial(T, c),
], ids=["init", "monomial"])
def test_laurent_poly_refuses_floats(build):
    # 3/3/7 is the binary fraction 2573485501354569/2^54, not 1/7
    for c in (3 / 3 / 7, 0.0):
        with pytest.raises(TypeError):
            build(c)
    assert build(Fraction(1, 7)).coeffs[T] == Fraction(1, 7)


def test_laurent_poly_specialize_and_shift():
    m = cs.weight_mono(W("(12)@1"))          # s1 s2 s3^-1 s4^-1 s5^-1 q t
    p = cs.LaurentPoly.monomial(m)
    assert p.specialized(s_one=True, q_one=True) == tpoly([0, 1])
    shifted = p.subs_t_qt(2)                  # t -> q^2 t adds 2 to the q slot
    (mono, coeff), = shifted.sorted_terms()
    assert coeff == 1 and mono[5] == m[5] + 2 and mono[:5] == m[:5]


# exponents in -2..2 (t included), coefficients int or Fraction, zeros
# allowed (the constructor drops them)
LAURENT = st.dictionaries(
    st.tuples(*[st.integers(-2, 2)] * 7),
    st.one_of(
        st.integers(-3, 3),
        st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3])),
    ),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(a=LAURENT, extra=LAURENT, cancel=st.lists(st.booleans(), max_size=5),
       n=st.integers(-3, 3),
       m=st.sampled_from([T, (1, 0, 0, 0, 0, 0, 1), (0, -1, 0, 0, 0, 1, 1)]))
def test_packed_matches_tuple_oracle(a, extra, cancel, n, m):
    # b repeats some terms of a with the opposite sign, so a + b cancels them
    b = dict(extra)
    for (e, v), flip in zip(a.items(), cancel):
        if flip:
            b[e] = -v
    pa, pb = cs.LaurentPoly(a), cs.LaurentPoly(b)
    ta, tb = TupleLaurent(a), TupleLaurent(b)
    assert_same(pa, ta)
    assert_same(pa + pb, ta + tb)
    assert_same(pa - pb, ta - tb)
    assert_same(pa - pa, TupleLaurent())
    assert_same(-pa, -ta)
    assert_same(pa * pb, ta * tb)
    for s_one, q_one in product((False, True), repeat=2):
        assert_same(pa.specialized(s_one=s_one, q_one=q_one),
                    ta.specialized(s_one=s_one, q_one=q_one))
    assert_same(pa.subs_t_qt(n), ta.subs_t_qt(n))
    if ta.coeffs:
        assert pa.t_degree() == max(e[6] for e in ta.coeffs)
    assert pa.total() == sum(ta.coeffs.values())
    # trial division by 1 - x^m, of a + b (rarely divisible) and of its
    # multiple; the line sum is zero wherever the division goes through
    factor = TupleLaurent({cs.ONE_M: 1, m: -1})
    for t in (ta + tb, (ta + tb) * factor):
        want = tuple_div_one_minus(t.coeffs, m)
        got = cs._div_one_minus(cs.LaurentPoly(t.coeffs), m)
        assert (got is None) == (want is None)
        if got is not None:
            assert_same(got, TupleLaurent(want))
            assert cs._line_screen(cs.LaurentPoly(t.coeffs))(m) == 0


def test_coeffs_view_is_read_only():
    p = tpoly([1, 0, -2])
    assert p.coeffs == {tmono(0): 1, tmono(2): -2} and len(p.coeffs) == 2
    assert tmono(1) not in p.coeffs and p.coeffs.get((2**31,) * 7) is None
    with pytest.raises(TypeError):
        p.coeffs[tmono(1)] = Fraction(5)
    with pytest.raises(TypeError):
        del p.coeffs[tmono(0)]
    assert p == tpoly([1, 0, -2])


# ------------------------------------------------------------- rendering
#
# The tuple route the renderers replaced: every term unpacked to an exponent
# tuple and a Fraction, rendered, joined by "+", then "+-" folded to "-".

ORACLE_VARS = {False: ("s1", "s2", "s3", "s4", "s5", "q", "t"),
               True: ("s_1", "s_2", "s_3", "s_4", "s_5", "q", "t")}


def oracle_mono(m, tex):
    parts = []
    for name, e in zip(ORACLE_VARS[tex], m):
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


def oracle_laurent(p, tex):
    if p.is_zero():
        return "0"
    out = []
    for m, c in p.sorted_terms():
        mono = oracle_mono(m, tex)
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


def oracle_denominator(den, tex):
    if not den:
        return "1"
    parts = []
    for m in sorted(den):
        e = den[m]
        base = f"(1-{oracle_mono(m, tex)})"
        if e == 1:
            parts.append(base)
        elif tex:
            parts.append(f"{base}^{{{e}}}")
        else:
            parts.append(f"{base}^{e}")
    return ("" if tex else "*").join(parts)


# exponents of one and two digits, either sign; coefficients ±1, other ints
# and Fractions; zeros allowed, so the polynomial may be zero
RENDER_EXP = st.tuples(*[st.sampled_from([-12, -2, -1, 0, 0, 0, 1, 2, 12])] * 7)
RENDER_COEFF = st.one_of(
    st.sampled_from([1, -1, 0]),
    st.integers(-40, 40),
    st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 2, 3, 10])),
)


@settings(max_examples=300, deadline=None)
@given(num=st.dictionaries(RENDER_EXP, RENDER_COEFF, max_size=8),
       den=st.dictionaries(RENDER_EXP, st.integers(1, 12), max_size=4),
       tex=st.booleans())
@example(num={}, den={}, tex=False)
@example(num={cs.ONE_M: -1}, den={T: 1}, tex=True)
@example(num={cs.ONE_M: Fraction(-1, 2), T: -1, (-1, 0, 0, 0, 0, 0, 0): 1}, den={T: 11},
         tex=False)
def test_renderers_match_tuple_route(num, den, tex):
    p = cs.LaurentPoly(num)
    assert cs.format_laurent(p, tex=tex) == oracle_laurent(p, tex)
    assert cs.format_denominator(den, tex=tex) == oracle_denominator(den, tex)


def test_rational_char_reduce_and_series():
    # (1 - t^2)/(1 - t) reduces to 1 + t
    c = cs.RationalChar(
        cs.LaurentPoly({tmono(0): 1, tmono(2): -1}), Counter({T: 1})
    )
    r = c.reduced()
    assert r.num == tpoly([1, 1]) and not r.den
    geo = cs.RationalChar(ONE, Counter({T: 1}))
    assert geo.series(5) == [ONE] * 6
    assert cs.RationalChar.zero().series(2) == [cs.LaurentPoly.zero()] * 3
    assert geo.series(10) == (geo * cs.RationalChar.one()).series(10)
    with pytest.raises(ValueError):
        geo.series(-1)


@pytest.mark.parametrize("m", [(0, 0, 0, 0, 0, 1, 0), tmono(2)], ids=["t0", "t2"])
def test_rational_char_refuses_nonlinear_factors(m):
    # every factor of a lattice character has t-degree 1
    with pytest.raises(ValueError, match="t-degree 1"):
        cs.RationalChar(ONE, Counter({m: 1}))


def test_rational_char_sum_and_equality():
    # 1/(1-t) + t/(1-t)^2 == 1/(1-t)^2  (cross-multiplied, not series)
    a = cs.RationalChar(ONE, Counter({T: 1}))
    b = cs.RationalChar(cs.LaurentPoly.monomial(T), Counter({T: 2}))
    c = cs.RationalChar(ONE, Counter({T: 2}))
    assert a + b == c
    assert a != c
    assert (c + cs.RationalChar.zero()) == c


def plain_reduced(c: cs.RationalChar) -> cs.RationalChar:
    """Oracle for reduced(): trial-divide by every factor, no screening, in
    the tuple-keyed arithmetic."""
    num, den = dict(c.num.coeffs), Counter(c.den)
    progress = True
    while progress and num:
        progress = False
        for m in sorted(den):
            while den[m] > 0:
                q = tuple_div_one_minus(num, m)
                if q is None:
                    break
                num = q
                den[m] -= 1
                progress = True
            if den[m] == 0:
                del den[m]
    return cs.RationalChar(cs.LaurentPoly(num), den)


# s and q exponents in -1..1; t-exponents may be negative in numerators
SQ_EXP = st.tuples(*[st.integers(-1, 1)] * 6)
# line sums are exact on Fraction coefficients, large denominators included
P = 2**61 - 1
COEFF = st.builds(
    Fraction, st.integers(-3, 3).filter(bool),
    st.sampled_from([1, 1, 1, 2, 3, P, 2 * P]),
)
# a small pool makes repeated factors and colliding terms common
FACTOR = st.one_of(
    st.sampled_from([
        T, (1, 0, 0, 0, 0, 0, 1), (0, -1, 0, 0, 0, 1, 1),
        cs.weight_mono(W("(12)@0")), (0, 0, 0, 0, 0, 1, 1), (-1, 0, 0, 0, 0, 0, 1),
    ]),
    st.builds(lambda sq: (*sq, 1), SQ_EXP),
)


@settings(max_examples=150, deadline=None)
@given(
    base=st.dictionaries(
        st.builds(lambda sq, k: (*sq, k), SQ_EXP, st.integers(-1, 2)),
        COEFF, min_size=1, max_size=4,
    ),
    planted=st.lists(FACTOR, max_size=4),
    extra=st.lists(FACTOR, max_size=3),
)
# the numerator (1 - t)^2 / (2P) has the coefficients 1/(2P), -1/P, 1/(2P):
# its line sums are exact Fractions, and both factors cancel
@example(base={cs.ONE_M: Fraction(1, 2 * P)}, planted=[T, T], extra=[])
def test_reduced_matches_plain_trial_division(base, planted, extra):
    num = cs.LaurentPoly(base)
    for m in planted:
        num = num * (ONE - cs.LaurentPoly.monomial(m))
    # the screen lets every planted factor through to its trial
    line_sum = cs._line_screen(num)
    assert all(line_sum(m) == 0 for m in planted)
    c = cs.RationalChar(num, Counter(planted + extra))
    r = c.reduced()
    want = plain_reduced(c)
    assert r.num == want.num and r.den == want.den
    assert r == c
    rr = r.reduced()
    assert rr.num == r.num and rr.den == r.den


def test_full_character_reduction_pinned():
    # the full character of [(0)@0,(1)@1] comes in lowest terms: one factor
    # per element, and reduced() cancels none of them
    iv = wl.interval(W("(0)@0"), W("(1)@1"))
    c = cs.character(iv)
    assert (len(c.num.coeffs), sum(c.den.values())) == (10518, 32)
    r = c.reduced()
    assert r.num == c.num and r.den == c.den
    assert r.series(3) == cs.chain_series_direct(iv, 3)
    # the screen skips every factor, and one trial division agrees with the
    # tuple oracle that it would fail
    line_sum = cs._line_screen(c.num)
    assert all(line_sum(m) != 0 for m in c.den)
    m = min(c.den)
    assert cs._div_one_minus(c.num, m) is None
    assert tuple_div_one_minus(dict(c.num.coeffs), m) is None


def test_reduced_screen_decides_each_trial(monkeypatch):
    # the screen alone decides: on a full character no factor divides and
    # no trial runs; on a specialized one each trial it lets through cancels
    trials = counting(monkeypatch, "_div_one_minus")
    full = {}
    for x, factors in (("(1)@0", 16), ("(1)@1", 32), ("(15)@1", 20), ("(5)@1", 24)):
        c = full[x] = cs.character(wl.interval(W("(0)@0"), W(x)))
        r = c.reduced()
        assert sum(c.den.values()) == factors and r.num == c.num and r.den == c.den
    assert trials == []
    for q_one, cancelled, left in ((False, 10, 22), (True, 13, 19)):
        trials.clear()
        r = full["(1)@1"].specialized(s_one=True, q_one=q_one).reduced()
        assert len(trials) == cancelled and sum(r.den.values()) == left == 32 - cancelled


def test_reduced_screen_false_pass_runs_the_division(monkeypatch):
    # on [(14)@0,(14)@2] with s=1, after nine cancellations the line sum of
    # 1 - q t is zero on a numerator it does not divide: the division
    # decides, and reduced() keeps the factor
    c = cs.character(wl.interval(W("(14)@0"), W("(14)@2")), specialize={"s": 1})
    div = cs._div_one_minus
    trials = counting(monkeypatch, "_div_one_minus")
    r, want = c.reduced(), plain_reduced(c)
    assert r.num == want.num and r.den == want.den
    m = (0, 0, 0, 0, 0, 1, 1)
    assert [args for args in trials if div(*args) is None] == [trials[-1]]
    num, last = trials[-1]
    assert last == m and cs._line_screen(num)(m) == 0 and r.den[m] == 10


def test_reduced_line_stays_in_the_packed_range():
    # the line from 1 in steps of q^(2^30) t stops after one step, before
    # q^(2^31) t^2 leaves the packed range: nothing is refused
    m = (0, 0, 0, 0, 0, 2**30, 1)
    c = cs.RationalChar(ONE + cs.LaurentPoly.monomial((0, 0, 0, 0, 0, 2**30, 2)),
                        Counter({m: 1}))
    r = c.reduced()
    assert r.num == c.num and r.den == c.den
    # in steps of s1^(-2^30) t, three steps from 1 would borrow across the
    # s1 field onto the key of a term; the line stops after one step, where
    # its sum is 2
    m = (-(2**30), 0, 0, 0, 0, 0, 1)
    alias = (2**30, -1, 0, 0, 0, 0, 3)
    assert cs._pack(alias) == cs._ONE_KEY + 3 * cs._delta(m)
    num = cs.LaurentPoly({cs.ONE_M: 1, (-(2**30), 0, 0, 0, 0, 0, 1): 1, alias: -2})
    assert cs._line_screen(num)(m) == 2
    c = cs.RationalChar(num, Counter({m: 1}))
    r = c.reduced()
    assert r.num == c.num and r.den == c.den
    # on a numerator of one t-degree the line is its lowest key alone, so a
    # factor past the packed range is never packed
    c = cs.RationalChar(ONE, Counter({(2**31, 0, 0, 0, 0, 0, 1): 1}))
    r = c.reduced()
    assert r.num == c.num and r.den == c.den
    # a factor that does divide still needs its quotient's expansion in range
    m = (0, 0, 0, 0, 0, 2**30, 1)
    c = cs.RationalChar(ONE - cs.LaurentPoly.monomial(m), Counter({m: 1}))
    with pytest.raises(ValueError, match="packed range"):
        c.reduced()


def test_rational_char_drops_zero_multiplicities():
    m = cs.weight_mono(W("(12)@0"))
    c = cs.RationalChar(ONE, Counter({T: 0, m: 2}))
    plain = cs.RationalChar(ONE, Counter({m: 2}))
    assert list(c.den.items()) == [(m, 2)] and c == plain
    assert cs.format_denominator(c.den) == cs.format_denominator(plain.den)
    assert "^0" not in cs.format_denominator(c.den)


def test_div_one_minus_below_the_factor_degree():
    # numerators with t-exponents below the factor's t-degree still divide
    c = cs.RationalChar(
        cs.LaurentPoly({tmono(-1): 1, tmono(0): -1}), Counter({T: 1})
    )
    r = c.reduced()                       # (t⁻¹ − 1)/(1 − t) = t⁻¹
    assert r.num == cs.LaurentPoly({tmono(-1): 1}) and not r.den
    # t⁻² − x^m t⁻¹ = t⁻²(1 − x^m) has no term of t-degree 0 or above
    m = (1, 0, 0, 0, 0, 0, 1)
    neg = {tmono(-2): 1, (1, 0, 0, 0, 0, 0, -1): -1}
    assert cs._div_one_minus(cs.LaurentPoly(neg), m) == cs.LaurentPoly({tmono(-2): 1})
    assert tuple_div_one_minus(neg, m) == {tmono(-2): 1}
    assert cs._div_one_minus(cs.LaurentPoly({tmono(-1): 1, tmono(0): -2}), T) is None
    zero = cs.LaurentPoly.zero()
    assert cs._div_one_minus(zero, T) == zero


# ---------------------------------------------------------- packed kernel


def plain_series(c: cs.RationalChar, k: int) -> list[dict]:
    """Oracle for series(): tuple-keyed products with truncated geometric
    series, dropping t-degrees above k after each product (no factor lowers
    the t-degree, so those terms never come back)."""
    low = min([m[6] for m in c.num.coeffs] + [0])
    acc = TupleLaurent(c.num.coeffs)
    for m in c.den.elements():
        geo = TupleLaurent(
            {tuple(i * e for e in m): 1 for i in range((k - low) // m[6] + 1)}
        )
        acc = TupleLaurent(
            {e: v for e, v in (acc * geo).coeffs.items() if e[6] <= k}
        )
    out: list[dict] = [{} for _ in range(k + 1)]
    for e, v in acc.coeffs.items():
        if 0 <= e[6] <= k:
            out[e[6]][(*e[:6], 0)] = v
    return out


def as_dicts(series: list[cs.LaurentPoly]) -> list[dict]:
    """The tuple-keyed ``Fraction`` coefficients of each entry."""
    out = [dict(p.coeffs) for p in series]
    assert all(type(v) is Fraction for d in out for v in d.values())
    return out


# s and q exponents in -2..2, t-exponents in -2..3; coefficients with and
# without denominators
NUM = st.dictionaries(
    st.builds(lambda sq, k: (*sq, k),
              st.tuples(*[st.integers(-2, 2)] * 6), st.integers(-2, 3)),
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from([1, 1, 2, 3])),
    min_size=1, max_size=4,
)


@settings(max_examples=120, deadline=None)
@given(num=NUM, den=st.lists(FACTOR, max_size=5), other=NUM,
       other_den=st.lists(FACTOR, max_size=3), k=st.integers(0, 5))
def test_series_matches_laurent_expansion(num, den, other, other_den, k):
    c = cs.RationalChar(cs.LaurentPoly(num), Counter(den))
    assert as_dicts(c.series(k)) == plain_series(c, k)
    # the truncated product behind the recursion checks, on numerators
    # without negative t-exponents, against the convolution of the series
    a, b = (
        cs.RationalChar(
            cs.LaurentPoly({(*e[:6], e[6] + 2): v for e, v in n.items()}), Counter(f)
        )
        for n, f in ((num, den), (other, other_den))
    )
    acc: list[dict] = [{} for _ in range(k + 1)]
    cs._series_mul_into(acc, a.series(k), b.series(k))
    sa, sb = plain_series(a, k), plain_series(b, k)
    conv = [TupleLaurent() for _ in range(k + 1)]
    for i in range(k + 1):
        for j in range(k + 1 - i):
            conv[i + j] = conv[i + j] + TupleLaurent(sa[i]) * TupleLaurent(sb[j])
    assert [
        {cs._unpack(key): Fraction(c) for key, c in layer.items() if c} for layer in acc
    ] == [p.coeffs for p in conv]


@settings(max_examples=150, deadline=None)
@given(num=LAURENT, factors=st.lists(FACTOR, max_size=4),
       k=st.one_of(st.none(), st.integers(-1, 4)))
@example(num={T: 1}, factors=[], k=None)
@example(num={T: 1, cs.ONE_M: 2}, factors=[], k=0)
def test_times_factors_matches_repeated_products(num, factors, k):
    p = cs.LaurentPoly(num)
    want = p
    for m in factors:
        want = want * cs.LaurentPoly({cs.ONE_M: 1, m: -1})
    cap = None if k is None else (k + 1) << cs._T_SHIFT

    def below_cap(terms: dict) -> dict:
        return terms if cap is None else {key: c for key, c in terms.items() if key < cap}

    terms = below_cap(p._terms)
    got, reach = cs._times_factors(terms, p.reach, factors, cap)
    assert got == below_cap(want._terms) and reach == want.reach
    if not factors:  # the empty multiset is a no-op
        assert got is terms and reach == p.reach
    # the same product is refused once its reach would be 2^31
    added = reach - p.reach
    assert cs._times_factors(terms, 2**31 - 1 - added, factors, cap)[0] == got
    with pytest.raises(ValueError, match="packed range"):
        cs._times_factors(terms, 2**31 - added, factors, cap)


def plain_chain_series(iv: wl.Interval, k: int) -> list[dict]:
    """Oracle for chain_series_direct: the same DP in tuple-keyed arithmetic."""
    wm = {x: TupleLaurent({cs.weight_mono(x, 0): 1}) for x in iv.elements}
    cur, out = dict(wm), [TupleLaurent({cs.ONE_M: 1})]
    for n in range(1, k + 1):
        if n > 1:
            nxt = {}
            for x in iv.elements:
                below = TupleLaurent()
                for y in iv.elements:
                    if wl.leq(y, x):
                        below = below + cur[y]
                nxt[x] = wm[x] * below
            cur = nxt
        total = TupleLaurent()
        for p in cur.values():
            total = total + p
        out.append(total)
    return [p.coeffs for p in out]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_chain_series_matches_laurent_dp(data):
    tags = sorted(wl.COLUMN)
    level = data.draw(st.integers(-3, 3))
    lo = (data.draw(st.sampled_from(tags)), level)
    hi = (data.draw(st.sampled_from(tags)), level + data.draw(st.integers(0, 1)))
    assume(wl.leq(lo, hi) and wl.ht(hi) - wl.ht(lo) <= 8)
    iv = wl.interval(lo, hi)
    k = data.draw(st.integers(0, 5))
    assert as_dicts(cs.chain_series_direct(iv, k)) == plain_chain_series(iv, k)


# k_max 0 and 1 (at 1 the top-only degree is also the first), a one-point
# interval, a lo other than (0) with a level crossing, and a chain
@pytest.mark.parametrize("lo, hi, k", [
    ("(0)@0", "(1)@0", 0),
    ("(0)@0", "(1)@0", 1),
    ("(0)@0", "(1)@0", 2),
    ("(24)@1", "(24)@1", 4),
    ("(3)@0", "(1)@1", 4),
    ("(0)@0", "(15)@0", 5),
])
def test_chain_series_explicit_cases(lo, hi, k):
    iv = wl.interval(W(lo), W(hi))
    layers = cs.chain_series_direct(iv, k)
    assert as_dicts(layers) == plain_chain_series(iv, k)
    # every layer shares the bound k·span on its exponents
    reach = k * cs._span([cs.weight_mono(x) for x in iv.elements])
    assert all(p.reach == reach for p in layers)


def test_level_40000_character_is_the_shifted_level_0_one():
    # the numerator reaches q^320000, past what 16-bit exponent fields hold
    lo, hi, n = W("(0)@0"), W("(1)@0"), 40000
    far = cs.character(wl.interval(wl.shift(lo, n), wl.shift(hi, n)))
    near = cs.character(wl.interval(lo, hi)).subs_t_qt(n)
    assert far.num == near.num and far.den == near.den
    assert max(m[5] for m in far.num.coeffs) == 320000


def test_exponent_range_guard():
    # 2^30 < 2^31 packs; series(2) of 1/(1 - q^(2^30) t) would form q^(2^31)
    big = (0, 0, 0, 0, 0, 2**30, 1)
    geo = cs.RationalChar(ONE, Counter({big: 1}))
    assert geo.series(1) == [ONE, cs.LaurentPoly.monomial((*big[:6], 0))]
    with pytest.raises(ValueError, match="packed range"):
        geo.series(2)
    top = cs.LaurentPoly.monomial((-(2**31 - 1), 0, 0, 0, 0, 2**31 - 1, 0))
    assert cs.RationalChar(top).series(0) == [top]
    with pytest.raises(ValueError, match="packed range"):
        cs.RationalChar(top * cs.LaurentPoly.monomial((0, 0, 0, 0, 0, 1, 0))).series(0)
    # products and shifts refuse before forming a key past the range
    def q(e, t=0):
        return cs.LaurentPoly.monomial((0, 0, 0, 0, 0, e, t))

    assert q(2**30 - 1) * q(2**30) == q(2**31 - 1)
    with pytest.raises(ValueError, match="packed range"):
        q(2**30) * q(2**30)
    assert q(2**31 - 2, 1).subs_t_qt(1) == q(2**31 - 1, 1)
    assert q(-(2**31 - 2), 1).subs_t_qt(-1) == q(-(2**31 - 1), 1)
    with pytest.raises(ValueError, match="packed range"):
        q(2**31 - 2, 1).subs_t_qt(2)
    # the down-set recursion runs wherever its bound passes, 15 steps of
    # q^143000000 t short of 2^31; no product within it refuses
    near = wl.interval(W("(0)@143000000"), W("(1)@143000000"))
    assert cs.character(near, specialize={"s": 1}).num.reach == 15 * 143000000
    # the down-set recursion and the DP refuse before packing, too
    far = wl.interval(W("(0)@200000000"), W("(1)@200000000"))
    with pytest.raises(ValueError, match="packed range"):
        cs.character(far)
    with pytest.raises(ValueError, match="packed range"):
        cs.chain_series_direct(wl.interval(far.lo, far.lo), 11)


# ------------------------------------------------------------- DP oracle


def test_chain_series_direct_examples():
    assert [
        c.total() for c in cs.chain_series_direct(wl.interval(W("(0)@0"), W("(13)@0")), 3)
    ] == [1, 3, 6, 10]
    # single point: multichains on one element
    pt = cs.chain_series_direct(wl.interval(W("(23)@0"), W("(23)@0")), 4)
    assert [c.total() for c in pt] == [1] * 5
    # projective-space interval: binomial coefficients
    p4 = cs.chain_series_direct(wl.interval(W("(0)@0"), W("(15)@0")), 6)
    assert [c.total() for c in p4] == [comb(k + 4, 4) for k in range(7)]
    with pytest.raises(ValueError):
        cs.chain_series_direct(wl.interval(W("(0)@0"), W("(0)@0")), -1)


def test_chain_series_direct_full_interval_dims():
    dims = [
        c.total()
        for c in cs.chain_series_direct(wl.interval(W("(0)@0"), W("(1)@0")), 3)
    ]
    assert dims == [1, 16, 126, 672]


# ------------------------------------------------------- transfer matrices


def test_transfer_matrix_golden_u6():
    u6 = cs.transfer_matrix(6)
    e35 = Counter({cs.weight_mono(W("(35)@0")): 1})
    assert u6[0][0] == cs.RationalChar(ONE, e35)
    assert u6[0][1].is_zero()
    assert u6[1][0] == cs.RationalChar(
        cs.LaurentPoly.monomial(cs.weight_mono(W("(34)@0"))), e35
    )
    assert u6[1][1] == cs.RationalChar.single(W("(5)@0"))


def test_transfer_matrix_pattern_and_periodicity():
    # U_l pairs row ht_pair(l−1)[i] with column ht_pair(l)[j], L_l row
    # ht_pair(l)[i] with column ht_pair(l−1)[j]: an entry is zero exactly
    # when its two elements are incomparable.
    for l in range(-16, 41):
        below, above = wl.ht_pair(l - 1), wl.ht_pair(l)
        for lower in (False, True):
            m = (cs.lower_transfer_matrix if lower else cs.transfer_matrix)(l)
            for i, j in product((0, 1), (0, 1)):
                x, y = (below[j], above[i]) if lower else (below[i], above[j])
                incomparable = not (wl.leq(x, y) or wl.leq(y, x))
                assert m[i][j].is_zero() == incomparable, (l, lower, i, j)
    # eight heights up, every entry has t moved to q·t
    for l in range(-16, 33):
        for f in (cs.transfer_matrix, cs.lower_transfer_matrix):
            hi, lo = f(l + 8), f(l)
            for i, j in product((0, 1), (0, 1)):
                assert hi[i][j] == lo[i][j].subs_t_qt(1), (l, f.__name__, i, j)


def test_lower_matrix_l2_level_shift():
    # entry [1][1] of L2 is e_(1) q^-1 t / (1 - e_(2) q^-1 t): the column
    # element sits one level down, so both monomials carry q^-1.
    l2 = cs.lower_transfer_matrix(2)
    ent = l2[1][1]
    assert ent.num == cs.LaurentPoly.monomial(cs.weight_mono(W("(1)@-1")))
    assert ent.den == Counter({cs.weight_mono(W("(2)@-1")): 1})


# ------------------------------------------------------------- characters


def test_character_closed_form_full_interval():
    c = cs.character(
        wl.interval(W("(0)@0"), W("(1)@0")), specialize={"s": 1, "q": 1}
    )
    assert c == cs.RationalChar(tpoly([1, 5, 5, 1]), Counter({T: 11}))
    assert [p.total() for p in c.series(4)] == [1, 16, 126, 672, 2772]


def test_character_projective_and_quadric():
    b0 = cs.character(wl.interval(W("(0)@0"), W("(15)@0")), specialize={"s": 1})
    assert b0 == cs.RationalChar(ONE, Counter({T: 5}))
    q = cs.character(wl.interval(W("(0)@0"), W("(5)@0")), specialize={"s": 1})
    assert q == cs.RationalChar(
        cs.LaurentPoly({tmono(0): 1, tmono(2): -1}), Counter({T: 8})
    )


def test_character_point_and_cover():
    pt = cs.character(wl.interval(W("(34)@0"), W("(34)@0")))
    assert pt == cs.RationalChar.single(W("(34)@0"))
    cov = cs.character(wl.interval(W("(0)@0"), W("(12)@0")))
    assert cov == cs.RationalChar(
        ONE,
        Counter({cs.weight_mono(W("(0)@0")): 1, cs.weight_mono(W("(12)@0")): 1}),
    )


def test_character_specialize_validation():
    iv = wl.interval(W("(0)@0"), W("(12)@0"))
    with pytest.raises(ValueError):
        cs.character(iv, specialize={"s": 2})
    with pytest.raises(ValueError):
        cs.character(iv, specialize={"x": 1})


SPECIALIZATIONS = [None, {"s": 1}, {"q": 1}, {"s": 1, "q": 1}]


@st.composite
def walk_inputs(draw):
    """A bottom, one to four tops above it (repeats and lo itself allowed,
    join at most 14 heights up), a specialization and a series order."""
    lo = (draw(st.sampled_from(sorted(wl.COLUMN))), 0)
    above = [
        w for w in wl.window_weights((0, 2))
        if wl.leq(lo, w) and wl.ht(w) - wl.ht(lo) <= 11
    ]
    tops = draw(st.lists(st.sampled_from(above), min_size=1, max_size=4))
    hi = tops[0]
    for x in tops[1:]:
        hi = wl.join(hi, x)
    assume(wl.ht(hi) - wl.ht(lo) <= 14)
    return lo, tops, draw(st.sampled_from(SPECIALIZATIONS)), draw(st.integers(0, 4))


ORACLE_INTERVALS = [
    ("(0)@0", "(5)@0", 4),
    ("(0)@0", "(45)@0", 4),
    ("(12)@0", "(1)@0", 4),
    ("(13)@0", "(13)@1", 3),
    ("(23)@0", "(24)@1", 3),
    ("(0)@0", "(15)@1", 3),
    ("(45)@0", "(34)@1", 3),
    ("(5)@0", "(2)@1", 3),
]


@pytest.mark.parametrize("lo,hi,k", ORACLE_INTERVALS)
def test_character_matches_oracle(lo, hi, k):
    iv = wl.interval(W(lo), W(hi))
    assert cs.character(iv).series(k) == cs.chain_series_direct(iv, k)


def climb_character(lo, hi, s_one=False, q_one=False) -> cs.RationalChar:
    """The transfer climb: the row at the first height above lo holds
    1/((1 − e_lo t)(1 − e_y t)) at each cover y of lo, each U_l then extends
    the row by one height, and the answer is read off in hi's column."""
    def single(w):
        return cs.RationalChar.single(w).specialized(s_one=s_one, q_one=q_one)

    h0, h1 = wl.ht(lo), wl.ht(hi)
    row = [
        single(lo) * single(y) if y in wl.covers_up(lo) else cs.RationalChar.zero()
        for y in wl.ht_pair(h0 + 1)
    ]
    for l in range(h0 + 2, h1 + 1):
        u = [
            [c.specialized(s_one=s_one, q_one=q_one) for c in row]
            for row in cs.transfer_matrix(l)
        ]
        row = [row[0] * u[0][j] + row[1] * u[1][j] for j in (0, 1)]
    assert wl.ht_pair(h1)[wl.COLUMN[hi[0]]] == hi
    return row[wl.COLUMN[hi[0]]]


@pytest.mark.parametrize(
    "lo,hi,spec",
    [
        ("(0)@0", "(1)@0", None),
        ("(0)@0", "(15)@1", None),
        ("(0)@0", "(5)@1", None),
        ("(13)@0", "(13)@1", None),
        ("(0)@0", "(1)@1", {"s": 1}),
        ("(0)@0", "(1)@1", {"q": 1}),
    ],
)
def test_character_matches_transfer_climb(lo, hi, spec):
    s_one, q_one = cs._parse_specialize(spec)
    want = climb_character(W(lo), W(hi), s_one, q_one).reduced()
    got = cs.character(wl.interval(W(lo), W(hi)), specialize=spec).reduced()
    assert got.num == want.num and got.den == want.den


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_character_in_lowest_terms(data):
    tags = sorted(wl.COLUMN)
    lo = (data.draw(st.sampled_from(tags)), 0)
    hi = (data.draw(st.sampled_from(tags)), data.draw(st.integers(0, 1)))
    assume(wl.leq(lo, hi) and wl.ht(hi) - wl.ht(lo) <= 12)
    iv = wl.interval(lo, hi)
    c = cs.character(iv)
    r = c.reduced()
    assert r.num == c.num and r.den == c.den
    assert c.den == Counter(cs.weight_mono(x) for x in iv.elements)
    oracle = cs.chain_series_direct(iv, 3)
    pole = cs.pole_order(cs.character(iv, specialize={"s": 1, "q": 1}))
    for spec in ({}, {"s": 1}, {"q": 1}, {"s": 1, "q": 1}):
        flags = {"s_one": "s" in spec, "q_one": "q" in spec}
        c = cs.character(iv, specialize=spec or None)
        assert sum(c.den.values()) == len(iv)  # one factor per element, unreduced
        assert c.series(3) == [p.specialized(**flags) for p in oracle], spec
        # the pole order cli reads off the reduced character it reports
        assert cs.pole_order(c.reduced()) == pole, spec


def test_character_matches_oracle_random():
    import random

    rng = random.Random(20260816)
    tags = sorted(wl.COLUMN)
    window = [(tag, lvl) for lvl in (0, 1) for tag in tags]
    done = 0
    while done < 10:
        lo, hi = rng.choice(window), rng.choice(window)
        if not wl.leq(lo, hi) or wl.ht(hi) - wl.ht(lo) > 12:
            continue
        iv = wl.interval(lo, hi)
        assert cs.character(iv).series(3) == cs.chain_series_direct(iv, 3)
        done += 1


def walk_case(lo: str, tops: list[str], spec, k: int) -> tuple:
    return W(lo), [W(x) for x in tops], spec, k


@settings(max_examples=60, deadline=None)
@given(walk_inputs())
# incomparable tops, whose join is neither of them
@example(walk_case("(0)@0", ["(23)@0", "(14)@0"], None, 3))
# a chain of tops, each read by a later step, and a repeat
@example(walk_case("(0)@0", ["(15)@0", "(45)@0", "(15)@0", "(1)@0"], {"s": 1}, 4))
# the top equal to lo
@example(walk_case("(12)@0", ["(12)@0", "(45)@0"], {"q": 1}, 2))
def test_one_walk_matches_each_interval_character(case):
    lo, tops, spec, k = case
    flags = dict(zip(("s_one", "q_one"), cs._parse_specialize(spec)))
    got = cs.characters(lo, tops, specialize=spec)
    assert list(got) == list(dict.fromkeys(tops))
    series = cs.character_series(lo, tops, k, specialize=spec)
    assert list(series) == list(got)
    for x in tops:
        iv = wl.interval(lo, x)
        want = cs.character(iv, specialize=spec)
        assert got[x].num == want.num and got[x].den == want.den, x
        oracle = [p.specialized(**flags) for p in cs.chain_series_direct(iv, k)]
        assert series[x] == want.series(k) == oracle, x


def test_walk_refuses_bad_tops():
    lo = W("(12)@0")
    with pytest.raises(ValueError, match="no tops"):
        cs.characters(lo, [])
    with pytest.raises(ValueError, match="empty interval"):
        cs.characters(lo, [W("(1)@0"), W("(0)@0")])
    with pytest.raises(ValueError, match="k_max"):
        cs.character_series(lo, [W("(1)@0")], -1)


def test_tail_and_pair_rules():
    for lo, hi in [
        ("(0)@0", "(5)@0"),
        ("(0)@0", "(45)@0"),
        ("(12)@0", "(5)@0"),
        ("(0)@0", "(24)@0"),
        ("(13)@0", "(0)@1"),
        ("(14)@0", "(13)@1"),
    ]:
        iv = wl.interval(W(lo), W(hi))
        top_factor = cs.RationalChar(ONE, Counter({cs.weight_mono(iv.hi): 1}))
        dec = wl.decompose_below(iv)
        if isinstance(dec, wl.Tail):
            rhs = cs.character(wl.interval(iv.lo, dec.below)) * top_factor
        else:
            m = wl.meet(dec.tail, dec.other)
            rhs = (
                cs.character(wl.interval(iv.lo, dec.tail))
                + cs.character(wl.interval(iv.lo, dec.other))
                - cs.character(wl.interval(iv.lo, m))
            ) * top_factor
        assert cs.character(iv).series(8) == rhs.series(8)


def test_shift_covariance_exact():
    base = wl.interval(W("(0)@0"), W("(5)@0"))
    for n in (1, 2):
        moved = wl.interval(
            wl.shift(base.lo, n), wl.shift(base.hi, n)
        )
        assert cs.character(moved) == cs.character(base).subs_t_qt(n)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_shift_covariance_property(data):
    tags = sorted(wl.COLUMN)
    lo = (data.draw(st.sampled_from(tags)), 0)
    hi = (data.draw(st.sampled_from(tags)), data.draw(st.integers(0, 1)))
    assume(wl.leq(lo, hi) and wl.ht(hi) - wl.ht(lo) <= 10)
    n = data.draw(st.integers(1, 2))
    moved = cs.character(wl.interval(wl.shift(lo, n), wl.shift(hi, n)))
    assert moved.series(4) == cs.character(wl.interval(lo, hi)).subs_t_qt(n).series(4)


# ------------------------------------------------------------- recursions


def test_recursion_check_J():
    assert cs.recursion_check_J(1, 5)
    assert cs.recursion_check_J(1, 0)
    with pytest.raises(ValueError):
        cs.recursion_check_J(0, 3)
    with pytest.raises(ValueError):
        cs.recursion_check_J(1, -1)


def test_lower_bound_recursions():
    assert cs.lower_bound_recursions_check(4)
    assert cs.lower_bound_recursions_check(0)
    with pytest.raises(ValueError):
        cs.lower_bound_recursions_check(-1)


def test_recursion_check_J_fails_on_a_wrong_weight(monkeypatch):
    # e_b e_c t² with c = (5) for (4): the right side moves from t² on
    facs, a, b, c, d = cs._J_RECURSIONS["(1)"]
    monkeypatch.setitem(cs._J_RECURSIONS, "(1)", (facs, a, b, ("(5)", 0), d))
    assert not cs.recursion_check_J(1, 3)
    assert cs.recursion_check_J(1, 1)
    # at k_max 0 every side is its constant term 1, which no weight moves
    assert cs.recursion_check_J(1, 0)
    for k in (3, 1, 0):
        assert cs.recursion_check_J(1, k) == recursion_check_J_by_series(1, k)


def test_lower_bound_recursions_fail_on_a_wrong_entry(monkeypatch):
    real = cs._matrix_chars

    def wrong_l3_00(ent: cs.RationalChar) -> None:
        """Replace entry [0][0] of L_3, 1/(1 − e_(13) t), by ``ent``."""
        def patched(l, lower):
            m = real(l, lower)
            if (l, lower) != (3, True):
                return m
            (_, e01), row1 = m
            return ((ent, e01), row1)

        monkeypatch.setattr(cs, "_matrix_chars", patched)

    # 1/(1 − e_(14) t) for 1/(1 − e_(13) t): the right side moves from t on
    wrong_l3_00(cs.RationalChar.single(W("(14)@0")))
    assert not cs.lower_bound_recursions_check(3)
    assert cs.lower_bound_recursions_check(0)
    # a numerator 1 made e_w t removes a constant term, seen at k_max 0
    e0 = cs.LaurentPoly.monomial(cs.weight_mono(W("(0)@0")))
    wrong_l3_00(cs.RationalChar(e0, Counter({cs.weight_mono(W("(13)@0")): 1})))
    assert not cs.lower_bound_recursions_check(0)


def counting(monkeypatch, name: str) -> list:
    """Count the calls of ``cs.<name>`` while the test runs."""
    calls: list = []
    real = getattr(cs, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cs, name, counted)
    return calls


def test_recursion_check_J_builds_each_interval_once(monkeypatch):
    singles = counting(monkeypatch, "character")
    series = counting(monkeypatch, "character_series")
    walks = counting(monkeypatch, "_walk")
    assert cs.recursion_check_J(1, 4)
    # 4 left sides and 8 tails, 8 distinct tops among them: (5)@1 is both;
    # one walk over them, truncated at t^4, and no one-top character or series
    assert singles == [] and series == []
    [(iv, tops, spec, cap)] = walks
    sides = [cs._j_recursion_sides(kind, 1) for kind in cs._J_RECURSIONS]
    want = {w for top, terms in sides for w in (top, *(w for _, w in terms))}
    assert iv.lo == W("(0)@0") and len(tops) == len(set(tops)) == 8 and set(tops) == want
    assert spec is None and cap == 5 << cs._T_SHIFT
    assert cs.recursion_check_J(2, 3)


def test_recursion_check_J_expands_no_series(monkeypatch):
    calls: list = []
    real = cs.RationalChar._layers

    def counted(self, k_max):
        calls.append(k_max)
        return real(self, k_max)

    monkeypatch.setattr(cs.RationalChar, "_layers", counted)
    assert cs.recursion_check_J(1, 4)
    assert calls == []


def recursion_check_J_by_series(r_max: int, k_max: int) -> bool:
    """Oracle for recursion_check_J: both sides of each recursion expanded
    as series to t^k_max, the right side by convolving the series of its
    two products, compared layer by layer."""
    sides = [
        cs._j_recursion_sides(kind, r)
        for r in range(1, r_max + 1)
        for kind in cs._J_RECURSIONS
    ]
    tops = [w for top, terms in sides for w in (top, *(w for _, w in terms))]
    series = cs.character_series(W("(0)@0"), tops, k_max)
    for top, terms in sides:
        rhs: list[dict] = [{} for _ in range(k_max + 1)]
        for coeff, w in terms:
            cs._series_mul_into(rhs, coeff.series(k_max), series[w])
        if [p._terms for p in series[top]] != list(map(cs._pruned, rhs)):
            return False
    return True


@pytest.mark.parametrize("r_max", [1, 2])
def test_recursion_check_J_matches_series_route(r_max):
    for k in range(6):
        assert cs.recursion_check_J(r_max, k) is True
        assert recursion_check_J_by_series(r_max, k) is True
    # the common denominator is not D_δ: each a-term's denominator has one
    # factor that the left side's lacks
    for kind in cs._J_RECURSIONS:
        top, ((c1, a), _) = cs._j_recursion_sides(kind, r_max)
        chars = cs.characters(W("(0)@0"), [top, a])
        assert sum((c1.den + chars[a].den - chars[top].den).values()) == 1


def other_tag(w: tuple) -> tuple:
    """``w`` with another tag at the same relative level."""
    return ("(2)" if w[0] != "(2)" else "(3)", w[1])


MUTANTS = {
    "a": lambda facs, a, b, c, d: (facs, other_tag(a), b, c, d),
    "c": lambda facs, a, b, c, d: (facs, a, b, other_tag(c), d),
    "d": lambda facs, a, b, c, d: (facs, a, b, c, other_tag(d)),
    "factor": lambda facs, a, b, c, d: ((other_tag(facs[0]), *facs[1:]), a, b, c, d),
    "b<->c": lambda facs, a, b, c, d: (facs, a, c, b, d),
}


@pytest.mark.parametrize("part", list(MUTANTS))
@pytest.mark.parametrize("kind", list(cs._J_RECURSIONS))
def test_recursion_check_J_matches_series_route_on_mutants(kind, part, monkeypatch):
    monkeypatch.setitem(cs._J_RECURSIONS, kind, MUTANTS[part](*cs._J_RECURSIONS[kind]))
    verdicts = [cs.recursion_check_J(1, k) for k in range(4)]
    assert verdicts == [recursion_check_J_by_series(1, k) for k in range(4)]
    # e_b e_c is symmetric, so a b/c swap passes; every other change shows
    # by t^2 (a c changed from t^2 on, the rest from t on)
    assert verdicts[0] and verdicts[2] == verdicts[3] == (part == "b<->c")


def test_recursion_check_J_r_3():
    # tops up to (0)@4, far past any full character built here; the walk
    # truncated at t^4 reaches them
    assert cs.recursion_check_J(3, 4)


def test_delannoy_acceptance_walks_once(monkeypatch):
    singles = counting(monkeypatch, "character")
    walks = counting(monkeypatch, "_walk")
    trials = counting(monkeypatch, "_div_one_minus")
    assert cs.delannoy_acceptance(12, 16)
    # the 17 specialized characters along J, r = 0..16, from one untruncated
    # walk, compared cross-multiplied without a reduction
    assert singles == [] and trials == []
    [(iv, tops, spec, cap)] = walks
    assert list(tops) == [cs.j_sequence(r) for r in range(17)]
    # J is not a chain: the walk runs to the join of its members
    assert iv.lo == W("(0)@0") and iv.hi == W("(25)@4") != cs.j_sequence(16)
    assert spec == {"s": 1, "q": 1} and cap is None


def test_delannoy_acceptance_refuses_a_changed_row(monkeypatch):
    real = cs.delannoy

    def changed(n):
        row = real(n)
        return [row[0] + 1, *row[1:]] if n == 3 else row

    monkeypatch.setattr(cs, "delannoy", changed)
    assert not cs.delannoy_acceptance(12, 16)


def test_delannoy_acceptance_refuses_a_changed_generating_function(monkeypatch):
    # B_3 lies past r_max = 1, so only the generating function reads it
    real = cs.characters

    def changed(lo, tops, **kwargs):
        chars = real(lo, tops, **kwargs)
        chars[tops[3]] = chars[tops[3]] + cs.RationalChar.one()
        return chars

    assert cs.delannoy_acceptance(1, 3)
    monkeypatch.setattr(cs, "characters", changed)
    assert not cs.delannoy_acceptance(1, 3)


@pytest.mark.parametrize("spec", ["", "q=1", "s=1,q=1"])
def test_cli_character_walks_once(spec, monkeypatch, tmp_path, capsys):
    walks = counting(monkeypatch, "_walk")
    argv = ["character", "--lo", "(0)@0", "--hi", "(1)@0", "--specialize", spec,
            "--out", str(tmp_path / "c.json")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # the pole order is read off the reported character, not a second walk
    assert len(walks) == 1


def test_lower_bound_recursions_run_each_dp_once(monkeypatch):
    calls = counting(monkeypatch, "chain_series_direct")
    assert cs.lower_bound_recursions_check(4)
    # 16 bottoms under (1)@0 (pairs 0..7), 4 under (1)@1 (pairs 7, 8)
    assert len(calls) == 20
    assert len({(iv.lo, iv.hi) for iv, _ in calls}) == 20


# --------------------------------------------------------------- Delannoy

# Golden coefficient lists D_0 .. D_11.
DELANNOY_GOLDEN = [
    [1],
    [1, 1],
    [1, 3, 1],
    [1, 5, 5, 1],
    [1, 7, 13, 7, 1],
    [1, 9, 25, 25, 9, 1],
    [1, 11, 41, 63, 41, 11, 1],
    [1, 13, 61, 129, 129, 61, 13, 1],
    [1, 15, 85, 231, 321, 231, 85, 15, 1],
    [1, 17, 113, 377, 681, 681, 377, 113, 17, 1],
    [1, 19, 145, 575, 1289, 1683, 1289, 575, 145, 19, 1],
    [1, 21, 181, 833, 2241, 3653, 3653, 2241, 833, 181, 21, 1],
]


def delannoy_grid(a: int, b: int) -> int:
    """Independent square-array oracle: D(i,j) = D(i-1,j)+D(i,j-1)+D(i-1,j-1)."""
    row = [1] * (b + 1)
    for _ in range(a):
        new = [1]
        for j in range(1, b + 1):
            new.append(new[j - 1] + row[j] + row[j - 1])
        row = new
    return row[b]


def test_delannoy_golden_and_grid():
    for n, want in enumerate(DELANNOY_GOLDEN):
        got = cs.delannoy(n)
        assert got == want
        assert got == [delannoy_grid(k, n - k) for k in range(n + 1)]
        assert got == got[::-1]                      # palindromic
    assert cs.delannoy(12)[6] == delannoy_grid(6, 6)  # central Delannoy number
    with pytest.raises(ValueError):
        cs.delannoy(-1)


def test_j_sequence():
    names = [wl.format_weight(cs.j_sequence(r)) for r in range(8)]
    assert names == [
        "(15)@0", "(5)@0", "(0)@1", "(1)@0", "(15)@1", "(5)@1", "(0)@2", "(1)@1",
    ]
    assert all(wl.ht(cs.j_sequence(r)) == 4 + 2 * r for r in range(40))
    with pytest.raises(ValueError):
        cs.j_sequence(-1)


def test_delannoy_acceptance_and_poles():
    assert cs.delannoy_acceptance(4, 8)
    for r in range(6):
        c = cs.character(
            wl.interval(W("(0)@0"), cs.j_sequence(r)),
            specialize={"s": 1, "q": 1},
        )
        assert cs.pole_order(c) == 5 + 2 * r
    with pytest.raises(ValueError):
        cs.pole_order(cs.RationalChar.zero())


def test_b_series_initial_conditions():
    b0 = cs.character(
        wl.interval(W("(0)@0"), cs.j_sequence(0)), specialize={"s": 1, "q": 1}
    )
    assert b0 == cs.RationalChar(ONE, Counter({T: 5}))
    b1 = cs.character(
        wl.interval(W("(0)@0"), cs.j_sequence(1)), specialize={"s": 1, "q": 1}
    )
    assert b1 == cs.RationalChar(tpoly([1, 1]), Counter({T: 7}))


# ---------------------------------------------------------- determinism


def test_report_payload_deterministic():
    def build() -> str:
        c = cs.character(
            wl.interval(W("(0)@0"), W("(1)@0")), specialize={"s": 1, "q": 1}
        )
        payload = {
            "delannoy": [cs.delannoy(n) for n in range(12)],
            "dims": [str(p.total()) for p in c.series(4)],
            "pole_order": cs.pole_order(c),
            "num_terms": [
                [list(m), str(v)] for m, v in c.num.sorted_terms()
            ],
        }
        return json.dumps(payload, sort_keys=True)

    assert build() == build()
