"""Exact sparse polynomial arithmetic over the affinized weight variables.

The ring is Q[lambda^(a)] with one variable per affinized weight `(tag, level)`.
Internally a variable is identified by its integer position key (see
:func:`spinlaw.weightlattice.apos`), so a monomial is a tuple of
``(key, exponent)`` pairs sorted by key, and a polynomial is a sparse mapping
from monomials to rational coefficients, each held canonically: an ``int``
when it is integral, a ``fractions.Fraction`` otherwise (the rule of
:class:`spinlaw.charseries.LaurentPoly`'s kernel).  The quadrics and Fierz
elements have ±1 coefficients, so their arithmetic stays on ints.  All
arithmetic is exact; no floating point enters anywhere.

Monomial order
--------------
``cmp_monomials`` realizes the graded reverse lexicographic order attached to
the total variable enumeration: higher total degree wins, and ties are broken
by scanning exponents upward from the *bottom* variable — at the first key
where the exponents differ, the monomial with the **smaller** exponent there
is the **larger** monomial.  With this order the leading monomial of each of
the defining quadrics is its pair of incomparable weights.
``monomial_sort_key`` is the same order as a plain tuple key.  Ranks are
integer eliminations (:class:`Echelon`), graded ones over packed monomials.

Text syntax
-----------
Polynomials serialize to a plain-text form accepted back by ``parse_poly``::

    3/2 * l{(12)^0}^2 * l{(23)^0} - l{(13)^1}

Each factor ``l{TAG^LEVEL}`` names a variable (the weight syntax inside the
braces is anything :func:`spinlaw.weightlattice.parse_weight` accepts), with
an optional ``^e`` power outside the braces.

>>> f = lam(("(14)", 0)) * lam(("(23)", 0)) - lam(("(13)", 0)) * lam(("(24)", 0))
>>> format_poly(f)
'l{(14)^0} * l{(23)^0} - l{(13)^0} * l{(24)^0}'
>>> tip(f) == monomial_from_weights([("(14)", 0), ("(23)", 0)])
True
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from fractions import Fraction

from .weightlattice import Weight, apos, parse_weight, weight_from_apos

# A monomial: ((key, exponent), ...) with keys strictly increasing, exponents > 0.
Monomial = tuple[tuple[int, int], ...]

ONE: Monomial = ()


# ------------------------------------------------------------- monomials


def monomial(keys) -> Monomial:
    """Build a monomial from an iterable of variable keys (with repetition).

    >>> monomial([4, 0, 4])
    ((0, 1), (4, 2))
    """
    exps: dict[int, int] = {}
    for k in keys:
        exps[k] = exps.get(k, 0) + 1
    return tuple(sorted(exps.items()))


def monomial_from_weights(ws) -> Monomial:
    """Build a monomial from an iterable of weights (with repetition)."""
    return monomial(apos(w) for w in ws)


def monomial_weights(m: Monomial) -> list[Weight]:
    """The multiset of weights dividing `m`, smallest variable first."""
    out: list[Weight] = []
    for k, e in m:
        out.extend([weight_from_apos(k)] * e)
    return out


def monomial_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    exps = dict(a)
    for k, e in b:
        exps[k] = exps.get(k, 0) + e
    return tuple(sorted(exps.items()))


def monomial_div(b: Monomial, a: Monomial) -> Monomial:
    """The quotient monomial b / a; `a` must divide `b`."""
    exps = dict(b)
    for k, e in a:
        r = exps.get(k, 0) - e
        if r < 0:
            raise ValueError(f"{a!r} does not divide {b!r}")
        if r == 0:
            exps.pop(k, None)
        else:
            exps[k] = r
    return tuple(sorted(exps.items()))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    exps = dict(a)
    for k, e in b:
        exps[k] = max(exps.get(k, 0), e)
    return tuple(sorted(exps.items()))


def cmp_monomials(a: Monomial, b: Monomial) -> int:
    """Three-way comparison in the graded reverse lexicographic order.

    Returns -1, 0 or 1 according to a < b, a == b, a > b.  Higher total
    degree is larger; on equal degrees scan exponents from the smallest
    variable key upward and at the first difference the monomial with the
    smaller exponent is the larger one.

    >>> x, y = monomial([0]), monomial([2])
    >>> cmp_monomials(monomial_mul(x, y), monomial_mul(y, y))
    -1
    """
    da, db = monomial_degree(a), monomial_degree(b)
    if da != db:
        return -1 if da < db else 1
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        ka, ea = a[ia]
        kb, eb = b[ib]
        if ka != kb:
            # the monomial with exponent 0 at the smaller key is larger
            return -1 if ka < kb else 1
        if ea != eb:
            return 1 if ea < eb else -1
        ia += 1
        ib += 1
    if ia == len(a) and ib == len(b):
        return 0
    return 1 if ia == len(a) else -1


# above every key: the monomial that ends first is the larger, as in cmp_monomials
_SENTINEL = math.inf


def monomial_sort_key(m: Monomial) -> tuple:
    """:func:`cmp_monomials`'s order as ``(deg, k1, -e1, k2, -e2, ..., SENTINEL)``."""
    key = []
    deg = 0
    for k, e in m:
        deg += e
        key += (k, -e)
    return (deg, *key, _SENTINEL)


# ------------------------------------------------------------ polynomials


# A coefficient: an int when it is integral, else a Fraction (denominator > 1).
Coeff = int | Fraction


def _canonical(coeffs: dict[Monomial, Coeff]) -> dict[Monomial, Coeff]:
    """`coeffs` without its zeros, each integral Fraction made an int."""
    return {m: c if type(c) is int or c.denominator != 1 else c.numerator
            for m, c in coeffs.items() if c}


class Poly:
    """A sparse polynomial: mapping from monomials to nonzero coefficients.

    A coefficient is an ``int`` when it is integral and a ``Fraction``
    otherwise; the constructors and operators all keep this, so arithmetic
    on integral polynomials runs on ints.

    >>> (Fraction(1, 2) * variable(0) * 2).coeffs
    {((0, 1),): 1}
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        """`coeffs` may hold any values ``Fraction`` accepts."""
        self.coeffs = _canonical(
            {m: c if type(c) is int else Fraction(c) for m, c in (coeffs or {}).items()})

    @classmethod
    def _of(cls, coeffs: dict[Monomial, Coeff]) -> "Poly":
        """Wrap a dict of ints and Fractions, canonical or not."""
        p = cls.__new__(cls)
        p.coeffs = _canonical(coeffs)
        return p

    # -- constructors

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    # -- predicates and views

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def degree(self) -> int:
        """Total degree (-1 for the zero polynomial)."""
        if not self.coeffs:
            return -1
        return max(monomial_degree(m) for m in self.coeffs)

    def is_homogeneous(self) -> bool:
        degs = {monomial_degree(m) for m in self.coeffs}
        return len(degs) <= 1

    def terms_desc(self) -> list[tuple[Monomial, Coeff]]:
        """Terms sorted with the leading monomial first."""
        return sorted(
            self.coeffs.items(), key=lambda t: monomial_sort_key(t[0]), reverse=True
        )

    def __getitem__(self, m: Monomial) -> Coeff:
        return self.coeffs.get(m, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"

    # -- arithmetic

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        acc = dict(self.coeffs)
        for m, c in other.coeffs.items():
            acc[m] = acc[m] + c if m in acc else c
        return Poly._of(acc)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        acc = dict(self.coeffs)
        for m, c in other.coeffs.items():
            acc[m] = acc[m] - c if m in acc else -c
        return Poly._of(acc)

    def __neg__(self) -> "Poly":
        return Poly._of({m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            acc: dict[Monomial, Coeff] = {}
            for ma, ca in self.coeffs.items():
                for mb, cb in other.coeffs.items():
                    m = monomial_mul(ma, mb)
                    acc[m] = acc[m] + ca * cb if m in acc else ca * cb
            return Poly._of(acc)
        if isinstance(other, (int, Fraction)):
            return Poly._of({m: c * other for m, c in self.coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__


def monomial_poly(m: Monomial, c: Coeff = 1) -> Poly:
    return Poly({m: c})


def variable(key: int) -> Poly:
    return Poly._of({((key, 1),): 1})


def lam(w: Weight) -> Poly:
    """The variable attached to a weight.

    >>> format_poly(lam(("(12)", 1)))
    'l{(12)^1}'
    """
    return variable(apos(w))


# ------------------------------------------------------ division algebra


def tip(f: Poly) -> Monomial:
    """Leading monomial of a nonzero polynomial."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no leading monomial")
    return max(f.coeffs, key=monomial_sort_key)


def lc(f: Poly) -> Coeff:
    """Leading coefficient of a nonzero polynomial."""
    return f.coeffs[tip(f)]


def s_polynomial(f: Poly, g: Poly) -> Poly:
    """lc(f) * (T / tip(g)) * g  -  lc(g) * (T / tip(f)) * f,   T = lcm of tips.

    Both products share the leading monomial T (with coefficient
    lc(f) * lc(g)), so the difference cancels it.
    """
    tf, tg = tip(f), tip(g)
    big = monomial_lcm(tf, tg)
    left = monomial_poly(monomial_div(big, tg), lc(f)) * g
    right = monomial_poly(monomial_div(big, tf), lc(g)) * f
    return left - right


def _desc_key(m: Monomial) -> tuple:
    """:func:`monomial_sort_key` negated: the largest monomial sorts first (no
    key is a proper prefix of another, each ends in the sentinel)."""
    return tuple(-x for x in monomial_sort_key(m))


def _reducer(basis):
    """:func:`reduce` by a fixed ordered basis as ``run(f, track)``, with the
    tips, leading coefficients and tails (the other terms) worked out once."""
    basis = list(basis)
    tips = [tip(g) for g in basis]
    lcs = [g.coeffs[t] for g, t in zip(basis, tips)]
    tails = [[(m, c) for m, c in g.coeffs.items() if m != t]
             for g, t in zip(basis, tips)]
    # a tip divides only monomials holding its smallest key; a constant, all
    const = next((i for i, t in enumerate(tips) if not t), None)
    buckets: dict[int, list[tuple[int, Monomial]]] = {}
    for i, t in enumerate(tips):
        if t:
            buckets.setdefault(t[0][0], []).append((i, t))

    def run(f: Poly, track: bool = False):
        r = dict(f.coeffs)
        heap = [(_desc_key(m), m) for m in r]
        heapq.heapify(heap)
        quotients: list[dict] = [{} for _ in basis]
        while heap:
            m = heapq.heappop(heap)[1]
            c = r[m]
            if not c:
                continue  # left as a zero: it is never pushed again
            em, i = dict(m), const  # the first element whose tip divides m
            for k in em:
                for j, t in buckets.get(k, ()):
                    if i is not None and j >= i:
                        break
                    if all(em.get(kt, 0) >= e for kt, e in t):
                        i = j
                        break
            if i is None:
                continue
            del r[m]
            lead = lcs[i]
            exact = type(c) is type(lead) is int and not c % lead
            q = c // lead if exact else Fraction(c, lead)
            qm = monomial_div(m, tips[i])
            for tm, tc in tails[i]:
                mm = monomial_mul(qm, tm)
                if mm not in r:
                    heapq.heappush(heap, (_desc_key(mm), mm))
                r[mm] = r.get(mm, 0) - q * tc
            quotients[i][qm] = q
        rem = Poly._of(r)
        return (rem, [Poly._of(qs) for qs in quotients]) if track else rem

    return run


def reduce(f: Poly, basis, *, track: bool = False):
    """Fully reduce `f` modulo an ordered list of nonzero polynomials.

    At each step the largest monomial of the remainder divisible by some
    leading monomial is rewritten using the first basis element (in list
    order) whose tip divides it.  The result has no monomial divisible by
    any tip.  With ``track=True`` the quotients are returned as well, so
    that ``f == sum(q[i] * basis[i]) + remainder`` exactly.

    The remainder is a dict plus a max-heap of its monomials: pop the
    largest, leave it if no tip divides it, else subtract ``q·tail`` in place
    and push only monomials new to the dict.  A rewrite at ``m`` adds only
    monomials below ``m`` (grevlex is a monomial order), so the largest
    reducible monomial is always the next one popped: the steps are those of
    re-sorting the remainder before each one.
    """
    return _reducer(basis)(f, track)


def buchberger_check(basis) -> dict[tuple[int, int], Poly]:
    """First Buchberger iteration: reduce the S-polynomial of every pair of
    basis elements whose leading monomials share a variable.

    Returns ``{(i, j): remainder}`` over those pairs; the rewriting system
    is confluent at this stage exactly when every remainder is zero.  Pairs
    with coprime leading monomials are skipped (their S-polynomials reduce
    to zero automatically).  One reducer serves every pair, so the tips are
    worked out once; the remainders are those of :func:`reduce`.
    """
    basis = list(basis)
    run = _reducer(basis)
    keys = [{k for k, _ in tip(g)} for g in basis]
    out: dict[tuple[int, int], Poly] = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not keys[i].isdisjoint(keys[j]):
                out[(i, j)] = run(s_polynomial(basis[i], basis[j]))
    return out


# ------------------------------------------------------- graded dimension


class Echelon:
    """Row echelon form over the integers, grown one row at a time.

    :meth:`eliminate` reduces a ``{column: int}`` row, smallest column first,
    by ``row = a·row − b·pivot`` (``a``, ``b`` the leading entries over their
    gcd), dividing out the content when ``a ≠ 1``; what is left becomes a pivot
    with a positive leading entry and content 1.  :meth:`add` first clears denominators.

    >>> e = Echelon()
    >>> [e.add(r) for r in ({0: -2, 1: 4}, {0: Fraction(1, 3), 1: Fraction(-2, 3)},
    ...                     {0: 3, 2: 6})]
    [True, False, True]
    >>> e.pivots == {0: {0: 1, 1: -2}, 1: {1: 1, 2: 1}}, e.rank
    (True, 2)
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row) -> bool:
        """Reduce `row`; True when it is independent of the rows added before."""
        den = math.lcm(*[v.denominator for v in row.values()])
        return self.eliminate(
            {c: v.numerator * (den // v.denominator) for c, v in row.items() if v})

    def eliminate(self, row: dict) -> bool:
        """:meth:`add` for a row of nonzero ints, which it consumes."""
        pivots = self.pivots
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                g = math.gcd(*row.values())
                if row[col] < 0:
                    g = -g
                pivots[col] = row if g == 1 else {c: v // g for c, v in row.items()}
                return True
            a, b = prow[col], row[col]
            g = math.gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                for c in row:
                    row[c] *= a
            # row ← a·row − b·pivot: the entry at `col` cancels, like any other zero
            for c, v in prow.items():
                nv = row.get(c, 0) - b * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
            if a != 1 and row and (g := math.gcd(*row.values())) != 1:
                row = {c: v // g for c, v in row.items()}
        return False


def sparse_rank(rows) -> int:
    """Rank of a sparse matrix given as an iterable of ``{column: int or
    Fraction}`` rows, by fraction-free integer elimination (:class:`Echelon`).
    """
    echelon = Echelon()
    for row in rows:
        echelon.add(row)
    return echelon.rank


def graded_quotient_dims(relations, extra, var_keys, k: int) -> list[int]:
    """Degree-`k` dimensions of Q[vars] / (relations, extra[:j]), j = 0..len(extra).

    `relations` and `extra` must be homogeneous polynomials in the variables
    listed in `var_keys`.  A dimension is ``C(n + k − 1, k)``, the number of
    degree-`k` monomials in ``n`` variables, minus the rank of the ideal's
    degree-`k` slice, spanned by all products u·g, u a monomial of degree
    k − deg g; the rows of `relations`, then of each ``extra[j]``, go into one
    :class:`Echelon`, read after each prefix.  Monomials are packed ints,
    variable ``i`` (in key order) being the field ``1 << (bits·i)``, ``bits =
    max(1, k.bit_length())``: no exponent in degree `k` reaches ``2**bits``,
    so keys cannot alias, and the key of u·m is the sum of theirs.

    >>> x, y = variable(0), variable(1)
    >>> graded_quotient_dims([x * y], [x, y], [0, 1], 2)
    [2, 1, 0]
    """
    keys = sorted(var_keys)
    key_set = set(keys)
    relations, extra = list(relations), list(extra)
    for g in relations + extra:
        if not g.is_homogeneous():
            raise ValueError("relations must be homogeneous")
        used = {kk for m in g.coeffs for kk, _ in m}
        if not used <= key_set:
            raise ValueError("relation uses a variable outside var_keys")
    if k < 0:
        return [0] * (len(extra) + 1)
    bits = max(1, k.bit_length())
    field = {kk: 1 << (bits * i) for i, kk in enumerate(keys)}
    ncols = math.comb(len(keys) + k - 1, k) if keys else int(k == 0)
    multipliers: dict[int, list[int]] = {}  # by degree, packed once per call
    echelon = Echelon()

    def add_rows(g: Poly) -> int:
        d = g.degree()
        if 0 <= d <= k:
            den = math.lcm(*[c.denominator for c in g.coeffs.values()])
            terms = [(sum(field[kk] * e for kk, e in m), c.numerator * (den // c.denominator))
                     for m, c in g.coeffs.items()]
            if k - d not in multipliers:
                cwr = itertools.combinations_with_replacement(field.values(), k - d)
                multipliers[k - d] = [sum(c) for c in cwr]
            for u in multipliers[k - d]:
                echelon.eliminate({u + t: c for t, c in terms})
        return ncols - echelon.rank

    for g in relations:
        add_rows(g)
    return [ncols - echelon.rank] + [add_rows(g) for g in extra]


def graded_quotient_dim(relations, var_keys, k: int) -> int:
    """Dimension of the degree-`k` piece of Q[vars] / (relations): the
    ``extra=[]`` case of :func:`graded_quotient_dims`.

    >>> x, y = variable(0), variable(1)
    >>> [graded_quotient_dim([x * y], [0, 1], k) for k in range(4)]
    [1, 2, 2, 2]
    """
    return graded_quotient_dims(relations, [], var_keys, k)[0]


# ------------------------------------------------------------ text format


_VAR_RE = re.compile(r"^l\{([^{}]+)\}(?:\^(\d+))?$")
_COEFF_RE = re.compile(r"^\d+(?:/\d+)?$")


def format_poly(f: Poly) -> str:
    """Serialize a polynomial; inverse of :func:`parse_poly`.

    >>> format_poly(Poly.zero())
    '0'
    >>> format_poly(3 * lam(("(0)", 0)) * lam(("(0)", 0)) - lam(("(1)", 2)))
    '3 * l{(0)^0}^2 - l{(1)^2}'
    """
    if f.is_zero():
        return "0"
    parts: list[str] = []
    for m, c in f.terms_desc():
        factors: list[str] = []
        if abs(c) != 1 or m == ONE:
            factors.append(str(abs(c)))
        for key, e in m:
            tag, level = weight_from_apos(key)
            v = f"l{{{tag}^{level}}}"
            if e > 1:
                v += f"^{e}"
            factors.append(v)
        term = " * ".join(factors)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append((" + " if c > 0 else " - ") + term)
    return "".join(parts)


def parse_poly(text: str) -> Poly:
    """Parse the textual polynomial syntax emitted by :func:`format_poly`.

    >>> parse_poly("l{(14)^0} * l{(23)^0} - l{(13)^0} * l{(24)^0}") == (
    ...     lam(("(14)", 0)) * lam(("(23)", 0)) - lam(("(13)", 0)) * lam(("(24)", 0)))
    True
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return Poly.zero()
    acc = Poly.zero()
    for chunk in s.replace(" - ", " + -").split(" + "):
        chunk = chunk.strip()
        sign = Fraction(1)
        while chunk.startswith("-"):
            sign = -sign
            chunk = chunk[1:].strip()
        if not chunk:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        exps: dict[int, int] = {}
        for factor in chunk.split(" * "):
            factor = factor.strip()
            if _COEFF_RE.match(factor):
                coeff *= Fraction(factor)
                continue
            mv = _VAR_RE.match(factor)
            if not mv:
                raise ValueError(f"cannot parse factor {factor!r}")
            w = parse_weight(mv.group(1))
            e = int(mv.group(2)) if mv.group(2) else 1
            if e <= 0:
                raise ValueError(f"nonpositive exponent in {factor!r}")
            key = apos(w)
            exps[key] = exps.get(key, 0) + e
        acc = acc + Poly({tuple(sorted(exps.items())): coeff})
    return acc

