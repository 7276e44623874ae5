"""Exact sparse polynomial arithmetic over the affinized weight variables.

The ring is Q[lambda^(a)] with one variable per affinized weight `(tag, level)`.
Internally a variable is identified by its integer position key (see
:func:`spinlaw.weightlattice.apos`), so a monomial is the sorted tuple of its
variable keys, one entry per factor — the multichain a1 <= ... <= ak of the
standard monomial lambda^(a1)...lambda^(ak) — and a polynomial is a sparse
mapping from monomials to rational coefficients, each held canonically: an
``int`` when it is integral, a ``fractions.Fraction`` otherwise (the rule of
:class:`spinlaw.charseries.LaurentPoly`'s kernel).  The quadrics and Fierz
elements have ±1 coefficients, so their arithmetic stays on ints.  All
arithmetic is exact; no floating point enters anywhere.

Monomial order
--------------
``monomial_sort_key`` realizes the graded reverse lexicographic order attached
to the total variable enumeration: higher total degree wins, and ties are
broken by scanning exponents upward from the *bottom* variable — at the first
key where the exponents differ, the monomial with the **smaller** exponent
there is the **larger** monomial.  With this order the leading monomial of
each of the defining quadrics is its pair of incomparable weights.  The key is
``(len(m), m)``: if two sorted tuples of one length first differ at index i
with a[i] < b[i], then a[i] is the first key where their exponents differ, and
a holds more of it, so a is the smaller monomial.  Ranks are integer
eliminations (:class:`Echelon`); the reducer and the graded ranks share one
packing of monomials into ints whose order is this grevlex (:class:`_Packing`).

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

# A monomial: the variable keys of its factors, in increasing order.
Monomial = tuple[int, ...]

ONE: Monomial = ()


# ------------------------------------------------------------- monomials


def monomial(keys) -> Monomial:
    """Build a monomial from an iterable of variable keys (with repetition).

    >>> monomial([4, 0, 4])
    (0, 4, 4)
    """
    return tuple(sorted(keys))


def monomial_from_weights(ws) -> Monomial:
    """Build a monomial from an iterable of weights (with repetition)."""
    return monomial(apos(w) for w in ws)


def monomial_weights(m: Monomial) -> list[Weight]:
    """The multiset of weights dividing `m`, smallest variable first."""
    return [weight_from_apos(k) for k in m]


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(sorted(a + b))


def monomial_div(b: Monomial, a: Monomial) -> Monomial:
    """The quotient monomial b / a; `a` must divide `b`."""
    rest = list(b)
    for k in a:
        if k not in rest:
            raise ValueError(f"{a!r} does not divide {b!r}")
        rest.remove(k)
    return tuple(rest)


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    """a times the factors of `b` that `a` lacks."""
    rest = list(b)
    for k in a:
        if k in rest:
            rest.remove(k)
    return tuple(sorted([*a, *rest]))


def monomial_sort_key(m: Monomial) -> tuple:
    """The graded reverse lexicographic order as a plain tuple key.

    >>> x, y = monomial([0]), monomial([2])
    >>> monomial_sort_key(monomial_mul(x, y)) < monomial_sort_key(monomial_mul(y, y))
    True
    """
    return (len(m), m)


# ------------------------------------------------------------ polynomials


# A coefficient: an int when it is integral, else a Fraction (denominator > 1).
Coeff = int | Fraction


def _exact(c) -> Fraction:
    """``Fraction(c)``, refusing a float: it would keep a binary rounding."""
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}")
    return Fraction(c)


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
    {(0,): 1}
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        """`coeffs` may hold any values ``Fraction`` accepts but floats."""
        self.coeffs = _canonical(
            {m: c if type(c) is int else _exact(c) for m, c in (coeffs or {}).items()})

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
        return max(map(len, self.coeffs))

    def is_homogeneous(self) -> bool:
        return len(set(map(len, self.coeffs))) <= 1

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
    return Poly._of({(key,): 1})


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


class _Packing:
    """Monomials in fixed variables as ints, one exponent field per variable;
    the one layout of :func:`reducer` and :func:`graded_quotient_dims`.

    Variable ``keys[i]`` (sorted, ``n`` of them) owns the field of ``bits``
    bits at ``bits·(n − 1 − i)``, so the smallest key is the most
    significant, and the bits above all fields hold minus the degree.  An
    ascending sort of the ints is then grevlex descending: a higher degree
    is a smaller int, and within one degree the first key where exponents
    differ is the most significant field that differs, the smaller exponent
    there being the larger monomial.  A product is the sum of the ints and
    a quotient their difference.  ``bits`` leaves a guard bit above every
    exponent up to ``degree``, so with ``guard`` the sum of those bits a
    monomial ``t`` divides ``m`` exactly when ``((m | guard) − t) & guard``
    is ``guard``: no field borrows from the next (the packed exponent
    vectors of Monagan & Pearce, "Polynomial division using dynamic arrays,
    heaps, and packed exponent vectors", CASC 2007).

    >>> pk = _Packing([0, 2], 3)
    >>> [pk.unpack(p) for p in sorted(map(pk.pack, [(0, 2), (2, 2), (0, 0), (0,)]))]
    [(2, 2), (0, 2), (0, 0), (0,)]
    """

    __slots__ = ("keys", "degree", "top", "guard", "one", "fields", "rest")

    def __init__(self, keys, degree: int):
        self.keys = frozenset(keys)
        self.degree = degree
        bits = degree.bit_length() + 1
        n = len(self.keys)
        self.top = bits * n
        shifts = {k: bits * (n - 1 - i) for i, k in enumerate(sorted(self.keys))}
        self.one = {k: 1 << s for k, s in shifts.items()}
        self.guard = sum(one << (bits - 1) for one in self.one.values())
        # by bit length b: the key and shift of the field holding bit b − 1,
        # and the mask of the fields below it
        self.fields = [None] * (self.top + 1)
        self.rest = [0] * (self.top + 1)
        for k, s in shifts.items():
            self.fields[s + 1:s + bits + 1] = [(k, s)] * bits
            self.rest[s + 1:s + bits + 1] = [(1 << s) - 1] * bits

    def pack(self, m: Monomial) -> int:
        one = self.one
        return sum([one[k] for k in m]) - (len(m) << self.top)

    def unpack(self, p: int) -> Monomial:
        fields = self.fields
        low = p & ((1 << self.top) - 1)
        out: list[int] = []
        while low:
            k, s = fields[low.bit_length()]
            e = low >> s
            out += [k] * e
            low -= e << s
        return tuple(out)


class _Reducer:
    """:func:`reducer`'s run by a fixed ordered basis: the tips and leading
    coefficients once, the basis packed once per packing."""

    __slots__ = ("basis", "tips", "lcs", "const", "packing", "ptips", "tails",
                 "buckets")

    def __init__(self, basis):
        self.basis = list(basis)
        self.tips = [tip(g) for g in self.basis]
        self.lcs = [g.coeffs[t] for g, t in zip(self.basis, self.tips)]
        # a constant tip divides every monomial; n stands for "no element"
        self.const = next((i for i, t in enumerate(self.tips) if not t), len(self.basis))
        self.packing = None

    def _layout(self, keys, degree: int) -> _Packing:
        """The packing, grown to cover `keys` and `degree` with the basis's
        own, and the basis packed into it: its tips and tails (the other
        terms), and the tips bucketed by bit length over their smallest
        key's field."""
        pk = self.packing
        if pk is not None:
            if degree <= pk.degree and pk.keys >= keys:
                return pk
            keys, degree = pk.keys | keys, max(degree, pk.degree)
        basis = self.basis
        keys = set(keys).union(*[k for g in basis for k in g.coeffs])
        degree = max(degree, *[g.degree() for g in basis], 0)
        self.packing = pk = _Packing(keys, degree)
        pack = pk.pack
        self.ptips = [pack(t) for t in self.tips]
        self.tails = [[(pack(m), c) for m, c in g.coeffs.items() if m != t]
                      for g, t in zip(basis, self.tips)]
        # a tip divides only monomials holding its smallest key
        self.buckets = [()] * (pk.top + 1)
        by_key: dict[int, list[tuple[int, int]]] = {}
        for i, t in enumerate(self.tips):
            if t:
                by_key.setdefault(t[0], []).append((i, self.ptips[i]))
        for b, field in enumerate(pk.fields):
            if field is not None and field[0] in by_key:
                self.buckets[b] = by_key[field[0]]
        return pk

    def _run(self, r: dict, quotients: list | None = None) -> dict:
        """Reduce the packed remainder `r` in place; each rewrite at ``m``
        by element ``i`` records ``quotients[i][m − tip] = q`` if asked."""
        pk = self.packing
        mask, guard, rest, buckets = (1 << pk.top) - 1, pk.guard, pk.rest, self.buckets
        ptips, lcs, tails, const = self.ptips, self.lcs, self.tails, self.const
        none = len(lcs)
        heap = list(r)
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            m = pop(heap)
            c = r[m]
            if not c:
                continue  # left as a zero: it is never pushed again
            i = const  # the first element whose tip divides m
            mg = m | guard
            low = m & mask
            while low:  # over the fields of m, most significant first
                b = low.bit_length()
                for j, t in buckets[b]:
                    if j >= i:
                        break
                    if (mg - t) & guard == guard:
                        i = j
                        break
                low &= rest[b]
            if i == none:
                continue
            del r[m]
            lead = lcs[i]
            exact = type(c) is type(lead) is int and not c % lead
            q = c // lead if exact else Fraction(c, lead)
            qm = m - ptips[i]
            for tm, tc in tails[i]:
                mm = qm + tm
                if mm in r:
                    r[mm] -= q * tc
                else:
                    r[mm] = -q * tc
                    push(heap, mm)
            if quotients is not None:
                quotients[i][qm] = q
        return r

    def _poly(self, r: dict) -> Poly:
        unpack = self.packing.unpack
        return Poly._of({unpack(m): c for m, c in r.items() if c})

    def __call__(self, f: Poly, track: bool = False):
        self._layout({k for m in f.coeffs for k in m}, f.degree())
        pack = self.packing.pack
        r = {pack(m): c for m, c in f.coeffs.items()}
        quotients = [{} for _ in self.basis] if track else None
        rem = self._poly(self._run(r, quotients))
        return (rem, [self._poly(qs) for qs in quotients]) if track else rem


def reducer(basis):
    """Full reduction by an ordered list of nonzero polynomials, as
    ``run(f, track=False)``.

    At each step the largest monomial of the remainder divisible by some
    leading monomial is rewritten using the first basis element (in list
    order) whose tip divides it.  The result has no monomial divisible by
    any tip.  With ``track=True`` the quotients are returned as well, so
    that ``f == sum(q[i] * basis[i]) + remainder`` exactly.

    The remainder is a dict plus a heap of its packed monomials, the
    smallest int (the largest monomial) on top: pop it, leave it if no tip
    divides it, else subtract ``q·tail`` in place and push only monomials
    new to the dict.  A rewrite at ``m`` adds only monomials below ``m``
    (grevlex is a monomial order), so the largest reducible monomial is
    always the next one popped: the steps are those of re-sorting the
    remainder before each one.

    Monomials run as packed ints (:class:`_Packing`) over the variables of
    the basis and of the inputs seen so far, up to the largest degree among
    them: the basis is packed once, each input once per run, and an input
    with a variable or a degree the packing lacks widens it and packs the
    basis again, so no key or degree is refused.
    """
    return _Reducer(basis)


def buchberger_check(basis) -> dict[tuple[int, int], Poly]:
    """First Buchberger iteration: reduce the S-polynomial of every pair of
    basis elements whose leading monomials share a variable.

    Returns ``{(i, j): remainder}`` over those pairs; the rewriting system
    is confluent at this stage exactly when every remainder is zero.  Pairs
    with coprime leading monomials are skipped (their S-polynomials reduce
    to zero automatically).  One :func:`reducer` serves every pair, packed
    up to the largest degree of an lcm of tips, and each S-polynomial
    (:func:`s_polynomial`) is built on the packed tails, as its two tip
    terms cancel; the remainders are those of ``reducer(basis)``.
    """
    red = reducer(basis)
    tips = red.tips
    keys = [set(t) for t in tips]
    pairs = {(i, j): monomial_lcm(tips[i], tips[j])
             for i in range(len(tips)) for j in range(i + 1, len(tips))
             if not keys[i].isdisjoint(keys[j])}
    pk = red._layout(frozenset(), max(map(len, pairs.values()), default=0))
    tails, ptips, lcs = red.tails, red.ptips, red.lcs
    out: dict[tuple[int, int], Poly] = {}
    for (i, j), big in pairs.items():
        t = pk.pack(big)
        # lc(f)·(T / tip(g))·g − lc(g)·(T / tip(f))·f, less lc(f)·lc(g)·T twice
        u, cf = t - ptips[j], lcs[i]
        s = {u + m: cf * c for m, c in tails[j]}
        u, cg = t - ptips[i], lcs[j]
        for m, c in tails[i]:
            m += u
            s[m] = s[m] - cg * c if m in s else -cg * c
        out[(i, j)] = red._poly(red._run(_canonical(s)))
    return out


# ------------------------------------------------------- graded dimension


def _primitive(terms: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Nonzero int `terms` sorted by column, divided by their content and
    with the first entry made positive: the one form of a pivot's terms."""
    g = math.gcd(*[v for _, v in terms])
    if terms[0][1] < 0:
        g = -g
    return terms if g == 1 else [(c, v // g) for c, v in terms]


class Echelon:
    """Row echelon form over the integers, grown one row at a time.

    :meth:`eliminate` reduces a ``{column: int}`` row, smallest column first,
    by ``row = a·row − b·pivot`` (``a``, ``b`` the leading entries over their
    gcd), dividing out the content when ``a ≠ 1``; what is left becomes a pivot
    with a positive leading entry and content 1.  It is the one way a row
    enters, so a row holds ints: :func:`graded_quotient_dims` clears each
    generator's denominators once, and :func:`sparse_rank` takes int rows.

    A pivot has one form, ``(offset, terms)``: the row ``{offset + c: v for
    c, v in terms}``, with ``terms`` sorted by column, so the first is the
    lead, at the pivot's own column.  Its entries are nonzero ints of
    content 1 and its lead is positive (:func:`_primitive`).  :meth:`eliminate`
    stores the row it ends with as ``(0, terms)``; :func:`graded_quotient_dims`
    stores a row ``u·g`` whose leading column is free as ``(u, terms of g)``.

    >>> e = Echelon()
    >>> [e.eliminate(r) for r in ({0: -2, 1: 4}, {0: 1, 1: -2}, {0: 3, 2: 6})]
    [True, False, True]
    >>> e.pivots == {0: (0, [(0, 1), (1, -2)]), 1: (0, [(1, 1), (2, 1)])}, e.rank
    (True, 2)
    >>> e.pivots[5] = (4, [(1, 1), (3, -1)])  # the row {5: 1, 7: -1}
    >>> e.eliminate({5: -2, 6: 4, 7: 2}), e.pivots[6], e.rank
    (True, (0, [(6, 1)]), 4)
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, tuple[int, list[tuple[int, int]]]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def eliminate(self, row: dict) -> bool:
        """Reduce a row of nonzero ints, which it consumes; True when it is
        independent of the rows before it."""
        pivots = self.pivots
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                pivots[col] = (0, _primitive(sorted(row.items())))
                return True
            offset, terms = prow
            a, b = terms[0][1], row[col]
            g = math.gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                for c in row:
                    row[c] *= a
            # row ← a·row − b·pivot: the entry at `col` cancels, like any other zero
            for t, v in terms:
                c = offset + t
                nv = row.get(c, 0) - b * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
            if a != 1 and row and (g := math.gcd(*row.values())) != 1:
                row = {c: v // g for c, v in row.items()}
        return False


def sparse_rank(rows) -> int:
    """Rank of a sparse matrix given as an iterable of ``{column: int}`` rows,
    by fraction-free integer elimination (:class:`Echelon`); zero entries are
    dropped, and any entry but an int, a ``Fraction`` too, raises TypeError.
    """
    echelon = Echelon()
    for row in rows:
        for v in row.values():
            if not isinstance(v, int):
                raise TypeError(f"inexact coefficient {v!r}")
        echelon.eliminate({c: v for c, v in row.items() if v})
    return echelon.rank


def graded_quotient_dims(relations, var_keys, k_max: int) -> list[int]:
    """``dims[k]``: the degree-`k` dimension of Q[vars] / (relations), for
    k = 0..k_max.

    `relations` must be homogeneous polynomials in the variables listed in
    `var_keys`, which must not repeat.  A dimension is ``C(n + k − 1, k)``,
    the number of degree-`k` monomials in ``n`` variables, minus the rank of
    the ideal's degree-`k` slice, spanned by all products u·g, u a monomial
    of degree k − deg g; each degree has one :class:`Echelon`.

    Monomials are the reducer's packed ints, ``_Packing(var_keys,
    k_max).pack``, so a column is the int of a monomial of degree ≤ `k_max`
    and the column of u·m is the sum of theirs.  Each generator's terms are
    packed, sorted, cleared of denominators and made primitive
    (:func:`_primitive`) once.  The packing's int order is grevlex, so the
    leading column of u·g is ``u + t₀``, ``t₀`` the smallest term key: the
    packed ``u·tip(g)``, the reducer's leading monomial.  A degree's
    rows go in two passes: each u·g whose leading column has no pivot yet
    becomes the pivot ``(u, terms)`` as it is, then only the rows that
    collided go through :meth:`Echelon.eliminate`.  Rows with distinct free
    leading columns are triangular, hence independent, and the rank does not
    depend on the order of the rows.

    >>> x, y = variable(0), variable(1)
    >>> graded_quotient_dims([x * y], [0, 1], 3)
    [1, 2, 2, 2]
    """
    keys = sorted(var_keys)
    key_set = set(keys)
    if len(key_set) != len(keys):
        raise ValueError("var_keys repeats a variable")
    relations = list(relations)
    for g in relations:
        if not g.is_homogeneous():
            raise ValueError("relations must be homogeneous")
        if not key_set.issuperset(itertools.chain.from_iterable(g.coeffs)):
            raise ValueError("relation uses a variable outside var_keys")
    if k_max < 0:
        return []
    pack = _Packing(keys, k_max).pack

    def packed(g):
        den = math.lcm(*[c.denominator for c in g.coeffs.values()])
        return g.degree(), _primitive(sorted(
            (pack(m), c.numerator * (den // c.denominator)) for m, c in g.coeffs.items()))

    gens = [packed(g) for g in relations if 0 <= g.degree() <= k_max]
    multipliers: dict[int, list[int]] = {}  # by degree, packed once per call
    dims = []
    for k in range(k_max + 1):
        echelon = Echelon()
        pivots = echelon.pivots
        collided = []
        for d, terms in gens:
            if d > k:
                continue
            if k - d not in multipliers:
                cwr = itertools.combinations_with_replacement(keys, k - d)
                multipliers[k - d] = [pack(u) for u in cwr]
            t0 = terms[0][0]
            for u in multipliers[k - d]:
                if u + t0 in pivots:
                    collided.append((u, terms))
                else:
                    pivots[u + t0] = (u, terms)
        for u, terms in collided:
            echelon.eliminate({u + t: c for t, c in terms})
        ncols = math.comb(len(keys) + k - 1, k) if keys else int(k == 0)
        dims.append(ncols - echelon.rank)
    return dims


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
        for key, run in itertools.groupby(m):
            tag, level = weight_from_apos(key)
            e = len(list(run))
            factors.append(f"l{{{tag}^{level}}}" + (f"^{e}" if e > 1 else ""))
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
    acc: dict[Monomial, Fraction] = {}
    for chunk in s.replace(" - ", " + -").split(" + "):
        chunk = chunk.strip()
        sign = Fraction(1)
        while chunk.startswith("-"):
            sign = -sign
            chunk = chunk[1:].strip()
        if not chunk:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        keys: list[int] = []
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
            keys += [apos(w)] * e
        m = monomial(keys)
        acc[m] = acc.get(m, 0) + coeff
    return Poly._of(acc)

