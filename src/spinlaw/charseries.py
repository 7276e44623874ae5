"""Torus-equivariant chain series of intervals in the affinized weight poset.

For a closed interval ``[δ, δ′]`` of the affinized poset ``Ê``, the graded
algebra attached to the interval has a monomial basis indexed by multichains
(weakly increasing chains), so its Poincaré series in a grading variable
``t``, refined by the torus character ``e_α·q^level`` of each chain member,
is the weighted chain-counting series

    C([δ, δ′])(t)  =  Σ_k   Σ_{α₁ ≤ … ≤ α_k}  e_{α₁} ⋯ e_{α_k} · t^k .

Characters live in the half-step variables ``s₁..s₅`` (``s_i² = z_i``), the
loop variable ``q``, and ``t``; a weight contributes the Laurent monomial
with exponent vector :func:`spinlaw.weightlattice.torus_weight`.

The module computes the series several independent ways and cross-checks
them:

* :func:`chain_series_direct` — dynamic programming over the down-set sums
  of the interval's elements (the lattice's zeta transform), each built
  once, the oracle every other route is compared against;
* :func:`characters` — exact rational closed forms, built by
  inclusion–exclusion over the down-sets ``[lo, x]`` of the distributive
  lattice (Hibi; Stanley's P-partitions).  The numerator for ``[lo, x]``
  depends on ``[lo, x]`` alone, so one walk from ``lo`` gives the character
  of every requested top; :func:`character` is its one-top call.
  :func:`character_series` runs the same walk truncated at ``t^k_max``,
  which is exact: each step multiplies by ``1 − e t`` or ``e t``, neither of
  negative ``t``-degree;
* :func:`transfer_matrix` — the 2×2 transfer matrices, one per height (the
  poset has exactly two elements per height), each built from the height
  pairs by a ladder rule of four shapes.  Climbing the height ladder with
  them gives the character again; the test suite checks that it does;
* :func:`lower_transfer_matrix` — a companion system relating the characters
  ``A_x^δ̂`` of intervals with a *fixed top* as the bottom ``x`` walks down
  the height pairs (:func:`lower_bound_recursions_check`);
* :func:`recursion_check_J` — four three-term recursions along the
  distinguished sequence ``J = {(15), (5), (0)¹, (1), (15)¹, …}``
  (:func:`j_sequence`), on the series of one truncated walk.

Specializing all ``s_i`` and ``q`` to 1 collapses ``C`` to the ordinary
Hilbert series.  Along ``J`` the specialized series are

    B_r(t) = D_r(t) / (1−t)^{5+2r},

with ``D_r`` the Delannoy polynomials (:func:`delannoy`, row polynomials of
the Delannoy square array), satisfying

    B_r = (1+t)/(1−t)² · B_{r−1} + t/(1−t)⁴ · B_{r−2},
    Σ_r B_r(t) s^r = 1 / ((1−t)·((1−t)⁴ − s(1−t)²(1+t) − t·s²)) ;

:func:`delannoy_acceptance` verifies both statements from the characters
of one walk, as exact identities of rational functions.

Rational characters are kept with *factored* denominators: a
:class:`RationalChar` is a Laurent-polynomial numerator over a multiset of
factors ``(1 − x^m)`` with ``m`` a monomial of ``t``-degree 1, as the
lattice's elements give them.  Sums expand only the factors missing from the
least common denominator, equality is decided by the cross-multiplied
numerator identity (exact, zero tolerance), and :meth:`RationalChar.series`
provides truncated expansions for oracle comparisons.

A truncated series has one format: a list of ``t``-free :class:`LaurentPoly`
layers, entry ``k`` the coefficient of ``t^k``, as
:meth:`RationalChar.series` and :func:`chain_series_direct` return it.  The
recursion checks multiply such lists layer by layer and compare them layer
by layer; no expansion is keyed by ``t``.

All arithmetic runs on dicts keyed by one int per monomial: seven 32-bit
fields, ``s₁..s₅, q`` biased by 2³¹ and ``t`` signed on top.  A monomial
product is one int addition, truncation at ``t^k`` one comparison, setting
the ``s_i`` or ``q`` to 1 one mask, and coefficients stay ``int`` where the
input is integral.  A :class:`LaurentPoly` holds one such dict, so the
down-set recursion, ``series()``, the DP oracle, ``reduced()`` and equality
all work on keys.  The module renders its own characters:
:func:`format_laurent` unpacks each key once and prints the kernel's
coefficient; the ``Fraction``-valued views ``coeffs`` and ``sorted_terms()``
are for callers outside it.  Keys cannot alias while every exponent formed
has ``|e| < 2³¹``: each entry point, product and shift bounds its exponents
first and raises ValueError past that.  Denominator factors stay exponent
tuples.  The tuple-keyed arithmetic the kernel replaced serves the tests as
its reference.
"""

from __future__ import annotations

import struct
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from operator import itemgetter

from .weightlattice import (
    Interval,
    Tail,
    Weight,
    chain_length,
    decompose_below,
    format_weight,
    ht,
    ht_pair,
    interval,
    join,
    leq,
    meet,
    torus_weight,
)

# ---------------------------------------------------------------- monomials
#
# A monomial is the exponent vector of  s₁^{a₁} ⋯ s₅^{a₅} q^r t^j.

Mono = tuple[int, int, int, int, int, int, int]

ONE_M: Mono = (0, 0, 0, 0, 0, 0, 0)
T_M: Mono = (0, 0, 0, 0, 0, 0, 1)


def weight_mono(w: Weight, t_exp: int = 1) -> Mono:
    """Exponent vector of ``e_w · t^t_exp`` (the loop exponent is the level).

    >>> weight_mono(("(0)", 0))
    (-1, -1, -1, -1, -1, 0, 1)
    >>> weight_mono(("(12)", 2), 0)
    (1, 1, -1, -1, -1, 2, 0)
    """
    return (*torus_weight(w), t_exp)


def _mono_spec(m: Mono, s_one: bool, q_one: bool) -> Mono:
    if s_one:
        m = (0, 0, 0, 0, 0, m[5], m[6])
    if q_one:
        m = (*m[:5], 0, m[6])
    return m


# ------------------------------------------------------------ packed kernel
#
# See the module docstring.  Multiplying by x^m adds _delta(m) to a key, and
# "t-degree ≤ k" is "key < (k + 1) << _T_SHIFT".

_FIELDS = struct.Struct("<7i")
_Q_SHIFT = 5 * 32
_T_SHIFT = 6 * 32
_ONE_KEY = sum(1 << (32 * i + 31) for i in range(6))  # the key of 1
_SQ_FIELDS = (1 << _T_SHIFT) - 1  # the bits of s₁..s₅, q in a key
_S_FIELDS = (1 << _Q_SHIFT) - 1  # the bits of s₁..s₅
_Q_FIELD = _SQ_FIELDS ^ _S_FIELDS  # the bits of q


def _check_reach(reach: int) -> None:
    """Refuse a computation whose exponents may leave the packed fields.

    ``reach`` bounds ``|e|`` over every exponent, ``t`` included, of every
    monomial the computation forms.  Keys cannot alias while
    ``reach < 2³¹``, so at or past that bound ValueError is raised.
    """
    if reach >= 1 << 31:
        raise ValueError(f"exponents up to {reach} exceed the packed range |e| < 2^31")


def _span(monos) -> int:
    """Largest ``|e|`` over all exponents of ``monos``."""
    return max(0, max(map(max, monos), default=0), -min(map(min, monos), default=0))


def _pack(m: Mono) -> int:
    """Key of ``x^m``.  A biased field is the int32 of ``e`` with its top bit
    flipped, so packing is one flip of the int32 record.

    >>> _unpack(_pack((1, -2, 0, 0, 3, -40000, -1)) + _delta(T_M))
    (1, -2, 0, 0, 3, -40000, 0)
    """
    return int.from_bytes(_FIELDS.pack(*m), "little", signed=True) ^ _ONE_KEY


def _unpack(key: int) -> Mono:
    return _FIELDS.unpack((key ^ _ONE_KEY).to_bytes(28, "little", signed=True))


# A coefficient as a Fraction.  Fractions are immutable, so terms with equal
# coefficients may share one; most coefficients are small integers.
_fraction = lru_cache(maxsize=1024)(Fraction)


def _exact(c) -> Fraction:
    """``Fraction(c)``, refusing a float: it would keep a binary rounding."""
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}")
    return Fraction(c)


def _delta(m: Mono) -> int:
    """The offset that multiplies a key by ``x^m``."""
    return _pack(m) - _ONE_KEY


def _pruned(d: dict, cap: int | None = None) -> dict:
    """``d`` with its zero coefficients deleted in place, and with ``cap``
    also its keys ``≥ cap`` (the terms above a ``t``-degree)."""
    if cap is None:
        dead = [key for key, c in d.items() if not c]
    else:
        dead = [key for key, c in d.items() if not c or key >= cap]
    for key in dead:
        del d[key]
    return d


def _add_into(acc: dict, src: dict, d: int, sign: int = 1) -> None:
    """``acc += sign · x^d · src`` for ``sign`` ±1; cancelled terms stay as
    zeros.  Each sign has its own loop, so no term is multiplied."""
    get = acc.get
    if sign == 1:
        for key, c in src.items():
            key += d
            acc[key] = get(key, 0) + c
    elif sign == -1:
        for key, c in src.items():
            key += d
            acc[key] = get(key, 0) - c
    else:
        raise ValueError(f"sign must be 1 or -1, not {sign!r}")


def _mul_into(acc: dict, a: LaurentPoly, b: LaurentPoly) -> None:
    """``acc += a · b`` into a kernel dict; cancelled terms stay as zeros."""
    _check_reach(a.reach + b.reach)
    get = acc.get
    bs = b._terms.items()
    for ka, ca in a._terms.items():
        da = ka - _ONE_KEY
        for kb, cb in bs:
            key = kb + da
            acc[key] = get(key, 0) + ca * cb


def _series_mul_into(acc: list[dict], a: list[LaurentPoly], b: list[LaurentPoly]) -> None:
    """``acc += a · b`` for truncated series, each a list of ``t``-free
    layers (entry ``k`` the coefficient of ``t^k``): ``acc[i + j] += a[i]·b[j]``
    for every ``i + j < len(acc)``; cancelled terms stay as zeros."""
    n = len(acc)
    for i, p in enumerate(a[:n]):
        for j, r in enumerate(b[: n - i]):
            _mul_into(acc[i + j], p, r)


# ---------------------------------------------------------- Laurent algebra


class LaurentPoly:
    """Laurent polynomial in ``(s₁..s₅, q, t)`` with exact rational coefficients.

    It holds one kernel dict ``{key: int | Fraction}`` with no zero entries,
    and ``reach``, a bound on ``|e|`` over its exponents (see
    :func:`_check_reach`).  The operators, specialization, the shift and
    equality run on the keys; products and shifts whose exponents could
    leave the packed range raise ValueError.  ``coeffs`` is a read-only
    tuple-keyed view with ``Fraction`` values, unpacked as it is read.
    Immutable: all operations return fresh instances.

    >>> p = LaurentPoly.monomial(T_M) + LaurentPoly.one()
    >>> p * p == LaurentPoly({ONE_M: 1, T_M: 2, (0, 0, 0, 0, 0, 0, 2): 1})
    True
    >>> (p * p).coeffs[T_M]
    Fraction(2, 1)
    """

    __slots__ = ("_terms", "reach")

    def __init__(self, coeffs: dict[Mono, Fraction | int] | None = None):
        clean: dict[Mono, Fraction] = {}
        for m, c in (coeffs or {}).items():
            c = _exact(c)
            if c:
                clean[m] = c
        self.reach = _span(clean)
        _check_reach(self.reach)
        self._terms = {
            _pack(m): c.numerator if c.denominator == 1 else c for m, c in clean.items()
        }

    @staticmethod
    def _of(terms: dict, reach: int) -> "LaurentPoly":
        """Wrap a kernel dict with no zero entries, without copying it."""
        p = LaurentPoly.__new__(LaurentPoly)
        p._terms, p.reach = terms, reach
        return p

    # -- constructors

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly._of({_ONE_KEY: 1}, 0)

    @staticmethod
    def monomial(m: Mono, c: Fraction | int = 1) -> "LaurentPoly":
        return LaurentPoly({m: c})

    # -- views

    @property
    def coeffs(self) -> "_CoeffView":
        """``{Mono: Fraction}``, read-only."""
        return _CoeffView(self._terms)

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        """Terms in a deterministic (lexicographic exponent) order."""
        terms = self._terms
        pairs = zip(map(_unpack, terms), map(_fraction, terms.values()))
        return sorted(pairs, key=itemgetter(0))

    # -- predicates

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    # -- arithmetic

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        out = dict(self._terms)
        _add_into(out, other._terms, 0, sign)
        return LaurentPoly._of(_pruned(out), max(self.reach, other.reach))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, -1)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({key: -c for key, c in self._terms.items()}, self.reach)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict = {}
        _mul_into(out, self, other)
        return LaurentPoly._of(_pruned(out), self.reach + other.reach)

    # -- structure

    def t_degree(self) -> int:
        """Largest ``t``-exponent (the zero polynomial has none).

        >>> (LaurentPoly.one() + LaurentPoly.monomial(T_M)).t_degree()
        1
        """
        if not self._terms:
            raise ValueError("zero polynomial has no t-degree")
        return max(self._terms) >> _T_SHIFT

    def total(self) -> Fraction:
        """Value at ``s=q=t=1``, i.e. the sum of all coefficients."""
        return sum(self._terms.values(), Fraction(0))

    def specialized(self, *, s_one: bool = False, q_one: bool = False) -> "LaurentPoly":
        """Set the ``s_i`` (and/or ``q``) variables to 1.

        >>> LaurentPoly.monomial(weight_mono(("(12)", 2))).specialized(
        ...     s_one=True, q_one=True) == LaurentPoly.monomial(T_M)
        True
        """
        clear = (_S_FIELDS if s_one else 0) | (_Q_FIELD if q_one else 0)
        keep, zero = ~clear, _ONE_KEY & clear
        out: dict = {}
        get = out.get
        for key, c in self._terms.items():
            key = key & keep | zero
            out[key] = get(key, 0) + c
        return LaurentPoly._of(_pruned(out), self.reach)

    def subs_t_qt(self, n: int) -> "LaurentPoly":
        """Substitute ``t -> q^n t`` (each ``t``-power gains ``n`` loop units)."""
        terms = self._terms
        t_reach = max((abs(key >> _T_SHIFT) for key in terms), default=0)
        reach = self.reach + abs(n) * t_reach
        _check_reach(reach)
        shifted = {key + (n * (key >> _T_SHIFT) << _Q_SHIFT): c for key, c in terms.items()}
        return LaurentPoly._of(shifted, reach)

    def __repr__(self) -> str:
        if not self._terms:
            return "LaurentPoly(0)"
        return "LaurentPoly(%d terms, t-deg %d)" % (len(self._terms), self.t_degree())


class _CoeffView(Mapping):
    """Read-only ``{Mono: Fraction}`` view of a kernel dict.  Nothing is
    stored: ``len`` is the dict's, and each read unpacks the terms it visits."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict):
        self._terms = terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self):
        return map(_unpack, self._terms)

    def __getitem__(self, m: Mono) -> Fraction:
        try:
            return _fraction(self._terms[_pack(m)])
        except (KeyError, TypeError, struct.error):
            raise KeyError(m) from None


# ---------------------------------------------------------------- rendering

MONO_VARS = ("s1", "s2", "s3", "s4", "s5", "q", "t")
MONO_VARS_TEX = ("s_1", "s_2", "s_3", "s_4", "s_5", "q", "t")


def format_mono(m: Mono, *, tex: bool = False) -> str:
    """Render an exponent vector: ``(0,…,0,2)`` → ``"t^2"``, zeros → ``"1"``.

    >>> format_mono((0, 0, 0, 0, 0, 0, 2))
    't^2'
    >>> format_mono((0,) * 7)
    '1'
    >>> format_mono((1, 0, 0, 0, 0, 3, 1), tex=True)
    's_1q^{3}t'
    """
    if tex:
        parts = [n if e == 1 else f"{n}^{{{e}}}" for n, e in zip(MONO_VARS_TEX, m) if e]
    else:
        parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(MONO_VARS, m) if e]
    return ("" if tex else "*").join(parts) or "1"


def format_laurent(p: LaurentPoly, *, tex: bool = False) -> str:
    """Render a :class:`LaurentPoly` in lexicographic exponent order, one
    unpack per key: ``1+5t+5t^2+t^3``.

    >>> format_laurent(LaurentPoly({ONE_M: Fraction(1, 2), (-1, 0, 0, 0, 0, 0, 0): -1}))
    '-s1^-1+1/2'
    """
    terms = p._terms
    if not terms:
        return "0"
    out = []
    for m, c in sorted(zip(map(_unpack, terms), terms.values()), key=itemgetter(0)):
        mono = format_mono(m, tex=tex)
        sign = "-" if c < 0 else "+" if out else ""
        c = abs(c)
        out.append(sign + (str(c) if mono == "1" else mono if c == 1 else f"{c}{mono}"))
    return "".join(out)


def format_denominator(den, *, tex: bool = False) -> str:
    """Render a factor multiset: ``{t: 11}`` → ``"(1-t)^11"``, ``{}`` → ``"1"``.

    >>> format_denominator({T_M: 11})
    '(1-t)^11'
    """
    parts = []
    for m in sorted(den):
        base, e = f"(1-{format_mono(m, tex=tex)})", den[m]
        parts.append(base if e == 1 else f"{base}^{{{e}}}" if tex else f"{base}^{e}")
    return ("" if tex else "*").join(parts) or "1"


def _div_one_minus(num: LaurentPoly, m: Mono) -> LaurentPoly | None:
    """Exact quotient ``num / (1 - x^m)`` or None if not divisible.

    The series ``Σ_j S_j t^j`` of ``num / (1 − x^m)``, ``m`` of ``t``-degree
    1, has ``S_{j+1} = x^m S_j`` above the numerator's ``t``-degree ``hi``: it
    is the quotient, a polynomial, exactly when its layer at ``t^hi`` is
    zero.  The layers below it, merged, are the quotient; this is the one
    place the layers of an expansion are joined into one dict.  The
    quotient's exponents lie in the convex hull of the numerator's, so it
    keeps the numerator's ``reach``.
    """
    if not num:
        return num
    layers, _ = RationalChar(num, Counter({m: 1}))._layers(num.t_degree())
    if any(layers.pop().values()):
        return None
    quot = {key: c for layer in layers for key, c in layer.items() if c}
    return LaurentPoly._of(quot, num.reach)


def _line_screen(num: LaurentPoly):
    """The screen of :meth:`RationalChar.reduced` on ``num``: ``m`` ↦ the sum
    of ``num``'s coefficients at the keys ``lo + k·_delta(m)``, ``lo`` the
    lowest key, for ``k`` up to the ``t``-span of ``num`` or until an
    exponent leaves the box ``|e| ≤ reach`` that holds every term, so no key
    leaves the packed range.  The lowest key and the span are read once."""
    terms, reach = num._terms, num.reach
    lo = min(terms, default=_ONE_KEY)
    span = (max(terms, default=lo) >> _T_SHIFT) - (lo >> _T_SHIFT)
    start = _unpack(lo)[:6]

    def line_sum(m: Mono):
        # the last k with |a + k·d| ≤ reach, for each exponent a of lo
        ends = [((reach if d > 0 else -reach) - a) // d for a, d in zip(start, m) if d]
        steps = min([span, *ends])
        d = _delta(m) if steps else 0
        return sum(terms.get(lo + k * d, 0) for k in range(steps + 1))

    return line_sum


def _factors_poly(fac: Counter) -> LaurentPoly:
    """Expand a (small) multiset of factors ``Π (1 - x^m)``."""
    out = LaurentPoly.one()
    for m in sorted(fac.elements()):
        out = out * LaurentPoly({ONE_M: 1, m: -1})
    return out


class RationalChar:
    """Rational character ``num / Π (1 − x^m)`` with a factored denominator.

    ``den`` is a multiset (Counter) of monomials ``m``, each standing for a
    factor ``1 − x^m``; every ``m`` must have ``t``-degree 1, as every factor
    of a lattice character does.  Denominators are never expanded in full:
    sums multiply each numerator only by the factors it is missing from the
    least common denominator, and equality is the cross-multiplied numerator
    identity over that least common denominator — exact, with zero
    tolerance.  Instances are immutable by convention.

    >>> g = RationalChar.single(("(0)", 0))      # 1/(1 - e_(0) t)
    >>> [c.total() for c in g.series(3)]
    [Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)]
    >>> num = LaurentPoly.one() - LaurentPoly.monomial((0, 0, 0, 0, 0, 0, 2))
    >>> RationalChar(num, Counter({T_M: 1})).reduced().num.coeffs == {
    ...     ONE_M: Fraction(1), T_M: Fraction(1)}   # (1-t²)/(1-t) = 1+t
    True
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Counter | None = None):
        den = Counter(den) if den else Counter()
        for m, mult in den.items():
            if m[6] != 1:
                raise ValueError("denominator factor needs t-degree 1")
            if mult < 0:
                raise ValueError("negative factor multiplicity")
        den = +den  # without its zero multiplicities
        if num.is_zero():
            den = Counter()
        self.num = num
        self.den = den

    # -- constructors

    @staticmethod
    def zero() -> "RationalChar":
        return RationalChar(LaurentPoly.zero())

    @staticmethod
    def one() -> "RationalChar":
        return RationalChar(LaurentPoly.one())

    @staticmethod
    def single(w: Weight) -> "RationalChar":
        """The one-point interval series ``1/(1 − e_w t)``."""
        return RationalChar(LaurentPoly.one(), Counter({weight_mono(w): 1}))

    # -- predicates

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalChar):
            return NotImplemented
        return (self - other).num.is_zero()

    # -- arithmetic

    def __mul__(self, other: "RationalChar") -> "RationalChar":
        if self.is_zero() or other.is_zero():
            return RationalChar.zero()
        return RationalChar(self.num * other.num, self.den + other.den)

    def __add__(self, other: "RationalChar") -> "RationalChar":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lcm = self.den | other.den
        num = self.num * _factors_poly(lcm - self.den) + other.num * _factors_poly(
            lcm - other.den
        )
        return RationalChar(num, lcm)

    def __neg__(self) -> "RationalChar":
        return RationalChar(-self.num, self.den)

    def __sub__(self, other: "RationalChar") -> "RationalChar":
        return self + (-other)

    def reduced(self) -> "RationalChar":
        """Cancel denominator factors that divide the numerator exactly.

        Exact division by ``(1 − x^m)`` is the only way a factor is
        cancelled.  If it divides ``N``, ``N`` vanishes where ``x^m = 1``,
        where the terms on a line ``e + k·m`` become one monomial and no other
        term does (``m`` has ``t``-degree 1): their coefficients sum to zero.
        A trial runs only when that sum is zero on the line through ``N``'s
        lowest key, one term per ``t``-degree (:func:`_line_screen`); the
        division decides.  One pass over the factors suffices: a factor that
        does not divide ``N`` divides no quotient of ``N``.
        """
        num = self.num
        line_sum = _line_screen(num)
        den = Counter()
        for m, mult in sorted(self.den.items()):
            while mult and not line_sum(m):
                q = _div_one_minus(num, m)
                if q is None:
                    break
                num, mult = q, mult - 1
                line_sum = _line_screen(num)
            if mult:
                den[m] = mult
        return RationalChar(num, den)

    # -- substitutions

    def specialized(self, *, s_one: bool = False, q_one: bool = False) -> "RationalChar":
        """Set the ``s_i`` (and/or ``q``) variables to 1 in numerator and factors."""
        den = Counter()
        for m, mult in self.den.items():
            den[_mono_spec(m, s_one, q_one)] += mult
        return RationalChar(self.num.specialized(s_one=s_one, q_one=q_one), den)

    def subs_t_qt(self, n: int) -> "RationalChar":
        """Substitute ``t -> q^n t`` throughout.

        This realizes the level-shift covariance of interval characters: the
        character of a shifted interval ``[T^n δ, T^n δ′]`` equals the
        original character with ``t ↦ q^n t``.
        """
        den = Counter()
        for m, mult in self.den.items():
            den[(*m[:5], m[5] + n, 1)] += mult
        return RationalChar(self.num.subs_t_qt(n), den)

    # -- expansion

    def series(self, k_max: int) -> list[LaurentPoly]:
        """Truncated ``t``-expansion; entry ``k`` is the coefficient of ``t^k``.

        The returned coefficients have their ``t``-exponent cleared, so they
        are directly comparable with :func:`chain_series_direct` output.
        """
        if k_max < 0:
            raise ValueError("k_max must be >= 0")
        layers, reach = self._layers(k_max)
        return [
            LaurentPoly._of({key & _SQ_FIELDS: c for key, c in layer.items() if c}, reach)
            for layer in layers[-k_max - 1:]
        ]

    def _layers(self, k_max: int) -> tuple[list[dict], int]:
        """The expansion to ``t^k_max`` as one kernel dict per ``t``-degree,
        from the lowest (0 or the numerator's, if below) up to ``k_max``,
        which may be negative, with ``t`` kept in the keys and cancelled
        terms kept as zeros; and the ``reach`` of its exponents (see
        :func:`_check_reach`).

        Taken upward, each layer gains ``x^m`` times the layer below it,
        already divided, which divides by ``1 − x^m``.  A term of
        ``t``-degree ``j`` meets at most ``k_max − j`` factors.
        """
        terms = self.num._terms
        low = min(0, min(terms) >> _T_SHIFT) if terms else 0
        reach = self.num.reach + (k_max - low) * _span(self.den)
        _check_reach(reach)
        layers: list[dict] = [{} for _ in range(low, k_max + 1)]
        cap = (k_max + 1) << _T_SHIFT
        for key, c in terms.items():
            if key < cap:
                layers[(key >> _T_SHIFT) - low][key] = c
        for m in sorted(self.den.elements()):
            d = _delta(m)
            for j in range(1, len(layers)):
                _add_into(layers[j], layers[j - 1], d)
        return layers, reach

    def __repr__(self) -> str:
        return "RationalChar(%d num terms / %d factors)" % (
            len(self.num._terms),
            sum(self.den.values()),
        )


# ------------------------------------------------------- brute-force oracle


def chain_series_direct(iv: Interval, k_max: int) -> list[LaurentPoly]:
    """Weighted multichain series of the interval, by dynamic programming.

    Entry ``k`` of the result is ``Σ e_{α₁} ⋯ e_{α_k}`` over multichains
    ``α₁ ≤ … ≤ α_k`` inside ``iv``; entry 0 is 1.  This is the module's
    independent oracle: it shares no code with the down-set recursion or
    the transfer matrices.

    Degree ``k`` of ``[lo, x]`` is the down-set sum ``Σ_{y ≤ x} e_y·P_y``
    with ``P_y`` degree ``k − 1`` of ``[lo, y]`` (split a multichain at its
    top ``y``).  Walking the elements in their linear extension, each such
    sum is the sum of an earlier ``b < x``, the one with the largest
    down-set, plus the terms of the ``y ≤ x`` that are not ``≤ b``; the
    last degree is needed at ``hi`` only, where it is ``Σ_y e_y·P_y``.

    >>> [c.total() for c in chain_series_direct(
    ...     interval(("(0)", 0), ("(13)", 0)), 3)]
    [Fraction(1, 1), Fraction(3, 1), Fraction(6, 1), Fraction(10, 1)]
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    els = iv.elements
    reach = k_max * _span([weight_mono(x) for x in els])
    _check_reach(reach)
    shift = {x: _delta(weight_mono(x, 0)) for x in els}
    # base[x]: the b < x with the largest down-set; rest[x]: the y ≤ x that
    # are not ≤ b (x among them).  The loops are the oracle's own, sharing no
    # arithmetic with character().
    down_set = {x: [y for y in els if leq(y, x)] for x in els}
    base = {
        x: max(ys[:-1], key=lambda y: len(down_set[y]), default=None)
        for x, ys in down_set.items()
    }
    rest = {
        x: [y for y in down_set[x] if b is None or not leq(y, b)] for x, b in base.items()
    }
    # prev[y]: Σ e_{α₁} ⋯ e_{α_j} over the multichains of [lo, y] (degree j)
    prev = dict.fromkeys(els, {_ONE_KEY: 1})

    def gather(acc: dict, ys) -> dict:
        """``acc + Σ_{y ∈ ys} e_y·prev[y]``, in place."""
        get = acc.get
        for y in ys:
            d = shift[y]
            for key, c in prev[y].items():
                key += d
                acc[key] = get(key, 0) + c
        return acc

    layers = [{_ONE_KEY: 1}]
    for _ in range(1, k_max):
        down: dict = {}
        for x in els:
            b = base[x]
            down[x] = gather({} if b is None else dict(down[b]), rest[x])
        layers.append(down[iv.hi])
        prev = down
    if k_max:
        layers.append(gather({}, els))
    # Dicts grown by insertion are over-allocated.  Drop the working sums
    # first, so that the compact copies returned can reuse their memory.
    prev = down = {}
    return [LaurentPoly._of(dict(p), reach) for p in layers]


# -------------------------------------------------------- transfer matrices

# The ladder rule: both systems cycle through four 2×2 shapes, each given as
# (position of the single e_w t numerator, position of the zero).
_LADDER_SHAPES = (
    ((0, 0), (0, 1)),
    ((1, 0), (0, 1)),
    ((1, 1), (1, 0)),
    ((0, 1), (1, 0)),
)

Matrix = tuple[tuple[RationalChar, RationalChar], tuple[RationalChar, RationalChar]]


def _matrix_chars(l: int, lower: bool) -> Matrix:
    """``U_l`` (or ``L_l``) from the ladder rule.

    Rows index one height pair, columns the other: for ``U_l`` rows are
    ``ht_pair(l−1)`` and columns ``ht_pair(l)``, with shape ``(l−1) mod 4``;
    for ``L_l`` the pairs swap and the shape is ``−l mod 4``.  The zero
    position holds 0; every other entry is ``1/(1 − e_y t)`` with ``y`` its
    column's element, times ``e_x t`` at the numerator position, ``x`` that
    row's element.
    """
    rows, cols, shape = ht_pair(l - 1), ht_pair(l), (l - 1) % 4
    if lower:
        rows, cols, shape = cols, rows, -l % 4
    num_pos, zero_pos = _LADDER_SHAPES[shape]

    def entry(i: int, j: int) -> RationalChar:
        if (i, j) == zero_pos:
            return RationalChar.zero()
        num = LaurentPoly.one()
        if (i, j) == num_pos:
            num = LaurentPoly.monomial(weight_mono(rows[i]))
        return RationalChar(num, Counter({weight_mono(cols[j]): 1}))

    return tuple(tuple(entry(i, j) for j in (0, 1)) for i in (0, 1))  # type: ignore[return-value]


def transfer_matrix(l: int) -> Matrix:
    """The 2×2 transfer matrix ``U_l`` of the upper system.

    Row ``i`` indexes the height-``l−1`` pair, column ``j`` the height-``l``
    pair; the climb ``row_{l} = row_{l-1} · U_l`` extends partial interval
    characters by one height.  Every ``U_l`` follows the four-shape ladder
    rule through :func:`~spinlaw.weightlattice.ht_pair`; the pair eight
    heights up is the same pair one level up, so
    ``U_{l+8}(s,q,t) = U_l(s,q,qt)``.  The test suite checks that period and
    that the zeros sit exactly at the incomparable pairs.
    :func:`character` does not climb; the test suite runs this climb as its
    oracle.

    >>> u6 = transfer_matrix(6)
    >>> u6[0][0] == RationalChar.single(("(35)", 0))   # 1/(1 - e_(35) t)
    True
    >>> u6[1][0].num == LaurentPoly.monomial(weight_mono(("(34)", 0)))
    True
    """
    return _matrix_chars(l, False)


def lower_transfer_matrix(l: int) -> Matrix:
    """The 2×2 matrix ``L_l`` of the lower system.

    It relates fixed-top characters across one height:
    ``(A_{x}^δ̂)_{x ∈ pair(l−1)} = (A_{y}^δ̂)_{y ∈ pair(l)} · L_l`` whenever
    the top ``δ̂`` lies strictly above height ``l``.  Row ``i`` indexes the
    height-``l`` pair, column ``j`` the height-``l−1`` pair; like ``U_l`` it
    follows the ladder rule.
    """
    return _matrix_chars(l, True)


# ------------------------------------------------------- character formula


def _parse_specialize(specialize) -> tuple[bool, bool]:
    """``(s_one, q_one)`` of a specialization such as ``{"s": 1, "q": 1}``."""
    if specialize is None:
        return False, False
    flags = {"s": False, "q": False}
    for key, val in dict(specialize).items():
        if key not in flags:
            raise ValueError(f"unknown specialization variable {key!r} (expected s or q)")
        if val != 1:
            raise ValueError(
                f"unsupported specialization {key}={val}: denominators are stored "
                "as factors (1-monomial), which only substitution by 1 preserves"
            )
        flags[key] = True
    return flags["s"], flags["q"]


def characters(lo: Weight, tops, *, specialize=None) -> dict[Weight, RationalChar]:
    """Exact rational chain series of ``[lo, x]`` for every ``x`` in ``tops``,
    by one down-set recursion over ``[lo, ⋁ tops]``.

    Write ``N_x`` for the numerator of the character of ``[lo, x]`` over
    ``Π_{z∈[lo,x]} (1 − e_z t)``; it depends on ``[lo, x]`` alone, so one
    walk from ``lo`` passes every ``N_x`` below its top.  Walking the join's
    interval in ``apos`` order,
    :func:`~spinlaw.weightlattice.decompose_below` classifies each ``x``:
    a Tail (one maximal element ``y`` below ``x``) gives ``N_x = N_y``; a
    Pair (tail ``a``, other ``b``, ``m = a ∧ b``, ``[lo, a) = [lo, m]``)
    splits the multichains below ``x`` by whether they reach ``a``, so
    ``N_x = (1 − e_a t)·N_b + e_a t·N_m·Π_{z∈[lo,b]∖[lo,m]} (1 − e_z t)``.
    Each top gets ``N_x`` over one factor per element of ``[lo, x]``, so
    ``x = lo`` gives ``1/(1 − e_lo t)``; callers that want lowest terms
    call ``reduced()``.  On every full character the tests draw,
    ``reduced()`` finds nothing to cancel; a specialization can make
    factors coincide, and then it does.  ``specialize`` may map ``"s"``
    and/or ``"q"`` to 1 to collapse the corresponding variables first.

    The result maps each distinct top, in the order given, to its
    character.  A numerator no later step needs is dropped after its last
    read, a wanted one is kept, and each is returned as the walk built it:
    a top and the element below a Tail step share one numerator.  Nothing
    is cached across calls; each result's ``den`` is its own.

    One walk to ``(1)@1`` gives the characters of ``[(0)@0, (1)@N]`` for
    ``N ≤ 1`` (numerator terms, factors):

    >>> tops = [("(1)", 0), ("(1)", 1)]
    >>> chars = characters(("(0)", 0), tops)
    >>> [(len(c.num.coeffs), sum(c.den.values())) for c in chars.values()]
    [(54, 16), (10518, 32)]
    >>> chars[("(1)", 0)] == character(interval(("(0)", 0), ("(1)", 0)))
    True
    """
    iv, tops = _walk_interval(lo, tops)
    return _walk(iv, tops, specialize, None)


def character_series(
    lo: Weight, tops, k_max: int, *, specialize=None
) -> dict[Weight, list[LaurentPoly]]:
    """``characters(lo, tops, specialize=…)[x].series(k_max)`` for every top
    ``x``, by one walk that drops each numerator term above ``t^k_max``.

    The truncation is exact: every step of the walk multiplies by ``1 − e t``
    or ``e t``, neither of negative ``t``-degree, so no term above
    ``t^k_max`` ever reaches one below it.  Only the series leave the call.

    >>> layers = character_series(("(0)", 0), [("(12)", 0)], 3)[("(12)", 0)]
    >>> [c.total() for c in layers]     # the multichains of a 2-chain
    [Fraction(1, 1), Fraction(2, 1), Fraction(3, 1), Fraction(4, 1)]
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    iv, tops = _walk_interval(lo, tops)
    chars = _walk(iv, tops, specialize, (k_max + 1) << _T_SHIFT)
    return {x: c.series(k_max) for x, c in chars.items()}


def character(iv: Interval, *, specialize=None) -> RationalChar:
    """Exact rational chain series of the interval: the one-top call of the
    walk of :func:`characters`, over ``iv`` itself.

    Agrees with :func:`chain_series_direct` to every truncation — that
    equivalence is the module's core correctness property and is enforced
    by the test suite on a spread of intervals.

    >>> c = character(interval(("(0)", 0), ("(12)", 0)))
    >>> c.num == LaurentPoly.one() and sum(c.den.values()) == 2
    True
    >>> b0 = character(interval(("(0)", 0), ("(15)", 0)), specialize={"s": 1})
    >>> b0 == RationalChar(LaurentPoly.one(), Counter({T_M: 5}))
    True
    """
    return _walk(iv, (iv.hi,), specialize, None)[iv.hi]


def _walk_interval(lo: Weight, tops) -> tuple[Interval, tuple[Weight, ...]]:
    """The interval ``[lo, ⋁ tops]`` and the distinct tops, in order."""
    tops = tuple(dict.fromkeys(tops))
    if not tops:
        raise ValueError("no tops given")
    for x in tops:
        if not leq(lo, x):
            raise ValueError(
                f"empty interval: {format_weight(lo)} is not <= {format_weight(x)}"
            )
    return interval(lo, reduce(join, tops)), tops


def _walk(
    iv: Interval, tops, specialize, cap: int | None
) -> dict[Weight, RationalChar]:
    """The down-set walk of :func:`characters` over ``iv``, for distinct
    ``tops`` in ``iv``; with ``cap``, it drops every numerator term whose key
    is ``≥ cap``, the terms above a ``t``-degree."""
    s_one, q_one = _parse_specialize(specialize)
    lo, els = iv.lo, iv.elements
    wm = {x: _mono_spec(weight_mono(x), s_one, q_one) for x in els}
    below = {x: [z for z in els if leq(z, x)] for x in tops}
    # By induction over the Tail and Pair steps below, every term of N_x is a
    # product of at most |[lo, x]| − 1 weight monomials: N_lo = 1, a Tail
    # keeps N_y, and a Pair term has at most |[lo, b]| = |[lo, x]| − 2.
    reach = {x: (len(zs) - 1) * _span([wm[z] for z in zs]) for x, zs in below.items()}
    _check_reach(max(reach.values()))
    # Walking back from the tops, reads[x] is the N_y that the step of x
    # reads (a Tail shares N_y's dict) and last[y] the last step that reads
    # N_y.  A wanted N_x is never dropped; an N_x no step reads is never built.
    steps: dict = {}
    reads: dict = {}
    last = dict.fromkeys(tops)
    for x in reversed(els[1:]):
        if x in last:
            s = steps[x] = decompose_below(iv, x)
            reads[x] = (
                (s.below,) if isinstance(s, Tail) else (s.other, meet(s.tail, s.other))
            )
            for y in reads[x]:
                last.setdefault(y, x)
    # num[x] is the kernel dict of N_x.  The apos order is a linear
    # extension, so x comes after everything below it.
    num = {lo: {_ONE_KEY: 1}}
    for x in els[1:]:
        if x not in steps:
            continue
        step = steps[x]
        if isinstance(step, Tail):
            num[x] = num[step.below]
        else:
            # [lo, x) = [lo, b] ⊔ {a} with [lo, a) = [lo, m], so
            # N_x = (1 − e_a t)·N_b + e_a t·N_m·Π_{z ∈ [lo, b]∖[lo, m]} (1 − e_z t)
            a, (b, m) = step.tail, reads[x]
            prod = num[m]
            for z in els:
                if leq(z, b) and not leq(z, m):
                    nxt = dict(prod)
                    _add_into(nxt, prod, _delta(wm[z]), -1)
                    prod = _pruned(nxt, cap)
            d_a = _delta(wm[a])
            acc = dict(num[b])
            _add_into(acc, num[b], d_a, -1)
            _add_into(acc, prod, d_a)
            num[x] = _pruned(acc, cap)
        for y in reads[x]:
            if last[y] == x:
                del num[y]
    return {
        x: RationalChar(LaurentPoly._of(num[x], reach[x]), Counter(wm[z] for z in zs))
        for x, zs in below.items()
    }


def pole_order(c: RationalChar) -> int:
    """Order of the pole at ``t = 1`` of the ``s=1, q=1`` specialization,
    which makes every factor ``1 − t``: its multiplicity after reduction.

    >>> pole_order(character(interval(("(0)", 0), ("(15)", 0))))
    5
    """
    sp = c.specialized(s_one=True, q_one=True).reduced()
    if sp.is_zero():
        raise ValueError("the zero character has no pole order")
    return sp.den[T_M]


def dimension_report(iv: Interval) -> dict:
    """Three dimension readings, reported side by side, never reconciled.

    ``chain_len`` counts the elements of a longest chain, ``ht_diff`` is the
    height difference of the endpoints, and ``pole_order`` is the order of
    the ``t = 1`` pole of the specialized character.

    >>> dimension_report(interval(("(0)", 0), ("(1)", 0)))
    {'chain_len': 11, 'ht_diff': 10, 'pole_order': 11}
    >>> dimension_report(interval(("(0)", 0), ("(0)", 0)))
    {'chain_len': 1, 'ht_diff': 0, 'pole_order': 1}
    """
    c = character(iv, specialize={"s": 1, "q": 1})
    return {
        "chain_len": chain_length(iv),
        "ht_diff": ht(iv.hi) - ht(iv.lo),
        "pole_order": pole_order(c),
    }


# ----------------------------------------------------- recursion validation


# The four J-ladder recursions.  For δ = (kind)@r, with factor weights f and
# weights a, b, c, d (each given as (tag, level − r)),
#   A^δ = ((1 − e_a t)(1 − e_b e_c t²)·A^a + e_d t·A^d) / Π_f (1 − e_f t),
# where A^w is the character of [(0)⁰, w].
_J_RECURSIONS = {
    "(5)": ((("(24)", 0), ("(34)", 0), ("(5)", 0), ("(23)", 0)),
            ("(15)", 0), ("(14)", 0), ("(23)", 0), ("(1)", -1)),
    "(15)": ((("(13)", 0), ("(14)", 0), ("(15)", 0), ("(12)", 0)),
             ("(1)", -1), ("(2)", -1), ("(12)", 0), ("(0)", 0)),
    "(1)": ((("(3)", 0), ("(2)", 0), ("(1)", 0), ("(4)", 0)),
            ("(0)", 1), ("(45)", 0), ("(4)", 0), ("(5)", 0)),
    "(0)": ((("(35)", -1), ("(45)", -1), ("(0)", 0), ("(25)", -1)),
            ("(5)", -1), ("(34)", -1), ("(25)", -1), ("(15)", -1)),
}


def _j_recursion_sides(
    kind: str, r: int
) -> tuple[Weight, tuple[tuple[RationalChar, Weight], tuple[RationalChar, Weight]]]:
    """Left and right sides of one of the four J-ladder recursions.

    Each recursion expresses ``A^δ = A_{(0)}^{δ}`` at one member of the
    sequence J through the two previous members, with a cubic numerator and
    four linear factors; ``kind`` selects the family by the tag of ``δ``.
    Each ``A^w`` is given by its top ``w``: the left side is ``δ``, the right
    side two pairs ``(coefficient, w)``.
    """
    facs, a, b, c, d = _J_RECURSIONS[kind]

    def at(w: Weight) -> Weight:  # w, with its level relative to r
        return (w[0], w[1] + r)

    def e(w: Weight) -> LaurentPoly:  # e_w t
        return LaurentPoly.monomial(weight_mono(at(w)))

    den = Counter(weight_mono(at(f)) for f in facs)
    one = LaurentPoly.one()
    c1 = RationalChar((one - e(a)) * (one - e(b) * e(c)), den)
    return at((kind, 0)), ((c1, at(a)), (RationalChar(e(d), den), at(d)))


def recursion_check_J(r_max: int, k_max: int) -> bool:
    """Verify the four three-term recursions along J for ``1 ≤ r ≤ r_max``.

    Both sides are expanded as series in ``t`` to order ``k_max`` with full
    ``(s, q)`` weights and compared coefficient by coefficient; the right
    side is assembled by convolving the series of its two products, so the
    deep interval characters are never multiplied out as rational functions.
    Every side's ``A^w`` comes from one :func:`character_series` walk over
    the distinct tops, truncated at ``t^k_max``: ``(5)¹`` is a left side
    and the tail ``d`` of kind ``(1)``, and is expanded once.

    >>> recursion_check_J(1, 0)    # every side has constant term 1
    True
    """
    if r_max < 1 or k_max < 0:
        raise ValueError("r_max must be >= 1 and k_max >= 0")
    sides = [
        _j_recursion_sides(kind, r) for r in range(1, r_max + 1) for kind in _J_RECURSIONS
    ]
    tops = [w for top, terms in sides for w in (top, *(w for _, w in terms))]
    series = character_series(("(0)", 0), tops, k_max)
    for top, terms in sides:
        rhs: list[dict] = [{} for _ in range(k_max + 1)]
        for coeff, w in terms:
            _series_mul_into(rhs, coeff.series(k_max), series[w])
        if [p._terms for p in series[top]] != list(map(_pruned, rhs)):
            return False
    return True


def lower_bound_recursions_check(k_max: int = 4) -> bool:
    """Verify the eight lower-system identities against the DP oracle.

    For ``l = 1..8`` and fixed top ``δ̂`` (``(1)⁰`` for ``l ≤ 7``, ``(1)¹``
    for ``l = 8``), the row of fixed-top characters at height pair ``l−1``
    must equal the row at height pair ``l`` times ``L_l``.  The character
    series on both sides are computed with :func:`chain_series_direct`, so
    the check is independent of the upper system and of :func:`character`.
    Each ``(x, δ̂)`` series is computed once per call: the pair at height
    ``l`` is the next row for ``l`` and the previous row for ``l + 1``.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    dp: dict[tuple[Weight, Weight], list[LaurentPoly]] = {}

    def series(x: Weight, top: Weight) -> list[LaurentPoly]:
        if (x, top) not in dp:
            dp[x, top] = chain_series_direct(interval(x, top), k_max)
        return dp[x, top]

    for l in range(1, 9):
        top: Weight = ("(1)", 0) if l <= 7 else ("(1)", 1)
        prev, nxt = ht_pair(l - 1), ht_pair(l)
        lmat = _matrix_chars(l, True)
        for j in (0, 1):
            rhs: list[dict] = [{} for _ in range(k_max + 1)]
            for i in (0, 1):
                ent = lmat[i][j]
                if not ent.is_zero():
                    _series_mul_into(rhs, ent.series(k_max), series(nxt[i], top))
            if list(map(_pruned, rhs)) != [p._terms for p in series(prev[j], top)]:
                return False
    return True


# ------------------------------------------------------ Delannoy machinery


def delannoy(n: int) -> list[int]:
    """Coefficient list of the Delannoy polynomial ``D_n(t)``.

    ``D₀ = 1``, ``D₁ = 1 + t``, and ``D_n = (1+t)·D_{n−1} + t·D_{n−2}``;
    coefficient ``k`` of ``D_n`` is the Delannoy square-array number
    ``D(k, n−k)``, so the list is palindromic.

    >>> delannoy(2)
    [1, 3, 1]
    >>> delannoy(4)
    [1, 7, 13, 7, 1]
    >>> delannoy(0)
    [1]
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    prev, cur = [1], [1, 1]
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = [0] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i] += c
            nxt[i + 1] += c
        for i, c in enumerate(prev):
            nxt[i + 1] += c
        prev, cur = cur, nxt
    return cur


_J_TAGS = ("(15)", "(5)", "(0)", "(1)")


def j_sequence(r: int) -> Weight:
    """The ``r``-th member of the sequence J: ``(15), (5), (0)¹, (1), (15)¹, …``

    Heights advance by two: ``ht(δ_r) = 4 + 2r``; the specialized character
    of ``[(0)⁰, δ_r]`` has pole order ``5 + 2r`` at ``t = 1``.

    >>> [format_weight(j_sequence(r)) for r in range(6)]
    ['(15)@0', '(5)@0', '(0)@1', '(1)@0', '(15)@1', '(5)@1']
    >>> all(ht(j_sequence(r)) == 4 + 2 * r for r in range(30))
    True
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    k, m = divmod(r, 4)
    return (_J_TAGS[m], k + 1 if m == 2 else k)


def delannoy_acceptance(r_max: int = 4, k_max: int = 8) -> bool:
    """Delannoy shape of the specialized characters along J.

    Checks, for ``r ≤ r_max``, that ``B_r(t) = A_{(0)}^{δ_r}(1,1,t)`` equals
    ``D_r(t)/(1−t)^{5+2r}``; and, for ``r ≤ max(r_max, k_max)``, the closed
    generating function

        Σ_r B_r(t) s^r = 1 / ((1−t)·((1−t)⁴ − s(1−t)²(1+t) − t s²)).

    Its coefficient of ``s^r`` fixes ``B_0`` and ``B_1`` and, for ``r ≥ 2``,
    is ``(1−t)`` times the two-term recursion
    ``B_r = (1+t)/(1−t)²·B_{r−1} + t/(1−t)⁴·B_{r−2}``, so one loop checks
    both.  Every check is an exact identity of rational functions
    (cross-multiplied), so the ``B_r`` are not reduced; they come from one
    untruncated :func:`characters` walk over the members of J, to their join.

    >>> delannoy_acceptance(1, 3)
    True
    """
    if r_max < 0 or k_max < 0:
        raise ValueError("r_max and k_max must be >= 0")
    r_top = max(r_max, k_max)
    tops = [j_sequence(r) for r in range(r_top + 1)]
    chars = characters(("(0)", 0), tops, specialize={"s": 1, "q": 1})
    bs = [chars[x] for x in tops]
    one_minus_t = RationalChar(LaurentPoly({ONE_M: 1, T_M: -1}))
    one_plus_t = RationalChar(LaurentPoly({ONE_M: 1, T_M: 1}))
    t_char = RationalChar(LaurentPoly.monomial(T_M))
    # closed form with Delannoy numerator
    for r in range(r_max + 1):
        num = LaurentPoly({(0, 0, 0, 0, 0, 0, i): c for i, c in enumerate(delannoy(r))})
        if bs[r] != RationalChar(num, Counter({T_M: 5 + 2 * r})):
            return False
    # closed generating function: with P = p₀ + p₁s + p₂s², where
    #   p₀ = (1-t)^5,  p₁ = -(1-t)^3 (1+t),  p₂ = -t (1-t),
    # Σ_r B_r s^r = 1/P iff the coefficient of s^r in P · Σ_r B_r s^r,
    # p₀B_r + p₁B_{r−1} + p₂B_{r−2}, is [r = 0] for every r
    u2 = one_minus_t * one_minus_t
    p = [
        u2 * u2 * one_minus_t,
        -(u2 * one_minus_t * one_plus_t),
        -(t_char * one_minus_t),
    ]
    for r in range(r_top + 1):
        lhs = RationalChar.zero()
        for a in range(min(r, 2) + 1):
            lhs = lhs + p[a] * bs[r - a]
        if lhs != (RationalChar.one() if r == 0 else RationalChar.zero()):
            return False
    return True
