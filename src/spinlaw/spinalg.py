"""Fock-space model, Clifford operators, quadrics, Fierz identities, Weyl graphs.

The half-spinor space is modeled as the even part of the exterior algebra on
five generators ``v1..v5``:  S = Λ⁰W ⊕ Λ²W ⊕ Λ⁴W, with basis vectors indexed
by the sixteen weight tags of :mod:`spinlaw.weightlattice` — the empty wedge
for ``(0)``, ``v_i∧v_j`` for ``(ij)``, and the complement wedge for ``(k)``.
Loop modes live in S[z, z⁻¹]; a basis state is a pair ``(subset, z-power)``,
and an element of ΛW[z, z⁻¹] is a plain dict from basis states to nonzero
coefficients.  One :func:`clifford_apply` acts on both coefficient kinds:
numbers (ints, as the signs are ±1) in the Fock model and polynomials for
the generic spinor from which the quadrics are read off.

From this model the module derives, with exact rational arithmetic:

* the six root operators and the regenerated Hasse diagram (an independent
  route to the cover tables of :mod:`spinlaw.weightlattice`);
* the ten defining quadrics Γ^s, s ∈ {1..5, 1*..5*}, produced from wedge
  pairings (Γ^1..Γ^5 without the anti-involution τ, see
  :func:`gamma_quadrics`) and verified verbatim against the hardcoded
  expanded reference list, plus their affinized modes Γ^{s^l};
* the sixteen Fierz elements h_α (and their affinized windows), whose
  substitution x_s → Γ^s collapses to the zero polynomial — checked exactly;
* the involution u = e₂e₃e₄e₅, and the signed-permutation Weyl machinery
  with the graph construction Q(X, s₁…s₆).

All tables are computed once, cached, and immutable thereafter.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import polyring as pr
from . import weightlattice as wl
from .polyring import Poly
from .weightlattice import TAGS, Weight

# --------------------------------------------------------------- Fock space

# A basis state: (even or odd subset of {1..5}, z-power).
State = tuple[frozenset, int]

FULL = frozenset({1, 2, 3, 4, 5})

_TAG_SUBSET: dict[str, frozenset] = {}
for _t in TAGS:
    _digits = _t.strip("()")
    if _digits == "0":
        _TAG_SUBSET[_t] = frozenset()
    elif len(_digits) == 2:
        _TAG_SUBSET[_t] = frozenset({int(_digits[0]), int(_digits[1])})
    else:
        _TAG_SUBSET[_t] = FULL - {int(_digits)}
_SUBSET_TAG = {s: t for t, s in _TAG_SUBSET.items()}


# An element of ΛW[z, z⁻¹] is a plain dict ``{State: coefficient}`` holding no
# zero coefficients.  The coefficients are numbers in the Fock model (ints, as
# Clifford generators only move signs) and Polys for the generic spinor
# Σ λ^α θ_α; both are falsy exactly when zero.


def fock_basis(subset, level: int = 0) -> dict:
    return {(frozenset(subset), level): 1}


def theta(w: Weight) -> dict:
    """The weight-line basis vector θ_α z^r for a (parsed) weight."""
    tag, level = w
    return fock_basis(_TAG_SUBSET[tag], level)


def state_weight(state: State) -> Weight:
    """Inverse of :func:`theta` on basis states (even subsets only)."""
    sub, level = state
    if sub not in _SUBSET_TAG:
        raise ValueError(f"state {sorted(sub)} is not a weight line")
    return (_SUBSET_TAG[sub], level)


def _add(x: dict, y: dict) -> dict:
    """The sum of two elements, without the coefficients that cancel."""
    acc = dict(x)
    for s, c in y.items():
        acc[s] = acc[s] + c if s in acc else c
    return {s: c for s, c in acc.items() if c}


_GEN_RE = re.compile(r"^v([1-5])(\*?)$")


def clifford_apply(gen: str, x: dict) -> dict:
    """Apply a Clifford generator: ``"vi"`` wedges, ``"vi*"`` contracts.

    Koszul signs count the generators below index i, so that
    v_i v_i* + v_i* v_i = id on all of ΛW.  Distinct states have distinct
    images, so no coefficients are summed and none vanish.

    >>> clifford_apply("v1*", fock_basis({1, 2})) == fock_basis({2})
    True
    >>> clifford_apply("v2", fock_basis({1, 2}))
    {}
    """
    m = _GEN_RE.match(gen)
    if not m:
        raise ValueError(f"unknown Clifford generator {gen!r}")
    i, star = int(m.group(1)), bool(m.group(2))
    return {
        (sub - {i} if star else sub | {i}, lvl):
            -c if sum(1 for j in sub if j < i) % 2 else c
        for (sub, lvl), c in x.items()
        if star == (i in sub)
    }


def z_shift(x: dict, k: int = 1) -> dict:
    """Multiply by z^k (shift every loop level by k)."""
    return {(sub, lvl + k): c for (sub, lvl), c in x.items()}


# ------------------------------------------------------------ root operators


def root_ops():
    """The six raising operators on S[z, z⁻¹], in label order 1..6.

    R₂ = v₁v₂ (double wedge); Rᵢ = vᵢ v*ᵢ₋₁ for i ∈ {3, 4, 5} and the same
    shape with indices (2, 1) for R₁; R₆ = v*₅ v*₄ z (double contraction
    after a loop shift), the affine operator pairing the level-crossing
    covers such as (45)⁰ → (0)¹.
    """

    def r1(x):
        return clifford_apply("v2", clifford_apply("v1*", x))

    def r2(x):
        return clifford_apply("v1", clifford_apply("v2", x))

    def r3(x):
        return clifford_apply("v3", clifford_apply("v2*", x))

    def r4(x):
        return clifford_apply("v4", clifford_apply("v3*", x))

    def r5(x):
        return clifford_apply("v5", clifford_apply("v4*", x))

    def r6(x):
        return clifford_apply("v5*", clifford_apply("v4*", z_shift(x)))

    return [r1, r2, r3, r4, r5, r6]


def generate_hasse(window: tuple[int, int]):
    """Regenerate the affine cover diagram by applying the root operators.

    Returns ``{(src, dst): (op_index, coefficient)}`` over all pairs where
    some R⁺ sends θ_src to a nonzero multiple of θ_dst inside the window.
    The edge set is hard-checked against
    :func:`spinlaw.weightlattice.affine_covers`; any mismatch raises.

    >>> len(generate_hasse((0, 0)))
    20
    """
    lo, hi = window
    nodes = [(t, lvl) for lvl in range(lo, hi + 1) for t in TAGS]
    node_set = set(nodes)
    ops = root_ops()
    edges: dict[tuple[Weight, Weight], tuple[int, int]] = {}
    for w in nodes:
        x = theta(w)
        for idx, op in enumerate(ops, start=1):
            y = op(x)
            if not y:
                continue
            if len(y) != 1:
                raise RuntimeError(f"R{idx} θ_{w} is not a weight line")
            (state, coeff), = y.items()
            tgt = state_weight(state)
            if tgt not in node_set:
                continue
            edges[(w, tgt)] = (idx, coeff)
    expected = set(wl.affine_covers(window))
    if set(edges) != expected:
        missing = expected - set(edges)
        extra = set(edges) - expected
        raise RuntimeError(
            f"regenerated diagram disagrees with the cover table: "
            f"missing {sorted(missing)}, extra {sorted(extra)}"
        )
    return edges


# ---------------------------------------------------------------- quadrics

GAMMA_LABELS = ("1", "2", "3", "4", "5", "1*", "2*", "3*", "4*", "5*")


def dual_label(s: str) -> str:
    """1 ↔ 1*, …, 5 ↔ 5*."""
    return s[:-1] if s.endswith("*") else s + "*"


# Hardcoded expanded reference list — the sign oracle.  The programmatic
# construction below must reproduce it variable for variable; any deviation
# is a hard sign-normalization failure.
GAMMA_REFERENCE_TEXT: dict[str, str] = {
    "1": "l{(0)^0} * l{(1)^0} + l{(25)^0} * l{(34)^0}"
         " - l{(24)^0} * l{(35)^0} + l{(23)^0} * l{(45)^0}",
    "2": "-l{(0)^0} * l{(2)^0} - l{(15)^0} * l{(34)^0}"
         " + l{(14)^0} * l{(35)^0} - l{(13)^0} * l{(45)^0}",
    "3": "l{(0)^0} * l{(3)^0} + l{(15)^0} * l{(24)^0}"
         " - l{(14)^0} * l{(25)^0} + l{(12)^0} * l{(45)^0}",
    "4": "-l{(0)^0} * l{(4)^0} - l{(15)^0} * l{(23)^0}"
         " + l{(13)^0} * l{(25)^0} - l{(12)^0} * l{(35)^0}",
    "5": "l{(0)^0} * l{(5)^0} + l{(14)^0} * l{(23)^0}"
         " - l{(13)^0} * l{(24)^0} + l{(12)^0} * l{(34)^0}",
    "1*": "-l{(2)^0} * l{(12)^0} + l{(3)^0} * l{(13)^0}"
          " - l{(4)^0} * l{(14)^0} + l{(5)^0} * l{(15)^0}",
    "2*": "-l{(1)^0} * l{(12)^0} + l{(3)^0} * l{(23)^0}"
          " - l{(4)^0} * l{(24)^0} + l{(5)^0} * l{(25)^0}",
    "3*": "-l{(1)^0} * l{(13)^0} + l{(2)^0} * l{(23)^0}"
          " - l{(4)^0} * l{(34)^0} + l{(5)^0} * l{(35)^0}",
    "4*": "-l{(1)^0} * l{(14)^0} + l{(2)^0} * l{(24)^0}"
          " - l{(3)^0} * l{(34)^0} + l{(5)^0} * l{(45)^0}",
    "5*": "-l{(1)^0} * l{(15)^0} + l{(2)^0} * l{(25)^0}"
          " - l{(3)^0} * l{(35)^0} + l{(4)^0} * l{(45)^0}",
}


def _generic_even() -> dict:
    """A generic even element Σ_α λ^α θ_α with polynomial coordinates."""
    return {(_TAG_SUBSET[t], 0): pr.lam((t, 0)) for t in TAGS}


def _wedge(a: dict, b: dict) -> dict:
    """a ∧ b, from θ_S z^r ∧ b = z^r v_{s₁}(v_{s₂}(⋯ v_{s_k}(b))), s₁ < ⋯ < s_k."""
    acc: dict = {}
    for (sub, lvl), c in a.items():
        y = z_shift(b, lvl)
        for i in sorted(sub, reverse=True):
            y = clifford_apply(f"v{i}", y)
        acc = _add(acc, {s: c * d for s, d in y.items()})
    return acc


def _tau(a: dict) -> dict:
    """The main anti-involution: multiply degree-k pieces by (-1)^(k(k-1)/2)."""
    out = {}
    for (sub, lvl), c in a.items():
        k = len(sub)
        sign = -1 if (k * (k - 1) // 2) % 2 else 1
        out[(sub, lvl)] = sign * c
    return out


@lru_cache(maxsize=1)
def gamma_quadrics() -> dict[str, Poly]:
    """The ten defining quadrics, from wedge pairings of a generic spinor.

    Γ^m  is half the top-wedge coefficient of  u ∧ v_m ∧ u,   and
    Γ^m* is half the top-wedge coefficient of  τ(u) ∧ (v*_m ⌟ u),
    where u = Σ_α λ^α θ_α.  The result is verified against the hardcoded
    expanded reference list; a mismatch raises (sign-normalization failure).

    Γ^m is built *untwisted*: the anti-involution τ that Γ^m* applies to its
    left factor is left out, and only this reproduces the printed list.  In
    this module's basis the printed quadrics are therefore not the
    Spin(10)-invariant pairing.  Their span is stable under none of the
    fifteen Clifford products e_ie_j and e_ie_je_ke_l, and Γ^5 = 2 on the
    pure spinor (1 + v₁∧v₂)∧(1 + v₃∧v₄) = θ_(0) + θ_(12) + θ_(34) + θ_(5).
    Negating the five 4-form basis vectors θ_(k) makes all ten vanish
    there; building Γ^m as τ(u) ∧ v_m ∧ u makes the span stable under all
    fifteen products, u included.  The printed quadrics and the printed u
    table (:data:`_U_REFERENCE`) thus use opposite sign conventions for the
    θ_(k); see :func:`u_stability_check`.
    """
    u = _generic_even()
    top = (FULL, 0)
    out: dict[str, Poly] = {}
    half = Fraction(1, 2)
    for m in range(1, 6):
        g = _wedge(u, clifford_apply(f"v{m}", u)).get(top, Poly.zero())
        out[str(m)] = half * g
        g = _wedge(_tau(u), clifford_apply(f"v{m}*", u)).get(top, Poly.zero())
        out[f"{m}*"] = half * g
    for s, text in GAMMA_REFERENCE_TEXT.items():
        if out[s] != pr.parse_poly(text):
            raise RuntimeError(f"sign-normalization failure for quadric {s}")
    return out


def pfaffian_minor(i: int) -> Poly:
    """Pfaffian of the skew 4×4 block on rows/columns {1..5} minus i,
    with entries w_ab = λ^(ab):  w_ab w_cd − w_ac w_bd + w_ad w_bc
    for a<b<c<d.

    Paper content kept as API: Γ^i = ±(λ^(0) λ^(i) + pfaffian_minor(i)) is
    the paper's form of the first five quadrics, which the tests check
    against :func:`gamma_quadrics`; nothing in the package calls it.
    """
    a, b, c, d = sorted(set(range(1, 6)) - {i})

    def w(x, y):
        return pr.lam((f"({x}{y})", 0))

    return w(a, b) * w(c, d) - w(a, c) * w(b, d) + w(a, d) * w(b, c)


def gamma_coeff(s: str, alpha: Weight, beta: Weight) -> int | Fraction:
    """Symmetric-matrix entry Γ^s_{αβ} with Γ^s = Σ_{α,β} Γ^s_{αβ} λ^α λ^β.

    For α ≠ β this is half the coefficient of the monomial λ^α λ^β (the
    ordered double sum counts it twice); on the diagonal it is the
    coefficient of (λ^α)² (always zero for these quadrics).  The half is a
    ``Fraction``, never a float; a zero entry is the int 0.

    >>> gamma_coeff("5", ("(14)", 0), ("(23)", 0))
    Fraction(1, 2)
    """
    c = gamma_quadrics()[s][pr.monomial_from_weights([alpha, beta])]
    return c if alpha == beta or not c else Fraction(c, 2)


def gamma_monomial_coeff(s: str, alpha: Weight, beta: Weight) -> int:
    """Full coefficient of the monomial λ^α λ^β in Γ^s (twice gamma_coeff
    off the diagonal); the Fierz tables are written with these ±1 entries."""
    return gamma_quadrics()[s][pr.monomial_from_weights([alpha, beta])]


@lru_cache(maxsize=512)
def gamma_affine(s: str, l: int, window: tuple[int, int]) -> Poly:
    """Mode l of the affinized quadric Γ^{s^l}, projected to a level window.

    Each monomial c·λ^α λ^β of Γ^s spawns c·λ^{α^{l₁}} λ^{β^{l₂}} for every
    integer split l₁ + l₂ = l; the projection keeps the splits with both
    levels inside [window[0], window[1]].  Modes outside [2·lo, 2·hi]
    project to zero.  Cached and shared (do not mutate): a window of w levels
    asks for 10·(4w − 3) arguments (130 for 0..3), so 512 fit 13 levels.
    """
    lo, hi = window
    g = gamma_quadrics()[s]
    acc: dict = {}
    for mono, c in g.coeffs.items():
        (a, _), (b, _) = ((wl.weight_from_apos(k), e) for k, e in mono)
        for l1 in range(max(lo, l - hi), min(hi, l - lo) + 1):
            m = pr.monomial_from_weights([(a[0], l1), (b[0], l - l1)])
            acc[m] = acc[m] + c if m in acc else c
    return Poly._of(acc)


# ------------------------------------------------------- Fierz identities


@lru_cache(maxsize=1)
def fierz_identities() -> dict[str, dict[str, Poly]]:
    """The sixteen bilinear elements h_α = Σ_{s,β} c^s_{αβ} λ^β x_{dual(s)}.

    Coefficients c^s_{αβ} are the full monomial coefficients of Γ^s (twice
    the symmetric entries, all ±1 here).  Returned as
    ``{α-tag: {s-label: coefficient polynomial of x_s}}``.  The exact
    substitution x_s → Γ^s is verified to vanish for every α; a nonzero
    residue raises.
    """
    gammas = gamma_quadrics()
    out: dict[str, dict[str, Poly]] = {}
    for a in TAGS:
        alpha = (a, 0)
        comps: dict[str, Poly] = {}
        for s in GAMMA_LABELS:
            coeff = Poly.zero()
            for b in TAGS:
                c = gamma_monomial_coeff(s, alpha, (b, 0))
                if c:
                    coeff = coeff + c * pr.lam((b, 0))
            if not coeff.is_zero():
                comps[dual_label(s)] = coeff
        residue = Poly.zero()
        for s, coeff in comps.items():
            residue = residue + coeff * gammas[s]
        if not residue.is_zero():
            raise RuntimeError(f"Fierz residue for {a} is nonzero")
        out[a] = comps
    return out


def affine_fierz_terms(
    alpha_tag: str, k: int, window: tuple[int, int]
) -> list[tuple[int, Weight, tuple[str, int]]]:
    """Window terms of h_{α^k}: triples (c, β^{l'}, (s, l)) with l + l' = k.

    Only variables λ^{β^{l'}} with l' inside the window are kept; the
    placeholder modes (s, l) range over l = k − l'.
    """
    lo, hi = window
    terms: list[tuple[int, Weight, tuple[str, int]]] = []
    fin = fierz_identities()[alpha_tag]
    for s, coeff in fin.items():
        base = {wl.weight_from_apos(key)[0]: c
                for mono, c in coeff.coeffs.items()
                for key, _ in mono}
        for b, c in sorted(base.items()):
            for lp in range(lo, hi + 1):
                terms.append((c, (b, lp), (s, k - lp)))
    return terms


def affine_fierz(alpha_tag: str, k: int, window: tuple[int, int]) -> Poly:
    """Residue of h_{α^k} after substituting x_{s^l} → Γ^{s^l} on the window.

    The result is the zero polynomial whenever the window holds every
    contributing variable; a nonzero residue signals a truncated window and
    is returned for inspection rather than silently discarded.  The terms
    c·λ^{β^{l'}}·Γ^{s^l} are summed into one dict, wrapped once.
    """
    residue: dict = {}
    for c, bw, (s, l) in affine_fierz_terms(alpha_tag, k, window):
        var = ((wl.apos(bw), 1),)
        for mono, g in gamma_affine(s, l, window).coeffs.items():
            m = pr.monomial_mul(var, mono)
            residue[m] = residue[m] + c * g if m in residue else c * g
    return Poly._of(residue)


# --------------------------------------------------------- automorphism u


# the eight table rows fixed by the reference; the remaining eight follow
# from u² = 1
_U_REFERENCE = {
    "(0)": (1, "(1)"), "(12)": (-1, "(2)"), "(13)": (1, "(3)"),
    "(14)": (-1, "(4)"), "(15)": (1, "(5)"), "(23)": (-1, "(45)"),
    "(24)": (1, "(35)"), "(25)": (-1, "(34)"),
}


@lru_cache(maxsize=1)
def automorphism_u() -> dict[str, tuple[int, str]]:
    """The involution u = e₂e₃e₄e₅ with e_i = v_i + v_i* (at parameter 1).

    Computed on all sixteen weight lines; returns ``{tag: (sign, tag')}``
    with u θ_tag = sign · θ_tag'.  Hard-checked: u is an involution, the
    tag permutation matches the order-reversing table, and the eight
    reference signs hold.
    """
    table: dict[str, tuple[int, str]] = {}
    for t in TAGS:
        x = theta((t, 0))
        for i in (5, 4, 3, 2):
            x = _add(clifford_apply(f"v{i}", x), clifford_apply(f"v{i}*", x))
        if len(x) != 1:
            raise RuntimeError(f"u does not preserve the weight line {t}")
        (state, coeff), = x.items()
        if coeff not in (1, -1):
            raise RuntimeError(f"u scales {t} by {coeff}")
        table[t] = (coeff, state_weight(state)[0])
    for t, (sign, t2) in table.items():
        if t2 != wl.U_TAG[t]:
            raise RuntimeError(f"u permutation mismatch at {t}")
        sign2, t3 = table[t2]
        if t3 != t or sign * sign2 != 1:
            raise RuntimeError(f"u is not an involution at {t}")
    for t, ref in _U_REFERENCE.items():
        if table[t] != ref:
            raise RuntimeError(f"u table mismatch at {t}: {table[t]} != {ref}")
    return table


def u_substitute(f: Poly, table: dict[str, tuple[int, str]] | None = None) -> Poly:
    """Pullback of a level-0 polynomial along u: λ^γ ↦ sign(γ)·λ^{u(γ)}.

    ``table`` overrides the sign table (same shape as ``automorphism_u()``);
    by default the computed table is used.
    """
    if table is None:
        table = automorphism_u()
    acc = Poly.zero()
    for mono, coeff in f.coeffs.items():
        keys = []
        for key, e in mono:
            tag, lvl = wl.weight_from_apos(key)
            if lvl != 0:
                raise ValueError("u acts on level-0 variables only")
            sign, tag2 = table[tag]
            coeff *= sign ** e
            keys.extend([wl.apos((tag2, 0))] * e)
        acc = acc + pr.monomial_poly(pr.monomial(keys), coeff)
    return acc


_U_REPAIR_ORBIT = ("(0)", "(1)")

# one tag per u-orbit {t, u(t)} of weight lines: the column-0 tags
_U_ORBIT_REPS = ("(0)", "(12)", "(13)", "(14)", "(15)", "(23)", "(24)", "(25)")


def u_stability_check() -> dict:
    """Examine how the substitution induced by u acts on the quadric span.

    The returned report keeps every measurement separate instead of
    reconciling them:

    - ``rank`` / ``stable``: rank of the 20 stacked coefficient rows
      {Γ^s} ∪ {u*Γ^s} using the as-computed sign table (the span is
      u-stable exactly when the rank is 10).
    - ``sign_parity`` / ``stable_parity`` / ``stable_tables``: the
      product of the eight weight-line-orbit signs of the computed table,
      and the product shared by every span-stable sign table with this tag
      permutation.  ``stable_parity`` is measured: all 2⁸ orbit-sign
      tables are enumerated, ``stable_tables`` counts the span-stable
      ones, and a RuntimeError is raised unless they exist and share one
      parity.  When the two parities differ, no table matching all eight
      reference rows can be span-stable — flipping an odd number of orbit
      signs is required.
    - ``repaired_orbit`` / ``repaired_rank`` / ``repaired_stable`` /
      ``repaired_exact``: the same rank computation after flipping the
      sign on the single orbit ((0),(1)); ``repaired_exact`` records
      whether, under that flip, every pullback lands exactly on its dual:
      u*Γ^s = Γ^{dual(s)}.
    """
    gammas = gamma_quadrics()
    table = automorphism_u()
    monos: dict = {}

    def row(f: Poly):
        out = {}
        for mono, c in f.coeffs.items():
            idx = monos.setdefault(mono, len(monos))
            out[idx] = c
        return out

    def stacked_rank(tab) -> int:
        rows = [row(gammas[s]) for s in GAMMA_LABELS]
        rows += [row(u_substitute(gammas[s], tab)) for s in GAMMA_LABELS]
        return pr.sparse_rank(rows)

    rank = stacked_rank(table)
    parity = math.prod(table[t][0] for t in _U_ORBIT_REPS)
    # u² = 1 forces both lines of an orbit to carry the same sign
    stable_parities = []
    for signs in itertools.product((1, -1), repeat=len(_U_ORBIT_REPS)):
        orbit_sign = dict(zip(_U_ORBIT_REPS, signs))
        tab = {t: (orbit_sign[t if t in orbit_sign else t2], t2)
               for t, (_, t2) in table.items()}
        if stacked_rank(tab) == len(GAMMA_LABELS):
            stable_parities.append(math.prod(signs))
    if len(set(stable_parities)) != 1:
        raise RuntimeError(
            f"span-stable sign tables have parities {sorted(set(stable_parities))}"
        )
    repaired = {
        t: (-s if t in _U_REPAIR_ORBIT else s, t2)
        for t, (s, t2) in table.items()
    }
    repaired_rank = stacked_rank(repaired)
    # u fixes the z₁ axis and inverts z₂..z₅, so the quadric lines for
    # index 1 are fixed while indices 2..5 swap with their duals
    u_image = {s: (s if s.rstrip("*") == "1" else dual_label(s))
               for s in GAMMA_LABELS}
    repaired_exact = all(
        u_substitute(gammas[s], repaired) == gammas[u_image[s]]
        for s in GAMMA_LABELS
    )
    return {
        "rank": rank,
        "stable": rank == len(GAMMA_LABELS),
        "sign_parity": parity,
        "stable_parity": stable_parities[0],
        "stable_tables": len(stable_parities),
        "repaired_orbit": list(_U_REPAIR_ORBIT),
        "repaired_rank": repaired_rank,
        "repaired_stable": repaired_rank == len(GAMMA_LABELS),
        "repaired_exact": repaired_exact,
    }


# ------------------------------------------------------------- Weyl groups


@dataclass(frozen=True)
class SignedPermutation:
    """Element (σ, ε, m) of S₅ ⋉ (Z₂)⁵even ⋉ Z⁵even acting on N̂ = N × Z by

        (σ, ε, m)(η, n) = (σ(ε + η),  n − ½ Σ_i (−1)^{η_i} m_i).

    `perm` lists the images of positions 1..5; `eps` must have even sum and
    `trans` even coordinate sum (the coroot lattice).
    """

    perm: tuple[int, int, int, int, int] = (1, 2, 3, 4, 5)
    eps: tuple[int, int, int, int, int] = (0, 0, 0, 0, 0)
    trans: tuple[int, int, int, int, int] = (0, 0, 0, 0, 0)

    def __post_init__(self):
        if sorted(self.perm) != [1, 2, 3, 4, 5]:
            raise ValueError("perm must be a permutation of 1..5")
        if any(e not in (0, 1) for e in self.eps) or sum(self.eps) % 2:
            raise ValueError("eps must be a Z2 vector with even sum")
        if sum(self.trans) % 2:
            raise ValueError("translation must have even coordinate sum")

    def apply(self, node):
        eta, n = node
        flipped = tuple((a + b) % 2 for a, b in zip(self.eps, eta))
        moved = [0] * 5
        for i in range(5):
            moved[self.perm[i] - 1] = flipped[i]
        twice = sum((-1 if eta[i] else 1) * self.trans[i] for i in range(5))
        if twice % 2:
            raise AssertionError("level shift is not integral")
        return (tuple(moved), n - twice // 2)


S1 = SignedPermutation(perm=(2, 1, 3, 4, 5))
S2 = SignedPermutation(eps=(1, 1, 0, 0, 0))
S3 = SignedPermutation(perm=(1, 3, 2, 4, 5))
S4 = SignedPermutation(perm=(1, 2, 4, 3, 5))
S5 = SignedPermutation(perm=(1, 2, 3, 5, 4))
S6 = SignedPermutation(perm=(1, 2, 3, 5, 4), eps=(0, 0, 0, 1, 1),
                       trans=(0, 0, 0, 1, 1))

FINITE_GENERATORS = (S1, S2, S3, S4, S5)
AFFINE_GENERATORS = (S1, S2, S3, S4, S5, S6)


def psi(w: Weight):
    """The equivariant vertex encoding: (0)↦00000, (ij)↦e_i+e_j, (k)↦1−e_k,
    paired with the loop level."""
    tag, level = w
    digits = tag.strip("()")
    v = [0] * 5
    if len(digits) == 2:
        v[int(digits[0]) - 1] = 1
        v[int(digits[1]) - 1] = 1
    elif digits != "0":
        v = [1] * 5
        v[int(digits) - 1] = 0
    return (tuple(v), level)


def weyl_graph(generators, carrier):
    """Edge set of Q(X, s₁…s_k): vertices x ≠ s_i·x joined when both lie in
    the carrier.  Returns sorted unordered pairs of nodes."""
    nodes = set(carrier)
    edges = set()
    for x in nodes:
        for g in generators:
            y = g.apply(x)
            if y != x and y in nodes:
                edges.add(frozenset((x, y)))
    return sorted(tuple(sorted(e)) for e in edges)


def weyl_hasse_check(window: tuple[int, int]) -> dict:
    """Compare Q(N̂ window, s₁..s₆) with the undirected cover diagram.

    Raises on isomorphism failure (the identification is ψ, label for
    label) and reports edge counts otherwise.
    """
    lo, hi = window
    weights = [(t, lvl) for lvl in range(lo, hi + 1) for t in TAGS]
    carrier = [psi(w) for w in weights]
    edges = weyl_graph(AFFINE_GENERATORS, carrier)
    expected = sorted(
        tuple(sorted((psi(a), psi(b)))) for a, b in wl.affine_covers(window)
    )
    if edges != expected:
        raise RuntimeError("Q(N̂, s₁..s₆) is not the undirected cover diagram")
    finite_edges = weyl_graph(FINITE_GENERATORS, carrier)
    return {
        "nodes": len(carrier),
        "edges": len(edges),
        "finite_only_edges": len(finite_edges),
    }


def weyl_orbit_check(window: tuple[int, int] = (0, 1), slack: int = 2) -> dict:
    """Check that every clutter lies in a single orbit on unordered pairs.

    Finite part: the orbit of ψ((14)^0),ψ((23)^0) under s₁..s₅ contains the
    ψ-image of all ten incomparable pairs of E.  Affine part: the orbit of
    ψ((14)^lo),ψ((23)^lo) under s₁..s₆, explored inside the window widened
    by `slack` levels, contains the ψ-image of every clutter of
    [ (0)^lo, (1)^hi ].
    """
    lo, hi = window

    def orbit(gens, level, level_ok):
        start = frozenset((psi(("(14)", level)), psi(("(23)", level))))
        images = [(g.apply, {}) for g in gens]  # one node-image memo per generator
        seen = {start}
        stack = [start]
        while stack:
            pair = stack.pop()
            for apply, memo in images:
                img = frozenset(
                    memo[x] if x in memo else memo.setdefault(x, apply(x)) for x in pair
                )
                if len(img) == 2 and img not in seen:
                    if all(level_ok(x) for x in img):
                        seen.add(img)
                        stack.append(img)
        return seen

    finite_orbit = orbit(FINITE_GENERATORS, 0, lambda x: x[1] == 0)
    m_pairs = {
        frozenset((psi(a), psi(b)))
        for a, b in wl.clutters(wl.interval(("(0)", 0), ("(1)", 0)))
    }
    affine_orbit = orbit(
        AFFINE_GENERATORS, lo, lambda x: lo - slack <= x[1] <= hi + slack
    )
    window_clutters = {
        frozenset((psi(a), psi(b)))
        for a, b in wl.clutters(wl.interval(("(0)", lo), ("(1)", hi)))
    }
    l_image = {
        tuple((u + v) % 2 for u, v in zip(a[0], b[0]))
        for a, b in (tuple(p) for p in m_pairs)
    }
    five = {tuple(1 if i != k else 0 for i in range(5)) for k in range(5)}
    return {
        "finite_orbit_size": len(finite_orbit),
        "finite_ok": m_pairs <= finite_orbit,
        "affine_orbit_size": len(affine_orbit),
        "affine_ok": window_clutters <= affine_orbit,
        "l_image_ok": l_image == five,
    }

