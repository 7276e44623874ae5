"""Tests for spinlaw.spinalg.

The golden data in tests/golden/spin_tables.json was typed from the printed
reference tables; everything here is checked against it or against
independent structural oracles (Clifford relations, Pfaffian expansions,
torus-weight bookkeeping, the signed-permutation model of the Weyl group).
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinlaw.polyring as pr
import spinlaw.weightlattice as wl
from spinlaw import spinalg as sa

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "spin_tables.json").read_text()
)

ALL_SUBSETS = [
    frozenset(c)
    for r in range(6)
    for c in itertools.combinations(range(1, 6), r)
]


def tw_mul(a, b):
    """Product of torus weights: the componentwise exponent sum."""
    return tuple(x + y for x, y in zip(a, b))


def tw_inv(a):
    """Inverse of a torus weight: the negated exponents."""
    return tuple(-x for x in a)


# ------------------------------------------------------------ Clifford model


def test_clifford_anticommutation_on_all_states():
    assert len(ALL_SUBSETS) == 32

    def anti(g, h, x):
        return sa._add(
            sa.clifford_apply(g, sa.clifford_apply(h, x)),
            sa.clifford_apply(h, sa.clifford_apply(g, x)),
        )

    for sub in ALL_SUBSETS:
        x = sa.fock_basis(sub)
        for i in range(1, 6):
            for j in range(1, 6):
                assert anti(f"v{i}", f"v{j}", x) == {}
                assert anti(f"v{i}*", f"v{j}*", x) == {}
                mixed = anti(f"v{i}", f"v{j}*", x)
                assert mixed == (x if i == j else {})


def test_clifford_examples():
    assert sa.clifford_apply("v1", sa.fock_basis(())) == sa.fock_basis({1})
    assert sa.clifford_apply("v1*", sa.fock_basis({1, 2})) == sa.fock_basis({2})
    # contracting v2 out of v1∧v2 hops over v1: sign -1
    assert sa.clifford_apply("v2*", sa.fock_basis({1, 2})) == {(frozenset({1}), 0): -1}
    assert sa.clifford_apply("v2", sa.fock_basis({1, 2})) == {}
    assert sa.clifford_apply("v3", sa.fock_basis({1, 2})) == sa.fock_basis({1, 2, 3})
    with pytest.raises(ValueError):
        sa.clifford_apply("v6", sa.fock_basis(()))


def test_fock_state_helpers():
    th = sa.theta(("(13)", 2))
    assert th == {(frozenset({1, 3}), 2): 1}
    assert sa.state_weight((frozenset({1, 3}), 2)) == ("(13)", 2)
    assert sa.state_weight((frozenset(), -1)) == ("(0)", -1)
    with pytest.raises(ValueError):
        sa.state_weight((frozenset({1}), 0))  # odd subsets are not weight lines
    assert sa.z_shift(th, -2) == sa.theta(("(13)", 0))
    assert sa.dual_label("3") == "3*" and sa.dual_label("3*") == "3"


@given(
    st.lists(
        st.tuples(
            st.frozensets(st.integers(1, 5)),
            st.integers(-2, 2),
            st.integers(-3, 3),
        ),
        max_size=4,
    ),
    st.integers(1, 5),
    st.integers(1, 5),
    st.booleans(),
)
def test_anticommutation_on_random_elements(parts, i, j, poly_coeffs):
    # int coefficients (the Fock model) or Poly coefficients (the generic
    # spinor of gamma_quadrics); terms that cancel must be dropped
    coords: dict = {}
    for sub, lvl, c in parts:
        key = (sub, lvl)
        coords[key] = coords.get(key, 0) + c
    x = {
        (sub, lvl): c * pr.lam(("(12)", lvl)) if poly_coeffs else c
        for (sub, lvl), c in coords.items()
        if c
    }
    gi, gj = f"v{i}", f"v{j}*"
    mixed = sa._add(
        sa.clifford_apply(gi, sa.clifford_apply(gj, x)),
        sa.clifford_apply(gj, sa.clifford_apply(gi, x)),
    )
    assert mixed == (x if i == j else {})


# ------------------------------------------------------------ root operators


def test_generate_hasse_finite():
    edges = sa.generate_hasse((0, 0))
    assert len(edges) == 20
    for (src, dst), (op, coeff) in edges.items():
        assert coeff == 1
        assert 1 <= op <= 6
        assert wl.ht(dst) == wl.ht(src) + 1


def test_generate_hasse_window_and_crossings():
    edges = sa.generate_hasse((0, 1))
    assert len(edges) == 44
    cross = {e: v for e, v in edges.items() if e[0][1] != e[1][1]}
    assert set(cross) == {
        (("(45)", 0), ("(0)", 1)),
        (("(3)", 0), ("(12)", 1)),
        (("(2)", 0), ("(13)", 1)),
        (("(1)", 0), ("(23)", 1)),
    }
    for op, coeff in cross.values():
        assert op == 6 and coeff == 1


def test_generate_hasse_empty_window():
    assert sa.generate_hasse((1, 0)) == {}


# ------------------------------------------------------------------ quadrics


def test_quadrics_match_reference():
    gammas = sa.gamma_quadrics()
    assert set(gammas) == set(sa.GAMMA_LABELS) == set(GOLDEN["quadrics"])
    for s, text in GOLDEN["quadrics"].items():
        assert gammas[s] == pr.parse_poly(text), s
        assert len(gammas[s].coeffs) == 4
        assert all(len(m) == 2 for m in gammas[s].coeffs)
        assert all(c in (1, -1) for c in gammas[s].coeffs.values())


def wedge(a, b):
    """The full a ∧ b, from θ_S z^r ∧ b = z^r v_{s₁}(v_{s₂}(⋯ v_{s_k}(b))),
    s₁ < ⋯ < s_k: every component, as the quadrics were once read off."""
    acc: dict = {}
    for (sub, lvl), c in a.items():
        y = sa.z_shift(b, lvl)
        for i in sorted(sub, reverse=True):
            y = sa.clifford_apply(f"v{i}", y)
        acc = sa._add(acc, {s: c * d for s, d in y.items()})
    return acc


def test_top_wedge_is_the_top_component_on_the_quadric_inputs():
    u, zero = sa._generic_even(), pr.Poly.zero()
    for m in range(1, 6):
        for a, b in ((u, sa.clifford_apply(f"v{m}", u)),
                     (sa._tau(u), sa.clifford_apply(f"v{m}*", u))):
            top = sa._top_wedge(a, b, zero)
            assert top == wedge(a, b).get((sa.FULL, 0), zero) and len(top.coeffs) == 4


def elements(subsets=ALL_SUBSETS):
    """Elements of ΛW[z, z⁻¹] with int coefficients, levels −1..1."""
    return st.dictionaries(
        st.tuples(st.sampled_from(subsets), st.integers(-1, 1)),
        st.integers(-3, 3).filter(bool), max_size=8)


EVEN_SUBSETS = [sub for sub in ALL_SUBSETS if len(sub) % 2 == 0]


@settings(max_examples=200, deadline=None)
@given(elements(EVEN_SUBSETS), elements(EVEN_SUBSETS),
       st.sampled_from([f"v{i}{star}" for i in range(1, 6) for star in ("", "*")]),
       st.booleans(), elements(), elements())
def test_top_wedge_is_the_top_component_on_random_even_elements(x, y, gen, twist, a, b):
    # the quadrics' shape (even, twisted or not, by a generator on even),
    # and any two elements
    top = (sa.FULL, 0)
    u, v = sa._tau(x) if twist else x, sa.clifford_apply(gen, y)
    assert sa._top_wedge(u, v) == wedge(u, v).get(top, 0)
    assert sa._top_wedge(a, b) == wedge(a, b).get(top, 0)
    # two even elements have no top component
    assert sa._top_wedge(x, y) == 0 == wedge(x, y).get(top, 0)


def test_quadrics_pfaffian_route():
    lam0 = pr.lam(("(0)", 0))
    for i in range(1, 6):
        sign = 1 if i % 2 else -1
        expected = sign * (lam0 * pr.lam((f"({i})", 0)) + sa.pfaffian_minor(i))
        assert sa.gamma_quadrics()[str(i)] == expected, i


def test_quadric_monomials_share_torus_weight():
    for s in sa.GAMMA_LABELS:
        g = sa.gamma_quadrics()[s]
        seen = set()
        for mono in g.coeffs:
            acc = (0,) * 6
            for w in pr.monomial_weights(mono):
                acc = tw_mul(acc, wl.torus_weight(w))
            seen.add(acc)
        i = int(s.rstrip("*"))
        sign = 2 if s.endswith("*") else -2
        expect = tuple(sign if k == i - 1 else 0 for k in range(5)) + (0,)
        assert seen == {expect}, s


def test_quadric_clutter_and_meet_join_terms():
    iv = wl.interval(("(0)", 0), ("(1)", 0))
    clutter_set = {frozenset(p) for p in wl.clutters(iv)}
    assert len(clutter_set) == 10
    used = set()
    for s in sa.GAMMA_LABELS:
        g = sa.gamma_quadrics()[s]
        cl = [
            m
            for m in g.coeffs
            if frozenset(pr.monomial_weights(m)) in clutter_set
        ]
        assert len(cl) == 1, s
        used.add(frozenset(pr.monomial_weights(cl[0])))
        a, b = pr.monomial_weights(cl[0])
        lo, hi = wl.meet(a, b), wl.join(a, b)
        partners = [
            m for m in g.coeffs if set(pr.monomial_weights(m)) == {lo, hi}
        ]
        assert len(partners) == 1, s
        # straightening shape: the clutter term is the tip and the
        # meet-join term carries the opposite sign
        assert pr.tip(g) == cl[0], s
        assert g[cl[0]] == -g[partners[0]], s
    assert used == clutter_set  # quadrics <-> clutters is a bijection


def test_gamma_coeff_convention():
    half = Fraction(1, 2)
    assert sa.gamma_coeff("1", ("(0)", 0), ("(1)", 0)) == half
    assert sa.gamma_coeff("1", ("(1)", 0), ("(0)", 0)) == half
    assert sa.gamma_coeff("1", ("(12)", 0), ("(13)", 0)) == 0
    assert sa.gamma_coeff("1", ("(0)", 0), ("(0)", 0)) == 0
    # the full ±1 coefficient of the monomial, twice gamma_coeff off the diagonal
    assert sa.gamma_quadrics()["5"][pr.monomial_from_weights([("(14)", 0), ("(23)", 0)])] == 1
    assert sa.gamma_quadrics()["5"][pr.monomial_from_weights([("(13)", 0), ("(24)", 0)])] == -1
    # every entry is an exact ±½ off the diagonal or an int 0, never a float
    for s in sa.GAMMA_LABELS:
        for a in wl.TAGS:
            for b in wl.TAGS:
                c = sa.gamma_coeff(s, (a, 0), (b, 0))
                assert (type(c) is int and c == 0) or (
                    type(c) is Fraction and a != b and c in (half, -half)), (s, a, b, c)
    # the symmetric matrix reassembles the quadric via the ordered double sum
    for s in ("3", "4*"):
        acc = pr.Poly.zero()
        for a in wl.TAGS:
            for b in wl.TAGS:
                c = sa.gamma_coeff(s, (a, 0), (b, 0))
                if c:
                    acc = acc + pr.monomial_poly(
                        pr.monomial_from_weights([(a, 0), (b, 0)]), c
                    )
        assert acc == sa.gamma_quadrics()[s], s


# ----------------------------------------------------------- affinized modes

# Mode 2n of Γ^s: (clutter sign, clutter pair, meet-join sign, mj pair),
# all four weights at level n.
EVEN_TIPS = {
    "1": (1, ("(25)", "(34)"), -1, ("(24)", "(35)")),
    "2": (-1, ("(15)", "(34)"), 1, ("(14)", "(35)")),
    "3": (1, ("(15)", "(24)"), -1, ("(14)", "(25)")),
    "4": (-1, ("(15)", "(23)"), 1, ("(13)", "(25)")),
    "5": (1, ("(14)", "(23)"), -1, ("(13)", "(24)")),
    "1*": (1, ("(5)", "(15)"), -1, ("(4)", "(14)")),
    "2*": (1, ("(5)", "(25)"), -1, ("(4)", "(24)")),
    "3*": (1, ("(5)", "(35)"), -1, ("(4)", "(34)")),
    "4*": (1, ("(5)", "(45)"), -1, ("(3)", "(34)")),
    "5*": (1, ("(4)", "(45)"), -1, ("(3)", "(35)")),
}

# Mode 2n+1 of Γ^i: clutter λ^{(0)^{n+1}} λ^{(i)^n}, meet-join pair
# (X^{n+1}, Y^n).
ODD_TIPS = {
    "1": (1, 1, ("(23)", "(45)")),
    "2": (-1, -1, ("(13)", "(45)")),
    "3": (1, 1, ("(12)", "(45)")),
    "4": (-1, -1, ("(12)", "(35)")),
    "5": (1, 1, ("(12)", "(34)")),
}

# Mode 2n+1 of Γ^{i*}: clutter -λ^{(a)^n} λ^{(ab)^{n+1}}, meet-join
# +λ^{(c)^n} λ^{(cd)^{n+1}}.
ODD_STAR_TIPS = {
    "1*": (("(2)", "(12)"), ("(3)", "(13)")),
    "2*": (("(1)", "(12)"), ("(3)", "(23)")),
    "3*": (("(1)", "(13)"), ("(2)", "(23)")),
    "4*": (("(1)", "(14)"), ("(2)", "(24)")),
    "5*": (("(1)", "(15)"), ("(2)", "(25)")),
}


def test_gamma_affine_even_tips():
    for n in (0, 1):
        window = (0, max(n, 1))
        for s, (c_cl, (A, B), c_mj, (C, D)) in EVEN_TIPS.items():
            g = sa.gamma_affine(s, 2 * n, window)
            cl = pr.monomial_from_weights([(A, n), (B, n)])
            mj = pr.monomial_from_weights([(C, n), (D, n)])
            assert g[cl] == c_cl, (s, n)
            assert g[mj] == c_mj, (s, n)
            assert pr.tip(g) == cl, (s, n)
            a, b = (A, n), (B, n)
            assert {wl.meet(a, b), wl.join(a, b)} == {(C, n), (D, n)}, (s, n)


def test_gamma_affine_odd_tips():
    for n in (0, 1):
        window = (0, n + 1)
        for i_str, (c_cl, c_mj, (X, Y)) in ODD_TIPS.items():
            g = sa.gamma_affine(i_str, 2 * n + 1, window)
            a, b = ("(0)", n + 1), (f"({i_str})", n)
            cl = pr.monomial_from_weights([a, b])
            mj = pr.monomial_from_weights([(X, n + 1), (Y, n)])
            assert g[cl] == c_cl, (i_str, n)
            assert g[mj] == c_mj, (i_str, n)
            assert pr.tip(g) == cl, (i_str, n)
            assert {wl.meet(a, b), wl.join(a, b)} == {(X, n + 1), (Y, n)}
        for s, ((a2, ab), (c2, cd)) in ODD_STAR_TIPS.items():
            g = sa.gamma_affine(s, 2 * n + 1, window)
            a, b = (a2, n), (ab, n + 1)
            cl = pr.monomial_from_weights([a, b])
            mj = pr.monomial_from_weights([(c2, n), (cd, n + 1)])
            assert g[cl] == -1, (s, n)
            assert g[mj] == 1, (s, n)
            assert pr.tip(g) == cl, (s, n)
            assert {wl.meet(a, b), wl.join(a, b)} == {(c2, n), (cd, n + 1)}


def test_gamma_affine_mode_support():
    window = (0, 1)
    assert sa.gamma_affine("3", -1, window).is_zero()
    assert sa.gamma_affine("3", 3, window).is_zero()
    # mode sum over a symmetric window reproduces every finite monomial split
    g = sa.gamma_affine("3", 1, window)
    assert len(g.coeffs) == 8  # four monomials, two admissible splits each


@pytest.mark.parametrize("window", [(0, 3), (5, 7)])
def test_gamma_affine_equals_termwise_sum(window):
    # the one-dict sum against the Poly sum taken one term at a time, for
    # every label and every mode, the two empty modes at the ends included
    lo, hi = window
    for s in sa.GAMMA_LABELS:
        for l in range(2 * lo - 1, 2 * hi + 2):
            ref = pr.Poly.zero()
            for mono, c in sa.gamma_quadrics()[s].coeffs.items():
                a, b = (wl.weight_from_apos(k)[0] for k in mono)
                for l1 in range(lo, hi + 1):
                    if lo <= l - l1 <= hi:
                        ref = ref + pr.monomial_poly(
                            pr.monomial_from_weights([(a, l1), (b, l - l1)]), c
                        )
            g = sa.gamma_affine(s, l, window)
            assert list(g.coeffs.items()) == list(ref.coeffs.items()), (s, l)
            # canonical coefficients: nonzero, and an int unless not integral
            assert all(type(c) is int and c or type(c) is Fraction and c.denominator > 1
                       for c in g.coeffs.values())


# ----------------------------------------------------------- Fierz identities


def test_fierz_match_reference():
    fz = sa.fierz_identities()
    assert set(fz) == set(wl.TAGS) == set(GOLDEN["fierz"])
    for a in wl.TAGS:
        got = {s: pr.format_poly(p) for s, p in fz[a].items()}
        want = {
            s: pr.format_poly(pr.parse_poly(t))
            for s, t in GOLDEN["fierz"][a].items()
        }
        assert got == want, a


def test_fierz_rows_are_unit_monomials():
    for a, comps in sa.fierz_identities().items():
        assert len(comps) == 5, a
        for s, coeff in comps.items():
            assert len(coeff.coeffs) == 1
            ((mono, c),) = coeff.coeffs.items()
            assert len(mono) == 1 and c in (1, -1)


def test_fierz_residue_zero_and_scaling():
    gammas = sa.gamma_quadrics()
    for a, comps in sa.fierz_identities().items():
        residue = pr.Poly.zero()
        scaled = pr.Poly.zero()
        for s, coeff in comps.items():
            residue = residue + coeff * gammas[s]
            scaled = scaled + (2 * coeff) * gammas[s]
        assert residue.is_zero(), a
        assert scaled.is_zero(), a


def test_fierz_torus_weight():
    # every term λ^β x_s of h_α has torus weight inverse to e_α
    for a, comps in sa.fierz_identities().items():
        target = tw_inv(wl.torus_weight((a, 0)))
        for s, coeff in comps.items():
            i = int(s.rstrip("*"))
            sgn = 2 if s.endswith("*") else -2
            xw = tuple(sgn if k == i - 1 else 0 for k in range(5)) + (0,)
            for mono in coeff.coeffs:
                (bw,) = pr.monomial_weights(mono)
                assert tw_mul(wl.torus_weight(bw), xw) == target, (a, s)


def test_affine_fierz_vanishes():
    window = (0, 2)
    for a in wl.TAGS:
        for k in (0, 1, 2, 3):
            assert sa.affine_fierz(a, k, window).is_zero(), (a, k)


def test_affine_fierz_zero_mode_matches_finite():
    for a in wl.TAGS:
        rebuilt: dict[str, pr.Poly] = {}
        for c, (b, lp), (s, l) in sa.affine_fierz_terms(a, 0, (0, 0)):
            assert lp == 0 and l == 0
            rebuilt[s] = rebuilt.get(s, pr.Poly.zero()) + c * pr.lam((b, 0))
        assert rebuilt == dict(sa.fierz_identities()[a]), a


def test_affine_fierz_shift():
    # the loop shift T sends h_{α^k} to h_{α^{k+3}} (one level on the λ
    # variable, two on the quadric mode)
    for a in ("(23)", "(0)", "(4)"):
        base = sa.affine_fierz_terms(a, 1, (0, 1))
        shifted = sa.affine_fierz_terms(a, 4, (1, 2))
        image = sorted(
            (c, (b, lp + 1), (s, l + 2)) for c, (b, lp), (s, l) in base
        )
        assert sorted(shifted) == image, a


# -------------------------------------------------------------- torus weights


def test_torus_weight_examples():
    assert wl.torus_weight(("(0)", 0)) == (-1, -1, -1, -1, -1, 0)
    assert wl.torus_weight(("(12)", 0)) == (1, 1, -1, -1, -1, 0)
    assert wl.torus_weight(("(3)", 2)) == (1, 1, -1, 1, 1, 2)
    a = wl.torus_weight(("(14)", 1))
    assert tw_mul(a, tw_inv(a)) == (0,) * 6


def test_torus_weight_psi_relation():
    # e_α doubles the vertex encoding: a_i = 2ψ(α)_i − 1; both, and the Fock
    # basis, read the one tag → subset table
    assert sorted(wl.TAG_SUBSET) == sorted(wl.TAGS)
    for t in wl.TAGS:
        tv = wl.torus_weight((t, 3))
        node = sa.psi((t, 3))
        assert tv[:5] == tuple(2 * x - 1 for x in node[0])
        assert tv[5] == node[1] == 3
        assert {i + 1 for i, x in enumerate(node[0]) if x} == wl.TAG_SUBSET[t]
        assert sa.theta((t, 0)) == {(wl.TAG_SUBSET[t], 0): 1}


# ------------------------------------------------------------ automorphism u


def test_automorphism_u_matches_reference():
    table = sa.automorphism_u()
    assert set(table) == set(wl.TAGS)
    for t, (sign, img) in GOLDEN["u_table_reference"].items():
        assert table[t] == (sign, img), t
    for t, (sign, img) in table.items():
        s2, back = table[img]
        assert back == t and s2 == sign  # involution with equal orbit signs
        assert wl.ht((img, 0)) == 10 - wl.ht((t, 0))
        assert img == wl.U_TAG[t]


def test_u_substitute_is_ring_map():
    f = pr.lam(("(0)", 0)) + 2 * pr.lam(("(23)", 0))
    g = pr.lam(("(14)", 0)) - pr.lam(("(5)", 0))
    assert sa.u_substitute(f * g) == sa.u_substitute(f) * sa.u_substitute(g)
    assert sa.u_substitute(f + g) == sa.u_substitute(f) + sa.u_substitute(g)
    assert sa.u_substitute(sa.u_substitute(f * g)) == f * g
    with pytest.raises(ValueError):
        sa.u_substitute(pr.lam(("(0)", 1)))


LAM_VARS = st.sampled_from([(t, 0) for t in wl.TAGS])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(LAM_VARS, LAM_VARS, st.integers(-2, 2)), max_size=3
    ),
    st.lists(
        st.tuples(LAM_VARS, LAM_VARS, st.integers(-2, 2)), max_size=3
    ),
)
def test_u_substitute_properties_random(fterms, gterms):
    def build(terms):
        acc = pr.Poly.zero()
        for a, b, c in terms:
            acc = acc + c * (pr.lam(a) * pr.lam(b))
        return acc

    f, g = build(fterms), build(gterms)
    assert sa.u_substitute(f * g) == sa.u_substitute(f) * sa.u_substitute(g)
    assert sa.u_substitute(sa.u_substitute(f)) == f


def test_u_fixes_index_one_quadrics():
    gammas = sa.gamma_quadrics()
    assert sa.u_substitute(gammas["1"]) == gammas["1"]
    assert sa.u_substitute(gammas["1*"]) == gammas["1*"]


def test_u_off_span_residues():
    # under the computed sign table the images of the index-j lines
    # (j = 2..5) miss their duals by a single monomial of coefficient ±2
    gammas = sa.gamma_quadrics()
    for j in range(2, 6):
        diff = sa.u_substitute(gammas[str(j)]) - gammas[f"{j}*"]
        ((mono, c),) = diff.coeffs.items()
        assert abs(c) == 2
        assert set(pr.monomial_weights(mono)) == {("(1)", 0), (f"(1{j})", 0)}
        diff2 = sa.u_substitute(gammas[f"{j}*"]) - gammas[str(j)]
        ((mono2, c2),) = diff2.coeffs.items()
        assert abs(c2) == 2
        assert set(pr.monomial_weights(mono2)) == {("(0)", 0), (f"({j})", 0)}


def test_u_stability_report():
    rep = sa.u_stability_check()
    assert rep["rank"] == 18 and rep["stable"] is False
    assert rep["sign_parity"] == 1 and rep["stable_parity"] == -1
    assert rep["stable_tables"] == 16
    assert rep["repaired_orbit"] == ["(0)", "(1)"]
    assert rep["repaired_rank"] == 10 and rep["repaired_stable"] is True
    assert rep["repaired_exact"] is True


# ------------------------------------------------------- signed permutations


def test_signed_permutation_validation():
    with pytest.raises(ValueError):
        sa.SignedPermutation(perm=(1, 1, 2, 3, 4))
    with pytest.raises(ValueError):
        sa.SignedPermutation(eps=(1, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        sa.SignedPermutation(trans=(1, 0, 0, 0, 0))


def test_psi_roundtrip():
    tag_of = {sa.psi((t, 0))[0]: t for t in wl.TAGS}
    for t in wl.TAGS:
        for lvl in (-1, 0, 2):
            node = sa.psi((t, lvl))
            assert (tag_of[node[0]], node[1]) == (t, lvl)


def test_m_translation_identities():
    m12 = sa.SignedPermutation(trans=(1, 1, 0, 0, 0))  # translation by e_1 + e_2
    assert m12.apply(sa.psi(("(0)", 1))) == sa.psi(("(0)", 0))
    assert m12.apply(sa.psi(("(1)", 0))) == sa.psi(("(1)", 0))
    assert m12.apply(sa.psi(("(2)", 0))) == sa.psi(("(2)", 0))
    # on the opposite sign pattern the same translation raises the level
    assert m12.apply(sa.psi(("(12)", 0))) == sa.psi(("(12)", 1))


def test_weyl_hasse_check():
    rep = sa.weyl_hasse_check((0, 1))
    assert rep == {"nodes": 32, "edges": 44, "finite_only_edges": 40}


def orbit_oracle(gens, level, level_ok):
    """The frozenset walk the pair orbit replaced: pairs of ψ-nodes, each
    generator's node images memoised, images that coincide or fail
    `level_ok` dropped."""
    start = frozenset((sa.psi(("(14)", level)), sa.psi(("(23)", level))))
    images = [(g.apply, {}) for g in gens]
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


def pair_orbit(gens, level, levels):
    """:func:`sa._pair_orbit` seeded at ψ((14)^level), ψ((23)^level), as a
    set of frozenset node pairs."""
    start = (sa.psi(("(14)", level)), sa.psi(("(23)", level)))
    index, orbit = sa._pair_orbit(gens, start, levels)
    nodes = list(index)
    return {frozenset((nodes[k // len(nodes)], nodes[k % len(nodes)])) for k in orbit}


@pytest.mark.parametrize("window", [(0, 1), (0, 3), (1, 2), (3, 6)])
@pytest.mark.parametrize("gens", [sa.FINITE_GENERATORS, sa.AFFINE_GENERATORS],
                         ids=["finite", "affine"])
def test_pair_orbit_matches_frozenset_walk(gens, window):
    lo, hi = window
    want = orbit_oracle(gens, lo, lambda x: lo - 2 <= x[1] <= hi + 2)
    assert pair_orbit(gens, lo, (lo - 2, hi + 2)) == want
    if gens is sa.FINITE_GENERATORS:
        assert len(want) == 40
        assert pair_orbit(gens, 0, (0, 0)) == orbit_oracle(gens, 0, lambda x: x[1] == 0)


def test_pair_orbit_drops_coinciding_images():
    # a map that folds the two ψ-nodes of the seed onto one node, and sends
    # the rest to the level above: neither image pair is kept
    seed = (sa.psi(("(14)", 0)), sa.psi(("(23)", 0)))
    fold = SimpleNamespace(apply=lambda x: seed[0] if x in seed else (x[0], x[1] + 1))
    for gens in ((fold,), (fold, sa.S1)):
        got = pair_orbit(gens, 0, (0, 1))
        assert got == orbit_oracle(gens, 0, lambda x: 0 <= x[1] <= 1)
        assert frozenset(seed) in got and all(len(p) == 2 for p in got)
    assert len(pair_orbit((fold,), 0, (0, 1))) == 1


def test_wrong_affine_translation_changes_the_orbit(monkeypatch):
    # s₆ translating by 2e₄ instead of e₄ + e₅ halves the orbit, and the
    # clutters of the window leave it
    gens = (*sa.FINITE_GENERATORS, sa.S6._replace(trans=(0, 0, 0, 2, 0)))
    got = pair_orbit(gens, 0, (-2, 5))
    assert got == orbit_oracle(gens, 0, lambda x: -2 <= x[1] <= 5)
    assert len(got) == 1280 and len(pair_orbit(sa.AFFINE_GENERATORS, 0, (-2, 5))) == 2560
    monkeypatch.setattr(sa, "AFFINE_GENERATORS", gens)
    rep = sa.weyl_orbit_check((0, 3))
    assert rep["affine_orbit_size"] == 1280 and not rep["affine_ok"] and rep["finite_ok"]


def test_weyl_orbit_check():
    rep = sa.weyl_orbit_check()
    assert rep["finite_orbit_size"] == 40
    assert rep["affine_orbit_size"] == 1440
    assert rep["finite_ok"] and rep["affine_ok"] and rep["l_image_ok"]


# ---------------------------------------------------------------- JSON dump


def tables_json() -> dict:
    """Deterministic dump of the computed tables, compared with the golden file."""
    fierz = {
        a: {s: pr.format_poly(p) for s, p in sorted(comps.items())}
        for a, comps in sa.fierz_identities().items()
    }
    return {
        "schema_version": 1,
        "kind": "spin_tables",
        "quadrics": {s: pr.format_poly(sa.gamma_quadrics()[s]) for s in sa.GAMMA_LABELS},
        "fierz": fierz,
        "u_table": {t: list(sa.automorphism_u()[t]) for t in wl.TAGS},
    }


def test_tables_json_deterministic_and_golden():
    first = json.dumps(tables_json(), sort_keys=True)
    second = json.dumps(tables_json(), sort_keys=True)
    assert first == second
    tables = tables_json()
    assert tables["schema_version"] == 1 and tables["kind"] == "spin_tables"
    for s, text in GOLDEN["quadrics"].items():
        assert pr.parse_poly(tables["quadrics"][s]) == pr.parse_poly(text)
    for t, (sign, img) in GOLDEN["u_table_reference"].items():
        assert tables["u_table"][t] == [sign, img]
    for t, row in GOLDEN["fierz"].items():
        got = tables["fierz"][t]
        assert set(got) == set(row)
        for s, txt in row.items():
            assert pr.parse_poly(got[s]) == pr.parse_poly(txt)
