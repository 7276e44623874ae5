"""Acceptance gate: the ten headline checks, one pass/fail line each.

Each test prints ``ACCEPTANCE n: PASS|FAIL — detail`` and asserts the
criterion exactly as stated.  All arithmetic is exact, so every comparison
is an equality; the only truncations are the explicitly stated series
orders.  Criteria asserted against reference values that the computation
demonstrably contradicts are left to fail honestly, with the measured
values printed beside the asserted ones.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import spinlaw.charseries as cs
import spinlaw.polyring as pr
import spinlaw.richardson as rich
import spinlaw.spinalg as sa
import spinlaw.weightlattice as wl

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "obstructions.json").read_text()
)

DELANNOY_ROWS = [
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


def W(s):
    return wl.parse_weight(s)


def IV(lo, hi):
    return wl.interval(W(lo), W(hi))


def criterion(n, ok, detail):
    line = f"ACCEPTANCE {n:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def norm_pair(pair):
    return frozenset((ob.outer, frozenset(ob.inner)) for ob in pair)


def test_criterion_01_pure_spinor_character():
    iv = IV("(0)@0", "(1)@0")
    c = cs.character(iv, specialize={"s": 1, "q": 1})
    t = (0, 0, 0, 0, 0, 0, 1)
    closed = cs.RationalChar(
        cs.LaurentPoly(
            {
                (0, 0, 0, 0, 0, 0, 0): Fraction(1),
                t: Fraction(5),
                (0, 0, 0, 0, 0, 0, 2): Fraction(5),
                (0, 0, 0, 0, 0, 0, 3): Fraction(1),
            }
        ),
        Counter({t: 11}),
    )
    exact = c == closed
    dims = [int(p.total()) for p in c.series(4)]
    series_ok = dims == [1, 16, 126, 672, 2772]
    rels = [r.body for r in rich.build_relations(iv)]
    keys = [wl.apos(w) for w in iv.elements]
    rank_dims = pr.graded_quotient_dims(rels, keys, 3)
    rank_ok = rank_dims == [1, 16, 126, 672]
    std_ok = rich.standard_monomials(iv, 4) == 2772
    criterion(
        1,
        exact and series_ok and rank_ok and std_ok,
        f"character == (1+5t+5t^2+t^3)/(1-t)^11: {exact}; series k<=4 "
        f"{dims}; rank oracle k<=3 {rank_dims}; standard-monomial count "
        f"k=4 {rich.standard_monomials(iv, 4)}",
    )


def test_criterion_02_groebner_finite():
    iv = IV("(0)@0", "(1)@0")
    rels = [r.body for r in rich.build_relations(iv)]
    remainders = pr.buchberger_check(rels)
    buch_ok = all(rem.is_zero() for rem in remainders.values())
    fierz = [sa.affine_fierz(a, 0, (0, 0)) for a in wl.TAGS]
    fierz_ok = all(f.is_zero() for f in fierz)
    criterion(
        2,
        buch_ok and fierz_ok and len(rels) == 10,
        f"{len(remainders)} S-pairs reduce to zero on the 10 quadrics: "
        f"{buch_ok}; all 16 substitution residues zero: {fierz_ok}",
    )


def test_criterion_03_groebner_affine():
    iv = IV("(0)@0", "(1)@1")
    rels = [r.body for r in rich.build_relations(iv)]
    remainders = pr.buchberger_check(rels)
    buch_ok = all(rem.is_zero() for rem in remainders.values())
    graded = pr.graded_quotient_dims(rels, [wl.apos(w) for w in iv.elements], 2)
    dims_ok = all(
        rich.standard_monomials(iv, k) == graded[k] for k in range(3)
    )
    fierz_ok = all(
        sa.affine_fierz(a, n, (0, 1)).is_zero()
        for a in wl.TAGS
        for n in (0, 1)
    )
    criterion(
        3,
        buch_ok and dims_ok and fierz_ok and len(rels) == 30,
        f"32-variable window: {len(remainders)} S-pairs zero: {buch_ok}; "
        f"standard == graded for k<=2: {dims_ok}; bilinear modes 0,1 "
        f"vanish: {fierz_ok}",
    )


def test_criterion_04_clutter_bijection():
    counts = {}
    for lo, hi in (("(0)@0", "(15)@0"), ("(0)@0", "(5)@0"),
                   ("(0)@0", "(1)@0"), ("(0)@0", "(1)@1")):
        iv = IV(lo, hi)
        rels = rich.build_relations(iv)
        assert sorted(r.clutter for r in rels) == sorted(wl.clutters(iv))
        counts[hi] = len(rels)
    ok = list(counts.values()) == [0, 1, 10, 30]
    criterion(4, ok, f"relations per interval {list(counts.values())} "
                     "== [0, 1, 10, 30], each in bijection with clutters")


def test_criterion_05_obstruction_tables():
    def table(name):
        return {
            key: frozenset(
                (W(outer), frozenset(W(x) for x in inner))
                for outer, inner in pairs
            )
            for key, pairs in GOLDEN[name].items()
        }

    fin = rich.obstruction_coverage(IV("(0)@0", "(1)@0"))
    fin_pairs = {norm_pair(e["pair"]): e["label"] for e in fin}
    fin_table = table("finite")
    fin_ok = fin_pairs == {v: "o_" + k for k, v in fin_table.items()}

    aff = rich.obstruction_coverage(IV("(0)@0", "(1)@1"))
    aff_pairs = {
        norm_pair(e["pair"]): e["label"]
        for e in aff
        if sum(w[1] for ob in e["pair"][:1] for w in (ob.outer, *ob.inner)) == 1
    }
    aff_table = table("affine_l1")
    aff_ok = aff_pairs == {v: "o_" + k for k, v in aff_table.items()}

    # obstruction_coverage raises on a pair it cannot resolve
    cov_ok = (len(fin) == len(rich.enumerate_obstructions(IV("(0)@0", "(1)@0")))
              and len(aff) == len(rich.enumerate_obstructions(IV("(0)@0", "(1)@1"))))
    criterion(
        5,
        fin_ok and aff_ok and cov_ok,
        f"16 finite pairs match the reference table with labels: {fin_ok}; "
        f"16 level-crossing pairs match: {aff_ok}; every pair resolved "
        f"with opposite unit signs: {cov_ok}",
    )


def test_criterion_06_delannoy():
    rows_ok = all(cs.delannoy(n) == DELANNOY_ROWS[n] for n in range(12))
    acc_ok = cs.delannoy_acceptance(4, 8)
    criterion(
        6,
        rows_ok and acc_ok,
        f"rows D_0..D_11 match: {rows_ok}; characters along J equal "
        f"D_r(t)/(1-t)^(5+2r) for r<=4 with series order 8, two-term "
        f"recursion and bivariate closed form to total degree 8: {acc_ok}",
    )


def test_criterion_07_diagram_regeneration():
    finite_edges = sa.generate_hasse((0, 0))
    window_edges = sa.generate_hasse((0, 1))
    finite_ok = set(finite_edges) == set(wl.affine_covers((0, 0)))
    window_ok = set(window_edges) == set(wl.affine_covers((0, 1)))
    weyl = sa.weyl_hasse_check((0, 1))
    weyl_ok = weyl["nodes"] == 32 and weyl["edges"] == 44 \
        and weyl["finite_only_edges"] == 40
    criterion(
        7,
        finite_ok and window_ok and weyl_ok,
        f"root operators regenerate the level-0 diagram "
        f"({len(finite_edges)} covers) and the two-level window "
        f"({len(window_edges)} covers) exactly; reflection graphs "
        f"isomorphic to the undirected diagrams: {weyl}",
    )


def test_criterion_08_automorphism_u():
    table = sa.automorphism_u()  # hard-checks u^2 = id and the 8 references
    involution_ok = all(
        table[t2] == (s, t) for t, (s, t2) in table.items()
    )
    refs_ok = all(table[t] == ref for t, ref in sa._U_REFERENCE.items())
    stab = sa.u_stability_check()
    criterion(
        8,
        involution_ok and refs_ok and stab["stable"],
        f"u^2 = id on all 16 weight lines: {involution_ok}; the 8 "
        f"reference values match: {refs_ok}; quadric span u-stable as "
        f"stated: {stab['stable']} (measured stacked rank "
        f"{stab['rank']}, not 10; sign parity {stab['sign_parity']} vs "
        f"required {stab['stable_parity']}, shared by all "
        f"{stab['stable_tables']} span-stable orbit-sign tables; flipping the ((0),(1)) orbit "
        f"sign gives rank {stab['repaired_rank']} and exact duality "
        f"{stab['repaired_exact']})",
    )


def test_criterion_09_character_oracle_equivalence():
    rng = random.Random(20260816)
    els = [(t, l) for t in wl.TAGS for l in (0, 1, 2)]
    intervals = []
    while len(intervals) < 10:
        lo, hi = rng.sample(els, 2)
        if wl.leq(hi, lo):
            lo, hi = hi, lo
        elif not wl.leq(lo, hi):
            continue
        intervals.append(wl.interval(lo, hi))
    mismatches = []
    for iv in intervals:
        if cs.character(iv).series(5) != cs.chain_series_direct(iv, 5):
            mismatches.append(
                (wl.format_weight(iv.lo), wl.format_weight(iv.hi))
            )
    criterion(
        9,
        not mismatches,
        "10 seeded random intervals in the 3-level window: down-set "
        "character and direct multichain sum agree in every (s,q,t) "
        f"coefficient to order 5; mismatches: {mismatches or 'none'}",
    )


def test_criterion_10_dimension_depth():
    # [(0),(5)] has 8 variables and one relation, a regular quadric, so its
    # dimension is 8 - 1 = 7; its s=q=1 character is (1-t^2)/(1-t)^8, and
    # a maximal chain has as many elements as the dimension.
    five = IV("(0)@0", "(5)@0")
    n_vars, n_rels = len(five.elements), len(rich.build_relations(five))
    t = (0, 0, 0, 0, 0, 0, 1)
    closed = cs.RationalChar(
        cs.LaurentPoly(
            {
                (0, 0, 0, 0, 0, 0, 0): Fraction(1),
                (0, 0, 0, 0, 0, 0, 2): Fraction(-1),
            }
        ),
        Counter({t: 8}),
    )
    facts_ok = ((n_vars, n_rels) == (8, 1)
                and cs.character(five, specialize={"s": 1, "q": 1}) == closed)
    dim = n_vars - n_rels
    stated = {"(15)@0": (5, 5), "(5)@0": (dim, dim), "(1)@0": (11, 11)}
    measured = {}
    dims_ok = True
    for hi, want in stated.items():
        rep = cs.dimension_report(IV("(0)@0", hi))
        got = (rep["chain_len"], rep["pole_order"])
        measured[hi] = got
        dims_ok = dims_ok and got == want
    reg_ok = (rich.regular_sequence_check(five, 3)
              and rich.regular_sequence_check(IV("(0)@0", "(1)@0"), 2))
    criterion(
        10,
        facts_ok and dims_ok and reg_ok,
        f"[(0),(5)]: {n_vars} variables, {n_rels} relation, s=q=1 character "
        f"(1-t^2)/(1-t)^8: {facts_ok}; "
        f"(chain_len, pole_order) stated {stated} vs measured {measured}; "
        f"regular sequence to degree 3 on [(0),(5)] and degree 2 on "
        f"[(0),(1)]: {reg_ok}",
    )
