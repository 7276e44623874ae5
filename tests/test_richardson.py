"""Tests for the Richardson-algebra straightening machinery."""

import itertools
import json
import random
import re
import unittest.mock
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinlaw.charseries as cs
import spinlaw.polyring as pr
import spinlaw.richardson as rich
import spinlaw.spinalg as sa
import spinlaw.weightlattice as wl

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "obstructions.json").read_text()
)


def W(s):
    return wl.parse_weight(s)


def IV(lo, hi):
    return wl.interval(W(lo), W(hi))


def norm_pair(pair):
    """Canonical form of an obstruction pair: set of (outer, inner-set)."""
    return frozenset((ob.outer, frozenset(ob.inner)) for ob in pair)


def golden_table(table):
    """Golden table -> {key: canonical pair}."""
    return {
        key: frozenset(
            (W(outer), frozenset(W(x) for x in inner))
            for outer, inner in pairs
        )
        for key, pairs in table.items()
    }


def obstructions_oracle(iv):
    """:func:`rich.enumerate_obstructions` by brute force over all C(n, 3)
    triples, each classified by its number of clutter sub-pairs."""
    out = []
    for x, y, z in itertools.combinations(iv.elements, 3):
        splits = [
            (outer, pair)
            for outer, pair in ((x, (y, z)), (y, (x, z)), (z, (x, y)))
            if rich._is_clutter_pair(*pair)
        ]
        if len(splits) == 3:
            raise RuntimeError(
                "clutter triangle at " + ", ".join(wl.format_weight(w) for w in (x, y, z))
            )
        if len(splits) == 2:
            facts = sorted(
                (rich.Obstruction(o, frozenset(p)) for o, p in splits),
                key=rich.Obstruction.key,
            )
            out.append((facts[0], facts[1]))
    out.sort(key=lambda p: p[0].key())
    return out


def coverage_by_pair(iv):
    """Map canonical pair -> (label, element, route) from the coverage report."""
    return {
        norm_pair(e["pair"]): (e["label"], e["element"], e["route"])
        for e in rich.obstruction_coverage(iv)
    }


def affinized_products(span):
    """Map (outer, inner clutter) -> {(α, n): product coefficient} on the
    window [0, span], from the affinized tables: each term
    ``c · λ^{β} x_{s^m}`` of ``h_{α^n}`` meets the unique clutter of the
    quadric mode ``Γ^{s^m}`` on the window, with coefficient ``cc``."""
    window = (0, span)
    clutters = {}
    for s in sa.GAMMA_LABELS:
        for m in range(2 * span + 1):
            quad = sa.gamma_affine(s, m, window)
            cls = rich._clutter_monomials(quad)
            assert len(cls) <= 1
            if cls:
                clutters[(s, m)] = frozenset(cls[0]), quad[pr.monomial_from_weights(cls[0])]
    index = {}
    for alpha in wl.TAGS:
        for n in range(3 * span + 1):
            for c, bw, sm in sa.affine_fierz_terms(alpha, n, window):
                if sm in clutters:
                    cl, cc = clutters[sm]
                    index.setdefault((bw, cl), {})[(alpha, n)] = c * cc
    return index


def affinized_cover(pair, products):
    """The first opposite-unit element of the pair by the affinized route:
    shift the pair to level 0, look both factorizations up in
    ``products[span]``, and shift the mode back."""
    levels = [w[1] for ob in pair for w in (ob.outer, *ob.inner)]
    base = min(levels)
    hits = [
        products[max(levels) - base].get(
            (wl.shift(ob.outer, -base), frozenset(wl.shift(w, -base) for w in ob.inner)),
            {},
        )
        for ob in pair
    ]
    for (alpha, n), c1 in hits[0].items():
        if abs(c1) == 1 and hits[1].get((alpha, n)) == -c1:
            return alpha, n + 3 * base
    return None


# --------------------------------------------------------------- relations


class TestBuildRelations:
    def test_finite_interval_has_the_ten_quadrics(self):
        rels = rich.build_relations(IV("(0)@0", "(1)@0"))
        assert len(rels) == 10
        assert sorted(r.s for r in rels) == sorted(sa.GAMMA_LABELS)
        assert {r.l for r in rels} == {0}

    def test_clutters_biject(self):
        for iv in (IV("(0)@0", "(1)@0"), IV("(0)@0", "(1)@1"),
                   IV("(12)@0", "(2)@0")):
            rels = rich.build_relations(iv)
            assert sorted(r.clutter for r in rels) == sorted(wl.clutters(iv))
            assert len(rels) == len(wl.clutters(iv))

    def test_single_clutter_interval(self):
        [r] = rich.build_relations(IV("(0)@0", "(5)@0"))
        assert (r.s, r.l) == ("5", 0)
        want = pr.parse_poly(
            "l{(0)^0} * l{(5)^0} + l{(14)^0} * l{(23)^0}"
            " - l{(13)^0} * l{(24)^0} + l{(12)^0} * l{(34)^0}"
        )
        assert r.body == want
        assert r.clutter == (W("(14)@0"), W("(23)@0"))

    def test_each_relation_leads_with_its_clutter(self):
        # grevlex puts the clutter monomial above every other term, so the
        # tips the reducer buckets are the clutters: with buchberger_ok the
        # relations are a Gröbner basis whose initial ideal the clutters span
        rng = random.Random(20261020)
        highs = [(t, lvl) for t in wl.TAGS for lvl in (0, 1, 2)]
        picked = [IV("(0)@0", "(1)@2")]
        while len(picked) < 40:
            lo, hi = (rng.choice(wl.TAGS), 0), rng.choice(highs)
            if wl.leq(lo, hi):
                picked.append(wl.interval(lo, hi))
        count = 0
        for iv in picked:
            for r in rich.build_relations(iv):
                assert pr.tip(r.body) == pr.monomial_from_weights(r.clutter)
                count += 1
        assert count > 40 * 10

    def test_chain_intervals_have_no_relations(self):
        assert rich.build_relations(IV("(0)@0", "(15)@0")) == []
        assert rich.build_relations(IV("(0)@0", "(0)@0")) == []
        assert rich.build_relations(IV("(12)@0", "(14)@0")) == []

    def test_affine_interval_relation_count(self):
        rels = rich.build_relations(IV("(0)@0", "(1)@1"))
        assert len(rels) == 30
        assert {r.l for r in rels} == {0, 1, 2}

    def test_relation_body_must_be_quadratic(self):
        with pytest.raises(ValueError):
            rich.AffineRelation(
                "1", 0, pr.lam(W("(0)@0")), (W("(14)@0"), W("(23)@0"))
            )

    def test_nonzero_projections_always_carry_clutter(self):
        # Every monomial of a quadric brackets its clutter in the order, so
        # on an interval a nonzero projection keeps the clutter: every
        # nonzero projection is a relation.
        for iv in (IV("(0)@0", "(5)@0"), IV("(0)@0", "(45)@0"),
                   IV("(12)@0", "(13)@1"), IV("(0)@0", "(1)@1")):
            window = (iv.lo[1], iv.hi[1])
            keys = {wl.apos(w) for w in iv.elements}
            nonzero = [
                (s, l)
                for l in range(2 * window[0], 2 * window[1] + 1)
                for s in sa.GAMMA_LABELS
                if not rich._project(sa.gamma_affine(s, l, window), keys).is_zero()
            ]
            rels = rich.build_relations(iv)
            assert [(r.s, r.l) for r in rels] == nonzero
            assert len(rels) == len(wl.clutters(iv))

    def test_clutter_free_projection_raises(self, monkeypatch):
        # a nonzero projection with no clutter would falsify the
        # unique-clutter proposition: it raises, as one with two does
        monkeypatch.setattr(rich, "_clutter_monomials", lambda f: [])
        with pytest.raises(RuntimeError, match="has 0 clutters"):
            rich.build_relations(IV("(0)@0", "(5)@0"))

    def test_clutter_mismatch_raises(self, monkeypatch):
        # the retained clutters must biject onto the interval's clutters
        real = wl.clutters
        monkeypatch.setattr(wl, "clutters", lambda iv: real(iv)[1:])
        with pytest.raises(RuntimeError, match="not in bijection"):
            rich.build_relations(IV("(0)@0", "(1)@0"))

    def test_sub_interval_restriction(self):
        iv = IV("(0)@0", "(1)@1")
        sub = IV("(12)@0", "(13)@1")
        keys = {wl.apos(w) for w in sub.elements}
        els = set(sub.elements)
        restricted = sorted(
            pr.format_poly(rich._project(r.body, keys))
            for r in rich.build_relations(iv)
            if all(w in els for w in r.clutter)
        )
        own = sorted(
            pr.format_poly(r.body) for r in rich.build_relations(sub)
        )
        assert restricted == own


class TestStraighteningShape:
    def test_finite_relations_have_shape(self):
        rels = rich.build_relations(IV("(0)@0", "(1)@0"))
        assert all(rich.straightening_shape_check(r) for r in rels)

    def test_finite_meet_join_signs_are_opposite(self):
        for r in rich.build_relations(IV("(0)@0", "(1)@0")):
            a, b = r.clutter
            mj = pr.monomial_from_weights([wl.meet(a, b), wl.join(a, b)])
            cl = pr.monomial_from_weights([a, b])
            assert r.body[mj] == -r.body[cl]

    def test_affine_relations_have_shape(self):
        rels = rich.build_relations(IV("(0)@0", "(1)@1"))
        assert all(rich.straightening_shape_check(r) for r in rels)

    def test_some_affine_meet_join_signs_agree(self):
        same = 0
        for r in rich.build_relations(IV("(0)@0", "(1)@1")):
            a, b = r.clutter
            mj = pr.monomial_from_weights([wl.meet(a, b), wl.join(a, b)])
            cl = pr.monomial_from_weights([a, b])
            same += r.body[mj] == r.body[cl]
        assert same == 5

    def test_gamma5_shape_details(self):
        [r] = rich.build_relations(IV("(0)@0", "(5)@0"))
        assert rich.straightening_shape_check(r)
        a, b = r.clutter
        assert (wl.meet(a, b), wl.join(a, b)) == (W("(13)@0"), W("(24)@0"))
        rest = [
            sorted(pr.monomial_weights(m), key=wl.apos)
            for m in r.body.coeffs
            if set(pr.monomial_weights(m))
            not in ({a, b}, {W("(13)@0"), W("(24)@0")})
        ]
        for lo_w, hi_w in rest:
            assert wl.leq(lo_w, W("(13)@0")) and lo_w != W("(13)@0")
            assert wl.leq(W("(24)@0"), hi_w) and hi_w != W("(24)@0")

    @pytest.mark.parametrize("defect", ["clutter-2", "other-2", "not-straddling"])
    def test_broken_shapes_are_refused(self, defect):
        # the Γ^5 relation of [(0)@0,(5)@0] with one defect planted in its body
        [r] = rich.build_relations(IV("(0)@0", "(5)@0"))
        a, b = r.clutter
        cl = pr.monomial_from_weights([a, b])
        mj = pr.monomial_from_weights([wl.meet(a, b), wl.join(a, b)])
        other = next(m for m in r.body.coeffs if m not in (cl, mj))
        if defect == "clutter-2":        # a clutter coefficient of 2
            extra = pr.Poly({cl: r.body[cl]})
        elif defect == "other-2":        # a non-unit coefficient on another term
            extra = pr.Poly({other: r.body[other]})
        else:                            # λ^a λ^a does not straddle the meet and join
            extra = pr.Poly({pr.monomial_from_weights([a, a]): 1})
        assert rich.straightening_shape_check(r)
        assert not rich.straightening_shape_check(r._replace(body=r.body + extra))


# ------------------------------------------------------- standard monomials


def multichains(iv, k):
    """Every multichain of length ``k`` in ``iv``, by brute force."""
    chains = [()]
    for _ in range(k):
        chains = [
            ch + (x,)
            for ch in chains
            for x in iv.elements
            if not ch or wl.leq(ch[-1], x)
        ]
    return chains


class TestStandardMonomials:
    def test_finite_interval_counts(self):
        iv = IV("(0)@0", "(1)@0")
        assert [rich.standard_monomials(iv, k) for k in range(5)] == [
            1, 16, 126, 672, 2772,
        ]

    def test_chain_interval_is_polynomial_ring(self):
        iv = IV("(0)@0", "(15)@0")
        from math import comb
        for k in range(7):
            assert rich.standard_monomials(iv, k) == comb(k + 4, 4)

    @pytest.mark.parametrize("hi", ["(5)@0", "(12)@0", "(1)@0"])
    def test_count_matches_brute_force_chains(self, hi):
        iv = IV("(0)@0", hi)
        for k in range(4):
            chains = multichains(iv, k)
            assert rich.standard_monomials(iv, k) == len(chains)
            assert len(set(chains)) == len(chains)
            for ch in chains:
                assert all(wl.leq(x, y) for x, y in zip(ch, ch[1:]))

    def test_k_zero_and_negative(self):
        iv = IV("(0)@0", "(12)@0")
        assert rich.standard_monomials(iv, 0) == 1
        assert multichains(iv, 0) == [()]
        with pytest.raises(ValueError):
            rich.standard_monomials(iv, -1)


class TestStraightenedLaw:
    def test_finite_interval(self):
        assert rich.straightened_law_report(IV("(0)@0", "(1)@0"), 3)["ok"]

    def test_affine_interval(self):
        assert rich.straightened_law_report(IV("(0)@0", "(1)@1"), 2)["ok"]

    def test_chain_interval(self):
        assert rich.straightened_law_report(IV("(0)@0", "(15)@0"), 4)["ok"]

    def test_report_fields_and_negative_k_max(self):
        rep = rich.straightened_law_report(IV("(0)@0", "(5)@0"), 2)
        assert rep["relation_count"] == 1 and rep["ok"]
        assert [d["k"] for d in rep["dimensions"]] == [0, 1, 2]
        assert all(d["standard"] == d["graded"] for d in rep["dimensions"])
        with pytest.raises(ValueError):
            rich.straightened_law_report(IV("(0)@0", "(5)@0"), -1)

    def test_seeded_sample_of_intervals(self):
        rng = random.Random(20260816)
        els = [(t, l) for t in wl.TAGS for l in (0, 1)]
        picked = []
        while len(picked) < 8:
            lo, hi = rng.sample(els, 2)
            if not wl.leq(lo, hi):
                continue
            if wl.ht(hi) - wl.ht(lo) > 9:
                continue
            picked.append(wl.interval(lo, hi))
        for iv in picked:
            rels = rich.build_relations(iv)
            assert sorted(r.clutter for r in rels) == sorted(wl.clutters(iv))
            assert rich.straightened_law_report(iv, 2)["ok"]
            # obstruction_coverage raises on a pair it cannot resolve
            assert len(rich.obstruction_coverage(iv)) == len(
                rich.enumerate_obstructions(iv)
            )


# ------------------------------------------------------------ obstructions


class TestObstructions:
    def test_obstruction_validation(self):
        with pytest.raises(ValueError):
            rich.Obstruction(
                W("(0)@0"), frozenset({W("(12)@0"), W("(13)@0")})
            )

    def test_chain_interval_has_none(self):
        assert rich.enumerate_obstructions(IV("(0)@0", "(15)@0")) == []

    @pytest.mark.parametrize(
        "ivs",
        [[wl.interval(W("(0)@0"), (t, lvl)) for t in wl.TAGS] for lvl in range(3)]
        + [[IV("(0)@0", f"(1)@{r}")] for r in range(3, 6)],
    )
    def test_path_walk_matches_all_triples_oracle(self, ivs):
        for iv in ivs:
            assert rich.enumerate_obstructions(iv) == obstructions_oracle(iv)

    def test_clutter_triangle_raises(self, monkeypatch):
        # a chain has no clutters; calling three of its weights pairwise
        # incomparable makes exactly one triangle
        tri = {W("(12)@0"), W("(13)@0"), W("(14)@0")}
        real = rich._is_clutter_pair
        monkeypatch.setattr(
            rich, "_is_clutter_pair", lambda a, b: real(a, b) or (a != b and {a, b} <= tri)
        )
        monkeypatch.setattr(wl, "clutters", lambda iv: [
            (a, b) for a, b in itertools.combinations(iv.elements, 2)
            if rich._is_clutter_pair(a, b)])
        msg = re.escape("clutter triangle at (12)@0, (13)@0, (14)@0")
        for enumerate_ in (rich.enumerate_obstructions, obstructions_oracle):
            with pytest.raises(RuntimeError, match=msg):
                enumerate_(IV("(0)@0", "(15)@0"))

    def test_finite_table(self):
        table = golden_table(GOLDEN["finite"])
        cov = coverage_by_pair(IV("(0)@0", "(1)@0"))
        assert set(cov.keys()) == set(table.values())
        for key, pair in table.items():
            label, element, route = cov[pair]
            assert label == "o_" + key
            assert element == (W(key)[0], 0)
            assert route == "direct"

    def test_affine_window_strata(self):
        pairs = rich.enumerate_obstructions(IV("(0)@0", "(1)@1"))
        assert len(pairs) == 64
        strata = {0: [], 1: [], 2: [], 3: []}
        for p in pairs:
            ob = p[0]
            lv1 = sum(w[1] for w in (ob.outer, *ob.inner))
            strata[lv1].append(norm_pair(p))
        assert {k: len(v) for k, v in strata.items()} == {
            0: 16, 1: 16, 2: 16, 3: 16,
        }
        finite = set(golden_table(GOLDEN["finite"]).values())
        assert set(strata[0]) == finite

        def tshift(pair, n):
            return frozenset(
                (wl.shift(o, n), frozenset(wl.shift(w, n) for w in inner))
                for o, inner in pair
            )

        assert set(strata[3]) == {tshift(p, 1) for p in finite}
        affine = set(golden_table(GOLDEN["affine_l1"]).values())
        assert set(strata[1]) == affine

        def tu(pair):
            return frozenset(
                (
                    wl.shift(wl.anti_auto(o), 1),
                    frozenset(wl.shift(wl.anti_auto(w), 1) for w in inner),
                )
                for o, inner in pair
            )

        assert set(strata[2]) == {tu(p) for p in affine}

    def test_affine_table_labels(self):
        table = golden_table(GOLDEN["affine_l1"])
        cov = coverage_by_pair(IV("(0)@0", "(1)@1"))
        for key, pair in table.items():
            label, element, route = cov[pair]
            assert label == "o_" + key
            assert element == (W(key)[0], 1)
            assert route == "direct"

    def test_coverage_elements_by_stratum(self):
        for pair_n, (label, element, route) in coverage_by_pair(
            IV("(0)@0", "(1)@1")
        ).items():
            lv1 = sum(w[1] for ob in list(pair_n)[:1] for w in (ob[0], *ob[1]))
            assert element[1] == lv1
            assert route == "direct"

    def test_shift_equivariance(self):
        base = rich.enumerate_obstructions(IV("(0)@0", "(1)@0"))
        shifted = rich.enumerate_obstructions(IV("(0)@2", "(1)@2"))
        want = {
            frozenset(
                (wl.shift(o, 2), frozenset(wl.shift(w, 2) for w in inner))
                for o, inner in norm_pair(p)
            )
            for p in base
        }
        assert {norm_pair(p) for p in shifted} == want
        cov = coverage_by_pair(IV("(0)@2", "(1)@2"))
        assert {e[1] for _, e, _ in cov.values()} == {6}

    def test_anti_auto_equivariance(self):
        iv = IV("(0)@0", "(5)@0")
        ivu = wl.interval(wl.anti_auto(iv.hi), wl.anti_auto(iv.lo))
        want = {
            frozenset(
                (wl.anti_auto(o), frozenset(wl.anti_auto(w) for w in inner))
                for o, inner in norm_pair(p)
            )
            for p in rich.enumerate_obstructions(iv)
        }
        got = {norm_pair(p) for p in rich.enumerate_obstructions(ivu)}
        assert got == want

    def test_every_pair_is_covered_directly(self):
        # [(0)@0,(1)@2] holds every weight of levels 0..2: each of its pairs
        # spans at most one level, and the level-0 tables pick the element
        # the affinized identities pick, here and two levels lower
        products = {span: affinized_products(span) for span in (0, 1)}
        for lo, hi in (("(0)@0", "(1)@2"), ("(0)@-2", "(1)@0")):
            iv = IV(lo, hi)
            assert len(iv) == 48
            pairs = rich.enumerate_obstructions(iv)
            assert len(pairs) == 112
            for pair in pairs:
                levels = {w[1] for ob in pair for w in (ob.outer, *ob.inner)}
                assert max(levels) - min(levels) <= 1
                cover = rich._find_cover(pair)
                assert cover is not None
                assert cover == affinized_cover(pair, products)

    @pytest.mark.parametrize("k", [-3, 2, 7])
    def test_coverage_level_shift_covariance(self, k):
        # shifting the interval by k levels shifts each element's mode by 3k
        base = coverage_by_pair(IV("(0)@0", "(1)@1"))
        want = {}
        for pair, (_, (alpha, n), route) in base.items():
            shifted = frozenset(
                (wl.shift(o, k), frozenset(wl.shift(w, k) for w in inner))
                for o, inner in pair
            )
            element = (alpha, n + 3 * k)
            want[shifted] = ("o_" + wl.format_weight(element), element, route)
        assert coverage_by_pair(IV(f"(0)@{k}", f"(1)@{1 + k}")) == want

    def test_wrong_fierz_sign_leaves_a_pair_uncovered(self, monkeypatch):
        # flip the λ^(1) coefficient of x_{1*} in h_(0), from 1 to -1
        real = sa.fierz_identities()
        mutant = {alpha: dict(comps) for alpha, comps in real.items()}
        mutant["(0)"]["1*"] = -real["(0)"]["1*"]
        assert real["(0)"]["1*"] == pr.lam(W("(1)@0"))
        monkeypatch.setattr(sa, "fierz_identities", lambda: mutant)
        with pytest.raises(RuntimeError, match="uncovered obstruction pair"):
            rich.obstruction_coverage(IV("(0)@0", "(1)@2"))

    def test_records_validate_on_replace(self):
        # namedtuple's _replace builds through _make, which must validate
        [rel] = rich.build_relations(IV("(0)@0", "(5)@0"))
        ob = rich.enumerate_obstructions(IV("(0)@0", "(1)@0"))[0][0]
        for record, bad in (
            (rel, {"body": pr.lam(W("(0)@0"))}),
            (ob, {"outer": W("(0)@0")}),
            (sa.S1, {"eps": (1, 0, 0, 0, 0)}),
        ):
            with pytest.raises(ValueError):
                record._replace(**bad)
            with pytest.raises(ValueError):
                type(record)._make({**record._asdict(), **bad}.values())
        assert sa.S1._replace(eps=(1, 1, 0, 0, 0)).eps == (1, 1, 0, 0, 0)

    def test_coverage_check_windows(self):
        # obstruction_coverage raises on a pair it cannot resolve
        for lo, hi in (("(0)@0", "(1)@0"), ("(0)@0", "(1)@1"), ("(0)@1", "(1)@2")):
            iv = IV(lo, hi)
            assert len(rich.obstruction_coverage(iv)) == len(
                rich.enumerate_obstructions(iv)
            )


# -------------------------------------------------------------- dimensions


# intervals [lo, hi], lo at level 0 and hi in levels 0..1, of 2..20 elements
SMALL_INTERVALS = [
    (wl.format_weight(lo), wl.format_weight(hi))
    for lo in wl.window_weights((0, 0)) for hi in wl.window_weights((0, 1))
    if wl.leq(lo, hi) and 2 <= len(wl.interval(lo, hi).elements) <= 20
]

# relation sets made from an interval's relations and three of its variables
PERTURBATIONS = {
    "real": lambda rels, x: rels,
    "without-last": lambda rels, x: rels[:-1],
    "without-first": lambda rels, x: rels[1:],
    "plus-ab": lambda rels, x: rels + [x[0] * x[1]],
    "plus-aa": lambda rels, x: rels + [x[0] * x[0]],
    "plus-abc": lambda rels, x: rels + [x[0] * x[1] * x[2]],
    "plus-ab-2cc": lambda rels, x: rels + [x[0] * x[1] - 2 * x[2] * x[2]],
}


def perturbed_relations(iv, kind, picks):
    """The interval's relation bodies perturbed by `kind`, on the variables
    at the positions `picks` (taken modulo the interval's size)."""
    els = iv.elements
    return PERTURBATIONS[kind]([r.body for r in rich.build_relations(iv)],
                               [pr.lam(els[i % len(els)]) for i in picks])


def regseq_on(iv, rels, d):
    """:func:`rich.regular_sequence_check` with `rels` as the relations."""
    with unittest.mock.patch.object(
            rich, "build_relations", lambda _iv: [SimpleNamespace(body=g) for g in rels]):
        return rich.regular_sequence_check(iv, d)


def prefix_rule(iv, rels, d):
    """``dim_k(j) = dim_k(j−1) − dim_{k−1}(j−1)`` for every prefix of the
    height forms and every ``k ≤ d``, each prefix's dimensions computed with
    its forms among the generators."""
    keys = [wl.apos(w) for w in iv.elements]
    heights = sorted({wl.ht(w) for w in iv.elements})
    ys = [sum((pr.lam(w) for w in iv.elements if wl.ht(w) == h), pr.Poly.zero())
          for h in heights]
    dims = [pr.graded_quotient_dims(rels + ys[:j], keys, d) for j in range(len(ys) + 1)]
    return all(dims[j][k] == dims[j - 1][k] - (dims[j - 1][k - 1] if k else 0)
               for j in range(1, len(ys) + 1) for k in range(d + 1))


class TestDimensions:
    @pytest.mark.parametrize(
        "lo,hi,want",
        [
            ("(0)@0", "(1)@0", {"chain_len": 11, "ht_diff": 10, "pole_order": 11}),
            ("(0)@0", "(15)@0", {"chain_len": 5, "ht_diff": 4, "pole_order": 5}),
            ("(0)@0", "(0)@0", {"chain_len": 1, "ht_diff": 0, "pole_order": 1}),
            ("(0)@0", "(5)@0", {"chain_len": 7, "ht_diff": 6, "pole_order": 7}),
        ],
    )
    def test_dimension_report(self, lo, hi, want):
        assert cs.dimension_report(IV(lo, hi)) == want

    def test_regular_sequences(self):
        assert rich.regular_sequence_check(IV("(0)@0", "(5)@0"), 3)
        assert rich.regular_sequence_check(IV("(0)@0", "(15)@0"), 3)
        assert rich.regular_sequence_check(IV("(0)@0", "(1)@0"), 2)
        assert rich.regular_sequence_check(IV("(0)@0", "(1)@1"), 4)

    @pytest.mark.parametrize("hi, rels", [("(1)@0", 10), ("(1)@1", 30)])
    def test_regular_sequence_check_builds_one_reducer(self, hi, rels, monkeypatch):
        # every relation is reduced by the same forms, whose tips, tails and
        # buckets are worked out once per call, not once per relation
        bases = []
        real = pr.reducer

        def counting(basis):
            bases.append(list(basis))
            return real(basis)

        monkeypatch.setattr(pr, "reducer", counting)
        iv = IV("(0)@0", hi)
        assert rich.regular_sequence_check(iv, 2)
        assert len(rich.build_relations(iv)) == rels
        heights = {wl.ht(w) for w in iv.elements}
        assert len(bases) == 1 and len(bases[0]) == len(heights)

    def test_regular_sequence_precondition(self):
        with pytest.raises(ValueError):
            rich.regular_sequence_check(IV("(0)@0", "(5)@0"), 1)

    def test_regular_sequence_check_matches_the_prefix_rule(self):
        # perturbed relation sets, through build_relations, against the rule
        # that every prefix of the forms drops the Hilbert function by (1 − t)
        seen = set()

        @settings(max_examples=150, deadline=None)
        @given(st.sampled_from(SMALL_INTERVALS), st.sampled_from(sorted(PERTURBATIONS)),
               st.tuples(*[st.integers(0, 19)] * 3), st.sampled_from([2, 3]))
        @example(("(0)@0", "(1)@0"), "without-last", (0, 0, 0), 3)
        def check(bounds, kind, picks, d):
            iv = IV(*bounds)
            rels = perturbed_relations(iv, kind, picks)
            got = regseq_on(iv, rels, d)
            assert got == prefix_rule(iv, rels, d)
            seen.add(got)

        check()
        assert seen == {True, False}

    def test_regular_sequence_check_false_branch(self):
        iv = IV("(0)@0", "(1)@0")
        rels = perturbed_relations(iv, "without-last", (0, 0, 0))
        assert [regseq_on(iv, rels, d) for d in (2, 3)] == [True, False]
        assert [prefix_rule(iv, rels, d) for d in (2, 3)] == [True, False]
        # λ_(0) is the one height-0 form: times λ_(12) it makes a zero-divisor
        iv = IV("(0)@0", "(5)@0")
        rels = [r.body for r in rich.build_relations(iv)] + [
            pr.lam(W("(0)@0")) * pr.lam(W("(12)@0"))]
        assert not regseq_on(iv, rels, 2) and not prefix_rule(iv, rels, 2)

    def test_standard_monomials_match_character_dims(self):
        import spinlaw.charseries as cs
        iv = IV("(0)@0", "(25)@0")
        ser = cs.character(iv, specialize={"s": 1, "q": 1}).series(4)
        for k in range(5):
            assert rich.standard_monomials(iv, k) == ser[k].total()
