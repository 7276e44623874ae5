"""Poset layer: covers, order, intervals, clutters, and emitters.

Expected values below are frozen from the reference diagram and tables; the
brute-force BFS oracle over cover arrows is the independent route for the
order relation.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlaw import weightlattice as wl

W = wl.parse_weight


# ---------------------------------------------------------------- oracles


def bfs_up(start, window):
    """Reachability oracle: climb cover arrows inside a level window."""
    lo_lvl, hi_lvl = window
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in wl.covers_up(x):
            if lo_lvl <= y[1] <= hi_lvl and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


WINDOW = (0, 3)
ALL_WINDOW = [(t, lvl) for lvl in range(WINDOW[0], WINDOW[1] + 1) for t in wl.TAGS]


def weights(window=WINDOW):
    lo, hi = window
    return st.tuples(st.sampled_from(wl.TAGS), st.integers(lo, hi))


# ------------------------------------------------------------ basic data


EXPECTED_FINITE_COVERS = {
    ("(0)", "(12)"), ("(12)", "(13)"), ("(13)", "(23)"),
    ("(14)", "(24)"), ("(24)", "(34)"), ("(34)", "(5)"),
    ("(15)", "(25)"), ("(25)", "(35)"), ("(35)", "(4)"),
    ("(45)", "(3)"), ("(3)", "(2)"), ("(2)", "(1)"),
    ("(13)", "(14)"), ("(23)", "(24)"), ("(14)", "(15)"), ("(24)", "(25)"),
    ("(34)", "(35)"), ("(5)", "(4)"), ("(35)", "(45)"), ("(4)", "(3)"),
}

EXPECTED_HT = {
    "(0)": 0, "(12)": 1, "(13)": 2, "(14)": 3, "(23)": 3, "(15)": 4,
    "(24)": 4, "(25)": 5, "(34)": 5, "(35)": 6, "(5)": 6, "(45)": 7,
    "(4)": 7, "(3)": 8, "(2)": 9, "(1)": 10,
}


def test_finite_covers_exact_set():
    covers = wl.affine_covers((0, 0))  # the same-level covers of E at level 0
    assert len(covers) == 20
    assert {(a[0], b[0]) for a, b in covers} == EXPECTED_FINITE_COVERS
    assert all(a[1] == 0 and b[1] == 0 for a, b in covers)


def test_cross_level_covers():
    cross = {
        (a, b) for a, b in wl.affine_covers((0, 1)) if a[1] != b[1]
    }
    assert cross == {
        (("(45)", 0), ("(0)", 1)),
        (("(3)", 0), ("(12)", 1)),
        (("(2)", 0), ("(13)", 1)),
        (("(1)", 0), ("(23)", 1)),
    }


def test_ht_offsets():
    for tag, c in EXPECTED_HT.items():
        assert wl.ht((tag, 0)) == c
        assert wl.ht((tag, 2)) == 16 + c


def test_every_cover_raises_ht_by_one():
    for a, b in wl.affine_covers((-1, 2)):
        assert wl.ht(b) == wl.ht(a) + 1


def test_two_elements_per_height():
    for m in range(-5, 20):
        pair = wl.ht_pair(m)
        assert len(pair) == 2
        for col, w in enumerate(pair):
            assert wl.ht(w) == m
            assert wl.COLUMN[w[0]] == col
    # all sixteen tags appear across eight consecutive heights
    tags = {w[0] for m in range(8) for w in wl.ht_pair(m)}
    assert tags == set(wl.TAGS)


def test_apos_is_two_ht_plus_column_and_invertible():
    for w in ALL_WINDOW:
        key = wl.apos(w)
        assert key == 2 * wl.ht(w) + wl.COLUMN[w[0]]
        assert wl.weight_from_apos(key) == w
    # the level-0 variable order starts at the bottom tag
    order = sorted([(t, 0) for t in wl.TAGS], key=wl.apos)
    assert [t for t, _ in order] == list(wl.TAGS)


EXPECTED_TAGS = (
    "(0)", "(12)", "(13)", "(14)", "(23)", "(15)", "(24)", "(25)",
    "(34)", "(35)", "(5)", "(45)", "(4)", "(3)", "(2)", "(1)",
)

EXPECTED_COLUMN_0 = {"(0)", "(12)", "(13)", "(14)", "(15)", "(25)", "(35)", "(45)"}


def test_grid_tables_match_frozen_literals():
    assert wl.TAGS == EXPECTED_TAGS
    assert wl.HT_OFFSET == EXPECTED_HT
    assert set(wl.COLUMN) == set(EXPECTED_TAGS)
    assert {t for t, col in wl.COLUMN.items() if col == 0} == EXPECTED_COLUMN_0


def test_columns_are_cover_chains():
    for m in range(-8, 17):
        for col in (0, 1):
            assert wl.ht_pair(m + 1)[col] in wl.covers_up(wl.ht_pair(m)[col])


def test_covers_down_inverts_covers_up():
    els = wl.window_weights((-1, 2))
    inside = set(els)
    up = [(w, c) for w in els for c in wl.covers_up(w) if c in inside]
    down = [(d, w) for w in els for d in wl.covers_down(w) if d in inside]
    assert sorted(up) == sorted(down) == sorted(wl.affine_covers((-1, 2)))
    for w in els:
        assert all(w in wl.covers_down(c) for c in wl.covers_up(w))
        assert all(w in wl.covers_up(d) for d in wl.covers_down(w))


@pytest.mark.parametrize("window", [(-2, 1), (0, 0), (3, 5)])
def test_window_weights_is_the_level_product(window):
    lo, hi = window
    product = [(t, lvl) for lvl in range(lo, hi + 1) for t in wl.TAGS]
    assert wl.window_weights(window) == tuple(sorted(product, key=wl.apos))


def test_window_weights_empty_window():
    assert wl.window_weights((1, 0)) == ()


def test_total_order_around_level_boundary():
    # ... < (4)^{r-1} < (0)^r < (3)^{r-1} < (12)^r < (2)^{r-1} < (13)^r
    #     < (1)^{r-1} < (14)^r < ...
    r = 1
    expected = [
        ("(4)", r - 1), ("(0)", r), ("(3)", r - 1), ("(12)", r),
        ("(2)", r - 1), ("(13)", r), ("(1)", r - 1), ("(14)", r),
    ]
    keys = [wl.apos(w) for w in expected]
    assert keys == list(range(keys[0], keys[0] + 8))


# ------------------------------------------------------------------ order


def test_leq_matches_bfs_oracle_two_levels():
    # exhaustive over a two-level window (32 elements, 1024 pairs)
    els = [(t, lvl) for lvl in (0, 1) for t in wl.TAGS]
    for a in els:
        up = bfs_up(a, (0, 1))
        for b in els:
            assert wl.leq(a, b) == (b in up), (a, b)


def test_leq_matches_bfs_oracle_gap_two():
    # paths from level 0 to level 2 stay inside levels 0..2, so the window
    # BFS is a complete oracle for the level-2 slice as well
    for ta in wl.TAGS:
        up = bfs_up((ta, 0), (0, 2))
        for tb in wl.TAGS:
            assert wl.leq((ta, 0), (tb, 2)) is True
            assert ((tb, 2) in up) is True


def test_leq_level_monotone():
    assert not wl.leq(("(0)", 1), ("(1)", 0))
    assert wl.leq(("(45)", 0), ("(0)", 1))
    assert not wl.leq(("(5)", 0), ("(0)", 1))


@settings(max_examples=200)
@given(weights(), weights(), weights())
def test_leq_transitive_antisymmetric(a, b, c):
    if wl.leq(a, b) and wl.leq(b, c):
        assert wl.leq(a, c)
    if wl.leq(a, b) and wl.leq(b, a):
        assert a == b


# ------------------------------------------------------------- meet/join


def test_meet_join_reference_examples():
    assert wl.meet(W("(14)@0"), W("(23)@0")) == W("(13)@0")
    assert wl.join(W("(14)@0"), W("(23)@0")) == W("(24)@0")
    assert wl.meet(W("(15)@0"), W("(23)@0")) == W("(13)@0")
    assert wl.join(W("(15)@0"), W("(23)@0")) == W("(25)@0")
    assert wl.meet(W("(0)@1"), W("(5)@0")) == W("(34)@0")
    assert wl.join(W("(0)@1"), W("(5)@0")) == W("(12)@1")
    assert wl.meet(W("(0)@1"), W("(1)@0")) == W("(45)@0")
    assert wl.join(W("(0)@1"), W("(1)@0")) == W("(23)@1")


@settings(max_examples=300)
@given(weights((0, 2)), weights((0, 2)))
def test_meet_join_universal_property(a, b):
    m = wl.meet(a, b)
    j = wl.join(a, b)
    assert wl.leq(m, a) and wl.leq(m, b)
    assert wl.leq(a, j) and wl.leq(b, j)
    # universal: every common bound factors through
    for lvl in range(m[1] - 1, m[1] + 1):
        for t in wl.TAGS:
            x = (t, lvl)
            if wl.leq(x, a) and wl.leq(x, b):
                assert wl.leq(x, m)
    for lvl in range(j[1], j[1] + 2):
        for t in wl.TAGS:
            x = (t, lvl)
            if wl.leq(a, x) and wl.leq(b, x):
                assert wl.leq(j, x)


# --------------------------------------------------- shift and involution


def test_shift_preserves_order():
    for a, b in wl.affine_covers((0, 1)):
        assert wl.leq(wl.shift(a, 3), wl.shift(b, 3))
    assert wl.shift(("(12)", 0), -2) == ("(12)", -2)


def test_anti_auto_table_and_involution():
    pairs = {
        "(0)": "(1)", "(12)": "(2)", "(13)": "(3)", "(14)": "(4)",
        "(15)": "(5)", "(23)": "(45)", "(24)": "(35)", "(25)": "(34)",
    }
    for a, b in pairs.items():
        assert wl.anti_auto((a, 0)) == (b, 0)
        assert wl.anti_auto((b, 0)) == (a, 0)
    for w in ALL_WINDOW:
        assert wl.anti_auto(wl.anti_auto(w)) == w
        assert wl.ht(wl.anti_auto(w)) == 10 - wl.ht(w)


@settings(max_examples=200)
@given(weights((-2, 2)), weights((-2, 2)))
def test_anti_auto_reverses_order(a, b):
    assert wl.leq(a, b) == wl.leq(wl.anti_auto(b), wl.anti_auto(a))


# -------------------------------------------------------------- intervals


def test_interval_chain():
    iv = wl.interval(W("(0)@0"), W("(15)@0"))
    assert [w[0] for w in iv.elements] == ["(0)", "(12)", "(13)", "(14)", "(15)"]
    assert wl.clutters(iv) == []
    assert wl.chain_length(iv) == 5


def test_interval_to_5():
    iv = wl.interval(W("(0)@0"), W("(5)@0"))
    assert {w[0] for w in iv.elements} == {
        "(0)", "(12)", "(13)", "(14)", "(23)", "(24)", "(34)", "(5)"
    }
    assert wl.clutters(iv) == [(W("(14)@0"), W("(23)@0"))]
    assert wl.chain_length(iv) == 7


EXPECTED_M = {
    frozenset({"(14)", "(23)"}), frozenset({"(15)", "(23)"}),
    frozenset({"(15)", "(24)"}), frozenset({"(15)", "(34)"}),
    frozenset({"(15)", "(5)"}), frozenset({"(25)", "(34)"}),
    frozenset({"(25)", "(5)"}), frozenset({"(35)", "(5)"}),
    frozenset({"(45)", "(5)"}), frozenset({"(45)", "(4)"}),
}

EXPECTED_CROSS_CLUTTERS = {
    (("(0)", 1), ("(5)", 0)), (("(0)", 1), ("(4)", 0)),
    (("(0)", 1), ("(3)", 0)), (("(0)", 1), ("(2)", 0)),
    (("(0)", 1), ("(1)", 0)), (("(12)", 1), ("(2)", 0)),
    (("(12)", 1), ("(1)", 0)), (("(13)", 1), ("(1)", 0)),
    (("(14)", 1), ("(1)", 0)), (("(15)", 1), ("(1)", 0)),
}


def test_interval_full_finite():
    iv = wl.interval(W("(0)@0"), W("(1)@0"))
    assert len(iv) == 16
    cl = wl.clutters(iv)
    assert len(cl) == 10
    assert {frozenset({a[0], b[0]}) for a, b in cl} == EXPECTED_M
    assert wl.chain_length(iv) == 11


def test_interval_two_level_window():
    iv = wl.interval(W("(0)@0"), W("(1)@1"))
    assert len(iv) == 32
    cl = wl.clutters(iv)
    assert len(cl) == 30
    level0 = {frozenset({a[0], b[0]}) for a, b in cl if a[1] == 0 and b[1] == 0}
    level1 = {frozenset({a[0], b[0]}) for a, b in cl if a[1] == 1 and b[1] == 1}
    cross = {frozenset({a, b}) for a, b in cl if a[1] != b[1]}
    assert level0 == EXPECTED_M
    assert level1 == EXPECTED_M
    assert cross == {frozenset(p) for p in EXPECTED_CROSS_CLUTTERS}


def test_interval_shift_invariance():
    iv0 = wl.interval(W("(0)@0"), W("(1)@1"))
    iv3 = wl.interval(W("(0)@3"), W("(1)@4"))
    assert [wl.shift(w, 3) for w in iv0.elements] == list(iv3.elements)


def test_empty_interval_raises():
    with pytest.raises(ValueError):
        wl.interval(W("(12)@0"), W("(0)@0"))


def test_chain_length_equals_ht_difference_plus_one():
    import random

    rng = random.Random(7)
    els = ALL_WINDOW
    done = 0
    while done < 25:
        a, b = rng.choice(els), rng.choice(els)
        if wl.leq(a, b):
            iv = wl.interval(a, b)
            assert wl.chain_length(iv) == wl.ht(b) - wl.ht(a) + 1
            done += 1


# --------------------------------------------------------- decomposition


def test_decompose_below_examples():
    assert wl.decompose_below(wl.interval(W("(0)@0"), W("(12)@0"))) == wl.Tail(
        W("(0)@0")
    )
    # the set of elements below (5) in [(0),(5)] has the single maximum (34)
    assert wl.decompose_below(wl.interval(W("(0)@0"), W("(5)@0"))) == wl.Tail(
        W("(34)@0")
    )
    assert wl.decompose_below(wl.interval(W("(0)@0"), W("(4)@0"))) == wl.Pair(
        tail=W("(5)@0"), other=W("(35)@0")
    )

    iv = wl.interval(W("(0)@0"), W("(4)@0"))
    with pytest.raises(ValueError, match="top != lo"):
        wl.decompose_below(iv, iv.lo)


def test_decompose_below_tail_property_everywhere():
    # in every Pair the designated tail side satisfies [lo, tail) = [lo, meet]
    iv = wl.interval(W("(0)@0"), W("(1)@1"))
    for top in iv.elements:
        if top == iv.lo:
            continue
        d = wl.decompose_below(iv, top)
        if isinstance(d, wl.Pair):
            m = wl.meet(d.tail, d.other)
            strict = {w for w in iv.elements if wl.leq(w, d.tail) and w != d.tail}
            closed = {w for w in iv.elements if wl.leq(w, m)}
            assert strict == closed


# ----------------------------------------------------------- text formats


def test_parse_format_roundtrip():
    for w in ALL_WINDOW:
        assert wl.parse_weight(wl.format_weight(w)) == w
    assert wl.parse_weight("(12)") == ("(12)", 0)
    assert wl.parse_weight("(12)^3") == ("(12)", 3)
    assert wl.parse_weight("(12)@-1") == ("(12)", -1)


@pytest.mark.parametrize("bad", ["(6)", "(21)", "12@0", "(12)@", "(12)@x", ""])
def test_parse_weight_rejects(bad):
    with pytest.raises(ValueError):
        wl.parse_weight(bad)


# --------------------------------------------------------------- emitters


def test_hasse_json_counts_and_determinism(tmp_path, capsys):
    from spinlaw import cli

    data = wl.hasse_json((0, 1))
    assert sorted(data) == ["edges", "nodes"]
    assert len(data["nodes"]) == 32
    # 20 same-level arrows per level plus 4 cross arrows
    assert len(data["edges"]) == 44
    again = wl.hasse_json((0, 1))
    assert json.dumps(data, sort_keys=True) == json.dumps(again, sort_keys=True)
    # the schema version is the CLI envelope's, written once by main
    out = tmp_path / "hasse.json"
    assert cli.main(["hasse", "--window", "0..1", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1 and report["window"] == [0, 1]
    assert report["nodes"] == data["nodes"] and report["edges"] == data["edges"]


def test_hasse_dot_contains_nodes_and_edges():
    dot = wl.hasse_dot(wl.hasse_json((0, 0)))
    assert dot.startswith("digraph hasse {")
    assert '"(0)@0"' in dot
    assert '"(45)@0" -> "(3)@0";' in dot
    assert dot.count("->") == 20
