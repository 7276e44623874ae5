#!/usr/bin/env python3
"""Walk one clutter through the whole straightening story.

Shows, for the interval [(0), (5)]: the incomparable pair, the unique
relation containing it, the straightened rewriting, the obstruction pair a
cubic monomial produces, the bilinear element that resolves it, and the
exact character whose pole order matches the chain length.
"""

import spinlaw.charseries as cs
import spinlaw.cli as cli
import spinlaw.polyring as pr
import spinlaw.richardson as rich
import spinlaw.weightlattice as wl

fmt = wl.format_weight

iv = wl.interval(wl.parse_weight("(0)@0"), wl.parse_weight("(5)@0"))
print(f"interval [{fmt(iv.lo)}, {fmt(iv.hi)}]:",
      " ".join(fmt(w) for w in iv.elements))

[(a, b)] = wl.clutters(iv)
print(f"\nonly clutter: {fmt(a)} and {fmt(b)} "
      f"(meet {fmt(wl.meet(a, b))}, join {fmt(wl.join(a, b))})")

[rel] = rich.build_relations(iv)
print(f"\nthe relation carrying it (quadric {rel.s}, mode {rel.l}):")
print("   ", pr.format_poly(rel.body), "= 0")
print("straightening shape:", rich.straightening_shape_check(rel))

print("\nstandard monomials vs graded quotient dimensions:")
keys = [wl.apos(w) for w in iv.elements]
graded = pr.graded_quotient_dims([rel.body], keys, 4)
for k, dim in enumerate(graded):
    std = rich.standard_monomials(iv, k)
    print(f"    k={k}:  {std} multichains  ==  dim {dim}")

print("\nobstruction pairs and their resolutions:")
print("    none inside this interval — one clutter cannot form a triple")
print("    with two incomparable sub-pairs.  In the full window the cubic")
print("    monomials built on our clutter do obstruct, and each pair is")
print("    resolved by a single bilinear element:")
clutter_set = frozenset((a, b))
full = wl.interval(wl.parse_weight("(0)@0"), wl.parse_weight("(1)@0"))
for entry in rich.obstruction_coverage(full):
    if not any(ob.inner == clutter_set for ob in entry["pair"]):
        continue
    pieces = []
    for ob in entry["pair"]:
        inner = " ".join(fmt(w) for w in sorted(ob.inner, key=wl.apos))
        pieces.append(f"{fmt(ob.outer)} * [{inner}]")
    print(f"    {' == '.join(pieces)}   resolved by h_{entry['element'][0]}"
          f" (route: {entry['route']})")

c = cs.character(iv, specialize={"s": 1, "q": 1}).reduced()
print("\nspecialized character:",
      f"({cli.format_laurent(c.num)}) / {cli.format_denominator(c.den)}")
print("pole order:", cs.pole_order(c),
      "== chain length:", wl.chain_length(iv))
print("series:", [int(p.total()) for p in c.series(6)])
