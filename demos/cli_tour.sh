#!/bin/sh
# Tour of the spinlaw command line.  Artifacts land in a scratch directory;
# every command is deterministic, so reruns produce byte-identical files.
# Each call runs on its own, so that `set -e` sees it fail, and the lines
# shown are read back from the artifact it wrote.
set -e

OUT="${SPINLAW_OUT:-$(mktemp -d)}"
export SPINLAW_OUT="$OUT"
echo "artifacts -> $OUT"
echo

echo "== the two-level cover diagram (DOT) =="
spinlaw hasse --window 0..1 --format dot > /dev/null
head -6 "$OUT/hasse.dot"
spinlaw hasse --window 0..1 > /dev/null
echo "  ... ($(python3 -c 'import json,sys;d=json.load(sys.stdin);print(d["node_count"],"nodes,",d["edge_count"],"covers")' < "$OUT/hasse.json"))"
echo

echo "== the single relation of [(0),(5)] =="
spinlaw relations --lo '(0)@0' --hi '(5)@0' --format csv
echo

echo "== confluence on the 32-variable window [(0)^0,(1)^1] =="
spinlaw straightened-check --lo '(0)@0' --hi '(1)@1' --k-max 2 > /dev/null
python3 -c 'import json,sys;d=json.load(sys.stdin);print("dims:",d["dimensions"],"buchberger:",d["buchberger_ok"])' \
  < "$OUT/straightened-check.json"
echo

echo "== every obstruction pair and its resolving bilinear element =="
spinlaw obstructions --lo '(0)@0' --hi '(1)@0' --format csv > /dev/null
head -5 "$OUT/obstructions.csv"
echo "  ..."
echo

echo "== the pure-spinor character =="
spinlaw character --lo '(0)@0' --hi '(1)@0' --specialize s=1,q=1 --series 4 > /dev/null
python3 -c 'import json,sys;d=json.load(sys.stdin);print(d["numerator"],"/",d["denominator"],"  series:",d["series"])' \
  < "$OUT/character.json"
echo

echo "== Delannoy closed forms along the distinguished chain =="
spinlaw delannoy-check --r-max 4 --k-max 8 > /dev/null
python3 -c 'import json,sys;d=json.load(sys.stdin);print("ok:",d["ok"],"  D_4:",d["rows"][4])' \
  < "$OUT/delannoy-check.json"
