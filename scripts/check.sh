#!/bin/sh
# Full verification: build, unit + property tests, a smoke table run,
# a fault-injection smoke run (README "Robustness & fallback
# semantics"), byte diffs across every switch, nontree-obs-v1 manifest
# checks on bin/tables and bin/compare, and one pass of each perfbench
# workload. Exits nonzero on the first failure.
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest

echo "== smoke: table 2, clean =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10

echo "== smoke: table 2, 20% fault injection =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  --fault-rate 0.2 --log-level error

echo "== smoke: table 2, 2 worker domains =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --jobs 2

echo "== smoke: table 2, 2 worker domains + 5% fault injection =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  --jobs 2 --fault-rate 0.05 --log-level error

echo "== smoke: table 2, incremental scoring disabled =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --no-incremental

echo "== smoke: --jobs 2 table output matches sequential =="
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  > "$tmpdir/seq.out" 2>/dev/null
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --jobs 2 \
  > "$tmpdir/jobs2.out" 2>/dev/null
diff -u "$tmpdir/seq.out" "$tmpdir/jobs2.out"

echo "== smoke: --no-incremental output matches incremental, jobs 1 and 2 =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  --no-incremental > "$tmpdir/noinc.out" 2>/dev/null
diff -u "$tmpdir/seq.out" "$tmpdir/noinc.out"
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --jobs 2 \
  --no-incremental > "$tmpdir/noinc2.out" 2>/dev/null
diff -u "$tmpdir/jobs2.out" "$tmpdir/noinc2.out"

echo "== smoke: --no-cache output matches cached, jobs 1 and 2 =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  --no-cache > "$tmpdir/nocache.out" 2>/dev/null
diff -u "$tmpdir/seq.out" "$tmpdir/nocache.out"
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --jobs 2 \
  --no-cache > "$tmpdir/nocache2.out" 2>/dev/null
diff -u "$tmpdir/jobs2.out" "$tmpdir/nocache2.out"

echo "== smoke: dense backend output matches sparse, jobs 1 and 2 =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  --matrix-backend dense > "$tmpdir/dense.out" 2>/dev/null
diff -u "$tmpdir/seq.out" "$tmpdir/dense.out"
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --jobs 2 \
  --matrix-backend dense > "$tmpdir/dense2.out" 2>/dev/null
diff -u "$tmpdir/jobs2.out" "$tmpdir/dense2.out"

echo "== smoke: dense backend matches sparse on the RLC extension =="
# The only diff whose transients carry inductor branch rows.
dune exec bin/tables.exe -- --ext rlc --trials 2 --sizes 5 \
  > "$tmpdir/rlc_sparse.out" 2>/dev/null
dune exec bin/tables.exe -- --ext rlc --trials 2 --sizes 5 \
  --matrix-backend dense > "$tmpdir/rlc_dense.out" 2>/dev/null
diff -u "$tmpdir/rlc_sparse.out" "$tmpdir/rlc_dense.out"

echo "== smoke: dense backend matches sparse under 20% fault injection =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  --fault-rate 0.2 --log-level quiet > "$tmpdir/fault_sparse.out" 2>/dev/null
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  --fault-rate 0.2 --log-level quiet --matrix-backend dense \
  > "$tmpdir/fault_dense.out" 2>/dev/null
diff -u "$tmpdir/fault_sparse.out" "$tmpdir/fault_dense.out"

echo "== incremental scoring cuts full factorizations at least 2x =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  --metrics-json "$tmpdir/m_on.json" > /dev/null 2>&1
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  --no-incremental --metrics-json "$tmpdir/m_off.json" > /dev/null 2>&1
f_on=$(sed -n 's/.*"sparse.factorizations": \([0-9]*\).*/\1/p' "$tmpdir/m_on.json")
f_off=$(sed -n 's/.*"sparse.factorizations": \([0-9]*\).*/\1/p' "$tmpdir/m_off.json")
echo "sparse.factorizations: incremental=$f_on, plain=$f_off"
[ -n "$f_on" ] && [ -n "$f_off" ] && [ "$f_off" -ge $((2 * f_on)) ]

echo "== sparse backend replaces >=90% of dense LU factorizations =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  --matrix-backend dense --metrics-json "$tmpdir/m_dense.json" > /dev/null 2>&1
sparse_f=$(sed -n 's/.*"sparse.factorizations": \([0-9]*\).*/\1/p' "$tmpdir/m_on.json")
lu_resid=$(sed -n 's/.*"lu.factorizations": \([0-9]*\).*/\1/p' "$tmpdir/m_on.json")
dense_lu=$(sed -n 's/.*"lu.factorizations": \([0-9]*\).*/\1/p' "$tmpdir/m_dense.json")
echo "sparse run: sparse=$sparse_f dense-residual=$lu_resid; dense run: lu=$dense_lu"
[ -n "$sparse_f" ] && [ -n "$dense_lu" ] && [ $((10 * sparse_f)) -ge $((9 * dense_lu)) ]
[ -n "$lu_resid" ] && [ $((10 * lu_resid)) -le "$dense_lu" ]

echo "== threshold scans stop at their last crossing: <= 80 steps per scan =="
# Half of fast_spice's 160-step chunk; a scan that ran whole chunks
# would take at least 160.
scans=$(sed -n 's/.*"spice.scans": \([0-9]*\).*/\1/p' "$tmpdir/m_on.json")
scan_steps=$(sed -n 's/.*"spice.scan_steps": \([0-9]*\).*/\1/p' "$tmpdir/m_on.json")
echo "spice.scans=$scans spice.scan_steps=$scan_steps"
[ -n "$scans" ] && [ -n "$scan_steps" ] && [ "$scans" -gt 0 ] \
  && [ "$scan_steps" -le $((80 * scans)) ]

echo "== smoke: observability manifest is valid, stdout unchanged =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --jobs 2 \
  --metrics-json "$tmpdir/obs.json" > "$tmpdir/obs.out" 2>/dev/null
dune exec bin/obs_check.exe -- "$tmpdir/obs.json"
diff -u "$tmpdir/seq.out" "$tmpdir/obs.out"

echo "== compare: manifest is valid, unknown --model is a usage error =="
dune exec bin/netgen.exe -- --pins 8 --seed 4 > "$tmpdir/net.txt"
dune exec bin/compare.exe -- "$tmpdir/net.txt" --model moment \
  --metrics-json "$tmpdir/compare.json" > /dev/null 2>&1
dune exec bin/obs_check.exe -- "$tmpdir/compare.json"
if dune exec bin/compare.exe -- "$tmpdir/net.txt" --model bogus \
  > /dev/null 2>&1; then
  echo "compare accepted --model bogus" >&2
  exit 1
fi

echo "== spice_run: a periodic PULSE deck reports a nonzero 50% delay =="
# The period (100 ns) divides every finite multiple of the horizon,
# where the pulse is back at 0 V; the settled state must still be 1 V.
cat > "$tmpdir/pulse.cir" <<'DECK'
* rc test
V1 in 0 PULSE(0 1 0 0.01n 0.01n 50n 100n)
R1 in out 1k
C1 out 0 1p
.probe out
.tran 0.01n 10n
.end
DECK
dune exec bin/spice_run.exe -- "$tmpdir/pulse.cir" --delay > "$tmpdir/pulse.out"
cat "$tmpdir/pulse.out"
d=$(sed -n 's/.*50% delay \([^ ]*\) ns.*/\1/p' "$tmpdir/pulse.out")
if ! awk -v d="$d" 'BEGIN { exit !(d > 0) }'; then
  echo "PULSE deck: 50% delay '$d' ns, expected > 0" >&2
  exit 1
fi

echo "== oracle cache: stderr summary identical at --jobs 1 and 2 =="
# Which candidates get stored depends on the order worker domains
# finish in, so a count of stored entries varies between --jobs 2 runs
# (about 1 run in 8 on a 2-core host); 30 runs make such a leak near
# certain to show.
dune exec bin/tables.exe -- --table 3 --trials 2 --sizes 5,10 2>&1 \
  >/dev/null | grep '^oracle cache:' > "$tmpdir/cache1.err"
cat "$tmpdir/cache1.err"
i=0
while [ "$i" -lt 30 ]; do
  dune exec bin/tables.exe -- --table 3 --trials 2 --sizes 5,10 --jobs 2 \
    2>&1 >/dev/null | grep '^oracle cache:' > "$tmpdir/cache2.err"
  diff -u "$tmpdir/cache1.err" "$tmpdir/cache2.err"
  i=$((i + 1))
done

echo "== perfbench: one pass of each workload, every check passing =="
# Expected results in %h, the slow-path re-score and the per-net
# evaluation accounting; run.sh exits nonzero on any failed check.
for w in ldrg-spice-30 sldrg-spice-20 ldrg-moment-60; do
  bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 \
    > "$tmpdir/perfbench-$w.json" 2> "$tmpdir/perfbench-$w.err" || {
    cat "$tmpdir/perfbench-$w.err"
    exit 1
  }
  echo "$w: $(tail -n 1 "$tmpdir/perfbench-$w.json" | cut -c 1-60)"
done

echo "all checks passed"
