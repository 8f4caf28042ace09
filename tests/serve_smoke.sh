#!/usr/bin/env bash
# End-to-end smoke test for the sora_serve daemon (docs/SERVING.md).
#
#   tests/serve_smoke.sh path/to/sora_serve
#
# Exercises the full serving contract on a short Fig.5-derived trace:
#   1. golden run: an uninterrupted stream, per-slot allocation hashes;
#   2. crash run: snapshots every 5 slots, killed (exit 137) mid-stream
#      while /metrics is scraped live;
#   3. restore run: resumes from the last committed snapshot; the spliced
#      crash+restore trajectory must match the golden run bit for bit
#      (timing-variant fields are stripped before the diff);
#   4. deadline run: an impossibly small budget forces every slot through
#      the hold-and-repair degradation, visible in a live sora_slot_* scrape;
#   5. over-capacity run: a tick no allocation can cover is published as the
#      held decision (backend=hold_repair) and the next tick is served.
set -euo pipefail

SERVE=$(realpath "${1:?usage: serve_smoke.sh path/to/sora_serve}")
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

ARGS="--workload wikipedia --hours 48 --tier2 4 --tier1 8 --seed 42"
TICKS=36

# Per-slot output lines carry deterministic fields first and timing-variant
# ones (miss/latency) last; strip the latter for the differential check.
norm() { grep '^slot ' "$1" | sed 's/ miss=.*//'; }

scrape() { # scrape <port> <out-file>
  for _ in $(seq 1 50); do
    if curl -sf "http://127.0.0.1:$1/metrics" -o "$2"; then return 0; fi
    sleep 0.2
  done
  echo "serve_smoke: scrape of port $1 never succeeded" >&2
  return 1
}

echo "== emit tick trace =="
"$SERVE" $ARGS --emit-ticks "$TICKS" > ticks.txt
test "$(wc -l < ticks.txt)" -eq "$TICKS"

echo "== golden run =="
"$SERVE" $ARGS --ticks ticks.txt --out golden.txt

echo "== crash run (snapshot every 5, killed after 12, live scrape) =="
"$SERVE" $ARGS --ticks ticks.txt --out crash.txt \
  --snapshot state.snap --snapshot-every 5 --kill-after 12 \
  --tick-delay-ms 150 --metrics-port 9464 &
SERVE_PID=$!
# The latency histogram is registered at load: keep scraping until a slot
# has been recorded (the first scrape can land before slot 0 finishes).
for _ in $(seq 1 50); do
  scrape 9464 live-scrape.txt
  if grep -qE '^sora_slot_latency_seconds_count [1-9]' live-scrape.txt; then
    break
  fi
  sleep 0.1
done
grep -q 'sora_serve_ticks_total' live-scrape.txt
grep -qE '^sora_slot_latency_seconds_count [1-9]' live-scrape.txt
set +e
wait "$SERVE_PID"
CRASH_RC=$?
set -e
test "$CRASH_RC" -eq 137 || {
  echo "serve_smoke: expected crash exit 137, got $CRASH_RC" >&2; exit 1; }
test -f state.snap
test ! -f state.snap.tmp  # atomic: never a torn temp file left behind

echo "== restore run =="
"$SERVE" $ARGS --ticks ticks.txt --out resumed.txt \
  --snapshot state.snap --restore 2> restore.log
grep -q 'resuming at slot 10' restore.log

echo "== differential check: crash[0,10) + resumed == golden =="
( norm crash.txt | awk '$2 < 10'; norm resumed.txt ) > spliced.txt
diff <(norm golden.txt) spliced.txt
echo "trajectories match bit for bit"

echo "== deadline run (forced misses must degrade, not crash) =="
"$SERVE" $ARGS --ticks ticks.txt --out deadline.txt --max-slots 12 \
  --slot-budget-ms 0.0001 --tick-delay-ms 150 --metrics-port 9465 &
SERVE_PID=$!
# Keep scraping until a miss is on the board (the first scrape can land
# before slot 0 finishes), while the daemon is still alive.
for _ in $(seq 1 50); do
  scrape 9465 deadline-scrape.txt
  if grep -q '^sora_slot_deadline_miss_total [1-9]' deadline-scrape.txt; then
    break
  fi
  sleep 0.1
done
wait "$SERVE_PID"
grep '^slot ' deadline.txt | grep -q 'degraded=1'
grep '^slot ' deadline.txt | grep -q 'backend=hold_repair'
MISSES=$(awk '/^sora_slot_deadline_miss_total/ {print $2}' deadline-scrape.txt)
test -n "$MISSES" && awk -v m="$MISSES" 'BEGIN { exit !(m > 0) }'
REROUTES=$(awk '/^sora_serve_deadline_reroutes_total/ {print $2}' \
  deadline-scrape.txt)
test -n "$REROUTES" && awk -v r="$REROUTES" 'BEGIN { exit !(r > 0) }'

echo "== over-capacity tick (held, not an abort) =="
{ head -n 1 ticks.txt; echo "tick 1 0:1e9"; sed -n 3p ticks.txt; } > flood.txt
"$SERVE" $ARGS --ticks flood.txt --out flood-out.txt
grep '^slot 1 ' flood-out.txt | grep -q 'backend=hold_repair'
grep -q '^slot 2 ' flood-out.txt

echo "serve_smoke: all checks passed"
