#!/bin/sh
# Chaos smoke test: drive a live esd_server through a WAL outage at runtime.
#
# Uses the FAILPOINT command to make every WAL append fail with ENOSPC, then
# checks the acceptance contract of the fault-hardened live index end to end:
#   * the transition write comes back "ERR wal-error ..." (typed),
#   * later writes bounce instantly with "ERR degraded ...",
#   * QUERY keeps answering from the last published epoch,
#   * STATS reports health=read-only while the fault is armed,
#   * after FAILPOINT clearall (+ one heal interval) writes resume,
#     STATS reports health=ok with the heal counted,
#   * a restart on the same --live-dir recovers exactly the accepted writes.
#
# usage: chaos_smoke.sh <esd_server> [workdir]
set -eu

SERVER=${1:?usage: chaos_smoke.sh <esd_server> [workdir]}
DIR=${2:-$(mktemp -d)}
LIVE="$DIR/live"
rm -rf "$LIVE"
mkdir -p "$LIVE"
LOG="$DIR/chaos1.log"

fail() {
  echo "FAIL: $1" >&2
  cat "$LOG" >&2
  exit 1
}

# The sleep before the post-heal INSERT lets the read-only index's heal
# probe interval (50ms by default) elapse, so that insert is the probe.
feed() {
  printf 'INSERT 1 2\n'
  printf 'FAILPOINT wal.append error(ENOSPC)\n'
  printf 'INSERT 2 3\n'
  printf 'INSERT 3 4\n'
  printf 'QUERY 3 2\n'
  printf 'STATS\n'
  printf 'FAILPOINT clearall\n'
  sleep 0.3
  printf 'INSERT 4 5\n'
  printf 'STATS\n'
  printf 'QUIT\n'
}

feed | "$SERVER" --dataset youtube-s --scale 0.1 --requests 50 --clients 1 \
  --threads 2 --live-dir "$LIVE" > "$LOG" 2>&1 \
  || fail "server exited non-zero"

if grep -q 'sites compiled out' "$LOG"; then
  echo "SKIP: esd_server built with ESD_FAULT=OFF (no injection sites)"
  exit 0
fi

grep -q 'OK seq=1 '       "$LOG" || fail "pre-fault insert did not land"
grep -q 'ERR wal-error '  "$LOG" || fail "no typed wal-error on the outage"
grep -q 'ERR degraded '   "$LOG" || fail "no typed degraded rejection"
grep -q 'OK ok [0-9]* edges' "$LOG" || fail "QUERY stopped answering read-only"
grep -q 'OK fail points cleared' "$LOG" || fail "FAILPOINT clearall not acked"
grep -q 'OK seq=2 '       "$LOG" || fail "post-heal insert did not land"

# STATS ordering: read-only while armed, ok (with the heal counted) after.
stats1=$(grep 'accepted=' "$LOG" | sed -n 1p)
stats2=$(grep 'accepted=' "$LOG" | sed -n 2p)
case "$stats1" in
  *"health=read-only"*) ;;
  *) fail "first STATS not read-only: $stats1" ;;
esac
case "$stats1" in
  *"wal_failures=1"*) ;;
  *) fail "first STATS missing wal_failures=1: $stats1" ;;
esac
case "$stats2" in
  *"heals=1"*"health=ok"*) ;;
  *) fail "second STATS not healed: $stats2" ;;
esac

# Restart on the same live dir: exactly the two accepted writes recover.
LOG="$DIR/chaos2.log"
printf 'STATS\nQUIT\n' | "$SERVER" --dataset youtube-s --scale 0.1 \
  --requests 50 --clients 1 --threads 2 --live-dir "$LIVE" > "$LOG" 2>&1 \
  || fail "recovery lost the accepted writes (server exited non-zero)"
grep -q 'live_seq=2 ' "$LOG" || fail "recovery lost the accepted writes"

echo "PASS: chaos smoke (outage typed, reads survived, heal + recovery clean)"
