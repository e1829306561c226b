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

# ---------------------------------------------------------------------------
# Shard-outage drill: fail shard 0's query probe in a 3-shard fleet that
# serves one writer's epochs, and check that
#   * a write made during the outage still lands (OK seq=): writes never
#     depend on the read-side shards,
#   * partial queries answer with shard 0 left out (shards=2/0/1),
#   * strict queries bounce typed (shards-unavailable),
#   * after clearall and the stall-breaker cooldown the fleet is whole
#     (3/0/0),
#   * a restarted sharded fleet answers byte-identically to an unsharded
#     server that applied the same update history (exact-parity phase).
FLEET="$DIR/fleet"
rm -rf "$FLEET"
mkdir -p "$FLEET"
LOG="$DIR/chaos3.log"

feed_shards() {
  printf 'INSERT 1 2\n'
  printf 'FAILPOINT shard.query.0 error(EIO)\n'
  printf 'INSERT 2 3\n'
  printf 'QUERY 5 2\n'
  printf 'QUERY 5 2 STRICT\n'
  printf 'SHARDS\n'
  printf 'FAILPOINT clearall\n'
  # The server may lag stdin (the pipe buffers the whole script while it
  # is still starting up), so one sleep before one QUERY can execute
  # before the breaker's 500ms cooldown has elapsed. Spreading repeated
  # queries over several seconds of feed time makes the late ones land
  # after the cooldown no matter how slow startup was; the first of them
  # past it closes the breaker.
  i=0
  while [ "$i" -lt 16 ]; do
    sleep 0.5
    printf 'QUERY 5 2\n'
    i=$((i + 1))
  done
  printf 'SHARDS\n'
  printf 'QUIT\n'
}

feed_shards | "$SERVER" --dataset youtube-s --scale 0.1 --requests 50 \
  --clients 1 --threads 2 --shards 3 --live-dir "$FLEET" > "$LOG" 2>&1 \
  || fail "sharded server exited non-zero"

grep -q 'OK seq=1 ' "$LOG" || fail "pre-fault insert did not land"
grep -q 'OK seq=2 ' "$LOG" || fail "insert during the shard outage did not land"
grep -q 'shards=2/0/1' "$LOG" || fail "partial query did not leave out shard 0"
grep -q 'OK shards-unavailable 0 edges' "$LOG" \
  || fail "strict query was not rejected typed"
grep -q 'shard 0 state=down' "$LOG" || fail "SHARDS did not show shard 0 down"
grep -q 'OK shards=3 ok=3 degraded=0 down=0' "$LOG" \
  || fail "fleet did not heal to 3/0/0"
grep -q 'shards=3/0/0' "$LOG" || fail "post-heal query not whole-fleet"
test -f "$FLEET/wal.bin" || fail "sharded fleet did not write one wal.bin"
test -z "$(find "$FLEET" -mindepth 1 -type d)" \
  || fail "sharded fleet created per-shard directories"

# Exact-parity phase: the restarted fleet vs an unsharded server that
# applied the same history must print identical top-k edge lines.
LOG="$DIR/chaos4.log"
printf 'QUERY 5 2\nQUIT\n' | "$SERVER" --dataset youtube-s --scale 0.1 \
  --requests 50 --clients 1 --threads 2 --shards 3 --live-dir "$FLEET" \
  > "$LOG" 2>&1 || fail "restarted sharded server exited non-zero"
grep '^  [0-9][0-9]* (' "$LOG" > "$DIR/parity_sharded.txt"
test -s "$DIR/parity_sharded.txt" || fail "restarted fleet returned no edges"

REFLOG="$DIR/chaos5.log"
REFDIR="$DIR/unsharded_ref"
rm -rf "$REFDIR"
printf 'INSERT 1 2\nINSERT 2 3\nREFREEZE\nQUERY 5 2\nQUIT\n' | \
  "$SERVER" --dataset youtube-s --scale 0.1 --requests 50 --clients 1 \
  --threads 2 --live-dir "$REFDIR" > "$REFLOG" 2>&1 \
  || fail "unsharded reference server exited non-zero"
grep '^  [0-9][0-9]* (' "$REFLOG" > "$DIR/parity_unsharded.txt"

diff "$DIR/parity_sharded.txt" "$DIR/parity_unsharded.txt" > /dev/null || {
  echo "FAIL: healed fleet diverged from the unsharded reference" >&2
  diff "$DIR/parity_sharded.txt" "$DIR/parity_unsharded.txt" >&2 || true
  exit 1
}

echo "PASS: chaos smoke (outage typed, reads survived, heal + recovery clean," \
     "shard drill partial/strict/heal/parity clean)"
