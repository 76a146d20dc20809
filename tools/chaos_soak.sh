#!/usr/bin/env bash
# Chaos soak (DESIGN.md §16 acceptance): run the crusaded daemon under the
# deterministic environment-fault plan across several seeds and hold it to
# the chaos contract:
#
#   * the daemon never wedges — it answers STATS after every campaign;
#   * every submission either completes or fails with a typed, non-empty
#     reason (silent loss is the one unforgivable outcome);
#   * the daemon's own books balance: submitted == admitted + rejected,
#     with rejections split into typed busy/bad/disk buckets;
#   * a SIGKILL mid-campaign followed by a calm restart recovers or
#     quarantines every spooled job — the spool never poisons a restart.
#
# The fault plan is pure function of its seed (wall-clock never feeds it),
# so a failing seed replays exactly:
#   tools/chaos_soak.sh [binary-dir] [--seeds N] [--rate R]
set -euo pipefail
cd "$(dirname "$0")/.."

bindir="build"
seeds=3
rate=0.05
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seeds) seeds="$2"; shift 2 ;;
    --rate) rate="$2"; shift 2 ;;
    -*) echo "usage: tools/chaos_soak.sh [binary-dir] [--seeds N] [--rate R]" >&2
        exit 2 ;;
    *) bindir="$1"; shift ;;
  esac
done

crusade="$bindir/tools/crusade"
crusaded="$bindir/tools/crusaded"
for bin in "$crusade" "$crusaded"; do
  [[ -x "$bin" ]] || {
    echo "chaos_soak.sh: $bin not built (cmake --build $bindir -j)" >&2
    exit 2
  }
done

workdir="$bindir/chaos-soak"
rm -rf "$workdir"
mkdir -p "$workdir"
spec="$workdir/chaos.spec"
"$crusade" generate --tasks 40 --seed 7 -o "$spec" > /dev/null

stats_field() {  # stats_field <json-file> <key>
  sed -n 's/.*"'"$2"'":\(-\{0,1\}[0-9]*\).*/\1/p' "$1" | head -1
}

wait_socket() {
  for _ in $(seq 100); do
    [[ -S "$1" ]] && return 0
    sleep 0.1
  done
  echo "chaos_soak.sh: daemon never bound $1" >&2
  return 1
}

total_jobs=0
total_typed_failures=0
for seed in $(seq 1 "$seeds"); do
  sock="$workdir/seed$seed.sock"
  spool="$workdir/seed$seed.spool"
  log="$workdir/seed$seed.log"
  rm -rf "$sock" "$spool"
  echo "--- seed $seed: rate $rate, mixed campaign + SIGKILL + calm restart"
  "$crusaded" --socket "$sock" --spool "$spool" --workers 2 \
    --chaos "$seed:$rate" > "$log" 2>&1 &
  daemon=$!
  wait_socket "$sock"

  # A mix of cheap, cached, crashing, and resource-limited jobs.  Under
  # injected faults a submit may fail — that is the point — but it must
  # fail OUT LOUD: nonzero exit with output, never a hang, never silence.
  jobs=0
  typed_failures=0
  for i in $(seq 5); do
    for args in "--kind lint" "--kind lint" "" "--fault-crash 1"; do
      [[ $i -gt 2 && "$args" == "--fault-crash 1" ]] && continue
      # shellcheck disable=SC2086
      out=$(timeout 120 "$crusade" submit "$spec" --socket "$sock" \
        --retries 3 $args --wait 2>&1) && rc=0 || rc=$?
      jobs=$((jobs + 1))
      if [[ $rc -eq 124 ]]; then
        echo "chaos_soak.sh: seed $seed job $jobs WEDGED (timeout)" >&2
        kill -9 "$daemon" 2> /dev/null || true
        exit 1
      fi
      if [[ $rc -ne 0 ]]; then
        if [[ -z "$out" ]]; then
          echo "chaos_soak.sh: seed $seed job $jobs failed SILENTLY" >&2
          kill -9 "$daemon" 2> /dev/null || true
          exit 1
        fi
        typed_failures=$((typed_failures + 1))
      fi
    done
  done

  # Not wedged: the daemon still answers, and its books balance.
  "$crusade" stats --socket "$sock" > "$workdir/seed$seed.stats.json"
  submitted=$(stats_field "$workdir/seed$seed.stats.json" submitted)
  admitted=$(stats_field "$workdir/seed$seed.stats.json" admitted)
  r_busy=$(stats_field "$workdir/seed$seed.stats.json" rejected_busy)
  r_bad=$(stats_field "$workdir/seed$seed.stats.json" rejected_bad)
  r_disk=$(stats_field "$workdir/seed$seed.stats.json" rejected_disk)
  hits=$(stats_field "$workdir/seed$seed.stats.json" cache_hits)
  if [[ $((admitted + hits + r_busy + r_bad + r_disk)) -ne $submitted ]]; then
    echo "chaos_soak.sh: seed $seed books do not balance:" \
      "$submitted != $admitted+$hits+$r_busy+$r_bad+$r_disk" >&2
    exit 1
  fi

  # Crash the daemon outright, then restart on the same spool WITHOUT
  # chaos: recovery must come up clean, re-admitting or quarantining
  # whatever the dirty stop left behind.
  kill -9 "$daemon" 2> /dev/null || true
  wait "$daemon" 2> /dev/null || true
  rm -f "$sock"
  "$crusaded" --socket "$sock" --spool "$spool" --workers 2 \
    >> "$log" 2>&1 &
  daemon=$!
  wait_socket "$sock"
  "$crusade" stats --socket "$sock" > "$workdir/seed$seed.recovered.json"
  quarantined=$(stats_field "$workdir/seed$seed.recovered.json" \
    spool_quarantined)
  "$crusade" submit "$spec" --socket "$sock" --kind lint --wait > /dev/null
  "$crusade" shutdown --socket "$sock" > /dev/null
  wait "$daemon" || true
  echo "    seed $seed: $jobs jobs, $typed_failures typed failures," \
    "$quarantined quarantined at restart, daemon recovered and drained"
  total_jobs=$((total_jobs + jobs))
  total_typed_failures=$((total_typed_failures + typed_failures))
done

# --- restart storm: durability across repeated SIGKILL ----------------------
# One spool, $storm_cycles kill -9/restart cycles.  The contract (DESIGN.md
# §17): no job ever admitted goes missing, and any job that reached a
# terminal state keeps answering `crusade status <id>` / `result <id>` with
# BIT-IDENTICAL bytes in every later incarnation — re-execution would change
# them, so identity doubles as the zero-duplicate-execution proof.
storm_cycles=3
sock="$workdir/storm.sock"
spool="$workdir/storm.spool"
log="$workdir/storm.log"
snap="$workdir/storm-snap"
rm -rf "$sock" "$spool" "$snap"
mkdir -p "$snap"
: > "$workdir/storm.ids"
: > "$workdir/storm.terminal"
echo "--- restart storm: $storm_cycles SIGKILL/restart cycles on one spool"
for cycle in $(seq 1 "$storm_cycles"); do
  rm -f "$sock"
  "$crusaded" --socket "$sock" --spool "$spool" --workers 2 \
    >> "$log" 2>&1 &
  daemon=$!
  wait_socket "$sock"

  # Zero lost: every id ever admitted still answers after the crash.
  while read -r id; do
    [[ -n "$id" ]] || continue
    if ! "$crusade" status "$id" --socket "$sock" > /dev/null 2>&1; then
      echo "chaos_soak.sh: storm cycle $cycle LOST job $id" >&2
      kill -9 "$daemon" 2> /dev/null || true
      exit 1
    fi
  done < "$workdir/storm.ids"

  # Zero duplicated: terminal answers are bit-identical across the restart.
  while read -r id; do
    [[ -n "$id" ]] || continue
    "$crusade" status "$id" --socket "$sock" > "$snap/$id.status.now"
    "$crusade" result "$id" --socket "$sock" > "$snap/$id.result.now"
    for kind in status result; do
      if ! cmp -s "$snap/$id.$kind" "$snap/$id.$kind.now"; then
        echo "chaos_soak.sh: storm cycle $cycle: job $id $kind CHANGED" \
          "across restart (duplicate execution?)" >&2
        diff "$snap/$id.$kind" "$snap/$id.$kind.now" >&2 || true
        kill -9 "$daemon" 2> /dev/null || true
        exit 1
      fi
    done
  done < "$workdir/storm.terminal"

  # Two jobs drained to terminal (snapshotted), one left mid-flight for the
  # crash to interrupt.
  for i in 1 2; do
    out=$("$crusade" submit "$spec" --socket "$sock" --kind lint \
      --wait 2>&1)
    id=$(printf '%s' "$out" | sed -n 's/^{"id":\([0-9]*\).*/\1/p' \
      | head -1)
    if [[ -z "$id" ]]; then
      echo "chaos_soak.sh: storm cycle $cycle submit $i gave no id: $out" >&2
      kill -9 "$daemon" 2> /dev/null || true
      exit 1
    fi
    echo "$id" >> "$workdir/storm.ids"
    echo "$id" >> "$workdir/storm.terminal"
    "$crusade" status "$id" --socket "$sock" > "$snap/$id.status"
    "$crusade" result "$id" --socket "$sock" > "$snap/$id.result"
  done
  out=$("$crusade" submit "$spec" --socket "$sock" 2>&1) || true
  id=$(printf '%s' "$out" | sed -n 's/^{"id":\([0-9]*\).*/\1/p' \
    | head -1)
  [[ -n "$id" ]] && echo "$id" >> "$workdir/storm.ids"

  kill -9 "$daemon" 2> /dev/null || true
  wait "$daemon" 2> /dev/null || true
done

# Final calm incarnation drains the survivors and shuts down cleanly.
rm -f "$sock"
"$crusaded" --socket "$sock" --spool "$spool" --workers 2 >> "$log" 2>&1 &
daemon=$!
wait_socket "$sock"
storm_jobs=$(sort -u "$workdir/storm.ids" | wc -l)
while read -r id; do
  [[ -n "$id" ]] || continue
  if ! timeout 120 "$crusade" result "$id" --socket "$sock" --wait \
    > /dev/null 2>&1; then
    echo "chaos_soak.sh: storm survivor $id never reached terminal" >&2
    kill -9 "$daemon" 2> /dev/null || true
    exit 1
  fi
done < <(sort -u "$workdir/storm.ids")
"$crusade" shutdown --socket "$sock" > /dev/null
wait "$daemon" || true
echo "    storm: $storm_jobs jobs across $storm_cycles kill/restart cycles," \
  "zero lost, terminal answers bit-identical"

echo "chaos_soak.sh PASS: $seeds seeds, $total_jobs jobs under injected" \
  "faults, $total_typed_failures typed failures, zero silent losses, zero" \
  "wedges, every restart recovered clean, restart storm bit-identical"
