#!/usr/bin/env bash
# Full verification sweep:
#   1. CI configuration (-Werror) build + entire test suite
#   2. crusade-check: the repo's own invariant linter (determinism, atomic
#      writes, signal safety — DESIGN.md §14), --json round-tripped through
#      a real parser
#   3. `crusade trace` on a paper example, trace JSON round-tripped through
#      a real parser, and an untraced `crusade run --json` of the same spec
#      reporting the same RunStats counters
#   4. clang-tidy over the library/tool sources (skipped when not installed)
#   5. cppcheck over the same sources (skipped when not installed)
#   6. kill/resume smoke: `crusade soak` SIGKILLs synthesis children at
#      random points and asserts resumed runs finish bit-identical
#   7. survivability smoke: fixed-seed `crusade survive` campaigns on
#      figure2 and on a generated many-frame HROST spec, each run twice,
#      JSON byte-identical, strict parse-back (0 FT-LIE, transients cross-PE)
#   8. paper-scale answer pin: Table 2's A1TR at 1.0x (1126 tasks) must
#      synthesize the pinned architectures with and without reconfiguration
#   9. boot-time fsck smoke: `crusaded --fsck` over a deliberately corrupted
#      spool — dry-run classifies without touching disk, the repair pass
#      quarantines with evidence and tombstones the record, and a second
#      scrub converges clean
#  10. ASan/UBSan configuration build + entire test suite
#  11. fault-injection harness + survive campaign under ASan/UBSan (the
#      mutated-spec and fault-replay paths are where memory bugs would hide)
#  12. UBSan-only configuration (RelWithDebInfo: optimizer-exposed UB that
#      the Debug ASan build can miss) + entire test suite + survive campaign
#  13. chaos soak: the seeded environment-fault campaign (ServeChaosTest +
#      IoFaultTest) under ASan/UBSan, plus tools/chaos_soak.sh driving a
#      live daemon with --chaos across seeds (including the restart storm),
#      plus the chaos availability bench with BENCH_chaos.json round-tripped
#      through a strict parser
#  14. recovery-time bench: dirty-spool restarts across growing populations,
#      BENCH_recovery.json parse-back asserts every boot recovered all
#      terminal answers and parked jobs (the honesty gate)
#  15. TSan configuration: serve_test (the one multi-threaded subsystem,
#      including the seeded chaos campaign), two syntheses on separate
#      threads (obs_test's RunStatsConcurrencyTest), plus a live `crusaded`
#      daemon driven by a `crusade submit` loop — races between the
#      supervisor, workers, and socket handlers surface here, not in the
#      single-threaded suites
#  16. benchmark paper totals + smoke: `crusade_bench/run.py --paper`
#      reproduces seed 1 of Tables 2-3 exactly (cost, evaluations,
#      infeasible count), then `--smoke` runs every workload once
#
# Every stage reports OK or an explicit "SKIPPED (<missing tool>)" line and
# lands in the final summary table.  Nothing is ever skipped silently.
#
#   tools/check.sh                  # everything
#   tools/check.sh --fast           # CI build + tests only
#   tools/check.sh --require-tools  # a missing optional tool fails the run
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
require_tools=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    --require-tools) require_tools=1 ;;
    *)
      echo "usage: tools/check.sh [--fast] [--require-tools]" >&2
      exit 2
      ;;
  esac
done

# --- stage bookkeeping -------------------------------------------------------
# stage NAME opens a stage; stage_ok / stage_skip REASON close it.  A stage
# left open when the script dies (set -e) is recorded as FAILED by the EXIT
# trap, so the summary table always tells the truth about how far we got.
stage_names=()
stage_results=()
current_stage=""

stage() {
  current_stage="$1"
  echo "=== $1 ==="
}

stage_ok() {
  stage_names+=("$current_stage")
  stage_results+=("OK")
  current_stage=""
}

stage_skip() {
  local reason="$1"
  if [[ "$require_tools" == 1 ]]; then
    echo "FAILED: $current_stage needs $reason (--require-tools)" >&2
    exit 3
  fi
  echo "SKIPPED: $current_stage ($reason)"
  stage_names+=("$current_stage")
  stage_results+=("SKIPPED ($reason)")
  current_stage=""
}

summary() {
  local rc=$?
  if [[ -n "$current_stage" ]]; then
    stage_names+=("$current_stage")
    stage_results+=("FAILED")
  fi
  echo
  echo "--- check.sh stage summary ---"
  local i
  for i in "${!stage_names[@]}"; do
    printf '  %-52s %s\n' "${stage_names[$i]}" "${stage_results[$i]}"
  done
  if [[ $rc -eq 0 ]]; then
    echo "check.sh: green"
  else
    echo "check.sh: FAILED (exit $rc)" >&2
  fi
}
trap summary EXIT

# --- stages ------------------------------------------------------------------

stage "CI configuration (release, -Werror)"
cmake --preset ci
cmake --build --preset ci -j "$(nproc)"
ctest --preset ci -j "$(nproc)"
stage_ok

stage "crusade-check (repo invariant linter)"
./build-ci/tools/crusade_check --root . --json > build-ci/crusade-check.json
if command -v python3 >/dev/null 2>&1; then
  python3 - build-ci/crusade-check.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["tool"] == "crusade-check", doc
assert doc["errors"] == 0, f'{doc["errors"]} invariant errors'
assert doc["suppressed"] == 0, f'{doc["suppressed"]} suppressions'
for f in doc["findings"]:
    assert f["suppressed"] and f["reason"], f
print(f'crusade-check JSON: {doc["files"]} files, 0 errors, '
      f'0 suppressions (python3)')
EOF
  stage_ok
elif command -v jq >/dev/null 2>&1; then
  jq -e '.tool == "crusade-check" and .errors == 0 and .suppressed == 0 and
         ([.findings[] | select(.suppressed | not)] | length == 0)' \
    build-ci/crusade-check.json > /dev/null
  echo "crusade-check JSON: 0 errors, 0 suppressions (jq)"
  stage_ok
else
  # The linter itself ran (its exit code gated the redirect above); only
  # the JSON round-trip needs a parser.
  stage_skip "no python3 or jq for JSON round-trip"
fi

stage "crusade trace (Chrome trace-event JSON round-trip)"
./build-ci/tools/crusade trace data/figure2.spec -o build-ci/trace.json \
  --json > build-ci/trace-run.json
# RunStats counters do not depend on tracing: a plain run (no --trace, no
# --stats) must report exactly the traced run's counters.
./build-ci/tools/crusade run data/figure2.spec --json > build-ci/plain-run.json
if command -v python3 >/dev/null 2>&1; then
  python3 - build-ci/trace.json build-ci/trace-run.json \
    build-ci/plain-run.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
phases = {e["name"] for e in doc["traceEvents"]
          if e["name"].startswith("phase.")}
assert len(phases) >= 5, f"expected >=5 phase spans, got {sorted(phases)}"
traced = json.load(open(sys.argv[2]))["stats"]["counters"]
plain = json.load(open(sys.argv[3]))["stats"]["counters"]
assert traced["sched.invocations"] > 0, traced
assert plain == traced, f"untraced counters {plain} != traced {traced}"
EOF
  echo "trace JSON: valid, >=5 phase spans, untraced counters = traced" \
    "(python3)"
  stage_ok
elif command -v jq >/dev/null 2>&1; then
  jq -e '[.traceEvents[].name | select(startswith("phase."))] | unique
         | length >= 5' build-ci/trace.json > /dev/null
  jq -e -n --slurpfile t build-ci/trace-run.json \
    --slurpfile p build-ci/plain-run.json \
    '$t[0].stats.counters["sched.invocations"] > 0
     and $p[0].stats.counters == $t[0].stats.counters' > /dev/null
  echo "trace JSON: valid, >=5 phase spans, untraced counters = traced (jq)"
  stage_ok
else
  stage_skip "no python3 or jq for JSON round-trip"
fi

stage "serve telemetry smoke (4 clients + merged job trace)"
# Live daemon, four concurrent clients, then one crash-retried synthesis:
# attempt 1 dies mid-run (its open spans come from its flight file),
# attempt 2 resumes and finishes (its spans come from the row it wrote).
# `crusade trace --job` must merge all of it into one valid Chrome
# trace-event timeline.
tele_sock="build-ci/crusaded.tele.sock"
tele_spool="build-ci/crusaded.tele.spool"
rm -rf "$tele_spool" "$tele_sock"
./build-ci/tools/crusaded --socket "$tele_sock" --spool "$tele_spool" \
  --workers 4 > build-ci/crusaded.tele.log 2>&1 &
tele_daemon=$!
for _ in $(seq 50); do
  [[ -S "$tele_sock" ]] && break
  sleep 0.1
done
./build-ci/tools/crusade generate --tasks 40 --seed 7 \
  -o build-ci/tele-smoke.spec > /dev/null
tele_clients=()
for client in 1 2 3 4; do
  (
    for i in $(seq 3); do
      ./build-ci/tools/crusade submit build-ci/tele-smoke.spec \
        --socket "$tele_sock" --kind lint --priority "$client" --wait \
        > /dev/null
    done
  ) &
  tele_clients+=("$!")
done
for pid in "${tele_clients[@]}"; do wait "$pid"; done
tele_submit=$(./build-ci/tools/crusade submit build-ci/tele-smoke.spec \
  --socket "$tele_sock" --fault-crash 1 --wait)
tele_id=$(printf '%s' "$tele_submit" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
./build-ci/tools/crusade trace --job "$tele_id" --socket "$tele_sock" \
  -o build-ci/job-trace.json > /dev/null
./build-ci/tools/crusade stats --socket "$tele_sock" \
  > build-ci/tele-stats.json
./build-ci/tools/crusade shutdown --socket "$tele_sock" > /dev/null
wait "$tele_daemon"
if command -v python3 >/dev/null 2>&1; then
  python3 - build-ci/job-trace.json build-ci/tele-stats.json <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "empty trace"

# Schema: only complete (X) and metadata (M) events — never an unterminated
# B — and every X span carries pid/tid/ts/dur.
by_row = {}
for e in events:
    assert e["ph"] in ("X", "M"), f"unexpected phase {e['ph']}: {e}"
    if e["ph"] == "M":
        continue
    assert e["dur"] >= 0 and e["ts"] >= 0, e
    by_row.setdefault((e["pid"], e["tid"]), []).append(e)

# Process rows: the daemon (pid 1) plus both worker attempts of the
# crash-retried job (pids 1001 and 1002 — attempt 1 from its flight file,
# attempt 2 from the row it wrote).
pids = {pid for pid, _ in by_row}
assert 1 in pids, f"no daemon row in {sorted(pids)}"
assert {1001, 1002} <= pids, f"expected both attempt rows, got {sorted(pids)}"
# The crashed attempt's row names the attempt it died in; the finished
# attempt's row carries its synthesis.
row_names = {}
for (pid, _), spans in by_row.items():
    row_names.setdefault(pid, set()).update(e["name"] for e in spans)
assert "serve.worker.attempt" in row_names[1001], sorted(row_names[1001])
assert "crusade.run" in row_names[1002], sorted(row_names[1002])

names = {e["name"] for e in events if e["ph"] == "X"}
assert "serve.queue_wait" in names and "serve.attempt" in names, names
assert "serve.retry_backoff" in names, names

# Spans within one (pid, tid) row must be properly nested or disjoint.
eps = 0.01  # microsecond rounding slack (ts/dur are printed at 0.001 us)
for row, spans in by_row.items():
    spans.sort(key=lambda e: (e["ts"], -e["dur"]))
    stack = []
    for e in spans:
        while stack and stack[-1] <= e["ts"] + eps:
            stack.pop()
        end = e["ts"] + e["dur"]
        assert not stack or end <= stack[-1] + eps, \
            f"partial overlap in row {row}: {e}"
        stack.append(end)

stats = json.load(open(sys.argv[2]))
# Every submission lands in e2e (cache hits included); queue_wait/run only
# count jobs that actually ran, and identical lint specs hit the cache once
# the first finishes, so those totals are >= 2 (one lint + the crash job)
# but race-dependent below 13.
assert stats["e2e_us"]["count"] >= 13, stats["e2e_us"]  # 12 lints + 1 run
for key in ("queue_wait_us", "run_us", "e2e_us"):
    assert stats[key]["count"] >= 2, f"{key}: {stats[key]}"
    assert stats[key]["p50"] <= stats[key]["p99"] <= stats[key]["max"], stats[key]
print(f"job trace: {len(events)} events across {len(pids)} process rows, "
      "properly nested; daemon histograms populated")
EOF
  stage_ok
else
  stage_skip "no python3 for Chrome trace-event schema validation"
fi

stage "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  # compile_commands.json comes from the CI configure above; analyze the
  # library and tool translation units (tests lean on gtest macros that
  # trip several bugprone checks by design).  src/serve and src/obs carry
  # stricter per-directory profiles (concurrency-*).
  mapfile -t tidy_sources < <(find src tools examples bench -name '*.cpp')
  clang-tidy -p build-ci --quiet "${tidy_sources[@]}"
  echo "clang-tidy: clean"
  stage_ok
else
  stage_skip "clang-tidy not installed"
fi

stage "cppcheck"
if command -v cppcheck >/dev/null 2>&1; then
  cppcheck --enable=warning,performance,portability --error-exitcode=1 \
    --inline-suppr --std=c++20 --quiet -I src src tools examples bench
  echo "cppcheck: clean"
  stage_ok
else
  stage_skip "cppcheck not installed"
fi

stage "kill/resume smoke (crusade soak)"
./build-ci/tools/crusade generate --tasks 40 --seed 7 -o build-ci/soak.spec \
  > /dev/null
./build-ci/tools/crusade soak build-ci/soak.spec --kills 5 \
  --checkpoint-every 10
stage_ok

stage "survivability smoke (crusade survive)"
# Fixed-seed campaigns, each run twice: the JSON reports must be
# byte-identical (no wall-clock times, no nondeterminism), the campaign
# clean (exit 0 is the no-FT-LIE verdict), and every transient caught
# cross-PE.  The generated HROST spec's fastest graph has 2.4 million
# frames per hyperperiod, so it keeps the run-length replay (DESIGN.md §12)
# exercised at a size the copy-by-copy replay could not afford.  It keeps
# reconfiguration on: its written spec is infeasible without it.
./build-ci/tools/crusade generate --profile HROST --scale 0.25 \
  -o build-ci/survive-hrost.spec > /dev/null
survive_twice() {  # <spec> <seeds> <report name>
  ./build-ci/tools/crusade survive "$1" --seeds "$2" --json \
    > "build-ci/$3.json"
  ./build-ci/tools/crusade survive "$1" --seeds "$2" --json \
    > "build-ci/$3-rerun.json"
  cmp "build-ci/$3.json" "build-ci/$3-rerun.json"
}
survive_twice data/figure2.spec 150 survive
survive_twice build-ci/survive-hrost.spec 100 survive-hrost
if command -v python3 >/dev/null 2>&1; then
  python3 - build-ci/survive.json build-ci/survive-hrost.json <<'EOF'
import json, sys
for path in sys.argv[1:]:
    doc = json.load(open(path))
    assert doc["feasible"], f"{path}: must synthesize under CRUSADE-FT"
    assert doc["scenarios"] == doc["seeds"] + 1, (path, doc["scenarios"])
    assert doc["ft_lies"] == 0, f'{path}: {doc["ft_lies"]} FT-LIE verdicts'
    assert doc["masked"] + doc["degraded_honest"] == doc["scenarios"], path
    assert doc["transients_cross_pe"] == doc["transients"], \
        f"{path}: transient caught by a checker on the faulted PE"
    for out in doc["outcomes"]:
        assert out["verdict"] in ("masked", "degraded-honest"), (path, out)
EOF
  echo "survive JSON: deterministic, clean, transients all cross-PE (python3)"
  stage_ok
else
  echo "survive JSON: deterministic and byte-identical (cmp)"
  stage_skip "no python3 for strict parse-back"
fi

stage "paper-scale answer pin (A1TR at 1.0x)"
# The one input at the paper's own size that this sweep synthesizes (about
# 6 s): A1TR's 1126 tasks must give 111 PEs, 86 links and $9054 without
# reconfiguration and 87 PEs, 81 links and $8130 with it, both feasible.
# Only a declared search change may move these numbers.
CRUSADE_SCALE=1.0 CRUSADE_ONLY=A1TR ./build-ci/bench/table2_crusade \
  > build-ci/table2-a1tr.txt
# Row: | Example | Tasks | PEs | Links | CPU(s) | Cost($) | PEs* | Links* |
#      CPU(s)* | Cost($)* | Savings% |
IFS='|' read -r _ _ tasks pes links _ cost pes_r links_r _ cost_r _ \
  <<< "$(grep '^| A1TR ' build-ci/table2-a1tr.txt | tr -d ' ')"
pinned="1126 111 86 9054 87 81 8130"
got="$tasks $pes $links $cost $pes_r $links_r $cost_r"
if [[ "$got" == "$pinned" ]] &&
   grep -q '^A1TR: done (9054 -> 8130, feasible 1/1)$' \
     build-ci/table2-a1tr.txt; then
  echo "A1TR at 1.0x: $got, both feasible"
  stage_ok
else
  echo "FAILED: A1TR at 1.0x gave '$got' (want '$pinned'), see" \
    "build-ci/table2-a1tr.txt" >&2
  exit 1
fi

stage "boot-time fsck smoke (crusaded --fsck on a corrupted spool)"
# Seed a spool with a garbage job record and temp debris, then hold --fsck
# to its contract: dry-run classifies without mutating anything, the repair
# pass keeps the record's bytes as evidence, puts a failed-honest tombstone
# (a framed CRES record) in its place and clears the debris, and a second
# scrub converges — no finding ever survives two repairs.
fsck_spool="build-ci/fsck-smoke.spool"
rm -rf "$fsck_spool"
mkdir -p "$fsck_spool/jobs"
printf 'this is not a framed job' > "$fsck_spool/jobs/8.job"
printf 'torn half-write' > "$fsck_spool/jobs/.tmp.123"
./build-ci/tools/crusaded --fsck --dry-run --spool "$fsck_spool" \
  > build-ci/fsck-dry.json
[[ -f "$fsck_spool/jobs/8.job" && -f "$fsck_spool/jobs/.tmp.123" &&
   ! -e "$fsck_spool/jobs/8.job.corrupt" ]] || {
  echo "fsck --dry-run mutated the spool" >&2
  exit 1
}
./build-ci/tools/crusaded --fsck --spool "$fsck_spool" \
  > build-ci/fsck-repair.json
[[ "$(head -c 4 "$fsck_spool/jobs/8.job")" == CRES &&
   ! -e "$fsck_spool/jobs/.tmp.123" ]] || {
  echo "fsck repair left the corruption in place" >&2
  exit 1
}
ls "$fsck_spool"/jobs/*.corrupt > /dev/null  # quarantine evidence retained
./build-ci/tools/crusaded --fsck --spool "$fsck_spool" \
  > build-ci/fsck-rescrub.json
if command -v python3 >/dev/null 2>&1; then
  python3 - build-ci/fsck-dry.json build-ci/fsck-repair.json \
    build-ci/fsck-rescrub.json <<'EOF'
import json, sys
dry, rep, again = (json.load(open(p)) for p in sys.argv[1:4])
assert not dry["clean"] and dry["findings"] >= 2, dry
assert dry["repairs"] == 0 and dry["quarantines"] == 0, dry
assert dry["counts"].get("corrupt-spool-entry") == 1, dry["counts"]
assert dry["counts"].get("temp-debris") == 1, dry["counts"]
assert rep["quarantines"] == 1 and rep["repair_failures"] == 0, rep
assert rep["repairs"] >= 1, rep
# Convergence: the rescrub may recount the quarantine evidence into the
# ledger (ledger-drift is accounting, not damage) but finds no corruption.
residual = {k: v for k, v in again["counts"].items() if k != "ledger-drift"}
assert not residual and again["repair_failures"] == 0, again
print(f'fsck smoke: {dry["findings"]} findings classified, '
      f'{rep["quarantines"]} quarantined with evidence, rescrub converged '
      '(python3)')
EOF
  stage_ok
else
  echo "fsck smoke: repair + convergence verified by file state (no python3)"
  stage_skip "no python3 for fsck report parse-back"
fi

if [[ "$fast" == 1 ]]; then
  echo "check.sh: CI suite green (sanitizer pass skipped: --fast)"
  exit 0
fi

stage "address/undefined sanitizer configuration"
cmake --preset asan
cmake --build --preset asan -j "$(nproc)"
ctest --preset asan -j "$(nproc)"
stage_ok

stage "fault injection under ASan/UBSan"
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
  ./build-asan/tests/inject_test
stage_ok

stage "survivability campaign under ASan/UBSan"
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
  ./build-asan/tools/crusade survive data/figure2.spec --seeds 150 \
  > /dev/null
stage_ok

stage "serve daemon load smoke under ASan/UBSan"
# Real daemon, real socket, concurrent clients: start crusaded, fire a
# submit loop (synthesis, lint, and cached resubmissions), then drain.
# Any heap error in the supervisor/worker/cache paths aborts the daemon
# and the final submit --wait fails.
asan_sock="build-asan/crusaded.sock"
asan_spool="build-asan/crusaded.spool"
rm -rf "$asan_spool" "$asan_sock"
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
  ./build-asan/tools/crusaded --socket "$asan_sock" --spool "$asan_spool" \
  --workers 2 > build-asan/crusaded.log 2>&1 &
asan_daemon=$!
for _ in $(seq 50); do
  [[ -S "$asan_sock" ]] && break
  sleep 0.1
done
./build-asan/tools/crusade generate --tasks 40 --seed 7 \
  -o build-asan/serve-smoke.spec > /dev/null
for i in $(seq 10); do
  ./build-asan/tools/crusade submit build-asan/serve-smoke.spec \
    --socket "$asan_sock" --wait > /dev/null
  ./build-asan/tools/crusade submit build-asan/serve-smoke.spec \
    --socket "$asan_sock" --kind lint --wait > /dev/null
done
# Flight-recorder read path: crash attempt 1, let the retry finish, then
# pull the merged trace — read_flight and job_trace_json both run inside
# the ASan-instrumented daemon.
asan_crash=$(./build-asan/tools/crusade submit build-asan/serve-smoke.spec \
  --socket "$asan_sock" --fault-crash 1 --wait)
asan_crash_id=$(printf '%s' "$asan_crash" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
./build-asan/tools/crusade trace --job "$asan_crash_id" \
  --socket "$asan_sock" -o build-asan/job-trace.json > /dev/null
grep -q '"serve.attempt"' build-asan/job-trace.json
./build-asan/tools/crusade shutdown --socket "$asan_sock" > /dev/null
wait "$asan_daemon"
echo "serve smoke: 21 jobs served under ASan/UBSan, crash trace merged," \
  "daemon drained clean"
stage_ok

stage "chaos soak (seeded env-fault campaign under ASan/UBSan)"
# The 210-scenario seeded campaign and the io_faults unit suite re-run
# under ASan/UBSan: injected ENOSPC/EIO/torn-rename paths are exactly
# where a missed errno or a use-after-close would hide.  Then the live
# daemon gets the same treatment across seeds via chaos_soak.sh.
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
  ./build-asan/tests/serve_test --gtest_filter='ServeChaosTest.*' \
  > /dev/null
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
  ./build-asan/tests/util_test --gtest_filter='IoFaultTest.*' > /dev/null
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
  tools/chaos_soak.sh build-asan --seeds 2
stage_ok

stage "chaos availability bench (BENCH_chaos.json parse-back)"
CRUSADE_SCALE=0.25 ./build-ci/bench/chaos_availability build-ci/BENCH_chaos.json \
  > /dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - build-ci/BENCH_chaos.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "chaos_availability", doc
assert doc["honest"], "availability books do not balance"
sweep = doc["sweep"]
assert len(sweep) >= 4, sweep
calm = sweep[0]
assert calm["fault_rate"] == 0 and calm["goodput"] == 1.0, calm
for p in sweep:
    total = (p["good"] + p["degraded"] + p["failed"] + p["rejected_typed"]
             + p["busy"])
    assert total == p["submitted"], p
    if p["fault_rate"] > 0:
        assert p["injected_faults"] > 0, p
    assert p["p50_ms"] <= p["p99_ms"], p
print(f'BENCH_chaos.json: {len(sweep)} fault rates, goodput '
      f'{sweep[-1]["goodput"]:.3f} at rate {sweep[-1]["fault_rate"]}, '
      'books balance (python3)')
EOF
  stage_ok
else
  stage_skip "no python3 for BENCH_chaos.json parse-back"
fi

stage "recovery-time bench (BENCH_recovery.json parse-back)"
CRUSADE_SCALE=0.1 ./build-ci/bench/recovery_time build-ci/BENCH_recovery.json \
  > /dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - build-ci/BENCH_recovery.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "recovery_time", doc
assert doc["honest"], "a timed boot lost work"
sweep = doc["sweep"]
assert len(sweep) >= 3, sweep
for p in sweep:
    assert p["honest"], p
    assert p["results_recovered"] == p["terminal"], p
    assert p["frames_recovered"] == p["parked"], p
    assert p["fsck_ms"] > 0 and p["recover_ms"] > 0, p
    assert p["disk_bytes"] > 0, p
# Populations grow 4x per point; the spool the boot must scan grows with
# them, so scanned bytes must be strictly monotone.
sizes = [p["disk_bytes"] for p in sweep]
assert sizes == sorted(sizes) and sizes[0] < sizes[-1], sizes
print(f'BENCH_recovery.json: {len(sweep)} populations up to '
      f'{sweep[-1]["terminal"]} terminal + {sweep[-1]["parked"]} parked, '
      f'full recovery {sweep[-1]["recover_ms"]:.1f} ms, every boot honest '
      '(python3)')
EOF
  stage_ok
else
  stage_skip "no python3 for BENCH_recovery.json parse-back"
fi

stage "UBSan-only configuration (optimized)"
cmake --preset ubsan
cmake --build --preset ubsan -j "$(nproc)"
ctest --preset ubsan -j "$(nproc)"
stage_ok

stage "survivability campaign under UBSan (optimized)"
UBSAN_OPTIONS=print_stacktrace=1 \
  ./build-ubsan/tools/crusade survive data/figure2.spec --seeds 150 \
  > /dev/null
stage_ok

stage "thread sanitizer configuration (serve subsystem, concurrent runs)"
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target serve_test obs_test \
  crusaded
# die_after_fork=0: the service forks worker attempts from a process that
# legitimately runs supervisor threads; the forked child execs no threads.
# serve_test includes the seeded chaos campaign (ServeChaosTest), so the
# injected-fault paths run under TSan here as well.
TSAN_OPTIONS="halt_on_error=1 die_after_fork=0" ./build-tsan/tests/serve_test
# Two syntheses on separate threads, each counting into its own RunStats
# while sharing one traced obs registry.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/obs_test \
  --gtest_filter='RunStatsConcurrencyTest.*'
stage_ok

stage "serve daemon load smoke under TSan"
tsan_sock="build-tsan/crusaded.sock"
tsan_spool="build-tsan/crusaded.spool"
rm -rf "$tsan_spool" "$tsan_sock"
TSAN_OPTIONS="halt_on_error=1 die_after_fork=0" \
  ./build-tsan/tools/crusaded --socket "$tsan_sock" --spool "$tsan_spool" \
  --workers 4 > build-tsan/crusaded.log 2>&1 &
tsan_daemon=$!
for _ in $(seq 50); do
  [[ -S "$tsan_sock" ]] && break
  sleep 0.1
done
./build-ci/tools/crusade generate --tasks 40 --seed 7 \
  -o build-tsan/serve-smoke.spec > /dev/null
# Concurrent submit loops: four clients hammering the daemon at once so
# the queue, cache, and supervisor paths actually interleave under TSan.
tsan_clients=()
for client in 1 2 3 4; do
  (
    for i in $(seq 5); do
      ./build-ci/tools/crusade submit build-tsan/serve-smoke.spec \
        --socket "$tsan_sock" --priority "$client" --wait > /dev/null
      ./build-ci/tools/crusade submit build-tsan/serve-smoke.spec \
        --socket "$tsan_sock" --kind lint --wait > /dev/null
    done
  ) &
  tsan_clients+=("$!")
done
for pid in "${tsan_clients[@]}"; do wait "$pid"; done
./build-ci/tools/crusade shutdown --socket "$tsan_sock" > /dev/null
wait "$tsan_daemon"
echo "serve smoke: 40 concurrent jobs served under TSan, daemon drained clean"
stage_ok

stage "benchmark paper totals + smoke (crusade_bench)"
# run.py --paper synthesizes seed 1 of Table 2 at 0.10x, B192G at 0.25x and
# Table 3 at 0.10x and exits non-zero unless each total reproduces exactly
# (Table 2: $40952, 25625 evaluations; B192G: $22469, 15281; Table 3:
# $43224, 16116, 1 infeasible) — the bit-identity guard at sizes the test
# suite never reaches.  --smoke runs every workload for one second.
if command -v python3 >/dev/null 2>&1; then
  python3 crusade_bench/run.py --paper
  python3 crusade_bench/run.py --smoke
  stage_ok
else
  stage_skip "no python3 for crusade_bench/run.py"
fi
