// The multi-tenant synthesis service behind crusaded (DESIGN.md §13).
//
// Robustness is the design driver, in the same discipline the paper applies
// to the embedded architectures it synthesizes:
//
//  * Bounded priority queue with admission control.  A full queue earns an
//    honest typed ServiceBusy rejection with a retry-after hint — never a
//    silent drop, never unbounded memory.
//  * Per-request deadlines and cancellation ride the library's existing
//    RunController anytime machinery: an expired or cancelled job returns
//    its best-so-far validator-checked architecture (degraded-honest), not
//    a kill.
//  * Supervised workers with real crash isolation.  Every attempt runs in a
//    forked process; a worker that throws, segfaults, or trips the watchdog
//    is reaped and the job retried with capped exponential backoff from its
//    last checkpoint (src/ckpt), then marked failed-honest after
//    max_attempts.  One tenant's crash can never take the daemon — or
//    another tenant's job — down.
//  * Result cache keyed on Crusade::fingerprint: identical re-submissions
//    return the original bytes instantly, and cache entries are spooled to
//    disk.  Every admitted job owns one durable record (serve/durable.hpp),
//    written before the job ever becomes visible to a worker — admission
//    acknowledged implies crash-durable — and replaced by the job's
//    terminal answer before that answer is published.  A restart re-admits
//    the queued records and answers the terminal ones bit-identically.
//  * Bounded retention everywhere: the cache is capped and evicts the
//    cheapest-to-recompute entry first (an expensive synthesis result
//    outlives any number of cheap lint answers), and terminal
//    jobs (with their result bodies) are kept for the last terminal_retain
//    completions, then forgotten oldest-first — a long-lived daemon's
//    memory never grows with its lifetime.
//
// Every job therefore ends in exactly one of: ok (canonical answer, masked
// if retries were needed), degraded-honest (best-so-far under a deadline or
// cancellation), failed-honest (crash budget exhausted, bad spec), or
// cancelled-before-start.  Nothing is lost, duplicated, or silently
// truncated — the serve_test 100-job crash campaign is the enforcement.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/histogram.hpp"
#include "serve/protocol.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace crusade::serve {

struct ServiceConfig {
  /// Spool directory (jobs/ + cache/ are created inside).  Required.
  std::string spool_dir;
  int workers = 2;
  /// Admission bound on QUEUED jobs (running jobs do not count).
  int queue_capacity = 16;
  /// Attempts per job before failed-honest (>= 1).
  int max_attempts = 3;
  /// Capped exponential backoff between attempts: base * 2^(attempt-1).
  long backoff_base_ms = 20;
  long backoff_cap_ms = 1000;
  /// Watchdog slack beyond a job's deadline before SIGTERM; jobs without a
  /// deadline get attempt_timeout_ms.
  long watchdog_grace_ms = 2000;
  long attempt_timeout_ms = 60000;
  /// SIGTERM -> SIGKILL escalation window for workers that ignore the
  /// cooperative stop.
  long term_grace_ms = 1000;
  /// Result-cache entry bound; past it the cheapest-to-recompute entries
  /// (by the CPU time the original job's workers spent) are evicted first,
  /// spool files included — re-linting costs milliseconds,
  /// re-synthesizing does not.
  std::size_t cache_capacity = 256;
  /// Terminal-job retention bound (>= 1): finished jobs (and their result
  /// bodies) stay queryable until this many newer jobs have finished, then
  /// are forgotten oldest-first — status/result for an evicted id answers
  /// not-found.  Keeps a long-lived daemon's jobs_ map bounded.
  std::size_t terminal_retain = 1024;
  /// Checkpoint cadence inside run/validate workers.
  std::int64_t checkpoint_every = 200;
  /// Per-attempt worker resource limits, applied with setrlimit in the
  /// child before any real work (0 = unlimited).  A worker that trips one
  /// is classified resource-exhausted — retried once at a reduced search
  /// budget, never charged to the crash budget.
  long limit_as_mb = 0;     ///< RLIMIT_AS, mebibytes
  long limit_cpu_s = 0;     ///< RLIMIT_CPU soft limit, seconds
  long limit_fsize_mb = 0;  ///< RLIMIT_FSIZE, mebibytes
  /// Quarantined (.corrupt) evidence files kept per spool, oldest evicted
  /// first past the cap at recovery.  Quarantines are charged to the disk
  /// ledger like everything else — evidence is bounded, never unbounded.
  std::size_t quarantine_retain = 32;
  /// Byte quota over everything the service puts on disk (job spool,
  /// checkpoints, results, telemetry, result cache); 0 = unbounded.  When
  /// an admission would exceed it, the cheapest-to-recompute cache entries
  /// are evicted first (self-healing); if that is not enough the submit is
  /// rejected with a typed disk-full outcome.
  long long disk_budget_bytes = 0;
  /// Deterministic environment-fault injection (util/io_faults.hpp): a
  /// non-zero seed arms the process-global plan at construction.  When the
  /// seed is 0 the CRUSADE_CHAOS environment variable is consulted instead.
  std::uint64_t chaos_seed = 0;
  double chaos_rate = 0.05;
  /// Tests: hold workers until resume_workers() so queue order and
  /// admission control can be asserted deterministically.
  bool start_paused = false;
};

enum class JobState : std::uint8_t { Queued, Running, Done };
enum class JobOutcome : std::uint8_t {
  None,            ///< not terminal yet
  Ok,              ///< canonical answer, first attempt
  Masked,          ///< canonical answer after crash retries
  DegradedHonest,  ///< best-so-far under deadline/cancel truncation
  FailedHonest,    ///< crash budget exhausted, bad spec, spool failure
  Cancelled,       ///< cancelled while still queued (nothing ran)
};

const char* to_string(JobState state);
const char* to_string(JobOutcome outcome);

struct JobStatus;
struct ServiceStats;
/// JSON envelopes for the daemon's STATUS/STATS replies.
std::string to_json(const JobStatus& status);
std::string to_json(const ServiceStats& stats);

/// One supervised worker attempt in a job's retry history.  Times are
/// milliseconds relative to the job's admission.  For attempts that died
/// without a result (crash, watchdog SIGKILL) the span stack and counter
/// totals are read from the worker's flight recorder — the forensic
/// record of what the worker was doing when it died.
struct AttemptRecord {
  int attempt = 0;  ///< 1-based
  long start_ms = 0;
  long end_ms = 0;
  /// "ok", "truncated", "bad-spec", "crash", "watchdog", "cancelled", or
  /// "resource" (died on a governed rlimit — retried at reduced budget).
  std::string fate;
  /// Open spans at death, outermost first (crash/watchdog fates only).
  std::vector<std::string> crash_span_stack;
  /// Last-seen counter totals at death (crash/watchdog fates only).
  std::vector<std::pair<std::string, long long>> crash_counters;
};

/// Point-in-time public view of one job.
struct JobStatus {
  std::uint64_t id = 0;
  JobKind kind = JobKind::Run;
  JobState state = JobState::Queued;
  JobOutcome outcome = JobOutcome::None;
  int priority = 0;
  int attempts = 0;
  bool cached = false;     ///< served from the result cache
  bool recovered = false;  ///< re-admitted from the spool at startup
  bool cancel_requested = false;
  /// Dense completion sequence (1-based) — the order jobs finished, which
  /// the priority tests assert against.
  int finish_seq = 0;
  long wait_ms = 0;  ///< admission -> first fork (queued: so-far)
  long run_ms = 0;   ///< first fork -> terminal
  std::string detail;  ///< failure/cancellation explanation
  /// Supervised attempts so far, oldest first (empty for cache hits).
  std::vector<AttemptRecord> history;
};

/// submit() verdict: exactly one of admitted / busy / rejected is true.
struct SubmitOutcome {
  bool admitted = false;
  /// ServiceBusy: the bounded queue is full (or the service is draining).
  /// retry_after_ms is the honest hint — expected time for a slot to free.
  bool busy = false;
  bool shutting_down = false;
  long retry_after_ms = 0;
  /// The disk budget is exhausted and evicting every cache entry still
  /// could not make room to spool the job durably.  Typed and honest: the
  /// job was never admitted, nothing was written.
  bool disk_full = false;
  /// Bad request (unparseable spec for run/validate/survive, spool write
  /// failure): the message says why.  No job was created.
  std::string error;
  std::uint64_t id = 0;
  /// The result cache already held the canonical answer; the job is
  /// immediately terminal and result_body(id) returns the original bytes.
  bool cached = false;
  /// The request's idempotency key (spec fingerprint + client nonce)
  /// matched a live job: id refers to that existing job and no new work
  /// was admitted.  A resubmit after a lost reply lands here.
  bool duplicate = false;
};

/// Monotonic service counters (see also the serve.* obs counters).
struct ServiceStats {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected_busy = 0;
  std::int64_t rejected_bad = 0;
  std::int64_t cache_hits = 0;
  std::int64_t completed_ok = 0;
  std::int64_t masked = 0;
  std::int64_t degraded_honest = 0;
  std::int64_t failed_honest = 0;
  std::int64_t cancelled = 0;
  std::int64_t retries = 0;
  std::int64_t crashes = 0;
  std::int64_t watchdog_kills = 0;
  std::int64_t recovered = 0;
  /// Worker deaths classified as a governed rlimit (SIGXCPU, SIGXFSZ,
  /// bad_alloc under RLIMIT_AS) — distinct from crashes by design.
  std::int64_t resource_exhausted = 0;
  /// Submissions rejected because the disk budget could not admit them.
  std::int64_t rejected_disk = 0;
  /// Resubmits attached to an existing job via their idempotency key.
  std::int64_t duplicates_attached = 0;
  /// Cache entries evicted (capacity or disk-budget pressure).
  std::int64_t cache_evictions = 0;
  /// Corrupt job records kept as evidence and tombstoned at boot.
  std::int64_t spool_quarantined = 0;
  /// Terminal results made durable (CRES records over jobs/<id>.job).
  std::int64_t results_persisted = 0;
  /// Terminal records reloaded at startup — terminal jobs answering
  /// status/result across the restart without re-execution.
  std::int64_t results_recovered = 0;
  /// Terminal results that could not be persisted (disk full, injected
  /// fault): the in-memory answer still serves this incarnation, and the
  /// queued record stays for the next one to re-run.
  std::int64_t result_persist_failures = 0;
  /// Job record writes that failed, admission and terminal alike.  The
  /// name is the write-ahead journal's, which the per-job record replaced;
  /// STATS readers keep their key.
  std::int64_t journal_append_failures = 0;
  /// Boot-time scan verdicts for this incarnation.
  std::int64_t fsck_findings = 0;
  std::int64_t fsck_repairs = 0;
  /// Quarantined evidence files evicted oldest-first past quarantine_retain.
  std::int64_t quarantine_evicted = 0;
  /// Bytes the startup recount could not attribute to any known artifact —
  /// the disk.ledger_drift correction.
  long long ledger_drift_bytes = 0;
  /// Current bytes of spool + cache + telemetry the ledger tracks.
  long long disk_used_bytes = 0;
  int queue_depth = 0;
  int queue_peak = 0;
  int running = 0;
  long wait_ms_max = 0;
  double wait_ms_total = 0;
  double run_ms_total = 0;
  std::int64_t finished = 0;  ///< terminal jobs (denominator for averages)
  /// Daemon-side latency distributions in microseconds (obs/histogram.hpp):
  /// admission -> first fork, first fork -> terminal, and admission ->
  /// terminal (cache hits included in e2e only).
  obs::HistogramSnapshot queue_wait_us;
  obs::HistogramSnapshot run_us;
  obs::HistogramSnapshot e2e_us;
};

struct SpoolScan;

class Service {
 public:
  /// Creates spool directories, reloads the persisted result cache, and
  /// re-admits every job still spooled from a previous incarnation (their
  /// checkpoints make the resume cheap).  Throws Error when the spool
  /// cannot be created.
  explicit Service(ServiceConfig config);
  ~Service();  // stop(false) if still running

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  SubmitOutcome submit(const SubmitRequest& request) CRUSADE_EXCLUDES(mu_);
  /// Cooperative cancel.  Queued: terminal Cancelled immediately.  Running:
  /// SIGTERM to the worker, which returns best-so-far (DegradedHonest).
  /// False when the id is unknown.
  bool cancel(std::uint64_t id) CRUSADE_EXCLUDES(mu_);
  std::optional<JobStatus> status(std::uint64_t id) const
      CRUSADE_EXCLUDES(mu_);
  std::vector<JobStatus> jobs() const CRUSADE_EXCLUDES(mu_);
  /// Terminal result body (JSON) once the job is Done.
  std::optional<std::string> result_body(std::uint64_t id) const
      CRUSADE_EXCLUDES(mu_);
  /// Blocks until the job is terminal or timeout_ms elapses.  Returns true
  /// with the status + body on terminal.
  bool wait_result(std::uint64_t id, long timeout_ms, JobStatus* status_out,
                   std::string* body_out) CRUSADE_EXCLUDES(mu_);
  /// Merged Chrome-trace timeline for one job (DESIGN.md §15.2): the
  /// daemon's queue-wait / attempt / retry-backoff spans on pid 1 plus one
  /// process row per worker attempt, timed from the job's admission.
  /// Attempts that finished contribute the row they wrote; attempts that
  /// crashed contribute the spans open in their flight recorder.
  /// std::nullopt when the id is unknown.
  std::optional<std::string> job_trace_json(std::uint64_t id) const
      CRUSADE_EXCLUDES(mu_);
  ServiceStats stats() const CRUSADE_EXCLUDES(mu_);
  int recovered_jobs() const CRUSADE_EXCLUDES(mu_);

  /// Releases workers held by ServiceConfig::start_paused.
  void resume_workers() CRUSADE_EXCLUDES(mu_);

  /// Stops the service.  drain=true: no new admissions, queued + running
  /// jobs complete normally, then workers exit (graceful daemon shutdown).
  /// drain=false: queued jobs are parked back to the spool for the next
  /// incarnation, running workers get a SIGTERM and report best-so-far.
  /// Idempotent — and safe against concurrent callers (the worker vector
  /// is claimed under mu_, so exactly one caller joins each thread).
  void stop(bool drain) CRUSADE_EXCLUDES(mu_);

 private:
  struct Job;
  struct CacheEntry;

  void worker_loop() CRUSADE_EXCLUDES(mu_);
  void run_supervised(std::uint64_t id) CRUSADE_EXCLUDES(mu_);
  /// Cache key for a request: kind + Crusade::fingerprint (+ seeds for
  /// survive), 0 = never cache.  Throws Error when the spec does not parse
  /// (except lint, which keys on the raw text).
  std::uint64_t compute_cache_key(const SubmitRequest& request) const;
  /// Idempotency key: request fingerprint + client nonce; 0 when the
  /// request carries no nonce (idempotent attach disabled).
  static std::uint64_t compute_idem_key(const SubmitRequest& request,
                                        std::uint64_t cache_key);
  /// Classifies one reaped attempt; returns true when the job is terminal.
  bool classify_attempt(std::uint64_t id, int attempt, int wait_status,
                        bool watchdog_fired) CRUSADE_EXCLUDES(mu_);
  void finalize(std::uint64_t id, JobOutcome outcome, std::string body,
                std::string detail) CRUSADE_EXCLUDES(mu_);
  /// Records the end of one supervised attempt in the job's history,
  /// attaching flight-recorder evidence for attempts that died without a
  /// result.
  void record_attempt_end(std::uint64_t id, int attempt,
                          const std::string& fate) CRUSADE_EXCLUDES(mu_);
  /// Records a job as terminal and evicts the oldest terminal jobs past
  /// ServiceConfig::terminal_retain.  Evicted ids and their attempt counts
  /// are appended to `evicted` so the caller can unlink their records and
  /// telemetry files outside the lock.
  void note_terminal_locked(
      std::uint64_t id,
      std::vector<std::pair<std::uint64_t, int>>* evicted)
      CRUSADE_REQUIRES(mu_);
  /// Unlinks the terminal record and per-attempt trace + flight files of
  /// evicted jobs.
  void cleanup_telemetry(
      const std::vector<std::pair<std::uint64_t, int>>& evicted)
      CRUSADE_EXCLUDES(mu_);
  /// Inserts a canonical result keyed by `key`, remembering its
  /// cost-to-recompute (the job's worker CPU time) so disk/capacity
  /// pressure evicts the cheapest entries first.
  void cache_insert(std::uint64_t key, const std::string& body,
                    long long cost_us) CRUSADE_EXCLUDES(mu_);
  /// Drops the cheapest-to-recompute cache entry, its file included.
  void evict_cheapest_locked() CRUSADE_REQUIRES(mu_);
  /// Disk-budget ledger.  track_file stats `path` and records its size
  /// (replacing any previous record for the same path); remove_spool_file
  /// untracks and unlinks.  The ledger is rebuilt by the boot scan, so
  /// unlink failures only cost temporary accounting drift.
  void track_file(const std::string& path) CRUSADE_EXCLUDES(mu_);
  void track_file_locked(const std::string& path, long long bytes)
      CRUSADE_REQUIRES(mu_);
  void untrack_file_locked(const std::string& path) CRUSADE_REQUIRES(mu_);
  void remove_spool_file(const std::string& path) CRUSADE_EXCLUDES(mu_);
  /// Evicts cheapest-to-recompute cache entries until `need` more bytes fit
  /// under the disk budget (or the cache is empty).  Returns true when the
  /// budget can now admit `need` bytes.
  bool evict_cache_for_space_locked(long long need) CRUSADE_REQUIRES(mu_);
  /// Installs what the boot scan verified — ledger, cache, terminal
  /// answers, queued jobs — and applies the retention bounds to it.
  void install_spool_locked(SpoolScan scan) CRUSADE_REQUIRES(mu_);
  void spool_job(const Job& job) CRUSADE_REQUIRES(mu_);
  /// Durable-then-visible: replaces the job's record with its terminal
  /// answer (framed CRES) BEFORE the caller publishes the in-memory state.
  /// Throws Error, counted in result_persist_failures, when the answer
  /// cannot be made durable (after a directory fsync failure the new record
  /// has already reached its name; otherwise the old one is untouched).
  void persist_terminal_locked(Job& job) CRUSADE_REQUIRES(mu_);
  /// After the first record write of submit's job `id` threw `why`: true,
  /// with the job withdrawn and `out` a typed rejection, when no record is
  /// left on disk; false when a whole record reached its final name and
  /// cannot be removed, so the job keeps it (charged to the ledger).
  bool refuse_unrecorded_locked(std::uint64_t id, const std::string& why,
                                SubmitOutcome* out) CRUSADE_REQUIRES(mu_);
  std::string job_spool_path(std::uint64_t id) const;
  std::string ckpt_spool_path(std::uint64_t id) const;
  std::string result_spool_path(std::uint64_t id) const;
  std::string trace_spool_path(std::uint64_t id, int attempt) const;
  std::string flight_spool_path(std::uint64_t id, int attempt) const;
  std::string cache_path(std::uint64_t key) const;
  long busy_retry_hint_locked() const CRUSADE_REQUIRES(mu_);
  JobStatus snapshot_locked(const Job& job) const CRUSADE_REQUIRES(mu_);
  /// work_cv_ predicates (annotated helpers, not lambdas — see
  /// util/sync.hpp on why the analysis needs this shape).
  bool worker_wakeup_locked() const CRUSADE_REQUIRES(mu_);
  /// True when a retry backoff sleep for `id` should end early (job gone,
  /// cancelled, or hard stop).
  bool retry_interrupted_locked(std::uint64_t id) const CRUSADE_REQUIRES(mu_);

  ServiceConfig cfg_;
  mutable util::Mutex mu_;
  util::CondVar work_cv_;  ///< workers: queue/pause/stop changes
  util::CondVar done_cv_;  ///< waiters: job terminal transitions
  std::map<std::uint64_t, Job> jobs_ CRUSADE_GUARDED_BY(mu_);
  /// Ready queue ordered (-priority, id): highest priority first, FIFO
  /// within a priority (ids are monotonic).
  std::set<std::pair<long long, std::uint64_t>> queue_ CRUSADE_GUARDED_BY(mu_);
  /// Keyed lookups only — never iterated (iteration order would leak into
  /// nothing today, but crusade-check C001 enforces the habit in the
  /// decision-making subsystems).
  std::unordered_map<std::uint64_t, CacheEntry> cache_ CRUSADE_GUARDED_BY(mu_);
  /// Eviction order: (cost_us, key) ascending, so pressure always reclaims
  /// the entry that is cheapest to recompute.
  std::set<std::pair<long long, std::uint64_t>> cache_by_cost_
      CRUSADE_GUARDED_BY(mu_);
  /// Keyed lookups only — idempotency key -> live job id.
  std::unordered_map<std::uint64_t, std::uint64_t> idem_to_job_
      CRUSADE_GUARDED_BY(mu_);
  /// Keyed lookups only — disk ledger: tracked spool/cache/telemetry file
  /// -> last recorded byte size; disk_used_ is the running sum.
  std::unordered_map<std::string, long long> disk_files_
      CRUSADE_GUARDED_BY(mu_);
  long long disk_used_ CRUSADE_GUARDED_BY(mu_) = 0;
  /// Terminal jobs in completion order; the eviction window for jobs_.
  std::deque<std::uint64_t> terminal_order_ CRUSADE_GUARDED_BY(mu_);
  ServiceStats stats_ CRUSADE_GUARDED_BY(mu_);
  /// Latency histograms (µs).  Internally atomic — recorded outside mu_ on
  /// purpose so the hot path never takes the service lock for metrics.
  obs::Histogram queue_wait_hist_;
  obs::Histogram run_hist_;
  obs::Histogram e2e_hist_;
  /// Joined exactly once: stop() claims the vector by swapping it out under
  /// mu_, so concurrent stop() calls (destructor vs. daemon shutdown) can
  /// never both join the same thread.
  std::vector<std::thread> workers_ CRUSADE_GUARDED_BY(mu_);
  std::uint64_t next_id_ CRUSADE_GUARDED_BY(mu_) = 1;
  int finish_seq_ CRUSADE_GUARDED_BY(mu_) = 0;
  int recovered_ CRUSADE_GUARDED_BY(mu_) = 0;
  bool paused_ CRUSADE_GUARDED_BY(mu_) = false;
  bool stopping_ CRUSADE_GUARDED_BY(mu_) = false;
  bool drain_ CRUSADE_GUARDED_BY(mu_) = false;
};

}  // namespace crusade::serve
