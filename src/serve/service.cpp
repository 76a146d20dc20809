#include "serve/service.hpp"

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>

#include "ckpt/serialize.hpp"
#include "core/crusade.hpp"
#include "graph/spec_io.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "serve/durable.hpp"
#include "serve/fsck.hpp"
#include "serve/worker.hpp"
#include "util/atomic_file.hpp"
#include "util/disk_format.hpp"
#include "util/error.hpp"
#include "util/io_faults.hpp"
#include "util/json_writer.hpp"

namespace crusade::serve {

namespace {

using Clock = std::chrono::steady_clock;

long elapsed_ms(Clock::time_point since) {
  return static_cast<long>(std::chrono::duration_cast<std::chrono::milliseconds>(
                               Clock::now() - since)
                               .count());
}

std::uint64_t elapsed_us(Clock::time_point since) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - since)
                      .count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

/// Absolute steady-clock nanoseconds — the same clock obs spans and worker
/// trace epochs use, so job admission times and worker events live on one
/// comparable timeline (obs::epoch_ns).
std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw_io_error("serve: mkdir " + path, errno);
}

/// mkdir -p for the spool root (tests use nested temp paths).
void make_dirs(const std::string& path) {
  std::size_t pos = 0;
  while (pos < path.size()) {
    std::size_t slash = path.find('/', pos + 1);
    if (slash == std::string::npos) slash = path.size();
    const std::string prefix = path.substr(0, slash);
    if (!prefix.empty() && prefix != "/") make_dir(prefix);
    pos = slash;
  }
}

/// User + system CPU time of a reaped child, in microseconds.
long long cpu_us(const struct rusage& usage) {
  return (static_cast<long long>(usage.ru_utime.tv_sec) +
          static_cast<long long>(usage.ru_stime.tv_sec)) *
             1000000LL +
         static_cast<long long>(usage.ru_utime.tv_usec) +
         static_cast<long long>(usage.ru_stime.tv_usec);
}

/// iofault observer -> obs bridge: every injected environment fault shows
/// up as a chaos.* counter next to the serve.* metrics it perturbs.
void chaos_obs_bridge(const char* counter_name) { obs::count(counter_name); }

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
  }
  return "?";
}

const char* to_string(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::None: return "none";
    case JobOutcome::Ok: return "ok";
    case JobOutcome::Masked: return "masked";
    case JobOutcome::DegradedHonest: return "degraded-honest";
    case JobOutcome::FailedHonest: return "failed-honest";
    case JobOutcome::Cancelled: return "cancelled";
  }
  return "?";
}

std::string to_json(const JobStatus& s) {
  tools::JsonWriter w;
  w.begin_object()
      .key("id").value(static_cast<unsigned long long>(s.id))
      .key("kind").value(to_string(s.kind))
      .key("state").value(to_string(s.state))
      .key("outcome").value(to_string(s.outcome))
      .key("priority").value(s.priority)
      .key("attempts").value(s.attempts)
      .key("cached").value(s.cached)
      .key("recovered").value(s.recovered)
      .key("cancel_requested").value(s.cancel_requested)
      .key("finish_seq").value(s.finish_seq)
      .key("wait_ms").value(static_cast<long long>(s.wait_ms))
      .key("run_ms").value(static_cast<long long>(s.run_ms))
      .key("detail").value(s.detail)
      .key("history");
  w.begin_array();
  for (const AttemptRecord& a : s.history) {
    w.begin_object()
        .key("attempt").value(a.attempt)
        .key("start_ms").value(static_cast<long long>(a.start_ms))
        .key("end_ms").value(static_cast<long long>(a.end_ms))
        .key("fate").value(a.fate)
        .key("span_stack");
    w.begin_array();
    for (const std::string& span : a.crash_span_stack) w.value(span);
    w.end_array();
    w.key("counters").begin_object();
    for (const auto& [name, value] : a.crash_counters)
      w.key(name).value(static_cast<long long>(value));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string to_json(const ServiceStats& s) {
  tools::JsonWriter w;
  w.begin_object()
      .key("submitted").value(static_cast<long long>(s.submitted))
      .key("admitted").value(static_cast<long long>(s.admitted))
      .key("rejected_busy").value(static_cast<long long>(s.rejected_busy))
      .key("rejected_bad").value(static_cast<long long>(s.rejected_bad))
      .key("cache_hits").value(static_cast<long long>(s.cache_hits))
      .key("completed_ok").value(static_cast<long long>(s.completed_ok))
      .key("masked").value(static_cast<long long>(s.masked))
      .key("degraded_honest").value(static_cast<long long>(s.degraded_honest))
      .key("failed_honest").value(static_cast<long long>(s.failed_honest))
      .key("cancelled").value(static_cast<long long>(s.cancelled))
      .key("retries").value(static_cast<long long>(s.retries))
      .key("crashes").value(static_cast<long long>(s.crashes))
      .key("watchdog_kills").value(static_cast<long long>(s.watchdog_kills))
      .key("recovered").value(static_cast<long long>(s.recovered))
      .key("resource_exhausted")
      .value(static_cast<long long>(s.resource_exhausted))
      .key("rejected_disk").value(static_cast<long long>(s.rejected_disk))
      .key("duplicates_attached")
      .value(static_cast<long long>(s.duplicates_attached))
      .key("cache_evictions").value(static_cast<long long>(s.cache_evictions))
      .key("spool_quarantined")
      .value(static_cast<long long>(s.spool_quarantined))
      .key("results_persisted")
      .value(static_cast<long long>(s.results_persisted))
      .key("results_recovered")
      .value(static_cast<long long>(s.results_recovered))
      .key("result_persist_failures")
      .value(static_cast<long long>(s.result_persist_failures))
      .key("journal_append_failures")
      .value(static_cast<long long>(s.journal_append_failures))
      .key("fsck_findings").value(static_cast<long long>(s.fsck_findings))
      .key("fsck_repairs").value(static_cast<long long>(s.fsck_repairs))
      .key("quarantine_evicted")
      .value(static_cast<long long>(s.quarantine_evicted))
      .key("ledger_drift_bytes").value(s.ledger_drift_bytes)
      .key("disk_used_bytes").value(s.disk_used_bytes)
      .key("queue_depth").value(s.queue_depth)
      .key("queue_peak").value(s.queue_peak)
      .key("running").value(s.running)
      .key("wait_ms_max").value(static_cast<long long>(s.wait_ms_max))
      .key("wait_ms_total").value(s.wait_ms_total, 1)
      .key("run_ms_total").value(s.run_ms_total, 1)
      .key("finished").value(static_cast<long long>(s.finished))
      .key("queue_wait_us").raw(s.queue_wait_us.to_json())
      .key("run_us").raw(s.run_us.to_json())
      .key("e2e_us").raw(s.e2e_us.to_json())
      .end_object();
  return w.str();
}

struct Service::Job {
  std::uint64_t id = 0;
  SubmitRequest req;
  /// 0 when the result must not be cached (fault injection, unparseable
  /// recovered spec).
  std::uint64_t cache_key = 0;
  JobState state = JobState::Queued;
  JobOutcome outcome = JobOutcome::None;
  int attempts = 0;
  bool cached = false;
  bool recovered = false;
  bool cancel_requested = false;
  int finish_seq = 0;
  Clock::time_point submitted_at = Clock::now();
  /// submitted_at on the absolute steady-clock axis: every worker row and
  /// flight span of the job's trace is timed from it (job_trace_json).
  std::int64_t submit_steady_ns = steady_now_ns();
  Clock::time_point started_at{};
  long wait_ms = 0;
  long run_ms = 0;
  pid_t child_pid = 0;
  /// Idempotency key this job is registered under (0 = none).
  std::uint64_t idem_key = 0;
  /// Attempts that ended in a genuine crash — the denominator for the
  /// crash budget.  Resource-exhausted deaths deliberately do not count.
  int crash_attempts = 0;
  /// A previous attempt died on a governed rlimit: the next one runs with
  /// a capped search budget, and its completion is degraded-honest.
  bool reduced_budget = false;
  /// Which limit fired, for the diagnosis ("RLIMIT_CPU (cpu seconds)"...).
  std::string resource_limit;
  /// User + system CPU microseconds of every attempt so far (wait4): the
  /// cost-to-recompute the result cache evicts by.
  long long cpu_us = 0;
  std::string body;
  std::string detail;
  std::vector<AttemptRecord> history;
};

struct Service::CacheEntry {
  std::string body;
  /// CPU time the original job spent computing this answer — the price of
  /// losing the entry, which is exactly the eviction order.  Unlike wall
  /// time it does not grow when the machine is busy.
  long long cost_us = 0;
};

Service::Service(ServiceConfig config) : cfg_(std::move(config)) {
  if (cfg_.spool_dir.empty()) throw Error("serve: spool_dir is required");
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (cfg_.max_attempts < 1) cfg_.max_attempts = 1;
  if (cfg_.terminal_retain < 1) cfg_.terminal_retain = 1;
  make_dirs(cfg_.spool_dir);
  make_dir(cfg_.spool_dir + "/jobs");
  make_dir(cfg_.spool_dir + "/cache");
  // Chaos plan: config seed wins; otherwise the CRUSADE_CHAOS environment
  // variable (seed[:rate]) arms the same process-global plan.  The observer
  // bridge makes every injection visible as a chaos.* counter.  Armed
  // before recovery on purpose — a spool rescued under injected faults is
  // the scenario the quarantine paths exist for.
  iofault::set_observer(&chaos_obs_bridge);
  if (cfg_.chaos_seed != 0) {
    iofault::Plan plan;
    plan.seed = cfg_.chaos_seed;
    plan.rate = cfg_.chaos_rate;
    iofault::arm(plan);
  } else if (const char* env = std::getenv("CRUSADE_CHAOS")) {
    iofault::arm_from_env(env);
  }
  // Hold mu_ through recovery and worker creation: freshly spawned workers
  // block on their first lock until construction finishes, so none can
  // observe a half-recovered spool.
  util::MutexLock lk(mu_);
  paused_ = cfg_.start_paused;
  // One pass over the spool before anything trusts it: the scan repairs
  // what it can and hands back everything it verified.  Runs under the
  // chaos plan armed above — surviving injected faults is part of its
  // contract.
  install_spool_locked(scan_spool(cfg_.spool_dir, /*repair=*/true));
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

Service::~Service() { stop(false); }

/// The cache key binds everything that shapes a canonical answer: the job
/// kind, the search fingerprint (spec + library + search parameters — see
/// Crusade::fingerprint), and the survive campaign size.  Fault-injected
/// requests are never keyed: a cache hit would silently skip the injection.
/// Throws Error (propagating the parse failure) for run/validate/survive
/// specs that do not parse.
std::uint64_t Service::compute_cache_key(const SubmitRequest& req) const {
  if (req.fault_crash_attempts > 0 || req.fault_hang_attempts > 0 ||
      req.fault_resource_attempts > 0)
    return 0;
  std::uint64_t base = 0;
  if (req.kind == JobKind::Lint) {
    base = ckpt::fnv1a(req.spec_text);
  } else {
    const ResourceLibrary lib = telecom_1999();
    std::istringstream in(req.spec_text);
    const Specification spec = read_specification(in, lib);
    CrusadeParams params;
    params.enable_reconfig = req.enable_reconfig;
    base = Crusade::fingerprint(spec, lib, params);
  }
  std::string mix = std::string(to_string(req.kind)) + ":" + hex16(base) +
                    ":r" + (req.enable_reconfig ? "1" : "0");
  if (req.kind == JobKind::Survive)
    mix += ":s" + std::to_string(req.survive_seeds);
  const std::uint64_t key = ckpt::fnv1a(mix);
  return key == 0 ? 1 : key;
}

/// The idempotency key binds the request's content fingerprint to the
/// client-chosen nonce: the same client retrying the same request maps to
/// the same key, while two clients submitting identical specs with
/// different nonces stay distinct jobs.  Fault-injected requests have
/// cache_key 0 and fall back to the raw spec hash, so chaos tests can
/// exercise the attach path too.
std::uint64_t Service::compute_idem_key(const SubmitRequest& req,
                                        std::uint64_t cache_key) {
  if (req.client_nonce.empty()) return 0;
  const std::uint64_t base =
      cache_key != 0 ? cache_key : ckpt::fnv1a(req.spec_text);
  const std::string mix = std::string(to_string(req.kind)) + ":" +
                          hex16(base) + ":n:" + req.client_nonce;
  const std::uint64_t k = ckpt::fnv1a(mix);
  return k == 0 ? 1 : k;
}

SubmitOutcome Service::submit(const SubmitRequest& request) {
  SubmitOutcome out;

  // Parse + fingerprint outside the lock: spec parsing is the expensive
  // part of admission and must not serialize submitters.
  std::uint64_t key = 0;
  try {
    key = compute_cache_key(request);
  } catch (const Error& e) {
    util::MutexLock lk(mu_);
    ++stats_.submitted;
    ++stats_.rejected_bad;
    out.error = std::string("bad specification: ") + e.what();
    return out;
  }

  const std::uint64_t idem = compute_idem_key(request, key);

  std::uint64_t id = 0;
  {
    util::MutexLock lk(mu_);
    ++stats_.submitted;
    if (stopping_) {
      out.shutting_down = true;
      return out;
    }
    // Idempotent attach comes before every other verdict — including the
    // busy check: a client retrying a lost reply must reach its existing
    // job even when the queue has since filled up.
    if (idem != 0) {
      const auto dup = idem_to_job_.find(idem);
      if (dup != idem_to_job_.end()) {
        if (jobs_.count(dup->second) != 0) {
          ++stats_.duplicates_attached;
          out.admitted = true;
          out.duplicate = true;
          out.id = dup->second;
          return out;
        }
        idem_to_job_.erase(dup);  // job evicted from retention: stale
      }
    }
    if (key != 0) {
      const auto hit = cache_.find(key);
      if (hit != cache_.end()) {
        id = next_id_++;
        Job& job = jobs_[id];
        job.id = id;
        job.req = request;
        job.cache_key = key;
        job.idem_key = idem;
        if (idem != 0) idem_to_job_[idem] = id;
        job.state = JobState::Done;
        job.outcome = JobOutcome::Ok;
        job.cached = true;
        job.body = hit->second.body;
        job.detail = "served from result cache";
        job.finish_seq = ++finish_seq_;
        // Every terminal transition is durable — cache hits included, so a
        // restart answers `result <id>` for them bit-identically too.  A
        // hit whose answer cannot be written is refused like an admission
        // whose record cannot be: no client holds an id without a record.
        try {
          persist_terminal_locked(job);
        } catch (const Error& e) {
          if (refuse_unrecorded_locked(id, e.what(), &out)) return out;
        }
        ++stats_.cache_hits;
        ++stats_.finished;
        ++stats_.completed_ok;
        const Clock::time_point submitted_at = job.submitted_at;
        std::vector<std::pair<std::uint64_t, int>> evicted;
        note_terminal_locked(id, &evicted);
        lk.unlock();
        // A cache hit is a real end-to-end completion — near-zero latency,
        // but it belongs in the distribution the bench compares against.
        e2e_hist_.record(elapsed_us(submitted_at));
        cleanup_telemetry(evicted);
        out.admitted = true;
        out.cached = true;
        out.id = id;
        return out;
      }
    }
    if (static_cast<int>(queue_.size()) >= cfg_.queue_capacity) {
      ++stats_.rejected_busy;
      out.busy = true;
      out.retry_after_ms = busy_retry_hint_locked();
      return out;
    }
    // Disk budget: the spool write below needs roughly the spec plus frame
    // overhead.  Pressure first reclaims the cheapest-to-recompute cache
    // entries (self-healing); only when the cache is dry and the budget
    // still cannot fit the job is the submit refused — typed and honest.
    const long long need =
        static_cast<long long>(request.spec_text.size()) + 512;
    if (!evict_cache_for_space_locked(need)) {
      ++stats_.rejected_disk;
      out.disk_full = true;
      out.error = "disk budget exhausted: " + std::to_string(disk_used_) +
                  " of " + std::to_string(cfg_.disk_budget_bytes) +
                  " bytes in use and nothing left to evict";
      return out;
    }
    id = next_id_++;
    Job& job = jobs_[id];
    job.id = id;
    job.req = request;
    job.cache_key = key;
    job.idem_key = idem;
    job.submitted_at = Clock::now();

    // Spool BEFORE the job becomes visible to workers (queue_ insert +
    // notify).  Publishing first would let an already-awake worker run —
    // even finish — the job ahead of its record write, and the failure
    // path's jobs_.erase would yank the job out from under a running
    // worker.  A spool failure (disk full) is an honest rejection: the job
    // is withdrawn before anything could have observed it.
    try {
      spool_job(job);
    } catch (const Error& e) {
      ++stats_.journal_append_failures;
      if (refuse_unrecorded_locked(id, e.what(), &out)) return out;
    }
    if (idem != 0) idem_to_job_[idem] = id;
    queue_.insert({-static_cast<long long>(request.priority), id});
    stats_.queue_depth = static_cast<int>(queue_.size());
    if (stats_.queue_depth > stats_.queue_peak)
      stats_.queue_peak = stats_.queue_depth;
    ++stats_.admitted;
  }
  work_cv_.notify_one();
  out.admitted = true;
  out.id = id;
  return out;
}

bool Service::cancel(std::uint64_t id) {
  bool finalize_queued = false;
  JobKind queued_kind = JobKind::Run;
  pid_t kill_pid = 0;
  {
    util::MutexLock lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    Job& job = it->second;
    if (job.state == JobState::Done) return true;  // idempotent
    job.cancel_requested = true;
    if (job.state == JobState::Queued) {
      // Remove from the ready queue so no worker picks it up; terminal
      // Cancelled below (outside the lock — finalize locks itself).
      queue_.erase({-static_cast<long long>(job.req.priority), id});
      stats_.queue_depth = static_cast<int>(queue_.size());
      queued_kind = job.req.kind;
      finalize_queued = true;
    } else {
      kill_pid = job.child_pid;  // speed up the cooperative stop
    }
  }
  if (finalize_queued) {
    finalize(id, JobOutcome::Cancelled,
             failure_body(queued_kind, "cancelled", "cancelled while queued",
                          0),
             "cancelled while queued");
  } else if (kill_pid > 0) {
    ::kill(kill_pid, SIGTERM);
  }
  work_cv_.notify_all();  // interrupt a backoff sleep
  return true;
}

std::optional<JobStatus> Service::status(std::uint64_t id) const {
  util::MutexLock lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return snapshot_locked(it->second);
}

std::vector<JobStatus> Service::jobs() const {
  util::MutexLock lk(mu_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(snapshot_locked(job));
  return out;
}

std::optional<std::string> Service::result_body(std::uint64_t id) const {
  util::MutexLock lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second.state != JobState::Done)
    return std::nullopt;
  return it->second.body;
}

bool Service::wait_result(std::uint64_t id, long timeout_ms,
                          JobStatus* status_out, std::string* body_out) {
  util::MutexLock lk(mu_);
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms < 0 ? 0 : timeout_ms);
  while (true) {
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    if (it->second.state == JobState::Done) {
      if (status_out != nullptr) *status_out = snapshot_locked(it->second);
      if (body_out != nullptr) *body_out = it->second.body;
      return true;
    }
    if (done_cv_.wait_until(lk, deadline) == std::cv_status::timeout &&
        Clock::now() >= deadline) {
      const auto again = jobs_.find(id);
      if (again != jobs_.end() && again->second.state == JobState::Done) {
        if (status_out != nullptr) *status_out = snapshot_locked(again->second);
        if (body_out != nullptr) *body_out = again->second.body;
        return true;
      }
      return false;
    }
  }
}

ServiceStats Service::stats() const {
  ServiceStats s;
  {
    util::MutexLock lk(mu_);
    s = stats_;
  }
  // Histogram snapshots are taken outside mu_ — the histograms are their
  // own (lock-free) synchronization domain.
  s.queue_wait_us = queue_wait_hist_.snapshot();
  s.run_us = run_hist_.snapshot();
  s.e2e_us = e2e_hist_.snapshot();
  return s;
}

int Service::recovered_jobs() const {
  util::MutexLock lk(mu_);
  return recovered_;
}

std::optional<std::string> Service::job_trace_json(std::uint64_t id) const {
  std::vector<AttemptRecord> history;
  std::int64_t submit_ns = 0;
  long wait_ms = 0;
  int attempts = 0;
  JobKind kind = JobKind::Run;
  JobState state = JobState::Queued;
  bool cached = false;
  {
    util::MutexLock lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    const Job& job = it->second;
    history = job.history;
    submit_ns = job.submit_steady_ns;
    wait_ms = job.state == JobState::Queued ? elapsed_ms(job.submitted_at)
                                            : job.wait_ms;
    attempts = job.attempts;
    kind = job.req.kind;
    state = job.state;
    cached = job.cached;
  }

  tools::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  const auto meta = [&w](long long pid, const std::string& name) {
    w.begin_object()
        .key("name").value("process_name")
        .key("ph").value("M")
        .key("pid").value(pid)
        .key("tid").value(0)
        .key("args").begin_object().key("name").value(name).end_object()
        .end_object();
  };
  const auto span = [&w](long long pid, const std::string& name,
                         double ts_us, double dur_us) {
    w.begin_object()
        .key("name").value(name)
        .key("cat").value("crusade")
        .key("ph").value("X")
        .key("pid").value(pid)
        .key("tid").value(0)
        .key("ts").value(ts_us, 3)
        .key("dur").value(dur_us < 0.0 ? 0.0 : dur_us, 3)
        .end_object();
  };

  // Row 1: the daemon's side of the story — queue wait, each supervised
  // attempt (with fate), and the backoff gaps between retries.
  meta(1, "crusaded");
  const long queue_end_ms = history.empty() ? wait_ms : history.front().start_ms;
  if (queue_end_ms > 0 || !history.empty())
    span(1, "serve.queue_wait", 0.0,
         static_cast<double>(queue_end_ms) * 1000.0);
  for (std::size_t i = 0; i < history.size(); ++i) {
    const AttemptRecord& a = history[i];
    const long end_ms = a.end_ms >= a.start_ms ? a.end_ms : a.start_ms;
    w.begin_object()
        .key("name").value("serve.attempt")
        .key("cat").value("crusade")
        .key("ph").value("X")
        .key("pid").value(1)
        .key("tid").value(0)
        .key("ts").value(static_cast<double>(a.start_ms) * 1000.0, 3)
        .key("dur").value(static_cast<double>(end_ms - a.start_ms) * 1000.0, 3)
        .key("args").begin_object()
        .key("attempt").value(a.attempt)
        .key("fate").value(a.fate)
        .end_object()
        .end_object();
    if (i + 1 < history.size() && history[i + 1].start_ms > end_ms) {
      span(1, "serve.retry_backoff",
           static_cast<double>(end_ms) * 1000.0,
           static_cast<double>(history[i + 1].start_ms - end_ms) * 1000.0);
    }
  }

  // One process row per worker attempt.  A finished attempt wrote its own
  // row, already timed from the job's admission, and it is spliced in as
  // is.  A crashed one left its flight file, whose open spans are drawn to
  // the last event it saw, which is when the worker died.
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    const long long row = 1000 + attempt;
    try {
      const diskfmt::Unframed t =
          diskfmt::read_framed_file(trace_spool_path(id, attempt),
                                    kWorkerTraceMagic, kWorkerTraceVersion);
      // Only this version is a JSON array: a v1 file left in the spool
      // by an older daemon is skipped, not spliced.
      if (t.version == kWorkerTraceVersion && t.payload.size() > 2) {
        w.raw(t.payload.substr(1, t.payload.size() - 2));
        continue;
      }
    } catch (const Error&) {
      // no trace file — fall through to the flight file
    }
    const obs::FlightSnapshot flight =
        obs::read_flight(flight_spool_path(id, attempt));
    if (flight.spans().empty()) continue;
    meta(row, "worker attempt " + std::to_string(attempt) +
                  " (flight recorder, pid " + std::to_string(flight.pid()) +
                  ")");
    for (const obs::FlightSpan& open : flight.spans()) {
      span(row, open.name,
           static_cast<double>(open.begin_ns - submit_ns) / 1000.0,
           static_cast<double>(flight.last_ns() - open.begin_ns) / 1000.0);
    }
  }

  w.end_array()
      .key("displayTimeUnit").value("ms")
      .key("otherData").begin_object()
      .key("trace_id").value(hex16(id))
      .key("job").value(static_cast<unsigned long long>(id))
      .key("kind").value(to_string(kind))
      .key("state").value(to_string(state))
      .key("cached").value(cached)
      .key("attempts").value(attempts)
      .end_object()
      .end_object();
  return w.str();
}

void Service::resume_workers() {
  {
    util::MutexLock lk(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void Service::stop(bool drain) {
  // Claim the worker threads under the lock: the first caller swaps the
  // vector into a local and is the only one that joins.  The old shape —
  // joining workers_ outside mu_ — let a concurrent stop() (daemon
  // shutdown racing the destructor) join the same std::thread twice; the
  // CRUSADE_GUARDED_BY annotation on workers_ is what makes that shape a
  // compile error now.
  std::vector<std::thread> claimed;
  {
    util::MutexLock lk(mu_);
    if (!stopping_) drain_ = drain;
    stopping_ = true;
    if (!drain) {
      // A hard stop always takes effect, even during an in-progress drain
      // (the daemon's second-signal escalation).  A later drain request
      // never un-escalates a hard stop.
      drain_ = false;
      // Park queued jobs for the next incarnation: their spool files stay
      // put, the recovery scan re-admits them.  In-memory they simply stay
      // Queued; the process is going away.
      queue_.clear();
      stats_.queue_depth = 0;
    }
    claimed.swap(workers_);
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  for (std::thread& worker : claimed)
    if (worker.joinable()) worker.join();
}

/// work_cv_ wake condition: stop requested, or runnable work while not
/// paused.  An annotated helper, not a lambda, so the analysis can prove
/// the guarded reads happen under mu_ (util/sync.hpp).
bool Service::worker_wakeup_locked() const {
  return stopping_ || (!paused_ && !queue_.empty());
}

bool Service::retry_interrupted_locked(std::uint64_t id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() || it->second.cancel_requested ||
         (stopping_ && !drain_);
}

void Service::worker_loop() {
  util::MutexLock lk(mu_);
  while (true) {
    while (!worker_wakeup_locked()) work_cv_.wait(lk);
    if (stopping_ && (!drain_ || queue_.empty())) return;
    if (queue_.empty() || (paused_ && !stopping_)) continue;
    const auto it = queue_.begin();
    const std::uint64_t id = it->second;
    queue_.erase(it);
    stats_.queue_depth = static_cast<int>(queue_.size());
    lk.unlock();
    run_supervised(id);
    lk.lock();
  }
}

void Service::run_supervised(std::uint64_t id) {
  while (true) {
    SubmitRequest req;
    int attempt = 0;
    long deadline_ms = 0;
    bool reduced_budget = false;
    Clock::time_point submitted_at;
    std::int64_t submit_steady_ns = 0;
    {
      util::MutexLock lk(mu_);
      const auto it = jobs_.find(id);
      if (it == jobs_.end()) return;  // terminal + evicted
      Job& job = it->second;
      if (job.state == JobState::Done) return;
      if (job.cancel_requested && job.attempts == 0) {
        lk.unlock();
        finalize(id, JobOutcome::Cancelled,
                 failure_body(job.req.kind, "cancelled",
                              "cancelled before execution", 0),
                 "cancelled before execution");
        return;
      }
      attempt = ++job.attempts;
      if (job.state == JobState::Queued) {
        job.state = JobState::Running;
        job.started_at = Clock::now();
        job.wait_ms = elapsed_ms(job.submitted_at);
        ++stats_.running;
        if (job.wait_ms > stats_.wait_ms_max) stats_.wait_ms_max = job.wait_ms;
        stats_.wait_ms_total += static_cast<double>(job.wait_ms);
        queue_wait_hist_.record(elapsed_us(job.submitted_at));
      }
      AttemptRecord rec;
      rec.attempt = attempt;
      rec.start_ms = elapsed_ms(job.submitted_at);
      job.history.push_back(std::move(rec));
      req = job.req;
      deadline_ms = job.req.deadline_ms;
      reduced_budget = job.reduced_budget;
      submitted_at = job.submitted_at;
      submit_steady_ns = job.submit_steady_ns;
    }

    // Remaining end-to-end budget.  An already-expired job still gets 1 ms:
    // the worker arms the controller, the first stop poll trips, and the
    // job returns its best-so-far instead of being dropped (degraded-honest
    // beats lost).
    long remaining_ms = 0;
    if (deadline_ms > 0) {
      remaining_ms = deadline_ms - elapsed_ms(submitted_at);
      if (remaining_ms < 1) remaining_ms = 1;
    }

    const std::string result_path = result_spool_path(id);
    const std::string ckpt_path = ckpt_spool_path(id);
    remove_spool_file(result_path);
    WorkerTelemetry telemetry;
    telemetry.trace_path = trace_spool_path(id, attempt);
    telemetry.flight_path = flight_spool_path(id, attempt);
    telemetry.submit_steady_ns = submit_steady_ns;
    // Stale files from a previous incarnation of this (id, attempt) pair
    // (daemon restart mid-job) must not masquerade as this attempt's story.
    remove_spool_file(telemetry.trace_path);
    remove_spool_file(telemetry.flight_path);
    WorkerLimits limits;
    limits.address_space_mb = cfg_.limit_as_mb;
    limits.cpu_seconds = cfg_.limit_cpu_s;
    limits.file_size_mb = cfg_.limit_fsize_mb;
    limits.reduced_budget = reduced_budget;

    // fork() from a multithreaded daemon: the child may only touch state
    // whose locks are guaranteed free.  obs registers a pthread_atfork
    // child handler (obs.cpp) that swaps in fresh registry/sink objects —
    // the inherited ones may carry locks held by threads that did not
    // survive the fork — and glibc reinitializes malloc; the Service's own
    // mu_ is never needed by the child (run_worker_attempt is
    // self-contained and resets the inherited signal/StopHub state first
    // thing).
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: single-threaded from here (fork drops the siblings).
      run_worker_attempt(req, attempt, result_path, ckpt_path, remaining_ms,
                         cfg_.checkpoint_every, telemetry, limits);
    }
    if (pid < 0) {
      finalize(id, JobOutcome::FailedHonest,
               failure_body(req.kind, "fork-failed", errno_message(errno),
                            attempt),
               "fork failed");
      return;
    }
    {
      util::MutexLock lk(mu_);
      const auto it = jobs_.find(id);
      if (it != jobs_.end()) it->second.child_pid = pid;
    }

    // Supervise: poll for exit, fire the watchdog past the deadline (plus
    // grace) or the attempt timeout, escalate SIGTERM -> SIGKILL for workers
    // that ignore the cooperative stop.
    const long watchdog_ms = remaining_ms > 0
                                 ? remaining_ms + cfg_.watchdog_grace_ms
                                 : cfg_.attempt_timeout_ms;
    const Clock::time_point attempt_start = Clock::now();
    bool term_sent = false;
    bool watchdog_fired = false;
    Clock::time_point term_at{};
    bool killed = false;
    int wait_status = 0;
    struct rusage usage {};
    while (true) {
      const pid_t reaped = ::wait4(pid, &wait_status, WNOHANG, &usage);
      if (reaped == pid) break;
      if (reaped < 0 && errno != EINTR) {
        wait_status = -1;
        break;
      }
      bool want_term = false;
      {
        util::MutexLock lk(mu_);
        const auto it = jobs_.find(id);
        want_term = it == jobs_.end() || it->second.cancel_requested ||
                    (stopping_ && !drain_);
      }
      const long running_ms = elapsed_ms(attempt_start);
      if (!term_sent && running_ms >= watchdog_ms) {
        watchdog_fired = true;
        want_term = true;
      }
      if (want_term && !term_sent) {
        ::kill(pid, SIGTERM);
        term_sent = true;
        term_at = Clock::now();
      }
      if (term_sent && !killed && elapsed_ms(term_at) >= cfg_.term_grace_ms) {
        ::kill(pid, SIGKILL);
        killed = true;
      }
      ::usleep(2000);
    }
    {
      util::MutexLock lk(mu_);
      const auto it = jobs_.find(id);
      if (it != jobs_.end()) {
        it->second.child_pid = 0;
        it->second.cpu_us += cpu_us(usage);
      }
      if (watchdog_fired) ++stats_.watchdog_kills;
    }

    // Ledger: whatever the attempt left on disk (result, checkpoint,
    // telemetry) now counts against the disk budget.
    track_file(result_path);
    track_file(ckpt_path);
    track_file(telemetry.trace_path);
    track_file(telemetry.flight_path);

    if (classify_attempt(id, attempt, wait_status, watchdog_fired)) return;

    // Retry with capped exponential backoff; a cancellation or hard stop
    // interrupts the sleep (the loop head then resolves it).
    long backoff = cfg_.backoff_base_ms;
    for (int i = 1; i < attempt && backoff < cfg_.backoff_cap_ms; ++i)
      backoff *= 2;
    if (backoff > cfg_.backoff_cap_ms) backoff = cfg_.backoff_cap_ms;
    {
      util::MutexLock lk(mu_);
      ++stats_.retries;
      const Clock::time_point wake_at =
          Clock::now() + std::chrono::milliseconds(backoff);
      while (!retry_interrupted_locked(id) && Clock::now() < wake_at)
        work_cv_.wait_until(lk, wake_at);
      const auto it = jobs_.find(id);
      if (it == jobs_.end()) return;  // terminal + evicted
      if (stopping_ && !drain_ && !it->second.cancel_requested) {
        // Hard stop mid-retry: leave the job non-terminal in memory (the
        // process is exiting) and keep its spool files so the next
        // incarnation resumes it from the checkpoint.
        return;
      }
      if (it->second.cancel_requested) {
        lk.unlock();
        finalize(id, JobOutcome::Cancelled,
                 failure_body(req.kind, "cancelled",
                              "cancelled during retry backoff", attempt),
                 "cancelled during retry backoff");
        return;
      }
    }
  }
}

bool Service::classify_attempt(std::uint64_t id, int attempt, int wait_status,
                               bool watchdog_fired) {
  const std::string result_path = result_spool_path(id);
  const bool exited = wait_status >= 0 && WIFEXITED(wait_status);
  const int code = exited ? WEXITSTATUS(wait_status) : -1;

  bool cancel_requested = false;
  std::uint64_t cache_key = 0;
  JobKind kind = JobKind::Run;
  bool reduced_budget = false;
  std::string resource_limit;
  long long cost_us = 0;
  {
    util::MutexLock lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return true;  // terminal + evicted
    const Job& job = it->second;
    cancel_requested = job.cancel_requested;
    cache_key = job.cache_key;
    kind = job.req.kind;
    reduced_budget = job.reduced_budget;
    resource_limit = job.resource_limit;
    cost_us = job.cpu_us;
  }

  if (exited && (code == kWorkerDone || code == kWorkerTruncated ||
                 code == kWorkerBadSpec)) {
    std::string body;
    try {
      // The worker writes a framed CRSB blob; a torn or corrupt frame
      // (partial write raced by SIGKILL, injected fault) fails the CRC here
      // and is treated exactly like a missing body below — retried, never
      // half-parsed into a fabricated result.
      body = diskfmt::read_framed_file(result_path, kResultBlobMagic,
                                       kResultBlobVersion)
                 .payload;
    } catch (const Error&) {
      // The exit code promised a body but there is none (lost in a race
      // with SIGKILL, spool wiped): treat as a crash so the retry budget
      // decides, never fabricate a result.
      body.clear();
    }
    if (!body.empty()) {
      if (code == kWorkerDone) {
        record_attempt_end(id, attempt, "ok");
        if (reduced_budget) {
          // The answer exists only because the search was capped after a
          // resource death: honest about the reduced quality, with the
          // limit named, and never cached as the canonical answer.
          finalize(id, JobOutcome::DegradedHonest, std::move(body),
                   "completed at reduced search budget after exceeding " +
                       resource_limit);
          return true;
        }
        if (cache_key != 0) cache_insert(cache_key, body, cost_us);
        finalize(id, attempt > 1 ? JobOutcome::Masked : JobOutcome::Ok,
                 std::move(body),
                 attempt > 1 ? "recovered after " +
                                   std::to_string(attempt - 1) +
                                   " crashed attempt(s)"
                             : "");
        return true;
      }
      if (code == kWorkerTruncated) {
        record_attempt_end(id, attempt, "truncated");
        finalize(id, JobOutcome::DegradedHonest, std::move(body),
                 cancel_requested
                     ? "cancelled: best-so-far architecture returned"
                     : "deadline: best-so-far architecture returned");
        return true;
      }
      // Bad spec is deterministic — retrying cannot change the verdict.
      record_attempt_end(id, attempt, "bad-spec");
      finalize(id, JobOutcome::FailedHonest, std::move(body),
               "specification rejected");
      return true;
    }
  }

  // Resource-exhausted deaths are their own class, distinct from crashes:
  // the worker did nothing wrong, the environment's governance said no.
  // One retry at a reduced search budget; a second death is failed-honest
  // with the limit named.  Never burned against the crash budget.
  const bool signaled = wait_status >= 0 && WIFSIGNALED(wait_status);
  const int sig = signaled ? WTERMSIG(wait_status) : 0;
  const bool resource =
      !watchdog_fired && !cancel_requested &&
      ((exited && code == kWorkerResource) ||
       (signaled && (sig == SIGXCPU || sig == SIGXFSZ)));
  if (resource) {
    const char* limit = sig == SIGXFSZ   ? "RLIMIT_FSIZE (file size)"
                        : sig == SIGXCPU ? "RLIMIT_CPU (cpu seconds)"
                                         : "RLIMIT_AS (address space)";
    bool retry_reduced = false;
    {
      util::MutexLock lk(mu_);
      ++stats_.resource_exhausted;
      const auto it = jobs_.find(id);
      if (it == jobs_.end()) return true;  // terminal + evicted
      it->second.resource_limit = limit;
      if (!it->second.reduced_budget) {
        it->second.reduced_budget = true;
        retry_reduced = true;
      }
    }
    record_attempt_end(id, attempt, "resource");
    if (retry_reduced) return false;
    finalize(id, JobOutcome::FailedHonest,
             failure_body(kind, "resource-exhausted",
                          std::string("worker exceeded ") + limit +
                              " twice (the second attempt already ran at a "
                              "reduced search budget)",
                          attempt),
             std::string("resource-exhausted: ") + limit);
    return true;
  }

  // Crash (signal, unexpected exception, injected fault, lost body).
  int crash_attempts = attempt;
  {
    util::MutexLock lk(mu_);
    ++stats_.crashes;
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) crash_attempts = ++it->second.crash_attempts;
  }
  record_attempt_end(id, attempt,
                     watchdog_fired
                         ? "watchdog"
                         : (cancel_requested ? "cancelled" : "crash"));
  if (cancel_requested) {
    finalize(id, JobOutcome::Cancelled,
             failure_body(kind, "cancelled",
                          "cancelled; the worker produced no result", attempt),
             "cancelled; worker produced no result");
    return true;
  }
  if (crash_attempts >= cfg_.max_attempts) {
    std::string how;
    if (exited)
      how = "worker exited with code " + std::to_string(code);
    else if (signaled)
      how = std::string("worker killed by signal ") + std::to_string(sig);
    else
      how = "worker lost";
    if (watchdog_fired) how += " (watchdog)";
    finalize(id, JobOutcome::FailedHonest,
             failure_body(kind, "crash-budget",
                          how + " after " + std::to_string(crash_attempts) +
                              " crashed attempt(s)",
                          attempt),
             how);
    return true;
  }
  return false;
}

void Service::finalize(std::uint64_t id, JobOutcome outcome, std::string body,
                       std::string detail) {
  std::vector<std::pair<std::uint64_t, int>> evicted;
  bool was_running = false;
  std::uint64_t run_us = 0;
  std::uint64_t e2e_us = 0;
  {
    util::MutexLock lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return;  // evicted: already terminal long ago
    Job& job = it->second;
    if (job.state == JobState::Done) return;  // idempotence guard
    if (job.state == JobState::Running) {
      --stats_.running;
      job.run_ms = elapsed_ms(job.started_at);
      stats_.run_ms_total += static_cast<double>(job.run_ms);
      was_running = true;
      run_us = elapsed_us(job.started_at);
    }
    e2e_us = elapsed_us(job.submitted_at);
    job.state = JobState::Done;
    job.outcome = outcome;
    job.body = std::move(body);
    job.detail = std::move(detail);
    job.finish_seq = ++finish_seq_;
    // Durable-then-visible: the terminal record lands before done_cv_
    // wakes any waiter, so an acknowledgment a client ever observes is
    // already restart-durable.  An answer that cannot be made durable is
    // still served from memory; the queued record stays, so the next
    // incarnation re-runs the job as recovered.
    try {
      persist_terminal_locked(job);
    } catch (const Error&) {
    }
    ++stats_.finished;
    switch (outcome) {
      case JobOutcome::Ok: ++stats_.completed_ok; break;
      case JobOutcome::Masked: ++stats_.masked; break;
      case JobOutcome::DegradedHonest: ++stats_.degraded_honest; break;
      case JobOutcome::FailedHonest: ++stats_.failed_honest; break;
      case JobOutcome::Cancelled: ++stats_.cancelled; break;
      case JobOutcome::None: break;
    }
    note_terminal_locked(id, &evicted);
  }
  // Latency distributions count real completions only: a cancelled-while-
  // queued or failed job would poison the percentiles the bench compares
  // against client-observed numbers.
  if (outcome == JobOutcome::Ok || outcome == JobOutcome::Masked ||
      outcome == JobOutcome::DegradedHonest) {
    if (was_running) run_hist_.record(run_us);
    e2e_hist_.record(e2e_us);
  }
  cleanup_telemetry(evicted);
  // Worker scratch goes; telemetry files (.trace.N / .flight.N) stay, since
  // `crusade trace --job` must work on terminal jobs.  They are unlinked
  // with the record when the job leaves the terminal retention window
  // (cleanup_telemetry).
  remove_spool_file(ckpt_spool_path(id));
  remove_spool_file(result_spool_path(id));
  done_cv_.notify_all();
}

void Service::record_attempt_end(std::uint64_t id, int attempt,
                                 const std::string& fate) {
  // Attempts that died without producing a result get their story from the
  // flight recorder — read outside the lock (it mmaps a file).
  std::vector<std::string> stack;
  std::vector<std::pair<std::string, long long>> counter_totals;
  const bool died =
      fate == "crash" || fate == "watchdog" || fate == "cancelled";
  if (died) {
    const obs::FlightSnapshot flight =
        obs::read_flight(flight_spool_path(id, attempt));
    if (flight.valid()) {
      stack = flight.span_stack();
      counter_totals = flight.counter_totals();
    }
  }
  util::MutexLock lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;  // terminal + evicted
  Job& job = it->second;
  for (auto rit = job.history.rbegin(); rit != job.history.rend(); ++rit) {
    if (rit->attempt != attempt) continue;
    rit->end_ms = elapsed_ms(job.submitted_at);
    rit->fate = fate;
    rit->crash_span_stack = std::move(stack);
    rit->crash_counters = std::move(counter_totals);
    return;
  }
}

/// Terminal jobs are retained for a bounded window (cfg_.terminal_retain,
/// clamped >= 1 so the job just finalized is never its own victim), then
/// forgotten oldest-first.  Eviction only ever removes Done jobs, and every
/// worker-side lookup treats a missing id as "already terminal", so a
/// supervisor racing a very small retention window degrades to a no-op,
/// never an exception on a worker thread.
void Service::note_terminal_locked(
    std::uint64_t id,
    std::vector<std::pair<std::uint64_t, int>>* evicted) {
  terminal_order_.push_back(id);
  while (terminal_order_.size() > cfg_.terminal_retain) {
    const std::uint64_t victim = terminal_order_.front();
    terminal_order_.pop_front();
    const auto it = jobs_.find(victim);
    if (it != jobs_.end()) {
      if (it->second.idem_key != 0) {
        // Drop the idempotency mapping with the job: a later resubmit with
        // the same nonce becomes a fresh admission, which is the contract
        // (attachment only works while the job is queryable).
        const auto idem = idem_to_job_.find(it->second.idem_key);
        if (idem != idem_to_job_.end() && idem->second == victim)
          idem_to_job_.erase(idem);
      }
      if (evicted != nullptr)
        evicted->emplace_back(victim, it->second.attempts);
      jobs_.erase(it);
    }
  }
}

void Service::cleanup_telemetry(
    const std::vector<std::pair<std::uint64_t, int>>& evicted) {
  for (const auto& [id, attempts] : evicted) {
    // The terminal record leaves retention with the job.
    remove_spool_file(job_spool_path(id));
    for (int attempt = 1; attempt <= attempts; ++attempt) {
      remove_spool_file(trace_spool_path(id, attempt));
      remove_spool_file(flight_spool_path(id, attempt));
    }
  }
}

void Service::cache_insert(std::uint64_t key, const std::string& body,
                           long long cost_us) {
  bool persist = true;
  {
    util::MutexLock lk(mu_);
    if (cfg_.cache_capacity == 0) return;
    if (cache_.count(key) != 0) return;  // cost pinned at first insert
    cache_[key] = CacheEntry{body, cost_us};
    cache_by_cost_.insert({cost_us, key});
    // Capacity pressure evicts by cost-to-recompute, cheapest first — the
    // entry whose loss costs the least CPU time to repair.  The entry just
    // inserted is a legal victim: a cheap answer does not get to displace
    // an expensive one.
    while (cache_.size() > cfg_.cache_capacity) evict_cheapest_locked();
    // Disk pressure: if even cache self-eviction cannot make the entry fit
    // under the budget, keep it in memory only (hits still work this
    // incarnation) and skip the persist.
    persist = cache_.count(key) != 0 &&
              evict_cache_for_space_locked(
                  static_cast<long long>(body.size()) + 64);
  }
  if (!persist) return;
  // Persist outside the lock; a full disk costs only the persistence (the
  // in-memory entry still serves hits this incarnation).  One framed CCHE
  // file carries cost + body together, so cost-aware eviction order
  // survives a restart and a torn write fails the CRC instead of
  // recovering a half-truth.
  try {
    ckpt::BinWriter w;
    w.u64(static_cast<std::uint64_t>(cost_us < 0 ? 0 : cost_us));
    w.str(body);
    diskfmt::write_framed_file(cache_path(key), kCacheEntryMagic,
                               kCacheEntryVersion, w.bytes());
    track_file(cache_path(key));
  } catch (const Error&) {
    // Memory-only entry, as under disk pressure above.
  }
}

void Service::evict_cheapest_locked() {
  const std::uint64_t victim = cache_by_cost_.begin()->second;
  cache_by_cost_.erase(cache_by_cost_.begin());
  cache_.erase(victim);
  ++stats_.cache_evictions;
  // Untrack + unlink inline: an admission decision waiting on this
  // eviction needs the bytes actually reclaimed.
  const std::string path = cache_path(victim);
  untrack_file_locked(path);
  (void)iofault::xunlink(path.c_str());
}

void Service::track_file(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return;
  util::MutexLock lk(mu_);
  track_file_locked(path, static_cast<long long>(st.st_size));
}

void Service::track_file_locked(const std::string& path, long long bytes) {
  long long& slot = disk_files_[path];
  disk_used_ += bytes - slot;
  slot = bytes;
  stats_.disk_used_bytes = disk_used_;
}

void Service::untrack_file_locked(const std::string& path) {
  const auto it = disk_files_.find(path);
  if (it == disk_files_.end()) return;
  disk_used_ -= it->second;
  disk_files_.erase(it);
  stats_.disk_used_bytes = disk_used_;
}

void Service::remove_spool_file(const std::string& path) {
  {
    util::MutexLock lk(mu_);
    untrack_file_locked(path);
  }
  // A failed unlink leaves the bytes on disk but out of the ledger —
  // temporary accounting drift that the boot scan corrects on the next start.
  (void)iofault::xunlink(path.c_str());
}

bool Service::evict_cache_for_space_locked(long long need) {
  if (cfg_.disk_budget_bytes <= 0) return true;
  while (disk_used_ + need > cfg_.disk_budget_bytes && !cache_by_cost_.empty())
    evict_cheapest_locked();
  return disk_used_ + need <= cfg_.disk_budget_bytes;
}

void Service::install_spool_locked(SpoolScan scan) {
  const FsckReport& report = scan.report;
  stats_.fsck_findings = static_cast<std::int64_t>(report.items.size());
  stats_.fsck_repairs = report.repairs;
  stats_.spool_quarantined += report.quarantines;

  // The ledger is the scan's byte count, with anything unattributable
  // surfaced as drift.  Corrupt records the scan could not quarantine stay
  // on disk for the next scrub, whatever retention says below.
  for (const auto& [path, bytes] : scan.files) track_file_locked(path, bytes);
  std::set<std::uint64_t> unquarantined;
  for (const FsckItem& item : report.items) {
    if (item.finding == FsckFinding::LedgerDrift)
      stats_.ledger_drift_bytes += item.bytes;
    if (item.finding == FsckFinding::CorruptSpoolEntry &&
        item.action != "quarantined")
      unquarantined.insert(item.id);
  }

  // Cache: every valid entry goes in, then capacity evicts cheapest first,
  // the order cache_insert uses.
  for (SpoolScan::CachedAnswer& entry : scan.cache) {
    cache_[entry.key] = CacheEntry{std::move(entry.body), entry.cost_us};
    cache_by_cost_.insert({entry.cost_us, entry.key});
  }
  while (cache_.size() > cfg_.cache_capacity) evict_cheapest_locked();

  // Terminal answers — bit-identical bytes, zero re-execution.  Retention
  // crosses the restart: only the newest terminal_retain stay queryable,
  // the rest leave now (records included).
  std::vector<DurableResult>& loaded = scan.terminal;
  std::sort(loaded.begin(), loaded.end(),
            [](const DurableResult& a, const DurableResult& b) {
              return a.finish_seq != b.finish_seq
                         ? a.finish_seq < b.finish_seq
                         : a.id < b.id;
            });
  const std::size_t drop = loaded.size() > cfg_.terminal_retain
                               ? loaded.size() - cfg_.terminal_retain
                               : 0;
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    DurableResult& r = loaded[i];
    if (i < drop) {
      if (unquarantined.count(r.id) == 0) {
        untrack_file_locked(job_spool_path(r.id));
        (void)iofault::xunlink(job_spool_path(r.id).c_str());
      }
      continue;
    }
    Job& job = jobs_[r.id];
    job.id = r.id;
    job.req.kind = r.kind;
    job.req.priority = r.priority;
    job.state = JobState::Done;
    job.outcome = r.outcome;
    job.attempts = r.attempts;
    job.cached = r.cached;
    job.finish_seq = r.finish_seq;
    job.wait_ms = r.wait_ms;
    job.run_ms = r.run_ms;
    job.detail = std::move(r.detail);
    job.body = std::move(r.body);
    job.history = std::move(r.history);
    terminal_order_.push_back(r.id);
    if (r.finish_seq > finish_seq_) finish_seq_ = r.finish_seq;
    ++stats_.results_recovered;
  }

  // Queued records re-enter the queue as recovered jobs (checkpoints make
  // the resume cheap), with their deadline budget restarted.
  for (auto& [id, request] : scan.queued) {
    Job& job = jobs_[id];
    job.id = id;
    job.req = std::move(request);
    job.recovered = true;
    try {
      job.cache_key = compute_cache_key(job.req);
    } catch (const Error&) {
      job.cache_key = 0;  // ran before, so run again; just never cache it
    }
    // Re-register the idempotency mapping: a client resubmitting across
    // the daemon restart still attaches to its recovered job.
    job.idem_key = compute_idem_key(job.req, job.cache_key);
    if (job.idem_key != 0) idem_to_job_[job.idem_key] = id;
    queue_.insert({-static_cast<long long>(job.req.priority), id});
    ++recovered_;
    ++stats_.recovered;
  }
  // Ids above every file name under jobs/: an id whose record could not be
  // read this boot is never reissued.
  if (scan.max_id >= next_id_) next_id_ = scan.max_id + 1;
  stats_.queue_depth = static_cast<int>(queue_.size());
  if (stats_.queue_depth > stats_.queue_peak)
    stats_.queue_peak = stats_.queue_depth;

  // Quarantine retention: .corrupt evidence is bounded, oldest evicted
  // first past the cap.  The survivors stay charged to the ledger.
  std::vector<std::pair<long long, std::string>> corpses;
  for (const auto& [path, bytes] : scan.files) {
    struct stat st;
    if (path.size() > 8 && path.compare(path.size() - 8, 8, ".corrupt") == 0 &&
        ::stat(path.c_str(), &st) == 0)
      corpses.emplace_back(static_cast<long long>(st.st_mtime), path);
  }
  if (corpses.size() > cfg_.quarantine_retain) {
    std::sort(corpses.begin(), corpses.end());
    for (std::size_t i = 0; i + cfg_.quarantine_retain < corpses.size(); ++i) {
      const std::string& path = corpses[i].second;
      if (iofault::xunlink(path.c_str()) == 0 || errno == ENOENT) {
        untrack_file_locked(path);
        ++stats_.quarantine_evicted;
      }
    }
  }
}

void Service::spool_job(const Job& job) {
  Request frame = make_submit_request(job.req);
  frame.verb = "JOB";
  frame.fields["id"] = std::to_string(job.id);
  const std::string payload = encode_request(frame);
  diskfmt::write_framed_file(job_spool_path(job.id), kSpoolJobMagic,
                             kSpoolJobVersion, payload);
  track_file_locked(job_spool_path(job.id),
                    diskfmt::framed_size(payload.size()));
}

void Service::persist_terminal_locked(Job& job) {
  DurableResult r;
  r.id = job.id;
  r.kind = job.req.kind;
  r.outcome = job.outcome;
  r.priority = job.req.priority;
  r.attempts = job.attempts;
  r.cached = job.cached;
  r.finish_seq = job.finish_seq;
  r.wait_ms = job.wait_ms;
  r.run_ms = job.run_ms;
  r.detail = job.detail;
  r.body = job.body;
  r.history = job.history;
  const std::string payload = encode_durable_result(r);
  const long long bytes = diskfmt::framed_size(payload.size());
  // Budget first (cache entries are the pressure valve), then replace the
  // queued request in place.
  try {
    if (!evict_cache_for_space_locked(bytes))
      throw DiskFullError("disk budget exhausted", ENOSPC);
    diskfmt::write_framed_file(job_spool_path(job.id), kDurableResultMagic,
                               kDurableResultVersion, payload);
  } catch (const Error&) {
    ++stats_.result_persist_failures;
    ++stats_.journal_append_failures;
    throw;
  }
  track_file_locked(job_spool_path(job.id), bytes);
  ++stats_.results_persisted;
}

bool Service::refuse_unrecorded_locked(std::uint64_t id,
                                       const std::string& why,
                                       SubmitOutcome* out) {
  // atomic_write_file renames before it fsyncs the directory, so that
  // failure leaves the whole record under its final name: remove it, or
  // the next boot would run (or answer) a job the client was refused.
  // Whether a record is left is asked of the file system outside the
  // fault seam: a failed unlink says nothing about a file never written.
  const std::string path = job_spool_path(id);
  struct stat st;
  if (::stat(path.c_str(), &st) == 0 && iofault::xunlink(path.c_str()) != 0 &&
      ::stat(path.c_str(), &st) == 0) {
    track_file_locked(path, static_cast<long long>(st.st_size));
    return false;
  }
  jobs_.erase(id);
  ++stats_.rejected_bad;
  out->error = "spool write failed: " + why;
  return true;
}

std::string Service::job_spool_path(std::uint64_t id) const {
  return cfg_.spool_dir + "/jobs/" + std::to_string(id) + ".job";
}

std::string Service::ckpt_spool_path(std::uint64_t id) const {
  return cfg_.spool_dir + "/jobs/" + std::to_string(id) + ".ckpt";
}

std::string Service::result_spool_path(std::uint64_t id) const {
  return cfg_.spool_dir + "/jobs/" + std::to_string(id) + ".result";
}

std::string Service::trace_spool_path(std::uint64_t id, int attempt) const {
  return cfg_.spool_dir + "/jobs/" + std::to_string(id) + ".trace." +
         std::to_string(attempt);
}

std::string Service::flight_spool_path(std::uint64_t id, int attempt) const {
  return cfg_.spool_dir + "/jobs/" + std::to_string(id) + ".flight." +
         std::to_string(attempt);
}

std::string Service::cache_path(std::uint64_t key) const {
  return cfg_.spool_dir + "/cache/" + hex16(key) + ".res";
}

/// Honest retry-after: (queued ahead / workers + 1) slots times the average
/// observed job duration, clamped to something a client can act on.
long Service::busy_retry_hint_locked() const {
  double avg_ms = 50.0;
  if (stats_.finished > 0)
    avg_ms = stats_.run_ms_total / static_cast<double>(stats_.finished);
  if (avg_ms < 10.0) avg_ms = 10.0;
  const double slots =
      static_cast<double>(queue_.size()) / static_cast<double>(cfg_.workers) +
      1.0;
  long hint = static_cast<long>(avg_ms * slots);
  if (hint < 10) hint = 10;
  if (hint > 60000) hint = 60000;
  return hint;
}

JobStatus Service::snapshot_locked(const Job& job) const {
  JobStatus s;
  s.id = job.id;
  s.kind = job.req.kind;
  s.state = job.state;
  s.outcome = job.outcome;
  s.priority = job.req.priority;
  s.attempts = job.attempts;
  s.cached = job.cached;
  s.recovered = job.recovered;
  s.cancel_requested = job.cancel_requested;
  s.finish_seq = job.finish_seq;
  s.wait_ms = job.state == JobState::Queued ? elapsed_ms(job.submitted_at)
                                            : job.wait_ms;
  s.run_ms = job.state == JobState::Running ? elapsed_ms(job.started_at)
                                            : job.run_ms;
  s.detail = job.detail;
  s.history = job.history;
  return s;
}

}  // namespace crusade::serve
