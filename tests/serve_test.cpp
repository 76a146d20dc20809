// Tests for the crusaded synthesis service (src/serve, DESIGN.md §13):
// protocol framing, priority queue ordering, admission control, deadline
// truncation to best-so-far, supervised crash retry with checkpoint resume,
// watchdog escalation, the crash-budget failed-honest path, result-cache
// bit-identity, spool-backed restart recovery, cancellation of queued and
// running jobs, daemon+client socket round-trips, the 100-job mixed
// crash campaign (zero lost, zero duplicated, every job terminal with an
// honest outcome), and the chaos surface from DESIGN.md §16: worker
// resource governance, idempotency nonces, client timeout bounds, torn
// spool quarantine, disk budget, cost-aware cache eviction, and the
// 210-scenario seeded environment-fault campaign.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/serialize.hpp"
#include "example_specs.hpp"
#include "graph/spec_io.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/durable.hpp"
#include "serve/fsck.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "tgff/generator.hpp"
#include "util/atomic_file.hpp"
#include "util/disk_format.hpp"
#include "util/error.hpp"
#include "util/io_faults.hpp"
#include "util/rng.hpp"

namespace crusade::serve {
namespace {

const ResourceLibrary& lib() {
  static const ResourceLibrary l = telecom_1999();
  return l;
}

std::string spec_text(const Specification& spec) {
  std::ostringstream out;
  write_specification(out, spec, lib());
  return out.str();
}

/// Small spec (~0.5 s headroom per run) for throughput-heavy tests.
const std::string& quickstart_text() {
  static const std::string text = spec_text(quickstart_spec(lib()));
  return text;
}

/// Larger synthetic spec whose synthesis takes long enough that a 1 ms
/// deadline reliably truncates the search.
const std::string& big_text() {
  static const std::string text = [] {
    SpecGenConfig config;
    config.total_tasks = 400;
    config.seed = 42;
    SpecGenerator gen(lib());
    return spec_text(gen.generate(config));
  }();
  return text;
}

/// Unique temp spool dir per test, removed recursively on destruction.
struct TempSpool {
  explicit TempSpool(const std::string& stem) {
    path = stem + "." + std::to_string(::getpid()) + ".spool-test";
    std::system(("rm -rf " + path).c_str());
  }
  ~TempSpool() { std::system(("rm -rf " + path).c_str()); }
  std::string path;
};

ServiceConfig fast_config(const std::string& spool) {
  ServiceConfig cfg;
  cfg.spool_dir = spool;
  cfg.workers = 2;
  cfg.queue_capacity = 64;
  cfg.max_attempts = 3;
  cfg.backoff_base_ms = 1;
  cfg.backoff_cap_ms = 10;
  cfg.checkpoint_every = 5;
  return cfg;
}

SubmitRequest make_request(const std::string& text,
                           JobKind kind = JobKind::Run) {
  SubmitRequest req;
  req.kind = kind;
  req.spec_text = text;
  return req;
}

JobStatus wait_terminal(Service& service, std::uint64_t id,
                        long timeout_ms = 60000) {
  JobStatus status;
  std::string body;
  EXPECT_TRUE(service.wait_result(id, timeout_ms, &status, &body))
      << "job " << id << " not terminal within " << timeout_ms << " ms";
  return status;
}

std::string json_field(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return "";
  std::size_t start = at + needle.size();
  std::size_t end = start;
  if (body[start] == '"') {
    ++start;
    end = body.find('"', start);
  } else {
    end = body.find_first_of(",}", start);
  }
  return body.substr(start, end - start);
}

/// Strict JSON syntax check, values not built: a merged trace must load in
/// any trace viewer.
class JsonSyntax {
 public:
  static bool valid(const std::string& text) {
    JsonSyntax p(text);
    return p.value() && p.skip_ws() == text.size();
  }

 private:
  explicit JsonSyntax(const std::string& text) : s_(text) {}
  std::size_t skip_ws() {
    while (i_ < s_.size() && std::strchr(" \t\r\n", s_[i_]) != nullptr) ++i_;
    return i_;
  }
  bool eat(char c) {
    if (skip_ws() >= s_.size() || s_[i_] != c) return false;
    ++i_;
    return true;
  }
  bool string() {
    if (skip_ws() >= s_.size() || s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      if (s_[i_] == '\\') {
        ++i_;
      } else if (s_[i_] == '"') {
        ++i_;
        return true;
      } else if (static_cast<unsigned char>(s_[i_]) < 0x20) {
        return false;
      }
    }
    return false;
  }
  bool value() {
    if (skip_ws() >= s_.size()) return false;
    const char open = s_[i_];
    if (open == '{' || open == '[') {
      const char close = open == '{' ? '}' : ']';
      ++i_;
      if (eat(close)) return true;
      do {
        if (open == '{' && !(string() && eat(':'))) return false;
        if (!value()) return false;
      } while (eat(','));
      return eat(close);
    }
    if (open == '"') return string();
    for (const std::string word : {"true", "false", "null"}) {
      if (s_.compare(i_, word.size(), word) == 0) {
        i_ += word.size();
        return true;
      }
    }
    const char* start = s_.c_str() + i_;
    char* end = nullptr;
    std::strtod(start, &end);
    i_ += static_cast<std::size_t>(end - start);
    return end != start;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

// --- protocol framing ------------------------------------------------------

TEST(ServeProtocolTest, SubmitRoundTrips) {
  SubmitRequest submit;
  submit.kind = JobKind::Survive;
  submit.priority = 7;
  submit.deadline_ms = 1234;
  submit.enable_reconfig = false;
  submit.survive_seeds = 9;
  submit.spec_text = "graph g {\n  period 1ms\n}\n";
  const Request wire = make_submit_request(submit);
  const Request decoded = decode_frame(encode_request(wire));
  const SubmitRequest back = parse_submit_request(decoded);
  EXPECT_EQ(back.kind, JobKind::Survive);
  EXPECT_EQ(back.priority, 7);
  EXPECT_EQ(back.deadline_ms, 1234);
  EXPECT_FALSE(back.enable_reconfig);
  EXPECT_EQ(back.survive_seeds, 9);
  EXPECT_EQ(back.spec_text, submit.spec_text);
}

TEST(ServeProtocolTest, ResponseRoundTrips) {
  Response r;
  r.ok = false;
  r.code = "busy";
  r.body = "{\"retry_after_ms\":120}";
  const Request frame = decode_frame(encode_response(r));
  EXPECT_EQ(frame.verb, "ERR");
  EXPECT_EQ(frame.get("code"), "busy");
  EXPECT_EQ(frame.body, r.body);
}

TEST(ServeProtocolTest, MalformedFramesThrowTyped) {
  EXPECT_THROW(decode_frame("no newline at all"), Error);
  EXPECT_THROW(decode_frame("SUBMIT kind=run\nmissing body field"), Error);
  EXPECT_THROW(decode_frame("SUBMIT body=5\nabc"), Error);   // short body
  EXPECT_THROW(decode_frame("SUBMIT body=-1\n"), Error);     // negative
  EXPECT_THROW(decode_frame("SUBMIT body=99999999999\n"), Error);
  EXPECT_THROW(decode_frame("body=0\n"), Error);             // no verb
  EXPECT_THROW(kind_from_string("frobnicate"), Error);
  Request bad;
  bad.verb = "SUBMIT";
  bad.fields["kind"] = "run";
  bad.fields["deadline_ms"] = "-5";
  EXPECT_THROW(parse_submit_request(bad), Error);
  bad.fields["deadline_ms"] = "soon";
  EXPECT_THROW(parse_submit_request(bad), Error);
}

TEST(ServeProtocolTest, HeaderRejectsFramingCharacters) {
  Request r;
  r.verb = "SUB MIT";
  EXPECT_THROW(encode_request(r), Error);
}

// --- queue ordering & admission control ------------------------------------

TEST(ServeServiceTest, PriorityOrderWithFifoTiebreak) {
  TempSpool spool("serve_test_priority");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.workers = 1;            // serialize execution to observe queue order
  cfg.start_paused = true;    // admit everything before any job runs
  Service service(cfg);

  SubmitRequest low = make_request(quickstart_text(), JobKind::Lint);
  low.priority = 0;
  SubmitRequest high = make_request(quickstart_text(), JobKind::Lint);
  high.priority = 5;
  SubmitRequest mid = make_request(quickstart_text(), JobKind::Lint);
  mid.priority = 2;

  // Vary the spec per submission so the cache cannot short-circuit order.
  low.spec_text += "\n# low-a\n";
  const auto a = service.submit(low);
  low.spec_text += "# low-b\n";
  const auto b = service.submit(low);
  high.spec_text += "\n# high\n";
  const auto c = service.submit(high);
  mid.spec_text += "\n# mid\n";
  const auto d = service.submit(mid);
  ASSERT_TRUE(a.admitted && b.admitted && c.admitted && d.admitted);

  service.resume_workers();
  const JobStatus sa = wait_terminal(service, a.id);
  const JobStatus sb = wait_terminal(service, b.id);
  const JobStatus sc = wait_terminal(service, c.id);
  const JobStatus sd = wait_terminal(service, d.id);

  // Highest priority first, then FIFO within a priority class.
  EXPECT_LT(sc.finish_seq, sd.finish_seq);
  EXPECT_LT(sd.finish_seq, sa.finish_seq);
  EXPECT_LT(sa.finish_seq, sb.finish_seq);
  service.stop(true);
}

TEST(ServeServiceTest, AdmissionControlRejectsHonestlyAtCapacity) {
  TempSpool spool("serve_test_busy");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.queue_capacity = 2;
  cfg.start_paused = true;
  Service service(cfg);

  SubmitRequest req = make_request(quickstart_text(), JobKind::Lint);
  req.spec_text += "\n# one\n";
  ASSERT_TRUE(service.submit(req).admitted);
  req.spec_text += "# two\n";
  ASSERT_TRUE(service.submit(req).admitted);
  req.spec_text += "# three\n";
  const SubmitOutcome rejected = service.submit(req);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_TRUE(rejected.busy);
  EXPECT_GT(rejected.retry_after_ms, 0);
  EXPECT_EQ(service.stats().rejected_busy, 1);

  // Capacity frees as jobs drain; the same request is then admitted.
  service.resume_workers();
  SubmitOutcome retried;
  for (int i = 0; i < 200; ++i) {
    retried = service.submit(req);
    if (retried.admitted) break;
    ::usleep(20 * 1000);
  }
  EXPECT_TRUE(retried.admitted);
  service.stop(true);
}

TEST(ServeServiceTest, UnparseableSynthesisSpecRejectedUpFront) {
  TempSpool spool("serve_test_badspec");
  Service service(fast_config(spool.path));
  const SubmitOutcome out =
      service.submit(make_request("graph nonsense {{{", JobKind::Run));
  EXPECT_FALSE(out.admitted);
  EXPECT_FALSE(out.busy);
  EXPECT_FALSE(out.error.empty());
  EXPECT_EQ(service.stats().rejected_bad, 1);
  service.stop(true);
}

TEST(ServeServiceTest, UnparseableLintSpecIsAnHonestLintAnswer) {
  TempSpool spool("serve_test_lintbad");
  Service service(fast_config(spool.path));
  const SubmitOutcome out =
      service.submit(make_request("graph nonsense {{{", JobKind::Lint));
  ASSERT_TRUE(out.admitted);
  const JobStatus status = wait_terminal(service, out.id);
  EXPECT_EQ(status.outcome, JobOutcome::Ok);
  const auto body = service.result_body(out.id);
  ASSERT_TRUE(body.has_value());
  EXPECT_NE(body->find("A000"), std::string::npos);
  service.stop(true);
}

// --- deadlines & cancellation ----------------------------------------------

TEST(ServeServiceTest, DeadlineReturnsBestSoFarDegradedHonest) {
  TempSpool spool("serve_test_deadline");
  ServiceConfig cfg = fast_config(spool.path);
  // Under test is the worker's cooperative deadline stop, not the watchdog:
  // give the wrap-up (best-so-far validation of a 400-task spec) a generous
  // grace so sanitizer builds don't SIGKILL it mid-answer.
  cfg.watchdog_grace_ms = 60000;
  cfg.term_grace_ms = 60000;
  Service service(cfg);
  SubmitRequest req = make_request(big_text(), JobKind::Run);
  req.deadline_ms = 1;
  const SubmitOutcome out = service.submit(req);
  ASSERT_TRUE(out.admitted);
  const JobStatus status = wait_terminal(service, out.id);
  EXPECT_EQ(status.outcome, JobOutcome::DegradedHonest) << status.detail;
  const auto body = service.result_body(out.id);
  ASSERT_TRUE(body.has_value());
  // The body is a complete best-so-far answer, not an error: truncated flag
  // set, architecture hash present.
  EXPECT_EQ(json_field(*body, "stopped"), "true");
  EXPECT_FALSE(json_field(*body, "arch_hash").empty());
  service.stop(true);
}

TEST(ServeServiceTest, CancelQueuedJobNeverRuns) {
  TempSpool spool("serve_test_cancelq");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.start_paused = true;
  Service service(cfg);
  const SubmitOutcome out =
      service.submit(make_request(quickstart_text(), JobKind::Run));
  ASSERT_TRUE(out.admitted);
  EXPECT_TRUE(service.cancel(out.id));
  const JobStatus status = wait_terminal(service, out.id, 2000);
  EXPECT_EQ(status.outcome, JobOutcome::Cancelled);
  EXPECT_EQ(status.attempts, 0);
  service.resume_workers();
  service.stop(true);
  EXPECT_EQ(service.stats().cancelled, 1);
}

TEST(ServeServiceTest, CancelledQueuedJobReportsItsOwnKind) {
  TempSpool spool("serve_test_cancelkind");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.start_paused = true;
  Service service(cfg);
  const SubmitOutcome out =
      service.submit(make_request(quickstart_text(), JobKind::Lint));
  ASSERT_TRUE(out.admitted);
  EXPECT_TRUE(service.cancel(out.id));
  const JobStatus status = wait_terminal(service, out.id, 2000);
  EXPECT_EQ(status.outcome, JobOutcome::Cancelled);
  const auto body = service.result_body(out.id);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(json_field(*body, "kind"), "lint");
  service.resume_workers();
  service.stop(true);
}

TEST(ServeServiceTest, AdmittedJobIsSpooledBeforeWorkersCanSeeIt) {
  // Crash durability: the spool write happens inside the admission
  // critical section, so by the time submit() returns an id the .job file
  // is on disk — a daemon crash in the very next instruction loses nothing.
  TempSpool spool("serve_test_spoolfirst");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.start_paused = true;  // workers held: only admission has run
  Service service(cfg);
  const SubmitOutcome out =
      service.submit(make_request(quickstart_text(), JobKind::Run));
  ASSERT_TRUE(out.admitted);
  const std::string path =
      spool.path + "/jobs/" + std::to_string(out.id) + ".job";
  EXPECT_TRUE(std::ifstream(path).good()) << path << " not spooled";
  service.resume_workers();
  service.stop(true);
}

TEST(ServeServiceTest, TerminalJobsEvictedPastRetentionBound) {
  TempSpool spool("serve_test_retain");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.terminal_retain = 2;
  Service service(cfg);
  const SubmitOutcome first =
      service.submit(make_request(quickstart_text(), JobKind::Lint));
  ASSERT_TRUE(first.admitted);
  wait_terminal(service, first.id);
  // Identical re-submissions are cache hits: instantly terminal, each one
  // advancing the retention window deterministically.
  const SubmitOutcome second =
      service.submit(make_request(quickstart_text(), JobKind::Lint));
  ASSERT_TRUE(second.cached);
  const SubmitOutcome third =
      service.submit(make_request(quickstart_text(), JobKind::Lint));
  ASSERT_TRUE(third.cached);
  EXPECT_FALSE(service.status(first.id).has_value())
      << "oldest terminal job should have been evicted";
  EXPECT_TRUE(service.status(second.id).has_value());
  EXPECT_TRUE(service.status(third.id).has_value());
  EXPECT_TRUE(service.result_body(third.id).has_value());
  service.stop(true);
}

TEST(ServeServiceTest, CancelUnknownIdReturnsFalse) {
  TempSpool spool("serve_test_cancelu");
  Service service(fast_config(spool.path));
  EXPECT_FALSE(service.cancel(424242));
  service.stop(true);
}

TEST(ServeServiceTest, CancelRunningHungWorkerIsReaped) {
  TempSpool spool("serve_test_cancelr");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.term_grace_ms = 100;      // hang ignores SIGTERM; escalate fast
  cfg.attempt_timeout_ms = 60000;
  Service service(cfg);
  SubmitRequest req = make_request(quickstart_text(), JobKind::Run);
  req.fault_hang_attempts = 99;
  const SubmitOutcome out = service.submit(req);
  ASSERT_TRUE(out.admitted);
  // Give the worker time to fork and enter its hang loop.
  for (int i = 0; i < 200; ++i) {
    const auto status = service.status(out.id);
    ASSERT_TRUE(status.has_value());
    if (status->state == JobState::Running) break;
    ::usleep(10 * 1000);
  }
  EXPECT_TRUE(service.cancel(out.id));
  const JobStatus status = wait_terminal(service, out.id, 20000);
  EXPECT_EQ(status.outcome, JobOutcome::Cancelled);
  service.stop(true);
}

// --- supervised crash retry ------------------------------------------------

TEST(ServeServiceTest, CrashedWorkerRetriedFromCheckpointThenMasked) {
  TempSpool spool("serve_test_crash");
  Service service(fast_config(spool.path));

  // Baseline: the canonical answer for this spec, no faults.
  const SubmitOutcome clean =
      service.submit(make_request(quickstart_text(), JobKind::Run));
  ASSERT_TRUE(clean.admitted);
  const JobStatus clean_status = wait_terminal(service, clean.id);
  EXPECT_EQ(clean_status.outcome, JobOutcome::Ok);
  const std::string clean_body = *service.result_body(clean.id);

  // Same spec with one injected mid-run crash: the retry resumes from the
  // crashed attempt's checkpoint and must land on the identical answer.
  SubmitRequest faulty = make_request(quickstart_text(), JobKind::Run);
  faulty.fault_crash_attempts = 1;
  const SubmitOutcome out = service.submit(faulty);
  ASSERT_TRUE(out.admitted);
  EXPECT_FALSE(out.cached);  // fault injection must bypass the cache
  const JobStatus status = wait_terminal(service, out.id);
  EXPECT_EQ(status.outcome, JobOutcome::Masked) << status.detail;
  EXPECT_EQ(status.attempts, 2);
  const std::string body = *service.result_body(out.id);
  EXPECT_EQ(json_field(body, "resumed"), "true");
  // Bit-identity across the crash/resume boundary (DESIGN.md §11).
  EXPECT_EQ(json_field(body, "signature"), json_field(clean_body, "signature"));
  EXPECT_EQ(json_field(body, "arch_hash"), json_field(clean_body, "arch_hash"));
  EXPECT_GE(service.stats().crashes, 1);
  EXPECT_GE(service.stats().retries, 1);
  service.stop(true);
}

TEST(ServeServiceTest, CrashBudgetExhaustedIsFailedHonest) {
  TempSpool spool("serve_test_budget");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.max_attempts = 2;
  Service service(cfg);
  SubmitRequest req = make_request(quickstart_text(), JobKind::Run);
  req.fault_crash_attempts = 99;  // every attempt dies
  const SubmitOutcome out = service.submit(req);
  ASSERT_TRUE(out.admitted);
  const JobStatus status = wait_terminal(service, out.id);
  EXPECT_EQ(status.outcome, JobOutcome::FailedHonest);
  EXPECT_EQ(status.attempts, 2);
  const auto body = service.result_body(out.id);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(json_field(*body, "error_class"), "crash-budget");
  EXPECT_EQ(service.stats().crashes, 2);
  EXPECT_EQ(service.stats().failed_honest, 1);
  service.stop(true);
}

TEST(ServeServiceTest, WatchdogReapsHungWorker) {
  TempSpool spool("serve_test_watchdog");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.max_attempts = 1;
  cfg.attempt_timeout_ms = 200;
  cfg.term_grace_ms = 100;
  Service service(cfg);
  SubmitRequest req = make_request(quickstart_text(), JobKind::Run);
  req.fault_hang_attempts = 99;
  const SubmitOutcome out = service.submit(req);
  ASSERT_TRUE(out.admitted);
  const JobStatus status = wait_terminal(service, out.id, 30000);
  EXPECT_EQ(status.outcome, JobOutcome::FailedHonest);
  EXPECT_NE(status.detail.find("watchdog"), std::string::npos);
  EXPECT_GE(service.stats().watchdog_kills, 1);
  service.stop(true);
}

// --- telemetry: flight-recorder forensics & merged job traces ---------------

TEST(ServeServiceTest, WatchdogKillLeavesFlightEvidenceInHistory) {
  TempSpool spool("serve_test_flight");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.max_attempts = 1;
  cfg.attempt_timeout_ms = 300;
  cfg.term_grace_ms = 100;
  Service service(cfg);
  SubmitRequest req = make_request(quickstart_text(), JobKind::Run);
  req.fault_hang_attempts = 99;
  const SubmitOutcome out = service.submit(req);
  ASSERT_TRUE(out.admitted);
  const JobStatus status = wait_terminal(service, out.id, 30000);
  EXPECT_EQ(status.outcome, JobOutcome::FailedHonest);

  // The attempt history carries the flight-recorder forensics: the worker
  // was SIGKILLed inside its hang loop, and the ring (MAP_SHARED, written
  // back by the kernel) says so even though the process never exited
  // cleanly.
  ASSERT_EQ(status.history.size(), 1u);
  const AttemptRecord& rec = status.history[0];
  EXPECT_EQ(rec.attempt, 1);
  EXPECT_EQ(rec.fate, "watchdog");
  EXPECT_GE(rec.end_ms, rec.start_ms);
  ASSERT_GE(rec.crash_span_stack.size(), 2u);
  EXPECT_EQ(rec.crash_span_stack.front(), "serve.worker.attempt");
  EXPECT_EQ(rec.crash_span_stack.back(), "serve.worker.hang");
  bool saw_attempt_counter = false;
  for (const auto& [name, value] : rec.crash_counters)
    if (name == "serve.worker.attempts") {
      saw_attempt_counter = true;
      EXPECT_EQ(value, 1);
    }
  EXPECT_TRUE(saw_attempt_counter);

  // The same evidence rides the STATUS JSON envelope (crusade status --json).
  const std::string json = to_json(status);
  EXPECT_NE(json.find("\"fate\":\"watchdog\""), std::string::npos) << json;
  EXPECT_NE(json.find("serve.worker.hang"), std::string::npos) << json;
  service.stop(true);
}

TEST(ServeServiceTest, CrashRetriedJobYieldsOneMergedTrace) {
  TempSpool spool("serve_test_trace");
  Service service(fast_config(spool.path));
  SubmitRequest req = make_request(quickstart_text(), JobKind::Run);
  req.fault_crash_attempts = 1;
  const SubmitOutcome out = service.submit(req);
  ASSERT_TRUE(out.admitted);
  const JobStatus status = wait_terminal(service, out.id);
  ASSERT_EQ(status.outcome, JobOutcome::Masked) << status.detail;
  ASSERT_EQ(status.attempts, 2);

  const auto trace = service.job_trace_json(out.id);
  ASSERT_TRUE(trace.has_value());
  // One timeline, three process rows: the daemon plus both worker attempts
  // — the crashed first attempt drawn from its flight file, the successful
  // second spliced from the row it wrote.
  EXPECT_NE(trace->find("\"name\":\"serve.queue_wait\""), std::string::npos);
  EXPECT_NE(trace->find("\"name\":\"serve.attempt\""), std::string::npos);
  EXPECT_NE(trace->find("\"name\":\"serve.retry_backoff\""),
            std::string::npos);
  EXPECT_NE(trace->find("\"pid\":1001"), std::string::npos) << *trace;
  EXPECT_NE(trace->find("\"pid\":1002"), std::string::npos) << *trace;
  EXPECT_NE(trace->find("{\"name\":\"serve.worker.attempt\",\"cat\":"
                        "\"crusade\",\"ph\":\"X\",\"pid\":1001,"),
            std::string::npos)
      << *trace;
  EXPECT_NE(trace->find("\"trace_id\""), std::string::npos);
  // The daemon smoke in check.sh validates the full Chrome schema.
  EXPECT_TRUE(JsonSyntax::valid(*trace)) << *trace;
  // The crashed attempt left only its flight file; the finished one left
  // only its row, having unlinked its flight file.
  const std::string jobs = spool.path + "/jobs/" + std::to_string(out.id);
  struct stat st;
  EXPECT_EQ(::stat((jobs + ".flight.1").c_str(), &st), 0);
  EXPECT_EQ(::stat((jobs + ".trace.2").c_str(), &st), 0);
  EXPECT_NE(::stat((jobs + ".flight.2").c_str(), &st), 0);

  // Unknown ids answer nullopt, mirroring STATUS.
  EXPECT_FALSE(service.job_trace_json(424242).has_value());

  // The daemon-side histograms saw this job: one queue wait, one run, one
  // end-to-end completion, and the stats JSON embeds their percentiles.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queue_wait_us.total(), 1u);
  EXPECT_EQ(stats.run_us.total(), 1u);
  EXPECT_EQ(stats.e2e_us.total(), 1u);
  EXPECT_GE(stats.e2e_us.max(), stats.run_us.max());
  const std::string stats_json = to_json(stats);
  EXPECT_NE(stats_json.find("\"queue_wait_us\":{\"count\":1"),
            std::string::npos) << stats_json;
  EXPECT_NE(stats_json.find("\"e2e_us\""), std::string::npos);
  service.stop(true);
}

TEST(ServeServiceTest, OldFormatWorkerTraceIsSkippedNotSpliced) {
  TempSpool spool("serve_test_trace_v1");
  Service service(fast_config(spool.path));
  const SubmitOutcome out =
      service.submit(make_request(quickstart_text(), JobKind::Lint));
  ASSERT_TRUE(out.admitted);
  ASSERT_EQ(wait_terminal(service, out.id).attempts, 1);
  const std::string merged = *service.job_trace_json(out.id);
  EXPECT_NE(merged.find("\"pid\":1001"), std::string::npos) << merged;
  EXPECT_TRUE(JsonSyntax::valid(merged)) << merged;

  // A version-1 file at the attempt's trace path (the line format an older
  // daemon's workers wrote) is skipped: the document is exactly the one
  // with no row for the attempt at all.
  const std::string trace_path =
      spool.path + "/jobs/" + std::to_string(out.id) + ".trace.1";
  ASSERT_EQ(std::remove(trace_path.c_str()), 0);
  const std::string without = *service.job_trace_json(out.id);
  EXPECT_EQ(without.find("\"pid\":1001"), std::string::npos) << without;
  diskfmt::write_framed_file(trace_path, kWorkerTraceMagic, 1,
                             "CRUSADE-WORKER-TRACE 1 4242 1 1000\n"
                             "E 0 5000 0 alloc.eval\n"
                             "C 7 alloc.sched_evals\n");
  const std::string with_v1 = *service.job_trace_json(out.id);
  EXPECT_EQ(with_v1, without);
  EXPECT_TRUE(JsonSyntax::valid(with_v1)) << with_v1;
  service.stop(true);
}

// --- result cache ----------------------------------------------------------

TEST(ServeServiceTest, CacheHitReturnsBitIdenticalBytesInstantly) {
  TempSpool spool("serve_test_cache");
  Service service(fast_config(spool.path));
  const SubmitOutcome first =
      service.submit(make_request(quickstart_text(), JobKind::Run));
  ASSERT_TRUE(first.admitted);
  wait_terminal(service, first.id);
  const std::string original = *service.result_body(first.id);

  const SubmitOutcome second =
      service.submit(make_request(quickstart_text(), JobKind::Run));
  ASSERT_TRUE(second.admitted);
  EXPECT_TRUE(second.cached);
  const JobStatus status = wait_terminal(service, second.id, 1000);
  EXPECT_EQ(status.outcome, JobOutcome::Ok);
  EXPECT_TRUE(status.cached);
  EXPECT_EQ(status.attempts, 0);  // nothing ran
  EXPECT_EQ(*service.result_body(second.id), original);  // byte-identical
  EXPECT_EQ(service.stats().cache_hits, 1);

  // Different kind, same spec: a different key — no false sharing.
  const SubmitOutcome survive = service.submit(
      make_request(quickstart_text(), JobKind::Validate));
  ASSERT_TRUE(survive.admitted);
  EXPECT_FALSE(survive.cached);
  wait_terminal(service, survive.id);
  service.stop(true);
}

TEST(ServeServiceTest, CachePersistsAcrossRestart) {
  TempSpool spool("serve_test_cache_restart");
  std::string original;
  {
    Service service(fast_config(spool.path));
    const SubmitOutcome first =
        service.submit(make_request(quickstart_text(), JobKind::Run));
    ASSERT_TRUE(first.admitted);
    wait_terminal(service, first.id);
    original = *service.result_body(first.id);
    service.stop(true);
  }
  // A fresh incarnation on the same spool serves the hit from disk.
  Service service(fast_config(spool.path));
  const SubmitOutcome again =
      service.submit(make_request(quickstart_text(), JobKind::Run));
  ASSERT_TRUE(again.admitted);
  EXPECT_TRUE(again.cached);
  EXPECT_EQ(*service.result_body(again.id), original);
  service.stop(true);
}

// --- restart recovery ------------------------------------------------------

TEST(ServeServiceTest, QueuedJobsSurviveHardStopAndRecover) {
  TempSpool spool("serve_test_recover");
  std::vector<std::uint64_t> ids;
  {
    ServiceConfig cfg = fast_config(spool.path);
    cfg.start_paused = true;  // nothing runs; everything stays spooled
    Service service(cfg);
    for (int i = 0; i < 3; ++i) {
      SubmitRequest req = make_request(quickstart_text(), JobKind::Lint);
      req.spec_text += "\n# job " + std::to_string(i) + "\n";
      const SubmitOutcome out = service.submit(req);
      ASSERT_TRUE(out.admitted);
      ids.push_back(out.id);
    }
    service.stop(false);  // hard stop: park the queue in the spool
  }
  Service service(fast_config(spool.path));
  EXPECT_EQ(service.recovered_jobs(), 3);
  for (const std::uint64_t id : ids) {
    const JobStatus status = wait_terminal(service, id);
    EXPECT_EQ(status.outcome, JobOutcome::Ok);
    EXPECT_TRUE(status.recovered);
  }
  service.stop(true);  // join workers so every spool cleanup has landed
  // Everything terminal: the spool owes the next incarnation nothing.
  Service empty(fast_config(spool.path));
  EXPECT_EQ(empty.recovered_jobs(), 0);
  empty.stop(true);
}

TEST(ServeServiceTest, CorruptSpoolEntryQuarantinedNotFatal) {
  TempSpool spool("serve_test_corrupt");
  {
    Service service(fast_config(spool.path));
    service.stop(true);
  }
  std::ofstream(spool.path + "/jobs/7.job") << "JOB id=7 body=9999\nshort";
  Service service(fast_config(spool.path));
  EXPECT_EQ(service.recovered_jobs(), 0);
  // Still fully operational.
  const SubmitOutcome out =
      service.submit(make_request(quickstart_text(), JobKind::Lint));
  EXPECT_TRUE(out.admitted);
  wait_terminal(service, out.id);
  service.stop(true);
}

// --- graceful shutdown -----------------------------------------------------

TEST(ServeServiceTest, DrainStopCompletesEveryAdmittedJob) {
  TempSpool spool("serve_test_drain");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.start_paused = true;
  Service service(cfg);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    SubmitRequest req = make_request(quickstart_text(), JobKind::Lint);
    req.spec_text += "\n# drain " + std::to_string(i) + "\n";
    const SubmitOutcome out = service.submit(req);
    ASSERT_TRUE(out.admitted);
    ids.push_back(out.id);
  }
  service.resume_workers();
  service.stop(true);  // drain: blocks until the queue is empty
  for (const std::uint64_t id : ids) {
    const auto status = service.status(id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::Done);
    EXPECT_EQ(status->outcome, JobOutcome::Ok);
  }
  // Draining honoured the admission promise; nothing parked, nothing lost.
  EXPECT_EQ(service.stats().finished, 6);
}

TEST(ServeServiceTest, SubmitAfterStopIsRejectedAsShuttingDown) {
  TempSpool spool("serve_test_shut");
  Service service(fast_config(spool.path));
  service.stop(true);
  const SubmitOutcome out =
      service.submit(make_request(quickstart_text(), JobKind::Lint));
  EXPECT_FALSE(out.admitted);
  EXPECT_TRUE(out.shutting_down);
}

// --- the 100-job mixed crash campaign (acceptance criteria) ----------------

TEST(ServeServiceTest, HundredJobCampaignZeroLostZeroDuplicated) {
  TempSpool spool("serve_test_campaign");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.workers = 4;
  cfg.queue_capacity = 128;
  cfg.term_grace_ms = 200;
  cfg.attempt_timeout_ms = 30000;
  Service service(cfg);

  constexpr int kJobs = 100;
  std::vector<std::uint64_t> ids;
  std::set<std::uint64_t> unique_ids;
  int expect_crashers = 0;
  for (int i = 0; i < kJobs; ++i) {
    SubmitRequest req;
    switch (i % 5) {
      case 0: req.kind = JobKind::Run; break;
      case 1: req.kind = JobKind::Lint; break;
      case 2: req.kind = JobKind::Validate; break;
      case 3: req.kind = JobKind::Run; break;
      case 4:
        req.kind = (i % 25 == 4) ? JobKind::Survive : JobKind::Run;
        req.survive_seeds = 3;
        break;
    }
    req.spec_text = quickstart_text() + "\n# campaign job " +
                    std::to_string(i) + "\n";
    req.priority = i % 3;
    if (i % 5 == 3) {
      req.fault_crash_attempts = 1;  // injected worker crash
      ++expect_crashers;
    }
    if (i % 10 == 7) req.deadline_ms = 1 + i % 5;  // short deadlines
    const SubmitOutcome out = service.submit(req);
    ASSERT_TRUE(out.admitted) << "job " << i << ": " << out.error;
    ids.push_back(out.id);
    unique_ids.insert(out.id);
  }
  ASSERT_EQ(unique_ids.size(), ids.size());  // zero duplicated

  int ok = 0, masked = 0, degraded = 0, failed = 0, cancelled = 0;
  for (const std::uint64_t id : ids) {
    const JobStatus status = wait_terminal(service, id, 120000);
    ASSERT_EQ(status.state, JobState::Done);      // zero lost
    ASSERT_NE(status.outcome, JobOutcome::None);  // every end is honest
    switch (status.outcome) {
      case JobOutcome::Ok: ++ok; break;
      case JobOutcome::Masked: ++masked; break;
      case JobOutcome::DegradedHonest: ++degraded; break;
      case JobOutcome::FailedHonest: ++failed; break;
      case JobOutcome::Cancelled: ++cancelled; break;
      case JobOutcome::None: break;
    }
    // Terminal jobs always carry a result body.
    EXPECT_TRUE(service.result_body(id).has_value());
  }
  service.stop(true);

  EXPECT_EQ(ok + masked + degraded + failed + cancelled, kJobs);
  EXPECT_EQ(cancelled, 0);           // nobody cancelled anything
  EXPECT_EQ(failed, 0);              // every crash was masked within budget
  EXPECT_GE(masked, expect_crashers / 2);  // crash injection really fired
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.finished, kJobs);
  EXPECT_GE(stats.crashes, expect_crashers);
  EXPECT_GE(stats.retries, expect_crashers);
}

// --- worker resource governance ---------------------------------------------

TEST(ServeServiceTest, ResourceDeathRetriedAtReducedBudgetDegradedHonest) {
  TempSpool spool("serve_test_rsrc");
  Service service(fast_config(spool.path));
  SubmitRequest req = make_request(quickstart_text(), JobKind::Run);
  req.fault_resource_attempts = 1;  // first attempt dies on SIGXCPU
  const SubmitOutcome out = service.submit(req);
  ASSERT_TRUE(out.admitted) << out.error;
  const JobStatus status = wait_terminal(service, out.id);

  // Resource exhaustion is NOT a crash: one retry at reduced budget, and
  // the answer is honest about both the cap and which limit fired.
  ASSERT_EQ(status.outcome, JobOutcome::DegradedHonest) << status.detail;
  EXPECT_EQ(status.attempts, 2);
  EXPECT_NE(status.detail.find("reduced search budget"), std::string::npos)
      << status.detail;
  EXPECT_NE(status.detail.find("RLIMIT_CPU (cpu seconds)"),
            std::string::npos)
      << status.detail;
  ASSERT_GE(status.history.size(), 1u);
  EXPECT_EQ(status.history[0].fate, "resource");

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.resource_exhausted, 1);
  EXPECT_EQ(stats.crashes, 0);  // never charged to the crash budget
  EXPECT_EQ(stats.failed_honest, 0);
  service.stop(true);
}

TEST(ServeServiceTest, SecondResourceDeathFailsHonestWithLimitNamed) {
  TempSpool spool("serve_test_rsrc2");
  Service service(fast_config(spool.path));
  SubmitRequest req = make_request(quickstart_text(), JobKind::Run);
  req.fault_resource_attempts = 99;  // every attempt dies on the limit
  const SubmitOutcome out = service.submit(req);
  ASSERT_TRUE(out.admitted);
  const JobStatus status = wait_terminal(service, out.id);

  ASSERT_EQ(status.outcome, JobOutcome::FailedHonest);
  EXPECT_EQ(status.attempts, 2);  // exactly one reduced-budget retry
  EXPECT_NE(status.detail.find("resource-exhausted"), std::string::npos);
  EXPECT_NE(status.detail.find("RLIMIT_CPU (cpu seconds)"),
            std::string::npos);
  const std::string body = *service.result_body(out.id);
  EXPECT_NE(body.find("resource-exhausted"), std::string::npos) << body;

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.resource_exhausted, 2);
  EXPECT_EQ(stats.crashes, 0);
  EXPECT_EQ(stats.failed_honest, 1);
  service.stop(true);
}

// --- idempotency keys --------------------------------------------------------

TEST(ServeServiceTest, NonceResubmitAttachesToExistingJob) {
  TempSpool spool("serve_test_idem");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.start_paused = true;  // the first submit stays live and queued
  Service service(cfg);

  SubmitRequest req = make_request(quickstart_text(), JobKind::Lint);
  req.client_nonce = "retry-token-1";
  const SubmitOutcome first = service.submit(req);
  ASSERT_TRUE(first.admitted);
  EXPECT_FALSE(first.duplicate);

  // The wire-level story: the reply was lost, the client resubmits with
  // the same nonce — it must attach, not duplicate the work.
  const SubmitOutcome again = service.submit(req);
  ASSERT_TRUE(again.admitted);
  EXPECT_TRUE(again.duplicate);
  EXPECT_EQ(again.id, first.id);
  EXPECT_EQ(service.stats().duplicates_attached, 1);

  // A different nonce is a different intent: fresh job.
  SubmitRequest other = req;
  other.client_nonce = "retry-token-2";
  const SubmitOutcome fresh = service.submit(other);
  ASSERT_TRUE(fresh.admitted);
  EXPECT_FALSE(fresh.duplicate);
  EXPECT_NE(fresh.id, first.id);

  // No nonce, same spec: also a fresh job (idempotency is opt-in).
  SubmitRequest plain = make_request(quickstart_text(), JobKind::Lint);
  const SubmitOutcome anon = service.submit(plain);
  ASSERT_TRUE(anon.admitted);
  EXPECT_FALSE(anon.duplicate);
  EXPECT_NE(anon.id, first.id);

  service.resume_workers();
  wait_terminal(service, first.id);
  wait_terminal(service, fresh.id);
  wait_terminal(service, anon.id);

  // Even after the job went terminal, the same nonce still attaches to it
  // while it is retained — the late retry reads the finished result.
  const SubmitOutcome late = service.submit(req);
  ASSERT_TRUE(late.admitted);
  EXPECT_TRUE(late.duplicate);
  EXPECT_EQ(late.id, first.id);
  EXPECT_TRUE(service.result_body(late.id).has_value());
  service.stop(true);
}

// --- client resilience -------------------------------------------------------

TEST(ServeClientTest, SilentDaemonSurfacesTypedDaemonUnresponsive) {
  // A socket that accepts connections but never answers: the pathological
  // wedged daemon.  The client must fail typed within its bound, never
  // hang `crusade submit --wait` forever.
  TempSpool spool("serve_test_silent");
  const std::string sock = spool.path + ".sock";
  (void)::unlink(sock.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(sock.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(listener, 8), 0);

  ClientConfig ccfg;
  ccfg.connect_timeout_ms = 2000;
  ccfg.recv_timeout_ms = 150;
  Client client(sock, ccfg);
  Request ping;
  ping.verb = "PING";
  const auto started = std::chrono::steady_clock::now();
  try {
    client.call(ping);
    FAIL() << "silent daemon did not time out";
  } catch (const DaemonUnresponsive& e) {
    EXPECT_EQ(e.error_number(), ETIMEDOUT);
    EXPECT_NE(std::string(e.what()).find("did not reply"),
              std::string::npos)
        << e.what();
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started);
  EXPECT_LT(elapsed.count(), 5000) << "timeout not bounded";

  // call_resilient retries the transient failure, then rethrows typed.
  ClientConfig rcfg = ccfg;
  rcfg.max_tries = 2;
  rcfg.retry_base_ms = 10;
  rcfg.retry_cap_ms = 50;
  client.set_config(rcfg);
  EXPECT_THROW(client.call_resilient(ping), DaemonUnresponsive);

  (void)::close(listener);
  (void)::unlink(sock.c_str());
}

// --- chaos: injected environment faults --------------------------------------

/// RAII cleanup so no test can leak an armed fault plan into its neighbours.
struct ChaosGuard {
  ~ChaosGuard() {
    iofault::disarm();
    iofault::reset_counters();
  }
};

TEST(ServeChaosTest, TornSpoolWriteQuarantinedOnRecovery) {
  ChaosGuard guard;
  TempSpool spool("serve_test_torn");
  std::uint64_t torn_id = 0;
  {
    ServiceConfig cfg = fast_config(spool.path);
    cfg.start_paused = true;
    Service service(cfg);
    // Every rename during this submit is torn: the job file reaches its
    // final name half-written — the exact on-disk image of a power loss.
    iofault::Plan plan;
    plan.seed = 3;
    plan.rate = 1.0;
    plan.kinds = 1u << static_cast<unsigned>(iofault::Kind::TornRename);
    iofault::arm(plan);
    const SubmitOutcome out =
        service.submit(make_request(quickstart_text(), JobKind::Lint));
    iofault::disarm();
    ASSERT_TRUE(out.admitted);  // the write "succeeded" — that is the trap
    torn_id = out.id;
    EXPECT_GE(iofault::counters().injected[static_cast<unsigned>(
                  iofault::Kind::TornRename)],
              1u);
    service.stop(false);  // hard stop: the torn file is all that remains
  }

  // Recovery must detect the torn record, quarantine it with the evidence
  // intact, and keep serving — never re-admit garbage, never crash.  The
  // admission was acknowledged, so the job does not vanish: the boot scan
  // writes a failed-honest tombstone in the record's place, which status()
  // serves instead of a not-found lie.
  Service service(fast_config(spool.path));
  EXPECT_EQ(service.recovered_jobs(), 0);
  EXPECT_EQ(service.stats().spool_quarantined, 1);
  const std::optional<JobStatus> torn_status = service.status(torn_id);
  ASSERT_TRUE(torn_status.has_value());
  EXPECT_EQ(torn_status->outcome, JobOutcome::FailedHonest);
  const std::optional<std::string> torn_body = service.result_body(torn_id);
  ASSERT_TRUE(torn_body.has_value());
  EXPECT_NE(torn_body->find("fsck-lost-job"), std::string::npos);
  const std::string corrupt =
      spool.path + "/jobs/" + std::to_string(torn_id) + ".job.corrupt";
  EXPECT_NO_THROW((void)read_file(corrupt)) << "quarantine evidence missing";

  const SubmitOutcome out =
      service.submit(make_request(quickstart_text(), JobKind::Lint));
  ASSERT_TRUE(out.admitted);
  wait_terminal(service, out.id);
  service.stop(true);
}

// --- durability: results across hard restarts --------------------------------

TEST(ServeDurabilityTest, ResultsSurviveHardStopBitIdentical) {
  TempSpool spool("serve_test_durable");
  std::uint64_t ok_id = 0, failed_id = 0, degraded_id = 0;
  std::string ok_json, failed_json, degraded_json;
  std::string ok_body, failed_body, degraded_body;
  {
    Service service(fast_config(spool.path));

    const SubmitOutcome ok_out =
        service.submit(make_request(quickstart_text(), JobKind::Run));
    ASSERT_TRUE(ok_out.admitted);
    ok_id = ok_out.id;

    SubmitRequest fail_req = make_request(quickstart_text(), JobKind::Run);
    fail_req.fault_crash_attempts = 99;  // every attempt dies: failed-honest
    const SubmitOutcome fail_out = service.submit(fail_req);
    ASSERT_TRUE(fail_out.admitted);
    failed_id = fail_out.id;

    SubmitRequest deg_req = make_request(quickstart_text(), JobKind::Run);
    deg_req.fault_resource_attempts = 1;  // retried reduced: degraded-honest
    const SubmitOutcome deg_out = service.submit(deg_req);
    ASSERT_TRUE(deg_out.admitted);
    degraded_id = deg_out.id;

    EXPECT_EQ(wait_terminal(service, ok_id).outcome, JobOutcome::Ok);
    EXPECT_EQ(wait_terminal(service, failed_id).outcome,
              JobOutcome::FailedHonest);
    EXPECT_EQ(wait_terminal(service, degraded_id).outcome,
              JobOutcome::DegradedHonest);

    ok_json = to_json(*service.status(ok_id));
    failed_json = to_json(*service.status(failed_id));
    degraded_json = to_json(*service.status(degraded_id));
    ok_body = *service.result_body(ok_id);
    failed_body = *service.result_body(failed_id);
    degraded_body = *service.result_body(degraded_id);
    EXPECT_GE(service.stats().results_persisted, 3);
    service.stop(false);  // hard stop: only the durable store survives
  }

  // Every terminal answer — including the failures and their retry
  // histories — comes back bit-identical from the durable result store.
  Service service(fast_config(spool.path));
  EXPECT_GE(service.stats().results_recovered, 3);
  EXPECT_EQ(service.recovered_jobs(), 0);  // nothing needed re-execution
  ASSERT_TRUE(service.status(ok_id).has_value());
  EXPECT_EQ(to_json(*service.status(ok_id)), ok_json);
  EXPECT_EQ(to_json(*service.status(failed_id)), failed_json);
  EXPECT_EQ(to_json(*service.status(degraded_id)), degraded_json);
  EXPECT_EQ(*service.result_body(ok_id), ok_body);
  EXPECT_EQ(*service.result_body(failed_id), failed_body);
  EXPECT_EQ(*service.result_body(degraded_id), degraded_body);
  const JobStatus failed = *service.status(failed_id);
  ASSERT_FALSE(failed.history.empty());
  EXPECT_EQ(failed.history.front().fate, "crash");
  service.stop(true);
}

TEST(ServeDurabilityTest, RestartStormZeroLossZeroDuplicates) {
  TempSpool spool("serve_test_storm");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.terminal_retain = 256;  // the audit needs every answer retained
  std::set<std::uint64_t> all_ids;
  std::map<std::uint64_t, std::string> durable_view;  // id -> status json
  std::map<std::uint64_t, std::string> durable_body;
  for (int cycle = 0; cycle < 4; ++cycle) {
    Service service(cfg);
    // Zero lost: every job ever admitted still answers after the crash —
    // from the durable store, a re-admitted spool frame, or an honest
    // fsck tombstone.  Never a not-found.
    for (const std::uint64_t id : all_ids)
      ASSERT_TRUE(service.status(id).has_value())
          << "cycle " << cycle << " lost job " << id;
    // Zero duplicated: whatever was durably terminal at the last crash is
    // bit-identical now — re-execution would have changed it.
    for (const auto& [id, snap] : durable_view) {
      EXPECT_EQ(to_json(*service.status(id)), snap)
          << "job " << id << " changed across restart " << cycle;
      EXPECT_EQ(*service.result_body(id), durable_body[id]);
    }
    for (int i = 0; i < 3; ++i) {
      const SubmitOutcome out =
          service.submit(make_request(quickstart_text(), JobKind::Lint));
      ASSERT_TRUE(out.admitted);
      all_ids.insert(out.id);
    }
    // Drain a couple, then pull the plug with the rest queued or mid-run.
    std::size_t waited = 0;
    for (auto it = all_ids.rbegin(); it != all_ids.rend() && waited < 2;
         ++it, ++waited)
      wait_terminal(service, *it, 120000);
    // Snapshot the durable view the next incarnation must reproduce.
    // (Jobs that went terminal after being re-admitted carry a live
    // recovered=true flag this life; the durable store reloads them with
    // recovered=false, so they enter the snapshot one restart later.)
    durable_view.clear();
    durable_body.clear();
    for (const std::uint64_t id : all_ids) {
      const std::optional<JobStatus> status = service.status(id);
      if (!status.has_value() || status->finish_seq == 0 ||
          status->recovered)
        continue;
      durable_view[id] = to_json(*status);
      durable_body[id] = service.result_body(id).value_or("");
    }
    service.stop(false);  // SIGKILL-shaped: no drain, no cleanup
  }
  // Final calm incarnation: everything drains to an honest terminal state.
  Service service(cfg);
  for (const std::uint64_t id : all_ids) wait_terminal(service, id, 120000);
  service.stop(true);
}

// --- boot-time fsck -----------------------------------------------------------

namespace fscktest {

/// A queued job record as spool_job writes it.
std::string job_frame(std::uint64_t id) {
  Request frame = make_submit_request(make_request("# spec\n", JobKind::Lint));
  frame.verb = "JOB";
  frame.fields["id"] = std::to_string(id);
  return encode_request(frame);
}

std::string record_path(const std::string& root, std::uint64_t id) {
  return root + "/jobs/" + std::to_string(id) + ".job";
}

/// Seeds one instance of every finding class under `root`, next to a
/// healthy queued and a healthy terminal record:
///   jobs/2.job     queued record (healthy: must be left alone)
///   jobs/3.job     terminal record (healthy: must be left alone)
///   jobs/8.job     corrupt record
///   jobs/9.job     unreadable record (a directory where a file belongs)
///   cache/*.res    corrupt cache entry
///   .tmp.123       atomic-write debris
///   jobs/notes.txt unattributable bytes (ledger drift)
void seed_corrupt_spool(const std::string& root) {
  for (const std::string& dir : {root, root + "/jobs", root + "/cache"})
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
  diskfmt::write_framed_file(record_path(root, 2), kSpoolJobMagic,
                             kSpoolJobVersion, job_frame(2));
  DurableResult done;
  done.id = 3;
  done.kind = JobKind::Lint;
  done.outcome = JobOutcome::Ok;
  done.attempts = 1;
  done.finish_seq = 1;
  done.body = "{\"ok\":true}";
  diskfmt::write_framed_file(record_path(root, 3), kDurableResultMagic,
                             kDurableResultVersion,
                             encode_durable_result(done));
  atomic_write_file(record_path(root, 8), "not a framed job at all");
  ASSERT_EQ(::mkdir(record_path(root, 9).c_str(), 0755), 0);
  atomic_write_file(root + "/cache/0123456789abcdef.res", "stale cache junk");
  atomic_write_file(root + "/.tmp.123", "atomic-write leftovers");
  atomic_write_file(root + "/jobs/notes.txt", "who put this here");
}

/// A scrub of a repaired spool finds only what no repair can fix: the
/// drift bytes and the unreadable record.
void expect_converged(const FsckReport& report) {
  EXPECT_EQ(report.repair_failures, 0) << report.to_json();
  for (const FsckItem& item : report.items)
    EXPECT_TRUE(item.finding == FsckFinding::LedgerDrift ||
                item.finding == FsckFinding::UnreadableFile)
        << to_string(item.finding) << " " << item.path << " " << item.action;
}

}  // namespace fscktest

TEST(ServeFsckTest, RepairsEverySeededCorruptionClass) {
  TempSpool spool("serve_test_fsck");
  fscktest::seed_corrupt_spool(spool.path);
  const std::string queued = read_file(fscktest::record_path(spool.path, 2));
  const std::string terminal = read_file(fscktest::record_path(spool.path, 3));

  const SpoolScan scan = scan_spool(spool.path, /*repair=*/true);
  const FsckReport& report = scan.report;
  EXPECT_EQ(report.count(FsckFinding::CorruptSpoolEntry), 1);
  EXPECT_EQ(report.count(FsckFinding::UnreadableFile), 1);
  EXPECT_EQ(report.count(FsckFinding::CorruptCacheEntry), 1);
  EXPECT_EQ(report.count(FsckFinding::TempDebris), 1);
  EXPECT_EQ(report.count(FsckFinding::LedgerDrift), 1);
  EXPECT_EQ(report.quarantines, 1);
  EXPECT_EQ(report.repair_failures, 0) << report.to_json();

  // What the scan hands to Service: the queued job, the terminal answer
  // plus the tombstone, and ids above every file name — the unreadable
  // record's included.
  ASSERT_EQ(scan.queued.size(), 1u);
  EXPECT_EQ(scan.queued[0].first, 2u);
  std::set<std::uint64_t> terminal_ids;
  for (const DurableResult& r : scan.terminal) terminal_ids.insert(r.id);
  EXPECT_EQ(terminal_ids, (std::set<std::uint64_t>{3, 8}));
  EXPECT_TRUE(scan.cache.empty());
  EXPECT_EQ(scan.max_id, 9u);
  long long ledger = 0;
  for (const auto& [path, bytes] : scan.files) ledger += bytes;
  EXPECT_EQ(ledger, report.disk_bytes);

  // The world after repair: evidence kept, garbage gone, promises honest.
  EXPECT_EQ(read_file(fscktest::record_path(spool.path, 2)), queued)
      << "healthy queued record must survive untouched";
  EXPECT_EQ(read_file(fscktest::record_path(spool.path, 3)), terminal)
      << "healthy terminal record must survive untouched";
  EXPECT_EQ(diskfmt::read_framed_file(
                fscktest::record_path(spool.path, 8) + ".corrupt",
                kEvidenceMagic, kEvidenceVersion)
                .payload,
            "not a framed job at all")
      << "corrupt record quarantined with its exact bytes as evidence";
  const DurableResult tomb = decode_durable_result(
      diskfmt::read_framed_file(fscktest::record_path(spool.path, 8),
                                kDurableResultMagic, kDurableResultVersion)
          .payload);
  EXPECT_EQ(tomb.outcome, JobOutcome::FailedHonest);
  EXPECT_FALSE(tomb.detail.empty());
  EXPECT_NE(tomb.body.find("fsck-lost-job"), std::string::npos);
  struct stat st;
  EXPECT_EQ(::stat(fscktest::record_path(spool.path, 9).c_str(), &st), 0)
      << "an unreadable record is left in place";
  EXPECT_NE(::stat((spool.path + "/cache/0123456789abcdef.res").c_str(), &st),
            0);
  EXPECT_NE(::stat((spool.path + "/.tmp.123").c_str(), &st), 0);

  // Idempotence: a second scrub finds only the deliberately unrepairable
  // drift bytes and unreadable record.
  fscktest::expect_converged(fsck_spool(spool.path, /*repair=*/true));
}

TEST(ServeFsckTest, DetectOnlyModeChangesNothing) {
  TempSpool spool("serve_test_fsck_ro");
  fscktest::seed_corrupt_spool(spool.path);
  const FsckReport report = fsck_spool(spool.path, /*repair=*/false);
  EXPECT_EQ(report.repairs, 0);
  EXPECT_EQ(report.quarantines, 0);
  for (const FsckItem& item : report.items) {
    // Drift is "charged" even here: the recount is accounting, not repair.
    if (item.finding == FsckFinding::LedgerDrift) continue;
    EXPECT_EQ(item.action.substr(0, 8), "detected") << item.action;
  }
  // Nothing on disk moved: the corrupt record is still in place, no
  // evidence or tombstone written, the debris still there.
  EXPECT_EQ(read_file(fscktest::record_path(spool.path, 8)),
            "not a framed job at all");
  struct stat st;
  EXPECT_NE(
      ::stat((fscktest::record_path(spool.path, 8) + ".corrupt").c_str(), &st),
      0);
  EXPECT_EQ(::stat((spool.path + "/.tmp.123").c_str(), &st), 0);
  // A repairing pass over the same spool then converges.
  const FsckReport repaired = fsck_spool(spool.path, /*repair=*/true);
  EXPECT_GT(repaired.repairs, 0);
}

TEST(ServeFsckTest, SurvivesChaosAndConvergesOnceCalm) {
  ChaosGuard guard;
  TempSpool spool("serve_test_fsck_chaos");
  fscktest::seed_corrupt_spool(spool.path);
  const std::string queued = read_file(fscktest::record_path(spool.path, 2));
  const std::string terminal = read_file(fscktest::record_path(spool.path, 3));

  // Every repair path runs through the iofault seam: with faults armed at
  // a high rate the scrub must return (never throw), counting what the
  // filesystem refused as repair-failed.
  iofault::Plan plan;  // default kinds: the full fault menagerie
  plan.seed = 11;
  plan.rate = 0.5;
  iofault::arm(plan);
  const FsckReport stormy = fsck_spool(spool.path, /*repair=*/true);
  iofault::disarm();
  EXPECT_GT(iofault::counters().total, 0u) << "chaos never actually fired";
  (void)stormy;  // returning at all is the contract under chaos

  // The storm never touched a healthy record, and once the weather clears,
  // repeated calm scrubs reach the same fixpoint as an unmolested repair.
  EXPECT_EQ(read_file(fscktest::record_path(spool.path, 2)), queued);
  EXPECT_EQ(read_file(fscktest::record_path(spool.path, 3)), terminal);
  (void)fsck_spool(spool.path, /*repair=*/true);
  fscktest::expect_converged(fsck_spool(spool.path, /*repair=*/true));
}

TEST(ServeFsckTest, CorruptRecordIsNeverLeftWithoutItsTombstone) {
  ChaosGuard guard;
  TempSpool spool("serve_test_fsck_tomb");
  const std::string garbage = "not a framed job at all";
  const std::string record = fscktest::record_path(spool.path, 8);
  int refused = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::system(("rm -rf " + spool.path).c_str());
    for (const std::string& dir : {spool.path, spool.path + "/jobs"})
      ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
    atomic_write_file(record, garbage);
    iofault::Plan plan;  // default kinds: the full fault menagerie
    plan.seed = seed;
    plan.rate = 0.5;
    iofault::arm(plan);
    refused += fsck_spool(spool.path, /*repair=*/true).repair_failures;
    iofault::disarm();
    // Whatever the storm refused, the job keeps a record: the corrupt
    // original, or a tombstone written after its evidence.
    std::string now;
    ASSERT_NO_THROW(now = read_file(record)) << "seed " << seed;
    if (now != garbage) {
      EXPECT_NO_THROW((void)read_file(record + ".corrupt"))
          << "seed " << seed << ": tombstone without evidence";
    }
    // Once calm, the scrub finishes the job: tombstone plus evidence.
    (void)fsck_spool(spool.path, /*repair=*/true);
    const DurableResult tomb = decode_durable_result(
        diskfmt::read_framed_file(record, kDurableResultMagic,
                                  kDurableResultVersion)
            .payload);
    EXPECT_EQ(tomb.outcome, JobOutcome::FailedHonest) << "seed " << seed;
    EXPECT_NO_THROW((void)read_file(record + ".corrupt")) << "seed " << seed;
  }
  EXPECT_GT(refused, 0) << "the storm never refused a repair";
}

TEST(ServeFsckTest, TransientReadErrorsNeverDestroyAnAnswer) {
  ChaosGuard guard;
  TempSpool spool("serve_test_fsck_eio");
  std::uint64_t done_id = 0;
  std::uint64_t queued_id = 0;
  std::string done_json, done_body;
  {
    Service service(fast_config(spool.path));
    const SubmitOutcome out =
        service.submit(make_request(quickstart_text(), JobKind::Lint));
    ASSERT_TRUE(out.admitted);
    done_id = out.id;
    EXPECT_EQ(wait_terminal(service, done_id).outcome, JobOutcome::Ok);
    done_json = to_json(*service.status(done_id));
    done_body = *service.result_body(done_id);
    service.stop(true);
  }
  {
    ServiceConfig cfg = fast_config(spool.path);
    cfg.start_paused = true;
    Service service(cfg);
    const SubmitOutcome out = service.submit(
        make_request(quickstart_text() + "\n# parked\n", JobKind::Lint));
    ASSERT_TRUE(out.admitted);
    queued_id = out.id;
    service.stop(false);  // hard stop: the queued record stays
  }
  const std::string done_path = fscktest::record_path(spool.path, done_id);
  const std::string queued_path = fscktest::record_path(spool.path, queued_id);
  const std::string done_record = read_file(done_path);
  const std::string queued_record = read_file(queued_path);

  // EIO on reads, at the chaos campaign's rate and far above it: a record
  // the scan cannot read is reported and left alone, never quarantined and
  // never tombstoned.
  iofault::Plan plan;
  plan.kinds = 1u << static_cast<unsigned>(iofault::Kind::Eio);
  for (const double rate : {0.02, 0.5}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      plan.seed = seed;
      plan.rate = rate;
      iofault::arm(plan);
      const FsckReport report = fsck_spool(spool.path, /*repair=*/true);
      iofault::disarm();
      EXPECT_EQ(report.count(FsckFinding::CorruptSpoolEntry), 0)
          << "rate " << rate << " seed " << seed;
      EXPECT_EQ(report.quarantines, 0);
      EXPECT_EQ(read_file(done_path), done_record);
      EXPECT_EQ(read_file(queued_path), queued_record);
    }
  }
  EXPECT_GT(iofault::counters().total, 0u) << "chaos never actually fired";
  // The service boots under the same weather (it arms no plan of its own
  // here, so the test's stays in force).
  plan.seed = 7;
  plan.rate = 0.5;
  iofault::arm(plan);
  {
    ServiceConfig cfg = fast_config(spool.path);
    cfg.start_paused = true;
    Service service(cfg);
    service.stop(false);
  }
  iofault::disarm();
  struct stat st;
  EXPECT_NE(::stat((done_path + ".corrupt").c_str(), &st), 0);
  EXPECT_NE(::stat((queued_path + ".corrupt").c_str(), &st), 0);

  // A calm restart answers bit-identically and still owes the queued job.
  Service service(fast_config(spool.path));
  ASSERT_TRUE(service.status(done_id).has_value());
  EXPECT_EQ(to_json(*service.status(done_id)), done_json);
  EXPECT_EQ(*service.result_body(done_id), done_body);
  EXPECT_EQ(service.recovered_jobs(), 1);
  EXPECT_EQ(wait_terminal(service, queued_id).outcome, JobOutcome::Ok);
  service.stop(true);
}

TEST(ServeDurabilityTest, QuarantineEvidenceChargedAndCappedOldestFirst) {
  TempSpool spool("serve_test_qcap");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.quarantine_retain = 2;
  {
    Service bootstrap(cfg);  // lays out the spool directories
    bootstrap.stop(true);
  }
  for (int i = 1; i <= 5; ++i) {
    const std::string path =
        spool.path + "/jobs/" + std::to_string(i) + ".job.corrupt";
    atomic_write_file(path, "evidence-" + std::to_string(i));
    // Deterministic ages: file i is i seconds old at the epoch.
    timespec times[2] = {{i, 0}, {i, 0}};
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
  }
  Service service(cfg);
  EXPECT_EQ(service.stats().quarantine_evicted, 3);
  struct stat st;
  for (int i = 1; i <= 3; ++i)
    EXPECT_NE(::stat((spool.path + "/jobs/" + std::to_string(i) +
                      ".job.corrupt")
                         .c_str(),
                     &st),
              0)
        << "oldest evidence " << i << " must be evicted first";
  long long surviving = 0;
  for (int i = 4; i <= 5; ++i) {
    const std::string path =
        spool.path + "/jobs/" + std::to_string(i) + ".job.corrupt";
    ASSERT_EQ(::stat(path.c_str(), &st), 0) << "retained evidence missing";
    surviving += static_cast<long long>(st.st_size);
  }
  // The evidence that stays is charged to the disk ledger, not free-riding.
  EXPECT_GE(service.stats().disk_used_bytes, surviving);
  service.stop(true);
}

TEST(ServeDurabilityTest, LedgerRecountChargesAndFlagsDrift) {
  TempSpool spool("serve_test_drift");
  {
    Service bootstrap(fast_config(spool.path));
    bootstrap.stop(true);
  }
  // 4 KiB of bytes no artifact pattern explains: the recount must charge
  // them (so the budget stays honest) and flag the drift.
  atomic_write_file(spool.path + "/jobs/unaccounted.bin",
                    std::string(4096, 'x'));
  Service service(fast_config(spool.path));
  EXPECT_EQ(service.stats().ledger_drift_bytes, 4096);
  EXPECT_GE(service.stats().disk_used_bytes, 4096);
  EXPECT_GT(service.stats().fsck_findings, 0);
  service.stop(true);
}

// --- disk budget and cost-aware cache ----------------------------------------

TEST(ServeServiceTest, DiskBudgetExhaustionIsATypedRejection) {
  TempSpool spool("serve_test_diskfull");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.disk_budget_bytes = 1024;  // smaller than any spooled submit
  Service service(cfg);
  const SubmitOutcome out =
      service.submit(make_request(quickstart_text(), JobKind::Lint));
  EXPECT_FALSE(out.admitted);
  EXPECT_TRUE(out.disk_full);
  EXPECT_FALSE(out.busy);
  EXPECT_NE(out.error.find("disk budget exhausted"), std::string::npos)
      << out.error;
  EXPECT_EQ(service.stats().rejected_disk, 1);

  // Nothing was written: the jobs spool holds no file for the reject.
  DIR* d = ::opendir((spool.path + "/jobs").c_str());
  ASSERT_NE(d, nullptr);
  int files = 0;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") ++files;
  }
  ::closedir(d);
  EXPECT_EQ(files, 0);
  service.stop(true);
}

TEST(ServeServiceTest, CacheEvictsCheapestToRecomputeNotOldest) {
  TempSpool spool("serve_test_costcache");
  ServiceConfig cfg = fast_config(spool.path);
  cfg.cache_capacity = 1;
  Service service(cfg);

  // Expensive entry first: a full synthesis run.
  const SubmitOutcome costly =
      service.submit(make_request(quickstart_text(), JobKind::Run));
  ASSERT_TRUE(costly.admitted);
  wait_terminal(service, costly.id);

  // Cheap entry second: a parse-only lint.  LRU would now evict the older
  // (expensive) run entry; cost-aware eviction drops the cheap newcomer,
  // because re-linting costs milliseconds and re-synthesizing does not.
  const SubmitOutcome cheap =
      service.submit(make_request(quickstart_text() + "\n# lint variant\n",
                                  JobKind::Lint));
  ASSERT_TRUE(cheap.admitted);
  wait_terminal(service, cheap.id);
  EXPECT_GE(service.stats().cache_evictions, 1);

  const SubmitOutcome run_again =
      service.submit(make_request(quickstart_text(), JobKind::Run));
  ASSERT_TRUE(run_again.admitted);
  EXPECT_TRUE(run_again.cached) << "expensive entry was evicted";
  const SubmitOutcome lint_again = service.submit(
      make_request(quickstart_text() + "\n# lint variant\n", JobKind::Lint));
  ASSERT_TRUE(lint_again.admitted);
  EXPECT_FALSE(lint_again.cached) << "cheap entry was retained";
  wait_terminal(service, run_again.id);
  wait_terminal(service, lint_again.id);
  service.stop(true);
}

TEST(ServeServiceTest, CacheReloadKeepsTheCostliestEntries) {
  TempSpool spool("serve_test_cachecap");
  {
    Service bootstrap(fast_config(spool.path));  // lays out the spool
    bootstrap.stop(true);
  }
  // Entries costing 2 ms, 5 ms and 40 s of CPU, named so the costliest
  // sorts last: a restart that keeps a name-sorted prefix would lose it.
  const struct {
    const char* key;
    long long cost_us;
  } entries[] = {{"00000000000000a1", 2000},
                 {"00000000000000a2", 5000},
                 {"00000000000000a3", 40000000}};
  for (const auto& entry : entries) {
    ckpt::BinWriter w;
    w.u64(static_cast<std::uint64_t>(entry.cost_us));
    w.str(std::string("{\"answer\":\"") + entry.key + "\"}");
    diskfmt::write_framed_file(
        spool.path + "/cache/" + entry.key + ".res", kCacheEntryMagic,
        kCacheEntryVersion, w.bytes());
  }
  ServiceConfig cfg = fast_config(spool.path);
  cfg.cache_capacity = 1;
  Service service(cfg);
  EXPECT_EQ(service.stats().cache_evictions, 2);
  struct stat st;
  EXPECT_EQ(::stat((spool.path + "/cache/00000000000000a3.res").c_str(), &st),
            0)
      << "the 40 s entry must survive the restart";
  for (const char* cheap : {"00000000000000a1", "00000000000000a2"})
    EXPECT_NE(
        ::stat((spool.path + "/cache/" + cheap + ".res").c_str(), &st), 0)
        << cheap;
  service.stop(true);
}

TEST(ServeChaosTest, RejectedSubmitLeavesNoRecordBehind) {
  ChaosGuard guard;
  TempSpool spool("serve_test_dirfsync");
  const auto records = [&] {
    int n = 0;
    DIR* d = ::opendir((spool.path + "/jobs").c_str());
    EXPECT_NE(d, nullptr);
    if (d == nullptr) return n;
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() > 4 && name.substr(name.size() - 4) == ".job") ++n;
    }
    ::closedir(d);
    return n;
  };
  int admitted = 0;
  bool dir_fsync_rejected = false;
  {
    ServiceConfig cfg = fast_config(spool.path);
    cfg.start_paused = true;  // nothing runs; every record stays queued
    Service service(cfg);
    // fsync failures only: a submit fails at the temp file's fsync (before
    // the rename) or at the directory's (after it, with the whole record
    // already under its final name).  Seeds are tried until the latter.
    iofault::Plan plan;
    plan.rate = 0.5;
    plan.kinds = 1u << static_cast<unsigned>(iofault::Kind::FsyncFail);
    for (std::uint64_t seed = 1; seed <= 200 && !dir_fsync_rejected; ++seed) {
      plan.seed = seed;
      iofault::arm(plan);
      const SubmitOutcome out = service.submit(make_request(
          quickstart_text() + "\n# seed " + std::to_string(seed) + "\n",
          JobKind::Lint));
      iofault::disarm();
      if (out.admitted) {
        ++admitted;
        continue;
      }
      EXPECT_NE(out.error.find("spool write failed"), std::string::npos)
          << out.error;
      dir_fsync_rejected =
          out.error.find("cannot fsync directory") != std::string::npos;
      EXPECT_EQ(records(), admitted) << "a rejected submit left its record";
    }
    EXPECT_GE(service.stats().journal_append_failures, 1);
    service.stop(false);
  }
  ASSERT_TRUE(dir_fsync_rejected) << "no seed failed the directory fsync";
  // A restart re-admits exactly the admitted jobs: the rejected one never
  // runs.
  Service service(fast_config(spool.path));
  EXPECT_EQ(service.recovered_jobs(), admitted);
  service.stop(false);
}

TEST(ServeChaosTest, FailedTerminalWriteKeepsTheJobQueued) {
  ChaosGuard guard;
  TempSpool spool("serve_test_termfail");
  std::uint64_t id = 0;
  {
    ServiceConfig cfg = fast_config(spool.path);
    cfg.start_paused = true;
    Service service(cfg);
    const SubmitOutcome out =
        service.submit(make_request(quickstart_text(), JobKind::Lint));
    ASSERT_TRUE(out.admitted);
    id = out.id;
    // Every rename fails while the cancel writes the terminal record.
    iofault::Plan plan;
    plan.seed = 5;
    plan.rate = 1.0;
    plan.kinds = 1u << static_cast<unsigned>(iofault::Kind::RenameFail);
    iofault::arm(plan);
    EXPECT_TRUE(service.cancel(id));
    iofault::disarm();
    EXPECT_EQ(service.status(id)->outcome, JobOutcome::Cancelled);
    EXPECT_EQ(service.stats().result_persist_failures, 1);
    service.stop(false);
  }
  // The answer given from memory did not survive, but the job did: its
  // queued record re-runs it rather than leaving a not-found.
  Service service(fast_config(spool.path));
  EXPECT_EQ(service.recovered_jobs(), 1);
  EXPECT_EQ(wait_terminal(service, id).outcome, JobOutcome::Ok);
  service.stop(true);
}

TEST(ServeDurabilityTest, UnpersistedResultStaysQueuedAndReRuns) {
  TempSpool spool("serve_test_persistfail");
  const SubmitRequest req = make_request(quickstart_text(), JobKind::Lint);
  std::uint64_t id = 0;
  std::string body;
  {
    ServiceConfig cfg = fast_config(spool.path);
    // Room for the request (the spec plus 512 bytes of headroom) but not
    // for its answer on top of the files the attempt left.
    cfg.disk_budget_bytes = static_cast<long long>(req.spec_text.size()) + 600;
    Service service(cfg);
    const SubmitOutcome out = service.submit(req);
    ASSERT_TRUE(out.admitted) << out.error;
    id = out.id;
    // The answer is still served, from memory, and the failure counted.
    EXPECT_EQ(wait_terminal(service, id).outcome, JobOutcome::Ok);
    body = *service.result_body(id);
    EXPECT_EQ(service.stats().result_persist_failures, 1);
    EXPECT_EQ(service.stats().results_persisted, 0);
    service.stop(false);  // hard stop
  }
  // The queued record stayed, so a calm restart re-runs the job as
  // recovered: never a not-found.
  {
    Service service(fast_config(spool.path));
    EXPECT_EQ(service.recovered_jobs(), 1);
    ASSERT_TRUE(service.status(id).has_value()) << "job " << id << " lost";
    const JobStatus again = wait_terminal(service, id);
    EXPECT_EQ(again.outcome, JobOutcome::Ok);
    EXPECT_TRUE(again.recovered);
    EXPECT_EQ(*service.result_body(id), body);
    EXPECT_EQ(service.stats().results_persisted, 1);
    service.stop(true);
  }
  // Persisted this time: the next incarnation owes it nothing.
  Service service(fast_config(spool.path));
  EXPECT_EQ(service.recovered_jobs(), 0);
  EXPECT_EQ(service.stats().results_recovered, 1);
  EXPECT_EQ(*service.result_body(id), body);
  service.stop(true);
}

TEST(ServeChaosTest, EveryIdAClientHoldsHasARecord) {
  ChaosGuard guard;
  TempSpool spool("serve_test_idrecord");
  const SubmitRequest cached = make_request(quickstart_text(), JobKind::Lint);
  std::string answer;
  {
    Service service(fast_config(spool.path));  // calm: fills the cache
    const SubmitOutcome out = service.submit(cached);
    ASSERT_TRUE(out.admitted);
    EXPECT_EQ(wait_terminal(service, out.id).outcome, JobOutcome::Ok);
    answer = *service.result_body(out.id);
    service.stop(true);
  }
  // ENOSPC/EIO and fsync failures: a record write fails before its rename
  // (no record reaches disk) or at the directory fsync after it (a whole
  // record does), and an unlink can fail without unlinking — a refusal
  // must not hinge on it.  Rate 1 fails every write and every unlink.
  std::map<std::uint64_t, bool> held;  // id -> served from the cache
  int held_hits = 0;
  int refused_hits = 0;
  int refused_admissions = 0;
  int queued = 0;
  {
    ServiceConfig cfg = fast_config(spool.path);
    cfg.start_paused = true;  // nothing runs; admitted jobs stay queued
    Service service(cfg);
    iofault::Plan plan;
    plan.kinds = (1u << static_cast<unsigned>(iofault::Kind::Enospc)) |
                 (1u << static_cast<unsigned>(iofault::Kind::Eio)) |
                 (1u << static_cast<unsigned>(iofault::Kind::FsyncFail));
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      plan.seed = seed;
      plan.rate = seed == 1 ? 1.0 : 0.5;
      iofault::arm(plan);
      const SubmitOutcome hit = service.submit(cached);
      const SubmitOutcome fresh = service.submit(make_request(
          quickstart_text() + "\n# seed " + std::to_string(seed) + "\n",
          JobKind::Lint));
      iofault::disarm();
      for (const SubmitOutcome* out : {&hit, &fresh}) {
        if (out->admitted) {
          held[out->id] = out->cached;
          continue;
        }
        EXPECT_NE(out->error.find("spool write failed"), std::string::npos)
            << out->error;
      }
      if (hit.admitted) {
        EXPECT_TRUE(hit.cached);
        ++held_hits;
      } else {
        ++refused_hits;
      }
      if (fresh.admitted) ++queued;
      else ++refused_admissions;
    }
    service.stop(false);  // hard stop
  }
  EXPECT_GT(refused_hits, 0);
  EXPECT_GT(refused_admissions, 0);
  ASSERT_FALSE(held.empty());
  // A calm restart answers every id a client was given — a hit with the
  // cached answer, an admission as a recovered job — and nothing else, and
  // issues new ids above all of them.
  ServiceConfig cfg = fast_config(spool.path);
  cfg.start_paused = true;
  Service service(cfg);
  EXPECT_EQ(service.recovered_jobs(), queued);
  EXPECT_EQ(service.stats().results_recovered, held_hits + 1);
  for (const auto& [id, was_hit] : held) {
    const std::optional<JobStatus> status = service.status(id);
    ASSERT_TRUE(status.has_value()) << "id " << id << " unknown after restart";
    if (was_hit) {
      EXPECT_EQ(status->state, JobState::Done);
      EXPECT_EQ(*service.result_body(id), answer);
    } else {
      EXPECT_TRUE(status->recovered) << "id " << id;
    }
  }
  const SubmitOutcome next = service.submit(
      make_request(quickstart_text() + "\n# after\n", JobKind::Lint));
  ASSERT_TRUE(next.admitted);
  EXPECT_GT(next.id, held.rbegin()->first);
  service.stop(false);
}

TEST(ServeDurabilityTest, RetentionKeepsACorruptRecordItCouldNotQuarantine) {
  ChaosGuard guard;
  TempSpool spool("serve_test_retainq");
  for (const std::string& dir : {spool.path, spool.path + "/jobs"})
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
  for (const std::uint64_t id : {1, 2}) {
    DurableResult r;
    r.id = id;
    r.kind = JobKind::Lint;
    r.outcome = JobOutcome::Ok;
    r.finish_seq = static_cast<int>(id);
    r.body = "{\"ok\":true}";
    diskfmt::write_framed_file(fscktest::record_path(spool.path, id),
                               kDurableResultMagic, kDurableResultVersion,
                               encode_durable_result(r));
  }
  const std::string garbage = "not a framed job at all";
  const std::string record = fscktest::record_path(spool.path, 8);
  atomic_write_file(record, garbage);
  ServiceConfig cfg = fast_config(spool.path);
  cfg.terminal_retain = 1;
  {
    // Every rename fails, so the scan writes neither evidence nor
    // tombstone.  The tombstone it serves from memory has finish sequence
    // 0 and leaves retention first; the record under it must stay.
    iofault::Plan plan;
    plan.seed = 3;
    plan.rate = 1.0;
    plan.kinds = 1u << static_cast<unsigned>(iofault::Kind::RenameFail);
    iofault::arm(plan);
    Service service(cfg);
    iofault::disarm();
    service.stop(false);
  }
  std::string left;
  ASSERT_NO_THROW(left = read_file(record))
      << "retention deleted a corrupt record with no evidence kept";
  EXPECT_EQ(left, garbage);
  {
    Service service(cfg);  // calm: the scrub finishes the quarantine
    service.stop(false);
  }
  EXPECT_EQ(diskfmt::read_framed_file(record + ".corrupt", kEvidenceMagic,
                                      kEvidenceVersion)
                .payload,
            garbage);
}

// --- the seeded chaos campaign (acceptance criteria) -------------------------

struct ChaosScenario {
  int index = 0;
  JobKind kind = JobKind::Lint;
  int priority = 0;
  long deadline_ms = 0;
  int fault_crash = 0;
  int fault_resource = 0;
  bool nonce_resubmit = false;

  bool operator==(const ChaosScenario& o) const {
    return index == o.index && kind == o.kind && priority == o.priority &&
           deadline_ms == o.deadline_ms && fault_crash == o.fault_crash &&
           fault_resource == o.fault_resource &&
           nonce_resubmit == o.nonce_resubmit;
  }
};

/// The campaign plan is a pure function of its seed: same seed, same
/// scenarios, bit for bit.  The test builds it twice and asserts equality
/// before running anything — the whole campaign replays from one number.
std::vector<ChaosScenario> build_chaos_plan(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<ChaosScenario> plan;
  plan.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ChaosScenario s;
    s.index = i;
    const double kind_roll = rng.uniform();
    if (kind_roll < 0.78) s.kind = JobKind::Lint;
    else if (kind_roll < 0.86) s.kind = JobKind::Validate;
    else if (kind_roll < 0.94) s.kind = JobKind::Run;
    else s.kind = JobKind::Survive;
    s.priority = static_cast<int>(rng.uniform_int(0, 2));
    if (rng.chance(0.10))
      s.deadline_ms = 1 + static_cast<long>(rng.uniform_int(0, 4));
    if (rng.chance(0.12)) s.fault_crash = 1;
    else if (rng.chance(0.08)) s.fault_resource = 1;
    s.nonce_resubmit = rng.chance(0.15);
    plan.push_back(s);
  }
  return plan;
}

TEST(ServeChaosTest, SeededCampaignZeroLostZeroDuplicatedAllHonest) {
  constexpr std::uint64_t kSeed = 20260808;
  constexpr int kScenarios = 210;
  const std::vector<ChaosScenario> plan = build_chaos_plan(kSeed, kScenarios);
  ASSERT_TRUE(plan == build_chaos_plan(kSeed, kScenarios))
      << "campaign plan is not reproducible from its seed";

  ChaosGuard guard;
  TempSpool spool("serve_test_chaoscamp");
  ServiceConfig base = fast_config(spool.path);
  base.workers = 4;
  base.queue_capacity = 16;  // small on purpose: bursts must hit busy
  base.term_grace_ms = 200;
  base.attempt_timeout_ms = 30000;

  const auto spec_for = [&](int i) {
    return quickstart_text() + "\n# chaos scenario " + std::to_string(i) +
           "\n";
  };
  const auto request_for = [&](const ChaosScenario& s) {
    SubmitRequest req;
    req.kind = s.kind;
    req.spec_text = spec_for(s.index);
    req.priority = s.priority;
    req.deadline_ms = s.deadline_ms;
    req.fault_crash_attempts = s.fault_crash;
    req.fault_resource_attempts = s.fault_resource;
    req.survive_seeds = 2;
    if (s.nonce_resubmit)
      req.client_nonce = "chaos-" + std::to_string(s.index);
    return req;
  };

  // Job ids are unique within one service incarnation (recovery preserves
  // ids, so the counter restarts past the surviving jobs — terminal ids
  // from before the crash may be reissued).  Uniqueness is asserted per
  // incarnation.
  std::set<std::uint64_t> ids1;
  std::set<std::uint64_t> ids2;
  int honest_rejections = 0;  // typed spool/bad rejections under chaos
  int busy_gave_up = 0;
  int duplicates = 0;

  // Submit with the busy contract honoured: every rejection's hint must be
  // sane, and sleeping it must converge instead of stampeding.
  const auto submit_with_retry = [&](Service& service,
                                     const SubmitRequest& req)
      -> SubmitOutcome {
    for (int attempt = 0; attempt < 100; ++attempt) {
      const SubmitOutcome out = service.submit(req);
      if (!out.busy) return out;
      EXPECT_GE(out.retry_after_ms, 10);
      EXPECT_LE(out.retry_after_ms, 60000);
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<long>(out.retry_after_ms, 100)));
    }
    SubmitOutcome gave_up;
    gave_up.busy = true;
    return gave_up;
  };

  const auto run_slice = [&](Service& service, int begin, int end,
                             std::map<std::uint64_t, int>* admitted,
                             std::set<std::uint64_t>* ids) {
    for (int i = begin; i < end; ++i) {
      const ChaosScenario& s = plan[static_cast<std::size_t>(i)];
      const SubmitRequest req = request_for(s);
      const SubmitOutcome out = submit_with_retry(service, req);
      if (out.busy) {
        ++busy_gave_up;
        continue;
      }
      if (!out.admitted) {
        // Injected environment faults make some spools fail — but every
        // such failure is typed and says why.  Silence is the only bug.
        EXPECT_FALSE(out.error.empty()) << "scenario " << i;
        ++honest_rejections;
        continue;
      }
      if (!out.duplicate && !out.cached) {
        EXPECT_TRUE(ids->insert(out.id).second)
            << "scenario " << i << " reused id " << out.id;
      }
      admitted->emplace(out.id, i);
      if (s.nonce_resubmit) {
        // Lost-reply retry: same request, same nonce — must attach.
        const SubmitOutcome re = service.submit(req);
        if (re.admitted) {
          EXPECT_TRUE(re.duplicate) << "scenario " << i;
          EXPECT_EQ(re.id, out.id) << "scenario " << i;
          if (re.duplicate) ++duplicates;
        }
      }
    }
  };

  // Checks every admitted job of one incarnation: terminal jobs must carry
  // an honest outcome and a result body; still-queued ids are returned as
  // the parked set the next incarnation must account for.
  const auto audit = [&](Service& service,
                         const std::map<std::uint64_t, int>& admitted)
      -> std::vector<std::uint64_t> {
    std::vector<std::uint64_t> parked;
    for (const auto& [id, scenario] : admitted) {
      const auto status = service.status(id);
      if (!status.has_value()) {
        ADD_FAILURE() << "job " << id << " vanished";
        continue;
      }
      if (status->state != JobState::Done) {
        parked.push_back(id);
        continue;
      }
      EXPECT_NE(status->outcome, JobOutcome::None) << "job " << id;
      if (status->outcome == JobOutcome::FailedHonest ||
          status->outcome == JobOutcome::DegradedHonest) {
        EXPECT_FALSE(status->detail.empty()) << "job " << id;
      }
      EXPECT_TRUE(service.result_body(id).has_value()) << "job " << id;
    }
    return parked;
  };

  // --- incarnation 1: 140 scenarios under low-rate chaos, then a hard stop
  std::vector<std::uint64_t> parked;
  std::map<std::uint64_t, int> admitted1;
  {
    ServiceConfig cfg = base;
    cfg.chaos_seed = kSeed;  // armed through the config, as crusaded does
    cfg.chaos_rate = 0.02;
    Service service(cfg);
    ASSERT_TRUE(iofault::armed());
    run_slice(service, 0, 140, &admitted1, &ids1);
    service.stop(false);  // hard stop mid-flight: park whatever is queued
    parked = audit(service, admitted1);
  }
  EXPECT_GT(iofault::counters().total, 0u) << "chaos never actually fired";

  // --- incarnation 2: recovery with chaos still armed, then the rest
  std::map<std::uint64_t, int> admitted2;
  std::vector<std::uint64_t> unread;
  std::size_t ids2_new = 0;
  {
    ServiceConfig cfg = base;
    cfg.chaos_seed = kSeed + 1;
    cfg.chaos_rate = 0.02;
    Service service(cfg);

    // Every parked id came back: re-admitted from its record, or answered
    // by a tombstone in place of a corrupt one.  A record the chaos plan
    // kept the scan from reading stays on disk untouched and is reported;
    // the calm incarnation below must answer it.
    for (const std::uint64_t id : parked) {
      ids2.insert(id);  // survivors keep their ids: new ids must differ
      if (service.status(id).has_value())
        admitted2.emplace(id, -1);
      else
        unread.push_back(id);
    }
    EXPECT_LE(static_cast<std::int64_t>(unread.size()),
              service.stats().fsck_findings)
        << "jobs disappeared without a scan finding";

    run_slice(service, 140, kScenarios, &admitted2, &ids2);
    ids2_new = ids2.size() - parked.size();

    // Calm the environment and drain everything to terminal.
    iofault::disarm();
    for (const auto& [id, scenario] : admitted2)
      wait_terminal(service, id, 120000);
    EXPECT_TRUE(audit(service, admitted2).empty());

    // Bit-identical cached answers: resubmitting a completed fault-free
    // scenario verbatim serves the original bytes.
    int verified_cached = 0;
    for (const auto& [id, scenario] : admitted2) {
      if (verified_cached >= 3) break;
      if (scenario < 0) continue;
      const ChaosScenario& s = plan[static_cast<std::size_t>(scenario)];
      if (s.fault_crash != 0 || s.fault_resource != 0 || s.nonce_resubmit)
        continue;
      const auto status = service.status(id);
      if (!status.has_value() || status->outcome != JobOutcome::Ok) continue;
      const std::string original = *service.result_body(id);
      const SubmitOutcome re = service.submit(request_for(s));
      ASSERT_TRUE(re.admitted);
      EXPECT_TRUE(re.cached) << "scenario " << scenario;
      EXPECT_EQ(*service.result_body(re.id), original)
          << "scenario " << scenario << " not bit-identical";
      ++verified_cached;
    }
    EXPECT_GT(verified_cached, 0);

    service.stop(true);
  }

  // --- corpus invariants across both incarnations
  // The campaign really exercised the mixed fates it was built from.
  EXPECT_GT(static_cast<int>(ids1.size() + ids2_new), 150);
  EXPECT_GT(duplicates, 0);
  EXPECT_EQ(busy_gave_up, 0) << "honouring retry_after_ms did not converge";

  // No queued record survives a calm restart and drain.  Records stay
  // queued when a job was still parked, when its terminal answer could
  // not be persisted under the faults, or when the scan could not read
  // them; a third, calm incarnation re-admits every one, answers every
  // id, and drains them.  Only terminal records and quarantined evidence
  // may remain.
  const auto queued_records = [&] {
    std::vector<std::uint64_t> queued;
    DIR* d = ::opendir((spool.path + "/jobs").c_str());
    EXPECT_NE(d, nullptr);
    if (d == nullptr) return queued;
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() <= 4 || name.substr(name.size() - 4) != ".job") continue;
      try {
        (void)diskfmt::read_framed_file(spool.path + "/jobs/" + name,
                                        kSpoolJobMagic, kSpoolJobVersion);
        queued.push_back(std::strtoull(name.c_str(), nullptr, 10));
      } catch (const Error&) {
        // terminal (CRES) or corrupt: not owed an execution
      }
    }
    ::closedir(d);
    return queued;
  };
  const std::vector<std::uint64_t> owed = queued_records();
  {
    Service service(base);  // chaos_seed = 0: a calm environment
    EXPECT_EQ(service.recovered_jobs(), static_cast<int>(owed.size()));
    for (const std::uint64_t id : unread)
      ASSERT_TRUE(service.status(id).has_value()) << "job " << id << " lost";
    for (const std::uint64_t id : owed) wait_terminal(service, id, 120000);
    for (const std::uint64_t id : unread) wait_terminal(service, id, 120000);
    service.stop(true);
  }
  EXPECT_TRUE(queued_records().empty())
      << "a queued record survived a calm restart and drain";
}

// --- daemon + client over the socket ---------------------------------------

TEST(ServeDaemonTest, SocketEndToEnd) {
  TempSpool spool("serve_test_daemon");
  const std::string socket_path =
      spool.path + ".sock";  // short path (AF_UNIX limit)
  DaemonConfig cfg;
  cfg.socket_path = socket_path;
  cfg.service = fast_config(spool.path);
  Daemon daemon(cfg);
  std::thread runner([&daemon] { daemon.run(); });

  Client client(socket_path);
  ASSERT_TRUE(client.ping());

  // Submit-and-wait round trip.
  SubmitRequest submit = make_request(quickstart_text(), JobKind::Run);
  Request wire = make_submit_request(submit);
  wire.fields["wait_ms"] = "60000";
  const Response done = client.call(wire);
  ASSERT_TRUE(done.ok) << done.body;
  EXPECT_EQ(json_field(done.body, "outcome"), "ok");
  const std::string id = json_field(done.body, "id");
  ASSERT_FALSE(id.empty());

  // STATUS/RESULT agree with the submit reply.
  Request status_req;
  status_req.verb = "STATUS";
  status_req.fields["id"] = id;
  const Response status = client.call(status_req);
  ASSERT_TRUE(status.ok);
  EXPECT_EQ(json_field(status.body, "state"), "done");

  Request result_req;
  result_req.verb = "RESULT";
  result_req.fields["id"] = id;
  const Response result = client.call(result_req);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(json_field(result.body, "outcome"), "ok");

  // Unknown ids and verbs earn typed errors, not hangs or disconnects.
  Request missing;
  missing.verb = "RESULT";
  missing.fields["id"] = "999999";
  const Response not_found = client.call(missing);
  EXPECT_FALSE(not_found.ok);
  EXPECT_EQ(not_found.code, "not-found");

  Request bogus;
  bogus.verb = "FROBNICATE";
  const Response bad = client.call(bogus);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, "bad-request");

  // Cached resubmission over the wire is byte-identical.
  const Response cached = client.call(wire);
  ASSERT_TRUE(cached.ok);
  EXPECT_EQ(json_field(cached.body, "cached"), "true");
  EXPECT_EQ(json_field(cached.body, "result"),
            json_field(done.body, "result"));

  Request shutdown;
  shutdown.verb = "SHUTDOWN";
  const Response stopping = client.call(shutdown);
  EXPECT_TRUE(stopping.ok);
  runner.join();
  EXPECT_FALSE(client.ping());  // socket gone after shutdown
}

TEST(ServeDaemonTest, SecondDaemonOnLiveSocketRefused) {
  TempSpool spool("serve_test_daemon2");
  DaemonConfig cfg;
  cfg.socket_path = spool.path + ".sock";
  cfg.service = fast_config(spool.path);
  Daemon daemon(cfg);
  std::thread runner([&daemon] { daemon.run(); });
  Client client(cfg.socket_path);
  ASSERT_TRUE(client.ping());

  DaemonConfig rival = cfg;
  rival.service.spool_dir = spool.path + ".rival";
  EXPECT_THROW({ Daemon second(rival); }, Error);
  std::system(("rm -rf " + rival.service.spool_dir).c_str());

  daemon.request_shutdown(true);
  runner.join();

  // A stale socket file from a dead daemon is reclaimed, not fatal.
  std::ofstream(cfg.socket_path) << "";
  Daemon reborn(cfg);
  std::thread runner2([&reborn] { reborn.run(); });
  EXPECT_TRUE(client.ping());
  reborn.request_shutdown(true);
  runner2.join();
}

}  // namespace
}  // namespace crusade::serve
