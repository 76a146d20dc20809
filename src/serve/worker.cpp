#include "serve/worker.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <new>
#include <sstream>

#include "analyze/analyzer.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/serialize.hpp"
#include "core/crusade.hpp"
#include "core/report.hpp"
#include "ft/crusade_ft.hpp"
#include "graph/spec_io.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "serve/durable.hpp"
#include "util/disk_format.hpp"
#include "util/error.hpp"
#include "util/json_writer.hpp"
#include "util/run_control.hpp"

namespace crusade::serve {

namespace {

/// The worker's own controller: SIGTERM from the supervisor (cancellation,
/// watchdog, daemon hard stop) becomes a cooperative stop so the search
/// wraps up and reports its best-so-far architecture instead of dying.
RunController* g_worker_control = nullptr;

extern "C" void worker_stop_signal(int) {
  if (g_worker_control != nullptr) g_worker_control->request_stop();
}

extern "C" void worker_ignore_signal(int) {}

/// Telemetry for this attempt, set once by run_worker_attempt so the
/// [[noreturn]] finish() paths deep in the pipeline can flush the worker's
/// spans without threading telemetry through every signature.
WorkerTelemetry g_telemetry;
int g_trace_attempt = 0;

/// Writes this attempt's row of the job trace, then unlinks the flight
/// file: a finished attempt needs no crash evidence, and the mapping
/// outlives the name.  Best-effort: a full disk or unwritable spool must
/// never change the job's fate, so every failure is swallowed, and the
/// flight file stays when the row did not land.
void flush_worker_trace() {
  if (g_telemetry.trace_path.empty()) return;
  try {
    const long long row = 1000 + g_trace_attempt;
    tools::JsonWriter w;
    w.begin_array()
        .begin_object()
        .key("name").value("process_name")
        .key("ph").value("M")
        .key("pid").value(row)
        .key("tid").value(0)
        .key("args").begin_object()
        .key("name").value("worker attempt " +
                           std::to_string(g_trace_attempt) + " (pid " +
                           std::to_string(::getpid()) + ")")
        .end_object()
        .end_object();
    obs::append_trace_events(w, row, g_telemetry.submit_steady_ns);
    w.end_array();
    diskfmt::write_framed_file(g_telemetry.trace_path, kWorkerTraceMagic,
                               kWorkerTraceVersion, w.str());
  } catch (...) {
    return;
  }
  if (!g_telemetry.flight_path.empty())
    (void)::unlink(g_telemetry.flight_path.c_str());
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

[[noreturn]] void finish(const std::string& result_path,
                         const std::string& body, int exit_code) {
  // Trace before result: once the result file exists the supervisor may
  // classify the attempt, and the trace must already be there to merge.
  flush_worker_trace();
  // A full spool disk must not look like a worker crash loop: the typed
  // DiskFullError is reported as a bad-spool body-less exit the supervisor
  // maps to failed-honest.  The CRSB frame means a torn write (SIGKILL
  // mid-rename, injected fault) fails the supervisor's CRC check instead
  // of classifying half a body.
  try {
    diskfmt::write_framed_file(result_path, kResultBlobMagic,
                               kResultBlobVersion, body);
  } catch (const Error&) {
    ::_exit(kWorkerException);
  }
  ::_exit(exit_code);
}

/// Per-attempt resource governance (DESIGN.md §16).  Best-effort by design:
/// a kernel that refuses a limit (container policy, already-lower hard cap)
/// must not turn into a job failure, so errors are swallowed — the worker
/// simply runs ungoverned, exactly as if the limit were 0.
void apply_limits(const WorkerLimits& limits) {
  const auto set = [](int resource, rlim_t soft, rlim_t hard) {
    struct rlimit rl;
    rl.rlim_cur = soft;
    rl.rlim_max = hard;
    (void)::setrlimit(resource, &rl);
  };
  if (limits.address_space_mb > 0) {
    const rlim_t bytes =
        static_cast<rlim_t>(limits.address_space_mb) << 20;
    set(RLIMIT_AS, bytes, bytes);
  }
  if (limits.cpu_seconds > 0) {
    // Soft limit delivers SIGXCPU (classifiable); the hard limit two
    // seconds later delivers SIGKILL if the worker somehow survives it.
    const rlim_t soft = static_cast<rlim_t>(limits.cpu_seconds);
    set(RLIMIT_CPU, soft, soft + 2);
  }
  if (limits.file_size_mb > 0) {
    const rlim_t bytes = static_cast<rlim_t>(limits.file_size_mb) << 20;
    set(RLIMIT_FSIZE, bytes, bytes);
  }
}

std::string error_body(JobKind kind, const char* klass,
                       const std::string& message, int attempt) {
  tools::JsonWriter w;
  w.begin_object()
      .key("kind").value(to_string(kind))
      .key("error").value(message)
      .key("error_class").value(klass)
      .key("attempt").value(attempt)
      .end_object();
  return w.str();
}

[[noreturn]] void run_lint(const SubmitRequest& request, int attempt,
                           const std::string& result_path) {
  // Mirrors `crusade lint`: parse without the validation pass so every
  // problem is reported with line anchors; an unparseable spec is itself a
  // complete, honest lint answer (A000), never a bad-spec rejection.
  AnalysisReport report;
  SpecSourceMap source;
  const ResourceLibrary lib = telecom_1999();
  try {
    SpecReadOptions read_options;
    read_options.source_map = &source;
    read_options.validate = false;
    std::istringstream in(request.spec_text);
    const Specification spec = read_specification(in, lib, read_options);
    AnalyzeOptions analyze_options;
    analyze_options.source = &source;
    report = analyze_specification(spec, lib, analyze_options);
  } catch (const std::bad_alloc&) {
    ::_exit(kWorkerResource);
  } catch (const Error& e) {
    report.diagnostics.push_back(parse_error_diagnostic(e));
  }
  const std::string report_json = report.to_json();
  tools::JsonWriter w;
  w.begin_object()
      .key("kind").value("lint")
      .key("clean").value(!report.has_errors() && !report.has_warnings())
      .key("errors").value(report.count(Severity::Error))
      .key("warnings").value(report.count(Severity::Warning))
      .key("notes").value(report.count(Severity::Note))
      .key("signature").value(hex64(ckpt::fnv1a(report_json)))
      .key("attempt").value(attempt)
      .key("report").raw(report_json)
      .end_object();
  finish(result_path, w.str(), kWorkerDone);
}

[[noreturn]] void run_synthesis(const SubmitRequest& request, int attempt,
                                const std::string& result_path,
                                const std::string& ckpt_path,
                                long deadline_ms,
                                std::int64_t checkpoint_every,
                                RunController& control,
                                const WorkerLimits& limits) {
  const ResourceLibrary lib = telecom_1999();
  Specification spec;
  try {
    std::istringstream in(request.spec_text);
    spec = read_specification(in, lib);
  } catch (const Error& e) {
    finish(result_path,
           error_body(request.kind, "bad-spec", e.what(), attempt),
           kWorkerBadSpec);
  }

  CrusadeParams params;
  params.enable_reconfig = request.enable_reconfig;
  params.control = &control;
  params.checkpoint.path = ckpt_path;
  params.checkpoint.every_evals = checkpoint_every;
  if (limits.reduced_budget) {
    // Resource-exhausted retry: a previous attempt died on a governed
    // limit, so this one trades answer quality for survival — cap the
    // schedule-evaluation and merge budgets at values that finish in a
    // fraction of the default search.  The supervisor surfaces the result
    // degraded-honest and never caches it.
    params.max_iterations = 4096;
    params.merge_budget = 64;
    obs::count("serve.worker.reduced_budget");
  }
  if (request.fault_crash_attempts >= attempt) {
    // Injected mid-job crash for the supervision tests: die right after the
    // first on-trajectory checkpoint lands on disk, so the retry has real
    // progress to resume from.
    params.checkpoint.on_write = [](const ckpt::Checkpoint&) {
      ::_exit(kWorkerInjectedCrash);
    };
    params.checkpoint.every_evals = 1;
  }

  // A previous attempt's checkpoint is this attempt's head start.  Anything
  // wrong with it — truncated by the crash window, foreign fingerprint —
  // means starting fresh, never resuming a lie.
  ckpt::Checkpoint resume_from;
  const std::uint64_t spec_hash = Crusade::fingerprint(spec, lib, params);
  if (std::ifstream(ckpt_path).good()) {
    try {
      resume_from = ckpt::load_checkpoint(ckpt_path, lib);
      ckpt::check_spec_hash(resume_from, spec_hash);
      params.resume = &resume_from;
    } catch (const Error&) {
      params.resume = nullptr;
    }
  }

  if (deadline_ms > 0) control.set_deadline_ms(deadline_ms);

  CrusadeResult r;
  try {
    r = Crusade(spec, lib, params).run();
  } catch (const std::bad_alloc&) {
    // RLIMIT_AS exhausted: building an error body would also allocate, so
    // report through the body-less resource exit code.
    ::_exit(kWorkerResource);
  } catch (const Error&) {
    ::_exit(kWorkerException);  // unexpected: crash-isolated, retried
  }

  tools::JsonWriter w;
  w.begin_object()
      .key("kind").value(to_string(request.kind))
      .key("feasible").value(r.feasible)
      .key("stopped").value(r.stopped)
      .key("resumed").value(r.resumed)
      .key("validation_clean").value(r.validation.clean())
      .key("violations").value(static_cast<int>(r.validation.violations.size()))
      .key("arch_hash").value(arch_fingerprint(r.arch))
      .key("signature").value(result_signature(r))
      .key("cost").value(r.cost.total(), 2)
      .key("power_mw").value(r.power_mw, 2)
      .key("pes").value(r.pe_count)
      .key("links").value(r.link_count)
      .key("modes").value(r.mode_count)
      .key("attempt").value(attempt)
      .key("stats").raw(r.stats.to_json())
      .end_object();
  finish(result_path, w.str(), r.stopped ? kWorkerTruncated : kWorkerDone);
}

[[noreturn]] void run_survive(const SubmitRequest& request, int attempt,
                              const std::string& result_path,
                              long deadline_ms, RunController& control,
                              const WorkerLimits& limits) {
  const ResourceLibrary lib = telecom_1999();
  Specification spec;
  try {
    std::istringstream in(request.spec_text);
    spec = read_specification(in, lib);
  } catch (const Error& e) {
    finish(result_path,
           error_body(request.kind, "bad-spec", e.what(), attempt),
           kWorkerBadSpec);
  }
  CrusadeFtParams params;
  params.base.enable_reconfig = request.enable_reconfig;
  params.base.control = &control;
  params.survive_check = true;
  params.survive_seeds = request.survive_seeds;
  if (limits.reduced_budget) {
    params.base.max_iterations = 4096;
    params.base.merge_budget = 64;
    params.survive_seeds = std::max(1, request.survive_seeds / 2);
    obs::count("serve.worker.reduced_budget");
  }
  if (deadline_ms > 0) control.set_deadline_ms(deadline_ms);

  CrusadeFtResult r;
  try {
    r = CrusadeFt(spec, lib, params).run();
  } catch (const std::bad_alloc&) {
    ::_exit(kWorkerResource);
  } catch (const Error&) {
    ::_exit(kWorkerException);
  }
  const CampaignResult& c = r.survival;
  ckpt::BinWriter sig;
  ckpt::write_architecture(sig, r.synthesis.arch);
  sig.i32(c.scenarios);
  sig.i32(c.masked);
  sig.i32(c.degraded);
  sig.i32(c.ft_lies);
  tools::JsonWriter w;
  w.begin_object()
      .key("kind").value("survive")
      .key("feasible").value(r.synthesis.feasible)
      .key("stopped").value(r.synthesis.stopped)
      .key("clean").value(r.synthesis.feasible && c.clean())
      .key("scenarios").value(c.scenarios)
      .key("masked").value(c.masked)
      .key("degraded_honest").value(c.degraded)
      .key("ft_lies").value(c.ft_lies)
      .key("signature").value(hex64(ckpt::fnv1a(sig.bytes())))
      .key("attempt").value(attempt)
      .end_object();
  finish(result_path, w.str(),
         r.synthesis.stopped ? kWorkerTruncated : kWorkerDone);
}

}  // namespace

void run_worker_attempt(const SubmitRequest& request, int attempt,
                        const std::string& result_path,
                        const std::string& ckpt_path, long deadline_ms,
                        std::int64_t checkpoint_every,
                        const WorkerTelemetry& telemetry,
                        const WorkerLimits& limits) {
  // The child inherited the daemon's signal dispositions and StopHub state;
  // both belong to the parent.  Re-route SIGTERM/SIGINT to THIS job's
  // controller so a cancellation stops exactly this search.
  StopHub::instance().reset();
  static RunController control;
  g_worker_control = &control;
  std::signal(SIGTERM, worker_stop_signal);
  std::signal(SIGINT, worker_stop_signal);

  // Re-enable obs past the atfork reinit (the child handler swapped in a
  // fresh, empty registry/sink): from here this worker records its own
  // spans and counters, flushed to telemetry.trace_path on every finish
  // path and mirrored into the flight recorder so a SIGKILL still leaves
  // evidence.
  if (!telemetry.trace_path.empty() || !telemetry.flight_path.empty()) {
    obs::reset();
    obs::set_enabled(true);
    if (!telemetry.flight_path.empty())
      obs::arm_flight_recorder(telemetry.flight_path);
    g_telemetry = telemetry;
    g_trace_attempt = attempt;
  }
  obs::count("serve.worker.attempts");
  // Deliberately never closed (every exit below is _exit): it stays at the
  // bottom of the flight recorder's stack, marking this attempt as
  // in-progress, which is exactly the evidence the supervisor wants from a
  // crashed worker.
  obs::Span attempt_span("serve.worker.attempt");

  apply_limits(limits);

  if (request.fault_resource_attempts >= attempt) {
    // Injected resource-limit death: the real RLIMIT_AS path is
    // environment-dependent (sanitizer shadow memory reserves terabytes of
    // address space), so tests drive the classification through the same
    // signal a tripped RLIMIT_CPU would deliver.
    OBS_SPAN("serve.worker.fault_resource");
    ::raise(SIGXCPU);
    ::_exit(kWorkerResource);  // SIGXCPU ignored/blocked: same class
  }

  if (request.fault_hang_attempts >= attempt) {
    // Injected stuck worker: ignore the cooperative SIGTERM so only the
    // supervisor's SIGKILL escalation can clear the slot — exactly the
    // failure the watchdog exists for.
    std::signal(SIGTERM, worker_ignore_signal);
    std::signal(SIGINT, worker_ignore_signal);
    OBS_SPAN("serve.worker.hang");
    while (true) ::usleep(50 * 1000);
  }

  switch (request.kind) {
    case JobKind::Lint:
      run_lint(request, attempt, result_path);
    case JobKind::Survive:
      run_survive(request, attempt, result_path, deadline_ms, control,
                  limits);
    case JobKind::Run:
    case JobKind::Validate:
      run_synthesis(request, attempt, result_path, ckpt_path, deadline_ms,
                    checkpoint_every, control, limits);
  }
  ::_exit(kWorkerException);  // unreachable: every kind above is noreturn
}

}  // namespace crusade::serve
