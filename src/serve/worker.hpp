// Child-side job execution for the crusaded service (DESIGN.md §13).
//
// The supervisor (serve/service.cpp) runs every job attempt in a forked
// worker process: crash isolation is real — a worker that throws, corrupts
// itself, or hangs dies alone, and the supervisor retries the job from its
// last checkpoint.  This header is the code that runs INSIDE the child: it
// parses the spec, runs the requested pipeline with the per-job
// RunController (deadline armed, SIGTERM routed to a cooperative stop so a
// cancelled job returns its best-so-far validator-checked architecture),
// writes the result JSON atomically into the spool, and reports its fate
// through the exit code.
#pragma once

#include <cstdint>
#include <string>

#include "serve/protocol.hpp"

namespace crusade::serve {

/// Worker exit codes — the supervisor's classification contract.  Anything
/// else (signals included) is a crash and triggers a retry.
enum WorkerExit : int {
  /// Result body written; canonical complete answer (feasible or an honest
  /// infeasibility verdict).  Cacheable.
  kWorkerDone = 0,
  /// Result body written; the search was truncated by the deadline or a
  /// cancellation SIGTERM and the body carries the best-so-far
  /// architecture.  Not cacheable (it is not the canonical answer).
  kWorkerTruncated = 3,
  /// Result body written; the specification itself was rejected (parse or
  /// validation error).  Deterministic — never retried.
  kWorkerBadSpec = 4,
  /// An unexpected exception escaped the pipeline; no body.  Retryable.
  kWorkerException = 70,
  /// The attempt ran out of a governed resource (std::bad_alloc under
  /// RLIMIT_AS); no body.  The supervisor classifies this — like a SIGXCPU
  /// or SIGXFSZ death — as resource-exhausted: retried once at a reduced
  /// search budget, never charged to the crash budget.
  kWorkerResource = 71,
  /// Injected fault (SubmitRequest::fault_crash_attempts) fired.
  kWorkerInjectedCrash = 99,
};

/// Per-attempt telemetry destinations (DESIGN.md §15).  Both are optional:
/// an empty path disables that channel, and no telemetry failure ever
/// changes a job's fate.
struct WorkerTelemetry {
  /// This attempt's row of the job's merged Chrome trace: one JSON array
  /// (the row's process_name event, then its spans) in a CTRC frame,
  /// written just before the result body.
  std::string trace_path;
  /// mmap'd flight-recorder state (obs/flight.hpp) armed before any real
  /// work; survives SIGKILL and carries the crash evidence.  Unlinked once
  /// the trace has landed.
  std::string flight_path;
  /// Steady-clock instant of the job's admission, which the row's
  /// timestamps are measured from.
  std::int64_t submit_steady_ns = 0;
};

/// Per-attempt resource governance, applied with setrlimit before any real
/// work (0 = unlimited).  A worker that trips a limit dies with SIGXCPU /
/// SIGXFSZ / kWorkerResource and the supervisor classifies the death as
/// resource-exhausted.
struct WorkerLimits {
  long address_space_mb = 0;  ///< RLIMIT_AS, mebibytes
  long cpu_seconds = 0;       ///< RLIMIT_CPU (soft; hard = soft + 2)
  long file_size_mb = 0;      ///< RLIMIT_FSIZE, mebibytes
  /// Resource-exhausted retry: cap the search budget (allocation
  /// evaluations, merge reschedules, survive seeds) so the retry finishes
  /// inside the limit that killed the previous attempt.  The result is
  /// surfaced degraded-honest and never cached.
  bool reduced_budget = false;
};

/// Runs one attempt of `request` to completion in the current process and
/// _exit()s with a WorkerExit code.  `attempt` is 1-based; `deadline_ms`
/// is the remaining end-to-end budget (0 = none).  Run/validate jobs
/// checkpoint into `ckpt_path` every `checkpoint_every` evaluations and
/// resume from it when a loadable fingerprint-matching checkpoint is
/// already there (a previous attempt's progress).  The result body is
/// written atomically to `result_path` before exiting.
[[noreturn]] void run_worker_attempt(const SubmitRequest& request,
                                     int attempt,
                                     const std::string& result_path,
                                     const std::string& ckpt_path,
                                     long deadline_ms,
                                     std::int64_t checkpoint_every,
                                     const WorkerTelemetry& telemetry,
                                     const WorkerLimits& limits = {});

}  // namespace crusade::serve
