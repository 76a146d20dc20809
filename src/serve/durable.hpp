// The durable job record of crusaded (DESIGN.md §17).
//
// Every job the service admits owns exactly one durable record,
// <spool>/jobs/<id>.job, and the record's frame magic says where the job is
// in its lifecycle:
//
//  * "CJOB" — queued.  Admission writes the original SUBMIT wire frame plus
//    the assigned id before the job is ever visible to a worker.
//  * "CRES" — terminal.  finalize replaces the queued request, atomically,
//    with the job's whole answer — outcome, result body, detail, retry
//    history with crash forensics — serialized with the deterministic ckpt
//    BinWriter, before the terminal state is published in memory.
//
// A restart therefore re-admits every CJOB record and answers every CRES
// record bit-identically, failed-honest and degraded-honest outcomes
// included.  The boot-time scan (serve/fsck.hpp) is the only reader.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/service.hpp"

namespace crusade::serve {

// --- on-disk format magics (all framed via util/disk_format.hpp) ---------
inline constexpr char kSpoolJobMagic[5] = "CJOB";
inline constexpr std::uint32_t kSpoolJobVersion = 1;
inline constexpr char kResultBlobMagic[5] = "CRSB";
inline constexpr std::uint32_t kResultBlobVersion = 1;
inline constexpr char kCacheEntryMagic[5] = "CCHE";
inline constexpr std::uint32_t kCacheEntryVersion = 1;
inline constexpr char kDurableResultMagic[5] = "CRES";
inline constexpr std::uint32_t kDurableResultVersion = 1;
/// A worker attempt's row of its job's trace: a JSON array of Chrome
/// events.  Version 1 was a line format, which job_trace_json skips.
inline constexpr char kWorkerTraceMagic[5] = "CTRC";
inline constexpr std::uint32_t kWorkerTraceVersion = 2;
/// Quarantine evidence: the exact bytes of a corrupt job record, framed so
/// the evidence file is itself self-describing.
inline constexpr char kEvidenceMagic[5] = "CQRN";
inline constexpr std::uint32_t kEvidenceVersion = 1;

/// Everything status()/result_body() need to answer for a terminal job,
/// in a deterministic binary payload (framed "CRES" on disk).
struct DurableResult {
  std::uint64_t id = 0;
  JobKind kind = JobKind::Run;
  JobOutcome outcome = JobOutcome::None;
  int priority = 0;
  int attempts = 0;
  bool cached = false;
  int finish_seq = 0;
  long wait_ms = 0;
  long run_ms = 0;
  std::string detail;
  std::string body;
  std::vector<AttemptRecord> history;
};

/// Deterministic payload bytes (the part under the "CRES" frame).
std::string encode_durable_result(const DurableResult& r);
/// Throws Error on truncation, trailing bytes, or out-of-range enums.
DurableResult decode_durable_result(const std::string& payload);

/// The JSON body of an answer that carries no result: the kind, the error
/// message, its class ("cancelled", "crash-budget", "fsck-lost-job", ...)
/// and the attempts spent.
std::string failure_body(JobKind kind, const char* klass,
                         const std::string& message, int attempts);

}  // namespace crusade::serve
