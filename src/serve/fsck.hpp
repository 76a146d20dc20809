// Boot-time spool scan and scrub (DESIGN.md §17.3).
//
// scan_spool reads every file under the spool once.  It verifies each job
// record (serve/durable.hpp) and cache entry by frame, CRC and decode,
// repairs what can be repaired, and returns both a typed report and
// everything it verified, which Service installs without reading the spool
// a second time.  Five findings remain possible:
//
//   corrupt-spool-entry  jobs/<id>.job fails frame/CRC/decode: its bytes
//                        are kept as <id>.job.corrupt evidence and a
//                        failed-honest fsck-lost-job tombstone replaces it.
//                        If either write fails the record stays in place
//                        for the next scrub.
//   unreadable-file      a job record or cache entry still unreadable after
//                        retries: left in place and reported, never
//                        quarantined — a transient EIO must not destroy an
//                        answer
//   corrupt-cache-entry  cache entry fails frame/CRC: removed (advisory)
//   temp-debris          atomic-write temp leftovers: removed
//   ledger-drift         bytes no known artifact explains: charged to the
//                        recount and flagged
//
// Every repair goes through the iofault seam, so the scan itself is
// chaos-survivable: an injected ENOSPC/EIO/torn rename turns the item's
// action into "repair-failed: ..." and the scan continues — it never
// throws.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/durable.hpp"

namespace crusade::serve {

enum class FsckFinding : std::uint8_t {
  CorruptSpoolEntry,
  UnreadableFile,
  CorruptCacheEntry,
  TempDebris,
  LedgerDrift,
};
inline constexpr unsigned kFsckFindingCount = 5;
const char* to_string(FsckFinding finding);

struct FsckItem {
  FsckFinding finding = FsckFinding::CorruptSpoolEntry;
  std::uint64_t id = 0;    ///< job id when the finding names one, else 0
  std::string path;        ///< file the finding is about
  std::string action;      ///< "quarantined", "removed", "charged",
                           ///< "left in place: <why>", "detected"
                           ///< (repair=false), or "repair-failed: <why>"
  long long bytes = 0;     ///< size of the file involved (forensics)
};

struct FsckReport {
  std::vector<FsckItem> items;
  /// Actual bytes on disk under the spool after repairs — the authoritative
  /// recount the service's disk ledger is reset to.
  long long disk_bytes = 0;
  int repairs = 0;           ///< actions that changed the world and stuck
  int quarantines = 0;       ///< corrupt records kept as evidence + tombstoned
  int repair_failures = 0;   ///< repairs the (possibly chaos-armed) fs refused
  int count(FsckFinding finding) const;
  bool clean() const { return items.empty(); }
  std::string to_json() const;
};

/// What a scan verified, in file-name order, ready for Service to install.
struct SpoolScan {
  FsckReport report;
  /// CJOB records: the jobs still owed an execution.
  std::vector<std::pair<std::uint64_t, SubmitRequest>> queued;
  /// CRES records, plus a tombstone for every corrupt record (served from
  /// memory even when writing it failed).
  std::vector<DurableResult> terminal;
  struct CachedAnswer {
    std::uint64_t key = 0;
    long long cost_us = 0;  ///< CPU time the original job spent
    std::string body;
  };
  std::vector<CachedAnswer> cache;
  /// Every regular file left under the spool and its size: the disk ledger.
  std::vector<std::pair<std::string, long long>> files;
  /// Highest job id any file name under jobs/ carries: the next
  /// incarnation issues ids above it, so an unreadable record's id is
  /// never reused.
  std::uint64_t max_id = 0;
};

/// Scans and scrubs `spool_dir` (created if missing).  repair=false
/// classifies only — every item's action is "detected" and nothing on disk
/// changes.  Never throws; an unusable spool directory yields an empty scan.
SpoolScan scan_spool(const std::string& spool_dir, bool repair);

/// scan_spool's report alone (crusaded --fsck).
FsckReport fsck_spool(const std::string& spool_dir, bool repair);

}  // namespace crusade::serve
