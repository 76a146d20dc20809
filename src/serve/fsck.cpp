#include "serve/fsck.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "ckpt/serialize.hpp"
#include "serve/protocol.hpp"
#include "util/atomic_file.hpp"
#include "util/disk_format.hpp"
#include "util/error.hpp"
#include "util/io_faults.hpp"
#include "util/json_writer.hpp"

namespace crusade::serve {

namespace {

/// Reads per file before it is reported unreadable: a transient EIO gets
/// this many chances, because quarantining a healthy record would destroy
/// an answer.
constexpr int kReadTries = 4;

std::vector<std::string> scan_dir(const std::string& path) {
  std::vector<std::string> names;
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return names;
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// "123.job" -> 123; 0 when the name does not start with a positive number.
std::uint64_t leading_id(const std::string& name) {
  if (name.empty() || name[0] < '0' || name[0] > '9') return 0;
  return std::strtoull(name.c_str(), nullptr, 10);
}

bool is_hex16_res(const std::string& name) {
  if (name.size() != 20 || name.substr(16) != ".res") return false;
  for (std::size_t i = 0; i < 16; ++i) {
    const char c = name[i];
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return false;
  }
  return true;
}

/// Files a whole jobs/<id>.job record as queued or terminal; false when the
/// bytes are not a record for `id`.
bool file_record(const std::string& raw, std::uint64_t id, SpoolScan* scan) {
  try {
    if (raw.compare(0, 4, kDurableResultMagic, 4) == 0) {
      DurableResult result = decode_durable_result(
          diskfmt::unframe(raw, kDurableResultMagic, kDurableResultVersion)
              .payload);
      if (result.id != id) return false;
      scan->terminal.push_back(std::move(result));
      return true;
    }
    const Request frame = decode_frame(
        diskfmt::unframe(raw, kSpoolJobMagic, kSpoolJobVersion).payload);
    if (frame.verb != "JOB" ||
        static_cast<std::uint64_t>(frame.get_long("id")) != id)
      return false;
    scan->queued.emplace_back(id, parse_submit_request(frame));
    return true;
  } catch (const Error&) {
    return false;
  }
}

/// The stand-in answer for a job whose record is corrupt.  The kind cannot
/// be read from corrupt bytes, so the tombstone keeps the default (run).
DurableResult lost_job_tombstone(std::uint64_t id) {
  DurableResult tomb;
  tomb.id = id;
  tomb.outcome = JobOutcome::FailedHonest;
  tomb.detail =
      "job record corrupt (torn write or bit rot); kept as .corrupt "
      "evidence, failed-honest tombstone written by fsck";
  tomb.body = failure_body(tomb.kind, "fsck-lost-job", tomb.detail, 0);
  return tomb;
}

/// Stateful helper so every verdict and repair is recorded uniformly and a
/// chaos-refused repair degrades to "repair-failed", never a throw.
class Scrub {
 public:
  Scrub(bool repair, SpoolScan* scan) : repair_(repair), scan_(scan) {}

  FsckItem& add(FsckFinding finding, std::uint64_t id,
                const std::string& path, long long bytes) {
    FsckItem item;
    item.finding = finding;
    item.id = id;
    item.path = path;
    item.bytes = bytes;
    item.action = "detected";
    scan_->report.items.push_back(std::move(item));
    return scan_->report.items.back();
  }

  void did_repair(FsckItem& item, const std::string& action) {
    item.action = action;
    ++scan_->report.repairs;
  }

  void failed(FsckItem& item, const std::string& what) {
    item.action = "repair-failed: " + what;
    ++scan_->report.repair_failures;
  }

  bool remove(FsckItem& item) {
    if (!repair_) return false;
    if (iofault::xunlink(item.path.c_str()) == 0 || errno == ENOENT) {
      did_repair(item, "removed");
      return true;
    }
    failed(item, "unlink: " + errno_message(errno));
    return false;
  }

  /// Adds the regular file at `path`, if there is one, to the ledger,
  /// flagged as drift when no artifact pattern explains it.
  void charge(const std::string& path, bool attributable) {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) return;
    const long long bytes = static_cast<long long>(st.st_size);
    scan_->files.emplace_back(path, bytes);
    scan_->report.disk_bytes += bytes;
    if (!attributable)
      add(FsckFinding::LedgerDrift, 0, path, bytes).action = "charged";
  }

  /// A file that is no record or cache entry: temp debris is removed,
  /// everything else is charged.
  void sweep(const std::string& dir, const std::string& name,
             bool attributable) {
    const std::string path = dir + "/" + name;
    struct stat st;
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) return;
    if (name.find(".tmp.") != std::string::npos) {
      FsckItem& item = add(FsckFinding::TempDebris, 0, path,
                           static_cast<long long>(st.st_size));
      if (!remove(item)) charge(path, true);
      return;
    }
    charge(path, attributable);
  }

  /// read_file with kReadTries chances; a file still unreadable is
  /// reported and left in place.
  bool read(const std::string& path, std::uint64_t id, std::string* raw) {
    std::string why;
    for (int i = 0; i < kReadTries; ++i) {
      try {
        *raw = read_file(path);
        return true;
      } catch (const Error& e) {
        why = e.what();
      }
    }
    struct stat st;
    const long long bytes =
        ::stat(path.c_str(), &st) == 0 ? static_cast<long long>(st.st_size)
                                       : 0;
    FsckItem& item = add(FsckFinding::UnreadableFile, id, path, bytes);
    item.action = (repair_ ? "left in place: " : "detected: ") + why;
    charge(path, true);
    return false;
  }

  /// One jobs/<id>.job record.  A corrupt one is copied to .corrupt
  /// evidence first and only then replaced by its tombstone, so a failure
  /// at either step leaves the record in place for the next scrub.  An
  /// existing evidence file is never overwritten (the listing charges it).
  void record(const std::string& path, std::uint64_t id) {
    std::string raw;
    if (!read(path, id, &raw)) return;
    if (file_record(raw, id, scan_)) {
      charge(path, true);
      return;
    }
    FsckItem& item = add(FsckFinding::CorruptSpoolEntry, id, path,
                         static_cast<long long>(raw.size()));
    const DurableResult tomb = lost_job_tombstone(id);
    scan_->terminal.push_back(tomb);
    if (repair_) {
      const std::string evidence = path + ".corrupt";
      struct stat st;
      const bool kept = ::stat(evidence.c_str(), &st) == 0;
      try {
        if (!kept)
          diskfmt::write_framed_file(evidence, kEvidenceMagic,
                                     kEvidenceVersion, raw);
        diskfmt::write_framed_file(path, kDurableResultMagic,
                                   kDurableResultVersion,
                                   encode_durable_result(tomb));
        did_repair(item, "quarantined");
        ++scan_->report.quarantines;
      } catch (const Error& e) {
        failed(item, e.what());
      }
      if (!kept) charge(evidence, true);
    }
    charge(path, true);
  }

 private:
  bool repair_;
  SpoolScan* scan_;
};

}  // namespace

const char* to_string(FsckFinding finding) {
  switch (finding) {
    case FsckFinding::CorruptSpoolEntry: return "corrupt-spool-entry";
    case FsckFinding::UnreadableFile: return "unreadable-file";
    case FsckFinding::CorruptCacheEntry: return "corrupt-cache-entry";
    case FsckFinding::TempDebris: return "temp-debris";
    case FsckFinding::LedgerDrift: return "ledger-drift";
  }
  return "?";
}

int FsckReport::count(FsckFinding finding) const {
  int n = 0;
  for (const FsckItem& item : items)
    if (item.finding == finding) ++n;
  return n;
}

std::string FsckReport::to_json() const {
  tools::JsonWriter w;
  w.begin_object()
      .key("clean").value(clean())
      .key("findings").value(static_cast<long long>(items.size()))
      .key("repairs").value(repairs)
      .key("quarantines").value(quarantines)
      .key("repair_failures").value(repair_failures)
      .key("disk_bytes").value(disk_bytes)
      .key("counts").begin_object();
  for (unsigned f = 0; f < kFsckFindingCount; ++f) {
    const FsckFinding finding = static_cast<FsckFinding>(f);
    const int n = count(finding);
    if (n > 0) w.key(to_string(finding)).value(n);
  }
  w.end_object().key("items").begin_array();
  for (const FsckItem& item : items) {
    w.begin_object()
        .key("finding").value(to_string(item.finding))
        .key("id").value(static_cast<unsigned long long>(item.id))
        .key("path").value(item.path)
        .key("action").value(item.action)
        .key("bytes").value(item.bytes)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

SpoolScan scan_spool(const std::string& spool_dir, bool repair) {
  SpoolScan scan;
  Scrub scrub(repair, &scan);
  const std::string jobs_dir = spool_dir + "/jobs";
  const std::string cache_dir = spool_dir + "/cache";
  for (const std::string& dir : {spool_dir, jobs_dir, cache_dir})
    (void)::mkdir(dir.c_str(), 0755);

  // Job records and their per-attempt scratch (.ckpt, .result, .trace.N,
  // .flight.N, .corrupt evidence) all carry the job id in their name.
  for (const std::string& name : scan_dir(jobs_dir)) {
    const std::uint64_t id = leading_id(name);
    scan.max_id = std::max(scan.max_id, id);
    if (id != 0 && ends_with(name, ".job"))
      scrub.record(jobs_dir + "/" + name, id);
    else
      scrub.sweep(jobs_dir, name, id != 0);
  }

  // The result cache is advisory: a corrupt entry is simply removed.
  for (const std::string& name : scan_dir(cache_dir)) {
    if (!is_hex16_res(name)) {
      scrub.sweep(cache_dir, name, false);
      continue;
    }
    const std::string path = cache_dir + "/" + name;
    std::string raw;
    if (!scrub.read(path, 0, &raw)) continue;
    try {
      const diskfmt::Unframed frame =
          diskfmt::unframe(raw, kCacheEntryMagic, kCacheEntryVersion);
      ckpt::BinReader r(frame.payload);
      SpoolScan::CachedAnswer entry;
      entry.key = std::strtoull(name.substr(0, 16).c_str(), nullptr, 16);
      entry.cost_us = static_cast<long long>(r.u64());
      entry.body = r.str();
      if (!r.at_end()) throw Error("cache entry: trailing bytes");
      scan.cache.push_back(std::move(entry));
      scrub.charge(path, true);
    } catch (const Error&) {
      FsckItem& item =
          scrub.add(FsckFinding::CorruptCacheEntry, 0, path,
                    static_cast<long long>(raw.size()));
      if (!scrub.remove(item)) scrub.charge(path, true);
    }
  }

  // Nothing belongs at the top level but the two directories.
  for (const std::string& name : scan_dir(spool_dir))
    scrub.sweep(spool_dir, name, false);
  return scan;
}

FsckReport fsck_spool(const std::string& spool_dir, bool repair) {
  return scan_spool(spool_dir, repair).report;
}

}  // namespace crusade::serve
