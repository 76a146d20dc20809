// Crash-safe checkpoint/recovery for the co-synthesis search (DESIGN.md
// §11).
//
// A checkpoint captures a state the uninterrupted search passes through —
// the committed architecture after a whole-cluster allocation step, or the
// merge loop's state at a pass boundary — plus the accumulated RunStats and
// the fingerprint of the (specification, parameters) pair it belongs to.
// Because the search is deterministic, resuming from any checkpoint
// reproduces the bit-identical final architecture of a run that was never
// interrupted; the soak harness (`crusade soak`, tools/soak.sh) SIGKILLs
// synthesis processes at random points and asserts exactly that.
//
// File format: one diskfmt frame (util/disk_format.hpp) with magic "CKPT"
// around a payload of serialize.hpp primitives.
//
// Files are written with atomic_write_file (temp + fsync + rename), so a
// crash at any instant leaves either the previous complete checkpoint or
// the new complete one.  The loader fails loudly — typed Error, never a
// crash and never a silent restart — on truncation, CRC mismatch,
// unsupported version, or a specification/parameter fingerprint that does
// not match the resuming run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/allocation.hpp"
#include "obs/runstats.hpp"
#include "reconfig/merge.hpp"

namespace crusade::ckpt {

/// Bumped whenever the payload layout changes; old files are rejected with
/// a version error rather than misread.  Version 2 embeds the allocation
/// state as one AllocState and carries the evaluation tally only in
/// `stats`; version 3 drops the merge report's always-zero
/// `rejected_apply`.
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Which phase of the pipeline the checkpoint state belongs to.
enum class Stage : std::uint8_t {
  /// Mid-allocation: `alloc.arch` holds the committed placements of the
  /// clusters flagged in `alloc.placed`; allocation resumes at the next
  /// unplaced cluster.
  Allocation = 0,
  /// Allocation (incl. repair and evacuation) is complete; `merge_report`
  /// records the merge passes finished so far and the loop resumes at pass
  /// `merge_report.passes`.
  Merge = 1,
  /// The merge loop ran to its natural end; resume skips straight to
  /// interface synthesis and the final phases.
  MergeDone = 2,
};

const char* to_string(Stage stage);

struct Checkpoint {
  Stage stage = Stage::Allocation;
  /// Fingerprint of the specification text and the search-shaping
  /// parameters (Crusade::fingerprint); a checkpoint only resumes a run
  /// that would have produced it.
  std::uint64_t spec_hash = 0;
  /// Allocation search state: mid-search at the Allocation stage; past it,
  /// the committed architecture with every cluster placed (the acceptance
  /// bar is then unused).
  AllocState alloc;
  /// Merge-loop progress (Merge/MergeDone stages; default elsewhere).
  MergeReport merge_report;
  /// Accumulated pre-crash statistics: phase wall times and counters as of
  /// this state (the merge loop's counters stay in `merge_report` until the
  /// loop ends).  A resumed run continues these tallies, so its final
  /// RunStats covers the whole search and its evaluation budget continues.
  RunStats stats;
};

/// Serializes a checkpoint to the full file byte string (header + payload).
std::string encode_checkpoint(const Checkpoint& c);

/// Parses checkpoint file bytes.  Throws Error on truncation, bad magic,
/// any version but kCheckpointVersion, CRC mismatch, or trailing garbage.
Checkpoint decode_checkpoint(const std::string& bytes,
                             const ResourceLibrary& lib);

/// Writes the checkpoint crash-safely (atomic_write_file).
void save_checkpoint(const std::string& path, const Checkpoint& c);

/// Reads and validates a checkpoint file.  Throws Error with a diagnosis
/// (missing file, truncated, corrupt, version/format mismatch).
Checkpoint load_checkpoint(const std::string& path,
                           const ResourceLibrary& lib);

/// Throws Error unless the checkpoint's fingerprint matches `expected` —
/// resuming under a different specification or parameters would silently
/// produce an architecture belonging to neither run.
void check_spec_hash(const Checkpoint& c, std::uint64_t expected);

}  // namespace crusade::ckpt
