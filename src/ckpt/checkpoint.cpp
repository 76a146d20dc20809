#include "ckpt/checkpoint.hpp"

#include "ckpt/serialize.hpp"
#include "util/atomic_file.hpp"
#include "util/disk_format.hpp"
#include "util/error.hpp"

namespace crusade::ckpt {

namespace {

constexpr char kMagic[4] = {'C', 'K', 'P', 'T'};

/// Serializes the checkpoint payload (everything after the framed header).
std::string checkpoint_payload(const Checkpoint& c) {
  BinWriter payload;
  payload.u8(static_cast<std::uint8_t>(c.stage));
  payload.u64(c.spec_hash);
  write_architecture(payload, c.alloc.arch);
  payload.vec_u8(c.alloc.placed);
  payload.i32(c.alloc.clusters_with_misses);
  payload.i64(c.alloc.committed_tardiness);
  payload.i64(c.alloc.committed_estimate);
  payload.i32(c.alloc.committed_failures);
  write_merge_report(payload, c.merge_report);
  write_run_stats(payload, c.stats);
  return payload.bytes();
}

}  // namespace

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::Allocation: return "allocation";
    case Stage::Merge: return "merge";
    case Stage::MergeDone: return "merge-done";
  }
  return "?";
}

std::string encode_checkpoint(const Checkpoint& c) {
  return diskfmt::frame(kMagic, kCheckpointVersion, checkpoint_payload(c));
}

Checkpoint decode_checkpoint(const std::string& bytes,
                             const ResourceLibrary& lib) {
  const diskfmt::Unframed framed =
      diskfmt::unframe(bytes, kMagic, kCheckpointVersion);
  if (framed.version != kCheckpointVersion)
    throw Error("unsupported checkpoint version " +
                std::to_string(framed.version) + " (this build reads version " +
                std::to_string(kCheckpointVersion) + ")");
  BinReader r(framed.payload);
  Checkpoint c;
  const std::uint8_t stage = r.u8();
  if (stage > static_cast<std::uint8_t>(Stage::MergeDone))
    throw Error("checkpoint corrupt: unknown stage " + std::to_string(stage));
  c.stage = static_cast<Stage>(stage);
  c.spec_hash = r.u64();
  c.alloc.arch = read_architecture(r, lib);
  c.alloc.placed = r.vec_u8();
  c.alloc.clusters_with_misses = r.i32();
  c.alloc.committed_tardiness = r.i64();
  c.alloc.committed_estimate = r.i64();
  c.alloc.committed_failures = r.i32();
  c.merge_report = read_merge_report(r);
  c.stats = read_run_stats(r);
  if (!r.at_end())
    throw Error("checkpoint corrupt: trailing bytes after payload");
  return c;
}

void save_checkpoint(const std::string& path, const Checkpoint& c) {
  diskfmt::write_framed_file(path, kMagic, kCheckpointVersion,
                             checkpoint_payload(c));
}

Checkpoint load_checkpoint(const std::string& path,
                           const ResourceLibrary& lib) {
  std::string bytes;
  try {
    bytes = read_file(path);
  } catch (const Error& e) {
    throw Error("cannot read checkpoint: " + std::string(e.what()));
  }
  try {
    return decode_checkpoint(bytes, lib);
  } catch (const Error& e) {
    throw Error("checkpoint file " + path + ": " + std::string(e.what()));
  }
}

void check_spec_hash(const Checkpoint& c, std::uint64_t expected) {
  if (c.spec_hash != expected)
    throw Error(
        "checkpoint does not belong to this run: specification/parameter "
        "fingerprint mismatch (refusing to resume a different search)");
}

}  // namespace crusade::ckpt
