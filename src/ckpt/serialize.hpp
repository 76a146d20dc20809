// Deterministic binary serialization for checkpoint payloads.
//
// Fixed-width little-endian primitives, length-prefixed vectors, doubles as
// IEEE-754 bit patterns: the same in-memory state always serializes to the
// same bytes, which is what lets the soak harness assert bit-identical
// architectures across crash/resume boundaries (DESIGN.md §11).  The reader
// is bounds-checked and throws Error on any overrun — a truncated or
// corrupted payload can never walk off the buffer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/architecture.hpp"
#include "obs/runstats.hpp"
#include "reconfig/merge.hpp"

namespace crusade::ckpt {

class BinWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(const std::string& s);

  void vec_i32(const std::vector<int>& v);
  void vec_i64(const std::vector<std::int64_t>& v);
  void vec_u8(const std::vector<char>& v);

  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

class BinReader {
 public:
  explicit BinReader(const std::string& bytes) : buf_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();

  std::vector<int> vec_i32();
  std::vector<std::int64_t> vec_i64();
  std::vector<char> vec_u8();

  bool at_end() const { return pos_ == buf_.size(); }

 private:
  void need(std::size_t n) const;

  const std::string& buf_;
  std::size_t pos_ = 0;
};

/// FNV-1a 64-bit hash — fingerprints the specification text and the
/// synthesis parameters a checkpoint was taken under.
std::uint64_t fnv1a(const std::string& bytes);

// --- typed payload pieces -------------------------------------------------

void write_architecture(BinWriter& w, const Architecture& arch);
/// Reconstructs an architecture bound to `lib` (the library pointer is not
/// part of the serialized state; the caller guarantees the same library).
Architecture read_architecture(BinReader& r, const ResourceLibrary& lib);

void write_run_stats(BinWriter& w, const RunStats& s);
RunStats read_run_stats(BinReader& r);

void write_merge_report(BinWriter& w, const MergeReport& m);
MergeReport read_merge_report(BinReader& r);

}  // namespace crusade::ckpt
