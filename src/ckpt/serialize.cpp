#include "ckpt/serialize.hpp"

#include <bit>

#include "util/error.hpp"

namespace crusade::ckpt {

// --- primitives -----------------------------------------------------------

void BinWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void BinWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void BinWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void BinWriter::str(const std::string& s) {
  u64(s.size());
  buf_.append(s);
}

void BinWriter::vec_i32(const std::vector<int>& v) {
  u64(v.size());
  for (int x : v) i32(x);
}

void BinWriter::vec_i64(const std::vector<std::int64_t>& v) {
  u64(v.size());
  for (std::int64_t x : v) i64(x);
}

void BinWriter::vec_u8(const std::vector<char>& v) {
  u64(v.size());
  buf_.append(v.data(), v.size());
}

void BinReader::need(std::size_t n) const {
  if (buf_.size() - pos_ < n)
    throw Error("checkpoint payload truncated (needed " + std::to_string(n) +
                " bytes at offset " + std::to_string(pos_) + ")");
}

std::uint8_t BinReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(buf_[pos_++]);
}

std::uint32_t BinReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf_[pos_++]))
         << (8 * i);
  return v;
}

std::uint64_t BinReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf_[pos_++]))
         << (8 * i);
  return v;
}

double BinReader::f64() { return std::bit_cast<double>(u64()); }

std::string BinReader::str() {
  const std::uint64_t n = u64();
  need(n);
  std::string s = buf_.substr(pos_, n);
  pos_ += n;
  return s;
}

namespace {

/// Sanity cap on deserialized element counts: a corrupted length prefix
/// must fail loudly, not attempt a terabyte allocation.
constexpr std::uint64_t kMaxElements = 1u << 26;

std::uint64_t checked_count(std::uint64_t n) {
  if (n > kMaxElements)
    throw Error("checkpoint payload corrupt (implausible element count " +
                std::to_string(n) + ")");
  return n;
}

}  // namespace

std::vector<int> BinReader::vec_i32() {
  const std::uint64_t n = checked_count(u64());
  need(n * 4);
  std::vector<int> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = i32();
  return v;
}

std::vector<std::int64_t> BinReader::vec_i64() {
  const std::uint64_t n = checked_count(u64());
  need(n * 8);
  std::vector<std::int64_t> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = i64();
  return v;
}

std::vector<char> BinReader::vec_u8() {
  const std::uint64_t n = checked_count(u64());
  need(n);
  std::vector<char> v(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                      buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return v;
}

// --- hashes ---------------------------------------------------------------

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

// --- typed payload pieces -------------------------------------------------

void write_architecture(BinWriter& w, const Architecture& arch) {
  w.u64(arch.pes.size());
  for (const PeInstance& pe : arch.pes) {
    w.i32(pe.type);
    w.i64(pe.memory_used);
    w.u64(pe.modes.size());
    for (const Mode& m : pe.modes) {
      w.vec_i32(m.clusters);
      w.vec_i32(m.graphs);
      w.i32(m.pfus_used);
      w.i32(m.gates_used);
      w.i32(m.pins_used);
      w.i64(m.boot_time);
    }
  }
  w.u64(arch.links.size());
  for (const LinkInstance& link : arch.links) {
    w.i32(link.type);
    w.vec_i32(link.attached);
  }
  w.vec_i32(arch.cluster_pe);
  w.vec_i32(arch.cluster_mode);
  w.vec_i32(arch.edge_link);
  w.vec_i64(arch.link_total_comm);
  w.vec_i64(arch.link_min_period);
  w.f64(arch.interface_cost);
  w.f64(arch.spares_cost);
}

Architecture read_architecture(BinReader& r, const ResourceLibrary& lib) {
  Architecture arch(&lib, 0, 0);
  const std::uint64_t pe_count = r.u64();
  arch.pes.resize(checked_count(pe_count));
  for (PeInstance& pe : arch.pes) {
    pe.type = r.i32();
    pe.memory_used = r.i64();
    pe.modes.resize(checked_count(r.u64()));
    for (Mode& m : pe.modes) {
      m.clusters = r.vec_i32();
      m.graphs = r.vec_i32();
      m.pfus_used = r.i32();
      m.gates_used = r.i32();
      m.pins_used = r.i32();
      m.boot_time = r.i64();
    }
  }
  arch.links.resize(checked_count(r.u64()));
  for (LinkInstance& link : arch.links) {
    link.type = r.i32();
    link.attached = r.vec_i32();
  }
  arch.cluster_pe = r.vec_i32();
  arch.cluster_mode = r.vec_i32();
  arch.edge_link = r.vec_i32();
  arch.link_total_comm = r.vec_i64();
  arch.link_min_period = r.vec_i64();
  arch.interface_cost = r.f64();
  arch.spares_cost = r.f64();
  return arch;
}

void write_run_stats(BinWriter& w, const RunStats& s) {
  w.f64(s.preflight_seconds);
  w.f64(s.clustering_seconds);
  w.f64(s.allocation_seconds);
  w.f64(s.reconfig_seconds);
  w.f64(s.interface_seconds);
  w.f64(s.repair_seconds);
  w.f64(s.validation_seconds);
  w.f64(s.diagnosis_seconds);
  w.f64(s.total_seconds);
  w.i64(s.sched_evals);
  w.i64(s.sched_invocations);
  w.i64(s.finish_estimates);
  w.i64(s.alloc_candidates);
  w.i64(s.clusters);
  w.i64(s.repair_moves);
  w.i64(s.merges_tried);
  w.i64(s.merges_accepted);
  w.i64(s.merges_rejected_cost);
  w.i64(s.merges_rejected_schedule);
  w.i64(s.merges_rejected_validator);
  w.i64(s.merge_reschedules);
  w.i64(s.mode_consolidations);
  w.i64(s.interface_candidates);
}

RunStats read_run_stats(BinReader& r) {
  RunStats s;
  s.preflight_seconds = r.f64();
  s.clustering_seconds = r.f64();
  s.allocation_seconds = r.f64();
  s.reconfig_seconds = r.f64();
  s.interface_seconds = r.f64();
  s.repair_seconds = r.f64();
  s.validation_seconds = r.f64();
  s.diagnosis_seconds = r.f64();
  s.total_seconds = r.f64();
  s.sched_evals = r.i64();
  s.sched_invocations = r.i64();
  s.finish_estimates = r.i64();
  s.alloc_candidates = r.i64();
  s.clusters = r.i64();
  s.repair_moves = r.i64();
  s.merges_tried = r.i64();
  s.merges_accepted = r.i64();
  s.merges_rejected_cost = r.i64();
  s.merges_rejected_schedule = r.i64();
  s.merges_rejected_validator = r.i64();
  s.merge_reschedules = r.i64();
  s.mode_consolidations = r.i64();
  s.interface_candidates = r.i64();
  return s;
}

void write_merge_report(BinWriter& w, const MergeReport& m) {
  w.i32(m.merges_tried);
  w.i32(m.merges_accepted);
  w.i32(m.rejected_cost);
  w.i32(m.rejected_schedule);
  w.i32(m.rejected_validator);
  w.i32(m.consolidations);
  w.i32(m.passes);
  w.f64(m.cost_before);
  w.f64(m.cost_after);
  w.i32(m.merge_potential_before);
  w.i32(m.merge_potential_after);
  w.i32(m.reschedules);
  w.u8(m.budget_exhausted ? 1 : 0);
  w.u8(m.stopped ? 1 : 0);
}

MergeReport read_merge_report(BinReader& r) {
  MergeReport m;
  m.merges_tried = r.i32();
  m.merges_accepted = r.i32();
  m.rejected_cost = r.i32();
  m.rejected_schedule = r.i32();
  m.rejected_validator = r.i32();
  m.consolidations = r.i32();
  m.passes = r.i32();
  m.cost_before = r.f64();
  m.cost_after = r.f64();
  m.merge_potential_before = r.i32();
  m.merge_potential_after = r.i32();
  m.reschedules = r.i32();
  m.budget_exhausted = r.u8() != 0;
  m.stopped = r.u8() != 0;
  return m;
}

}  // namespace crusade::ckpt
