// Tests for the crash-safe checkpoint/resume subsystem (src/ckpt, DESIGN.md
// §11): atomic file writes, deterministic binary serialization, checkpoint
// framing (magic/version/CRC), loud failure on every corruption mode,
// search determinism, resume equivalence (bit-identical final architecture
// from every on-trajectory checkpoint), and anytime-stop semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/serialize.hpp"
#include "core/crusade.hpp"
#include "example_specs.hpp"
#include "obs/obs.hpp"
#include "util/atomic_file.hpp"
#include "util/disk_format.hpp"
#include "util/error.hpp"
#include "util/io_faults.hpp"
#include "util/run_control.hpp"

namespace crusade {
namespace {

const ResourceLibrary& lib() {
  static const ResourceLibrary l = telecom_1999();
  return l;
}

/// Unique-enough temp path under the build's working directory; removed by
/// the TempFile destructor so failed runs do not accumulate litter.
struct TempFile {
  explicit TempFile(const std::string& stem) {
    path = stem + "." + std::to_string(::getpid()) + ".tmp-test";
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string arch_bytes(const Architecture& arch) {
  ckpt::BinWriter w;
  ckpt::write_architecture(w, arch);
  return w.bytes();
}

// --- atomic file writes (satellite 1) ------------------------------------

TEST(AtomicFileTest, WritesExactContents) {
  TempFile f("ckpt_test_atomic");
  atomic_write_file(f.path, "hello checkpoint\n");
  EXPECT_EQ(read_file(f.path), "hello checkpoint\n");
}

TEST(AtomicFileTest, OverwriteReplacesWhole) {
  TempFile f("ckpt_test_overwrite");
  atomic_write_file(f.path, std::string(4096, 'x'));
  atomic_write_file(f.path, "short");
  // Rename semantics: the new file fully replaces the old, no tail remains.
  EXPECT_EQ(read_file(f.path), "short");
}

TEST(AtomicFileTest, BinaryContentsSurvive) {
  TempFile f("ckpt_test_binary");
  std::string blob;
  for (int i = 0; i < 512; ++i) blob.push_back(static_cast<char>(i & 0xff));
  atomic_write_file(f.path, blob);
  EXPECT_EQ(read_file(f.path), blob);
}

TEST(AtomicFileTest, ReadMissingFileThrows) {
  EXPECT_THROW(read_file("ckpt_test_no_such_file.bin"), Error);
}

TEST(AtomicFileTest, WriteToBadDirectoryThrows) {
  EXPECT_THROW(
      atomic_write_file("ckpt_test_no_such_dir/sub/file.bin", "data"), Error);
}

// --- serialization primitives ---------------------------------------------

TEST(SerializeTest, PrimitiveRoundTrip) {
  ckpt::BinWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i32(-42);
  w.i64(-1234567890123456789ll);
  w.f64(3.141592653589793);
  w.f64(-0.0);
  w.str("checkpoint");
  w.str("");
  w.vec_i32({1, -2, 3});
  w.vec_i64({-9, 0, 9000000000ll});
  w.vec_u8({'\0', 'a', '\xff'});

  ckpt::BinReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123456789ll);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit-pattern, not value, round-trip
  EXPECT_EQ(r.str(), "checkpoint");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.vec_i32(), (std::vector<int>{1, -2, 3}));
  EXPECT_EQ(r.vec_i64(), (std::vector<std::int64_t>{-9, 0, 9000000000ll}));
  EXPECT_EQ(r.vec_u8(), (std::vector<char>{'\0', 'a', '\xff'}));
  EXPECT_TRUE(r.at_end());
}

TEST(SerializeTest, DeterministicBytes) {
  ckpt::BinWriter a, b;
  for (ckpt::BinWriter* w : {&a, &b}) {
    w->i64(77);
    w->str("same");
    w->f64(1.5);
  }
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(SerializeTest, ReaderOverrunThrows) {
  ckpt::BinWriter w;
  w.u32(7);
  ckpt::BinReader r(w.bytes());
  EXPECT_THROW(r.u64(), Error);  // only 4 bytes available
}

TEST(SerializeTest, TruncatedStringThrows) {
  ckpt::BinWriter w;
  w.str("abcdef");
  const std::string cut = w.bytes().substr(0, w.bytes().size() - 2);
  ckpt::BinReader r(cut);
  EXPECT_THROW(r.str(), Error);
}

TEST(SerializeTest, HugeLengthPrefixThrows) {
  // A corrupted length prefix must not drive a giant allocation or an
  // overrun: the bounds check fires first.
  ckpt::BinWriter w;
  w.u64(0xffffffffffffull);  // claims ~280 TB of payload
  ckpt::BinReader r(w.bytes());
  EXPECT_THROW(r.str(), Error);
}

TEST(SerializeTest, Crc32KnownVector) {
  // The standard IEEE 802.3 check value.
  EXPECT_EQ(diskfmt::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(diskfmt::crc32(""), 0u);
}

TEST(SerializeTest, Fnv1aKnownVectors) {
  EXPECT_EQ(ckpt::fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_NE(ckpt::fnv1a("a"), ckpt::fnv1a("b"));
}

// --- architecture / checkpoint round-trips --------------------------------

CrusadeResult run_once(const Specification& spec, CrusadeParams params = {}) {
  return Crusade(spec, lib(), params).run();
}

TEST(CheckpointTest, ArchitectureRoundTrip) {
  const CrusadeResult r = run_once(base_station_spec(lib()));
  ASSERT_FALSE(r.arch.pes.empty());
  const std::string bytes = arch_bytes(r.arch);
  ckpt::BinReader reader(bytes);
  const Architecture back = ckpt::read_architecture(reader, lib());
  EXPECT_TRUE(reader.at_end());
  EXPECT_EQ(arch_bytes(back), bytes);
}

ckpt::Checkpoint sample_checkpoint() {
  const CrusadeResult r = run_once(quickstart_spec(lib()));
  ckpt::Checkpoint c;
  c.stage = ckpt::Stage::Merge;
  c.spec_hash = 0x1122334455667788ull;
  c.alloc.arch = r.arch;
  c.alloc.placed.assign(7, 1);
  c.alloc.clusters_with_misses = 2;
  c.alloc.committed_tardiness = 12345;
  c.alloc.committed_estimate = -6789;
  c.alloc.committed_failures = 3;
  c.merge_report = r.merge_report;
  c.stats = r.stats;
  c.stats.sched_evals = 321;
  return c;
}

TEST(CheckpointTest, EncodeDecodeRoundTrip) {
  const ckpt::Checkpoint c = sample_checkpoint();
  const std::string bytes = ckpt::encode_checkpoint(c);
  const ckpt::Checkpoint back = ckpt::decode_checkpoint(bytes, lib());
  EXPECT_EQ(back.stage, c.stage);
  EXPECT_EQ(back.spec_hash, c.spec_hash);
  EXPECT_EQ(arch_bytes(back.alloc.arch), arch_bytes(c.alloc.arch));
  EXPECT_EQ(back.alloc.placed, c.alloc.placed);
  EXPECT_EQ(back.alloc.clusters_with_misses, c.alloc.clusters_with_misses);
  EXPECT_EQ(back.alloc.committed_tardiness, c.alloc.committed_tardiness);
  EXPECT_EQ(back.alloc.committed_estimate, c.alloc.committed_estimate);
  EXPECT_EQ(back.alloc.committed_failures, c.alloc.committed_failures);
  EXPECT_EQ(back.stats.sched_evals, c.stats.sched_evals);
  EXPECT_EQ(back.stats.repair_moves, c.stats.repair_moves);
  EXPECT_DOUBLE_EQ(back.stats.allocation_seconds, c.stats.allocation_seconds);
  EXPECT_EQ(back.merge_report.passes, c.merge_report.passes);
  EXPECT_EQ(back.merge_report.merges_accepted, c.merge_report.merges_accepted);
  // Re-encoding the decoded checkpoint reproduces the exact bytes.
  EXPECT_EQ(ckpt::encode_checkpoint(back), bytes);
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  const ckpt::Checkpoint c = sample_checkpoint();
  TempFile f("ckpt_test_saveload");
  ckpt::save_checkpoint(f.path, c);
  const ckpt::Checkpoint back = ckpt::load_checkpoint(f.path, lib());
  EXPECT_EQ(ckpt::encode_checkpoint(back), ckpt::encode_checkpoint(c));
}

// Every corruption mode fails with a typed Error — never a crash, never a
// silently restarted search.
TEST(CheckpointTest, CorruptionFailsLoudly) {
  const std::string good = ckpt::encode_checkpoint(sample_checkpoint());

  EXPECT_THROW(ckpt::decode_checkpoint("", lib()), Error);

  // Truncations at every interesting boundary, plus mid-payload.
  for (std::size_t cut : {std::size_t{2}, std::size_t{10}, std::size_t{19},
                          good.size() - 1, good.size() / 2}) {
    EXPECT_THROW(ckpt::decode_checkpoint(good.substr(0, cut), lib()), Error)
        << "cut at " << cut;
  }

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_THROW(ckpt::decode_checkpoint(bad_magic, lib()), Error);

  std::string bad_version = good;
  bad_version[4] = static_cast<char>(0x7f);  // unsupported version
  EXPECT_THROW(ckpt::decode_checkpoint(bad_version, lib()), Error);

  // Intact frames of the older layouts (version 1 before AllocState,
  // version 2 with the merge report's rejected_apply) are refused with the
  // version error, never misread.
  const std::string payload =
      diskfmt::unframe(good, "CKPT", ckpt::kCheckpointVersion).payload;
  for (const std::uint32_t old : {1u, 2u}) {
    try {
      ckpt::decode_checkpoint(diskfmt::frame("CKPT", old, payload), lib());
      ADD_FAILURE() << "a version-" << old << " checkpoint decoded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version " +
                                           std::to_string(old)),
                std::string::npos)
          << e.what();
    }
  }

  // A flipped payload byte is caught by the CRC.
  std::string flipped = good;
  flipped[good.size() - 5] ^= 0x01;
  EXPECT_THROW(ckpt::decode_checkpoint(flipped, lib()), Error);

  std::string trailing = good + "garbage";
  EXPECT_THROW(ckpt::decode_checkpoint(trailing, lib()), Error);
}

TEST(CheckpointTest, LoadMissingFileThrows) {
  EXPECT_THROW(ckpt::load_checkpoint("ckpt_test_missing.ckpt", lib()), Error);
}

TEST(CheckpointTest, WrongSpecHashRejected) {
  ckpt::Checkpoint c = sample_checkpoint();
  EXPECT_NO_THROW(ckpt::check_spec_hash(c, c.spec_hash));
  EXPECT_THROW(ckpt::check_spec_hash(c, c.spec_hash + 1), Error);
}

TEST(CheckpointTest, FingerprintSeparatesSpecsAndParams) {
  const Specification a = quickstart_spec(lib());
  const Specification b = base_station_spec(lib());
  CrusadeParams params;
  const std::uint64_t fa = Crusade::fingerprint(a, lib(), params);
  EXPECT_EQ(fa, Crusade::fingerprint(a, lib(), params));  // stable
  EXPECT_NE(fa, Crusade::fingerprint(b, lib(), params));  // spec-sensitive

  // Every search-shaping parameter moves the fingerprint...
  std::vector<CrusadeParams> shaping(7);
  shaping[0].enable_reconfig = false;
  shaping[1].preflight = false;
  shaping[2].preflight_prune = false;
  shaping[3].clustering.enabled = false;
  shaping[4].power_cap_mw = 1500;
  shaping[5].max_iterations = 17;
  shaping[6].merge_budget = 5;
  for (std::size_t i = 0; i < shaping.size(); ++i)
    EXPECT_NE(fa, Crusade::fingerprint(a, lib(), shaping[i])) << "input " << i;

  // ...and what only observes or checks the search does not.
  CrusadeParams cosmetic;
  cosmetic.self_check = false;
  cosmetic.checkpoint.every_evals = 1;
  cosmetic.progress_hook = [](const AllocState&) {};
  EXPECT_EQ(fa, Crusade::fingerprint(a, lib(), cosmetic));
}

// --- determinism + resume equivalence (the tentpole's core claim) ---------

TEST(CheckpointTest, SynthesisIsDeterministic) {
  for (const Specification& spec :
       {quickstart_spec(lib()), base_station_spec(lib())}) {
    const CrusadeResult a = run_once(spec);
    const CrusadeResult b = run_once(spec);
    EXPECT_EQ(arch_bytes(a.arch), arch_bytes(b.arch)) << spec.name;
    EXPECT_EQ(a.stats.sched_evals, b.stats.sched_evals) << spec.name;
    EXPECT_EQ(a.stats.repair_moves, b.stats.repair_moves) << spec.name;
    EXPECT_EQ(a.cost.total(), b.cost.total()) << spec.name;
    EXPECT_EQ(a.feasible, b.feasible) << spec.name;
  }
}

TEST(CheckpointTest, ResumeFromEveryCheckpointIsBitIdentical) {
  const Specification spec = base_station_spec(lib());

  CrusadeParams record;
  record.checkpoint.every_evals = 1;  // checkpoint at every commit boundary
  std::vector<ckpt::Checkpoint> trail;
  record.checkpoint.on_write = [&](const ckpt::Checkpoint& c) {
    trail.push_back(c);
  };
  const CrusadeResult baseline = Crusade(spec, lib(), record).run();
  ASSERT_FALSE(trail.empty());

  const std::uint64_t hash = Crusade::fingerprint(spec, lib(), CrusadeParams{});
  const std::string want_arch = arch_bytes(baseline.arch);

  bool saw_alloc = false, saw_merge_done = false;
  for (std::size_t i = 0; i < trail.size(); ++i) {
    const ckpt::Checkpoint& c = trail[i];
    EXPECT_EQ(c.spec_hash, hash);
    saw_alloc |= c.stage == ckpt::Stage::Allocation;
    saw_merge_done |= c.stage == ckpt::Stage::MergeDone;

    // Round-trip through the file format, exactly as the CLI does.
    const ckpt::Checkpoint loaded =
        ckpt::decode_checkpoint(ckpt::encode_checkpoint(c), lib());
    CrusadeParams resume;
    resume.resume = &loaded;
    const CrusadeResult r = Crusade(spec, lib(), resume).run();
    EXPECT_TRUE(r.resumed);
    EXPECT_EQ(arch_bytes(r.arch), want_arch)
        << "checkpoint " << i << " stage " << ckpt::to_string(c.stage);
    EXPECT_EQ(r.stats.sched_evals, baseline.stats.sched_evals) << i;
    EXPECT_EQ(r.stats.repair_moves, baseline.stats.repair_moves) << i;
    EXPECT_EQ(r.merge_report.merges_accepted,
              baseline.merge_report.merges_accepted)
        << i;
    EXPECT_EQ(r.cost.total(), baseline.cost.total()) << i;
    EXPECT_EQ(r.feasible, baseline.feasible) << i;
  }
  EXPECT_TRUE(saw_alloc);       // allocation-stage checkpoints were taken
  EXPECT_TRUE(saw_merge_done);  // and the final merge boundary
}

// Checkpointing adds a writer after the caller's progress hook; it never
// replaces the hook or changes the search.
TEST(CheckpointTest, ProgressHookSeesEveryCommitWhileCheckpointing) {
  const Specification spec = base_station_spec(lib());

  int plain_commits = 0;
  CrusadeParams plain;
  plain.progress_hook = [&](const AllocState&) { ++plain_commits; };
  const CrusadeResult a = Crusade(spec, lib(), plain).run();

  int ckpt_commits = 0;
  int writes = 0;
  CrusadeParams checkpointing;
  checkpointing.progress_hook = [&](const AllocState&) { ++ckpt_commits; };
  checkpointing.checkpoint.every_evals = 1;
  checkpointing.checkpoint.on_write = [&](const ckpt::Checkpoint&) {
    ++writes;
  };
  const CrusadeResult b = Crusade(spec, lib(), checkpointing).run();

  EXPECT_GT(plain_commits, 0);
  EXPECT_EQ(ckpt_commits, plain_commits);
  EXPECT_GT(writes, 0);
  EXPECT_EQ(arch_bytes(b.arch), arch_bytes(a.arch));
}

TEST(CheckpointTest, ResumeWithWrongSpecThrows) {
  const Specification spec = quickstart_spec(lib());
  CrusadeParams record;
  std::vector<ckpt::Checkpoint> trail;
  record.checkpoint.every_evals = 1;
  record.checkpoint.on_write = [&](const ckpt::Checkpoint& c) {
    trail.push_back(c);
  };
  (void)Crusade(spec, lib(), record).run();
  ASSERT_FALSE(trail.empty());

  const Specification other = base_station_spec(lib());
  CrusadeParams resume;
  resume.resume = &trail.front();
  EXPECT_THROW(Crusade(other, lib(), resume).run(), Error);
}

// --- anytime semantics ----------------------------------------------------

TEST(AnytimeTest, PreTriggeredStopStillReturnsCompleteResult) {
  RunController control;
  control.request_stop();  // fires before the first budget poll
  CrusadeParams params;
  params.control = &control;
  const CrusadeResult r = run_once(base_station_spec(lib()), params);

  EXPECT_TRUE(r.stopped);
  EXPECT_TRUE(r.diagnosis.deadline_stopped);
  EXPECT_FALSE(r.diagnosis.empty());
  // The anytime contract: never an empty or schedule-less result.
  EXPECT_FALSE(r.arch.pes.empty());
  EXPECT_FALSE(r.schedule.timelines.empty());
  EXPECT_GT(r.cost.total(), 0);
}

TEST(AnytimeTest, ExpiredDeadlineBehavesLikeStop) {
  RunController control;
  control.set_deadline_ms(1);
  // Busy-wait past the deadline so it has expired before synthesis starts.
  while (!control.deadline_expired()) {
  }
  CrusadeParams params;
  params.control = &control;
  const CrusadeResult r = run_once(base_station_spec(lib()), params);
  EXPECT_TRUE(r.stopped);
  EXPECT_FALSE(r.arch.pes.empty());
}

TEST(CheckpointTest, InjectedEnospcDuringCheckpointsNeverKillsTheRun) {
  // Arm the environment-fault seam so every disk checkpoint write fails
  // with ENOSPC.  The driver must latch disk checkpointing off after the
  // first failure (counting crusade.ckpt_write_failed), keep feeding the
  // in-process on_write observer, and finish bit-identical to a fault-free
  // run: a full disk degrades durability, never correctness.
  const Specification spec = base_station_spec(lib());

  CrusadeParams clean;
  clean.checkpoint.every_evals = 1;
  const CrusadeResult want = Crusade(spec, lib(), clean).run();

  TempFile ckpt_path("ckpt_chaos");
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::reset();
  iofault::Plan plan;
  plan.seed = 77;
  plan.rate = 1.0;
  plan.kinds = 1u << static_cast<unsigned>(iofault::Kind::Enospc);
  iofault::arm(plan);

  CrusadeParams faulty;
  faulty.checkpoint.path = ckpt_path.path;
  faulty.checkpoint.every_evals = 1;
  int observed = 0;
  faulty.checkpoint.on_write = [&](const ckpt::Checkpoint&) { ++observed; };
  const CrusadeResult got = Crusade(spec, lib(), faulty).run();

  iofault::disarm();
  const auto injected = iofault::counters();
  iofault::reset_counters();
  const std::int64_t failed = obs::counter_value("crusade.ckpt_write_failed");
  obs::reset();
  obs::set_enabled(obs_was_enabled);

  // The faults really fired, exactly one write failure was latched, and
  // the observer kept seeing every policy-scheduled checkpoint.
  EXPECT_GT(injected.total, 0u);
  EXPECT_EQ(failed, 1);
  EXPECT_GT(observed, 0);
  // No checkpoint file survived (nothing partial, nothing stale) ...
  EXPECT_THROW(read_file(ckpt_path.path), Error);
  // ... and the search was untouched by the disk's misbehaviour.
  EXPECT_EQ(arch_bytes(got.arch), arch_bytes(want.arch));
  EXPECT_EQ(got.stats.sched_evals, want.stats.sched_evals);
  EXPECT_EQ(got.cost.total(), want.cost.total());
}

TEST(AnytimeTest, UntriggeredControlChangesNothing) {
  RunController control;  // armed with nothing: never fires
  CrusadeParams params;
  params.control = &control;
  const CrusadeResult with = run_once(quickstart_spec(lib()), params);
  const CrusadeResult without = run_once(quickstart_spec(lib()));
  EXPECT_FALSE(with.stopped);
  EXPECT_EQ(arch_bytes(with.arch), arch_bytes(without.arch));
  EXPECT_EQ(with.stats.sched_evals, without.stats.sched_evals);
}

TEST(AnytimeTest, StoppedRunsDoNotCheckpointWrapUpStates) {
  // Wrap-up states after the control fires are off the uninterrupted
  // trajectory, so the policy must not record them (resume equivalence).
  const Specification spec = base_station_spec(lib());

  CrusadeParams clean;
  clean.checkpoint.every_evals = 1;
  std::vector<ckpt::Checkpoint> clean_trail;
  clean.checkpoint.on_write = [&](const ckpt::Checkpoint& c) {
    clean_trail.push_back(c);
  };
  const CrusadeResult baseline = Crusade(spec, lib(), clean).run();

  RunController control;
  control.request_stop();
  CrusadeParams stopped;
  stopped.control = &control;
  stopped.checkpoint.every_evals = 1;
  std::vector<ckpt::Checkpoint> stopped_trail;
  stopped.checkpoint.on_write = [&](const ckpt::Checkpoint& c) {
    stopped_trail.push_back(c);
  };
  (void)Crusade(spec, lib(), stopped).run();

  // Every checkpoint a stopped run does write must also be a state the
  // clean run passed through (prefix property on the committed arch).
  ASSERT_LE(stopped_trail.size(), clean_trail.size());
  for (std::size_t i = 0; i < stopped_trail.size(); ++i) {
    EXPECT_EQ(arch_bytes(stopped_trail[i].alloc.arch),
              arch_bytes(clean_trail[i].alloc.arch))
        << i;
  }
  (void)baseline;
}

}  // namespace
}  // namespace crusade
