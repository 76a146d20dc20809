// Unit tests for util: periodic-interval math (against brute force), RNG,
// integer math and the table formatter.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>

#include <set>
#include <utility>
#include <string>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/io_faults.hpp"
#include "util/math.hpp"
#include "util/periodic.hpp"
#include "util/run_control.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace crusade {
namespace {

// --- periodic windows ---

/// Brute-force overlap over explicit instances within lcm(Pa, Pb).
bool brute_force_overlap(const PeriodicWindow& a, const PeriodicWindow& b) {
  if (a.empty() || b.empty()) return false;
  const TimeNs pa = a.period > 0 ? a.period : 0;
  const TimeNs pb = b.period > 0 ? b.period : 0;
  const TimeNs horizon =
      pa > 0 && pb > 0 ? lcm64(pa, pb) : std::max<TimeNs>(1'000'000, 1);
  auto instances = [&](const PeriodicWindow& w, TimeNs period,
                       std::vector<std::pair<TimeNs, TimeNs>>& out) {
    if (period == 0) {
      out.emplace_back(w.start, w.finish);
      return;
    }
    for (TimeNs k = -2 * horizon; k <= 2 * horizon; k += period)
      out.emplace_back(w.start + k, w.finish + k);
  };
  std::vector<std::pair<TimeNs, TimeNs>> ia, ib;
  instances(a, pa, ia);
  instances(b, pb, ib);
  for (const auto& [sa, fa] : ia)
    for (const auto& [sb, fb] : ib)
      if (sa < fb && sb < fa) return true;
  return false;
}

TEST(Periodic, EmptyWindowsNeverOverlap) {
  PeriodicWindow empty{10, 10, 100};
  PeriodicWindow busy{0, 50, 100};
  EXPECT_FALSE(periodic_overlap(empty, busy));
  EXPECT_FALSE(periodic_overlap(busy, empty));
}

TEST(Periodic, SamePeriodPlainIntervals) {
  PeriodicWindow a{0, 10, 100};
  EXPECT_TRUE(periodic_overlap(a, {5, 15, 100}));
  EXPECT_FALSE(periodic_overlap(a, {10, 20, 100}));  // half-open: no touch
  EXPECT_TRUE(periodic_overlap(a, {95, 105, 100}));  // wraps onto [0,5)
}

TEST(Periodic, HarmonicPeriods) {
  // 10-long window every 100 vs 10-long window every 50: the 50-periodic
  // window hits phase 0 and 50; only phase 20..30 stays clear of [0,10).
  PeriodicWindow slow{0, 10, 100};
  EXPECT_TRUE(periodic_overlap(slow, {5, 15, 50}));
  EXPECT_FALSE(periodic_overlap(slow, {20, 30, 50}));
}

TEST(Periodic, CoprimePeriodsAlwaysCollide) {
  // gcd(7, 11) = 1: any two non-empty windows eventually intersect.
  EXPECT_TRUE(periodic_overlap({0, 2, 7}, {3, 5, 11}));
}

TEST(Periodic, OneShotVsPeriodic) {
  PeriodicWindow once{95, 105, 0};
  EXPECT_TRUE(periodic_overlap(once, {0, 10, 100}));   // instance at 100
  EXPECT_FALSE(periodic_overlap(once, {10, 20, 100}));
  EXPECT_FALSE(periodic_overlap({0, 5, 0}, {5, 8, 0}));
  EXPECT_TRUE(periodic_overlap({0, 6, 0}, {5, 8, 0}));
}

TEST(Periodic, MatchesBruteForceOnGrid) {
  const TimeNs periods[] = {6, 10, 15, 30};
  int checked = 0;
  for (TimeNs pa : periods)
    for (TimeNs pb : periods)
      for (TimeNs sa = 0; sa < pa; sa += 2)
        for (TimeNs sb = 0; sb < pb; sb += 3)
          for (TimeNs la : {1, 3, 5}) {
            for (TimeNs lb : {1, 2, 4}) {
              PeriodicWindow a{sa, sa + la, pa};
              PeriodicWindow b{sb, sb + lb, pb};
              ASSERT_EQ(periodic_overlap(a, b), brute_force_overlap(a, b))
                  << "a=[" << sa << "," << sa + la << ")%" << pa << " b=["
                  << sb << "," << sb + lb << ")%" << pb;
              ++checked;
            }
          }
  EXPECT_GT(checked, 500);
}

TEST(Periodic, MinShiftResolvesConflict) {
  const PeriodicWindow b{0, 10, 50};
  PeriodicWindow a{5, 9, 100};
  ASSERT_TRUE(periodic_overlap(a, b));
  const TimeNs shift = min_shift_to_avoid(a, b);
  ASSERT_NE(shift, kNoTime);
  ASSERT_GT(shift, 0);
  a.start += shift;
  a.finish += shift;
  EXPECT_FALSE(periodic_overlap(a, b));
  // Minimality: shifting one less must still overlap.
  a.start -= 1;
  a.finish -= 1;
  EXPECT_TRUE(periodic_overlap(a, b));
}

TEST(Periodic, MinShiftZeroWhenAlreadyClear) {
  EXPECT_EQ(min_shift_to_avoid({20, 25, 50}, {0, 10, 50}), 0);
}

TEST(Periodic, MinShiftImpossibleWhenWindowsFillPeriod) {
  // Combined lengths exceed the gcd: no phase works.
  EXPECT_EQ(min_shift_to_avoid({0, 30, 50}, {0, 25, 50}), kNoTime);
}

// --- RNG ---

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformIntInRange) {
  Rng rng(1);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(3);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 9000; ++i)
    ++counts[rng.weighted_index({1.0, 0.0, 2.0})];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 2.0, 0.3);
}

TEST(Rng, WeightedIndexRejectsAllZero) {
  Rng rng(4);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), Error);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(6);
  Rng child = a.fork();
  EXPECT_NE(a.next(), child.next());
}

// --- math ---

TEST(MathTest, Lcm) {
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(25'000, 1'000'000), 1'000'000);
  EXPECT_THROW(lcm64(0, 5), Error);
}

TEST(MathTest, LcmOverflowDetected) {
  EXPECT_THROW(lcm64(INT64_MAX - 1, INT64_MAX - 2), Error);
}

TEST(MathTest, Hyperperiod) {
  EXPECT_EQ(hyperperiod({25 * kMicrosecond, 100 * kMicrosecond, kMinute}),
            kMinute);
  EXPECT_THROW(hyperperiod({}), Error);
}

TEST(MathTest, FloorDivNegative) {
  EXPECT_EQ(floor_div(7, 3), 2);
  EXPECT_EQ(floor_div(-7, 3), -3);
  EXPECT_EQ(floor_div(-6, 3), -2);
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(ceil_div(7, 3), 3);
  EXPECT_EQ(ceil_div(6, 3), 2);
  EXPECT_EQ(ceil_div(0, 3), 0);
}

// --- table / formatting ---

TEST(TableTest, RendersAlignedColumns) {
  Table t({"A", "Bee"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string out = t.to_string("title");
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("| A   | Bee |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4   |"), std::string::npos);
}

TEST(TableTest, RejectsArityMismatch) {
  Table t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TimeFormat, HumanReadable) {
  EXPECT_EQ(format_time(25 * kMicrosecond), "25us");
  EXPECT_EQ(format_time(kMinute), "60s");
  EXPECT_EQ(format_time(kNoTime), "-");
  EXPECT_EQ(format_time(1'500'000), "1.5ms");
}

// --- typed I/O errors (serve spool/cache hardening) ------------------------

TEST(IoErrorTest, CarriesErrnoAndClassifiesDiskFull) {
  EXPECT_TRUE(is_disk_full_errno(ENOSPC));
#ifdef EDQUOT
  EXPECT_TRUE(is_disk_full_errno(EDQUOT));
#endif
  EXPECT_FALSE(is_disk_full_errno(EACCES));
  EXPECT_FALSE(is_disk_full_errno(EIO));

  try {
    throw_io_error("spool write", ENOSPC);
    FAIL() << "throw_io_error returned";
  } catch (const DiskFullError& e) {
    EXPECT_EQ(e.error_number(), ENOSPC);
    EXPECT_NE(std::string(e.what()).find("spool write"), std::string::npos);
  }
  try {
    throw_io_error("spool write", EACCES);
    FAIL() << "throw_io_error returned";
  } catch (const DiskFullError&) {
    FAIL() << "EACCES misclassified as disk-full";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_number(), EACCES);
  }
  // DiskFullError remains catchable as the general classes.
  EXPECT_THROW(throw_io_error("x", ENOSPC), IoError);
  EXPECT_THROW(throw_io_error("x", ENOSPC), Error);
}

// --- iofault: the deterministic environment-fault seam ----------------------

std::vector<std::string> g_observed_injections;
void record_injection(const char* name) {
  g_observed_injections.push_back(name);
}

/// The plan is process-global and the EINTR burst is thread-local, so every
/// test starts from a drained, disarmed seam and leaves it that way.
class IoFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { drain(); }
  void TearDown() override {
    iofault::set_observer(nullptr);
    drain();
  }

  /// Flushes any EINTR-burst residue left on this thread by a previous
  /// armed sequence: with a negligible rate no new faults fire, but the
  /// burst path still drains (it runs before the roll).
  static void drain() {
    iofault::Plan p;
    p.seed = 1;
    p.rate = 1e-18;
    iofault::arm(p);
    char b;
    for (int i = 0; i < 4; ++i) (void)iofault::xread(-1, &b, 0);
    iofault::disarm();
    iofault::reset_counters();
  }

  /// Runs `n` xwrite calls against /dev/null and records (rc, errno) — the
  /// observable injection sequence.
  static std::vector<std::pair<long, int>> record_sequence(
      std::uint64_t seed, double rate, int n) {
    iofault::Plan p;
    p.seed = seed;
    p.rate = rate;
    iofault::arm(p);
    const int fd = ::open("/dev/null", O_WRONLY);
    EXPECT_GE(fd, 0);
    std::vector<std::pair<long, int>> out;
    const char buf[8] = {};
    for (int i = 0; i < n; ++i) {
      errno = 0;
      const long rc = static_cast<long>(iofault::xwrite(fd, buf, sizeof buf));
      out.emplace_back(rc, errno);
    }
    (void)::close(fd);
    iofault::disarm();
    return out;
  }
};

TEST_F(IoFaultTest, DisarmedWrappersPassThrough) {
  EXPECT_FALSE(iofault::armed());
  char tmpl[] = "/tmp/crusade_iofault_fXXXXXX";
  const int fd = ::mkstemp(tmpl);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(iofault::xwrite(fd, "abc", 3), 3);
  EXPECT_EQ(iofault::xfsync(fd), 0);
  EXPECT_EQ(iofault::xclose(fd), 0);
  EXPECT_EQ(iofault::counters().total, 0u);
  (void)::unlink(tmpl);
}

TEST_F(IoFaultTest, SameSeedSameCallOrderReplaysTheSameFaults) {
  const auto a = record_sequence(42, 0.5, 64);
  drain();  // burst residue from run 1 must not leak into run 2
  const auto b = record_sequence(42, 0.5, 64);
  EXPECT_EQ(a, b);
  // And the seed matters: a different seed gives a different storm.
  drain();
  const auto c = record_sequence(43, 0.5, 64);
  EXPECT_NE(a, c);
  // At rate 0.5 over 64 calls, some injections certainly fired.
  int faults = 0;
  for (const auto& [rc, err] : a)
    if (rc < 0 || rc == 4) ++faults;  // 4 = short write of an 8-byte buffer
  EXPECT_GT(faults, 0);
}

TEST_F(IoFaultTest, EintrBurstAlwaysLeavesRoomForProgress) {
  // Rate 1.0, EINTR only: the nastiest storm.  The burst guarantee (one
  // injection-free call after each burst) means a plain retry loop still
  // terminates.
  iofault::Plan p;
  p.seed = 7;
  p.rate = 1.0;
  p.kinds = 1u << static_cast<unsigned>(iofault::Kind::Eintr);
  iofault::arm(p);
  const int fd = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(fd, 0);
  char buf[4];
  int tries = 0;
  long rc = -1;
  while (tries < 100) {
    ++tries;
    rc = static_cast<long>(iofault::xread(fd, buf, sizeof buf));
    if (rc >= 0 || errno != EINTR) break;
  }
  iofault::disarm();
  (void)::close(fd);
  EXPECT_EQ(rc, 0);       // /dev/null reads EOF — the call went through
  EXPECT_LE(tries, 5);    // burst of 3 + the guaranteed-clean call
  EXPECT_GE(iofault::counters().injected[static_cast<unsigned>(
                iofault::Kind::Eintr)],
            3u);
}

TEST_F(IoFaultTest, ArmFromEnvParsesSeedAndOptionalRate) {
  EXPECT_TRUE(iofault::arm_from_env("123"));
  EXPECT_TRUE(iofault::armed());
  iofault::disarm();
  EXPECT_TRUE(iofault::arm_from_env("123:0.5"));
  EXPECT_TRUE(iofault::armed());
  iofault::disarm();
  for (const char* bad : {"", "abc", "12:", "12:abc", "12:0", "12:-1",
                          "12:1.5", "12:0.5x", "12x"}) {
    EXPECT_FALSE(iofault::arm_from_env(bad)) << "'" << bad << "' accepted";
  }
  EXPECT_FALSE(iofault::arm_from_env(nullptr));
}

TEST_F(IoFaultTest, CountersAndObserverSeeEveryInjection) {
  g_observed_injections.clear();
  iofault::set_observer(record_injection);
  iofault::Plan p;
  p.seed = 9;
  p.rate = 1.0;
  p.kinds = 1u << static_cast<unsigned>(iofault::Kind::Enospc);
  iofault::arm(p);
  const int fd = ::open("/dev/null", O_WRONLY);
  ASSERT_GE(fd, 0);
  errno = 0;
  EXPECT_EQ(iofault::xwrite(fd, "abcd", 4), -1);
  EXPECT_EQ(errno, ENOSPC);
  iofault::disarm();
  (void)::close(fd);
  const auto counts = iofault::counters();
  EXPECT_EQ(counts.injected[static_cast<unsigned>(iofault::Kind::Enospc)],
            1u);
  EXPECT_EQ(counts.total, 1u);
  ASSERT_EQ(g_observed_injections.size(), 1u);
  EXPECT_EQ(g_observed_injections[0], "chaos.injected.enospc");
}

TEST_F(IoFaultTest, InjectedCloseFailureStillReleasesTheDescriptor) {
  iofault::Plan p;
  p.seed = 11;
  p.rate = 1.0;
  p.kinds = 1u << static_cast<unsigned>(iofault::Kind::Eio);
  iofault::arm(p);
  const int fd = ::open("/dev/null", O_WRONLY);
  ASSERT_GE(fd, 0);
  errno = 0;
  EXPECT_EQ(iofault::xclose(fd), -1);
  EXPECT_EQ(errno, EIO);
  iofault::disarm();
  // The fd must already be gone — chaos never leaks descriptors.
  errno = 0;
  EXPECT_EQ(::close(fd), -1);
  EXPECT_EQ(errno, EBADF);
}

TEST_F(IoFaultTest, TornRenameSurfacesAHalfWrittenFileAtTheFinalName) {
  char tmpl[] = "/tmp/crusade_iofault_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string src = dir + "/src", dst = dir + "/dst";
  atomic_write_file(src, "0123456789ABCDEF");  // 16 bytes, seam disarmed
  iofault::Plan p;
  p.seed = 13;
  p.rate = 1.0;
  p.kinds = 1u << static_cast<unsigned>(iofault::Kind::TornRename);
  iofault::arm(p);
  EXPECT_EQ(iofault::xrename(src.c_str(), dst.c_str()), 0);
  iofault::disarm();
  const std::string torn = read_file(dst);
  EXPECT_EQ(torn, "01234567");  // truncated to half: a torn image
  (void)::unlink(dst.c_str());
  (void)::rmdir(dir.c_str());
}

TEST_F(IoFaultTest, AtomicWriteNeverLeavesAPartialFinalFile) {
  // Under every fault kind except the (intentionally corrupting) torn
  // rename, atomic_write_file either succeeds with the full payload at the
  // final name or throws with the final name untouched.
  char tmpl[] = "/tmp/crusade_iofault_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const unsigned all_but_torn =
      ((1u << iofault::kKindCount) - 1u) &
      ~(1u << static_cast<unsigned>(iofault::Kind::TornRename));
  int wrote = 0, failed = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::string path = dir + "/f" + std::to_string(seed);
    const std::string payload(1024, static_cast<char>('a' + seed % 26));
    iofault::Plan p;
    p.seed = seed;
    p.rate = 0.3;
    p.kinds = all_but_torn;
    iofault::arm(p);
    bool threw = false;
    try {
      atomic_write_file(path, payload);
    } catch (const Error&) {
      threw = true;
    }
    iofault::disarm();
    struct stat st;
    if (::stat(path.c_str(), &st) == 0) {
      EXPECT_EQ(read_file(path), payload) << "seed " << seed;
      ++wrote;
    } else {
      EXPECT_TRUE(threw) << "seed " << seed
                         << ": no file and no error — a silent loss";
      ++failed;
    }
    (void)::unlink(path.c_str());
    drain();  // burst residue must not couple consecutive seeds
  }
  // At rate 0.3 both fates occur across 24 seeds.
  EXPECT_GT(wrote, 0);
  EXPECT_GT(failed, 0);
  (void)::rmdir(dir.c_str());
}

// --- StopHub routing (multi-job signal handling) ---------------------------

TEST(StopHubTest, OnlyAttachedControllersObserveProcessSignals) {
  StopHub::instance().reset();
  RunController attached;
  RunController detached;  // a daemon job's controller: never attaches
  attached.attach_process_stop(&StopHub::instance());

  EXPECT_FALSE(attached.stop_requested());
  EXPECT_FALSE(detached.stop_requested());

  StopHub::instance().notify(SIGTERM);
  EXPECT_TRUE(attached.stop_requested());
  // The signal must not leak into jobs that did not opt in — this is what
  // lets the daemon cancel one request without stopping another.
  EXPECT_FALSE(detached.stop_requested());
  EXPECT_EQ(StopHub::instance().last_signal(), SIGTERM);
  EXPECT_EQ(StopHub::instance().notifications(), 1);

  StopHub::instance().reset();
  EXPECT_FALSE(attached.stop_requested());

  // Per-job cancellation still works independently of the hub.
  detached.request_stop();
  EXPECT_TRUE(detached.stop_requested());
  EXPECT_FALSE(attached.stop_requested());
}

}  // namespace
}  // namespace crusade
