// The allocator's acceptance bar.  Before each cluster Allocator::run sets
// the bar (AllocState::committed_*) from the schedule of the architecture
// committed so far.  Once that schedule is current — after a commit, or
// after a resume rebuilt it — the bar is read from it instead of being
// scheduled again; it must always equal a from-scratch schedule of the
// architecture the step before left, and the answered evaluation must
// still count as one evaluation, scheduler call and finish-time estimate.
//
// Inputs: Table 2's eight profiles at 0.03x and Table 3's five at 0.02x
// after the FT transform, with and without reconfiguration, run through
// Allocator directly; crafted cases pin the steps where the committed
// schedule is not current (an empty architecture whose optimistic estimate
// already misses a deadline, a field upgrade whose first cluster finds no
// candidate) and a resume from a mid-run state.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alloc/allocation.hpp"
#include "ckpt/serialize.hpp"
#include "ft/transform.hpp"
#include "obs/obs.hpp"
#include "reconfig/interface_synth.hpp"
#include "resources/resource_library.hpp"
#include "tgff/generator.hpp"
#include "tgff/profiles.hpp"

namespace crusade {
namespace {

const ResourceLibrary& lib() {
  static const ResourceLibrary l = telecom_1999();
  return l;
}

/// What the allocator needs for one specification, as Crusade::run builds
/// it (without preflight pruning, which changes no schedule).
struct Input {
  Specification spec;
  FlatSpec flat;
  std::vector<Cluster> clusters;
  const CompatibilityMatrix* compat = nullptr;

  Input(Specification s, bool reconfig)
      : spec(std::move(s)),
        flat(spec),
        clusters(cluster_tasks(flat, lib(), ClusteringParams{})) {
    if (reconfig && spec.compatibility) compat = &*spec.compatibility;
  }

  AllocParams params(RunStats* stats = nullptr) const {
    AllocParams p;
    p.boot_estimate = estimate_boot_time;
    p.stats = stats;
    return p;
  }
};

/// Runs the allocator and checks every step's bar against a from-scratch
/// schedule of the architecture the step before left (`before`, then each
/// committed one).  Returns the states the hook saw.
std::vector<AllocState> expect_bars_fresh(
    const Input& s, AllocParams params, Architecture before,
    const std::string& what, const Architecture* seed_arch = nullptr,
    const AllocState* resume = nullptr) {
  Allocator oracle(s.flat, lib(), s.compat, s.params());
  const std::vector<int> task_cluster =
      task_to_cluster(s.clusters, s.flat.task_count());
  std::vector<AllocState> states;
  params.progress_hook = [&](const AllocState& state) {
    const ScheduleResult bar =
        oracle.schedule_architecture(before, task_cluster);
    const std::string step = what + " step " + std::to_string(states.size());
    EXPECT_EQ(state.committed_failures, bar.placement_failures) << step;
    EXPECT_EQ(state.committed_tardiness, bar.total_tardiness) << step;
    EXPECT_EQ(state.committed_estimate, bar.estimated_tardiness) << step;
    before = state.arch;
    states.push_back(state);
  };
  Allocator(s.flat, lib(), s.compat, params).run(s.clusters, seed_arch, resume);
  return states;
}

/// A state's bytes as a checkpoint stores them.
std::string bytes(const AllocState& s) {
  ckpt::BinWriter w;
  ckpt::write_architecture(w, s.arch);
  w.vec_u8(s.placed);
  w.i32(s.clusters_with_misses);
  w.i64(s.committed_tardiness);
  w.i64(s.committed_estimate);
  w.i32(s.committed_failures);
  return w.bytes();
}

Architecture empty_architecture(const Input& s) {
  return Architecture(&lib(), static_cast<int>(s.clusters.size()),
                      s.flat.edge_count());
}

/// Bars on every step, and the answered evaluations counted as scheduled
/// ones: a fresh run's evaluations, scheduler calls and finish-time
/// estimates are one and the same calls.
void check_fresh_run(const Input& s, const std::string& what) {
  RunStats stats;
  const std::vector<AllocState> states = expect_bars_fresh(
      s, s.params(&stats), empty_architecture(s), what);
  ASSERT_EQ(states.size(), s.clusters.size()) << what;
  EXPECT_GT(stats.sched_evals, 0) << what;
  EXPECT_EQ(stats.sched_invocations, stats.sched_evals) << what;
  EXPECT_EQ(stats.finish_estimates, stats.sched_evals) << what;
}

class AllocBaselineTable2 : public ::testing::TestWithParam<const char*> {};

TEST_P(AllocBaselineTable2, BarEqualsAFreshScheduleOfTheLastCommit) {
  const Specification spec = SpecGenerator(lib()).generate(
      profile_config(profile_by_name(GetParam()), 0.03));
  for (bool reconfig : {true, false})
    check_fresh_run(Input(spec, reconfig),
                    std::string(GetParam()) + (reconfig ? "" : " baseline"));
}

INSTANTIATE_TEST_SUITE_P(Profiles, AllocBaselineTable2,
                         ::testing::Values("A1TR", "VDRTX", "HROST",
                                           "EST189A", "HRXC", "ADMR", "B192G",
                                           "NGXM"));

class AllocBaselineTable3 : public ::testing::TestWithParam<const char*> {};

TEST_P(AllocBaselineTable3, BarEqualsAFreshScheduleOfTheLastCommit) {
  const Specification spec = add_fault_tolerance(
      SpecGenerator(lib()).generate(
          profile_config(profile_by_name(GetParam()), 0.02)),
      lib(), FtParams{});
  for (bool reconfig : {true, false})
    check_fresh_run(Input(spec, reconfig), std::string(GetParam()) + "-FT" +
                                               (reconfig ? "" : " baseline"));
}

INSTANTIATE_TEST_SUITE_P(Profiles, AllocBaselineTable3,
                         ::testing::Values("A1TR", "VDRTX", "HROST",
                                           "EST189A", "HRXC"));

// --- crafted cases -------------------------------------------------------

/// One single-task graph per entry (10 ms period): the task runs for
/// `exec` on the PE types in [first, last] only and has deadline
/// `deadline`.
struct Solo {
  PeTypeId first, last;
  TimeNs exec, deadline;
};

Specification solos(const std::vector<Solo>& tasks) {
  Specification spec;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    TaskGraph g("solo" + std::to_string(i), 10 * kMillisecond);
    Task t;
    t.name = "t";
    t.exec.assign(lib().pe_count(), kNoTime);
    for (PeTypeId pe = tasks[i].first; pe <= tasks[i].last; ++pe)
      t.exec[pe] = tasks[i].exec;
    t.deadline = tasks[i].deadline;
    g.add_task(t);
    spec.graphs.push_back(std::move(g));
  }
  return spec;
}

constexpr PeTypeId kFirstCpu = 0, kLastCpu = 7, kFirstAsic = 8;

TEST(AllocBaselineCrafted, EmptyArchitectureWithAnOptimisticMiss) {
  // Task 0 misses its deadline by 50 us even on its fastest PE, so the
  // empty architecture's schedule already estimates tardiness: the first
  // bar is not the default schedule's zeros.
  const Input s(solos({{kFirstCpu, kLastCpu, 100 * kMicrosecond,
                        50 * kMicrosecond},
                       {kFirstCpu, kLastCpu, 10 * kMicrosecond,
                        kMillisecond}}),
                false);
  const std::vector<AllocState> states = expect_bars_fresh(
      s, s.params(), empty_architecture(s), "optimistic miss");
  ASSERT_EQ(states.size(), 2u);
  EXPECT_EQ(states[0].committed_estimate, 50 * kMicrosecond);
}

TEST(AllocBaselineCrafted, FieldUpgradeWhoseFirstClusterHasNoCandidate) {
  // The board holds one CPU.  Task 0 runs on ASICs only, so the most urgent
  // cluster finds no candidate and commits nothing; the next cluster's bar
  // is the board's schedule, whose estimate carries both optimistic misses.
  const Input s(solos({{kFirstAsic, kFirstAsic, 200 * kMicrosecond,
                        100 * kMicrosecond},
                       {kFirstCpu, kLastCpu, 100 * kMicrosecond,
                        50 * kMicrosecond}}),
                false);
  Architecture board = empty_architecture(s);
  board.add_pe(kFirstCpu);
  AllocParams params = s.params();
  params.allow_new_pes = false;
  const std::vector<AllocState> states =
      expect_bars_fresh(s, params, board, "field upgrade", &board);
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].clusters_with_misses, 2);  // both clusters miss
  EXPECT_EQ(states[0].committed_estimate, 150 * kMicrosecond);
}

TEST(AllocBaselineCrafted, ResumeFromAMidRunState) {
  // A resume rebuilds the committed schedule, and every bar after it is
  // answered from that schedule: the states must continue the
  // uninterrupted run's.
  const Input s(SpecGenerator(lib()).generate(
                    profile_config(profile_by_name("HROST"), 0.03)),
                true);
  const std::vector<AllocState> full =
      expect_bars_fresh(s, s.params(), empty_architecture(s), "full run");
  ASSERT_GE(full.size(), 4u);
  const std::size_t mid = full.size() / 2;
  const std::vector<AllocState> rest = expect_bars_fresh(
      s, s.params(), full[mid].arch, "resumed", nullptr, &full[mid]);
  ASSERT_EQ(rest.size(), full.size() - mid - 1);
  for (std::size_t k = 0; k < rest.size(); ++k)
    EXPECT_TRUE(bytes(rest[k]) == bytes(full[mid + 1 + k]))
        << "resumed step " << k << " differs from the uninterrupted run";
}

TEST(AllocBaselineTraced, AnsweredBaselinesAreNotScheduled) {
  // From an empty architecture every cluster commits, and every bar after
  // the first is answered: the trace holds one sched.list span per
  // scheduler call counted, minus one per answered bar.  The obs counters
  // count the answered calls as RunStats does.
  const Input s(SpecGenerator(lib()).generate(
                    profile_config(profile_by_name("EST189A"), 0.03)),
                false);
  RunStats stats;
  AllocParams params = s.params(&stats);
  std::int64_t commits = 0;
  params.progress_hook = [&](const AllocState&) { ++commits; };
  obs::reset();
  obs::set_enabled(true);
  Allocator(s.flat, lib(), s.compat, params).run(s.clusters);
  obs::set_enabled(false);
  std::int64_t spans = 0;
  for (const obs::TraceEvent& e : obs::events())
    if (e.name == "sched.list") ++spans;
  EXPECT_EQ(obs::dropped_events(), 0u);
  const std::int64_t evals = obs::counter_value("alloc.sched_evals");
  const std::int64_t calls = obs::counter_value("sched.invocations");
  const std::int64_t estimates = obs::counter_value("sched.finish_estimates");
  obs::reset();
  ASSERT_EQ(commits, static_cast<std::int64_t>(s.clusters.size()));
  EXPECT_EQ(spans, stats.sched_invocations - (commits - 1));
  EXPECT_EQ(evals, stats.sched_evals);
  EXPECT_EQ(calls, stats.sched_invocations);
  EXPECT_EQ(estimates, stats.finish_estimates);
}

}  // namespace
}  // namespace crusade
