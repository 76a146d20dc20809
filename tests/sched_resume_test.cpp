// Differential oracle for incremental list scheduling: a schedule resumed
// from any base must equal the from-scratch schedule field for field,
// resume record included, and both must equal the reference scheduler kept
// in reference_scheduler.cpp (the pre-incremental code, verbatim).
//
// Seeded workloads: every committed architecture of Table 2's profiles at
// 0.03x (with and without reconfiguration) and of one FT-transformed
// specification, resumed pairwise in both directions — later bases over
// earlier problems cover the removals that repair and evacuation make.
// Crafted cases pin the restore rules one at a time.
//
// Resume points: resume_point is pinned where a new PE joins the problem —
// an empty fresh PE restores every position, a fresh PE hosting a moved
// task resumes at that task's pop although earlier pops read links, and a
// problem with fewer PEs than its base, or built by hand with every
// resource matched by index, diverges where its resources say.
//
// Cutoffs: the same architectures, plus those of four 0.10x inputs whose
// repair makes moves, are scheduled with cutoffs taken from every
// schedule's own per-position counters and, through cutoff_to_beat, from
// every other commit's schedule.  A call is cut exactly before the first
// list position whose counters reach the cutoff, and is then the uncut
// call's prefix; otherwise it equals the uncut call.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "alloc/allocation.hpp"
#include "core/crusade.hpp"
#include "ft/transform.hpp"
#include "reconfig/interface_synth.hpp"
#include "reference_scheduler.hpp"
#include "resources/resource_library.hpp"
#include "tgff/generator.hpp"
#include "tgff/profiles.hpp"

namespace crusade {
namespace {

const ResourceLibrary& lib() {
  static const ResourceLibrary l = telecom_1999();
  return l;
}

ScheduleResult without_record(ScheduleResult r) {
  r.record = {};
  return r;
}

/// Names the first field where two schedules differ ("" when equal), so a
/// failure says where the resume went wrong.
std::string first_difference(const ScheduleResult& a,
                             const ScheduleResult& b) {
  std::ostringstream out;
  auto vec = [&](const char* name, const auto& x, const auto& y) {
    if (x == y || !out.str().empty()) return;
    out << name;
    for (std::size_t i = 0; i < std::min(x.size(), y.size()); ++i)
      if (!(x[i] == y[i])) {
        out << "[" << i << "]";
        return;
      }
    out << " sizes " << x.size() << " vs " << y.size();
  };
  vec("task_start", a.task_start, b.task_start);
  vec("task_finish", a.task_finish, b.task_finish);
  vec("edge_start", a.edge_start, b.edge_start);
  vec("edge_finish", a.edge_finish, b.edge_finish);
  vec("timelines", a.timelines, b.timelines);
  vec("failed_edges", a.failed_edges, b.failed_edges);
  vec("record.steps", a.record.steps, b.record.steps);
  vec("record.appends", a.record.appends, b.record.appends);
  vec("record.reboots", a.record.reboots, b.record.reboots);
  if (out.str().empty() && !(a == b)) out << "counters or record.problem";
  return out.str();
}

/// Resumes `problem` from `base` and compares it with `scratch` (a
/// from-scratch run of the same problem).
void expect_resume_exact(const SchedProblem& problem,
                         const PriorityLevels& levels,
                         const ScheduleResult& base,
                         const ScheduleResult& scratch,
                         const std::string& what) {
  const ScheduleResult resumed = run_list_scheduler(problem, levels, &base);
  EXPECT_TRUE(resumed == scratch)
      << what << ": resumed differs at " << first_difference(resumed, scratch);
}

/// The first list position (closing entry excluded) whose counters in
/// `uncut`'s record reach `cutoff`, or -1: where a call with that cutoff
/// must stop.  Written out here rather than through ScheduleCutoff's
/// ordering, so a stop rule that drifts from it fails.
int expected_cut(const ScheduleResult& uncut, const ScheduleCutoff& cutoff) {
  const auto& steps = uncut.record.steps;
  for (std::size_t k = 0; k + 1 < steps.size(); ++k)
    if (steps[k].failures > cutoff.failures ||
        (steps[k].failures == cutoff.failures &&
         steps[k].tardiness >= cutoff.tardiness))
      return static_cast<int>(k);
  return -1;
}

/// Checks `cut`, a call with `cutoff`, against `uncut`, the from-scratch
/// call without one.  Returns whether the call was cut.
bool expect_cut_exact(const ScheduleResult& cut, const ScheduleCutoff& cutoff,
                      const ScheduleResult& uncut, const std::string& what) {
  const int at = expected_cut(uncut, cutoff);
  if (at < 0) {
    EXPECT_TRUE(cut == uncut) << what << ": a call that is not cut differs at "
                              << first_difference(cut, uncut);
    return false;
  }
  const ScheduleRecord::Step& step = uncut.record.steps[at];
  EXPECT_TRUE(cut.cut) << what << ": not cut at position " << at;
  EXPECT_FALSE(cut.feasible) << what;
  EXPECT_EQ(cut.placement_failures, step.failures) << what;
  EXPECT_EQ(cut.total_tardiness, step.tardiness) << what;
  EXPECT_EQ(cut.scheduled_tasks, step.scheduled) << what;
  EXPECT_TRUE(cut.record.steps.size() == static_cast<std::size_t>(at) &&
              std::equal(cut.record.steps.begin(), cut.record.steps.end(),
                         uncut.record.steps.begin()))
      << what << ": the cut record is not the uncut record's first " << at
      << " steps";
  return true;
}

/// Cuts every problem at each distinct counter pair its own schedule
/// records, and at cutoff_to_beat of every other commit's schedule, resumed
/// from that schedule as repair resumes from the committed one.  A call cut
/// at another schedule's cutoff must not have beaten that schedule.
void check_cutoffs(const std::vector<SchedProblem>& problems,
                   const std::vector<ScheduleResult>& scratch,
                   const PriorityLevels& levels, const std::string& name) {
  int cuts = 0;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const std::string what = name + " commit " + std::to_string(i);
    std::vector<ScheduleCutoff> own;
    for (const ScheduleRecord::Step& step : scratch[i].record.steps)
      own.push_back({step.failures, step.tardiness});
    std::sort(own.begin(), own.end());
    own.erase(std::unique(own.begin(), own.end()), own.end());
    // From scratch, and resumed from the schedule itself, whose restore
    // must stop where the counters reach the cutoff.
    for (const ScheduleCutoff& cutoff : own) {
      const std::string at_own = what + " at its own counters " +
                                 std::to_string(cutoff.failures) + "/" +
                                 std::to_string(cutoff.tardiness);
      const ScheduleResult cut =
          run_list_scheduler(problems[i], levels, nullptr, &cutoff);
      cuts += expect_cut_exact(cut, cutoff, scratch[i], at_own);
      const ScheduleResult resumed =
          run_list_scheduler(problems[i], levels, &scratch[i], &cutoff);
      EXPECT_TRUE(resumed == cut) << at_own << ": resumed differs at "
                                  << first_difference(resumed, cut);
    }
    for (std::size_t j = 0; j < problems.size(); ++j) {
      if (j == i) continue;
      const std::string against = what + " against commit " +
                                  std::to_string(j);
      const ScheduleCutoff cutoff = cutoff_to_beat(scratch[j]);
      if (expect_cut_exact(
              run_list_scheduler(problems[i], levels, &scratch[j], &cutoff),
              cutoff, scratch[i], against)) {
        ++cuts;
        EXPECT_FALSE(schedule_beats(scratch[i], scratch[j]))
            << against << ": cut, but the uncut schedule beats it";
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(cuts, 0) << name;
}

/// From scratch == reference, and resumed from `base` == from scratch.
void expect_all_exact(const SchedProblem& problem,
                      const PriorityLevels& levels, const ScheduleResult& base,
                      const std::string& what) {
  const ScheduleResult scratch = run_list_scheduler(problem, levels);
  const ScheduleResult reference =
      reference::run_list_scheduler(problem, levels);
  EXPECT_TRUE(without_record(scratch) == reference)
      << what << ": from scratch differs from the reference at "
      << first_difference(without_record(scratch), reference);
  expect_resume_exact(problem, levels, base, scratch, what);
}

// --- seeded workloads: every committed architecture, pairwise ------------

/// Every architecture the allocator commits while synthesizing `spec`, and
/// what scheduling them needs, as the allocator builds it.
struct Commits {
  std::vector<Architecture> archs;
  std::vector<int> task_cluster;
  std::unique_ptr<FlatSpec> flat;  // heap: the problems point at it
  PriorityLevels levels;
  std::vector<TimeNs> optimistic;

  /// The scheduling problem of commit `k`.
  SchedProblem problem(std::size_t k, bool reboots) const {
    SchedProblem p = make_sched_problem(
        archs[k], *flat, task_cluster,
        [](const PeType& type, int pfus) {
          return estimate_boot_time(type, pfus);
        },
        reboots);
    p.task_optimistic = &optimistic;
    return p;
  }
};

Commits committed(const Specification& spec, bool reconfig) {
  Commits c;
  CrusadeParams params;
  params.enable_reconfig = reconfig;
  params.progress_hook = [&](const AllocState& state) {
    c.archs.push_back(state.arch);
  };
  c.task_cluster = Crusade(spec, lib(), params).run().task_cluster;
  c.flat = std::make_unique<FlatSpec>(spec);
  c.levels = scheduling_levels(*c.flat, lib());
  c.optimistic.assign(c.flat->task_count(), 0);
  for (int tid = 0; tid < c.flat->task_count(); ++tid) {
    const Task& t = c.flat->task(tid);
    for (PeTypeId pe = 0; pe < lib().pe_count(); ++pe)
      if (t.feasible_on(pe) &&
          (c.optimistic[tid] == 0 || t.exec[pe] < c.optimistic[tid]))
        c.optimistic[tid] = t.exec[pe];
  }
  return c;
}

/// Every architecture the allocator commits while synthesizing `spec`, then
/// every ordered pair resumed both ways; with reconfiguration under both
/// reboot semantics (the allocator's, which charges none, and the frame
/// schedule's, whose mode_boot grows with every new mode).
void check_committed_pairs(const Specification& spec, bool reconfig,
                           const std::string& name) {
  const Commits c = committed(spec, reconfig);
  const std::vector<Architecture>& commits = c.archs;
  ASSERT_GE(commits.size(), 2u) << name;
  const PriorityLevels& levels = c.levels;

  for (bool reboots : {true, false}) {
    if (!reboots && !reconfig) break;  // single-mode: the same problems
    std::vector<SchedProblem> problems;
    std::vector<ScheduleResult> scratch;
    for (std::size_t k = 0; k < commits.size(); ++k) {
      problems.push_back(c.problem(k, reboots));
      scratch.push_back(run_list_scheduler(problems.back(), levels));
      ASSERT_TRUE(without_record(scratch.back()) ==
                  reference::run_list_scheduler(problems.back(), levels))
          << name << ": commit " << problems.size() - 1
          << " from scratch differs from the reference";
    }
    for (std::size_t base = 0; base < commits.size(); ++base)
      for (std::size_t next = 0; next < commits.size(); ++next)
        expect_resume_exact(problems[next], levels, scratch[base],
                            scratch[next],
                            name + (reboots ? " reboots" : "") + " commit " +
                                std::to_string(base) + " -> " +
                                std::to_string(next));
    check_cutoffs(problems, scratch, levels,
                  name + (reboots ? " reboots" : ""));
  }
}

class SchedResumeOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedResumeOracle, CommittedArchitecturesResumeExactlyBothWays) {
  SpecGenerator generator(lib());
  const Specification spec =
      generator.generate(profile_config(profile_by_name(GetParam()), 0.03));
  check_committed_pairs(spec, /*reconfig=*/true, GetParam());
  check_committed_pairs(spec, /*reconfig=*/false, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Table2Profiles, SchedResumeOracle,
                         ::testing::Values("A1TR", "VDRTX", "HROST",
                                           "EST189A", "HRXC", "ADMR", "B192G",
                                           "NGXM"));

/// golden_test's 0.10x inputs whose repair makes moves: each commit cut at
/// its own counters and at every other commit's cutoff_to_beat, under the
/// reboot semantics the allocator schedules with.
struct RepairInput {
  const char* profile;
  bool reconfig;
};

void PrintTo(const RepairInput& in, std::ostream* os) {
  *os << in.profile << (in.reconfig ? "" : " without reconfiguration");
}

class SchedCutoffRepairInputs : public ::testing::TestWithParam<RepairInput> {
};

TEST_P(SchedCutoffRepairInputs, CutsExactlyWhereCountersReachTheCutoff) {
  const RepairInput& in = GetParam();
  const Specification spec = SpecGenerator(lib()).generate(
      profile_config(profile_by_name(in.profile), 0.10));
  const Commits c = committed(spec, in.reconfig);
  ASSERT_GE(c.archs.size(), 2u);
  std::vector<SchedProblem> problems;
  std::vector<ScheduleResult> scratch;
  for (std::size_t k = 0; k < c.archs.size(); ++k) {
    problems.push_back(c.problem(k, /*reboots=*/!in.reconfig));
    scratch.push_back(run_list_scheduler(problems.back(), c.levels));
  }
  check_cutoffs(problems, scratch, c.levels, in.profile);
}

INSTANTIATE_TEST_SUITE_P(
    Golden, SchedCutoffRepairInputs,
    ::testing::Values(RepairInput{"VDRTX", true}, RepairInput{"VDRTX", false},
                      RepairInput{"ADMR", true}, RepairInput{"HRXC", false}),
    [](const ::testing::TestParamInfo<RepairInput>& info) {
      return std::string(info.param.profile) +
             (info.param.reconfig ? "_Reconfig" : "_NoReconfig");
    });

TEST(SchedResumeOracleFt, FtTransformedCommitsResumeExactlyBothWays) {
  SpecGenerator generator(lib());
  const Specification base =
      generator.generate(profile_config(profile_by_name("A1TR"), 0.02));
  const Specification ft = add_fault_tolerance(base, lib(), FtParams{});
  check_committed_pairs(ft, /*reconfig=*/true, "A1TR-FT");
}

// --- crafted cases -------------------------------------------------------

/// Independent single-task graphs plus the edges given as (src, dst) pairs
/// inside one extra graph; all periods 1 ms.  Task ids: the independent
/// tasks first, then the chain graph's tasks in order.
struct Crafted {
  std::unique_ptr<Specification> spec;  // heap: the FlatSpec points at it
  std::unique_ptr<FlatSpec> flat;
  SchedProblem problem;
  PriorityLevels levels;
};

Crafted crafted(int independent, int linked,
                const std::vector<std::pair<int, int>>& edges) {
  Crafted c;
  c.spec = std::make_unique<Specification>();
  auto task = [] {
    Task t;
    t.name = "t";
    t.exec = {10 * kMicrosecond};
    t.deadline = 900 * kMicrosecond;
    return t;
  };
  for (int i = 0; i < independent; ++i) {
    TaskGraph g("solo" + std::to_string(i), kMillisecond);
    g.add_task(task());
    c.spec->graphs.push_back(std::move(g));
  }
  TaskGraph chain("linked", kMillisecond);
  for (int i = 0; i < linked; ++i) chain.add_task(task());
  for (const auto& [src, dst] : edges) chain.add_edge(src, dst, 64);
  if (linked > 0) c.spec->graphs.push_back(std::move(chain));
  c.flat = std::make_unique<FlatSpec>(*c.spec);
  const int n = c.flat->task_count();
  c.problem.flat = c.flat.get();
  c.problem.task_resource.assign(n, 0);
  c.problem.task_mode.assign(n, -1);
  c.problem.task_exec.assign(n, 10 * kMicrosecond);
  c.problem.edge_resource.assign(c.flat->edge_count(), -1);
  c.problem.edge_comm.assign(c.flat->edge_count(), 0);
  // Pop order = task id order, unless a test overrides it.
  c.levels.task.resize(n);
  for (int t = 0; t < n; ++t) c.levels.task[t] = static_cast<double>(n - t);
  c.levels.edge.assign(c.flat->edge_count(), 0);
  return c;
}

SchedResourceInfo serial() { return SchedResourceInfo{}; }
SchedResourceInfo fpga(std::vector<TimeNs> boots) {
  return SchedResourceInfo{false, true, 0, std::move(boots)};
}

TEST(SchedResumeCrafted, RebootFailureAndSuccessBeforeDivergence) {
  // 0: modeless, fills resource 0's whole period.  1: mode 1 on resource 0
  // — its reboot finds no room (failure, settled at 0).  2: mode 1 on the
  // FPGA — its reboot is placed.  3: the divergence (exec changes).
  // 4, 5: mode-1 tasks after the divergence, which must see both reboots
  // settled rather than placing (or failing) them again.
  Crafted c = crafted(6, 0, {});
  c.problem.resources = {fpga({0, 5 * kMicrosecond}),
                         fpga({0, 5 * kMicrosecond}), serial()};
  c.problem.resources[0].concurrent = false;
  c.problem.task_exec[0] = kMillisecond;
  c.problem.task_resource = {0, 0, 1, 2, 0, 1};
  c.problem.task_mode = {-1, 1, 1, -1, 1, 1};
  const ScheduleResult base = run_list_scheduler(c.problem, c.levels);
  ASSERT_GE(base.placement_failures, 2);  // the reboot and task 1

  SchedProblem next = c.problem;
  next.task_exec[3] = 20 * kMicrosecond;
  expect_all_exact(next, c.levels, base, "reboots");
}

TEST(SchedResumeCrafted, FailedEdgeAndFailedInputsBeforeDivergence) {
  // Linked graph (ids 0..7): 0->1 saturates link B; 2->4 fits on link A
  // while 3->4 fails on B, so task 4 keeps one placed edge and counts as
  // failed; 5 (4->5) has failed inputs; 6 is the divergence; 7 (2->7 over
  // A) comes after it and must see 2->4's window on A.
  Crafted c = crafted(0, 8, {{0, 1}, {2, 4}, {3, 4}, {4, 5}, {2, 7}});
  c.problem.resources = {serial(), serial(), serial(), serial(), serial()};
  const int link_a = 3, link_b = 4;
  c.problem.task_resource = {0, 1, 0, 1, 2, 2, 0, 2};
  c.problem.edge_resource = {link_b, link_a, link_b, -1, link_a};
  c.problem.edge_comm = {kMillisecond, 30 * kMicrosecond, 30 * kMicrosecond,
                         0, 30 * kMicrosecond};
  const ScheduleResult base = run_list_scheduler(c.problem, c.levels);
  ASSERT_EQ(base.failed_edges, std::vector<int>{2});
  ASSERT_NE(base.edge_start[1], kNoTime);  // 2->4 placed before 3->4 failed
  ASSERT_EQ(base.task_finish[5], kNoTime);

  SchedProblem next = c.problem;
  next.task_exec[6] = 40 * kMicrosecond;
  expect_all_exact(next, c.levels, base, "failed edge");
}

TEST(SchedResumeCrafted, TaskMovedBetweenIdenticalPes) {
  // Two identical PEs; task 0 moves from PE 0 to PE 1, which tasks 1 and 2
  // then queue behind.  Its exec, mode and resource info are unchanged, so
  // only its resource index says its window cannot stay on PE 0.
  Crafted c = crafted(3, 0, {});
  c.problem.resources = {serial(), serial()};
  c.problem.task_resource = {0, 1, 1};
  const ScheduleResult base = run_list_scheduler(c.problem, c.levels);

  SchedProblem next = c.problem;
  next.task_resource[0] = 1;
  expect_all_exact(next, c.levels, base, "task moved");
  const ScheduleResult moved = run_list_scheduler(next, c.levels);
  expect_all_exact(c.problem, c.levels, moved, "task moved back");
}

TEST(SchedResumeCrafted, NewPeShiftsLinkIndices) {
  // PEs 0, 1 and link 2 carry 0->1 and 3->4; the new problem inserts PE 2
  // before the link (now resource 3) and moves task 2 onto it.  The link's
  // windows must not be restored onto the new PE at the link's old index.
  Crafted c = crafted(0, 5, {{0, 1}, {3, 4}});
  c.problem.resources = {serial(), serial(), serial()};
  c.problem.task_resource = {0, 1, 0, 0, 1};
  c.problem.edge_resource = {2, 2};
  c.problem.edge_comm = {50 * kMicrosecond, 50 * kMicrosecond};
  const ScheduleResult base = run_list_scheduler(c.problem, c.levels);

  SchedProblem next = c.problem;
  next.resources = {serial(), serial(), serial(), serial()};
  next.task_resource[2] = 2;
  next.edge_resource = {3, 3};
  expect_all_exact(next, c.levels, base, "new PE");
  // And back: the base has the extra PE, the new problem lost it.
  const ScheduleResult grown = run_list_scheduler(next, c.levels);
  expect_all_exact(c.problem, c.levels, grown, "PE removed");
}

TEST(SchedResumeCrafted, NewModeChangesModeBoot) {
  // Resource 1 is a two-mode FPGA.  The first new problem adds mode 2 (so
  // mode_boot grows) and moves task 3 into it; in the second, mode 0 grows
  // (a cluster joined it), which lengthens its reboot although no task
  // moved.
  Crafted c = crafted(5, 0, {});
  c.problem.resources = {serial(), fpga({4 * kMicrosecond,
                                         6 * kMicrosecond})};
  c.problem.task_resource = {0, 1, 1, 1, 0};
  c.problem.task_mode = {-1, 0, 1, 1, -1};
  const ScheduleResult base = run_list_scheduler(c.problem, c.levels);

  SchedProblem next = c.problem;
  next.resources[1].mode_boot.push_back(8 * kMicrosecond);
  next.task_mode[3] = 2;
  expect_all_exact(next, c.levels, base, "new mode");
  SchedProblem longer = c.problem;
  longer.resources[1].mode_boot[0] = 9 * kMicrosecond;
  expect_all_exact(longer, c.levels, base, "longer boot");
}

TEST(SchedResumeCrafted, PortAddedToLinkChangesEarlierComm) {
  // 0->1 and 2->3 share link 2; a third port slows every transfer on it,
  // including 0->1, which popped long before the newly wired 4->5.
  Crafted c = crafted(0, 6, {{0, 1}, {2, 3}, {4, 5}});
  c.problem.resources = {serial(), serial(), serial(), serial()};
  c.problem.task_resource = {0, 1, 0, 1, 0, 1};
  c.problem.edge_resource = {3, 3, -1};
  c.problem.edge_comm = {20 * kMicrosecond, 20 * kMicrosecond, 0};
  const ScheduleResult base = run_list_scheduler(c.problem, c.levels);

  SchedProblem next = c.problem;
  next.edge_comm = {25 * kMicrosecond, 25 * kMicrosecond, 25 * kMicrosecond};
  next.edge_resource[2] = 3;
  expect_all_exact(next, c.levels, base, "port added");
}

TEST(SchedResumeCrafted, EqualPriorityTieBrokenByTaskId) {
  // All four tasks share one priority, so task id decides the pop order.
  Crafted c = crafted(4, 0, {});
  c.problem.resources = {serial()};
  std::fill(c.levels.task.begin(), c.levels.task.end(), 1.0);
  SchedProblem middle = c.problem;
  middle.task_resource = {-1, 0, 0, -1};
  const ScheduleResult base = run_list_scheduler(middle, c.levels);
  ASSERT_EQ(base.record.steps.front().tid, 1);

  // Task 0 becomes schedulable and wins the tie at position 0; task 3 wins
  // no tie and joins at the end.
  SchedProblem lower = middle;
  lower.task_resource[0] = 0;
  expect_all_exact(lower, c.levels, base, "lower id");
  SchedProblem higher = middle;
  higher.task_resource[3] = 0;
  expect_all_exact(higher, c.levels, base, "higher id");
}

TEST(SchedResumeCrafted, CutResultIsRefusedAsBase) {
  // Task 0 fills resource 0's whole period, so task 1 fails there; task 2
  // has resource 1 to itself.
  Crafted c = crafted(3, 0, {});
  c.problem.resources = {serial(), serial()};
  c.problem.task_resource = {0, 0, 1};
  c.problem.task_exec[0] = kMillisecond;
  const ScheduleResult uncut = run_list_scheduler(c.problem, c.levels);
  ASSERT_EQ(uncut.placement_failures, 1);

  // Cut before the first pop (empty record) and after the failure.
  for (const ScheduleCutoff cutoff : {ScheduleCutoff{0, 0},
                                      ScheduleCutoff{1, 0}}) {
    const ScheduleResult cut =
        run_list_scheduler(c.problem, c.levels, nullptr, &cutoff);
    ASSERT_TRUE(cut.cut);
    EXPECT_FALSE(cut.feasible);
    EXPECT_EQ(cut.record.steps.size(), cutoff.failures == 0 ? 0u : 2u);
    EXPECT_THROW(run_list_scheduler(c.problem, c.levels, &cut), Error);
    EXPECT_THROW(run_list_scheduler(c.problem, c.levels, &cut, &cutoff),
                 Error);
  }
  // A cutoff the call never reaches cuts nothing.
  const ScheduleCutoff far{2, 0};
  EXPECT_TRUE(run_list_scheduler(c.problem, c.levels, &uncut, &far) == uncut);
}

TEST(SchedResumeCrafted, BaseFromOtherLevelsOrSpecIsRejected) {
  Crafted c = crafted(3, 0, {});
  c.problem.resources = {serial()};
  const ScheduleResult base = run_list_scheduler(c.problem, c.levels);
  PriorityLevels other = c.levels;
  other.task[1] += 1;
  EXPECT_THROW(run_list_scheduler(c.problem, other, &base), Error);

  // Same shape, one period doubled.
  Specification slower = *c.spec;
  TaskGraph g("slow", 2 * kMillisecond);
  g.add_task(c.spec->graphs[2].task(0));
  slower.graphs[2] = std::move(g);
  const FlatSpec slower_flat(slower);
  SchedProblem moved = c.problem;
  moved.flat = &slower_flat;
  EXPECT_THROW(run_list_scheduler(moved, c.levels, &base), Error);

  // A default-constructed base means "from scratch".
  EXPECT_TRUE(run_list_scheduler(c.problem, c.levels, &base) ==
              run_list_scheduler(c.problem, c.levels, nullptr));
  const ScheduleResult none;
  EXPECT_TRUE(run_list_scheduler(c.problem, c.levels, &none) == base);
}

// --- resume points after a new PE ----------------------------------------

/// The first list position of `schedule` whose pop reads a link: where a
/// resume stopped when one more PE shifted every link's index.
int first_link_pop(const ScheduleResult& schedule, const FlatSpec& flat) {
  const ScheduleRecord& rec = schedule.record;
  for (std::size_t k = 0; k + 1 < rec.steps.size(); ++k)
    for (int eid : flat.in_edges(rec.steps[k].tid))
      if (rec.problem.edge_resource[eid] >= 0) return static_cast<int>(k);
  return -1;
}

class SchedResumePoint : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedResumePoint, FreshPeKeepsEveryLinkMatched) {
  SpecGenerator generator(lib());
  const Specification spec =
      generator.generate(profile_config(profile_by_name(GetParam()), 0.03));
  const Commits c = committed(spec, /*reconfig=*/false);
  auto problem_of = [&](const Architecture& arch) {
    SchedProblem p = make_sched_problem(arch, *c.flat, c.task_cluster, {});
    p.task_optimistic = &c.optimistic;
    return p;
  };
  int past_links = 0;
  for (std::size_t k = 0; k < c.archs.size(); ++k) {
    const std::string what =
        std::string(GetParam()) + " commit " + std::to_string(k);
    const ScheduleResult base = run_list_scheduler(problem_of(c.archs[k]),
                                                   c.levels);
    // One empty fresh PE: every pop behaves as in the base.
    Architecture grown = c.archs[k];
    grown.add_pe(0);
    const SchedProblem fresh = problem_of(grown);
    EXPECT_EQ(resume_point(base, fresh, c.levels),
              static_cast<int>(base.record.steps.size()) - 1)
        << what << " plus an empty PE";
    expect_all_exact(fresh, c.levels, base, what + " plus an empty PE");
    // The next commit buys a PE: its resume passes the first pop that
    // reads a link whenever nothing before it changed.
    if (k + 1 == c.archs.size() ||
        c.archs[k + 1].pes.size() != c.archs[k].pes.size() + 1)
      continue;
    const int at = resume_point(base, problem_of(c.archs[k + 1]), c.levels);
    const int link_pop = first_link_pop(base, *c.flat);
    if (link_pop >= 0 && at > link_pop) ++past_links;
  }
  EXPECT_GT(past_links, 0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Table2Profiles, SchedResumePoint,
                         ::testing::Values("A1TR", "HROST", "ADMR", "NGXM"));

TEST(SchedResumeCrafted, FreshPeHostingAMovedTaskResumesAtItsPop) {
  // PEs 0, 1 and link 0 (resource 2) carry 0->1; tasks 2 and 3 are alone
  // on PE 0.  The new problem buys PE 2 (the link becomes resource 3) and
  // moves task 3 onto it: the resume keeps 0->1's window, which moves to
  // resource 3, and diverges at task 3's pop.
  Crafted c = crafted(0, 4, {{0, 1}});
  c.problem.link_base = 2;
  c.problem.resources = {serial(), serial(), serial()};
  c.problem.task_resource = {0, 1, 0, 0};
  c.problem.edge_resource = {2};
  c.problem.edge_comm = {50 * kMicrosecond};
  const ScheduleResult base = run_list_scheduler(c.problem, c.levels);
  ASSERT_EQ(first_link_pop(base, *c.flat), 1);

  SchedProblem next = c.problem;
  next.link_base = 3;
  next.resources.push_back(serial());
  next.task_resource[3] = 2;
  next.edge_resource = {3};
  EXPECT_EQ(resume_point(base, next, c.levels), 3);
  expect_all_exact(next, c.levels, base, "fresh PE");
  // A resume that keeps the whole prefix: only the link moved.
  SchedProblem idle = next;
  idle.task_resource[3] = 0;
  EXPECT_EQ(resume_point(base, idle, c.levels), 4);
  expect_all_exact(idle, c.levels, base, "idle fresh PE");
}

TEST(SchedResumeCrafted, FewerPesThanTheBase) {
  // The base has PEs 0-2 and link 0 at resource 3; the new problem drops
  // PE 2 (its task 3 moves to PE 1) and the link becomes resource 2.  The
  // link's windows still match, so the resume diverges at task 3's pop.
  Crafted c = crafted(0, 5, {{0, 1}});
  c.problem.link_base = 3;
  c.problem.resources = {serial(), serial(), serial(), serial()};
  c.problem.task_resource = {0, 1, 0, 2, 0};
  c.problem.edge_resource = {3};
  c.problem.edge_comm = {50 * kMicrosecond};
  const ScheduleResult base = run_list_scheduler(c.problem, c.levels);

  SchedProblem next = c.problem;
  next.link_base = 2;
  next.resources.pop_back();
  next.task_resource[3] = 1;
  next.edge_resource = {2};
  EXPECT_EQ(resume_point(base, next, c.levels), 3);
  expect_all_exact(next, c.levels, base, "fewer PEs");
  const ScheduleResult shrunk = run_list_scheduler(next, c.levels);
  EXPECT_EQ(resume_point(shrunk, c.problem, c.levels), 3);
  expect_all_exact(c.problem, c.levels, shrunk, "PE restored");
}

TEST(SchedResumeCrafted, HandBuiltProblemsMatchResourcesByIndex) {
  // NewPeShiftsLinkIndices' problems with link_base 0: the link's old
  // index 2 is the new PE's, so the pop that reads the link (task 1)
  // diverges.  With the PE count as link_base the link keeps its match
  // and the resume reaches task 2, the task that moved.
  Crafted c = crafted(0, 5, {{0, 1}, {3, 4}});
  c.problem.resources = {serial(), serial(), serial()};
  c.problem.task_resource = {0, 1, 0, 0, 1};
  c.problem.edge_resource = {2, 2};
  c.problem.edge_comm = {50 * kMicrosecond, 50 * kMicrosecond};
  SchedProblem next = c.problem;
  next.resources = {serial(), serial(), serial(), serial()};
  next.task_resource[2] = 2;
  next.edge_resource = {3, 3};
  const ScheduleResult by_index = run_list_scheduler(c.problem, c.levels);
  EXPECT_EQ(resume_point(by_index, next, c.levels), 1);

  c.problem.link_base = 2;
  next.link_base = 3;
  const ScheduleResult by_role = run_list_scheduler(c.problem, c.levels);
  EXPECT_EQ(resume_point(by_role, next, c.levels), 2);
  expect_all_exact(next, c.levels, by_role, "matched by role");
}

}  // namespace
}  // namespace crusade
