// Unit tests for the scheduler stack: flattened spec, priority levels,
// timelines and the list scheduler (preemption, reboots, estimation).
#include <gtest/gtest.h>

#include "sched/scheduler.hpp"

namespace crusade {
namespace {

constexpr int kPeTypes = 2;

Task simple_task(TimeNs exec, TimeNs deadline = kNoTime) {
  Task t;
  t.name = "t";
  t.exec.assign(kPeTypes, exec);
  t.deadline = deadline;
  return t;
}

/// spec with one chain graph a->b->c (period 10ms) and one independent task
/// (period 1ms).
Specification two_graph_spec() {
  Specification spec;
  TaskGraph chain("chain", 10 * kMillisecond);
  const int a = chain.add_task(simple_task(kMillisecond));
  const int b = chain.add_task(simple_task(2 * kMillisecond));
  const int c = chain.add_task(simple_task(kMillisecond, 8 * kMillisecond));
  chain.add_edge(a, b, 64);
  chain.add_edge(b, c, 64);
  spec.graphs.push_back(std::move(chain));
  TaskGraph fast("fast", kMillisecond);
  fast.add_task(simple_task(100 * kMicrosecond, kMillisecond));
  spec.graphs.push_back(std::move(fast));
  return spec;
}

TEST(FlatSpecTest, IdMappingRoundTrips) {
  const Specification spec = two_graph_spec();
  const FlatSpec flat(spec);
  EXPECT_EQ(flat.task_count(), 4);
  EXPECT_EQ(flat.edge_count(), 2);
  EXPECT_EQ(flat.graph_count(), 2);
  EXPECT_EQ(flat.task_id(1, 0), 3);
  EXPECT_EQ(flat.graph_of_task(3), 1);
  EXPECT_EQ(flat.local_task(3), 0);
  EXPECT_EQ(flat.period(0), 10 * kMillisecond);
  EXPECT_EQ(flat.period(3), kMillisecond);
  EXPECT_EQ(flat.hyperperiod(), 10 * kMillisecond);
  EXPECT_EQ(flat.absolute_deadline(2), 8 * kMillisecond);
  EXPECT_EQ(flat.absolute_deadline(0), kNoTime);
  EXPECT_EQ(flat.topo_order().size(), 4u);
}

TEST(PriorityTest, SinkLevelIsExecMinusDeadline) {
  const Specification spec = two_graph_spec();
  const FlatSpec flat(spec);
  std::vector<TimeNs> task_time = {1000, 2000, 1000, 500};
  std::vector<TimeNs> edge_time = {10, 20};
  const PriorityLevels levels = priority_levels(flat, task_time, edge_time);
  EXPECT_DOUBLE_EQ(levels.task[2],
                   1000.0 - static_cast<double>(8 * kMillisecond));
  // Upstream levels accumulate exec + comm along the path.
  EXPECT_DOUBLE_EQ(levels.task[1], 2000 + 20 + levels.task[2]);
  EXPECT_DOUBLE_EQ(levels.task[0], 1000 + 10 + levels.task[1]);
  // Priorities strictly decrease downstream along a chain.
  EXPECT_GT(levels.task[0], levels.task[1]);
  EXPECT_GT(levels.task[1], levels.task[2]);
}

TEST(TimelineTest, EarliestFitOnEmptyIsReady) {
  Timeline tl;
  EXPECT_EQ(tl.earliest_fit(123, 10, 1000, -1), 123);
}

TEST(TimelineTest, EarliestFitSkipsBusyWindow) {
  Timeline tl;
  tl.add(0, 100, 1000, -1, 0);
  EXPECT_EQ(tl.earliest_fit(0, 50, 1000, -1), 100);
}

TEST(TimelineTest, ModesDoNotConflict) {
  Timeline tl;
  tl.add(0, 100, 1000, /*mode=*/0, 0);
  // A different reconfiguration mode shares the silicon temporally.
  EXPECT_EQ(tl.earliest_fit(0, 50, 1000, /*mode=*/1), 0);
  // The same mode conflicts.
  EXPECT_EQ(tl.earliest_fit(0, 50, 1000, /*mode=*/0), 100);
  // Modeless conflicts with everything.
  EXPECT_EQ(tl.earliest_fit(0, 50, 1000, /*mode=*/-1), 100);
}

TEST(TimelineTest, IgnoreBandsFilterByPeriod) {
  Timeline tl;
  tl.add(0, 100, 1000, -1, 0);     // fast window
  tl.add(0, 100, 100'000, -1, 1);  // slow window
  // Ignoring below 10'000 skips the fast window; the slow one still blocks.
  EXPECT_EQ(tl.earliest_fit(0, 50, 10'000, -1, /*ignore_below=*/10'000), 100);
  // Ignoring above too: nothing blocks.
  EXPECT_EQ(tl.earliest_fit(0, 50, 10'000, -1, 10'000, 10'000), 0);
}

TEST(TimelineTest, SaturatedRingHasNoFit) {
  // Ten 90 ns windows every 1000 ns, inserted out of time order, leave
  // 10 ns gaps: a 20 ns window fits in none of them, a 10 ns one in each.
  Timeline tl;
  for (int i = 9; i >= 0; --i) tl.add(100 * i, 100 * i + 90, 1000, -1, i);
  EXPECT_EQ(tl.earliest_fit(0, 20, 1000, -1), kNoTime);
  EXPECT_EQ(tl.earliest_fit(0, 20, 4000, -1), kNoTime);
  EXPECT_EQ(tl.earliest_fit(0, 10, 1000, -1), 90);
  EXPECT_EQ(tl.earliest_fit(95, 10, 4000, -1), 190);
}

TEST(TimelineTest, JointlySaturatingShortPeriodsEndAtTheBound) {
  // [0, 5) and [5, 10) every 10 ns cover their period only together, so
  // each clears a 1 ns window alone and shifts it by 5 ns.  The
  // minute-period window shifts the start first, so the conflict pattern
  // repeats only every minute: without its shift bound the sweep would
  // walk 6e9 cycles of 10 ns before it gave up.
  Timeline tl;
  tl.add(0, 3, kMinute, -1, 0);
  tl.add(0, 5, 10, -1, 1);
  tl.add(5, 10, 10, -1, 2);
  EXPECT_EQ(tl.earliest_fit(0, 1, kMinute, -1), kNoTime);
}

TEST(TimelineTest, RejectsNonPositivePeriods) {
  Timeline tl;
  EXPECT_THROW(tl.add(0, 10, 0, -1, 0), Error);
  EXPECT_THROW(tl.earliest_fit(0, 10, 0, -1), Error);
  EXPECT_TRUE(tl.windows().empty());
}

TEST(TimelineTest, PreemptorsAndUtilization) {
  Timeline tl;
  tl.add(0, 100, 1000, -1, 0, /*work=*/80);
  tl.add(0, 500, 100'000, -1, 1, /*work=*/400);
  const auto hp = tl.preemptors(10'000, -1);
  ASSERT_EQ(hp.size(), 1u);
  EXPECT_EQ(hp[0].exec, 80);  // pure work, not the inflated span
  EXPECT_EQ(hp[0].period, 1000);
  EXPECT_DOUBLE_EQ(tl.utilization_above(10'000, -1), 400.0 / 100'000);
  EXPECT_NEAR(tl.utilization(), 80.0 / 1000 + 400.0 / 100'000, 1e-12);
}

// --- list scheduler ---

SchedProblem one_resource_problem(const FlatSpec& flat, bool preemptive,
                                  bool concurrent = false) {
  SchedProblem p;
  p.flat = &flat;
  p.resources.push_back(
      SchedResourceInfo{preemptive, concurrent, 10 * kMicrosecond, {}});
  p.task_resource.assign(flat.task_count(), 0);
  p.task_mode.assign(flat.task_count(), -1);
  p.task_exec.resize(flat.task_count());
  for (int t = 0; t < flat.task_count(); ++t)
    p.task_exec[t] = flat.task(t).exec[0];
  p.edge_resource.assign(flat.edge_count(), -1);
  p.edge_comm.assign(flat.edge_count(), 0);
  return p;
}

TEST(SchedulerTest, ChainRespectsPrecedence) {
  const Specification spec = two_graph_spec();
  const FlatSpec flat(spec);
  SchedProblem p = one_resource_problem(flat, /*preemptive=*/false,
                                        /*concurrent=*/true);
  const PriorityLevels levels =
      priority_levels(flat, p.task_exec,
                      std::vector<TimeNs>(flat.edge_count(), 0));
  const ScheduleResult r = run_list_scheduler(p, levels);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.scheduled_tasks, 4);
  // Precedence: b starts after a finishes, c after b.
  EXPECT_GE(r.task_start[1], r.task_finish[0]);
  EXPECT_GE(r.task_start[2], r.task_finish[1]);
  EXPECT_TRUE(r.deadline_met(2, flat));
}

TEST(SchedulerTest, SerialResourceSerializes) {
  Specification spec;
  TaskGraph g("par", 10 * kMillisecond);
  g.add_task(simple_task(kMillisecond, 10 * kMillisecond));
  g.add_task(simple_task(kMillisecond, 10 * kMillisecond));
  spec.graphs.push_back(std::move(g));
  const FlatSpec flat(spec);
  SchedProblem p = one_resource_problem(flat, false, false);
  const PriorityLevels levels =
      priority_levels(flat, p.task_exec,
                      std::vector<TimeNs>(flat.edge_count(), 0));
  const ScheduleResult r = run_list_scheduler(p, levels);
  ASSERT_TRUE(r.feasible);
  // Non-preemptive serial resource: the two windows must not overlap.
  const bool disjoint = r.task_finish[0] <= r.task_start[1] ||
                        r.task_finish[1] <= r.task_start[0];
  EXPECT_TRUE(disjoint);
}

TEST(SchedulerTest, ConcurrentHardwareOverlaps) {
  Specification spec;
  TaskGraph g("par", 10 * kMillisecond);
  g.add_task(simple_task(kMillisecond, 10 * kMillisecond));
  g.add_task(simple_task(kMillisecond, 10 * kMillisecond));
  spec.graphs.push_back(std::move(g));
  const FlatSpec flat(spec);
  SchedProblem p = one_resource_problem(flat, false, /*concurrent=*/true);
  const PriorityLevels levels =
      priority_levels(flat, p.task_exec,
                      std::vector<TimeNs>(flat.edge_count(), 0));
  const ScheduleResult r = run_list_scheduler(p, levels);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.task_start[0], 0);
  EXPECT_EQ(r.task_start[1], 0);  // dedicated circuits run in parallel
}

TEST(SchedulerTest, PreemptionInflatesLowerRateTask) {
  Specification spec;
  TaskGraph fast("fast", kMillisecond);
  fast.add_task(simple_task(200 * kMicrosecond, kMillisecond));
  spec.graphs.push_back(std::move(fast));
  TaskGraph slow("slow", 100 * kMillisecond);
  slow.add_task(simple_task(10 * kMillisecond, 100 * kMillisecond));
  spec.graphs.push_back(std::move(slow));
  const FlatSpec flat(spec);
  SchedProblem p = one_resource_problem(flat, /*preemptive=*/true);
  const PriorityLevels levels =
      priority_levels(flat, p.task_exec,
                      std::vector<TimeNs>(flat.edge_count(), 0));
  const ScheduleResult r = run_list_scheduler(p, levels);
  ASSERT_TRUE(r.feasible);
  // The 10ms task shares the CPU with a 200us-every-1ms task (20% + OS
  // overhead per preemption): its busy window must stretch well beyond 10ms.
  const TimeNs slow_tid = flat.task_id(1, 0);
  const TimeNs busy = r.task_finish[slow_tid] - r.task_start[slow_tid];
  EXPECT_GT(busy, 12 * kMillisecond);
}

TEST(SchedulerTest, RebootTaskDelaysModeStart) {
  Specification spec;
  TaskGraph g("modeful", 100 * kMillisecond);
  g.add_task(simple_task(kMillisecond, 100 * kMillisecond));
  spec.graphs.push_back(std::move(g));
  const FlatSpec flat(spec);
  SchedProblem p = one_resource_problem(flat, false, /*concurrent=*/true);
  p.resources[0].mode_boot = {5 * kMillisecond, 5 * kMillisecond};
  p.task_mode[0] = 1;
  const PriorityLevels levels =
      priority_levels(flat, p.task_exec,
                      std::vector<TimeNs>(flat.edge_count(), 0));
  const ScheduleResult r = run_list_scheduler(p, levels);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.task_start[0], 5 * kMillisecond);  // after the reconfiguration
}

TEST(SchedulerTest, CommunicationOccupiesLink) {
  const Specification spec = two_graph_spec();
  const FlatSpec flat(spec);
  SchedProblem p = one_resource_problem(flat, false, /*concurrent=*/true);
  // Put task b on a second resource; its input edge rides resource 2 (link).
  p.resources.push_back(SchedResourceInfo{false, true, 0, {}});
  p.resources.push_back(SchedResourceInfo{false, false, 0, {}});  // link
  p.task_resource[1] = 1;
  p.edge_resource[0] = 2;
  p.edge_comm[0] = 300 * kMicrosecond;
  const PriorityLevels levels =
      priority_levels(flat, p.task_exec, p.edge_comm);
  const ScheduleResult r = run_list_scheduler(p, levels);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.edge_start[0], r.task_finish[0]);
  EXPECT_EQ(r.edge_finish[0], r.edge_start[0] + 300 * kMicrosecond);
  EXPECT_GE(r.task_start[1], r.edge_finish[0]);
  // The link timeline actually holds the transfer.
  EXPECT_EQ(r.timelines[2].windows().size(), 1u);
}

TEST(SchedulerTest, MissedDeadlineCountsTardiness) {
  Specification spec;
  TaskGraph g("late", 10 * kMillisecond);
  g.add_task(simple_task(2 * kMillisecond, kMillisecond));  // impossible
  spec.graphs.push_back(std::move(g));
  const FlatSpec flat(spec);
  SchedProblem p = one_resource_problem(flat, false, true);
  const PriorityLevels levels =
      priority_levels(flat, p.task_exec,
                      std::vector<TimeNs>(flat.edge_count(), 0));
  const ScheduleResult r = run_list_scheduler(p, levels);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.total_tardiness, kMillisecond);
}

TEST(SchedulerTest, UnallocatedAncestryIsSkipped) {
  const Specification spec = two_graph_spec();
  const FlatSpec flat(spec);
  SchedProblem p = one_resource_problem(flat, false, true);
  p.task_resource[0] = -1;  // chain head unallocated
  const PriorityLevels levels =
      priority_levels(flat, p.task_exec,
                      std::vector<TimeNs>(flat.edge_count(), 0));
  const ScheduleResult r = run_list_scheduler(p, levels);
  EXPECT_EQ(r.task_start[0], kNoTime);
  EXPECT_EQ(r.task_start[1], kNoTime);  // depends on unallocated ancestor
  EXPECT_EQ(r.task_start[2], kNoTime);
  EXPECT_NE(r.task_start[3], kNoTime);  // independent graph still runs
}

TEST(SchedulerTest, EstimationFlagsDoomedDeadline) {
  Specification spec;
  TaskGraph g("doomed", 10 * kMillisecond);
  const int a = g.add_task(simple_task(9 * kMillisecond));
  const int b = g.add_task(simple_task(2 * kMillisecond, 10 * kMillisecond));
  g.add_edge(a, b, 8);
  spec.graphs.push_back(std::move(g));
  const FlatSpec flat(spec);
  SchedProblem p = one_resource_problem(flat, false, true);
  p.task_resource[b] = -1;  // sink not yet allocated
  std::vector<TimeNs> optimistic = {9 * kMillisecond, 2 * kMillisecond};
  p.task_optimistic = &optimistic;
  const PriorityLevels levels =
      priority_levels(flat, p.task_exec,
                      std::vector<TimeNs>(flat.edge_count(), 0));
  const ScheduleResult r = run_list_scheduler(p, levels);
  // a finishes at 9ms; even the optimistic 2ms remainder misses 10ms.
  EXPECT_EQ(r.estimated_tardiness, kMillisecond);
  EXPECT_EQ(r.total_tardiness, 0);
}

TEST(SchedulerTest, GraphBusyWindows) {
  const Specification spec = two_graph_spec();
  const FlatSpec flat(spec);
  SchedProblem p = one_resource_problem(flat, false, true);
  const PriorityLevels levels =
      priority_levels(flat, p.task_exec,
                      std::vector<TimeNs>(flat.edge_count(), 0));
  const ScheduleResult r = run_list_scheduler(p, levels);
  const auto windows = graph_busy_windows(flat, r);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].size(), 3u);  // three tasks, no routed edges
  EXPECT_EQ(windows[1].size(), 1u);
  for (const auto& w : windows[0]) EXPECT_EQ(w.period, 10 * kMillisecond);
}

}  // namespace
}  // namespace crusade
