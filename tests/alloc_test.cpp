// Unit tests for clustering, the architecture model and the allocator.
#include <gtest/gtest.h>

#include "alloc/allocation.hpp"
#include "fpga/delay.hpp"
#include "tgff/generator.hpp"

namespace crusade {
namespace {

const ResourceLibrary& lib() {
  static const ResourceLibrary l = telecom_1999();
  return l;
}

Specification small_spec(std::uint64_t seed = 21, int tasks = 80) {
  SpecGenerator gen(lib());
  SpecGenConfig cfg;
  cfg.total_tasks = tasks;
  cfg.seed = seed;
  return gen.generate(cfg);
}

// --- clustering ---

TEST(ClusterTest, PartitionsEveryTaskExactlyOnce) {
  const Specification spec = small_spec();
  const FlatSpec flat(spec);
  const auto clusters = cluster_tasks(flat, lib(), ClusteringParams{});
  std::vector<int> owner(flat.task_count(), -1);
  for (const Cluster& c : clusters) {
    EXPECT_FALSE(c.tasks.empty());
    for (int tid : c.tasks) {
      EXPECT_EQ(owner[tid], -1) << "task in two clusters";
      owner[tid] = c.id;
    }
  }
  for (int tid = 0; tid < flat.task_count(); ++tid)
    EXPECT_NE(owner[tid], -1) << "unclustered task";
}

TEST(ClusterTest, NeverSpansGraphsAndRespectsSizeCap) {
  const Specification spec = small_spec();
  const FlatSpec flat(spec);
  for (const Cluster& c : cluster_tasks(flat, lib(), ClusteringParams{})) {
    EXPECT_LE(static_cast<int>(c.tasks.size()), kMaxClusterSize);
    for (int tid : c.tasks) EXPECT_EQ(flat.graph_of_task(tid), c.graph);
  }
}

TEST(ClusterTest, FeasibilityMaskNonEmptyAndAggregatesMatch) {
  const Specification spec = small_spec();
  const FlatSpec flat(spec);
  for (const Cluster& c : cluster_tasks(flat, lib(), ClusteringParams{})) {
    bool any = false;
    for (char f : c.feasible_pe) any = any || f;
    EXPECT_TRUE(any) << "cluster with no feasible PE type";
    std::int64_t memory = 0;
    int pfus = 0;
    for (int tid : c.tasks) {
      memory += flat.task(tid).memory.total();
      pfus += flat.task(tid).pfus;
    }
    EXPECT_EQ(c.memory, memory);
    EXPECT_EQ(c.pfus, pfus);
  }
}

TEST(ClusterTest, ExclusionsKeptApart) {
  Specification spec;
  TaskGraph g("x", 10 * kMillisecond);
  Task t;
  t.name = "t";
  t.exec.assign(lib().pe_count(), 100 * kMicrosecond);
  const int a = g.add_task(t);
  const int b = g.add_task(t);
  g.add_edge(a, b, 8);
  g.add_exclusion(a, b);
  spec.graphs.push_back(std::move(g));
  const FlatSpec flat(spec);
  for (const Cluster& c : cluster_tasks(flat, lib(), ClusteringParams{}))
    EXPECT_EQ(c.tasks.size(), 1u);  // the pair must not merge
}

TEST(ClusterTest, DisabledYieldsSingletons) {
  const Specification spec = small_spec();
  const FlatSpec flat(spec);
  ClusteringParams params;
  params.enabled = false;
  const auto clusters = cluster_tasks(flat, lib(), params);
  EXPECT_EQ(static_cast<int>(clusters.size()), flat.task_count());
}

TEST(ClusterTest, ClusteringReducesClusterCount) {
  const Specification spec = small_spec();
  const FlatSpec flat(spec);
  const auto on = cluster_tasks(flat, lib(), ClusteringParams{});
  EXPECT_LT(on.size(), static_cast<std::size_t>(flat.task_count()));
}

// --- architecture ---

TEST(ArchitectureTest, PlacementBookkeeping) {
  Architecture arch(&lib(), /*clusters=*/2, /*edges=*/1);
  const PeTypeId fpga = lib().find_pe("AT6005");
  const int pe = arch.add_pe(fpga);
  arch.place_cluster(0, pe, 0, /*graph=*/0, 1024, 600, 50, 10);
  EXPECT_EQ(arch.cluster_pe[0], pe);
  EXPECT_EQ(arch.pes[pe].modes[0].pfus_used, 50);
  EXPECT_TRUE(arch.pes[pe].alive());
  EXPECT_EQ(arch.live_pe_count(), 1);
  // New mode on a programmable device.
  arch.place_cluster(1, pe, 1, /*graph=*/1, 0, 0, 70, 12);
  EXPECT_EQ(arch.pes[pe].modes.size(), 2u);
  EXPECT_EQ(arch.total_modes(), 2);
  EXPECT_TRUE(arch.pes[pe].modes[1].has_graph(1));
}

TEST(ArchitectureTest, OnlyProgrammableGrowsModes) {
  Architecture arch(&lib(), 2, 0);
  const int cpu = arch.add_pe(lib().find_pe("MC68360"));
  arch.place_cluster(0, cpu, 0, 0, 1024, 0, 0, 0);
  EXPECT_THROW(arch.place_cluster(1, cpu, 1, 1, 1024, 0, 0, 0), Error);
}

TEST(ArchitectureTest, LinksAndCost) {
  Architecture arch(&lib(), 2, 0);
  const int a = arch.add_pe(lib().find_pe("MC68360"));
  const int b = arch.add_pe(lib().find_pe("MC68040"));
  const int link = arch.add_link(lib().find_link("680X0-bus"));
  arch.attach(link, a);
  arch.attach(link, b);
  EXPECT_EQ(arch.link_between(a, b), link);
  EXPECT_EQ(arch.link_between(b, a), link);
  arch.place_cluster(0, a, 0, 0, 8 << 20, 0, 0, 0);
  arch.place_cluster(1, b, 0, 0, 1024, 0, 0, 0);
  const CostBreakdown cost = arch.cost();
  EXPECT_DOUBLE_EQ(cost.pes, lib().pe(arch.pes[a].type).cost +
                                 lib().pe(arch.pes[b].type).cost);
  EXPECT_GT(cost.memory, 0);  // 8MB on the first CPU
  EXPECT_DOUBLE_EQ(cost.links, 6 + 2 * 2);
  EXPECT_EQ(arch.live_link_count(), 1);
}

TEST(ArchitectureTest, DeadPeAndEmptyLinkNotCounted) {
  Architecture arch(&lib(), 1, 0);
  arch.add_pe(lib().find_pe("MC68360"));  // never used
  arch.add_link(lib().find_link("680X0-bus"));
  EXPECT_EQ(arch.live_pe_count(), 0);
  EXPECT_EQ(arch.live_link_count(), 0);
  EXPECT_DOUBLE_EQ(arch.cost().total(), 0);
}

// --- allocator end-to-end on a small spec ---

struct AllocRun {
  Specification spec;
  std::vector<Cluster> clusters;
  AllocationOutcome outcome;
};

AllocRun run_allocator(std::uint64_t seed, bool use_modes) {
  AllocRun run{small_spec(seed, 70), {}, {}};
  static std::vector<std::unique_ptr<FlatSpec>> keep_alive;
  keep_alive.push_back(std::make_unique<FlatSpec>(run.spec));
  const FlatSpec& flat = *keep_alive.back();
  run.clusters = cluster_tasks(flat, lib(), ClusteringParams{});
  Allocator allocator(flat, lib(),
                      use_modes && run.spec.compatibility
                          ? &*run.spec.compatibility
                          : nullptr,
                      AllocParams{});
  run.outcome = allocator.run(run.clusters);
  return run;
}

TEST(AllocatorTest, PlacesEveryClusterAndMeetsDeadlines) {
  const AllocRun run = run_allocator(31, false);
  for (std::size_t c = 0; c < run.clusters.size(); ++c)
    EXPECT_GE(run.outcome.arch.cluster_pe[c], 0) << "unplaced cluster " << c;
  EXPECT_TRUE(run.outcome.feasible);
}

TEST(AllocatorTest, CapacitiesRespected) {
  const AllocRun run = run_allocator(32, true);
  const Architecture& arch = run.outcome.arch;
  DelayManagement delay;
  for (const PeInstance& inst : arch.pes) {
    if (!inst.alive()) continue;
    const PeType& type = lib().pe(inst.type);
    switch (type.kind) {
      case PeKind::Cpu:
        EXPECT_LE(inst.memory_used, type.memory_bytes);
        break;
      case PeKind::Asic:
        EXPECT_LE(inst.modes[0].gates_used, type.gates);
        EXPECT_LE(inst.modes[0].pins_used, type.pins);
        break;
      case PeKind::Fpga:
      case PeKind::Cpld:
        for (const Mode& m : inst.modes) {
          EXPECT_LE(m.pfus_used, delay.usable_pfus(type.pfus));
          EXPECT_LE(m.pins_used, delay.usable_pins(type.pins));
        }
        break;
    }
  }
}

TEST(AllocatorTest, TasksOnlyOnFeasibleTypes) {
  const AllocRun run = run_allocator(33, true);
  const FlatSpec flat(run.spec);
  for (int tid = 0; tid < flat.task_count(); ++tid) {
    const int c = run.outcome.task_cluster[tid];
    const int pe = run.outcome.arch.cluster_pe[c];
    ASSERT_GE(pe, 0);
    EXPECT_TRUE(flat.task(tid).feasible_on(run.outcome.arch.pes[pe].type));
  }
}

TEST(AllocatorTest, CrossPeEdgesHaveLinks) {
  const AllocRun run = run_allocator(34, false);
  const FlatSpec flat(run.spec);
  const Architecture& arch = run.outcome.arch;
  for (int eid = 0; eid < flat.edge_count(); ++eid) {
    const int cs = run.outcome.task_cluster[flat.edge_src(eid)];
    const int cd = run.outcome.task_cluster[flat.edge_dst(eid)];
    const int ps = arch.cluster_pe[cs];
    const int pd = arch.cluster_pe[cd];
    if (ps == pd) continue;
    const int link = arch.edge_link[eid];
    ASSERT_GE(link, 0) << "cross-PE edge without a link";
    EXPECT_TRUE(arch.links[link].is_attached(ps));
    EXPECT_TRUE(arch.links[link].is_attached(pd));
  }
}

TEST(AllocatorTest, ModesHoldOnlyCompatibleGraphs) {
  const AllocRun run = run_allocator(35, true);
  if (!run.spec.compatibility) GTEST_SKIP();
  const auto& compat = *run.spec.compatibility;
  for (const PeInstance& inst : run.outcome.arch.pes) {
    if (inst.modes.size() < 2) continue;
    // Graphs in different modes of one device must be pairwise compatible.
    for (std::size_t m1 = 0; m1 < inst.modes.size(); ++m1)
      for (std::size_t m2 = m1 + 1; m2 < inst.modes.size(); ++m2)
        for (int g1 : inst.modes[m1].graphs)
          for (int g2 : inst.modes[m2].graphs)
            EXPECT_TRUE(compat.compatible(g1, g2))
                << "incompatible graphs " << g1 << "," << g2
                << " time-share a device";
  }
}

TEST(AllocatorTest, ExclusionsLandOnDistinctPes) {
  const AllocRun run = run_allocator(36, false);
  const FlatSpec flat(run.spec);
  for (int tid = 0; tid < flat.task_count(); ++tid) {
    for (int other : flat.exclusions(tid)) {
      const int pa = run.outcome.arch.cluster_pe[run.outcome.task_cluster[tid]];
      const int pb =
          run.outcome.arch.cluster_pe[run.outcome.task_cluster[other]];
      EXPECT_NE(pa, pb) << "excluded pair shares a PE";
    }
  }
}

TEST(MakeSchedProblemTest, MapsAllocationFaithfully) {
  const AllocRun run = run_allocator(37, false);
  const FlatSpec flat(run.spec);
  const SchedProblem p = make_sched_problem(
      run.outcome.arch, flat, run.outcome.task_cluster, {}, true);
  EXPECT_EQ(p.resources.size(),
            run.outcome.arch.pes.size() + run.outcome.arch.links.size());
  for (int tid = 0; tid < flat.task_count(); ++tid) {
    const int pe = p.task_resource[tid];
    ASSERT_GE(pe, 0);
    EXPECT_EQ(p.task_exec[tid],
              flat.task(tid).exec[run.outcome.arch.pes[pe].type]);
    const PeType& type = lib().pe(run.outcome.arch.pes[pe].type);
    EXPECT_EQ(p.resources[pe].preemptive, type.kind == PeKind::Cpu);
    EXPECT_EQ(p.resources[pe].concurrent, type.is_hardware());
  }
}

}  // namespace
}  // namespace crusade
