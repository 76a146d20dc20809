// Tests for the release extensions: power model, power cap, schedule dump,
// device evacuation and the shipped data files.
#include <gtest/gtest.h>

#include <fstream>

#include "core/crusade.hpp"
#include "core/report.hpp"
#include "core/field_upgrade.hpp"
#include "graph/spec_io.hpp"
#include "tgff/generator.hpp"

namespace crusade {
namespace {

const ResourceLibrary& lib() {
  static const ResourceLibrary l = telecom_1999();
  return l;
}

TEST(PowerModelTest, LibraryCarriesPowerRatings) {
  for (const PeType& pe : lib().pes())
    EXPECT_GT(pe.power_mw, 0) << pe.name;
  // Faster CPUs draw more.
  EXPECT_GT(lib().pe(lib().find_pe("MC68060")).power_mw,
            lib().pe(lib().find_pe("MC68360")).power_mw);
}

TEST(PowerModelTest, ArchitecturePowerSumsLivePes) {
  Architecture arch(&lib(), 2, 0);
  const int a = arch.add_pe(lib().find_pe("MC68360"));
  arch.add_pe(lib().find_pe("MC68060"));  // dead: never hosts a cluster
  arch.place_cluster(0, a, 0, 0, 4 << 20, 0, 0, 0);
  const double expected =
      lib().pe(lib().find_pe("MC68360")).power_mw + 1.0;  // 4MB DRAM ~ 1mW
  EXPECT_NEAR(arch.power_mw(), expected, 1e-9);
}

TEST(PowerModelTest, ResultReportsPower) {
  SpecGenerator gen(lib());
  SpecGenConfig cfg;
  cfg.total_tasks = 40;
  cfg.seed = 17;
  const Specification spec = gen.generate(cfg);
  const CrusadeResult r = Crusade(spec, lib(), {}).run();
  EXPECT_GT(r.power_mw, 0);
  EXPECT_NE(describe_result(r).find("power:"), std::string::npos);
}

TEST(PowerModelTest, PowerCapSteersAllocation) {
  SpecGenerator gen(lib());
  SpecGenConfig cfg;
  cfg.total_tasks = 50;
  cfg.seed = 18;
  const Specification spec = gen.generate(cfg);
  const CrusadeResult unconstrained = Crusade(spec, lib(), {}).run();
  CrusadeParams capped;
  // A cap below the unconstrained draw (but generous enough to be reachable)
  // must not be exceeded when alternatives exist.
  capped.power_cap_mw = unconstrained.power_mw * 0.9;
  const CrusadeResult r = Crusade(spec, lib(), capped).run();
  // The heuristic prefers under-cap candidates; the result should not blow
  // far past the unconstrained baseline.
  EXPECT_LT(r.power_mw, unconstrained.power_mw * 1.5);
}

TEST(ScheduleDumpTest, ListsResourcesAndWindows) {
  SpecGenerator gen(lib());
  SpecGenConfig cfg;
  cfg.total_tasks = 30;
  cfg.seed = 19;
  const Specification spec = gen.generate(cfg);
  const CrusadeResult r = Crusade(spec, lib(), {}).run();
  const FlatSpec flat(spec);
  const std::string dump = dump_schedule(r, flat);
  EXPECT_NE(dump.find("#"), std::string::npos);   // resource headers
  EXPECT_NE(dump.find("["), std::string::npos);   // windows
  EXPECT_NE(dump.find("@"), std::string::npos);   // periods
  EXPECT_NE(dump.find("task "), std::string::npos);
  // Truncation honours max_rows.
  const std::string tiny = dump_schedule(r, flat, 3);
  EXPECT_LT(tiny.size(), dump.size());
}

TEST(EvacuationTest, ConsolidatesUnderfilledDevices) {
  // Two half-empty FPGAs hosting the same graph must fold into one.
  Specification spec;
  TaskGraph g("g", 100 * kMillisecond);
  for (int i = 0; i < 2; ++i) {
    Task t;
    t.name = "t" + std::to_string(i);
    t.exec.assign(lib().pe_count(), kNoTime);
    t.exec[lib().find_pe("AT6005")] = kMillisecond;
    t.pfus = 200;
    t.pins = 20;
    t.deadline = 100 * kMillisecond;
    g.add_task(std::move(t));
  }
  spec.graphs.push_back(std::move(g));
  const FlatSpec flat(spec);
  const CanonicalTimes canon = canonical_times(flat, lib());
  const auto clusters = cluster_tasks(flat, lib(), canon, ClusteringParams{});
  ASSERT_EQ(clusters.size(), 2u);  // no edges: two singleton clusters

  Allocator allocator(flat, lib(), canon, nullptr, AllocParams{});
  AllocationOutcome outcome;
  outcome.task_cluster = task_to_cluster(clusters, flat.task_count());
  outcome.arch = Architecture(&lib(), 2, 0);
  const PeTypeId at = lib().find_pe("AT6005");
  // Deliberately wasteful: one device per cluster.
  for (int c = 0; c < 2; ++c) {
    const int pe = outcome.arch.add_pe(at);
    outcome.arch.place_cluster(c, pe, 0, 0, 0, clusters[c].gates,
                               clusters[c].pfus, clusters[c].pins);
  }
  SchedProblem p = make_sched_problem(outcome.arch, flat,
                                      outcome.task_cluster, {}, true);
  outcome.schedule =
      run_list_scheduler(p, scheduling_levels(flat, lib()));
  ASSERT_TRUE(outcome.schedule.feasible);
  const double cost_before = outcome.arch.cost().total();

  const int emptied = allocator.evacuate_devices(outcome, clusters);
  EXPECT_EQ(emptied, 1);
  EXPECT_EQ(outcome.arch.live_pe_count(), 1);
  EXPECT_LT(outcome.arch.cost().total(), cost_before);
  EXPECT_TRUE(outcome.schedule.feasible);
}

TEST(DataFilesTest, ShippedSpecParsesAndSynthesizes) {
  std::ifstream in("data/figure2.spec");
  if (!in) GTEST_SKIP() << "run from the repository root";
  const Specification spec = read_specification(in, lib());
  EXPECT_EQ(spec.graphs.size(), 3u);
  ASSERT_TRUE(spec.compatibility.has_value());
  EXPECT_TRUE(spec.compatibility->compatible(1, 2));
  const CrusadeResult r = Crusade(spec, lib(), {}).run();
  EXPECT_TRUE(r.feasible);
}

TEST(FieldUpgradeTest, SameSpecAlwaysFitsItsOwnArchitecture) {
  SpecGenerator gen(lib());
  SpecGenConfig cfg;
  cfg.total_tasks = 60;
  cfg.seed = 27;
  const Specification spec = gen.generate(cfg);
  const CrusadeResult deployed = Crusade(spec, lib(), {}).run();
  ASSERT_TRUE(deployed.feasible);
  const FieldUpgradeResult upgrade =
      try_field_upgrade(spec, lib(), deployed.arch);
  EXPECT_TRUE(upgrade.accommodated);
  // No hardware change: the device set is identical.
  EXPECT_EQ(upgrade.arch.pes.size(), deployed.arch.pes.size());
  for (std::size_t pe = 0; pe < deployed.arch.pes.size(); ++pe)
    EXPECT_EQ(upgrade.arch.pes[pe].type, deployed.arch.pes[pe].type);
}

TEST(FieldUpgradeTest, BugFixSizedChangeFits) {
  SpecGenerator gen(lib());
  SpecGenConfig cfg;
  cfg.total_tasks = 60;
  cfg.seed = 28;
  Specification spec = gen.generate(cfg);
  const CrusadeResult deployed = Crusade(spec, lib(), {}).run();
  ASSERT_TRUE(deployed.feasible);
  // A field bug fix: one task's logic shrinks slightly and runs 10% slower.
  Task& patched = spec.graphs[0].task(0);
  for (TimeNs& t : patched.exec)
    if (t != kNoTime) t += t / 10;
  const FieldUpgradeResult upgrade =
      try_field_upgrade(spec, lib(), deployed.arch);
  EXPECT_TRUE(upgrade.accommodated);
}

TEST(FieldUpgradeTest, OversizedFeatureIsRejected) {
  SpecGenerator gen(lib());
  SpecGenConfig cfg;
  cfg.total_tasks = 40;
  cfg.seed = 29;
  Specification spec = gen.generate(cfg);
  const CrusadeResult deployed = Crusade(spec, lib(), {}).run();
  ASSERT_TRUE(deployed.feasible);
  // A feature addition far beyond the board: quadruple the workload.
  SpecGenConfig big = cfg;
  big.total_tasks = 160;
  big.seed = 30;
  const Specification feature = gen.generate(big);
  const FieldUpgradeResult upgrade =
      try_field_upgrade(feature, lib(), deployed.arch);
  EXPECT_FALSE(upgrade.accommodated);
  EXPECT_GT(upgrade.unplaceable_clusters + (upgrade.schedule.feasible ? 0 : 1),
            0);
}

}  // namespace
}  // namespace crusade
