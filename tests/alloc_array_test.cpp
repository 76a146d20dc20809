// Oracle for the allocation array: Allocator::enumerate, which builds one
// fresh PE per call and retypes it, must list the same entries as the old
// enumerate in reference_allocation.cpp, which costs every entry on its own
// copy of the base architecture — field by field, delta costs bit for bit,
// in the same order.
//
// Seeded workloads: Table 2's profiles at 0.03x with and without
// reconfiguration.  Every cluster the constructive loop enumerates is
// replayed from the commit sequence; repair's arrays (a placed cluster
// lifted off the architecture) and evacuation's (a device's residents
// re-placed on the rest, no fresh PEs) are built on the last committed
// architecture and on the final one.  A crafted library makes a
// preference the only thing that orders two fresh PEs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "core/crusade.hpp"
#include "reference_allocation.hpp"
#include "tgff/generator.hpp"
#include "tgff/profiles.hpp"

namespace crusade {
namespace {

using reference::AllocationArray;
using Candidate = AllocationArray::Candidate;

std::string describe(const Candidate& c) {
  return "pe " + std::to_string(c.pe) + " mode " + std::to_string(c.mode) +
         " new_type " + std::to_string(c.new_type) + " delta " +
         std::to_string(c.delta_cost) + " preference " +
         std::to_string(c.preference) + " created_mode " +
         std::to_string(c.created_mode) + " waste " +
         std::to_string(c.compat_waste);
}

bool same_entry(const Candidate& a, const Candidate& b) {
  return a.pe == b.pe && a.mode == b.mode && a.new_type == b.new_type &&
         std::bit_cast<std::uint64_t>(a.delta_cost) ==
             std::bit_cast<std::uint64_t>(b.delta_cost) &&
         std::bit_cast<std::uint64_t>(a.preference) ==
             std::bit_cast<std::uint64_t>(b.preference) &&
         a.created_mode == b.created_mode &&
         a.new_instance == b.new_instance &&
         a.compat_waste == b.compat_waste;
}

/// Counts what the comparisons covered, so a workload that stops
/// exercising the retype shows up as a failure, not a silent pass.
struct Coverage {
  int arrays = 0;
  int fresh_entries = 0;
  int evacuation_arrays = 0;
};

/// `actual` must equal `expected` entry by entry.
void expect_same_array(const std::vector<Candidate>& actual,
                       const std::vector<Candidate>& expected,
                       const std::string& what, Coverage& coverage) {
  ++coverage.arrays;
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(same_entry(actual[i], expected[i]))
        << what << ": entry " << i << " is " << describe(actual[i])
        << ", the reference has " << describe(expected[i]);
    if (actual[i].new_instance) ++coverage.fresh_entries;
  }
}

/// The array of `cluster` on `arch`, fresh PEs included.
void compare_arrays(Allocator& alloc, const Architecture& arch,
                    const Cluster& cluster,
                    const std::vector<int>& task_cluster,
                    const std::string& what, Coverage& coverage) {
  expect_same_array(
      AllocationArray::enumerate(alloc, arch, cluster, task_cluster, true),
      AllocationArray::reference(alloc, arch, cluster, task_cluster), what,
      coverage);
}

/// Repair's and evacuation's arrays on `arch`, as they build them: each
/// placed cluster lifted off it, and each live device's residents (largest
/// first) re-placed one by one on the rest, each at its cheapest entry off
/// the device.
void compare_post_allocation(Allocator& alloc, const Architecture& arch,
                             const std::vector<Cluster>& clusters,
                             const std::vector<int>& task_cluster,
                             const std::string& what, Coverage& coverage) {
  AllocationArray::relax_fpga_purity(alloc, true);
  for (const Cluster& cluster : clusters) {
    if (arch.cluster_pe[cluster.id] < 0) continue;
    Architecture stripped = arch;
    AllocationArray::unplace(alloc, stripped, cluster, clusters);
    compare_arrays(alloc, stripped, cluster, task_cluster,
                   what + " repair cluster " + std::to_string(cluster.id),
                   coverage);
  }
  for (int victim = 0; victim < static_cast<int>(arch.pes.size()); ++victim) {
    std::vector<int> residents;
    for (const Mode& m : arch.pes[victim].modes)
      for (int c : m.clusters) residents.push_back(c);
    std::sort(residents.begin(), residents.end(), [&](int a, int b) {
      return clusters[a].tasks.size() > clusters[b].tasks.size();
    });
    Architecture trial = arch;
    for (int c : residents) AllocationArray::unplace(alloc, trial, clusters[c],
                                                     clusters);
    for (int c : residents) {
      const std::vector<Candidate> array = AllocationArray::enumerate(
          alloc, trial, clusters[c], task_cluster, false);
      std::vector<Candidate> expected;
      for (const Candidate& cand : AllocationArray::reference(
               alloc, trial, clusters[c], task_cluster))
        if (!cand.new_instance) expected.push_back(cand);
      expect_same_array(array, expected,
                        what + " evacuating PE " + std::to_string(victim) +
                            " cluster " + std::to_string(c),
                        coverage);
      ++coverage.evacuation_arrays;
      int chosen = -1;
      for (std::size_t i = 0; i < array.size(); ++i)
        if (array[i].pe != victim &&
            (chosen < 0 || array[i].delta_cost < array[chosen].delta_cost))
          chosen = static_cast<int>(i);
      if (chosen < 0) break;
      AllocationArray::materialize(alloc, trial, array[chosen], clusters[c],
                                   task_cluster);
    }
  }
  AllocationArray::relax_fpga_purity(alloc, false);
}

void check_profile(const char* profile, bool reconfig) {
  const ResourceLibrary lib = telecom_1999();
  const Specification spec = SpecGenerator(lib).generate(
      profile_config(profile_by_name(profile), 0.03));
  const std::string name =
      std::string(profile) + (reconfig ? "" : " without reconfiguration");

  std::vector<AllocState> commits;
  CrusadeParams params;
  params.enable_reconfig = reconfig;
  params.progress_hook = [&](const AllocState& s) { commits.push_back(s); };
  const CrusadeResult result = Crusade(spec, lib, params).run();
  ASSERT_GE(commits.size(), 2u) << name;

  // The allocator Crusade::run builds, as far as the array reads it.
  const FlatSpec flat(spec);
  const CanonicalTimes canon = canonical_times(flat, lib);
  AllocParams alloc_params;
  alloc_params.pruned_pe_types = result.preflight.dominated_pes;
  alloc_params.pruned_link_types = result.preflight.dominated_links;
  const CompatibilityMatrix* compat =
      reconfig && spec.compatibility ? &*spec.compatibility : nullptr;
  Allocator alloc(flat, lib, canon, compat, alloc_params);

  // The constructive loop enumerates the cluster each commit places, on
  // the architecture the commit before left.
  Coverage coverage;
  AllocState before;
  before.arch = Architecture(&lib, static_cast<int>(result.clusters.size()),
                             flat.edge_count());
  before.placed.assign(result.clusters.size(), 0);
  for (std::size_t k = 0; k < commits.size(); ++k) {
    int placed = -1;
    for (std::size_t c = 0; c < result.clusters.size(); ++c)
      if (commits[k].placed[c] && !before.placed[c])
        placed = static_cast<int>(c);
    ASSERT_GE(placed, 0) << name << ": commit " << k << " placed nothing";
    compare_arrays(alloc, before.arch, result.clusters[placed],
                   result.task_cluster,
                   name + " commit " + std::to_string(k), coverage);
    if (::testing::Test::HasFatalFailure()) return;
    before = commits[k];
  }
  compare_post_allocation(alloc, commits.back().arch, result.clusters,
                          result.task_cluster, name + " allocated", coverage);
  compare_post_allocation(alloc, result.arch, result.clusters,
                          result.task_cluster, name + " final", coverage);
  EXPECT_GT(coverage.fresh_entries, coverage.arrays / 2) << name;
  EXPECT_GT(coverage.evacuation_arrays, 0) << name;
}

class AllocationArrayOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(AllocationArrayOracle, MatchesTheReferenceEntryByEntry) {
  check_profile(GetParam(), /*reconfig=*/true);
  check_profile(GetParam(), /*reconfig=*/false);
}

INSTANTIATE_TEST_SUITE_P(Table2Profiles, AllocationArrayOracle,
                         ::testing::Values("A1TR", "VDRTX", "HROST",
                                           "EST189A", "HRXC", "ADMR", "B192G",
                                           "NGXM"));

// Two CPU types alike in everything but name, and a task that prefers the
// second: only the preference orders their fresh-PE entries, so the
// allocator must buy the second.
TEST(AllocationArrayCrafted, PreferenceOrdersEqualPricedFreshPes) {
  ResourceLibrary lib;
  PeType cpu;
  cpu.kind = PeKind::Cpu;
  cpu.cost = 100;
  cpu.memory_bytes = 16 * 1024 * 1024;
  cpu.memory_cost_per_mb = 2;
  cpu.name = "first";
  lib.add_pe(cpu);
  cpu.name = "preferred";
  lib.add_pe(cpu);
  LinkType bus;
  bus.name = "bus";
  bus.cost = 10;
  bus.max_ports = 8;
  bus.access_time = {0, kMicrosecond};
  bus.packet_time = kMicrosecond;
  lib.add_link(bus);

  Specification spec;
  TaskGraph g("g", kMillisecond);
  Task t;
  t.name = "t";
  t.exec = {100 * kMicrosecond, 100 * kMicrosecond};
  t.preference = {0.0, 1.0};
  t.memory.program = 1024 * 1024;
  t.deadline = 500 * kMicrosecond;
  g.add_task(t);
  spec.graphs.push_back(std::move(g));

  const FlatSpec flat(spec);
  const CanonicalTimes canon = canonical_times(flat, lib);
  const std::vector<Cluster> clusters =
      cluster_tasks(flat, lib, canon, ClusteringParams{});
  ASSERT_EQ(clusters.size(), 1u);
  const std::vector<int> task_cluster =
      task_to_cluster(clusters, flat.task_count());
  Allocator alloc(flat, lib, canon, nullptr, AllocParams{});

  const Architecture empty(&lib, 1, flat.edge_count());
  const std::vector<Candidate> array =
      AllocationArray::enumerate(alloc, empty, clusters[0], task_cluster, true);
  Coverage coverage;
  expect_same_array(array,
                    AllocationArray::reference(alloc, empty, clusters[0],
                                               task_cluster),
                    "crafted", coverage);
  ASSERT_EQ(array.size(), 2u);
  EXPECT_EQ(array[0].delta_cost, array[1].delta_cost);
  EXPECT_EQ(array[1].preference, 1.0);

  const AllocationOutcome outcome = alloc.run(clusters);
  ASSERT_TRUE(outcome.feasible);
  ASSERT_EQ(outcome.arch.cluster_pe[0], 0);
  EXPECT_EQ(lib.pe(outcome.arch.pes[0].type).name, "preferred");
}

}  // namespace
}  // namespace crusade
