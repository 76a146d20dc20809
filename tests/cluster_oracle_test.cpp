// Differential oracle for critical-path clustering: cluster_tasks, which
// keeps the growing cluster's requirement sums and updates priority levels
// only upstream of each new cluster, must return exactly the clusters of
// the old code kept in reference_cluster.cpp — member order, masks, sums,
// and preference and priority bit for bit.
//
// Inputs: Table 2's eight profiles at 0.03x and 0.10x, and Table 3's five
// at 0.02x after the FT transform, each for the benchmark's seeds 1-5
// (generator seed = profile seed + 1000 (seed - 1)), clustering on and off.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "ft/transform.hpp"
#include "reference_cluster.hpp"
#include "resources/resource_library.hpp"
#include "tgff/generator.hpp"
#include "tgff/profiles.hpp"

namespace crusade {
namespace {

const ResourceLibrary& lib() {
  static const ResourceLibrary l = telecom_1999();
  return l;
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

void expect_same_clusters(const Specification& spec, const std::string& what) {
  const FlatSpec flat(spec);
  const CanonicalTimes canon = canonical_times(flat, lib());
  for (bool enabled : {true, false}) {
    const ClusteringParams params{enabled};
    const std::vector<Cluster> got = cluster_tasks(flat, lib(), canon, params);
    const std::vector<Cluster> want =
        reference::cluster_tasks(flat, lib(), params);
    const std::string where =
        what + (enabled ? "" : " without clustering") + " cluster ";
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t c = 0; c < got.size(); ++c) {
      const Cluster& a = got[c];
      const Cluster& b = want[c];
      EXPECT_EQ(a.id, b.id) << where << c;
      EXPECT_EQ(a.graph, b.graph) << where << c;
      EXPECT_EQ(a.tasks, b.tasks) << where << c;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.priority),
                std::bit_cast<std::uint64_t>(b.priority))
          << where << c << ": priority " << a.priority << " vs "
          << b.priority;
      EXPECT_EQ(a.memory, b.memory) << where << c;
      EXPECT_EQ(a.gates, b.gates) << where << c;
      EXPECT_EQ(a.pfus, b.pfus) << where << c;
      EXPECT_EQ(a.pins, b.pins) << where << c;
      EXPECT_EQ(a.feasible_pe, b.feasible_pe) << where << c;
      EXPECT_EQ(bits(a.preference), bits(b.preference)) << where << c;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

Specification generate(const std::string& profile, double scale, int seed) {
  const ExampleProfile p = profile_by_name(profile);
  SpecGenConfig cfg = profile_config(p, scale);
  cfg.seed = p.seed + 1000ull * static_cast<std::uint64_t>(seed - 1);
  return SpecGenerator(lib()).generate(cfg);
}

class ClusterOracleTable2 : public ::testing::TestWithParam<const char*> {};

TEST_P(ClusterOracleTable2, MatchesTheReferenceAtBothScales) {
  for (double scale : {0.03, 0.10})
    for (int seed = 1; seed <= 5; ++seed)
      expect_same_clusters(generate(GetParam(), scale, seed),
                           std::string(GetParam()) + " at " +
                               std::to_string(scale) + "x seed " +
                               std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Profiles, ClusterOracleTable2,
                         ::testing::Values("A1TR", "VDRTX", "HROST",
                                           "EST189A", "HRXC", "ADMR", "B192G",
                                           "NGXM"));

class ClusterOracleTable3 : public ::testing::TestWithParam<const char*> {};

TEST_P(ClusterOracleTable3, MatchesTheReferenceOnFtSpecs) {
  for (int seed = 1; seed <= 5; ++seed)
    expect_same_clusters(
        add_fault_tolerance(generate(GetParam(), 0.02, seed), lib(),
                            FtParams{}),
        std::string(GetParam()) + "-FT seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Profiles, ClusterOracleTable3,
                         ::testing::Values("A1TR", "VDRTX", "HROST",
                                           "EST189A", "HRXC"));

}  // namespace
}  // namespace crusade
