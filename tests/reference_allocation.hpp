// Test-only reference allocation array: Allocator::enumerate as it was
// before fresh-PE entries were retyped, kept as the oracle for the array
// the allocator builds now.
#pragma once

#include <vector>

#include "alloc/allocation.hpp"

namespace crusade::reference {

/// The Allocator's one friend: reaches its allocation array and the
/// private steps repair and evacuation take around it.
struct AllocationArray {
  using Candidate = Allocator::Candidate;

  /// The old enumerate (reference_allocation.cpp): every entry, a fresh PE
  /// of every feasible type included, costed on its own copy of `arch`.
  static std::vector<Candidate> reference(Allocator& alloc,
                                          const Architecture& arch,
                                          const Cluster& cluster,
                                          const std::vector<int>& task_cluster);

  static std::vector<Candidate> enumerate(Allocator& alloc,
                                          const Architecture& arch,
                                          const Cluster& cluster,
                                          const std::vector<int>& task_cluster,
                                          bool fresh_pes) {
    return alloc.enumerate(arch, cluster, task_cluster, fresh_pes);
  }
  static void materialize(const Allocator& alloc, Architecture& arch,
                          const Candidate& cand, const Cluster& cluster,
                          const std::vector<int>& task_cluster) {
    alloc.materialize(arch, cand, cluster, task_cluster);
  }
  static void unplace(const Allocator& alloc, Architecture& arch,
                      const Cluster& cluster,
                      const std::vector<Cluster>& clusters) {
    alloc.unplace(arch, cluster, clusters);
  }
  /// Repair and evacuation enumerate with FPGA purity relaxed.
  static void relax_fpga_purity(Allocator& alloc, bool relax) {
    alloc.relax_fpga_purity_ = relax;
  }
};

}  // namespace crusade::reference
