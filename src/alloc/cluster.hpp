// Critical-path task clustering (paper §5, following COSYN [23]).
//
// Clustering groups tasks that will be allocated to the same PE, zeroing the
// communication along the current longest deadline-critical path and cutting
// the allocation search space.  The procedure: assign deadline-based
// priority levels; grow a cluster from the highest-priority unclustered task
// along its highest-priority eligible successors; zero the in-cluster
// communications; recompute priority levels; repeat.
#pragma once

#include <vector>

#include "resources/resource_library.hpp"
#include "sched/flat.hpp"
#include "sched/priority.hpp"

namespace crusade {

struct Cluster {
  int id = -1;
  int graph = -1;            ///< clusters never span task graphs
  std::vector<int> tasks;    ///< flat task ids
  double priority = 0;       ///< max member priority (recomputed by alloc)

  // Aggregated requirements of the members.
  std::int64_t memory = 0;
  int gates = 0;
  int pfus = 0;
  int pins = 0;

  /// Per PE type: all members feasible AND the cluster fits an empty
  /// instance of the type (capacity pre-check; ERUF/EPUF applied for PPEs).
  std::vector<char> feasible_pe;
  /// Summed preference weight per PE type (§2.2 preference vectors).
  std::vector<double> preference;
};

/// Most tasks one cluster grows to along its critical path.
inline constexpr int kMaxClusterSize = 8;

struct ClusteringParams {
  /// Disable to measure the un-clustered baseline (ablation A1): every task
  /// becomes its own cluster.
  bool enabled = true;
};

/// Runs critical-path clustering over the whole specification.
std::vector<Cluster> cluster_tasks(const FlatSpec& flat,
                                   const ResourceLibrary& lib,
                                   const ClusteringParams& params);

/// Maps each task to its cluster id.
std::vector<int> task_to_cluster(const std::vector<Cluster>& clusters,
                                 int task_count);

}  // namespace crusade
