// Test-only reference clustering: cluster_tasks as it was before it kept
// running member sums and updated priority levels only upstream of each
// new cluster, kept as the oracle for the clustering the engine runs now.
#pragma once

#include <vector>

#include "alloc/cluster.hpp"

namespace crusade::reference {

/// The old cluster_tasks (reference_cluster.cpp): every trial member is
/// judged by the feasibility mask of a copied member list, and the priority
/// levels are swept in full after every cluster.
std::vector<Cluster> cluster_tasks(const FlatSpec& flat,
                                   const ResourceLibrary& lib,
                                   const ClusteringParams& params);

}  // namespace crusade::reference
