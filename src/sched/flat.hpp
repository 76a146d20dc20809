// Flattened view of a Specification: global task/edge indices across all
// task graphs, with adjacency, per-task period/EST/deadline lookups and the
// hyperperiod.  Clustering, allocation and scheduling all work in this index
// space; (graph, local index) pairs remain recoverable for reporting.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/specification.hpp"

namespace crusade {

class FlatSpec {
 public:
  explicit FlatSpec(const Specification& spec);

  const Specification& spec() const { return *spec_; }
  int graph_count() const { return static_cast<int>(spec_->graphs.size()); }
  int task_count() const { return task_count_; }
  int edge_count() const { return edge_count_; }

  // --- id mapping ---
  int task_id(int graph, int local) const {
    return task_base_[graph] + local;
  }
  int edge_id(int graph, int local) const {
    return edge_base_[graph] + local;
  }
  int graph_of_task(int tid) const { return task_graph_[tid]; }
  int graph_of_edge(int eid) const { return edge_graph_[eid]; }
  int local_task(int tid) const { return tid - task_base_[task_graph_[tid]]; }
  int local_edge(int eid) const { return eid - edge_base_[edge_graph_[eid]]; }

  const Task& task(int tid) const {
    return graph(task_graph_[tid]).task(local_task(tid));
  }
  const Edge& edge_data(int eid) const {
    return graph(edge_graph_[eid]).edge(local_edge(eid));
  }
  const TaskGraph& graph(int g) const { return spec_->graphs[g]; }

  // --- flat adjacency ---
  int edge_src(int eid) const { return edge_src_[eid]; }
  int edge_dst(int eid) const { return edge_dst_[eid]; }
  const std::vector<int>& out_edges(int tid) const { return out_[tid]; }
  const std::vector<int>& in_edges(int tid) const { return in_[tid]; }

  /// Flat task ids in a global topological order (graph by graph).
  const std::vector<int>& topo_order() const { return topo_; }

  // --- timing context ---
  TimeNs period(int tid) const { return graph(task_graph_[tid]).period(); }
  TimeNs est(int tid) const { return graph(task_graph_[tid]).est(); }
  /// Absolute deadline of the frame copy (graph EST + relative deadline), or
  /// kNoTime when the task carries no deadline.
  TimeNs absolute_deadline(int tid) const { return deadline_[tid]; }
  TimeNs hyperperiod() const { return hyperperiod_; }

  /// Flat exclusion lists (within-graph exclusions mapped to flat ids).
  const std::vector<int>& exclusions(int tid) const { return excl_[tid]; }

  /// FNV-1a over everything the list scheduler reads (adjacency, order,
  /// periods, ESTs, deadlines): a schedule resumed against another
  /// FlatSpec must see the same value.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  const Specification* spec_;
  int task_count_ = 0;
  int edge_count_ = 0;
  std::vector<int> task_base_, edge_base_;
  std::vector<int> task_graph_, edge_graph_;
  std::vector<int> edge_src_, edge_dst_;
  std::vector<std::vector<int>> out_, in_, excl_;
  std::vector<int> topo_;
  std::vector<TimeNs> deadline_;  ///< absolute_deadline per task
  TimeNs hyperperiod_ = 0;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace crusade
