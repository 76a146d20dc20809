#include "sched/flat.hpp"

#include "util/error.hpp"
#include "util/math.hpp"

namespace crusade {

FlatSpec::FlatSpec(const Specification& spec) : spec_(&spec) {
  const int g_count = static_cast<int>(spec.graphs.size());
  task_base_.resize(g_count);
  edge_base_.resize(g_count);
  int excl_count = 0;
  for (int g = 0; g < g_count; ++g) {
    task_base_[g] = task_count_;
    edge_base_[g] = edge_count_;
    task_count_ += spec.graphs[g].task_count();
    edge_count_ += spec.graphs[g].edge_count();
    for (const Task& t : spec.graphs[g].tasks())
      excl_count += static_cast<int>(t.exclusions.size());
  }
  task_graph_.resize(task_count_);
  deadline_.resize(task_count_);
  edge_graph_.resize(edge_count_);
  edge_src_.resize(edge_count_);
  edge_dst_.resize(edge_count_);

  // Edges: endpoints, then each task's out- and in-edges counted, summed
  // into offsets and filled in edge order.  Filling advances offset[t] to
  // the end of t's list, which is where t + 1's begins; shifting the array
  // by one restores the starts.
  out_.offset.assign(task_count_ + 1, 0);
  in_.offset.assign(task_count_ + 1, 0);
  for (int g = 0; g < g_count; ++g) {
    const TaskGraph& graph = spec.graphs[g];
    for (int e = 0; e < graph.edge_count(); ++e) {
      const int eid = edge_base_[g] + e;
      edge_graph_[eid] = g;
      edge_src_[eid] = task_base_[g] + graph.edge(e).src;
      edge_dst_[eid] = task_base_[g] + graph.edge(e).dst;
      ++out_.offset[edge_src_[eid] + 1];
      ++in_.offset[edge_dst_[eid] + 1];
    }
  }
  for (int t = 0; t < task_count_; ++t) {
    out_.offset[t + 1] += out_.offset[t];
    in_.offset[t + 1] += in_.offset[t];
  }
  out_.ids.resize(edge_count_);
  in_.ids.resize(edge_count_);
  for (int eid = 0; eid < edge_count_; ++eid) {
    out_.ids[out_.offset[edge_src_[eid]]++] = eid;
    in_.ids[in_.offset[edge_dst_[eid]]++] = eid;
  }
  for (int t = task_count_; t > 0; --t) {
    out_.offset[t] = out_.offset[t - 1];
    in_.offset[t] = in_.offset[t - 1];
  }
  out_.offset[0] = in_.offset[0] = 0;

  // Tasks: graph, deadline and exclusions.  A task without a deadline of
  // its own takes the period when it is a sink (TaskGraph::
  // effective_deadline).
  excl_.offset.resize(task_count_ + 1);
  excl_.offset[0] = 0;
  excl_.ids.reserve(excl_count);
  std::vector<TimeNs> periods;
  periods.reserve(g_count);
  for (int g = 0; g < g_count; ++g) {
    const TaskGraph& graph = spec.graphs[g];
    periods.push_back(graph.period());
    for (int t = 0; t < graph.task_count(); ++t) {
      const int tid = task_base_[g] + t;
      const Task& task = graph.task(t);
      task_graph_[tid] = g;
      TimeNs d = task.deadline;
      if (d == kNoTime && out_edges(tid).empty()) d = graph.period();
      deadline_[tid] = d == kNoTime ? kNoTime : graph.est() + d;
      for (int other : task.exclusions)
        excl_.ids.push_back(task_base_[g] + other);
      excl_.offset[tid + 1] = static_cast<int>(excl_.ids.size());
    }
  }

  // Topological order, graph by graph: Kahn with a FIFO queue seeded with
  // the sources in index order, as TaskGraph::topo_order.  topo_ is its
  // own queue.
  std::vector<int> indegree(task_count_);
  for (int t = 0; t < task_count_; ++t)
    indegree[t] = in_.offset[t + 1] - in_.offset[t];
  topo_.reserve(task_count_);
  for (int g = 0; g < g_count; ++g) {
    const std::size_t head0 = topo_.size();
    const int end = task_base_[g] + spec.graphs[g].task_count();
    for (int t = task_base_[g]; t < end; ++t)
      if (indegree[t] == 0) topo_.push_back(t);
    for (std::size_t head = head0; head < topo_.size(); ++head)
      for (int eid : out_edges(topo_[head]))
        if (--indegree[edge_dst_[eid]] == 0) topo_.push_back(edge_dst_[eid]);
    if (static_cast<int>(topo_.size()) != end)
      throw Error("task graph '" + spec.graphs[g].name() +
                  "' contains a cycle");
  }
  hyperperiod_ = crusade::hyperperiod(periods);

  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::int64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= static_cast<std::uint64_t>(v >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(task_count_);
  mix(edge_count_);
  for (int tid : topo_) mix(tid);
  for (int tid = 0; tid < task_count_; ++tid) {
    mix(period(tid));
    mix(est(tid));
    mix(absolute_deadline(tid));
  }
  for (int eid = 0; eid < edge_count_; ++eid) {
    mix(edge_src_[eid]);
    mix(edge_dst_[eid]);
  }
  fingerprint_ = h;
}

}  // namespace crusade
