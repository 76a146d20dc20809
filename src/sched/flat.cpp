#include "sched/flat.hpp"

#include "util/math.hpp"

namespace crusade {

FlatSpec::FlatSpec(const Specification& spec) : spec_(&spec) {
  const int g_count = static_cast<int>(spec.graphs.size());
  task_base_.resize(g_count);
  edge_base_.resize(g_count);
  for (int g = 0; g < g_count; ++g) {
    task_base_[g] = task_count_;
    edge_base_[g] = edge_count_;
    task_count_ += spec.graphs[g].task_count();
    edge_count_ += spec.graphs[g].edge_count();
  }
  task_graph_.resize(task_count_);
  deadline_.resize(task_count_);
  edge_graph_.resize(edge_count_);
  edge_src_.resize(edge_count_);
  edge_dst_.resize(edge_count_);
  out_.resize(task_count_);
  in_.resize(task_count_);
  excl_.resize(task_count_);
  topo_.reserve(task_count_);

  std::vector<TimeNs> periods;
  periods.reserve(g_count);
  for (int g = 0; g < g_count; ++g) {
    const TaskGraph& graph = spec.graphs[g];
    periods.push_back(graph.period());
    for (int t = 0; t < graph.task_count(); ++t) {
      const int tid = task_base_[g] + t;
      task_graph_[tid] = g;
      const TimeNs d = graph.effective_deadline(t);
      deadline_[tid] = d == kNoTime ? kNoTime : graph.est() + d;
      for (int other : graph.task(t).exclusions)
        excl_[tid].push_back(task_base_[g] + other);
    }
    for (int e = 0; e < graph.edge_count(); ++e) {
      const int eid = edge_base_[g] + e;
      edge_graph_[eid] = g;
      edge_src_[eid] = task_base_[g] + graph.edge(e).src;
      edge_dst_[eid] = task_base_[g] + graph.edge(e).dst;
      out_[edge_src_[eid]].push_back(eid);
      in_[edge_dst_[eid]].push_back(eid);
    }
    for (int t : graph.topo_order()) topo_.push_back(task_base_[g] + t);
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
