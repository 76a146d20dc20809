#include "sched/priority.hpp"

#include <algorithm>

#include "resources/resource_library.hpp"
#include "util/error.hpp"

namespace crusade {

namespace {
constexpr double kNone = -1e30;
}  // namespace

PriorityLevels priority_levels(const FlatSpec& flat,
                               const std::vector<TimeNs>& task_time,
                               const std::vector<TimeNs>& edge_time) {
  CRUSADE_REQUIRE(task_time.size() ==
                      static_cast<std::size_t>(flat.task_count()),
                  "task_time arity");
  CRUSADE_REQUIRE(edge_time.size() ==
                      static_cast<std::size_t>(flat.edge_count()),
                  "edge_time arity");
  PriorityLevels levels;
  levels.task.assign(flat.task_count(), kNone);
  levels.edge.assign(flat.edge_count(), kNone);
  const auto& order = flat.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it)
    update_priority_level(flat, task_time, edge_time, *it, levels);
  // Tasks with no deadline anywhere downstream (possible in malformed or
  // partially built graphs) sink to the lowest urgency.
  return levels;
}

bool update_priority_level(const FlatSpec& flat,
                           const std::vector<TimeNs>& task_time,
                           const std::vector<TimeNs>& edge_time, int tid,
                           PriorityLevels& levels) {
  // A deadline task contributes exec − deadline; every task takes the max
  // over successors of exec + comm + π(succ).
  const double w = static_cast<double>(task_time[tid]);
  double best = kNone;
  const TimeNs deadline = flat.absolute_deadline(tid);
  if (deadline != kNoTime) best = w - static_cast<double>(deadline);
  for (int eid : flat.out_edges(tid)) {
    const double downstream = levels.task[flat.edge_dst(eid)];
    double edge = kNone;
    if (downstream != kNone) {
      const double via =
          w + static_cast<double>(edge_time[eid]) + downstream;
      best = std::max(best, via);
      edge = std::max(edge, static_cast<double>(edge_time[eid]) + downstream);
    }
    levels.edge[eid] = edge;
  }
  const bool changed = levels.task[tid] != best;
  levels.task[tid] = best;
  return changed;
}

std::vector<TimeNs> default_task_times(const FlatSpec& flat,
                                       const ResourceLibrary& lib) {
  std::vector<TimeNs> times(flat.task_count(), 0);
  for (int tid = 0; tid < flat.task_count(); ++tid) {
    const Task& t = flat.task(tid);
    TimeNs worst = 0;
    for (PeTypeId pe = 0; pe < lib.pe_count(); ++pe)
      if (t.feasible_on(pe)) worst = std::max(worst, t.exec[pe]);
    times[tid] = worst;
  }
  return times;
}

std::vector<TimeNs> default_edge_times(const FlatSpec& flat,
                                       const ResourceLibrary& lib) {
  std::vector<TimeNs> times(flat.edge_count(), 0);
  for (int eid = 0; eid < flat.edge_count(); ++eid) {
    const Edge& e = flat.edge_data(eid);
    TimeNs worst = 0;
    for (LinkTypeId l = 0; l < lib.link_count(); ++l)
      worst = std::max(worst,
                       lib.link(l).comm_time(e.bytes, lib.assumed_ports));
    times[eid] = worst;
  }
  return times;
}

}  // namespace crusade
