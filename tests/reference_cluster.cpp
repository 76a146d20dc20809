// Critical-path clustering as cluster_tasks ran it before its member sums
// and priority levels became incremental.  The code is the old code with
// its obs span dropped; full_priority_levels is the old priority_levels.
#include "reference_cluster.hpp"

#include <algorithm>

#include "fpga/delay.hpp"
#include "util/error.hpp"

namespace crusade::reference {

namespace {

struct Accumulator {
  std::int64_t memory = 0;
  int gates = 0;
  int pfus = 0;
  int pins = 0;

  void add(const Task& t) {
    memory += t.memory.total();
    gates += t.gates;
    pfus += t.pfus;
    pins += t.pins;
  }
};

/// Capacity pre-check of a member set on an empty instance of `type`, with
/// the §4.5 ERUF/EPUF caps on PPEs.
bool fits_type(const Accumulator& acc, const PeType& type) {
  const DelayManagement delay{};
  switch (type.kind) {
    case PeKind::Cpu:
      return acc.memory <= type.memory_bytes;
    case PeKind::Asic:
      return acc.gates <= type.gates && acc.pins <= type.pins;
    case PeKind::Fpga:
    case PeKind::Cpld:
      return acc.pfus <= delay.usable_pfus(type.pfus) &&
             acc.pins <= delay.usable_pins(type.pins);
  }
  return false;
}

/// Feasible-and-fits mask over PE types for a given member set.
std::vector<char> feasibility_mask(const std::vector<int>& tasks,
                                   const FlatSpec& flat,
                                   const ResourceLibrary& lib) {
  std::vector<char> mask(lib.pe_count(), 1);
  Accumulator acc;
  for (int tid : tasks) acc.add(flat.task(tid));
  for (PeTypeId pe = 0; pe < lib.pe_count(); ++pe) {
    for (int tid : tasks)
      if (!flat.task(tid).feasible_on(pe)) {
        mask[pe] = 0;
        break;
      }
    if (mask[pe] && !fits_type(acc, lib.pe(pe))) mask[pe] = 0;
  }
  return mask;
}

bool any(const std::vector<char>& mask) {
  return std::any_of(mask.begin(), mask.end(), [](char c) { return c != 0; });
}

/// priority_levels as it was before its per-task step was shared with
/// cluster_tasks' incremental update.
PriorityLevels full_priority_levels(const FlatSpec& flat,
                                    const std::vector<TimeNs>& task_time,
                                    const std::vector<TimeNs>& edge_time) {
  constexpr double kNone = -1e30;
  PriorityLevels levels;
  levels.task.assign(flat.task_count(), kNone);
  levels.edge.assign(flat.edge_count(), kNone);
  const auto& order = flat.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int tid = *it;
    const double w = static_cast<double>(task_time[tid]);
    double best = kNone;
    const TimeNs deadline = flat.absolute_deadline(tid);
    if (deadline != kNoTime) best = w - static_cast<double>(deadline);
    for (int eid : flat.out_edges(tid)) {
      const int dst = flat.edge_dst(eid);
      const double downstream = levels.task[dst];
      if (downstream == kNone) continue;
      const double via =
          w + static_cast<double>(edge_time[eid]) + downstream;
      best = std::max(best, via);
      levels.edge[eid] = std::max(
          levels.edge[eid], static_cast<double>(edge_time[eid]) + downstream);
    }
    levels.task[tid] = best;
  }
  return levels;
}

}  // namespace

std::vector<Cluster> cluster_tasks(const FlatSpec& flat,
                                   const ResourceLibrary& lib,
                                   const ClusteringParams& params) {
  const int n = flat.task_count();
  std::vector<TimeNs> task_time = default_task_times(flat, lib);
  std::vector<TimeNs> edge_time = default_edge_times(flat, lib);
  PriorityLevels levels = full_priority_levels(flat, task_time, edge_time);

  std::vector<Cluster> clusters;
  std::vector<char> clustered(n, 0);

  auto finalize_cluster = [&](Cluster& c) {
    c.id = static_cast<int>(clusters.size());
    Accumulator acc;
    c.preference.assign(lib.pe_count(), 0.0);
    for (int tid : c.tasks) {
      const Task& t = flat.task(tid);
      acc.add(t);
      if (!t.preference.empty())
        for (PeTypeId pe = 0; pe < lib.pe_count(); ++pe)
          c.preference[pe] += t.preference[pe];
    }
    c.memory = acc.memory;
    c.gates = acc.gates;
    c.pfus = acc.pfus;
    c.pins = acc.pins;
    c.feasible_pe = feasibility_mask(c.tasks, flat, lib);
    double prio = -1e30;
    for (int tid : c.tasks) prio = std::max(prio, levels.task[tid]);
    for (int tid : c.tasks)
      for (int eid : flat.in_edges(tid))
        prio = std::max(prio, levels.edge[eid]);
    c.priority = prio;
    clusters.push_back(c);
  };

  if (!params.enabled) {
    for (int tid = 0; tid < n; ++tid) {
      Cluster c;
      c.graph = flat.graph_of_task(tid);
      c.tasks = {tid};
      finalize_cluster(c);
    }
    return clusters;
  }

  // Exclusion check against current members.
  auto excluded = [&](const std::vector<int>& members, int candidate) {
    for (int m : members)
      for (int x : flat.exclusions(m))
        if (x == candidate) return true;
    return false;
  };

  int remaining = n;
  while (remaining > 0) {
    // Seed: highest-priority unclustered task.
    int seed = -1;
    for (int tid = 0; tid < n; ++tid)
      if (!clustered[tid] &&
          (seed < 0 || levels.task[tid] > levels.task[seed]))
        seed = tid;
    CRUSADE_REQUIRE(seed >= 0, "no unclustered task despite remaining > 0");

    Cluster c;
    c.graph = flat.graph_of_task(seed);
    c.tasks = {seed};
    clustered[seed] = 1;
    --remaining;

    // Grow along the highest-priority eligible fan-out (the critical path).
    int cur = seed;
    while (static_cast<int>(c.tasks.size()) < kMaxClusterSize) {
      int best = -1;
      int best_eid = -1;
      for (int eid : flat.out_edges(cur)) {
        const int dst = flat.edge_dst(eid);
        if (clustered[dst]) continue;
        if (excluded(c.tasks, dst)) continue;
        std::vector<int> trial = c.tasks;
        trial.push_back(dst);
        if (!any(feasibility_mask(trial, flat, lib))) continue;
        if (best < 0 || levels.task[dst] > levels.task[best]) {
          best = dst;
          best_eid = eid;
        }
      }
      if (best < 0) break;
      c.tasks.push_back(best);
      clustered[best] = 1;
      --remaining;
      edge_time[best_eid] = 0;  // in-cluster communication is free
      cur = best;
    }
    // All edges with both endpoints inside the cluster become free.
    for (int tid : c.tasks)
      for (int eid : flat.out_edges(tid)) {
        const int dst = flat.edge_dst(eid);
        if (std::find(c.tasks.begin(), c.tasks.end(), dst) != c.tasks.end())
          edge_time[eid] = 0;
      }
    finalize_cluster(c);

    // Priority levels change once the path's communications are zeroed.
    levels = full_priority_levels(flat, task_time, edge_time);
  }
  return clusters;
}

}  // namespace crusade::reference
