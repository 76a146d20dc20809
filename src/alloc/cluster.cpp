#include "alloc/cluster.hpp"

#include <algorithm>
#include <queue>

#include "fpga/delay.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace crusade {

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

/// Whether the member set summed in `acc`, all of whose members are
/// feasible on the types `on_type` marks, still fits an empty instance of
/// some type once `t` joins it: the grown set's Cluster::feasible_pe has a
/// true entry.
bool fits_some_type(Accumulator acc, const std::vector<char>& on_type,
                    const Task& t, const ResourceLibrary& lib) {
  acc.add(t);
  for (PeTypeId pe = 0; pe < lib.pe_count(); ++pe)
    if (on_type[pe] && t.feasible_on(pe) && fits_type(acc, lib.pe(pe)))
      return true;
  return false;
}

}  // namespace

std::vector<int> task_to_cluster(const std::vector<Cluster>& clusters,
                                 int task_count) {
  std::vector<int> map(task_count, -1);
  for (const Cluster& c : clusters)
    for (int tid : c.tasks) {
      CRUSADE_REQUIRE(map[tid] == -1, "task in two clusters");
      map[tid] = c.id;
    }
  return map;
}

std::vector<Cluster> cluster_tasks(const FlatSpec& flat,
                                   const ResourceLibrary& lib,
                                   const CanonicalTimes& canon,
                                   const ClusteringParams& params) {
  OBS_SPAN("alloc.cluster_tasks");
  const int n = flat.task_count();
  std::vector<TimeNs> edge_time = canon.edge;
  PriorityLevels levels = canon.levels;

  std::vector<Cluster> clusters;
  std::vector<char> clustered(n, 0);

  // The members' requirement sums and the types every member is feasible
  // on, kept as a cluster grows: judging a trial member reads only that
  // member, and the finished cluster's feasible_pe reads only these.
  Accumulator acc;
  std::vector<char> on_type(lib.pe_count());
  auto start_cluster = [&](int seed) {
    Cluster c;
    c.graph = flat.graph_of_task(seed);
    c.tasks = {seed};
    acc = Accumulator{};
    acc.add(flat.task(seed));
    for (PeTypeId pe = 0; pe < lib.pe_count(); ++pe)
      on_type[pe] = flat.task(seed).feasible_on(pe);
    return c;
  };
  auto finalize_cluster = [&](Cluster& c) {
    c.id = static_cast<int>(clusters.size());
    c.preference.assign(lib.pe_count(), 0.0);
    for (int tid : c.tasks) {
      const Task& t = flat.task(tid);
      if (!t.preference.empty())
        for (PeTypeId pe = 0; pe < lib.pe_count(); ++pe)
          c.preference[pe] += t.preference[pe];
    }
    c.memory = acc.memory;
    c.gates = acc.gates;
    c.pfus = acc.pfus;
    c.pins = acc.pins;
    c.feasible_pe.resize(lib.pe_count());
    for (PeTypeId pe = 0; pe < lib.pe_count(); ++pe)
      c.feasible_pe[pe] = on_type[pe] && fits_type(acc, lib.pe(pe));
    double prio = -1e30;
    for (int tid : c.tasks) prio = std::max(prio, levels.task[tid]);
    for (int tid : c.tasks)
      for (int eid : flat.in_edges(tid))
        prio = std::max(prio, levels.edge[eid]);
    c.priority = prio;
    clusters.push_back(std::move(c));
  };

  if (!params.enabled) {
    for (int tid = 0; tid < n; ++tid) {
      Cluster c = start_cluster(tid);
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

  // Levels after a cluster: its zeroed edges all leave its own tasks, so
  // only those tasks and their ancestors can change.  They are recomputed
  // descendants first (a max-heap on topological position), each by
  // priority_levels' own step, and a task's predecessors join only when its
  // level changed — the full sweep's values, bit for bit.
  std::vector<int> topo_pos(n);
  for (int i = 0; i < n; ++i) topo_pos[flat.topo_order()[i]] = i;
  std::vector<char> queued(n, 0);
  std::priority_queue<int> stale;  // topological positions
  auto update_levels = [&](const std::vector<int>& changed) {
    for (int tid : changed) {
      queued[tid] = 1;
      stale.push(topo_pos[tid]);
    }
    while (!stale.empty()) {
      const int tid = flat.topo_order()[stale.top()];
      stale.pop();
      queued[tid] = 0;
      if (!update_priority_level(flat, canon.task, edge_time, tid, levels))
        continue;
      for (int eid : flat.in_edges(tid)) {
        const int src = flat.edge_src(eid);
        if (queued[src]) continue;
        queued[src] = 1;
        stale.push(topo_pos[src]);
      }
    }
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

    Cluster c = start_cluster(seed);
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
        if (!fits_some_type(acc, on_type, flat.task(dst), lib)) continue;
        if (best < 0 || levels.task[dst] > levels.task[best]) {
          best = dst;
          best_eid = eid;
        }
      }
      if (best < 0) break;
      c.tasks.push_back(best);
      clustered[best] = 1;
      --remaining;
      acc.add(flat.task(best));
      for (PeTypeId pe = 0; pe < lib.pe_count(); ++pe)
        on_type[pe] = on_type[pe] && flat.task(best).feasible_on(pe);
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
    // The cluster moved into `clusters`; read its tasks there.
    update_levels(clusters.back().tasks);
  }
  return clusters;
}

}  // namespace crusade
