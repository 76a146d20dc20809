// Deadline-based priority levels (paper §5, after COSYN).
//
// The priority level of a task is the length of the longest computation +
// communication path from the task to a deadline-carrying task, minus that
// deadline — i.e. "how much work must still complete against how much time
// the deadline allows".  Larger values are more urgent.  Levels are computed
// from the current time estimates (maximum execution / a-priori
// communication before allocation, actual values afterwards) and are
// recomputed after every clustering and allocation step.
#pragma once

#include <vector>

#include "sched/flat.hpp"
#include "util/time.hpp"

namespace crusade {

struct PriorityLevels {
  std::vector<double> task;  ///< per flat task id
  std::vector<double> edge;  ///< per flat edge id (priority of its path)
};

/// `task_time[tid]` / `edge_time[eid]` are the current estimates: worst-case
/// over feasible PEs (resp. links at the library's assumed port count)
/// before allocation; the allocated values afterwards (0 for intra-PE
/// edges).
PriorityLevels priority_levels(const FlatSpec& flat,
                               const std::vector<TimeNs>& task_time,
                               const std::vector<TimeNs>& edge_time);

/// Recomputes the level of task `tid` and of its out-edges from its
/// successors' levels in `levels`: the step priority_levels takes for every
/// task in reverse topological order.  Returns whether the task's level
/// changed, so a caller that changed a few time estimates can update only
/// the tasks upstream of them (cluster_tasks).
bool update_priority_level(const FlatSpec& flat,
                           const std::vector<TimeNs>& task_time,
                           const std::vector<TimeNs>& edge_time, int tid,
                           PriorityLevels& levels);

/// Default (pre-allocation) estimates from §2.2: max feasible execution time
/// per task and the worst communication vector entry per edge.
std::vector<TimeNs> default_task_times(const FlatSpec& flat,
                                       const class ResourceLibrary& lib);
std::vector<TimeNs> default_edge_times(const FlatSpec& flat,
                                       const class ResourceLibrary& lib);

/// A specification's default estimates and the levels they give, which are
/// the canonical list-scheduling priorities (scheduling_levels).  They are a
/// function of the FlatSpec and the library alone: a run computes them once
/// and hands the same object to clustering, allocation, mode merging and
/// interface synthesis.
struct CanonicalTimes {
  std::vector<TimeNs> task;  ///< default_task_times
  std::vector<TimeNs> edge;  ///< default_edge_times
  PriorityLevels levels;     ///< priority_levels(flat, task, edge)
};

CanonicalTimes canonical_times(const FlatSpec& flat,
                               const class ResourceLibrary& lib);

}  // namespace crusade
