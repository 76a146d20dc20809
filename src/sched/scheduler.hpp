// Static priority-level list scheduler with restricted preemption (paper
// §2.2 "Scheduling" and §5).
//
// One frame copy of every task graph is scheduled; each placement enters a
// periodic window on its resource timeline that exactly represents all
// hyperperiod copies (the association-array idea of §5: copies are never
// instantiated).  CPUs support restricted preemption: a task may overlap
// previously placed shorter-period windows, paying for their interference
// via response-time inflation plus the per-preemption OS overhead; all other
// resources (ASICs, FPGA/CPLD modes, links) are strictly non-preemptive.
// Reconfiguration boot time enters as a reboot pseudo-task placed at the
// head of every mode of a multi-mode programmable device (§4.3).
//
// Incremental scheduling: every result records the problem that produced it
// and the list positions at which its state grew.  Handed back as a base, it
// lets a later call for a nearby problem restore the common prefix of the
// two pop orders and place only the rest (DESIGN.md §7 item 12).
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "sched/flat.hpp"
#include "sched/priority.hpp"
#include "sched/timeline.hpp"
#include "util/time.hpp"

namespace crusade {

/// One schedulable resource: a PE instance or a link instance.
struct SchedResourceInfo {
  bool preemptive = false;          ///< true for CPUs
  /// Hardware PEs execute their resident tasks concurrently — every task
  /// owns dedicated gates/PFUs — so same-mode windows do not serialize; the
  /// binding constraint is area, enforced at allocation.  CPUs and links
  /// are serial (false).
  bool concurrent = false;
  TimeNs preemption_overhead = 0;   ///< per preemption (interrupt + switch)
  /// Reconfiguration time per mode; empty for modeless resources, all-zero
  /// for single-mode programmable devices (configured once at power-up).
  std::vector<TimeNs> mode_boot;

  bool operator==(const SchedResourceInfo&) const = default;
};

struct SchedProblem {
  const FlatSpec* flat = nullptr;
  std::vector<int> task_resource;  ///< per task: resource id, -1 unallocated
  std::vector<int> task_mode;      ///< per task: PPE mode, -1 modeless
  std::vector<TimeNs> task_exec;   ///< execution time on its resource
  std::vector<int> edge_resource;  ///< per edge: link id, -1 = intra-PE
  std::vector<TimeNs> edge_comm;   ///< communication time (0 when intra-PE)
  /// PE resources first, then link resources: link l is resource
  /// `link_base + l`.  Resuming matches PE p to PE p and link l to link l
  /// across two problems, so a problem with one PE more still restores its
  /// links' windows.  make_sched_problem sets it to the PE count; a problem
  /// built by hand keeps 0, which matches every resource by index.
  int link_base = 0;
  std::vector<SchedResourceInfo> resources;
  /// Optimistic (admissible) execution estimates for tasks that are not yet
  /// allocated, used by the longest-path finish-time estimation pass (§5).
  /// Optional; no estimation happens without it.
  const std::vector<TimeNs>* task_optimistic = nullptr;

  bool operator==(const SchedProblem&) const = default;
};

/// What a later run_list_scheduler call needs to resume from a schedule:
/// the problem and levels that produced it, copied so a base is never
/// judged against a problem it was not built from and holds no pointer,
/// and the list positions at which the schedule's state grew.  Timelines
/// only grow in list order, so the state before any position is a
/// per-resource truncation plus the counters recorded there.
struct ScheduleRecord {
  /// The problem, with `flat` and `task_optimistic` cleared.
  SchedProblem problem;
  std::uint64_t flat_fingerprint = 0;  ///< FlatSpec::fingerprint()
  std::vector<double> levels;          ///< PriorityLevels::task used

  /// One entry per list position: the task popped there and the state
  /// counters before the pop; a closing entry (tid -1) holds the final
  /// counters.
  struct Step {
    int tid = -1;
    int appends = 0;  ///< timeline appends so far
    int failures = 0;
    int failed_edges = 0;
    int scheduled = 0;
    TimeNs tardiness = 0;
    bool operator==(const Step&) const = default;
  };
  std::vector<Step> steps;
  std::vector<int> appends;  ///< resource of every timeline append, in order
  /// Every settled (resource, mode) reboot, with the position that settled
  /// it; `finish` is 0 when the reboot found no room.
  struct Reboot {
    int step = 0;
    int resource = 0;
    int mode = 0;
    TimeNs finish = 0;
    bool operator==(const Reboot&) const = default;
  };
  std::vector<Reboot> reboots;

  bool empty() const { return steps.empty(); }
  bool operator==(const ScheduleRecord&) const = default;
};

struct ScheduleResult {
  std::vector<TimeNs> task_start, task_finish;  ///< kNoTime = not scheduled
  std::vector<TimeNs> edge_start, edge_finish;
  std::vector<Timeline> timelines;  ///< final occupancy per resource
  TimeNs total_tardiness = 0;       ///< summed deadline overruns
  /// Deadline overruns projected onto not-yet-allocated tasks via
  /// longest-path estimation with optimistic remaining work (§5
  /// finish-time estimation): if even the optimistic completion misses the
  /// deadline, this allocation has already poisoned the path.
  TimeNs estimated_tardiness = 0;
  int placement_failures = 0;       ///< schedulable tasks/edges with no fit
  /// Flat ids of edges whose link placement failed (ring saturated) — the
  /// targets for the allocator's rewiring repair.
  std::vector<int> failed_edges;
  int scheduled_tasks = 0;
  bool feasible = false;  ///< all schedulable tasks placed, no tardiness
  /// The call stopped at its cutoff (see ScheduleCutoff): the fields hold
  /// the state before the first list position whose counters reached it,
  /// the record holds the steps before that position and no closing entry,
  /// and no finish times were estimated.  Never feasible, never a base.
  bool cut = false;
  ScheduleRecord record;  ///< resume record (see run_list_scheduler)

  bool deadline_met(int tid, const FlatSpec& flat) const;
  bool operator==(const ScheduleResult&) const = default;
};

/// Where a list-scheduling call may stop placing: once its running counters
/// (placement failures, then total tardiness, compared lexicographically)
/// reach {failures, tardiness}.  Both counters only grow along the list,
/// so a call that reaches its cutoff ends at or above it; a caller that
/// throws away every such result loses nothing by stopping there.
struct ScheduleCutoff {
  int failures = 0;
  TimeNs tardiness = 0;
  auto operator<=>(const ScheduleCutoff&) const = default;
};

/// Runs the list scheduler; tasks whose ancestry is not fully allocated are
/// skipped (their deadlines cannot be judged yet).
///
/// With a `base` (a result of an earlier call over the same FlatSpec and
/// levels; a default-constructed result counts as none) the call resumes:
/// it finds resume_point(), restores the base's state before it (its
/// windows, appends and reboots moved to the new problem's resource
/// indices), and places only the remaining tasks.  The result, resume
/// record included, equals a call without a base.  A cut result is refused
/// as a base.
///
/// With a `cutoff` the call stops before the first list position at which
/// the running counters reach it and returns a cut result (see
/// ScheduleResult::cut), the same one with or without a base.  A call that
/// places every task without reaching it returns what a call without a
/// cutoff returns.
///
/// The problem is taken by value and moved into the result's record, so a
/// caller that builds it for this call alone passes it with std::move.
ScheduleResult run_list_scheduler(SchedProblem problem,
                                  const PriorityLevels& levels,
                                  const ScheduleResult* base = nullptr,
                                  const ScheduleCutoff* cutoff = nullptr);

/// The first list position of `base`'s record where `problem` can behave
/// differently from the base's problem: the number of positions a resumed
/// call restores before any cutoff.  Resources correspond across the two
/// problems by role: PE p is PE p, and link l is link l (index
/// `link_base + l` in each), so a PE appended to the architecture moves
/// every link's index but breaks no link's match.  A resource without a counterpart, or whose SchedResourceInfo
/// differs from its counterpart's, counts as changed.  The point is the
/// earliest of:
///  - the first pop of a task that is no longer schedulable, whose mode or
///    exec time changed, or whose resource is changed or not the
///    counterpart of its old one;
///  - the first pop of the destination of an edge whose comm time changed,
///    or whose link is changed or not the counterpart of its old one;
///  - the first position where a newly schedulable task outranks the
///    base's pop.
/// Requires what a resume requires: an uncut base over the same FlatSpec
/// (by fingerprint) and levels.
int resume_point(const ScheduleResult& base, const SchedProblem& problem,
                 const PriorityLevels& levels);

/// Busy windows per task graph (tasks and edges), used to derive the
/// compatibility matrix from a schedule (Figure 3).
std::vector<std::vector<PeriodicWindow>> graph_busy_windows(
    const FlatSpec& flat, const ScheduleResult& schedule);

}  // namespace crusade
