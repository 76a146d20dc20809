// Dynamic reconfiguration generation: PPE merge exploration (paper §4.1,
// Figure 3) and intra-device mode consolidation (§4.2 last step).
//
// Starting from an architecture whose deadlines are met, the merge loop
// computes the merge potential (number of PPEs + links), builds the merge
// array of PPE pairs whose resident task-graph sets are pairwise compatible,
// and greedily folds one device's modes into another as additional
// reconfiguration modes — accepting a merge only when rescheduling (with
// reboot tasks included) still meets every deadline and the dollar cost
// drops.  Passes (at most 8, each ending with mode consolidation) repeat
// until neither the cost nor the merge potential decreases.  Merged modes
// keep the allocator's caps: ERUF/EPUF (DelayManagement{}) and
// kMaxModesPerDevice.
#pragma once

#include <functional>

#include "alloc/allocation.hpp"
#include "graph/specification.hpp"
#include "util/run_control.hpp"

namespace crusade {

struct MergeReport;

/// Called after every completed merge pass whose result will be iterated on
/// (i.e. another pass is coming), and once more with `finished` true when
/// the loop ends.  The driver writes pass-boundary checkpoints here; the
/// current architecture/schedule are visible through the in-out parameters
/// of merge_modes.  Pass boundaries are the only mid-merge states an
/// uninterrupted run is guaranteed to revisit, which is what makes them
/// safe resume points (DESIGN.md §11).
using MergePassHook = std::function<void(const MergeReport&, bool finished)>;

struct MergeParams {
  BootEstimator boot_estimate;
  /// See make_sched_problem: false for spec-declared mode-exclusive
  /// compatibility (reboots charged to the boot-time requirement).
  bool reboots_in_schedule = true;
  /// Graceful-degradation budget: maximum tentative reschedules across the
  /// whole merge loop; 0 = unlimited.  On exhaustion the loop stops with the
  /// best architecture accepted so far and MergeReport::budget_exhausted
  /// set (the architecture is always schedule-consistent — merges are only
  /// ever accepted after a full reschedule).
  int budget = 0;
  /// Anytime stop/deadline control, polled wherever the budget is (null =
  /// never stops).  A triggered control ends the loop with
  /// MergeReport::stopped set; the architecture stays the best feasible one
  /// accepted so far.
  const RunController* control = nullptr;
  /// Checkpoint resume: continue from this report's state — the pass loop
  /// restarts at `resume_from->passes` with all counters preserved, so a
  /// resumed run's final report equals an uninterrupted run's.  The caller
  /// supplies the matching architecture/schedule via the in-out parameters.
  const MergeReport* resume_from = nullptr;
  MergePassHook pass_hook;
};

struct MergeReport {
  int merges_tried = 0;
  int merges_accepted = 0;
  /// Why tried-but-unaccepted merges died, so a budget-exhausted run can say
  /// where the reschedules went (mirrored into RunStats):
  int rejected_cost = 0;       ///< folding did not lower the dollar cost
  int rejected_schedule = 0;   ///< reschedule with reboots missed a deadline
  int rejected_validator = 0;  ///< vetoed by the MergeValidator hook
  int consolidations = 0;
  int passes = 0;
  double cost_before = 0;
  double cost_after = 0;
  int merge_potential_before = 0;  ///< #PPEs + #links (§4.1)
  int merge_potential_after = 0;
  int reschedules = 0;             ///< schedule evaluations spent
  bool budget_exhausted = false;   ///< MergeParams::budget ran out
  /// MergeParams::control fired (deadline/SIGINT): the loop returned its
  /// best accepted architecture early — an anytime result, not a completed
  /// exploration.
  bool stopped = false;
};

/// Runs the merge loop in place; `schedule` is updated to the final
/// architecture's schedule.  Every reschedule uses `levels`, the canonical
/// list-scheduling priorities (scheduling_levels).  A validation hook is
/// consulted after each tentative merge (CRUSADE-FT hooks dependability
/// analysis here, §6).
using MergeValidator = std::function<bool(const Architecture&)>;

MergeReport merge_modes(Architecture& arch, ScheduleResult& schedule,
                        const FlatSpec& flat, const PriorityLevels& levels,
                        const CompatibilityMatrix& compat,
                        const std::vector<int>& task_cluster,
                        const MergeParams& params,
                        const MergeValidator& validator = {});

}  // namespace crusade
