// Cluster allocation (paper §5 synthesis loops, §4.2 mode-aware
// allocation).
//
// Outer loop: clusters in decreasing priority order.  Inner loop: build the
// allocation array — existing PE instances (for programmable devices, each
// existing mode plus a possible new mode when the cluster's task graph is
// compatible with every graph in the device's other modes), and a new
// instance of every feasible PE type — ordered by incremental dollar cost.
// Each candidate is evaluated by scheduling and finish-time estimation; the
// cheapest allocation meeting all deadlines wins.
#pragma once

#include <functional>
#include <vector>

#include "alloc/architecture.hpp"
#include "alloc/cluster.hpp"
#include "graph/specification.hpp"
#include "obs/runstats.hpp"
#include "sched/scheduler.hpp"
#include "util/run_control.hpp"

namespace crusade {

/// The allocation search's state between two whole-cluster commits, which
/// is all a checkpoint needs to continue the search: the committed
/// architecture, which clusters it already places, and the acceptance bar
/// (`committed_*`, the last baseline schedule's numbers).  After budget
/// exhaustion the baseline is no longer recomputed, so a resume point must
/// restore the stale bar exactly or the dirty-commit count of a resumed run
/// could drift.  Allocator::run keeps one live and hands it to the progress
/// hook after every commit; a checkpoint embeds a copy.
struct AllocState {
  Architecture arch;
  std::vector<char> placed;  ///< per cluster: committed yet
  int clusters_with_misses = 0;
  TimeNs committed_tardiness = 0;
  TimeNs committed_estimate = 0;
  int committed_failures = 0;
};

using AllocProgressHook = std::function<void(const AllocState&)>;

/// Estimate of a programmable device's reconfiguration time given the logic
/// it must load; provided by interface synthesis (§4.4).  Null = boot-free.
using BootEstimator = std::function<TimeNs(const PeType&, int pfus_in_mode)>;

/// Most reconfiguration modes one FPGA holds, whether allocation opens them
/// (§4.2) or the merge loop folds them together (§4.1).
inline constexpr int kMaxModesPerDevice = 8;

struct AllocParams {
  BootEstimator boot_estimate;
  /// Optional power budget in milliwatts (extension; 0 = unconstrained):
  /// candidates pushing the architecture's typical draw past the cap are
  /// only taken when nothing under the cap meets the deadlines.
  double power_cap_mw = 0;
  /// Field-upgrade mode (§3 motivations 1-2): false forbids buying new PE
  /// instances, so allocation must fit the workload onto an existing
  /// architecture by reprogramming alone.  Used by try_field_upgrade().
  bool allow_new_pes = true;
  /// Graceful-degradation budget: maximum schedule evaluations in the
  /// `stats` tally (run + repair + evacuation); 0 = unlimited.  On
  /// exhaustion the search stops refining, every remaining cluster takes its
  /// cheapest candidate, and the best-so-far architecture is returned with
  /// AllocationOutcome::budget_exhausted set — callers diagnose the result
  /// instead of hanging on a hopeless search (may overrun by one evaluation
  /// per remaining cluster to keep the schedule/architecture pair honest).
  int max_iterations = 0;
  /// Per-type masks from the preflight dominated-resource analysis
  /// (analyze A020/A021): a true entry removes that PE/link type from the
  /// allocation array — no new instance of it is ever created.  Empty (the
  /// default) keeps every type.  Sound because a dominated type has a
  /// dominator that is no worse on any axis for this specification.
  std::vector<char> pruned_pe_types;
  std::vector<char> pruned_link_types;
  /// Anytime stop/deadline control, polled at every budget checkpoint
  /// (null = never stops).  Once it fires the search wraps up exactly like
  /// budget exhaustion — each remaining cluster takes its cheapest
  /// candidate after one scheduling pass — and AllocationOutcome::stopped
  /// is set.
  const RunController* control = nullptr;
  /// The run's statistics sink: the allocator counts its schedule
  /// evaluations, repair moves, allocation candidates, scheduler calls and
  /// finish-time estimations into it, and max_iterations budgets its
  /// sched_evals, so a checkpoint resume that hands in the pre-crash stats
  /// continues the budget instead of restarting it.  Null keeps a private
  /// tally.
  RunStats* stats = nullptr;
  /// Called after every committed whole-cluster placement in run(),
  /// including the wrap-up commits made once `control` has fired (its
  /// triggered() is then true): those states are off the uninterrupted
  /// search trajectory and must never be checkpointed.  Budget-exhausted
  /// states, by contrast, are deterministic and remain valid resume points.
  AllocProgressHook progress_hook;
};

struct AllocationOutcome {
  Architecture arch;
  ScheduleResult schedule;        ///< final schedule of the architecture
  std::vector<int> task_cluster;  ///< flat task id -> cluster id
  int clusters_with_misses = 0;   ///< clusters committed despite tardiness
  /// Field-upgrade mode only: some cluster found no home on the board.
  bool upgrade_rejected = false;
  bool feasible = false;          ///< all deadlines met in the final schedule
  /// AllocParams::max_iterations ran out before the search converged; the
  /// result is the best architecture found, not a completed exploration.
  bool budget_exhausted = false;
  /// AllocParams::control fired (wall-clock deadline or cooperative stop):
  /// the search wrapped up early with the best architecture so far.
  bool stopped = false;
};

/// Builds the scheduling problem for an architecture (shared by allocation,
/// mode merging and final evaluation).
///
/// `reboots_in_schedule` selects the reconfiguration-cost semantics: when
/// compatibility was *derived* from the schedule (Figure 3), modes activate
/// every hyperperiod and the reboot occupies the device as a periodic
/// window; when the specification *declares* mode-exclusive families
/// (protection switching, feature modes), reconfiguration happens at rare
/// system-mode transitions, so the boot time is charged against the
/// boot-time requirement (§4.4) instead of the frame schedule.
SchedProblem make_sched_problem(const Architecture& arch, const FlatSpec& flat,
                                const std::vector<int>& task_cluster,
                                const BootEstimator& boot_estimate,
                                bool reboots_in_schedule = true);

/// Priority levels from the current allocation state: allocated tasks/edges
/// use actual times, the rest the worst-case defaults `task_time` /
/// `edge_time` (default_task_times / default_edge_times, §5).  Drives the
/// outer loop's cluster ordering.
PriorityLevels current_priority_levels(const Architecture& arch,
                                       const FlatSpec& flat,
                                       const ResourceLibrary& lib,
                                       const std::vector<int>& task_cluster,
                                       std::vector<TimeNs> task_time,
                                       std::vector<TimeNs> edge_time);

/// Canonical list-scheduling priorities: deadline-based levels from the
/// worst-case (pre-allocation) time estimates.  Every scheduling call across
/// allocation, merging and interface synthesis uses these SAME levels so a
/// given architecture always yields the same schedule — candidate
/// comparisons stay apples-to-apples and acceptance bars cannot creep
/// through list-order churn.  (Deviation from the paper noted in DESIGN.md:
/// stability over adaptivity.)
PriorityLevels scheduling_levels(const FlatSpec& flat,
                                 const ResourceLibrary& lib);

/// The allocation search's comparison of candidate schedules, in the
/// constructive loop and in repair: `candidate` beats `best` with fewer
/// placement failures, or as many and less total plus estimated tardiness.
/// A cut result beats nothing.
bool schedule_beats(const ScheduleResult& candidate, const ScheduleResult& best);
/// The cutoff repair hands the list scheduler for a candidate evaluated
/// after `best`: a call whose running counters reach it cannot end up
/// beating `best`, so repair loses nothing when it stops there (DESIGN.md §7
/// item 16).  It and schedule_beats read one ranking of schedules.
ScheduleCutoff cutoff_to_beat(const ScheduleResult& best);

namespace reference {
struct AllocationArray;  // the test oracle for Allocator::enumerate
}

class Allocator {
 public:
  /// `compat` selects the reconfiguration semantics.  Non-null: mode-aware
  /// allocation driven by the specification's compatibility vectors (§4.2),
  /// with reconfiguration charged to the boot-time requirement.  Null: one
  /// mode per device, with reboots in the frame schedule (see
  /// make_sched_problem).  `canon` is canonical_times(flat, lib); like
  /// `flat` and `lib` it must outlive the allocator.
  Allocator(const FlatSpec& flat, const ResourceLibrary& lib,
            const CanonicalTimes& canon, const CompatibilityMatrix* compat,
            AllocParams params);
  Allocator(const FlatSpec&, const ResourceLibrary&, CanonicalTimes&&,
            const CompatibilityMatrix*, AllocParams) = delete;

  /// Allocates every cluster; returns the architecture and its schedule.
  /// `seed_arch` (optional) starts allocation from an existing architecture
  /// instead of an empty one — the field-upgrade entry point.  `resume`
  /// (optional, exclusive with seed_arch) continues a checkpointed run at
  /// its next unplaced cluster; because allocation is deterministic the
  /// continuation commits exactly the placements the interrupted run would
  /// have.
  AllocationOutcome run(const std::vector<Cluster>& clusters,
                        const Architecture* seed_arch = nullptr,
                        const AllocState* resume = nullptr);

  /// Schedules an architecture the way every allocator call does — same
  /// problem construction, optimistic estimates and canonical priority
  /// levels — resuming from `base`'s common prefix and stopping at `cutoff`
  /// when given.  Counts the scheduler call and its finish-time estimation,
  /// cut or not, but not against the evaluation budget.  Checkpoint resume
  /// uses it to rebuild the schedule that was deliberately not serialized
  /// (it is a pure function of the architecture).
  ScheduleResult schedule_architecture(const Architecture& arch,
                                       const std::vector<int>& task_cluster,
                                       const ScheduleResult* base = nullptr,
                                       const ScheduleCutoff* cutoff = nullptr);

  /// Post-allocation repair: relocate clusters owning failing/tardy tasks
  /// while the schedule improves.  Also used by the driver after merge and
  /// interface synthesis, when exact boot times may have perturbed the
  /// schedule.
  void repair(AllocationOutcome& outcome,
              const std::vector<Cluster>& clusters);

  /// Device evacuation: greedily try to empty each live PE by relocating
  /// its clusters onto the rest of the architecture (same enumeration and
  /// scheduling checks as allocation); a device whose clusters all find a
  /// cheaper home dies and its cost is saved.  Recovers the fragmentation
  /// left by greedy constructive allocation.  Returns devices emptied.
  int evacuate_devices(AllocationOutcome& outcome,
                       const std::vector<Cluster>& clusters);

 private:
  friend struct reference::AllocationArray;

  bool pe_type_pruned(PeTypeId type) const {
    return type >= 0 &&
           type < static_cast<PeTypeId>(params_.pruned_pe_types.size()) &&
           params_.pruned_pe_types[type] != 0;
  }
  bool link_type_pruned(LinkTypeId type) const {
    return type >= 0 &&
           type < static_cast<LinkTypeId>(params_.pruned_link_types.size()) &&
           params_.pruned_link_types[type] != 0;
  }

  /// One allocation-array entry: a placement of the cluster on the
  /// architecture it was enumerated from, not a built architecture.
  struct Candidate {
    int pe = -1;    ///< target PE instance (a fresh one gets this id)
    int mode = 0;   ///< target mode; the PE's mode count opens a new one
    PeTypeId new_type = -1;  ///< type of the fresh PE when new_instance
    double delta_cost = 0;
    double preference = 0;
    bool created_mode = false;
    bool new_instance = false;  ///< fresh PE (interference-free escape hatch)
    /// Number of resident graphs on the target device this cluster's graph
    /// is compatible with: spatial sharing with compatible graphs squanders
    /// a temporal-sharing (reconfiguration) opportunity, so candidates with
    /// less waste order first at equal cost.
    int compat_waste = 0;
  };

  /// The allocation array of `cluster` on `arch`, unordered: the existing
  /// PE entries, then (with `fresh_pes`) a fresh PE of every feasible type.
  /// Each entry is costed by applying it to `scratch_`; the fresh PE is
  /// built once and retyped for every further type.
  std::vector<Candidate> enumerate(const Architecture& arch,
                                   const Cluster& cluster,
                                   const std::vector<int>& task_cluster,
                                   bool fresh_pes = true);
  /// Applies `cand` in place to the architecture it was enumerated from (or
  /// an equal one): the fresh PE if it buys one, the placement, and the
  /// link wiring of its boundary edges.
  void materialize(Architecture& arch, const Candidate& cand,
                   const Cluster& cluster,
                   const std::vector<int>& task_cluster) const;
  bool exclusion_clash(const Architecture& arch, const Cluster& cluster,
                       int pe, const std::vector<int>& task_cluster) const;
  /// Reverses a placement (capacity bookkeeping + boundary edge links).
  void unplace(Architecture& arch, const Cluster& cluster,
               const std::vector<Cluster>& clusters) const;

  /// Budget-counted scheduling: every schedule evaluation in allocation,
  /// repair and evacuation funnels through here, scheduling `arch` from
  /// the common prefix of `committed`'s schedule (a default-constructed
  /// schedule before the first commit means from scratch).  A `cutoff`
  /// may cut the call (ScheduleResult::cut); it still counts in full.
  ScheduleResult evaluate(const Architecture& arch,
                          const AllocationOutcome& committed,
                          const ScheduleCutoff* cutoff = nullptr);
  RunStats& stats() { return params_.stats ? *params_.stats : own_stats_; }
  /// One gate for both truncation causes, polled wherever the search can
  /// stop refining: the evaluation budget (deterministic — a resumed run
  /// hits it at the same evaluation) and the anytime stop/deadline control
  /// (wall-clock, latched so wrap-up states stay out of checkpoints).
  bool keep_going() {
    if (params_.control && params_.control->should_stop()) {
      stopped_ = true;
      return false;
    }
    if (params_.max_iterations > 0 &&
        stats().sched_evals >= params_.max_iterations) {
      budget_exhausted_ = true;
      return false;
    }
    return true;
  }

  const FlatSpec& flat_;
  const ResourceLibrary& lib_;
  /// The specification's worst-case time estimates and the canonical
  /// list-scheduling priorities (see scheduling_levels()).
  const CanonicalTimes& canon_;
  const CompatibilityMatrix* compat_;
  AllocParams params_;
  /// Minimum feasible execution time per task — the admissible estimate fed
  /// to the scheduler's finish-time estimation pass.
  std::vector<TimeNs> optimistic_exec_;
  /// Per-graph FPGA purity (§4.1) applies while modes are being formed
  /// during allocation; post-allocation moves (repair, evacuation) may pack
  /// freely — contamination can no longer block a future mode.
  bool relax_fpga_purity_ = false;
  /// enumerate()'s costing buffer: copy-assigned from the base architecture
  /// before each placement, so its vectors keep their capacity.
  Architecture scratch_;
  RunStats own_stats_;  ///< the tally when AllocParams::stats is null
  bool budget_exhausted_ = false;
  bool stopped_ = false;
};

}  // namespace crusade
