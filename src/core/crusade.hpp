// The CRUSADE co-synthesis driver (paper §5, Figure 5).
//
// Pre-processing: validate the specification, flatten it, cluster tasks
// along deadline-critical paths.  Synthesis: allocate clusters in priority
// order, evaluating allocation arrays by scheduling + finish-time
// estimation.  Dynamic reconfiguration generation: derive or adopt the
// compatibility matrix, explore PPE merges with reboot tasks, and synthesize
// the cheapest reconfiguration-controller interface meeting the boot-time
// requirement.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "alloc/allocation.hpp"
#include "alloc/cluster.hpp"
#include "analyze/analyzer.hpp"
#include "ckpt/checkpoint.hpp"
#include "graph/specification.hpp"
#include "obs/runstats.hpp"
#include "reconfig/compatibility.hpp"
#include "reconfig/interface_synth.hpp"
#include "reconfig/merge.hpp"
#include "util/run_control.hpp"
#include "validate/validator.hpp"

namespace crusade {

/// Crash-safe checkpointing policy (DESIGN.md §11).  When `path` is set (or
/// `on_write` for in-process consumers), the driver snapshots the search at
/// on-trajectory states: every `every_evals` schedule evaluations during
/// allocation, and at every merge pass boundary.  Disabled when both are
/// empty.
struct CheckpointPolicy {
  std::string path;
  /// Minimum schedule evaluations between consecutive allocation-stage
  /// checkpoints (merge pass boundaries always checkpoint — they are rare).
  std::int64_t every_evals = 500;
  /// Test/observer hook: called with every checkpoint the policy takes,
  /// whether or not `path` is set.
  std::function<void(const ckpt::Checkpoint&)> on_write;

  bool enabled() const { return !path.empty() || static_cast<bool>(on_write); }
};

/// What a caller sets.  run() builds the allocator's and the merge loop's
/// parameters from it; the search's constants (ERUF/EPUF, allocation-array
/// size, mode and cluster caps, pass counts) live at their use.
/// Compatibility vectors supplied with the specification drive mode-aware
/// allocation (§4.2); without them, compatibility is derived from the
/// schedule (Figure 3) before merging.
struct CrusadeParams {
  /// Master switch for dynamic reconfiguration (the "without" columns of
  /// Tables 2–3 set this false: every programmable device keeps one mode).
  bool enable_reconfig = true;
  ClusteringParams clustering;
  /// Optional power budget in milliwatts (AllocParams::power_cap_mw;
  /// 0 = unconstrained).
  double power_cap_mw = 0;
  /// Graceful-degradation budgets (0 = unlimited): schedule evaluations
  /// across allocation, repair and evacuation (AllocParams::max_iterations),
  /// and reschedules in the merge loop (MergeParams::budget).
  int max_iterations = 0;
  int merge_budget = 0;
  /// Called after every committed whole-cluster placement (see
  /// AllocParams::progress_hook), before the checkpoint writer runs.
  AllocProgressHook progress_hook;
  /// Hook consulted on every tentative merge (CRUSADE-FT dependability).
  MergeValidator merge_validator;
  /// Run the independent validator on the final architecture and never
  /// claim feasibility the validator rejects.  On by default; the cost is
  /// one linear pass over the result — synthesis never trusts its own
  /// bookkeeping for the feasibility verdict it hands the caller.
  bool self_check = true;
  /// Run the static analyzer (src/analyze, `crusade lint`) before
  /// synthesis.  Analyzer errors are necessary-condition violations, so
  /// the run returns immediately with an honest InfeasibilityDiagnosis
  /// instead of burning the search budget on a provably hopeless input.
  bool preflight = true;
  /// Let preflight's dominated-resource findings (A020/A021) shrink the
  /// allocation array.  Sound by construction — a dominated type is never
  /// the unique way to meet cost or feasibility — but separable so the
  /// claim stays testable (and benchable) against an unpruned run.
  bool preflight_prune = true;
  /// Anytime stop/deadline control shared with the CLI's signal handler:
  /// when it fires, allocation and merging wrap up with the best
  /// architecture found so far and CrusadeResult::stopped is set.  The
  /// result is always complete and validator-checked — never empty.
  const RunController* control = nullptr;
  /// Crash-safe checkpointing (see CheckpointPolicy).
  CheckpointPolicy checkpoint;
  /// Resume from a loaded checkpoint.  The caller must have verified the
  /// fingerprint (ckpt::check_spec_hash against Crusade::fingerprint);
  /// run() re-verifies and throws on mismatch.  Because the search is
  /// deterministic, the resumed run's final architecture is bit-identical
  /// to an uninterrupted run's.
  const ckpt::Checkpoint* resume = nullptr;
};

struct CrusadeResult {
  Architecture arch;
  ScheduleResult schedule;
  std::vector<Cluster> clusters;
  std::vector<int> task_cluster;
  CompatibilityMatrix compat;      ///< matrix used for reconfiguration
  InterfaceChoice interface_choice;
  MergeReport merge_report;
  CostBreakdown cost;
  bool feasible = false;           ///< final schedule meets every deadline
  int pe_count = 0;
  int link_count = 0;
  int mode_count = 0;
  int clusters_with_misses = 0;
  double power_mw = 0;  ///< typical draw of the final architecture
  /// Per-phase wall time and search-effort counters (obs/runstats.hpp),
  /// counted by this run alone whether or not tracing is on.
  /// stats.total_seconds is the whole run's wall time; stats.sched_evals is
  /// the allocator's schedule-evaluation tally (the budget
  /// CrusadeParams::max_iterations caps).
  RunStats stats;
  /// Independent re-verification of the result (CrusadeParams::self_check).
  /// When the validator finds a schedule-level violation in a result the
  /// pipeline believed feasible, `feasible` above is demoted to false and
  /// the violations say why.
  ValidationReport validation;
  /// Populated whenever the result is infeasible or a search budget ran
  /// out: which tasks miss deadlines, by how much, and the saturated
  /// resource on each miss's critical chain.
  InfeasibilityDiagnosis diagnosis;
  /// Static-analysis report from the pre-synthesis pass
  /// (CrusadeParams::preflight); empty when preflight is disabled.
  AnalysisReport preflight;
  /// The anytime control fired (deadline / cooperative stop): the search was
  /// truncated and `arch` is the best architecture found so far, not a
  /// completed exploration.  Echoed into diagnosis.deadline_stopped.
  bool stopped = false;
  /// This run continued from a checkpoint (CrusadeParams::resume); `stats`
  /// includes the pre-crash phase times and counters.
  bool resumed = false;
};

class Crusade {
 public:
  Crusade(const Specification& spec, const ResourceLibrary& lib,
          CrusadeParams params = {});

  CrusadeResult run();

  /// FNV-1a fingerprint of the canonical specification text plus every
  /// search-shaping parameter (enable_reconfig, clustering.enabled,
  /// power_cap_mw, max_iterations, merge_budget, preflight,
  /// preflight_prune): two runs with equal fingerprints perform the
  /// identical search, which is what licenses resuming one from the other's
  /// checkpoint (ckpt::check_spec_hash).
  static std::uint64_t fingerprint(const Specification& spec,
                                   const ResourceLibrary& lib,
                                   const CrusadeParams& params);

 private:
  const Specification& spec_;
  const ResourceLibrary& lib_;
  CrusadeParams params_;
};

}  // namespace crusade
