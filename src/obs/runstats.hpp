// Per-run synthesis statistics: where the budget went.
//
// RunStats replaces the single wall-clock float the driver used to report
// with a per-phase time breakdown plus the search-effort counters every
// nested loop of the pipeline spends (schedule evaluations, allocation
// candidates, merge attempts with their rejection reasons, interface
// candidates).  It is embedded in CrusadeResult, echoed into
// InfeasibilityDiagnosis (so a "budget exhausted" verdict can say how the
// budget was spent), and serialized into BENCH_* JSON by the bench
// harnesses.  Every field is this run's own tally, identical with tracing
// on or off and exact when several runs share a process: phase times are a
// handful of clock reads per run, and the pipeline counts into the run's
// RunStats directly (the allocator through AllocParams::stats), never
// through the process-global obs registry.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace crusade {

struct RunStats {
  // --- per-phase wall time, seconds (phase taxonomy: DESIGN.md §10) ---
  double preflight_seconds = 0;   ///< static analysis gate
  double clustering_seconds = 0;  ///< deadline-path clustering
  double allocation_seconds = 0;  ///< cluster allocation + evacuation
  double reconfig_seconds = 0;    ///< compatibility + merge loop
  double interface_seconds = 0;   ///< reconfig-controller synthesis
  double repair_seconds = 0;      ///< final schedule repair
  double validation_seconds = 0;  ///< independent self-check
  double diagnosis_seconds = 0;   ///< infeasibility diagnosis
  // CRUSADE-FT phases (zero on plain Crusade runs):
  double ft_transform_seconds = 0;      ///< §6 check-task augmentation
  double ft_dependability_seconds = 0;  ///< Markov analysis + spares
  double survive_seconds = 0;           ///< survivability self-check sweep
  double total_seconds = 0;  ///< whole Crusade::run (or CrusadeFt::run)

  // --- search-effort counters ---
  std::int64_t sched_evals = 0;        ///< allocator schedule evaluations
                                       ///< (run + repair + evacuation)
  /// Every list-scheduler call, all phases, plus each constructive
  /// baseline the allocator answers from the committed schedule instead of
  /// scheduling it again (it counts as the call it replaces, as it does in
  /// sched_evals and finish_estimates).
  std::int64_t sched_invocations = 0;
  std::int64_t finish_estimates = 0;   ///< finish-time estimation passes
  std::int64_t alloc_candidates = 0;   ///< allocation-array entries
                                       ///< enumerated
  std::int64_t clusters = 0;
  std::int64_t repair_moves = 0;
  std::int64_t merges_tried = 0;
  std::int64_t merges_accepted = 0;
  std::int64_t merges_rejected_cost = 0;       ///< fold did not cut cost
  std::int64_t merges_rejected_schedule = 0;   ///< reschedule missed deadline
  std::int64_t merges_rejected_validator = 0;  ///< vetoed by the merge hook
  std::int64_t merge_reschedules = 0;
  std::int64_t mode_consolidations = 0;
  std::int64_t interface_candidates = 0;  ///< interface options priced
  // CRUSADE-FT effort (zero on plain Crusade runs):
  std::int64_t ft_check_tasks = 0;     ///< assertions + comparators added
  std::int64_t ft_checks_shared = 0;   ///< checks saved by transparency
  std::int64_t ft_spares = 0;          ///< standby spares provisioned
  std::int64_t survive_scenarios = 0;  ///< self-check scenarios replayed
  std::int64_t survive_ft_lies = 0;    ///< hard failures among them

  /// Phase rows in pipeline order (name, seconds), total last.
  std::vector<std::pair<std::string, double>> phase_rows() const;
  /// Counter rows in a stable order (name, value).
  std::vector<std::pair<std::string, std::int64_t>> counter_rows() const;

  /// Aligned-text table of phases then counters (src/util/table).
  std::string table() const;
  /// One JSON object: {"phases":{...},"counters":{...}}.
  std::string to_json() const;
};

}  // namespace crusade
