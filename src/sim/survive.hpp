// Survivability simulator: executes a synthesized static schedule over the
// hyperperiod while injecting runtime faults, and judges whether the
// CRUSADE-FT provisions (check tasks on excluded PEs, standby spares,
// reconfiguration retries) actually deliver what the DependabilityReport
// promises (paper §6, closing the synthesize→verify loop).
//
// The simulator replays the list scheduler's placements — it does not
// re-arbitrate resources.  Injected delays (link retries, reconfiguration
// reboots, spare failover) consume schedule slack and are judged purely
// against deadlines; a delayed task never displaces another task's window.
// This keeps each scenario bit-deterministic, at the documented cost of
// ignoring second-order contention.  No state crosses frames, so a graph's
// frames fall into runs that replay identically: one frame stands for each
// run, and only the few frames the fault can reach replay one by one.  A
// scenario costs O(tasks x (runs + reachable frames)), whatever the number
// of task copies per hyperperiod (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/architecture.hpp"
#include "sched/flat.hpp"
#include "sched/scheduler.hpp"

namespace crusade {

/// What gets injected into one scenario.  `None` replays the schedule
/// unperturbed — the baseline that a "feasible" result must survive.
enum class FaultKind {
  None,
  PeDeath,        ///< permanent PE failure at an instant (spares may cover)
  TransientTask,  ///< one task copy silently computes a wrong result
  LinkLoss,       ///< consecutive message losses on one edge copy
  ReconfigRetry,  ///< FPGA reconfiguration failures burning reboot retries
};

/// Scenario verdict taxonomy (DESIGN.md §12).
enum class Verdict {
  Masked,          ///< fault caught by FT provisions, every deadline met
  DegradedHonest,  ///< deadlines missed, but only on graphs the
                   ///< DependabilityReport already charges unavailability to
  FtLie,           ///< a fault escaped its checker, a checker shared the
                   ///< faulted PE, or an uncharged graph silently degraded —
                   ///< hard failure: the FT claims were wrong
};

const char* to_string(FaultKind kind);
const char* to_string(Verdict verdict);

struct SimParams {
  int max_link_retries = 3;  ///< retransmissions before the transfer aborts
  TimeNs link_retry_timeout = 50 * kMicrosecond;  ///< first retry timeout
  double link_backoff = 2.0;                      ///< timeout multiplier
  int max_reboot_retries = 2;  ///< reconfiguration attempts after the first
  /// Time to switch a failed PE's service module to its standby spare.
  TimeNs spare_failover = 5 * kMillisecond;
};

/// Fully describes one deterministic scenario: same scenario (and the seed
/// that drew it) always replays to the same outcome.
struct FaultScenario {
  FaultKind kind = FaultKind::None;
  std::uint64_t seed = 0;
  int pe = -1;    ///< PeDeath / ReconfigRetry: PE instance id
  int mode = -1;  ///< ReconfigRetry: mode index on `pe`
  int task = -1;  ///< TransientTask: flat task id
  int edge = -1;  ///< LinkLoss: flat edge id
  /// Hyperperiod frame of the targeted copy; per-graph copies are hit when
  /// their own frame index equals `frame` modulo that graph's frame count.
  int frame = 0;
  TimeNs at = 0;  ///< PeDeath: failure instant within the hyperperiod
  int drops = 0;  ///< LinkLoss / ReconfigRetry: consecutive failures

  bool operator==(const FaultScenario&) const = default;
};

struct ScenarioOutcome {
  FaultScenario scenario;
  Verdict verdict = Verdict::Masked;
  bool injected = false;  ///< false only for FaultKind::None
  bool detected = false;  ///< the fault was observed by an FT mechanism
  int checker_task = -1;  ///< flat id of the check task that observed it
  int checker_pe = -1;    ///< PE hosting that checker
  int faulted_pe = -1;    ///< PE hosting the faulted task / the dead PE
  /// Counted per task copy over the hyperperiod, which can pass 2^31.
  std::int64_t deadline_misses = 0;
  std::int64_t frames_lost = 0;  ///< task copies that never produced output
  int retries = 0;               ///< link retransmissions consumed
  TimeNs worst_boot = 0;  ///< worst observed reconfiguration latency
  std::vector<int> affected_graphs;  ///< graphs with misses or lost copies
  std::string detail;  ///< one-line human-readable explanation

  bool operator==(const ScenarioOutcome&) const = default;
};

/// Everything the simulator needs, decoupled from CrusadeFtResult so
/// crusade_sim does not depend on crusade_ft (which calls back into the
/// simulator for its self-check sweep).
struct SurvivalInput {
  const FlatSpec* flat = nullptr;
  const Architecture* arch = nullptr;
  const std::vector<int>* task_cluster = nullptr;
  const ScheduleResult* schedule = nullptr;
  /// Per graph, from the DependabilityReport; empty when synthesis ran
  /// without dependability analysis (then any deadline miss is an FT-LIE —
  /// nothing was charged for).
  std::vector<double> graph_unavailability;
  /// Per PE instance: standby spares of its service module (0 = none).
  std::vector<int> pe_spares;
  TimeNs boot_time_requirement = 0;

  /// PE instance hosting a flat task, or -1 when unallocated.
  int task_pe(int tid) const;
  /// Mode index of a flat task on its PE, or -1.
  int task_mode(int tid) const;
};

/// Replays the schedule under one injected fault and renders the verdict.
/// Deterministic: depends only on (input, scenario, params).
ScenarioOutcome simulate_scenario(const SurvivalInput& input,
                                  const FaultScenario& scenario,
                                  const SimParams& params = {});

}  // namespace crusade
