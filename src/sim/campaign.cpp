#include "sim/campaign.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace crusade {

namespace {

/// The fault surface: everything a scenario can target.
struct FaultSurface {
  std::vector<int> pes;        ///< PE instances hosting at least one task
  std::vector<int> app_tasks;  ///< covered application tasks (flat ids)
  std::vector<int> edges;      ///< inter-PE edges (flat ids)
  std::vector<std::pair<int, int>> reconfigs;  ///< (pe, mode) with boot > 0
};

FaultSurface build_surface(const SurvivalInput& input) {
  const FlatSpec& flat = *input.flat;
  const Architecture& arch = *input.arch;
  FaultSurface surface;
  std::vector<char> pe_used(arch.pes.size(), 0);
  for (int tid = 0; tid < flat.task_count(); ++tid) {
    if (input.schedule->task_start[tid] == kNoTime) continue;
    const int pe = input.task_pe(tid);
    if (pe >= 0) pe_used[pe] = 1;
    const Task& task = flat.task(tid);
    // Only covered application work is a transient target: a corrupt check
    // task raises a false alarm rather than a silent failure, which is
    // outside the §6 fault model (DESIGN.md §12).
    if (task.checks < 0 && task.covered_by >= 0) surface.app_tasks.push_back(tid);
  }
  for (std::size_t pe = 0; pe < pe_used.size(); ++pe)
    if (pe_used[pe]) surface.pes.push_back(static_cast<int>(pe));
  for (int eid = 0; eid < flat.edge_count(); ++eid)
    if (arch.edge_link[eid] >= 0 &&
        input.schedule->edge_start[eid] != kNoTime)
      surface.edges.push_back(eid);
  for (std::size_t pe = 0; pe < arch.pes.size(); ++pe) {
    const auto& modes = arch.pes[pe].modes;
    if (modes.size() < 2) continue;  // single-mode devices never reconfigure
    for (std::size_t m = 0; m < modes.size(); ++m)
      if (modes[m].boot_time > 0)
        surface.reconfigs.emplace_back(static_cast<int>(pe),
                                       static_cast<int>(m));
  }
  return surface;
}

int hyper_frames(const FlatSpec& flat) {
  TimeNs min_period = flat.hyperperiod();
  for (int g = 0; g < flat.graph_count(); ++g)
    min_period = std::min(min_period, flat.graph(g).period());
  return static_cast<int>(flat.hyperperiod() / std::max<TimeNs>(1, min_period));
}

/// draw_scenario on the input's fault surface, built once by the caller.
FaultScenario draw(const FaultSurface& surface, const FlatSpec& flat,
                   std::uint64_t seed, const SimParams& params) {
  Rng rng(seed);

  // Weighted pick over the kinds that have candidates.
  std::vector<FaultKind> kinds;
  std::vector<double> weights;
  if (!surface.pes.empty()) {
    kinds.push_back(FaultKind::PeDeath);
    weights.push_back(0.25);
  }
  if (!surface.app_tasks.empty()) {
    kinds.push_back(FaultKind::TransientTask);
    weights.push_back(0.35);
  }
  if (!surface.edges.empty()) {
    kinds.push_back(FaultKind::LinkLoss);
    weights.push_back(0.25);
  }
  if (!surface.reconfigs.empty()) {
    kinds.push_back(FaultKind::ReconfigRetry);
    weights.push_back(0.15);
  }

  FaultScenario sc;
  sc.seed = seed;
  if (kinds.empty()) return sc;  // nothing to fault: FaultKind::None
  sc.kind = kinds[rng.weighted_index(weights)];
  // One shared frame index; simulate_scenario folds it into each graph's
  // own frame count, so any value in [0, max frames) is meaningful.
  sc.frame = static_cast<int>(
      rng.uniform_int(0, std::max(0, hyper_frames(flat) - 1)));

  switch (sc.kind) {
    case FaultKind::PeDeath:
      sc.pe = surface.pes[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(surface.pes.size()) - 1))];
      sc.at = rng.uniform_int(0, std::max<TimeNs>(0, flat.hyperperiod() - 1));
      break;
    case FaultKind::TransientTask:
      sc.task = surface.app_tasks[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(surface.app_tasks.size()) - 1))];
      break;
    case FaultKind::LinkLoss:
      sc.edge = surface.edges[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(surface.edges.size()) - 1))];
      // Mostly recoverable bursts; occasionally one past the retry budget.
      sc.drops = static_cast<int>(
          rng.uniform_int(1, params.max_link_retries + 1));
      break;
    case FaultKind::ReconfigRetry: {
      const auto& [pe, mode] = surface.reconfigs[static_cast<std::size_t>(
          rng.uniform_int(
              0, static_cast<std::int64_t>(surface.reconfigs.size()) - 1))];
      sc.pe = pe;
      sc.mode = mode;
      sc.drops = static_cast<int>(
          rng.uniform_int(1, params.max_reboot_retries + 1));
      break;
    }
    case FaultKind::None:
      break;
  }
  return sc;
}

}  // namespace

FaultScenario draw_scenario(const SurvivalInput& input, std::uint64_t seed,
                            const SimParams& params) {
  CRUSADE_REQUIRE(input.flat && input.arch && input.task_cluster &&
                      input.schedule,
                  "survival input incomplete");
  return draw(build_surface(input), *input.flat, seed, params);
}

CampaignResult run_campaign(const SurvivalInput& input,
                            const CampaignParams& params) {
  OBS_SPAN("phase.sim.campaign");
  CampaignResult result;

  const auto record = [&](const ScenarioOutcome& outcome) {
    ++result.scenarios;
    switch (outcome.verdict) {
      case Verdict::Masked: ++result.masked; break;
      case Verdict::DegradedHonest: ++result.degraded; break;
      case Verdict::FtLie: ++result.ft_lies; break;
    }
    if (outcome.scenario.kind == FaultKind::TransientTask) {
      ++result.transients;
      if (outcome.detected && outcome.checker_pe >= 0 &&
          outcome.checker_pe != outcome.faulted_pe)
        ++result.transients_cross_pe;
    }
    result.outcomes.push_back(outcome);
  };

  // The fault surface and the scenario-independent replay are the same for
  // every scenario: built once.
  const ReplayCache cache = make_replay_cache(input);
  const FaultSurface surface = build_surface(input);

  // The fault-free baseline: a "feasible" schedule that cannot even replay
  // cleanly is the most basic FT lie.
  record(simulate_scenario(input, cache, FaultScenario{}, params.sim));

  for (int i = 0; i < params.seeds; ++i) {
    const std::uint64_t seed = params.seed_base + static_cast<std::uint64_t>(i);
    const FaultScenario scenario =
        draw(surface, *input.flat, seed, params.sim);
    record(simulate_scenario(input, cache, scenario, params.sim));
  }
  return result;
}

}  // namespace crusade
