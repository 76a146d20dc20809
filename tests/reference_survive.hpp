// Test-only reference survivability replay: simulate_scenario as it was
// before runs of identical frames were replayed once, kept as the oracle
// for the run-length replay.  It replays every copy of every graph over
// the hyperperiod.
#pragma once

#include "sim/survive.hpp"

namespace crusade::reference {

/// The old replay (reference_survive.cpp), without its obs span and
/// counters.  Same contract as crusade::simulate_scenario.
ScenarioOutcome simulate_scenario(const SurvivalInput& input,
                                  const FaultScenario& scenario,
                                  const SimParams& params = {});

}  // namespace crusade::reference
