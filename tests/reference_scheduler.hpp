// Test-only reference list scheduler (see reference_scheduler.cpp).
#pragma once

#include "sched/scheduler.hpp"

namespace crusade::reference {

/// The from-scratch list scheduler without a resume record.
ScheduleResult run_list_scheduler(const SchedProblem& problem,
                                  const PriorityLevels& levels);

}  // namespace crusade::reference
