// Test-only reference scheduling code: the list scheduler and the timeline
// fit as they were before they were optimized, kept as oracles.
#pragma once

#include "sched/scheduler.hpp"

namespace crusade::reference {

/// The from-scratch list scheduler without a resume record
/// (reference_scheduler.cpp).  It places through the reference fit below.
ScheduleResult run_list_scheduler(const SchedProblem& problem,
                                  const PriorityLevels& levels);

/// Timeline::earliest_fit as a restart scan over `tl.windows()` with a cap
/// of 6W+8 shifts (reference_timeline.cpp).
TimeNs earliest_fit(const Timeline& tl, TimeNs ready, TimeNs duration,
                    TimeNs period, int mode, TimeNs ignore_below_period = 0,
                    TimeNs ignore_above_period = kNoTime);

}  // namespace crusade::reference
