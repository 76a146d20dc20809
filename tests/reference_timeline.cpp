// Timeline::earliest_fit as it was before it became one cyclic sweep, kept
// verbatim as the test oracle for the sweep (a free function over
// Timeline::windows(); the mode test was a private member).  After each
// shift it restarts at the first window, and it gives up after 6W+8 shifts.
#include "reference_scheduler.hpp"

#include "util/error.hpp"

namespace crusade::reference {

TimeNs earliest_fit(const Timeline& tl, TimeNs ready, TimeNs duration,
                    TimeNs period, int mode, TimeNs ignore_below_period,
                    TimeNs ignore_above_period) {
  auto conflicts_mode = [](int a, int b) { return a < 0 || b < 0 || a == b; };
  CRUSADE_REQUIRE(duration >= 0, "negative duration");
  if (duration == 0) return ready;
  TimeNs start = ready;
  // Each shift clears at least one conflicting window; with shifting phase
  // relationships a bounded retry count keeps the search total.  Failure to
  // fit simply rejects the allocation candidate upstream.
  const int max_iterations = static_cast<int>(tl.windows().size()) * 6 + 8;
  for (int iter = 0; iter < max_iterations; ++iter) {
    bool moved = false;
    for (const Timeline::Window& w : tl.windows()) {
      if (!conflicts_mode(mode, w.mode)) continue;
      if (w.span.period > 0 && w.span.period < ignore_below_period) continue;
      if (ignore_above_period != kNoTime && w.span.period > 0 &&
          w.span.period > ignore_above_period)
        continue;
      const PeriodicWindow candidate{start, start + duration, period};
      if (!periodic_overlap(candidate, w.span)) continue;
      const TimeNs shift = min_shift_to_avoid(candidate, w.span);
      if (shift == kNoTime) return kNoTime;
      start += shift;
      moved = true;
      break;
    }
    if (!moved) return start;
  }
  return kNoTime;
}

}  // namespace crusade::reference
