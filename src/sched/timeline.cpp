#include "sched/timeline.hpp"

#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace crusade {

TimeNs Timeline::earliest_fit(TimeNs ready, TimeNs duration, TimeNs period,
                              int mode, TimeNs ignore_below_period,
                              TimeNs ignore_above_period) const {
  CRUSADE_REQUIRE(duration >= 0, "negative duration");
  CRUSADE_REQUIRE(period > 0, "non-positive period");
  if (duration == 0) return ready;
  const TimeNs ignore_above = ignore_above_period == kNoTime
                                  ? std::numeric_limits<TimeNs>::max()
                                  : ignore_above_period;
  const std::size_t n = windows_.size();
  // Each shift is the least that clears its window, so every start it skips
  // conflicts, and the first start a lap finds clear is the least fit in any
  // visiting order.  Conflict with a window of period p repeats every
  // gcd(period, p), so conflict with the windows that have shifted the start
  // repeats every `conflict_period`, the lcm of their gcds (a divisor of
  // `period`): once the start has moved that far, no start fits.  That can
  // be far: short-period windows that cover their period only together,
  // beside a long-period window, move the start a little at a time.  So the
  // shifts stay bounded too (DESIGN §7 item 15).
  const std::size_t max_shifts = 6 * n + 8;
  std::size_t shifts = 0;
  TimeNs start = ready;
  TimeNs conflict_period = 1;
  TimeNs run_period = 0;  // the last window period met, and its gcd
  TimeNs run_gcd = 0;
  // `clear` counts the windows passed since the last shift; a lap ends it.
  for (std::size_t i = 0, clear = 0; clear < n;
       ++clear, i = i + 1 == n ? 0 : i + 1) {
    const Window& w = windows_[i];
    if (!conflicts_mode(mode, w.mode) || w.span.period < ignore_below_period ||
        w.span.period > ignore_above)
      continue;
    if (w.span.period != run_period) {
      run_period = w.span.period;
      run_gcd = std::gcd(period, run_period);
    }
    const TimeNs shift = shift_to_clear(
        PeriodicWindow{start, start + duration, period}, w.span, run_gcd);
    if (shift == 0) continue;
    if (shift == kNoTime || ++shifts > max_shifts) return kNoTime;
    start += shift;
    conflict_period = std::lcm(conflict_period, run_gcd);
    if (start - ready >= conflict_period) return kNoTime;
    clear = 0;  // window i is clear now; the loop counts it
  }
  return start;
}

double Timeline::utilization_above(TimeNs period, int mode) const {
  double u = 0;
  for (const Window& w : windows_) {
    if (!conflicts_mode(mode, w.mode)) continue;
    if (w.span.period > period)
      u += static_cast<double>(w.work) /
           static_cast<double>(w.span.period);
  }
  return u;
}

std::vector<Timeline::Interference> Timeline::preemptors(TimeNs period,
                                                         int mode) const {
  std::vector<Interference> result;
  for (const Window& w : windows_) {
    if (!conflicts_mode(mode, w.mode)) continue;
    if (w.span.period < period)
      result.push_back({w.work, w.span.period});
  }
  return result;
}

void Timeline::add(TimeNs start, TimeNs finish, TimeNs period, int mode,
                   int owner, TimeNs work) {
  CRUSADE_REQUIRE(finish >= start, "window ends before it starts");
  CRUSADE_REQUIRE(period > 0, "non-positive period");
  if (work == kNoTime) work = finish - start;
  windows_.push_back(
      Window{PeriodicWindow{start, finish, period}, work, mode, owner});
}

double Timeline::utilization() const {
  double u = 0;
  for (const Window& w : windows_)
    u += static_cast<double>(w.work) / static_cast<double>(w.span.period);
  return u;
}

}  // namespace crusade
