// Per-resource occupancy timeline over periodic windows.
//
// Instead of unrolling [hyperperiod ÷ period] copies of every task (which
// the paper notes is impractical for multi-rate graphs and replaces with the
// association array), each scheduled task contributes ONE periodic window
// that exactly represents all of its copies; conflict queries use the exact
// gcd-based overlap test from util/periodic.hpp.  Windows tagged with
// different reconfiguration modes of a programmable device never conflict —
// mode-exclusive task graphs are guaranteed (by compatibility) never to
// execute simultaneously.  Every period is positive.
//
// A fit is one cyclic sweep over the windows in insertion order: a window in
// conflict pushes the start by the least shift that clears it, the sweep goes
// on with the next window, and a lap of clear windows ends it (DESIGN §7
// item 15).
#pragma once

#include <cstddef>
#include <vector>

#include "util/periodic.hpp"
#include "util/time.hpp"

namespace crusade {

class Timeline {
 public:
  struct Window {
    PeriodicWindow span;  ///< busy span (may include preemption inflation)
    TimeNs work = 0;      ///< pure execution demand inside the span
    int mode = -1;   ///< PPE reconfiguration mode, -1 = modeless resource
    int owner = -1;  ///< flat task/edge id or synthetic reboot id
    bool operator==(const Window&) const = default;
  };

  void clear() { windows_.clear(); }
  /// Becomes the first `count` windows of `from` (a schedule restore).
  void assign_prefix(const Timeline& from, std::size_t count) {
    windows_.assign(from.windows_.begin(),
                    from.windows_.begin() +
                        static_cast<std::ptrdiff_t>(count));
  }
  void reserve(std::size_t n) { windows_.reserve(n); }
  const std::vector<Window>& windows() const { return windows_; }

  /// Earliest start >= ready at which [start, start+duration) with the given
  /// positive period fits without conflicting any window of the same mode
  /// (or any modeless window).  Windows with a period strictly below
  /// `ignore_below_period` are skipped — the preemptive-CPU path treats them
  /// as preemptors already paid for by response-time inflation; windows with
  /// a period strictly above `ignore_above_period` are skipped likewise —
  /// the new task preempts them, and their load is charged via the
  /// processor-sharing factor instead.  Returns kNoTime when no fit exists,
  /// or when the search ends at its bound of 6W+8 shifts (W windows) first.
  TimeNs earliest_fit(TimeNs ready, TimeNs duration, TimeNs period, int mode,
                      TimeNs ignore_below_period = 0,
                      TimeNs ignore_above_period = kNoTime) const;

  /// Long-run utilization of conflicting-mode windows with a period strictly
  /// greater than `period` (the background a preemptive task runs over).
  double utilization_above(TimeNs period, int mode) const;

  /// Sum over conflicting-mode windows with a shorter period (the
  /// preemptors) used by the preemptive placement path.
  struct Interference {
    TimeNs exec = 0;
    TimeNs period = 0;
  };
  std::vector<Interference> preemptors(TimeNs period, int mode) const;

  /// `work` is the uninflated execution demand; interference and
  /// utilization queries use it instead of the (possibly preemption-
  /// inflated) busy span so pessimism does not compound.  Defaults to the
  /// span length.
  void add(TimeNs start, TimeNs finish, TimeNs period, int mode, int owner,
           TimeNs work = kNoTime);

  /// Total long-run utilization of the resource (sum of length/period over
  /// windows, counting each mode separately).
  double utilization() const;

  bool operator==(const Timeline&) const = default;

 private:
  bool conflicts_mode(int a, int b) const {
    return a < 0 || b < 0 || a == b;
  }
  std::vector<Window> windows_;
};

}  // namespace crusade
