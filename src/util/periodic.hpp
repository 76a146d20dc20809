// Exact periodic-interval arithmetic.
//
// A scheduled task occupies the half-open busy window [start, finish) on its
// resource, repeated every `period` forever (one instance per task-graph
// period).  CRUSADE's compatibility analysis (paper §4.1) and the
// non-preemptive placement search both reduce to the question: do two
// periodic windows ever intersect?
//
// The test is exact, not sampled: instances of window 1 are
// [s1 + a·P1, f1 + a·P1) and of window 2 [s2 + b·P2, f2 + b·P2).  They
// intersect for some integers a, b iff some integer multiple of
// g = gcd(P1, P2) lies in the open interval (s1 − f2, f1 − s2) — the set of
// achievable relative offsets {b·P2 − a·P1} is exactly g·Z.
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace crusade {

/// One busy window repeating with a period.  finish > start is required for
/// a non-empty window; empty windows (finish == start) never overlap.
struct PeriodicWindow {
  TimeNs start = 0;
  TimeNs finish = 0;
  TimeNs period = 0;

  TimeNs length() const { return finish - start; }
  bool empty() const { return finish <= start; }
  bool operator==(const PeriodicWindow&) const = default;
};

/// Exact test: do the two periodic windows ever intersect?
bool periodic_overlap(const PeriodicWindow& a, const PeriodicWindow& b);

/// Earliest shift d >= 0 such that window `a` moved to start `a.start + d`
/// does not overlap `b`; returns kNoTime if no shift within one period of
/// `a` resolves the conflict (the windows collide at every phase).
TimeNs min_shift_to_avoid(const PeriodicWindow& a, const PeriodicWindow& b);

}  // namespace crusade
