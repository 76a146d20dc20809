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
#include <numeric>

#include "util/math.hpp"
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

/// The overlap test and the minimal shift in one computation, with
/// g = gcd(a.period, b.period) supplied by the caller (a scan over windows of
/// one period computes it once).  Returns 0 when the windows never meet,
/// kNoTime when they meet at every phase of `a`, else the least d > 0 such
/// that `a` moved to start `a.start + d` clears `b`.
///
/// Window `a` shifted by d meets `b` iff some multiple of g lies in the open
/// interval (L + d, U + d), where L = a.start − b.finish and
/// U = a.finish − b.start.  The largest multiple below U is k·g with
/// k = ⌊(U − 1) / g⌋; the windows meet iff it lies above L, and the least
/// clearing shift moves L up onto it.  The interval has the fixed length
/// U − L = len(a) + len(b), so when that exceeds g every phase collides.
/// g = 0 means both windows are one-shot, so only offset 0 is achievable.
inline TimeNs shift_to_clear(const PeriodicWindow& a, const PeriodicWindow& b,
                             std::int64_t g) {
  if (a.empty() || b.empty()) return 0;
  const std::int64_t L = a.start - b.finish;
  const std::int64_t U = a.finish - b.start;
  if (g == 0) return L < 0 && 0 < U ? -L : 0;  // push a past b's one window
  const std::int64_t d = floor_div(U - 1, g) * g - L;
  if (d <= 0) return 0;
  return U - L > g ? kNoTime : d;
}

/// Exact test: do the two periodic windows ever intersect?
inline bool periodic_overlap(const PeriodicWindow& a,
                             const PeriodicWindow& b) {
  return shift_to_clear(a, b, std::gcd(a.period, b.period)) != 0;
}

/// Earliest shift d >= 0 such that window `a` moved to start `a.start + d`
/// does not overlap `b`; returns kNoTime if no shift within one period of
/// `a` resolves the conflict (the windows collide at every phase).
inline TimeNs min_shift_to_avoid(const PeriodicWindow& a,
                                 const PeriodicWindow& b) {
  return shift_to_clear(a, b, std::gcd(a.period, b.period));
}

}  // namespace crusade
