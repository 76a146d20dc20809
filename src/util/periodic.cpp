#include "util/periodic.hpp"

#include "util/error.hpp"
#include "util/math.hpp"

namespace crusade {

// Relative-offset interval: windows a (shifted by d) and b overlap iff some
// achievable offset m·g lies in the open interval (L + d, U + d), where
//   L = a.start − b.finish,  U = a.finish − b.start,
// and g = gcd(Pa, Pb) (with gcd(0, P) = P covering one-shot windows and
// g = 0 meaning both windows are one-shot, so only offset 0 is achievable).

bool periodic_overlap(const PeriodicWindow& a, const PeriodicWindow& b) {
  if (a.empty() || b.empty()) return false;
  const std::int64_t L = a.start - b.finish;
  const std::int64_t U = a.finish - b.start;
  const std::int64_t g = std::gcd(a.period, b.period);
  if (g == 0) return L < 0 && 0 < U;
  // Open interval (L, U) over integers contains a multiple of g iff the
  // closed interval [L + 1, U − 1] does.
  return floor_div(U - 1, g) * g >= L + 1;
}

TimeNs min_shift_to_avoid(const PeriodicWindow& a, const PeriodicWindow& b) {
  if (!periodic_overlap(a, b)) return 0;
  const std::int64_t L = a.start - b.finish;
  const std::int64_t U = a.finish - b.start;
  const std::int64_t g = std::gcd(a.period, b.period);
  if (g == 0) return -L;  // push a past b's single window
  // The offset interval has fixed length U − L = len(a) + len(b); if that
  // meets or exceeds g, every phase collides.
  if (U - L > g) return kNoTime;
  // Choose the smallest k with (k+1)·g >= U, then the smallest d >= 0 with
  // k·g <= L + d, i.e. the whole shifted interval fits between consecutive
  // multiples of g.
  const std::int64_t k = floor_div(U + g - 1, g) - 1;
  const std::int64_t d = k * g - L;
  return d > 0 ? d : 0;
}

}  // namespace crusade
