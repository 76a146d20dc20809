// crusade_bench_reference: times a fixed computation whenever asked.
//
// crusade_bench keeps one of these running beside it and scales its timings
// by the answers (README.md, "Machine noise and the reference").  It is a
// separate program, built from this file alone and linked with nothing of the
// repository, so no change to the engine, its heap or its build settings can
// move the reference.
//
// Protocol: each line on stdin is a CPU number (or -1 for no pinning); the
// program pins itself to that CPU, runs the computation once and answers one
// line, the elapsed milliseconds.  It exits at end of input.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <vector>

namespace {

volatile std::uint64_t sink = 0;

/// Allocation-heavy work on a small working set, like the engine's: map
/// inserts, container copies, sorts and erases.
double reference_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  std::mt19937_64 rng(12345);
  std::map<std::uint64_t, std::vector<int>> base;
  for (int i = 0; i < 6000; ++i) base[rng() % 3000].push_back(i);
  for (int rep = 0; rep < 6; ++rep) {
    std::vector<std::vector<int>> copies;
    for (const auto& entry : base) copies.push_back(entry.second);
    for (std::vector<int>& v : copies) {
      std::sort(v.begin(), v.end());
      sink = sink + v.size();
    }
    std::map<std::uint64_t, std::vector<int>> trimmed = base;
    for (int i = 0; i < 1000; ++i) trimmed.erase(rng() % 3000);
    sink = sink + trimmed.size();
  }
  return 1e3 * std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
}

}  // namespace

int main() {
  int cpu = -1;
  while (std::scanf("%d", &cpu) == 1) {
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      (void)sched_setaffinity(0, sizeof set, &set);
    }
    std::printf("%.6f\n", reference_ms());
    std::fflush(stdout);
  }
  return 0;
}
