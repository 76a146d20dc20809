// google-benchmark microbenchmarks for the hot kernels of the co-synthesis
// inner loop (periodic-window overlap, timeline placement, priority levels,
// list scheduling and the FPGA router) and for the per-run setup a synthesis
// pays before its search (flattening, preflight and clustering).
#include <benchmark/benchmark.h>

#include "alloc/cluster.hpp"
#include "analyze/analyzer.hpp"
#include "fpga/delay.hpp"
#include "obs/obs.hpp"
#include "sched/scheduler.hpp"
#include "sched/timeline.hpp"
#include "tgff/circuits.hpp"
#include "tgff/generator.hpp"
#include "tgff/profiles.hpp"
#include "util/periodic.hpp"

using namespace crusade;

namespace {

void BM_PeriodicOverlap(benchmark::State& state) {
  const PeriodicWindow a{100, 400, 25'000};
  const PeriodicWindow b{7'000, 7'900, 60'000'000'000};
  for (auto _ : state) {
    benchmark::DoNotOptimize(periodic_overlap(a, b));
  }
}
BENCHMARK(BM_PeriodicOverlap);

void BM_TimelineEarliestFit(benchmark::State& state) {
  Timeline tl;
  Rng rng(7);
  for (int i = 0; i < state.range(0); ++i) {
    const TimeNs period = (i % 2) ? 1'000'000 : 10'000'000;
    const TimeNs start = rng.uniform_int(0, period - 2'000);
    tl.add(start, start + 1'000, period, -1, i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tl.earliest_fit(0, 5'000, 100'000'000, /*mode=*/-1));
  }
}
BENCHMARK(BM_TimelineEarliestFit)->Arg(16)->Arg(64)->Arg(256);

// A ring of W windows of one period with no gap, inserted in time order or
// shuffled: no start fits, and the search must find that out.
void BM_TimelineEarliestFitSaturated(benchmark::State& state) {
  const TimeNs period = 1'024'000;
  const TimeNs length = period / state.range(0);
  std::vector<TimeNs> starts;
  for (TimeNs s = 0; s < period; s += length) starts.push_back(s);
  Rng rng(7);
  if (state.range(1) != 0) rng.shuffle(starts);
  Timeline tl;
  for (std::size_t i = 0; i < starts.size(); ++i)
    tl.add(starts[i], starts[i] + length, period, -1, static_cast<int>(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tl.earliest_fit(0, 1'000, 100 * period, /*mode=*/-1));
  }
}
BENCHMARK(BM_TimelineEarliestFitSaturated)
    ->ArgNames({"windows", "shuffled"})
    ->ArgsProduct({{16, 64, 256}, {0, 1}});

const Specification& bench_spec() {
  static const ResourceLibrary lib = telecom_1999();
  static const Specification spec = [] {
    SpecGenerator gen(lib);
    return gen.generate(profile_config(profile_by_name("A1TR"), 0.1));
  }();
  return spec;
}

void BM_FlatSpec(benchmark::State& state) {
  for (auto _ : state) {
    const FlatSpec flat(bench_spec());
    benchmark::DoNotOptimize(flat.fingerprint());
  }
}
BENCHMARK(BM_FlatSpec);

void BM_Preflight(benchmark::State& state) {
  static const ResourceLibrary lib = telecom_1999();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_specification(bench_spec(), lib));
  }
}
BENCHMARK(BM_Preflight);

void BM_PriorityLevels(benchmark::State& state) {
  static const ResourceLibrary lib = telecom_1999();
  const FlatSpec flat(bench_spec());
  const auto task_time = default_task_times(flat, lib);
  const auto edge_time = default_edge_times(flat, lib);
  for (auto _ : state) {
    benchmark::DoNotOptimize(priority_levels(flat, task_time, edge_time));
  }
}
BENCHMARK(BM_PriorityLevels);

void BM_Clustering(benchmark::State& state) {
  static const ResourceLibrary lib = telecom_1999();
  const FlatSpec flat(bench_spec());
  const CanonicalTimes canon = canonical_times(flat, lib);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster_tasks(flat, lib, canon, ClusteringParams{}));
  }
}
BENCHMARK(BM_Clustering);

// The observability fast path: with tracing off, a span or counter must
// cost one relaxed load and a predicted branch (the obs.hpp contract).
void BM_DisabledSpan(benchmark::State& state) {
  obs::set_enabled(false);
  for (auto _ : state) {
    OBS_SPAN("bench.noop");
  }
}
BENCHMARK(BM_DisabledSpan);

void BM_DisabledCount(benchmark::State& state) {
  obs::set_enabled(false);
  for (auto _ : state) obs::count("bench.noop");
}
BENCHMARK(BM_DisabledCount);

void BM_EnabledSpan(benchmark::State& state) {
  obs::reset();
  obs::set_enabled(true);
  for (auto _ : state) {
    OBS_SPAN("bench.span");
  }
  obs::set_enabled(false);
  obs::reset();
}
BENCHMARK(BM_EnabledSpan);

void BM_EnabledCount(benchmark::State& state) {
  obs::reset();
  obs::set_enabled(true);
  for (auto _ : state) obs::count("bench.count");
  obs::set_enabled(false);
  obs::reset();
}
BENCHMARK(BM_EnabledCount);

void BM_RouterSweepPoint(benchmark::State& state) {
  const Netlist circuit = make_circuit(table1_circuits()[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        measure_delay_at_utilization(circuit, 0.9, 0.8, 42));
  }
}
BENCHMARK(BM_RouterSweepPoint);

}  // namespace

BENCHMARK_MAIN();
