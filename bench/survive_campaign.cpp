// Survivability campaign throughput: synthesizes one CRUSADE-FT
// architecture, then measures how fast the simulator (src/sim) replays
// seeded fault scenarios against it.  The replay is the inner loop of the
// `crusade survive` campaigns and of CrusadeFt's self-check sweep, so its
// cost per scenario is what bounds "hundreds of scenarios per spec" in
// tools/check.sh.
//
// Also doubles as a large-N soak: every scenario verdict is tallied and an
// FT-LIE fails the bench (exit 1) — throughput numbers from a lying
// simulator would not be worth recording.  Scale with CRUSADE_SCALE.
//
//   survive_campaign [output.json]     (default: BENCH_survive.json)
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "ft/crusade_ft.hpp"
#include "tgff/profiles.hpp"

using namespace crusade;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_survive.json";
  const double scale = bench::workload_scale(0.10);
  const ResourceLibrary lib = telecom_1999();
  SpecGenerator generator(lib);
  const Specification spec =
      generator.generate(profile_config(profile_by_name("A1TR"), scale));

  const auto synth_start = std::chrono::steady_clock::now();
  const CrusadeFtResult r = CrusadeFt(spec, lib, {}).run();
  const double synth_seconds = seconds_since(synth_start);
  if (!r.synthesis.feasible) {
    std::fprintf(stderr, "synthesis infeasible at scale %.2f\n", scale);
    return 1;
  }

  const FlatSpec flat(r.ft_spec);
  SurvivalInput input;
  input.flat = &flat;
  input.arch = &r.synthesis.arch;
  input.task_cluster = &r.synthesis.task_cluster;
  input.schedule = &r.synthesis.schedule;
  input.graph_unavailability = r.dependability.graph_unavailability;
  input.boot_time_requirement = r.ft_spec.boot_time_requirement;
  input.pe_spares.assign(r.synthesis.arch.pes.size(), 0);
  for (const ServiceModule& module : r.dependability.modules)
    for (const int pe : module.pes)
      input.pe_spares[static_cast<std::size_t>(pe)] = module.spares;

  // One warm-up campaign, then the timed one: scenario count scales with
  // the workload so the bench stays seconds at default scale.
  CampaignParams params;
  params.seeds = 200 + static_cast<int>(1800 * scale);
  run_campaign(input, params);
  const auto start = std::chrono::steady_clock::now();
  const CampaignResult c = run_campaign(input, params);
  const double seconds = seconds_since(start);
  const double per_scenario_us = seconds * 1e6 / c.scenarios;
  const double per_second = c.scenarios / seconds;

  std::FILE* json = std::fopen(out_path, "w");
  if (!json) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"survive_campaign\",\n"
               "  \"profile\": \"A1TR\",\n"
               "  \"scale\": %.2f,\n"
               "  \"tasks\": %d,\n"
               "  \"ft_tasks\": %d,\n"
               "  \"synthesis_seconds\": %.3f,\n"
               "  \"scenarios\": %d,\n"
               "  \"campaign_seconds\": %.4f,\n"
               "  \"scenario_us\": %.2f,\n"
               "  \"scenarios_per_second\": %.0f,\n"
               "  \"masked\": %d,\n"
               "  \"degraded_honest\": %d,\n"
               "  \"ft_lies\": %d,\n"
               "  \"transients\": %d,\n"
               "  \"transients_cross_pe\": %d\n"
               "}\n",
               scale, spec.total_tasks(), r.transform.tasks_after,
               synth_seconds, c.scenarios, seconds, per_scenario_us,
               per_second, c.masked, c.degraded, c.ft_lies, c.transients,
               c.transients_cross_pe);
  std::fclose(json);

  std::printf("survive campaign bench (scale=%.2f, %d ft tasks)\n", scale,
              r.transform.tasks_after);
  std::printf("  synthesis: %.3fs, campaign: %d scenarios in %.3fs\n",
              synth_seconds, c.scenarios, seconds);
  std::printf("  %.2f us/scenario (%.0f scenarios/s)\n", per_scenario_us,
              per_second);
  std::printf("  verdicts: %d masked, %d degraded-honest, %d FT-LIE\n",
              c.masked, c.degraded, c.ft_lies);
  std::printf("wrote %s (clean: %s)\n", out_path,
              c.clean() ? "yes" : "NO");
  return c.clean() && c.transients_cross_pe == c.transients ? 0 : 1;
}
