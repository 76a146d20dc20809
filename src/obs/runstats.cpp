#include "obs/runstats.hpp"

#include "util/json_writer.hpp"
#include "util/table.hpp"

namespace crusade {

std::vector<std::pair<std::string, double>> RunStats::phase_rows() const {
  return {
      {"preflight", preflight_seconds},
      {"clustering", clustering_seconds},
      {"allocation", allocation_seconds},
      {"reconfig", reconfig_seconds},
      {"interface", interface_seconds},
      {"repair", repair_seconds},
      {"validation", validation_seconds},
      {"diagnosis", diagnosis_seconds},
      {"ft.transform", ft_transform_seconds},
      {"ft.dependability", ft_dependability_seconds},
      {"survive", survive_seconds},
      {"total", total_seconds},
  };
}

std::vector<std::pair<std::string, std::int64_t>> RunStats::counter_rows()
    const {
  return {
      {"sched.evals", sched_evals},
      {"sched.invocations", sched_invocations},
      {"sched.finish_estimates", finish_estimates},
      {"alloc.candidates", alloc_candidates},
      {"alloc.clusters", clusters},
      {"alloc.repair_moves", repair_moves},
      {"merge.tried", merges_tried},
      {"merge.accepted", merges_accepted},
      {"merge.rejected_cost", merges_rejected_cost},
      {"merge.rejected_schedule", merges_rejected_schedule},
      {"merge.rejected_validator", merges_rejected_validator},
      {"merge.reschedules", merge_reschedules},
      {"merge.consolidations", mode_consolidations},
      {"interface.candidates", interface_candidates},
      {"ft.check_tasks", ft_check_tasks},
      {"ft.checks_shared", ft_checks_shared},
      {"ft.spares", ft_spares},
      {"survive.scenarios", survive_scenarios},
      {"survive.ft_lies", survive_ft_lies},
  };
}

std::string RunStats::table() const {
  Table phases({"phase", "seconds", "share"});
  for (const auto& [name, seconds] : phase_rows()) {
    const double share = total_seconds > 0 ? seconds / total_seconds : 0;
    phases.add_row({name, cell_double(seconds, 4),
                    name == "total" ? "" : cell_percent(share)});
  }
  Table counts({"counter", "value"});
  for (const auto& [name, value] : counter_rows())
    counts.add_row({name, cell_int(value)});
  return phases.to_string("synthesis phases") + "\n" +
         counts.to_string("synthesis counters");
}

std::string RunStats::to_json() const {
  tools::JsonWriter w;
  w.begin_object().key("phases").begin_object();
  for (const auto& [name, seconds] : phase_rows()) w.key(name).value(seconds);
  w.end_object().key("counters").begin_object();
  for (const auto& [name, value] : counter_rows())
    w.key(name).value(static_cast<long long>(value));
  w.end_object().end_object();
  return w.str();
}

}  // namespace crusade
