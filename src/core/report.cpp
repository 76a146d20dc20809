#include "core/report.hpp"

#include <cstdio>
#include <map>
#include <sstream>

#include "ckpt/serialize.hpp"
#include "util/table.hpp"

namespace crusade {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string arch_fingerprint(const Architecture& arch) {
  ckpt::BinWriter w;
  ckpt::write_architecture(w, arch);
  return hex64(ckpt::fnv1a(w.bytes()));
}

std::string result_signature(const CrusadeResult& result) {
  ckpt::BinWriter w;
  ckpt::write_architecture(w, result.arch);
  w.u8(result.feasible ? 1 : 0);
  w.f64(result.cost.total());
  w.i64(result.stats.sched_evals);
  w.i64(result.stats.repair_moves);
  w.i64(result.stats.merges_tried);
  w.i64(result.stats.merges_accepted);
  w.i64(result.stats.merge_reschedules);
  w.i64(result.stats.mode_consolidations);
  w.u8(result.validation.clean() ? 1 : 0);
  return hex64(ckpt::fnv1a(w.bytes()));
}

std::string describe_result(const CrusadeResult& result) {
  std::ostringstream out;
  const Architecture& arch = result.arch;
  const ResourceLibrary& lib = arch.lib();

  std::map<std::string, int> pe_histogram;
  int multi_mode = 0;
  for (const PeInstance& pe : arch.pes) {
    if (!pe.alive()) continue;
    ++pe_histogram[lib.pe(pe.type).name];
    if (pe.modes.size() > 1) ++multi_mode;
  }
  std::map<std::string, int> link_histogram;
  for (const LinkInstance& link : arch.links) {
    if (link.ports() < 2) continue;
    ++link_histogram[lib.link(link.type).name];
  }

  out << "architecture: " << result.pe_count << " PEs, " << result.link_count
      << " links, " << result.mode_count << " modes (" << multi_mode
      << " reconfigurable devices)\n";
  out << "  PEs:";
  for (const auto& [name, count] : pe_histogram)
    out << " " << count << "x " << name;
  out << "\n  links:";
  for (const auto& [name, count] : link_histogram)
    out << " " << count << "x " << name;
  out << "\n";

  const CostBreakdown& cost = result.cost;
  out << "cost: " << cell_money(cost.total()) << " (PEs "
      << cell_money(cost.pes) << ", memory " << cell_money(cost.memory)
      << ", links " << cell_money(cost.links) << ", reconfig interface "
      << cell_money(cost.reconfig_interface);
  if (cost.spares > 0) out << ", spares " << cell_money(cost.spares);
  out << ")\n";
  out << "power: " << cell_double(result.power_mw / 1000.0, 2) << " W\n";
  out << "reconfig interface: " << result.interface_choice.describe() << "\n";
  if (result.merge_report.merges_tried > 0) {
    out << "merge loop: " << result.merge_report.merges_accepted << "/"
        << result.merge_report.merges_tried << " merges accepted, "
        << result.merge_report.consolidations << " mode consolidations, "
        << result.merge_report.passes << " passes, merge potential "
        << result.merge_report.merge_potential_before << " -> "
        << result.merge_report.merge_potential_after << "\n";
  }
  out << "schedule: "
      << (result.feasible ? "all deadlines met"
                          : "DEADLINE VIOLATIONS PRESENT")
      << " (tardiness " << format_time(result.schedule.total_tardiness)
      << ", " << result.schedule.placement_failures
      << " placement failures)\n";
  if (result.stopped)
    out << "search truncated (deadline/stop): best architecture found so "
           "far — a longer run may improve it\n";
  if (result.resumed)
    out << "resumed from checkpoint (stats span every incarnation of the "
           "run)\n";
  out << "synthesis time: " << result.stats.total_seconds << " s (alloc "
      << cell_double(result.stats.allocation_seconds, 2) << ", reconfig "
      << cell_double(result.stats.reconfig_seconds, 2) << ", interface "
      << cell_double(result.stats.interface_seconds, 2) << ", "
      << result.stats.sched_evals << " sched evals)\n";
  return out.str();
}

std::string dump_schedule(const CrusadeResult& result, const FlatSpec& flat,
                          int max_rows) {
  std::ostringstream out;
  const Architecture& arch = result.arch;
  const ResourceLibrary& lib = arch.lib();
  int rows = 0;
  for (std::size_t res = 0;
       res < result.schedule.timelines.size() && rows < max_rows; ++res) {
    const auto& windows = result.schedule.timelines[res].windows();
    if (windows.empty()) continue;
    const bool is_pe = res < arch.pes.size();
    if (is_pe)
      out << lib.pe(arch.pes[res].type).name << "#" << res;
    else
      out << lib.link(arch.links[res - arch.pes.size()].type).name << "#"
          << (res - arch.pes.size());
    out << ":\n";
    for (const auto& w : windows) {
      if (++rows > max_rows) {
        out << "  ... (truncated)\n";
        break;
      }
      out << "  [" << format_time(w.span.start) << ", "
          << format_time(w.span.finish) << ") @" << format_time(w.span.period);
      if (w.mode >= 0) out << " mode " << w.mode + 1;
      if (w.owner <= -1000)
        out << " reboot";
      else if (is_pe && w.owner >= 0 && w.owner < flat.task_count())
        out << " task " << flat.task(w.owner).name;
      else if (!is_pe && w.owner >= 0 && w.owner < flat.edge_count())
        out << " edge " << flat.task(flat.edge_src(w.owner)).name << "->"
            << flat.task(flat.edge_dst(w.owner)).name;
      out << "\n";
    }
  }
  return out.str();
}

std::string one_line_verdict(const CrusadeResult& result) {
  std::ostringstream out;
  out << result.pe_count << " PEs / " << result.link_count << " links / $"
      << static_cast<long long>(result.cost.total())
      << (result.feasible ? " / feasible" : " / INFEASIBLE");
  return out.str();
}

}  // namespace crusade
