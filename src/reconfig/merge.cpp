#include "reconfig/merge.hpp"

#include <algorithm>

#include "fpga/delay.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace crusade {

namespace {

/// Merge-loop passes at most (each rebuilds the merge array, §4.1).
constexpr int kMaxMergePasses = 8;

int merge_potential(const Architecture& arch) {
  return arch.ppe_count() + arch.live_link_count();
}

/// All graphs resident in any mode of the instance.
std::vector<int> instance_graphs(const PeInstance& inst) {
  std::vector<int> graphs;
  for (const Mode& m : inst.modes)
    for (int g : m.graphs)
      if (std::find(graphs.begin(), graphs.end(), g) == graphs.end())
        graphs.push_back(g);
  return graphs;
}

/// Every task of every cluster in the instance, via the flat map.
std::vector<int> instance_tasks(const Architecture& arch, int pe,
                                const std::vector<int>& task_cluster) {
  std::vector<int> tasks;
  for (int tid = 0; tid < static_cast<int>(task_cluster.size()); ++tid) {
    const int c = task_cluster[tid];
    if (c >= 0 && arch.cluster_pe[c] == pe) tasks.push_back(tid);
  }
  return tasks;
}

/// Quick feasibility screen for folding src's modes into dst.
bool merge_screen(const Architecture& arch, int src, int dst,
                  const CompatibilityMatrix& compat, const FlatSpec& flat,
                  const std::vector<int>& task_cluster) {
  const PeInstance& s = arch.pes[src];
  const PeInstance& d = arch.pes[dst];
  const PeType& dtype = arch.lib().pe(d.type);
  // Run-time reconfiguration is an SRAM FPGA capability (§4.4); CPLDs keep
  // their single configuration.
  if (dtype.kind != PeKind::Fpga) return false;
  if (arch.lib().pe(s.type).kind != PeKind::Fpga) return false;
  if (static_cast<int>(s.modes.size() + d.modes.size()) > kMaxModesPerDevice)
    return false;
  // Cross-compatibility: every src-mode graph vs every dst-mode graph.
  for (int gs : instance_graphs(s))
    for (int gd : instance_graphs(d))
      if (!compat.compatible(gs, gd)) return false;
  // Capacity: each src mode must fit the dst device under ERUF/EPUF.
  for (const Mode& m : s.modes) {
    if (m.pfus_used > DelayManagement{}.usable_pfus(dtype.pfus)) return false;
    if (m.pins_used > DelayManagement{}.usable_pins(dtype.pins)) return false;
  }
  // Execution feasibility of every moved task on the dst type.
  for (int tid : instance_tasks(arch, src, task_cluster))
    if (!flat.task(tid).feasible_on(d.type)) return false;
  return true;
}

/// Folds src's modes into dst on `arch` (caller works on a copy), rewiring
/// links and collapsing now-internal edges.
void apply_merge(Architecture& arch, int src, int dst, const FlatSpec& flat,
                 const std::vector<int>& task_cluster) {
  PeInstance& s = arch.pes[src];
  PeInstance& d = arch.pes[dst];

  const int base_mode = static_cast<int>(d.modes.size());
  for (std::size_t m = 0; m < s.modes.size(); ++m) {
    Mode moved = s.modes[m];
    moved.boot_time = 0;  // re-synthesized after the merge
    for (int c : moved.clusters) {
      arch.cluster_pe[c] = dst;
      arch.cluster_mode[c] = base_mode + static_cast<int>(m);
    }
    d.modes.push_back(std::move(moved));
  }
  s.modes.clear();
  s.modes.resize(1);  // dead instance keeps an empty mode
  d.memory_used += s.memory_used;
  s.memory_used = 0;

  // Rewire: every link attached to src must now reach dst instead.
  for (int l = 0; l < static_cast<int>(arch.links.size()); ++l) {
    LinkInstance& link = arch.links[l];
    auto it = std::find(link.attached.begin(), link.attached.end(), src);
    if (it == link.attached.end()) continue;
    if (link.is_attached(dst))
      link.attached.erase(it);  // both endpoints now dst: drop the src port
    else
      *it = dst;  // same port, new owner
  }

  // Edges whose endpoints now share the PE become internal; all other edges
  // keep their links (which now terminate at dst).
  for (int eid = 0; eid < flat.edge_count(); ++eid) {
    const int cs = task_cluster[flat.edge_src(eid)];
    const int cd = task_cluster[flat.edge_dst(eid)];
    if (cs < 0 || cd < 0) continue;
    const int ps = arch.cluster_pe[cs];
    const int pd = arch.cluster_pe[cd];
    if (ps >= 0 && ps == pd) arch.edge_link[eid] = -1;
  }
  // Drop links that no longer connect two PEs.
  for (LinkInstance& link : arch.links) {
    if (link.ports() >= 2) continue;
    link.attached.clear();
  }
}

/// Attempts to combine pairs of modes within each multi-mode device when
/// the union fits one configuration (§4.2: "we try to combine C1, C2 and C3
/// in the same FPGA mode if there exist sufficient resources").
int consolidate(Architecture& arch) {
  int combined = 0;
  for (PeInstance& inst : arch.pes) {
    if (!inst.alive()) continue;
    const PeType& type = arch.lib().pe(inst.type);
    if (!type.is_programmable() || inst.modes.size() < 2) continue;
    bool changed = true;
    while (changed && inst.modes.size() > 1) {
      changed = false;
      for (std::size_t a = 0; a < inst.modes.size() && !changed; ++a) {
        for (std::size_t b = a + 1; b < inst.modes.size() && !changed; ++b) {
          Mode& ma = inst.modes[a];
          Mode& mb = inst.modes[b];
          if (ma.pfus_used + mb.pfus_used >
              DelayManagement{}.usable_pfus(type.pfus))
            continue;
          if (ma.pins_used + mb.pins_used >
              DelayManagement{}.usable_pins(type.pins))
            continue;
          // Fold b into a.
          for (int c : mb.clusters) ma.clusters.push_back(c);
          for (int g : mb.graphs) ma.add_graph(g);
          ma.pfus_used += mb.pfus_used;
          ma.gates_used += mb.gates_used;
          ma.pins_used += mb.pins_used;
          inst.modes.erase(inst.modes.begin() +
                           static_cast<std::ptrdiff_t>(b));
          // Re-number cluster modes for this instance.
          const int pe_id = static_cast<int>(&inst - arch.pes.data());
          for (int c = 0; c < static_cast<int>(arch.cluster_pe.size()); ++c) {
            if (arch.cluster_pe[c] != pe_id) continue;
            for (std::size_t m = 0; m < inst.modes.size(); ++m) {
              const auto& mc = inst.modes[m].clusters;
              if (std::find(mc.begin(), mc.end(), c) != mc.end())
                arch.cluster_mode[c] = static_cast<int>(m);
            }
          }
          ++combined;
          changed = true;
        }
      }
    }
  }
  return combined;
}

}  // namespace

MergeReport merge_modes(Architecture& arch, ScheduleResult& schedule,
                        const FlatSpec& flat, const PriorityLevels& levels,
                        const CompatibilityMatrix& compat,
                        const std::vector<int>& task_cluster,
                        const MergeParams& params,
                        const MergeValidator& validator) {
  OBS_SPAN("reconfig.merge");
  MergeReport report;
  int start_pass = 0;
  if (params.resume_from) {
    // Checkpoint resume: the caller restored the matching architecture and
    // schedule; continue the pass loop with every counter intact so the
    // final report is indistinguishable from an uninterrupted run's.
    report = *params.resume_from;
    start_pass = report.passes;
  }
  if (!params.resume_from || report.passes == 0) {
    report.cost_before = arch.cost().total();
    report.merge_potential_before = merge_potential(arch);
  }

  auto reschedule = [&](const Architecture& a) {
    ++report.reschedules;
    obs::count("merge.reschedules");
    SchedProblem problem =
        make_sched_problem(a, flat, task_cluster, params.boot_estimate,
                           params.reboots_in_schedule);
    return run_list_scheduler(std::move(problem), levels);
  };
  auto budget_left = [&]() {
    if (params.control && params.control->should_stop()) {
      report.stopped = true;
      return false;
    }
    if (params.budget > 0 && report.reschedules >= params.budget) {
      report.budget_exhausted = true;
      return false;
    }
    return true;
  };

  for (int pass = start_pass; pass < kMaxMergePasses && budget_left();
       ++pass) {
    ++report.passes;
    bool improved = false;

    // The merge array: candidate (src -> dst) pairs with estimated savings.
    struct Entry {
      int src, dst;
      double savings;
    };
    std::vector<Entry> merge_array;
    for (int src = 0; src < static_cast<int>(arch.pes.size()); ++src) {
      if (!arch.pes[src].alive()) continue;
      if (!arch.lib().pe(arch.pes[src].type).is_programmable()) continue;
      for (int dst = 0; dst < static_cast<int>(arch.pes.size()); ++dst) {
        if (dst == src || !arch.pes[dst].alive()) continue;
        if (!merge_screen(arch, src, dst, compat, flat, task_cluster))
          continue;
        merge_array.push_back(
            Entry{src, dst, arch.lib().pe(arch.pes[src].type).cost});
      }
    }
    std::stable_sort(merge_array.begin(), merge_array.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.savings > b.savings;
                     });

    for (const Entry& entry : merge_array) {
      if (!budget_left()) break;
      // Earlier accepted merges this pass may have invalidated the entry.
      if (!arch.pes[entry.src].alive() || !arch.pes[entry.dst].alive())
        continue;
      if (!merge_screen(arch, entry.src, entry.dst, compat, flat,
                        task_cluster))
        continue;
      ++report.merges_tried;
      obs::count("merge.tried");
      Architecture trial = arch;
      apply_merge(trial, entry.src, entry.dst, flat, task_cluster);
      if (trial.cost().total() >= arch.cost().total()) {
        ++report.rejected_cost;
        obs::count("merge.rejected_cost");
        continue;
      }
      ScheduleResult trial_schedule = reschedule(trial);
      if (!trial_schedule.feasible) {
        ++report.rejected_schedule;
        obs::count("merge.rejected_schedule");
        continue;
      }
      if (validator && !validator(trial)) {
        ++report.rejected_validator;
        obs::count("merge.rejected_validator");
        continue;
      }
      arch = std::move(trial);
      schedule = std::move(trial_schedule);
      ++report.merges_accepted;
      obs::count("merge.accepted");
      improved = true;
    }

    // Then fold modes of one device into a single configuration where the
    // area allows, removing a reconfiguration entirely.
    if (budget_left()) {
      Architecture trial = arch;
      const int combined = consolidate(trial);
      if (combined > 0) {
        ScheduleResult trial_schedule = reschedule(trial);
        if (trial_schedule.feasible &&
            trial.cost().total() <= arch.cost().total()) {
          arch = std::move(trial);
          schedule = std::move(trial_schedule);
          report.consolidations += combined;
          improved = true;
        }
      }
    }

    if (!improved) break;
    // Pass boundary with more work coming: a state the uninterrupted run
    // revisits, so the driver may checkpoint it.  (A pass that made no
    // progress ends the loop and is covered by the `finished` call below —
    // checkpointing it as "resume at pass N+1" would make a resumed run
    // re-scan the merge array once more than an uninterrupted run and its
    // counters would drift.)
    if (params.pass_hook) params.pass_hook(report, false);
  }

  report.cost_after = arch.cost().total();
  report.merge_potential_after = merge_potential(arch);
  if (params.pass_hook) params.pass_hook(report, true);
  return report;
}

}  // namespace crusade
