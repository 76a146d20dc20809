// The allocation array as Allocator::enumerate built it before fresh-PE
// entries were retyped: each entry, fresh PEs included, is costed on its
// own copy of the base architecture.  The code is the old code with its
// comments trimmed; member accesses go through the Allocator it is handed.
#include "reference_allocation.hpp"

#include "fpga/delay.hpp"

namespace crusade::reference {

std::vector<AllocationArray::Candidate> AllocationArray::reference(
    Allocator& alloc, const Architecture& arch, const Cluster& cluster,
    const std::vector<int>& task_cluster) {
  const ResourceLibrary& lib_ = alloc.lib_;
  const CompatibilityMatrix* compat_ = alloc.compat_;
  std::vector<Candidate> candidates;
  const double base_cost = arch.cost().total();

  auto push = [&](Candidate cand) {
    Architecture scratch = arch;
    alloc.materialize(scratch, cand, cluster, task_cluster);
    cand.delta_cost = scratch.cost().total() - base_cost;
    cand.preference = cluster.preference.empty()
                          ? 0
                          : cluster.preference[scratch.pes[cand.pe].type];
    candidates.push_back(cand);
  };

  auto try_existing = [&](int pe, int mode, bool created_mode) {
    Candidate cand;
    cand.pe = pe;
    cand.mode = mode;
    cand.created_mode = created_mode;
    push(cand);
  };

  // --- existing PE instances ---
  for (int pe = 0; pe < static_cast<int>(arch.pes.size()); ++pe) {
    const PeInstance& inst = arch.pes[pe];
    const PeType& type = lib_.pe(inst.type);
    if (!cluster.feasible_pe[inst.type]) continue;
    if (alloc.exclusion_clash(arch, cluster, pe, task_cluster)) continue;

    switch (type.kind) {
      case PeKind::Cpu: {
        if (inst.memory_used + cluster.memory > type.memory_bytes) break;
        try_existing(pe, 0, false);
        break;
      }
      case PeKind::Asic: {
        const Mode& m = inst.modes[0];
        if (inst.cluster_count() >= 6) break;
        if (m.gates_used + cluster.gates > type.gates) break;
        if (m.pins_used + cluster.pins > type.pins) break;
        try_existing(pe, 0, false);
        break;
      }
      case PeKind::Fpga:
      case PeKind::Cpld: {
        int waste = 0;
        if (compat_) {
          for (const Mode& m : inst.modes)
            for (int g : m.graphs)
              if (compat_->compatible(cluster.graph, g)) ++waste;
        }
        const bool per_graph_fpga = compat_ && type.kind == PeKind::Fpga &&
                                    !alloc.relax_fpga_purity_;
        for (int m = 0; m < static_cast<int>(inst.modes.size()); ++m) {
          const Mode& mode = inst.modes[m];
          if (per_graph_fpga && !mode.graphs.empty() &&
              !(mode.graphs.size() == 1 && mode.graphs[0] == cluster.graph))
            continue;
          if (inst.modes.size() > 1) {
            bool exclusive = true;
            for (int m2 = 0;
                 m2 < static_cast<int>(inst.modes.size()) && exclusive;
                 ++m2) {
              if (m2 == m) continue;
              for (int g : inst.modes[m2].graphs) {
                if (g == cluster.graph && !compat_) continue;
                if (!compat_ || !compat_->compatible(cluster.graph, g))
                  exclusive = false;
              }
            }
            if (!exclusive) continue;
          }
          if (mode.pfus_used + cluster.pfus >
              DelayManagement{}.usable_pfus(type.pfus))
            continue;
          if (mode.pins_used + cluster.pins >
              DelayManagement{}.usable_pins(type.pins))
            continue;
          try_existing(pe, m, false);
          candidates.back().compat_waste = waste;
          break;
        }
        if (compat_ && type.kind == PeKind::Fpga &&
            static_cast<int>(inst.modes.size()) < kMaxModesPerDevice) {
          bool compatible = true;
          for (const Mode& m : inst.modes)
            for (int g : m.graphs)
              if (!compat_->compatible(cluster.graph, g)) compatible = false;
          if (compatible)
            try_existing(pe, static_cast<int>(inst.modes.size()), true);
        }
        break;
      }
    }
  }

  // --- a new instance of every feasible PE type ---
  for (PeTypeId type = 0;
       alloc.params_.allow_new_pes && type < lib_.pe_count(); ++type) {
    if (!cluster.feasible_pe[type] || alloc.pe_type_pruned(type)) continue;
    Candidate cand;
    cand.pe = static_cast<int>(arch.pes.size());
    cand.new_type = type;
    cand.new_instance = true;
    push(cand);
  }
  return candidates;
}

}  // namespace crusade::reference
