#include "alloc/allocation.hpp"

#include <algorithm>

#include "fpga/delay.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace crusade {

namespace {

/// Allocation-array prune: how many of the cheapest candidates the
/// constructive loop evaluates per cluster (§5).
constexpr int kMaxCandidates = 10;
/// Device-evacuation passes after constructive allocation.
constexpr int kEvacuationPasses = 2;

}  // namespace

SchedProblem make_sched_problem(const Architecture& arch, const FlatSpec& flat,
                                const std::vector<int>& task_cluster,
                                const BootEstimator& boot_estimate,
                                bool reboots_in_schedule) {
  const ResourceLibrary& lib = arch.lib();
  SchedProblem problem;
  problem.flat = &flat;
  const int pe_count = static_cast<int>(arch.pes.size());

  problem.resources.reserve(arch.pes.size() + arch.links.size());
  for (const PeInstance& pe : arch.pes) {
    const PeType& type = lib.pe(pe.type);
    SchedResourceInfo info;
    info.preemptive = type.kind == PeKind::Cpu;
    info.concurrent = type.is_hardware();
    info.preemption_overhead = type.preemption_overhead;
    if (reboots_in_schedule && pe.modes.size() > 1) {
      info.mode_boot.resize(pe.modes.size(), 0);
      for (std::size_t m = 0; m < pe.modes.size(); ++m) {
        if (pe.modes[m].boot_time > 0)
          info.mode_boot[m] = pe.modes[m].boot_time;
        else if (boot_estimate)
          info.mode_boot[m] = boot_estimate(type, pe.modes[m].pfus_used);
      }
    }
    problem.resources.push_back(std::move(info));
  }
  problem.link_base = pe_count;
  for (std::size_t l = 0; l < arch.links.size(); ++l)
    problem.resources.emplace_back();  // links: serial, non-preemptive

  problem.task_resource.assign(flat.task_count(), -1);
  problem.task_mode.assign(flat.task_count(), -1);
  problem.task_exec.assign(flat.task_count(), 0);
  for (int tid = 0; tid < flat.task_count(); ++tid) {
    const int cluster = task_cluster[tid];
    if (cluster < 0) continue;
    const int pe = arch.cluster_pe[cluster];
    if (pe < 0) continue;
    problem.task_resource[tid] = pe;
    const PeType& type = lib.pe(arch.pes[pe].type);
    if (type.is_programmable())
      problem.task_mode[tid] = arch.cluster_mode[cluster];
    problem.task_exec[tid] = flat.task(tid).exec[arch.pes[pe].type];
    CRUSADE_REQUIRE(problem.task_exec[tid] != kNoTime,
                    "task allocated to infeasible PE type");
  }

  problem.edge_resource.assign(flat.edge_count(), -1);
  problem.edge_comm.assign(flat.edge_count(), 0);
  for (int eid = 0; eid < flat.edge_count(); ++eid) {
    const int link = arch.edge_link[eid];
    if (link < 0) continue;
    problem.edge_resource[eid] = pe_count + link;
    const LinkInstance& inst = arch.links[link];
    problem.edge_comm[eid] = lib.link(inst.type).comm_time(
        flat.edge_data(eid).bytes, std::max(2, inst.ports()));
  }
  return problem;
}

PriorityLevels current_priority_levels(const Architecture& arch,
                                       const FlatSpec& flat,
                                       const ResourceLibrary& lib,
                                       const std::vector<int>& task_cluster,
                                       std::vector<TimeNs> task_time,
                                       std::vector<TimeNs> edge_time) {
  for (int tid = 0; tid < flat.task_count(); ++tid) {
    const int c = task_cluster[tid];
    if (c < 0 || arch.cluster_pe[c] < 0) continue;
    task_time[tid] = flat.task(tid).exec[arch.pes[arch.cluster_pe[c]].type];
  }
  for (int eid = 0; eid < flat.edge_count(); ++eid) {
    const int cs = task_cluster[flat.edge_src(eid)];
    const int cd = task_cluster[flat.edge_dst(eid)];
    if (cs < 0 || cd < 0) continue;
    const int ps = arch.cluster_pe[cs];
    const int pd = arch.cluster_pe[cd];
    if (ps < 0 || pd < 0) continue;
    if (ps == pd) {
      edge_time[eid] = 0;
    } else if (arch.edge_link[eid] >= 0) {
      const LinkInstance& link = arch.links[arch.edge_link[eid]];
      edge_time[eid] = lib.link(link.type).comm_time(
          flat.edge_data(eid).bytes, std::max(2, link.ports()));
    }
  }
  return priority_levels(flat, task_time, edge_time);
}

PriorityLevels scheduling_levels(const FlatSpec& flat,
                                 const ResourceLibrary& lib) {
  return canonical_times(flat, lib).levels;
}

namespace {

/// The search's ranking of candidate schedules, lower is better: placement
/// failures, then total plus estimated tardiness.
ScheduleCutoff rank(const ScheduleResult& schedule) {
  return {schedule.placement_failures,
          schedule.total_tardiness + schedule.estimated_tardiness};
}

}  // namespace

bool schedule_beats(const ScheduleResult& candidate,
                    const ScheduleResult& best) {
  return !candidate.cut && rank(candidate) < rank(best);
}

// Exact because a call's failures and tardiness only grow along the list
// and its estimated tardiness is never negative: counters that reach the
// best's rank end at or above it.
ScheduleCutoff cutoff_to_beat(const ScheduleResult& best) {
  return rank(best);
}

Allocator::Allocator(const FlatSpec& flat, const ResourceLibrary& lib,
                     const CanonicalTimes& canon,
                     const CompatibilityMatrix* compat, AllocParams params)
    : flat_(flat),
      lib_(lib),
      canon_(canon),
      compat_(compat),
      params_(std::move(params)) {
  optimistic_exec_.assign(flat_.task_count(), 0);
  for (int tid = 0; tid < flat_.task_count(); ++tid) {
    const Task& t = flat_.task(tid);
    TimeNs best = kNoTime;
    for (PeTypeId pe = 0; pe < lib_.pe_count(); ++pe)
      if (t.feasible_on(pe) && (best == kNoTime || t.exec[pe] < best))
        best = t.exec[pe];
    optimistic_exec_[tid] = best == kNoTime ? 0 : best;
  }
}

bool Allocator::exclusion_clash(const Architecture& arch,
                                const Cluster& cluster, int pe,
                                const std::vector<int>& task_cluster) const {
  for (int tid : cluster.tasks) {
    for (int other : flat_.exclusions(tid)) {
      const int oc = task_cluster[other];
      if (oc >= 0 && oc != cluster.id && arch.cluster_pe[oc] == pe)
        return true;
    }
  }
  return false;
}

void Allocator::materialize(Architecture& arch, const Candidate& cand,
                            const Cluster& cluster,
                            const std::vector<int>& task_cluster) const {
  if (cand.new_instance) arch.add_pe(cand.new_type);
  const int pe = cand.pe;
  arch.place_cluster(cluster.id, pe, cand.mode, cluster.graph, cluster.memory,
                     cluster.gates, cluster.pfus, cluster.pins);

  // Wire boundary edges: every edge between this cluster and an
  // already-placed cluster on a different PE needs a link (§5: inter-cluster
  // edges are allocated to resources from the link library).  Link choice is
  // bandwidth-aware: a link only qualifies for an edge when the transfer
  // stays a small fraction of the edge's period — fast-period traffic gets
  // dedicated serial links while slow control traffic shares buses, the mix
  // the paper's systems use.
  auto wire_edge = [&](int eid, int peer_pe) {
    if (peer_pe == pe) {
      arch.edge_link[eid] = -1;
      return;
    }
    const std::int64_t bytes = flat_.edge_data(eid).bytes;
    const TimeNs period = flat_.graph(flat_.graph_of_edge(eid)).period();
    const TimeNs bound = std::max<TimeNs>(period / 4, 1);
    // Admission control: with harmonic periods each committed transfer
    // occupies the link's fastest-period ring once, so the sum of ALL
    // transfer times (plus this one) must stay well below the fastest
    // period on the link; otherwise later placements provably fail.
    auto qualifies = [&](int l, const LinkType& type, int ports) {
      const TimeNs comm = type.comm_time(bytes, std::max(2, ports));
      if (comm > bound) return false;
      const TimeNs total =
          comm + (l >= 0 ? arch.link_total_comm[l] : 0);
      const TimeNs min_period =
          std::min(period, l >= 0 ? arch.link_min_period[l] : period);
      return total * 4 <= min_period * 3;
    };

    // Reuse a link already connecting both PEs if it is fast enough.
    int link = -1;
    bool link_qualified = false;
    for (int l = 0; l < static_cast<int>(arch.links.size()); ++l) {
      const LinkInstance& inst = arch.links[l];
      if (!inst.is_attached(pe) || !inst.is_attached(peer_pe)) continue;
      if (qualifies(l, arch.lib().link(inst.type), inst.ports())) {
        link = l;
        link_qualified = true;
        break;
      }
      if (link < 0) link = l;  // slow fallback if nothing better turns up
    }
    if (!link_qualified) {
      // Extend a qualifying link touching one endpoint with a free port.
      int best = -1;
      double best_cost = 0;
      for (int l = 0; l < static_cast<int>(arch.links.size()); ++l) {
        const LinkInstance& inst = arch.links[l];
        const LinkType& type = arch.lib().link(inst.type);
        if (inst.is_attached(pe) == inst.is_attached(peer_pe)) continue;
        if (inst.ports() >= type.max_ports) continue;
        if (!qualifies(l, type, inst.ports() + 1)) continue;
        if (best < 0 || type.cost_per_port < best_cost) {
          best = l;
          best_cost = type.cost_per_port;
        }
      }
      if (best >= 0) {
        arch.attach(best,
                    arch.links[best].is_attached(pe) ? peer_pe : pe);
        link = best;
      } else {
        // New link: among qualifying types pick the best amortized cost per
        // connected pair at full occupancy (shared buses beat point-to-point
        // meshes for slow traffic); fall back to the fastest type when
        // nothing qualifies.
        LinkTypeId pick = -1;
        double pick_score = 0;
        for (LinkTypeId lt = 0; lt < arch.lib().link_count(); ++lt) {
          const LinkType& type = arch.lib().link(lt);
          if (link_type_pruned(lt)) continue;
          if (!qualifies(-1, type, 2)) continue;
          const double score =
              (type.cost + type.max_ports * type.cost_per_port) /
              static_cast<double>(type.max_ports - 1);
          if (pick < 0 || score < pick_score) {
            pick = lt;
            pick_score = score;
          }
        }
        if (pick < 0) {
          TimeNs fastest = 0;
          for (LinkTypeId lt = 0; lt < arch.lib().link_count(); ++lt) {
            if (link_type_pruned(lt)) continue;
            const TimeNs c = arch.lib().link(lt).comm_time(bytes, 2);
            if (pick < 0 || c < fastest) {
              pick = lt;
              fastest = c;
            }
          }
        }
        link = arch.add_link(pick);
        arch.attach(link, pe);
        arch.attach(link, peer_pe);
      }
    }
    arch.edge_link[eid] = link;
    const LinkType& chosen = arch.lib().link(arch.links[link].type);
    arch.link_total_comm[link] +=
        chosen.comm_time(bytes, std::max(2, arch.links[link].ports()));
    arch.link_min_period[link] =
        std::min(arch.link_min_period[link], period);
  };

  for (int tid : cluster.tasks) {
    for (int eid : flat_.in_edges(tid)) {
      const int sc = task_cluster[flat_.edge_src(eid)];
      if (sc < 0 || sc == cluster.id || arch.cluster_pe[sc] < 0) continue;
      wire_edge(eid, arch.cluster_pe[sc]);
    }
    for (int eid : flat_.out_edges(tid)) {
      const int dc = task_cluster[flat_.edge_dst(eid)];
      if (dc < 0 || dc == cluster.id || arch.cluster_pe[dc] < 0) continue;
      wire_edge(eid, arch.cluster_pe[dc]);
    }
  }
}

std::vector<Allocator::Candidate> Allocator::enumerate(
    const Architecture& arch, const Cluster& cluster,
    const std::vector<int>& task_cluster, bool fresh_pes) {
  OBS_SPAN("alloc.enumerate");
  std::vector<Candidate> candidates;
  const double base_cost = arch.cost().total();

  // Costs `cand` as placed on `scratch_`.
  auto push_costed = [&](Candidate cand) {
    cand.delta_cost = scratch_.cost().total() - base_cost;
    cand.preference = cluster.preference.empty()
                          ? 0
                          : cluster.preference[scratch_.pes[cand.pe].type];
    candidates.push_back(cand);
  };

  auto try_existing = [&](int pe, int mode, bool created_mode) {
    Candidate cand;
    cand.pe = pe;
    cand.mode = mode;
    cand.created_mode = created_mode;
    scratch_ = arch;
    materialize(scratch_, cand, cluster, task_cluster);
    push_costed(cand);
  };

  // --- existing PE instances ---
  for (int pe = 0; pe < static_cast<int>(arch.pes.size()); ++pe) {
    const PeInstance& inst = arch.pes[pe];
    const PeType& type = lib_.pe(inst.type);
    if (!cluster.feasible_pe[inst.type]) continue;
    if (exclusion_clash(arch, cluster, pe, task_cluster)) continue;

    switch (type.kind) {
      case PeKind::Cpu: {
        if (inst.memory_used + cluster.memory > type.memory_bytes) break;
        try_existing(pe, 0, false);
        break;
      }
      case PeKind::Asic: {
        const Mode& m = inst.modes[0];
        // An ASIC is one bounded subsystem design: it cannot keep absorbing
        // unrelated blocks the way a gate pool would (each grouping is its
        // own die/NRE in reality).
        if (inst.cluster_count() >= 6) break;
        if (m.gates_used + cluster.gates > type.gates) break;
        if (m.pins_used + cluster.pins > type.pins) break;
        try_existing(pe, 0, false);
        break;
      }
      case PeKind::Fpga:
      case PeKind::Cpld: {
        // Spatial sharing inside an existing configuration.  In mode-aware
        // synthesis (§4.1: incompatible task graphs must be assigned an
        // independent set of FPGA/CPLD resources) an FPGA configuration is
        // dedicated to one task graph — temporal sharing across modes is
        // the only cross-graph sharing, which is what keeps devices
        // mergeable.  CPLDs (no run-time reconfiguration) still pack
        // freely, as do all PPEs when modes are off.
        int waste = 0;
        if (compat_) {
          for (const Mode& m : inst.modes)
            for (int g : m.graphs)
              if (compat_->compatible(cluster.graph, g)) ++waste;
        }
        // Under mode-aware synthesis an FPGA configuration stays dedicated
        // to one task graph (§4.1: incompatible graphs get independent
        // resources; compatible ones share temporally through modes).  The
        // fragmentation this causes is recovered by the device-evacuation
        // pass.  CPLDs (no run-time reconfiguration) pack freely, as do all
        // PPEs when modes are off.
        const bool per_graph_fpga = compat_ && type.kind == PeKind::Fpga &&
                                    !relax_fpga_purity_;
        for (int m = 0; m < static_cast<int>(inst.modes.size()); ++m) {
          const Mode& mode = inst.modes[m];
          if (per_graph_fpga && !mode.graphs.empty() &&
              !(mode.graphs.size() == 1 && mode.graphs[0] == cluster.graph))
            continue;
          // Correctness on multi-mode devices: a resident of mode m only
          // executes while m is configured, so its graph must never need to
          // run concurrently with any OTHER mode's graphs.  When reboots
          // live in the schedule (null compat_) the device may reconfigure
          // mid-hyperperiod and one graph can straddle modes (the scheduler
          // prices the switches); under spec-declared mode-exclusive
          // semantics no reboot is ever charged, so a graph split across
          // modes would demand two configurations at once — never allow it
          // there (the compatibility diagonal is fixed incompatible).
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
          break;  // further modes cost the same; one candidate suffices
        }
        // Temporal sharing via a new reconfiguration mode (§4.2): requires
        // the cluster's graph to be compatible with every graph in every
        // other mode of the device.  Run-time reconfiguration is an SRAM
        // FPGA capability; EEPROM CPLDs reprogram far too slowly and only
        // take field upgrades (§4.4).
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
  // Placement and link wiring never read the fresh PE's type, so the entries
  // differ only in that type: the first is materialized and the rest are
  // costed by retyping its PE, which leaves `scratch_` equal to what
  // materializing them would build.
  if (!fresh_pes || !params_.allow_new_pes) return candidates;
  bool built = false;
  for (PeTypeId type = 0; type < lib_.pe_count(); ++type) {
    if (!cluster.feasible_pe[type] || pe_type_pruned(type)) continue;
    Candidate cand;
    cand.pe = static_cast<int>(arch.pes.size());
    cand.new_type = type;
    cand.new_instance = true;
    if (built) {
      scratch_.pes[cand.pe].type = type;
    } else {
      scratch_ = arch;
      materialize(scratch_, cand, cluster, task_cluster);
      built = true;
    }
    push_costed(cand);
  }
  return candidates;
}

ScheduleResult Allocator::evaluate(const Architecture& arch,
                                   const AllocationOutcome& committed,
                                   const ScheduleCutoff* cutoff) {
  OBS_SPAN("alloc.eval");
  ++stats().sched_evals;
  obs::count("alloc.sched_evals");
  return schedule_architecture(arch, committed.task_cluster,
                               &committed.schedule, cutoff);
}

AllocationOutcome Allocator::run(const std::vector<Cluster>& clusters,
                                 const Architecture* seed_arch,
                                 const AllocState* resume) {
  OBS_SPAN("alloc.run");
  CRUSADE_REQUIRE(!(seed_arch && resume),
                  "seed_arch and resume are mutually exclusive");
  AllocationOutcome outcome;
  outcome.task_cluster = task_to_cluster(clusters, flat_.task_count());
  AllocState state;
  if (resume) {
    CRUSADE_REQUIRE(resume->placed.size() == clusters.size(),
                    "checkpoint cluster count does not match specification");
    state = *resume;
    // The schedule is a pure function of the architecture and was therefore
    // never serialized; rebuild it (outside the budget) so the search
    // continues from exactly the state the interrupted run held after its
    // last commit.
    outcome.schedule = schedule_architecture(state.arch, outcome.task_cluster);
  } else if (seed_arch) {
    // Field upgrade: keep the board's devices and links, clear the
    // allocation state (sized for the NEW cluster/edge universe).
    state.arch = *seed_arch;
    state.arch.cluster_pe.assign(clusters.size(), -1);
    state.arch.cluster_mode.assign(clusters.size(), -1);
    state.arch.edge_link.assign(flat_.edge_count(), -1);
    state.arch.link_total_comm.assign(state.arch.links.size(), 0);
    state.arch.link_min_period.assign(state.arch.links.size(), INT64_MAX);
    for (PeInstance& inst : state.arch.pes) {
      inst.memory_used = 0;
      inst.modes.clear();
      inst.modes.resize(1);
    }
  } else {
    state.arch = Architecture(&lib_, static_cast<int>(clusters.size()),
                              flat_.edge_count());
  }
  if (!resume) state.placed.assign(clusters.size(), 0);

  std::size_t already = 0;
  for (char p : state.placed)
    if (p) ++already;
  // Whether outcome.schedule is the schedule of state.arch: after a resume
  // rebuilt it and after every commit, but not before the first commit of a
  // fresh run or a field upgrade (a rejected cluster commits nothing).
  bool schedule_current = resume != nullptr;
  std::vector<double> cluster_priority(clusters.size(), 0);
  PriorityLevels levels =
      current_priority_levels(state.arch, flat_, lib_, outcome.task_cluster,
                              canon_.task, canon_.edge);
  auto refresh_cluster_priorities = [&]() {
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      if (state.placed[c]) continue;
      double p = -1e30;
      for (int tid : clusters[c].tasks) {
        p = std::max(p, levels.task[tid]);
        for (int eid : flat_.in_edges(tid))
          p = std::max(p, levels.edge[eid]);
      }
      cluster_priority[c] = p;
    }
  };
  refresh_cluster_priorities();

  // Candidate i is built in `trial` only to be evaluated; the best so far is
  // swapped into `best_arch`, and the commit swaps that into state.arch, so
  // no architecture is copy-constructed per candidate.
  Architecture trial, best_arch;

  // Quality bar: a candidate must be no worse than the *baseline* — the
  // current architecture scheduled with the canonical levels.  Judging
  // against the baseline rather than the previous commit's numbers isolates
  // each cluster's marginal effect from list-order churn caused by priority
  // recomputation.
  for (std::size_t step = already; step < clusters.size(); ++step) {
    int pick = -1;
    for (std::size_t c = 0; c < clusters.size(); ++c)
      if (!state.placed[c] &&
          (pick < 0 || cluster_priority[c] > cluster_priority[pick]))
        pick = static_cast<int>(c);
    CRUSADE_REQUIRE(pick >= 0, "no cluster left to place");
    const Cluster& cluster = clusters[pick];

    std::vector<Candidate> candidates =
        enumerate(state.arch, cluster, outcome.task_cluster);
    obs::count("alloc.candidates",
               static_cast<std::int64_t>(candidates.size()));
    stats().alloc_candidates += static_cast<std::int64_t>(candidates.size());
    if (candidates.empty()) {
      CRUSADE_REQUIRE(!params_.allow_new_pes,
                      "cluster " + std::to_string(cluster.id) +
                          " has no allocation candidate");
      // Field-upgrade mode: the existing board cannot host this cluster.
      ++state.clusters_with_misses;
      state.placed[pick] = 1;
      outcome.upgrade_rejected = true;
      continue;
    }
    // Figure 4 ordering: at equal cost a compatible cluster opens a new
    // reconfiguration mode (temporal sharing) rather than consuming scarce
    // spatial capacity alongside an incompatible graph.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       if (a.delta_cost != b.delta_cost)
                         return a.delta_cost < b.delta_cost;
                       if (a.created_mode != b.created_mode)
                         return a.created_mode;
                       if (a.compat_waste != b.compat_waste)
                         return a.compat_waste < b.compat_waste;
                       return a.preference > b.preference;
                     });
    // Prune to the cheapest few, but never prune away every fresh-instance
    // candidate: a new PE is the interference-free escape hatch when all
    // existing resources are saturated.
    if (static_cast<int>(candidates.size()) > kMaxCandidates) {
      std::vector<Candidate> kept;
      kept.reserve(kMaxCandidates);
      const int reserved_new = 3;
      int new_kept = 0;
      for (auto& cand : candidates) {
        const bool room_general =
            static_cast<int>(kept.size()) < kMaxCandidates - reserved_new;
        const bool room_new = cand.new_instance && new_kept < reserved_new &&
                              static_cast<int>(kept.size()) < kMaxCandidates;
        if (room_general || room_new) {
          if (cand.new_instance) ++new_kept;
          kept.push_back(std::move(cand));
        }
        if (static_cast<int>(kept.size()) >= kMaxCandidates &&
            new_kept >= reserved_new)
          break;
      }
      candidates = std::move(kept);
    }

    if (keep_going()) {
      ScheduleResult fresh;
      if (schedule_current) {
        // The baseline is the committed schedule, which scheduling state.arch
        // again would reproduce (the levels are canonical).  It still counts
        // as the evaluation and scheduler call it replaces, so budgets,
        // checkpoints and every tally read as if it had been scheduled.
        ++stats().sched_evals;
        ++stats().sched_invocations;
        ++stats().finish_estimates;
        obs::count("alloc.sched_evals");
        obs::count("sched.invocations");
        obs::count("sched.finish_estimates");
      } else {
        fresh = evaluate(state.arch, outcome);
      }
      const ScheduleResult& baseline =
          schedule_current ? outcome.schedule : fresh;
      state.committed_tardiness = baseline.total_tardiness;
      state.committed_estimate = baseline.estimated_tardiness;
      state.committed_failures = baseline.placement_failures;
    }

    int best = -1;
    ScheduleResult best_schedule;
    bool accepted = false;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      // Budget degradation: once the evaluation budget is gone, each
      // remaining cluster takes its cheapest candidate after a single
      // scheduling pass (so the returned schedule still matches the
      // returned architecture) instead of exploring the whole array.
      if (i > 0 && !keep_going()) break;
      trial = state.arch;
      materialize(trial, candidates[i], cluster, outcome.task_cluster);
      ScheduleResult schedule = evaluate(trial, outcome);
      const bool power_ok = params_.power_cap_mw <= 0 ||
                            trial.power_mw() <= params_.power_cap_mw;
      if (power_ok &&
          schedule.placement_failures <= state.committed_failures &&
          schedule.total_tardiness <= state.committed_tardiness &&
          schedule.estimated_tardiness <= state.committed_estimate) {
        best = static_cast<int>(i);
        best_schedule = std::move(schedule);
        std::swap(trial, best_arch);
        accepted = true;
        break;
      }
      if (best < 0 || schedule_beats(schedule, best_schedule)) {
        best = static_cast<int>(i);
        best_schedule = std::move(schedule);
        std::swap(trial, best_arch);
      }
    }
    if (!accepted) ++state.clusters_with_misses;
    std::swap(state.arch, best_arch);
    outcome.schedule = std::move(best_schedule);
    schedule_current = true;
    state.placed[pick] = 1;

    // Priorities shift once actual execution/communication times are known
    // (§5: recomputed after each allocation).
    levels = current_priority_levels(state.arch, flat_, lib_,
                                     outcome.task_cluster, canon_.task,
                                     canon_.edge);
    refresh_cluster_priorities();

    if (params_.progress_hook) params_.progress_hook(state);
  }

  outcome.arch = std::move(state.arch);
  outcome.clusters_with_misses = state.clusters_with_misses;
  repair(outcome, clusters);

  outcome.feasible = outcome.schedule.feasible;
  outcome.budget_exhausted = budget_exhausted_;
  outcome.stopped = stopped_;
  return outcome;
}

ScheduleResult Allocator::schedule_architecture(
    const Architecture& arch, const std::vector<int>& task_cluster,
    const ScheduleResult* base, const ScheduleCutoff* cutoff) {
  SchedProblem problem =
      make_sched_problem(arch, flat_, task_cluster, params_.boot_estimate,
                         /*reboots_in_schedule=*/!compat_);
  problem.task_optimistic = &optimistic_exec_;
  ++stats().sched_invocations;
  ++stats().finish_estimates;
  return run_list_scheduler(std::move(problem), canon_.levels, base, cutoff);
}

int Allocator::evacuate_devices(AllocationOutcome& outcome,
                                const std::vector<Cluster>& clusters) {
  OBS_SPAN("alloc.evacuate");
  relax_fpga_purity_ = true;
  int emptied = 0;
  for (int pass = 0; pass < kEvacuationPasses; ++pass) {
    bool improved = false;
    for (int victim = 0; victim < static_cast<int>(outcome.arch.pes.size());
         ++victim) {
      if (!keep_going()) break;
      if (!outcome.arch.pes[victim].alive()) continue;
      // Gather the victim's clusters (largest first so the hard pieces
      // place while the most room remains).
      std::vector<int> residents;
      for (const Mode& m : outcome.arch.pes[victim].modes)
        for (int c : m.clusters) residents.push_back(c);
      if (residents.empty() ||
          static_cast<int>(residents.size()) > 12)
        continue;  // large hosts are not worth the reshuffle
      std::sort(residents.begin(), residents.end(), [&](int a, int b) {
        return clusters[a].tasks.size() > clusters[b].tasks.size();
      });

      Architecture trial = outcome.arch;
      for (int c : residents) unplace(trial, clusters[c], clusters);

      bool all_placed = true;
      for (int c : residents) {
        // Forbid returning to the victim or opening a fresh device: the
        // point is to live inside the remaining architecture.  Pick the
        // cheapest eligible placement.
        std::vector<Candidate> candidates =
            enumerate(trial, clusters[c], outcome.task_cluster,
                      /*fresh_pes=*/false);
        int chosen = -1;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          if (candidates[i].pe == victim) continue;
          if (chosen < 0 ||
              candidates[i].delta_cost < candidates[chosen].delta_cost)
            chosen = static_cast<int>(i);
        }
        if (chosen < 0) {
          all_placed = false;
          break;
        }
        materialize(trial, candidates[chosen], clusters[c],
                    outcome.task_cluster);
      }
      if (!all_placed) continue;
      if (trial.cost().total() >= outcome.arch.cost().total()) continue;

      ScheduleResult schedule = evaluate(trial, outcome);
      const bool acceptable =
          schedule.placement_failures <=
              outcome.schedule.placement_failures &&
          schedule.total_tardiness <= outcome.schedule.total_tardiness;
      if (!acceptable) continue;
      outcome.arch = std::move(trial);
      outcome.schedule = std::move(schedule);
      ++emptied;
      improved = true;
    }
    if (!improved) break;
  }
  relax_fpga_purity_ = false;
  outcome.budget_exhausted = budget_exhausted_;
  outcome.stopped = stopped_;
  return emptied;
}

void Allocator::unplace(Architecture& arch, const Cluster& cluster,
                        const std::vector<Cluster>& clusters) const {
  const int pe = arch.cluster_pe[cluster.id];
  CRUSADE_REQUIRE(pe >= 0, "cluster is not placed");
  const int mode_idx = arch.cluster_mode[cluster.id];
  Mode& mode = arch.pes[pe].modes[mode_idx];
  mode.clusters.erase(
      std::find(mode.clusters.begin(), mode.clusters.end(), cluster.id));
  mode.pfus_used -= cluster.pfus;
  mode.gates_used -= cluster.gates;
  mode.pins_used -= cluster.pins;
  arch.pes[pe].memory_used -= cluster.memory;
  mode.graphs.clear();
  for (int c : mode.clusters) mode.add_graph(clusters[c].graph);
  arch.cluster_pe[cluster.id] = -1;
  arch.cluster_mode[cluster.id] = -1;
  auto release_edge = [&](int eid) {
    const int link = arch.edge_link[eid];
    if (link < 0) return;
    const LinkInstance& inst = arch.links[link];
    const TimeNs comm = arch.lib().link(inst.type).comm_time(
        flat_.edge_data(eid).bytes, std::max(2, inst.ports()));
    arch.link_total_comm[link] =
        std::max<TimeNs>(0, arch.link_total_comm[link] - comm);
    arch.edge_link[eid] = -1;
  };
  for (int tid : cluster.tasks) {
    for (int eid : flat_.in_edges(tid)) release_edge(eid);
    for (int eid : flat_.out_edges(tid)) release_edge(eid);
  }
}

void Allocator::repair(AllocationOutcome& outcome,
                       const std::vector<Cluster>& clusters) {
  OBS_SPAN("alloc.repair");
  relax_fpga_purity_ = true;

  // Edge rewiring: transfers that no longer fit their link's ring (gap
  // fragmentation) get dedicated point-to-point links instead.  All failing
  // edges are rewired in one batch per pass — fixing them one at a time
  // plays whack-a-mole with scheduling order.
  for (int pass = 0; pass < 3 && !outcome.schedule.feasible; ++pass) {
    if (outcome.schedule.failed_edges.empty()) break;
    Architecture trial = outcome.arch;
    int rewired_count = 0;
    for (int eid : outcome.schedule.failed_edges) {
      if (trial.edge_link[eid] < 0) continue;
      const int ps = trial.cluster_pe[outcome.task_cluster[flat_.edge_src(eid)]];
      const int pd = trial.cluster_pe[outcome.task_cluster[flat_.edge_dst(eid)]];
      if (ps < 0 || pd < 0 || ps == pd) continue;
      // Fastest 2-port link type for this payload.
      LinkTypeId pick = 0;
      TimeNs fastest = kNoTime;
      const std::int64_t bytes = flat_.edge_data(eid).bytes;
      for (LinkTypeId lt = 0; lt < lib_.link_count(); ++lt) {
        if (link_type_pruned(lt)) continue;
        const TimeNs c = lib_.link(lt).comm_time(bytes, 2);
        if (fastest == kNoTime || c < fastest) {
          pick = lt;
          fastest = c;
        }
      }
      const int fresh = trial.add_link(pick);
      trial.attach(fresh, ps);
      trial.attach(fresh, pd);
      trial.edge_link[eid] = fresh;
      trial.link_total_comm[fresh] = fastest;
      trial.link_min_period[fresh] =
          flat_.graph(flat_.graph_of_edge(eid)).period();
      ++rewired_count;
    }
    if (rewired_count == 0) break;
    if (!keep_going()) break;
    ScheduleResult schedule = evaluate(trial, outcome);
    if (schedule.placement_failures >= outcome.schedule.placement_failures &&
        schedule.total_tardiness >= outcome.schedule.total_tardiness)
      break;
    outcome.arch = std::move(trial);
    outcome.schedule = std::move(schedule);
  }

  // Buffers reused across offenders, as in run().
  Architecture stripped, trial, best_arch;
  for (int pass = 0; pass < 4 && !outcome.schedule.feasible; ++pass) {
    // Clusters owning a failing or tardy task, worst first.
    std::vector<std::pair<TimeNs, int>> offenders;
    for (int tid = 0; tid < flat_.task_count(); ++tid) {
      const int c = outcome.task_cluster[tid];
      if (c < 0 || outcome.arch.cluster_pe[c] < 0) continue;
      const TimeNs deadline = flat_.absolute_deadline(tid);
      TimeNs badness = 0;
      if (outcome.schedule.task_finish[tid] == kNoTime)
        badness = flat_.period(tid);  // unplaceable: weight by rate pressure
      else if (deadline != kNoTime &&
               outcome.schedule.task_finish[tid] > deadline)
        badness = outcome.schedule.task_finish[tid] - deadline;
      if (badness == 0) continue;
      offenders.emplace_back(badness, c);
      // The binding constraint often sits upstream: walk the critical
      // chain (predecessor with the latest finish) and offer those
      // clusters for relocation too, at diminishing weight.
      int cur = tid;
      for (int hop = 0; hop < 8; ++hop) {
        int binding = -1;
        TimeNs latest = kNoTime;
        for (int eid : flat_.in_edges(cur)) {
          const int src = flat_.edge_src(eid);
          const TimeNs f = outcome.schedule.task_finish[src];
          if (f != kNoTime && f > latest) {
            latest = f;
            binding = src;
          }
        }
        if (binding < 0) break;
        const int bc = outcome.task_cluster[binding];
        if (bc >= 0 && outcome.arch.cluster_pe[bc] >= 0)
          offenders.emplace_back(badness / (hop + 2), bc);
        cur = binding;
      }
    }
    std::sort(offenders.begin(), offenders.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    offenders.erase(std::unique(offenders.begin(), offenders.end(),
                                [](const auto& a, const auto& b) {
                                  return a.second == b.second;
                                }),
                    offenders.end());

    bool improved = false;
    for (const auto& [badness, cid] : offenders) {
      (void)badness;
      const Cluster& cluster = clusters[cid];
      // Displaced by an earlier move this pass.
      if (outcome.arch.cluster_pe[cid] < 0) continue;
      stripped = outcome.arch;
      unplace(stripped, cluster, clusters);

      std::vector<Candidate> candidates =
          enumerate(stripped, cluster, outcome.task_cluster);
      int best = -1;
      ScheduleResult best_schedule;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (!keep_going()) break;
        trial = stripped;
        materialize(trial, candidates[i], cluster, outcome.task_cluster);
        // After the first, a candidate is only worth scheduling while it
        // can still beat the best so far; one that cannot is cut short.
        const ScheduleCutoff cutoff = cutoff_to_beat(best_schedule);
        ScheduleResult schedule =
            evaluate(trial, outcome, best < 0 ? nullptr : &cutoff);
        if (best < 0 || schedule_beats(schedule, best_schedule)) {
          best = static_cast<int>(i);
          best_schedule = std::move(schedule);
          std::swap(trial, best_arch);
        }
        if (best_schedule.feasible) break;
      }
      const bool strictly_better =
          best >= 0 &&
          (best_schedule.placement_failures <
               outcome.schedule.placement_failures ||
           (best_schedule.placement_failures ==
                outcome.schedule.placement_failures &&
            best_schedule.total_tardiness <
                outcome.schedule.total_tardiness));
      // outcome.arch is only replaced on acceptance; rejecting a move needs
      // no undo because all work happened on copies.
      if (strictly_better) {
        std::swap(outcome.arch, best_arch);
        outcome.schedule = std::move(best_schedule);
        ++stats().repair_moves;
        improved = true;
        if (outcome.schedule.feasible) break;
      }
    }
    if (!improved) break;
  }
  relax_fpga_purity_ = false;
  outcome.budget_exhausted = budget_exhausted_;
  outcome.stopped = stopped_;
}

}  // namespace crusade
