#include "core/crusade.hpp"

#include <chrono>
#include <sstream>

#include "ckpt/serialize.hpp"
#include "graph/spec_io.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace crusade {

namespace {

/// Lap clock for the phase breakdown in RunStats: phase() returns the
/// seconds since the previous phase boundary and re-arms.
class PhaseClock {
 public:
  PhaseClock() : start_(std::chrono::steady_clock::now()), last_(start_) {}

  double lap() {
    const auto now = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(now - last_).count();
    last_ = now;
    return s;
  }
  double total() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  /// Seconds since the last lap WITHOUT re-arming: checkpoint snapshots use
  /// it to charge the in-flight phase's partial time without disturbing the
  /// phase boundary the next lap() measures from.
  double since_lap() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         last_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_, last_;
};

}  // namespace

Crusade::Crusade(const Specification& spec, const ResourceLibrary& lib,
                 CrusadeParams params)
    : spec_(spec), lib_(lib), params_(std::move(params)) {
  lib_.validate();
  spec_.validate(lib_.pe_count());
}

std::uint64_t Crusade::fingerprint(const Specification& spec,
                                   const ResourceLibrary& lib,
                                   const CrusadeParams& params) {
  // The canonical spec writer normalizes formatting, so two spellings of the
  // same specification fingerprint identically; every parameter that shapes
  // the search trajectory is appended (cosmetic knobs — self_check, hooks,
  // checkpoint policy itself — deliberately are not).
  std::ostringstream text;
  write_specification(text, spec, lib);
  ckpt::BinWriter w;
  w.str(text.str());
  w.u8(params.enable_reconfig ? 1 : 0);
  w.u8(params.preflight ? 1 : 0);
  w.u8(params.preflight_prune ? 1 : 0);
  w.u8(params.clustering.enabled ? 1 : 0);
  w.f64(params.power_cap_mw);
  w.i32(params.max_iterations);
  w.i32(params.merge_budget);
  return ckpt::fnv1a(w.bytes());
}

CrusadeResult Crusade::run() {
  OBS_SPAN("crusade.run");
  PhaseClock clock;
  CrusadeResult result;

  const ckpt::Checkpoint* resume = params_.resume;
  const bool checkpointing = params_.checkpoint.enabled();
  std::uint64_t spec_hash = 0;
  if (resume || checkpointing) {
    spec_hash = fingerprint(spec_, lib_, params_);
    if (resume) ckpt::check_spec_hash(*resume, spec_hash);
  }
  if (resume) {
    // Continue the interrupted run's tallies: phase laps below ACCUMULATE
    // onto the pre-crash stats instead of overwriting them, so the final
    // RunStats covers the whole search across every incarnation.
    result.stats = resume->stats;
    result.resumed = true;
  }

  // Stats image for a checkpoint taken mid-phase: the run's tallies plus the
  // in-flight phase's partial time.  A run resumed from the checkpoint keeps
  // accumulating on top — the time spent between the checkpoint and the
  // crash is honestly lost.
  auto snapshot_stats = [&](double RunStats::*phase) {
    RunStats s = result.stats;
    s.*phase += clock.since_lap();
    s.total_seconds += clock.total();
    return s;
  };

  // Checkpointing is an optimization, not a correctness requirement: a
  // checkpoint that cannot be persisted (disk full, I/O error) must not
  // kill a search that could still finish.  The first failed write is
  // counted and disables further disk checkpoints for this run — the last
  // good checkpoint on disk stays valid, and atomic_write_file guarantees
  // the failure left no partial file behind.
  bool ckpt_disk_ok = true;
  auto write_checkpoint = [&](const ckpt::Checkpoint& c) {
    if (!params_.checkpoint.path.empty() && ckpt_disk_ok) {
      try {
        ckpt::save_checkpoint(params_.checkpoint.path, c);
      } catch (const IoError&) {
        ckpt_disk_ok = false;
        obs::count("crusade.ckpt_write_failed", 1);
      }
    }
    if (params_.checkpoint.on_write) params_.checkpoint.on_write(c);
  };
  // A checkpoint past allocation: every cluster placed, the merge loop's
  // progress in `report`.
  auto write_phase_checkpoint = [&](ckpt::Stage stage,
                                    double RunStats::*phase,
                                    const MergeReport& report) {
    ckpt::Checkpoint c;
    c.stage = stage;
    c.spec_hash = spec_hash;
    c.alloc.arch = result.arch;
    c.alloc.placed.assign(result.clusters.size(), 1);
    c.alloc.clusters_with_misses = result.clusters_with_misses;
    c.merge_report = report;
    c.stats = snapshot_stats(phase);
    write_checkpoint(c);
  };

  // --- preflight: static analysis before any search (src/analyze) ---
  if (params_.preflight) {
    OBS_SPAN("phase.preflight");
    result.preflight = analyze_specification(spec_, lib_);
    result.stats.preflight_seconds += clock.lap();
    if (result.preflight.has_errors()) {
      // Every analyzer error is a necessary condition for feasibility that
      // the input already violates: report honestly and stop, rather than
      // spending the allocation budget to rediscover it the hard way.
      for (const Diagnostic& d : result.preflight.diagnostics)
        if (d.severity == Severity::Error)
          result.diagnosis.preflight_errors.push_back(
              "[" + d.id + "] " + d.message);
      result.feasible = false;
      result.stats.total_seconds += clock.total();
      result.diagnosis.stats = result.stats;
      return result;
    }
  }

  // --- pre-processing: clustering (§5) ---
  // The flat view and the canonical times are built once here, charged to
  // this lap, and shared by every later stage.
  const FlatSpec flat(spec_);
  const CanonicalTimes canon = canonical_times(flat, lib_);
  {
    OBS_SPAN("phase.clustering");
    result.clusters = cluster_tasks(flat, lib_, canon, params_.clustering);
    result.task_cluster =
        task_to_cluster(result.clusters, flat.task_count());
  }
  result.stats.clustering_seconds += clock.lap();
  result.stats.clusters = static_cast<std::int64_t>(result.clusters.size());

  // --- synthesis: cluster allocation (§5) ---
  // Spec-declared compatibility makes allocation mode-aware (§4.2) and
  // means rare mode-exclusive system modes: reconfiguration is charged to
  // the boot-time requirement, not the frame schedule (see
  // make_sched_problem).  The allocator derives both from the pointer.
  const CompatibilityMatrix* declared_compat =
      params_.enable_reconfig && spec_.compatibility ? &*spec_.compatibility
                                                     : nullptr;
  const bool reboots_in_schedule = declared_compat == nullptr;
  AllocParams alloc_params;
  alloc_params.boot_estimate = estimate_boot_time;
  alloc_params.power_cap_mw = params_.power_cap_mw;
  alloc_params.max_iterations = params_.max_iterations;
  if (params_.preflight && params_.preflight_prune) {
    alloc_params.pruned_pe_types = result.preflight.dominated_pes;
    alloc_params.pruned_link_types = result.preflight.dominated_links;
  }
  alloc_params.control = params_.control;
  // The run's RunStats is the allocator's tally: a resume seeded it with the
  // pre-crash counts above, so the evaluation budget continues too.
  alloc_params.stats = &result.stats;

  std::int64_t last_ckpt_evals = result.stats.sched_evals;
  alloc_params.progress_hook = [&](const AllocState& state) {
    if (params_.progress_hook) params_.progress_hook(state);
    if (!checkpointing) return;
    // Wrap-up commits after the anytime control fired are off the
    // uninterrupted trajectory — never persist them; the last checkpoint
    // on disk stays a state the full search really passes through.
    if (params_.control && params_.control->triggered()) return;
    if (result.stats.sched_evals - last_ckpt_evals <
        params_.checkpoint.every_evals)
      return;
    last_ckpt_evals = result.stats.sched_evals;
    ckpt::Checkpoint c;
    c.stage = ckpt::Stage::Allocation;
    c.spec_hash = spec_hash;
    c.alloc = state;
    c.stats = snapshot_stats(&RunStats::allocation_seconds);
    write_checkpoint(c);
  };

  Allocator allocator(flat, lib_, canon, declared_compat, alloc_params);
  // A checkpoint taken past allocation resumes AFTER repair + evacuation:
  // re-running them on the already-evacuated architecture would leave the
  // uninterrupted trajectory.  The schedule was never serialized (it is a
  // pure function of the architecture) — recompute it outside the budget.
  const bool resume_past_alloc =
      resume && resume->stage != ckpt::Stage::Allocation;
  AllocationOutcome outcome;
  {
    OBS_SPAN("phase.allocation");
    if (resume_past_alloc) {
      outcome.arch = resume->alloc.arch;
      outcome.clusters_with_misses = resume->alloc.clusters_with_misses;
      outcome.schedule =
          allocator.schedule_architecture(outcome.arch, result.task_cluster);
    } else {
      outcome = allocator.run(result.clusters, nullptr,
                              resume ? &resume->alloc : nullptr);
      // Constructive greediness leaves under-filled devices behind;
      // evacuation consolidates them (run for both variants, keeping the
      // comparison fair).
      allocator.evacuate_devices(outcome, result.clusters);
    }
  }
  result.stats.allocation_seconds += clock.lap();
  result.arch = std::move(outcome.arch);
  result.schedule = std::move(outcome.schedule);
  result.clusters_with_misses = outcome.clusters_with_misses;

  // Phase boundary: allocation (incl. repair + evacuation) is committed.
  // Written unconditionally — it is one file write — unless the search was
  // truncated (off-trajectory) or we resumed past this very boundary.
  if (checkpointing && !outcome.stopped && !resume_past_alloc &&
      !(params_.control && params_.control->triggered()))
    write_phase_checkpoint(ckpt::Stage::Merge, &RunStats::allocation_seconds,
                           MergeReport{});

  // --- dynamic reconfiguration generation (§4.1–4.4, Figure 3) ---
  if (params_.enable_reconfig) {
    OBS_SPAN("phase.reconfig");
    if (declared_compat)
      result.compat = *declared_compat;
    else
      result.compat = derive_compatibility(flat, result.schedule);

    MergeParams merge_params;
    merge_params.boot_estimate = alloc_params.boot_estimate;
    merge_params.reboots_in_schedule = reboots_in_schedule;
    merge_params.budget = params_.merge_budget;
    merge_params.control = params_.control;

    if (resume && resume->stage == ckpt::Stage::Merge)
      merge_params.resume_from = &resume->merge_report;
    if (checkpointing) {
      merge_params.pass_hook = [&](const MergeReport& rep, bool finished) {
        // Same rule as allocation: a stop-truncated state is not on the
        // uninterrupted trajectory, so it never reaches disk.
        if (rep.stopped ||
            (params_.control && params_.control->triggered()))
          return;
        // merge_modes mutates result.arch in place.
        write_phase_checkpoint(
            finished ? ckpt::Stage::MergeDone : ckpt::Stage::Merge,
            &RunStats::reconfig_seconds, rep);
      };
    }

    if (resume && resume->stage == ckpt::Stage::MergeDone) {
      // The merge loop already ran to its natural end before the crash.
      result.merge_report = resume->merge_report;
    } else {
      result.merge_report =
          merge_modes(result.arch, result.schedule, flat, canon.levels,
                      result.compat, result.task_cluster, merge_params,
                      params_.merge_validator);
    }
  } else {
    result.compat = CompatibilityMatrix(flat.graph_count());
  }
  result.stats.reconfig_seconds += clock.lap();
  result.stats.merges_tried = result.merge_report.merges_tried;
  result.stats.merges_accepted = result.merge_report.merges_accepted;
  result.stats.merges_rejected_cost = result.merge_report.rejected_cost;
  result.stats.merges_rejected_schedule =
      result.merge_report.rejected_schedule;
  result.stats.merges_rejected_validator =
      result.merge_report.rejected_validator;
  result.stats.merge_reschedules = result.merge_report.reschedules;
  // Each merge reschedule is one list-scheduler call.  Merge-stage
  // checkpoints leave them out of `stats`, so a resumed run adds the
  // restored report's whole count here once.
  result.stats.sched_invocations += result.merge_report.reschedules;
  result.stats.mode_consolidations = result.merge_report.consolidations;

  // --- reconfiguration controller interface synthesis (§4.4) ---
  // Walk the option array in cost order until the exact boot times still
  // schedule; the estimator used during merging is mid-range, so this
  // usually accepts the first feasible-cost option.
  {
    OBS_SPAN("phase.interface");
    auto apply_choice = [&](const InterfaceChoice& choice, Architecture& a) {
      a.interface_cost = choice.cost;
      int ppes = 0;
      for (const auto& pe : a.pes)
        if (pe.alive() && lib_.pe(pe.type).is_programmable()) ++ppes;
      const int chain_len =
          choice.option.chained ? std::min(4, std::max(1, ppes)) : 1;
      for (PeInstance& inst : a.pes) {
        if (!inst.alive()) continue;
        const PeType& type = lib_.pe(inst.type);
        if (!type.is_programmable()) continue;
        for (Mode& m : inst.modes)
          m.boot_time = inst.modes.size() > 1
                            ? mode_boot_time(type, m.pfus_used,
                                             choice.option, chain_len)
                            : 0;
      }
    };
    auto schedule_of = [&](const Architecture& a) {
      ++result.stats.sched_invocations;
      SchedProblem problem =
          make_sched_problem(a, flat, result.task_cluster,
                             /*boot_estimate=*/{}, reboots_in_schedule);
      return run_list_scheduler(std::move(problem), canon.levels);
    };

    const auto choices = enumerate_interface_options(
        result.arch, spec_.boot_time_requirement);
    result.stats.interface_candidates =
        static_cast<std::int64_t>(choices.size());
    bool has_multimode = false;
    for (const PeInstance& inst : result.arch.pes)
      if (inst.alive() && inst.modes.size() > 1) has_multimode = true;
    bool committed = false;
    if (!has_multimode) {
      // Single-mode devices boot only at power-up: the schedule cannot
      // change, so just take the cheapest option meeting the requirement.
      for (const auto& choice : choices) {
        if (!choice.meets_requirement) continue;
        result.arch.interface_cost = choice.cost;
        result.interface_choice = choice;
        committed = true;
        break;
      }
    }
    Architecture best_arch;
    ScheduleResult best_schedule;
    InterfaceChoice best_choice;
    bool have_best = false;
    if (!committed) {
      for (const auto& choice : choices) {
        if (!choice.meets_requirement) continue;
        Architecture trial = result.arch;
        apply_choice(choice, trial);
        ScheduleResult schedule = schedule_of(trial);
        if (schedule.feasible) {
          result.arch = std::move(trial);
          result.schedule = std::move(schedule);
          result.interface_choice = choice;
          committed = true;
          break;
        }
        // Track the least-damaging option in case none is feasible.
        if (!have_best ||
            schedule.total_tardiness < best_schedule.total_tardiness) {
          best_arch = std::move(trial);
          best_schedule = std::move(schedule);
          best_choice = choice;
          have_best = true;
        }
      }
    }
    if (!committed && have_best) {
      result.arch = std::move(best_arch);
      result.schedule = std::move(best_schedule);
      result.interface_choice = best_choice;
      committed = true;
    }
    if (!committed) {
      // No option met the boot requirement (or none rescheduled): take the
      // synthesis helper's fallback — the fastest option — and reschedule.
      result.interface_choice = synthesize_reconfig_interface(
          result.arch, spec_.boot_time_requirement);
      result.schedule = schedule_of(result.arch);
    }
  }
  result.stats.interface_seconds += clock.lap();

  // Final repair: merges and exact boot times may have perturbed the
  // schedule; relocate offending clusters while it improves.
  if (!result.schedule.feasible) {
    OBS_SPAN("phase.repair");
    AllocationOutcome touchup;
    touchup.arch = std::move(result.arch);
    touchup.schedule = std::move(result.schedule);
    touchup.task_cluster = result.task_cluster;
    allocator.repair(touchup, result.clusters);
    result.arch = std::move(touchup.arch);
    result.schedule = std::move(touchup.schedule);
    outcome.budget_exhausted |= touchup.budget_exhausted;
    outcome.stopped |= touchup.stopped;
  }
  result.stats.repair_seconds += clock.lap();

  // "Stopped" means the search itself was truncated; a control that fires
  // during the cheap tail phases (interface, validation) truncated nothing
  // and the result is a completed exploration.
  result.stopped = outcome.stopped || result.merge_report.stopped;
  result.cost = result.arch.cost();
  result.power_mw = result.arch.power_mw();
  result.feasible = result.schedule.feasible;
  result.pe_count = result.arch.live_pe_count();
  result.link_count = result.arch.live_link_count();
  result.mode_count = result.arch.total_modes();

  // --- independent self-check: re-verify the result from scratch ---
  if (params_.self_check) {
    OBS_SPAN("phase.validation");
    ValidationInput vin;
    vin.spec = &spec_;
    vin.lib = &lib_;
    vin.arch = &result.arch;
    vin.schedule = &result.schedule;
    vin.clusters = &result.clusters;
    vin.task_cluster = &result.task_cluster;
    vin.compat = &result.compat;
    vin.boot_time_requirement = spec_.boot_time_requirement;
    vin.reboots_in_schedule = reboots_in_schedule;
    vin.claimed_feasible = result.feasible;
    vin.claimed_boot_ok = result.interface_choice.meets_requirement;
    vin.reported_cost = &result.cost;
    vin.reported_power_mw = result.power_mw;
    result.validation = validate_architecture(vin);
    if (result.feasible && result.validation.schedule_violated())
      result.feasible = false;  // never claim what the validator rejects
  }
  result.stats.validation_seconds += clock.lap();

  // --- graceful degradation: explain infeasibility / budget exhaustion ---
  if (!result.feasible || outcome.budget_exhausted ||
      result.merge_report.budget_exhausted || result.stopped) {
    OBS_SPAN("phase.diagnosis");
    result.diagnosis = diagnose_infeasibility(flat, result.arch,
                                              result.schedule,
                                              result.task_cluster);
    result.diagnosis.alloc_budget_exhausted = outcome.budget_exhausted;
    result.diagnosis.merge_budget_exhausted =
        result.merge_report.budget_exhausted;
    result.diagnosis.deadline_stopped = result.stopped;
  }
  result.stats.diagnosis_seconds += clock.lap();

  result.stats.total_seconds += clock.total();
  // The diagnosis carries the run's stats so "budget exhausted" verdicts can
  // say how the budget was spent (schedule evaluations, merge reschedules).
  if (!result.diagnosis.empty()) result.diagnosis.stats = result.stats;
  return result;
}

}  // namespace crusade
