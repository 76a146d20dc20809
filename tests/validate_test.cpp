// Tests for the independent architecture validator (src/validate) and the
// graceful-degradation diagnostics: the example architectures must verify
// clean, deliberately corrupted results must be caught, and exhausted
// search budgets must come back with a populated diagnosis instead of a
// hang or a bare "infeasible".
#include <gtest/gtest.h>

#include "core/crusade.hpp"
#include "example_specs.hpp"
#include "tgff/profiles.hpp"

namespace crusade {
namespace {

const ResourceLibrary& lib() {
  static const ResourceLibrary l = telecom_1999();
  return l;
}

/// Validator input for a CrusadeResult, mirroring Crusade::run()'s wiring.
ValidationInput input_for(const Specification& spec, const CrusadeResult& r,
                          bool reboots_in_schedule) {
  ValidationInput in;
  in.spec = &spec;
  in.lib = &lib();
  in.arch = &r.arch;
  in.schedule = &r.schedule;
  in.clusters = &r.clusters;
  in.task_cluster = &r.task_cluster;
  in.compat = &r.compat;
  in.boot_time_requirement = spec.boot_time_requirement;
  in.reboots_in_schedule = reboots_in_schedule;
  in.claimed_feasible = r.feasible;
  in.claimed_boot_ok = r.interface_choice.meets_requirement;
  in.reported_cost = &r.cost;
  in.reported_power_mw = r.power_mw;
  return in;
}

bool spec_declared(const Specification& spec, const CrusadeParams& params) {
  return params.enable_reconfig && spec.compatibility.has_value();
}

void expect_clean(const Specification& spec, const CrusadeParams& params,
                  const char* label) {
  const CrusadeResult r = Crusade(spec, lib(), params).run();
  // self_check defaults on: the driver already ran the validator.
  EXPECT_TRUE(r.validation.clean())
      << label << ":\n" << r.validation.summary(50);
  EXPECT_TRUE(r.validation.checked_schedule) << label;
  EXPECT_TRUE(r.feasible) << label;
  // Re-running by hand must agree with the driver's wiring.
  const ValidationReport again = validate_architecture(
      input_for(spec, r, !spec_declared(spec, params)));
  EXPECT_TRUE(again.clean()) << label << ":\n" << again.summary(50);
}

TEST(ValidatorTest, ExampleArchitecturesVerifyClean) {
  for (const bool reconfig : {true, false}) {
    CrusadeParams params;
    params.enable_reconfig = reconfig;
    expect_clean(quickstart_spec(lib()), params,
                 reconfig ? "quickstart/reconfig" : "quickstart/static");
    expect_clean(base_station_spec(lib()), params,
                 reconfig ? "base_station/reconfig" : "base_station/static");
  }
  expect_clean(video_router_spec(lib()), {}, "video_router");
  expect_clean(fault_tolerant_sonet_spec(lib()), {}, "fault_tolerant_sonet");
}

TEST(ValidatorTest, CorruptedResultsYieldViolations) {
  const Specification spec = quickstart_spec(lib());
  CrusadeParams params;
  const CrusadeResult good = Crusade(spec, lib(), params).run();
  ASSERT_TRUE(good.feasible);
  ASSERT_TRUE(good.validation.clean()) << good.validation.summary(50);
  const bool reboots = !spec_declared(spec, params);

  {  // A task window pulled before its predecessors finish.
    CrusadeResult r = good;
    int victim = -1;
    for (std::size_t t = 0; t < r.schedule.task_start.size(); ++t)
      if (r.schedule.task_start[t] > 0) victim = static_cast<int>(t);
    ASSERT_GE(victim, 0);
    r.schedule.task_start[victim] = 0;
    const ValidationReport report =
        validate_architecture(input_for(spec, r, reboots));
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(report.schedule_violated()) << report.summary(50);
    EXPECT_GT(report.count(ViolationKind::FeasibilityOverclaimed), 0);
  }
  {  // A task silently dropped from the schedule.
    CrusadeResult r = good;
    r.schedule.task_start[0] = kNoTime;
    r.schedule.task_finish[0] = kNoTime;
    const ValidationReport report =
        validate_architecture(input_for(spec, r, reboots));
    EXPECT_GT(report.count(ViolationKind::UnscheduledTask), 0)
        << report.summary(50);
  }
  {  // Capacity bookkeeping understating real usage.
    CrusadeResult r = good;
    for (PeInstance& inst : r.arch.pes)
      if (inst.alive() && inst.memory_used > 0) {
        inst.memory_used /= 2;
        break;
      }
    const ValidationReport report =
        validate_architecture(input_for(spec, r, reboots));
    EXPECT_GT(report.count(ViolationKind::BookkeepingMismatch), 0)
        << report.summary(50);
  }
  {  // A cooked invoice.
    CrusadeResult r = good;
    r.cost.pes /= 2;
    const ValidationReport report =
        validate_architecture(input_for(spec, r, reboots));
    EXPECT_GT(report.count(ViolationKind::CostMismatch), 0)
        << report.summary(50);
    // Accounting lies alone do not contradict the schedule.
    EXPECT_FALSE(report.schedule_violated());
  }
  {  // Structural damage: arity break aborts deep checks but still reports.
    CrusadeResult r = good;
    r.task_cluster.pop_back();
    const ValidationReport report =
        validate_architecture(input_for(spec, r, reboots));
    EXPECT_FALSE(report.clean());
    EXPECT_FALSE(report.checked_schedule);
    EXPECT_GT(report.count(ViolationKind::Structure), 0);
  }
}

TEST(ValidatorTest, SelfCheckIsWiredIntoTheDriver) {
  const Specification spec = quickstart_spec(lib());
  CrusadeParams params;
  params.self_check = false;
  const CrusadeResult r = Crusade(spec, lib(), params).run();
  EXPECT_TRUE(r.validation.violations.empty());
  EXPECT_FALSE(r.validation.checked_schedule);  // validator never ran
}

TEST(DiagnosisTest, AllocationBudgetExhaustionIsDiagnosed) {
  SpecGenerator gen(lib());
  const Specification spec =
      gen.generate(profile_config(profile_by_name("A1TR"), 0.08));
  CrusadeParams params;
  params.max_iterations = 1;  // strangle the search immediately
  params.merge_budget = 1;
  const CrusadeResult r = Crusade(spec, lib(), params).run();
  EXPECT_TRUE(r.diagnosis.alloc_budget_exhausted);
  EXPECT_FALSE(r.diagnosis.empty());
  EXPECT_FALSE(r.diagnosis.summary().empty());
  // Degradation contract: the architecture/schedule pair is still honest —
  // whatever the truncated search produced re-verifies structurally.
  EXPECT_TRUE(r.validation.checked_schedule)
      << r.validation.summary(50);
}

TEST(DiagnosisTest, ImpossibleDeadlinePreflightRejectsBeforeSynthesis) {
  Specification spec = quickstart_spec(lib());
  Task& victim = spec.graphs[0].task(spec.graphs[0].task_count() - 1);
  victim.deadline = 1;  // 1 ns: below every execution time in the library
  const CrusadeResult r = Crusade(spec, lib(), {}).run();
  EXPECT_FALSE(r.feasible);
  // Preflight static analysis proves the deadline unmeetable (A011) and
  // stops before any search; the diagnosis says so.
  ASSERT_FALSE(r.diagnosis.preflight_errors.empty());
  EXPECT_NE(r.diagnosis.preflight_errors.front().find("A011"),
            std::string::npos);
  EXPECT_FALSE(r.diagnosis.empty());
  EXPECT_NE(r.diagnosis.summary().find("preflight"), std::string::npos);
}

TEST(DiagnosisTest, ImpossibleDeadlineNamesTheBindingResource) {
  Specification spec = quickstart_spec(lib());
  // Make one task's deadline physically unmeetable.
  Task& victim = spec.graphs[0].task(spec.graphs[0].task_count() - 1);
  victim.deadline = 1;  // 1 ns
  CrusadeParams params;
  params.preflight = false;  // exercise the scheduler-level diagnosis
  const CrusadeResult r = Crusade(spec, lib(), params).run();
  EXPECT_FALSE(r.feasible);
  ASSERT_FALSE(r.diagnosis.misses.empty());
  const DeadlineMiss& miss = r.diagnosis.misses.front();
  EXPECT_EQ(miss.task_name, victim.name);
  EXPECT_GT(miss.overrun, 0);
  EXPECT_FALSE(miss.binding.empty());
  EXPECT_GE(miss.binding_resource, 0);
  EXPECT_FALSE(r.diagnosis.summary().empty());
}

TEST(DiagnosisTest, FeasibleRunsCarryNoDiagnosis) {
  const CrusadeResult r = Crusade(quickstart_spec(lib()), lib(), {}).run();
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.diagnosis.empty());
  EXPECT_EQ(r.diagnosis.misses.size(), 0u);
}

}  // namespace
}  // namespace crusade
