// Unit tests for compatibility derivation, interface synthesis and the
// merge loop.
#include <gtest/gtest.h>

#include "reconfig/compatibility.hpp"
#include "reconfig/interface_synth.hpp"
#include "reconfig/merge.hpp"

namespace crusade {
namespace {

const ResourceLibrary& lib() {
  static const ResourceLibrary l = telecom_1999();
  return l;
}

Task hw_task(TimeNs exec, int pfus, TimeNs deadline = kNoTime) {
  Task t;
  t.name = "hw";
  t.exec.assign(lib().pe_count(), kNoTime);
  for (PeTypeId pe = 0; pe < lib().pe_count(); ++pe) {
    const PeType& type = lib().pe(pe);
    if (!type.is_hardware()) continue;
    if (type.is_programmable() && pfus > type.pfus) continue;
    t.exec[pe] =
        static_cast<TimeNs>(static_cast<double>(exec) / type.speed_factor);
  }
  t.pfus = pfus;
  t.gates = pfus * 12;
  t.pins = 20;
  t.deadline = deadline;
  return t;
}

// --- derived compatibility (Figure 3) ---

TEST(DeriveCompatTest, PhasedSlotsAreCompatible) {
  // Two single-task graphs with ESTs that keep executions apart, one that
  // overlaps the first.
  Specification spec;
  const TimeNs period = 100 * kMillisecond;
  for (int i = 0; i < 3; ++i) {
    TaskGraph g("g" + std::to_string(i), period,
                i == 1 ? 50 * kMillisecond : 0);
    g.add_task(hw_task(10 * kMillisecond, 100, period));
    spec.graphs.push_back(std::move(g));
  }
  const FlatSpec flat(spec);
  // Hand-build a schedule on three dedicated devices.
  SchedProblem p;
  p.flat = &flat;
  for (int i = 0; i < 3; ++i)
    p.resources.push_back(SchedResourceInfo{false, true, 0, {}});
  p.task_resource = {0, 1, 2};
  p.task_mode = {-1, -1, -1};
  p.task_exec = {4 * kMillisecond, 4 * kMillisecond, 4 * kMillisecond};
  const PriorityLevels levels =
      priority_levels(flat, p.task_exec, std::vector<TimeNs>{});
  const ScheduleResult schedule = run_list_scheduler(p, levels);
  ASSERT_TRUE(schedule.feasible);

  const CompatibilityMatrix compat = derive_compatibility(flat, schedule);
  EXPECT_TRUE(compat.compatible(0, 1));   // phased apart
  EXPECT_TRUE(compat.compatible(1, 2));   // phased apart
  EXPECT_FALSE(compat.compatible(0, 2));  // both start at 0: overlap
}

TEST(DeriveCompatTest, UnscheduledGraphIncompatible) {
  Specification spec;
  for (int i = 0; i < 2; ++i) {
    TaskGraph g("g" + std::to_string(i), 100 * kMillisecond);
    g.add_task(hw_task(kMillisecond, 50, 100 * kMillisecond));
    spec.graphs.push_back(std::move(g));
  }
  const FlatSpec flat(spec);
  SchedProblem p;
  p.flat = &flat;
  p.resources.push_back(SchedResourceInfo{false, true, 0, {}});
  p.task_resource = {0, -1};  // second graph unallocated
  p.task_mode = {-1, -1};
  p.task_exec = {kMillisecond, kMillisecond};
  const PriorityLevels levels =
      priority_levels(flat, p.task_exec, std::vector<TimeNs>{});
  const ScheduleResult schedule = run_list_scheduler(p, levels);
  const CompatibilityMatrix compat = derive_compatibility(flat, schedule);
  EXPECT_FALSE(compat.compatible(0, 1));  // conservative
}

// --- interface synthesis (§4.4) ---

TEST(InterfaceTest, BootTimeMath) {
  const PeType& xc4025 = lib().pe(lib().find_pe("XC4025"));
  const InterfaceOption serial{ProgStyle::SerialMaster, 1.0, false};
  // Full image: config_bits / 1 MHz + setup.
  const TimeNs expected =
      static_cast<TimeNs>(xc4025.config_bits * 1000LL) + xc4025.boot_setup;
  EXPECT_EQ(mode_boot_time(xc4025, xc4025.pfus, serial, 1), expected);
  // 8-bit parallel at the same clock is 8x faster (minus setup).
  const InterfaceOption par{ProgStyle::Parallel8Master, 1.0, false};
  EXPECT_LT(mode_boot_time(xc4025, xc4025.pfus, par, 1),
            expected / 4);
}

TEST(InterfaceTest, PartialDeviceStreamsFraction) {
  const PeType& at = lib().pe(lib().find_pe("AT6005"));
  ASSERT_TRUE(at.partial_reconfig);
  const InterfaceOption opt{ProgStyle::SerialMaster, 5.0, false};
  const TimeNs small = mode_boot_time(at, at.pfus / 4, opt, 1);
  const TimeNs full = mode_boot_time(at, at.pfus, opt, 1);
  EXPECT_LT(small, full / 2);
}

TEST(InterfaceTest, ChainingSlowsBoot) {
  const PeType& xc = lib().pe(lib().find_pe("XC4025"));
  const InterfaceOption solo{ProgStyle::SerialMaster, 5.0, false};
  const InterfaceOption chained{ProgStyle::SerialMaster, 5.0, true};
  EXPECT_GT(mode_boot_time(xc, xc.pfus, chained, 4),
            mode_boot_time(xc, xc.pfus, solo, 1));
}

TEST(InterfaceTest, CpldAlwaysJtag) {
  const PeType& cpld = lib().pe(lib().find_pe("XC95288"));
  // Clock/width of the FPGA option must not speed up a CPLD (JTAG @1MHz).
  const TimeNs a = mode_boot_time(
      cpld, cpld.pfus, {ProgStyle::Parallel8Master, 10.0, false}, 1);
  const TimeNs b = mode_boot_time(
      cpld, cpld.pfus, {ProgStyle::SerialSlave, 1.0, false}, 1);
  EXPECT_EQ(a, b);
}

Architecture reconfig_arch() {
  static std::vector<std::unique_ptr<ResourceLibrary>> keep;
  keep.push_back(std::make_unique<ResourceLibrary>(telecom_1999()));
  Architecture arch(keep.back().get(), /*clusters=*/4, /*edges=*/0);
  const int fpga = arch.add_pe(keep.back()->find_pe("AT6005"));
  arch.place_cluster(0, fpga, 0, /*graph=*/0, 0, 0, 300, 20);
  arch.place_cluster(1, fpga, 1, /*graph=*/1, 0, 0, 250, 18);
  return arch;
}

TEST(InterfaceTest, OptionsOrderedByCostAndApplied) {
  Architecture arch = reconfig_arch();
  const auto options =
      enumerate_interface_options(arch, 200 * kMillisecond);
  ASSERT_GT(options.size(), 8u);
  for (std::size_t i = 1; i < options.size(); ++i)
    EXPECT_LE(options[i - 1].cost, options[i].cost);

  const InterfaceChoice choice =
      synthesize_reconfig_interface(arch, 200 * kMillisecond);
  EXPECT_TRUE(choice.meets_requirement);
  EXPECT_GT(arch.interface_cost, 0);
  for (const Mode& m : arch.pes[0].modes) EXPECT_GT(m.boot_time, 0);
}

TEST(InterfaceTest, TightRequirementBuysFasterInterface) {
  Architecture arch_loose = reconfig_arch();
  Architecture arch_tight = reconfig_arch();
  const InterfaceChoice loose =
      synthesize_reconfig_interface(arch_loose, kSecond);
  const InterfaceChoice tight =
      synthesize_reconfig_interface(arch_tight, 2 * kMillisecond);
  EXPECT_LE(tight.worst_boot, loose.worst_boot);
  EXPECT_GE(tight.cost, loose.cost);
}

TEST(InterfaceTest, NoPpesMeansFreeInterface) {
  static ResourceLibrary l = telecom_1999();
  Architecture arch(&l, 1, 0);
  const int cpu = arch.add_pe(l.find_pe("MC68360"));
  arch.place_cluster(0, cpu, 0, 0, 1024, 0, 0, 0);
  const auto options = enumerate_interface_options(arch, kSecond);
  ASSERT_EQ(options.size(), 1u);
  EXPECT_DOUBLE_EQ(options[0].cost, 0);
}

// --- merge loop (Figure 3) ---

struct MergeFixture {
  Specification spec;
  std::unique_ptr<FlatSpec> flat;
  PriorityLevels levels;  ///< scheduling_levels of the flat spec
  Architecture arch;
  std::vector<int> task_cluster;
  ScheduleResult schedule;
};

/// Two single-task graphs on separate FPGAs, compatible: a merge must fold
/// them into one dual-mode device.
MergeFixture make_merge_fixture(bool compatible) {
  MergeFixture fx;
  static std::vector<std::unique_ptr<ResourceLibrary>> keep;
  keep.push_back(std::make_unique<ResourceLibrary>(telecom_1999()));
  ResourceLibrary* l = keep.back().get();
  for (int i = 0; i < 2; ++i) {
    TaskGraph g("g" + std::to_string(i), 100 * kMillisecond);
    // 450 PFUs each: both fit an AT6005 alone (716 usable at 70% ERUF) but
    // not together, so the merge must keep two modes rather than
    // consolidating them into one configuration.
    g.add_task(hw_task(5 * kMillisecond, 450, 100 * kMillisecond));
    fx.spec.graphs.push_back(std::move(g));
  }
  CompatibilityMatrix compat(2);
  compat.set_compatible(0, 1, compatible);
  fx.spec.compatibility = compat;
  fx.flat = std::make_unique<FlatSpec>(fx.spec);
  fx.arch = Architecture(l, 2, 0);
  const PeTypeId at = l->find_pe("AT6005");
  const int d0 = fx.arch.add_pe(at);
  const int d1 = fx.arch.add_pe(at);
  fx.arch.place_cluster(0, d0, 0, 0, 0, 0, 450, 20);
  fx.arch.place_cluster(1, d1, 0, 1, 0, 0, 450, 20);
  fx.task_cluster = {0, 1};
  SchedProblem p =
      make_sched_problem(fx.arch, *fx.flat, fx.task_cluster, {}, false);
  fx.levels = scheduling_levels(*fx.flat, *l);
  fx.schedule = run_list_scheduler(p, fx.levels);
  return fx;
}

TEST(MergeTest, CompatibleDevicesMerge) {
  MergeFixture fx = make_merge_fixture(true);
  MergeParams params;
  params.reboots_in_schedule = false;
  const MergeReport report =
      merge_modes(fx.arch, fx.schedule, *fx.flat, fx.levels,
                  *fx.spec.compatibility, fx.task_cluster, params);
  EXPECT_EQ(report.merges_accepted, 1);
  EXPECT_EQ(fx.arch.live_pe_count(), 1);
  EXPECT_EQ(fx.arch.pes[fx.arch.cluster_pe[0]].modes.size(), 2u);
  EXPECT_LT(report.cost_after, report.cost_before);
  EXPECT_LT(report.merge_potential_after, report.merge_potential_before);
  EXPECT_TRUE(fx.schedule.feasible);
}

TEST(MergeTest, IncompatibleDevicesDoNotMerge) {
  MergeFixture fx = make_merge_fixture(false);
  MergeParams params;
  params.reboots_in_schedule = false;
  const MergeReport report =
      merge_modes(fx.arch, fx.schedule, *fx.flat, fx.levels,
                  *fx.spec.compatibility, fx.task_cluster, params);
  EXPECT_EQ(report.merges_accepted, 0);
  EXPECT_EQ(fx.arch.live_pe_count(), 2);
}

TEST(MergeTest, ValidatorCanVeto) {
  MergeFixture fx = make_merge_fixture(true);
  MergeParams params;
  params.reboots_in_schedule = false;
  int calls = 0;
  const MergeReport report = merge_modes(
      fx.arch, fx.schedule, *fx.flat, fx.levels, *fx.spec.compatibility,
      fx.task_cluster, params, [&](const Architecture&) {
        ++calls;
        return false;  // dependability analysis says no (§6)
      });
  EXPECT_GT(calls, 0);
  EXPECT_EQ(report.merges_accepted, 0);
  EXPECT_EQ(fx.arch.live_pe_count(), 2);
}

TEST(MergeTest, ConsolidationFoldsSmallModes) {
  // Two small compatible blocks first merge into two modes, then (since
  // both fit one configuration) consolidate into a single mode.
  MergeFixture fx = make_merge_fixture(true);
  // Shrink the resident areas so consolidation becomes possible.
  for (int pe = 0; pe < 2; ++pe) fx.arch.pes[pe].modes[0].pfus_used = 200;
  MergeParams params;
  params.reboots_in_schedule = false;
  const MergeReport report =
      merge_modes(fx.arch, fx.schedule, *fx.flat, fx.levels,
                  *fx.spec.compatibility, fx.task_cluster, params);
  EXPECT_EQ(report.merges_accepted, 1);
  EXPECT_GE(report.consolidations, 1);
  EXPECT_EQ(fx.arch.live_pe_count(), 1);
  EXPECT_EQ(fx.arch.pes[fx.arch.cluster_pe[0]].modes.size(), 1u);
  // Cluster mode indices were renumbered consistently.
  EXPECT_EQ(fx.arch.cluster_mode[0], 0);
  EXPECT_EQ(fx.arch.cluster_mode[1], 0);
}

TEST(MergeTest, ModeCapRespected) {
  MergeFixture fx = make_merge_fixture(true);
  // Fill one device to the cap with 450-PFU modes: no two fit one
  // configuration, so consolidation cannot fold them, and merging the other
  // device's mode in would need one mode too many.
  PeInstance& full = fx.arch.pes[fx.arch.cluster_pe[0]];
  while (static_cast<int>(full.modes.size()) < kMaxModesPerDevice) {
    Mode mode;
    mode.pfus_used = 450;
    full.modes.push_back(mode);
  }
  MergeParams params;
  params.reboots_in_schedule = false;
  const MergeReport report =
      merge_modes(fx.arch, fx.schedule, *fx.flat, fx.levels,
                  *fx.spec.compatibility, fx.task_cluster, params);
  EXPECT_EQ(report.merges_accepted, 0);
}

}  // namespace
}  // namespace crusade
