// Differential oracles for the per-run setup a synthesis pays before its
// search:
//  - FlatSpec's flat adjacency (one offset array and one id array per
//    relation) against a brute-force scan of the specification: every
//    task's out-edges, in-edges and exclusions, in order, plus the
//    topological order, deadlines and hyperperiod the TaskGraph itself
//    gives, and the error a cyclic graph raises;
//  - the analyzer's linear structure pass against the old quadratic one
//    kept in reference_structure.cpp, diagnostic by diagnostic (id,
//    severity, line, message, order).
//
// Inputs: Table 2's eight profiles at 0.03x, Table 3's five at 0.02x after
// the FT transform, every structural mutant of the fault-injection harness
// (the seeds inject_test draws) and every text-corrupted mutant that still
// parses in the lint configuration, plus crafted graphs with a cycle, a
// self-loop, a dangling endpoint, duplicate and triplicate edges, an
// isolated task and no edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "example_specs.hpp"
#include "ft/transform.hpp"
#include "graph/spec_io.hpp"
#include "reference_structure.hpp"
#include "sched/flat.hpp"
#include "tgff/generator.hpp"
#include "tgff/profiles.hpp"
#include "util/math.hpp"
#include "validate/inject.hpp"

namespace crusade {
namespace {

const ResourceLibrary& lib() {
  static const ResourceLibrary l = telecom_1999();
  return l;
}

/// One input; `source` is set for parsed text.
struct Input {
  std::string name;
  Specification spec;
  bool parsed = false;
  SpecSourceMap source = {};
};

Specification generate(const std::string& profile, double scale) {
  return SpecGenerator(lib()).generate(
      profile_config(profile_by_name(profile), scale));
}

std::vector<Input> profile_inputs() {
  std::vector<Input> out;
  for (const ExampleProfile& p : paper_profiles())
    out.push_back({p.name + " at 0.03x", generate(p.name, 0.03)});
  for (const char* name : {"A1TR", "VDRTX", "HROST", "EST189A", "HRXC"})
    out.push_back({std::string(name) + "-FT at 0.02x",
                   add_fault_tolerance(generate(name, 0.02), lib(),
                                       FtParams{})});
  return out;
}

/// The mutants inject_test's two fuzz loops draw.
std::vector<Input> mutant_inputs() {
  std::vector<Input> out;
  const Specification bases[] = {quickstart_spec(lib()),
                                 base_station_spec(lib())};
  for (std::uint64_t seed = 1; seed <= 150; ++seed)
    for (std::size_t b = 0; b < 2; ++b) {
      Rng rng(0xC0FFEE ^ (seed * 2654435761u + b));
      Input in{"structural mutant seed " + std::to_string(seed) + " base " +
                   std::to_string(b),
               bases[b]};
      const int rounds = 1 + static_cast<int>(rng.uniform_int(0, 2));
      for (int i = 0; i < rounds; ++i) mutate_specification(in.spec, rng);
      out.push_back(std::move(in));
    }

  std::ostringstream pristine;
  write_specification(pristine, quickstart_spec(lib()), lib());
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    Rng rng(0xBADF00D + seed * 977);
    std::string text = pristine.str();
    const int rounds = 1 + static_cast<int>(rng.uniform_int(0, 1));
    for (int i = 0; i < rounds; ++i) corrupt_spec_text(text, rng);
    Input in{"text mutant seed " + std::to_string(seed), {}, true};
    SpecReadOptions options;
    options.source_map = &in.source;
    options.validate = false;
    try {
      std::istringstream stream(text);
      in.spec = read_specification(stream, lib(), options);
    } catch (const Error&) {
      continue;  // rejected by the parser: nothing to analyze
    }
    out.push_back(std::move(in));
  }
  return out;
}

/// Sets edge `e` of `graph` to src -> dst.  TaskGraph::add_edge refuses
/// self-loops and dangling endpoints, but the analyzer must report them in
/// any in-memory graph; the edge object itself is not const, so writing it
/// through the const accessor is well defined.
void rewire(TaskGraph& graph, int e, int src, int dst) {
  Edge& edge = const_cast<Edge&>(graph.edge(e));
  edge.src = src;
  edge.dst = dst;
}

std::vector<Input> crafted_inputs() {
  Task task;
  task.exec.assign(lib().pe_count(), 100 * kMicrosecond);
  const auto graph_of = [&](const std::string& name, int tasks) {
    TaskGraph g(name, 10 * kMillisecond);
    for (int t = 0; t < tasks; ++t) {
      task.name = name + "." + std::to_string(t);
      task.deadline = t == tasks - 1 ? 10 * kMillisecond : kNoTime;
      g.add_task(task);
    }
    return g;
  };
  std::vector<Input> out;
  const auto add = [&](const std::string& name,
                       std::vector<TaskGraph> graphs) {
    Input in{name, {}};
    in.spec.graphs = std::move(graphs);
    out.push_back(std::move(in));
  };

  TaskGraph cycle = graph_of("cycle", 5);
  cycle.add_edge(0, 1, 8);
  cycle.add_edge(1, 2, 8);
  cycle.add_edge(2, 3, 8);
  cycle.add_edge(3, 1, 8);
  cycle.add_edge(3, 4, 8);
  add("a cycle", {cycle});

  TaskGraph loop = graph_of("loop", 3);
  loop.add_edge(0, 1, 8);
  loop.add_edge(1, 2, 8);
  rewire(loop, 1, 1, 1);
  add("a self-loop", {loop});

  TaskGraph dangling = graph_of("dangling", 3);
  dangling.add_edge(0, 1, 8);
  dangling.add_edge(1, 2, 8);
  dangling.add_edge(0, 2, 8);
  rewire(dangling, 0, 0, 7);
  rewire(dangling, 2, -1, 2);
  add("dangling endpoints", {dangling});

  TaskGraph dup = graph_of("dup", 4);
  dup.add_edge(0, 1, 8);
  dup.add_edge(1, 2, 8);
  dup.add_edge(0, 1, 16);  // duplicate
  dup.add_edge(2, 3, 8);
  dup.add_edge(1, 2, 8);  // duplicate
  dup.add_edge(0, 1, 8);  // triplicate
  dup.add_edge(2, 1, 8);  // reverse direction: a cycle, not a duplicate
  add("duplicate and triplicate edges", {dup});

  TaskGraph isolated = graph_of("isolated", 4);
  isolated.add_edge(0, 1, 8);
  isolated.add_edge(1, 3, 8);
  add("an isolated task", {isolated});

  add("no edges", {graph_of("edgeless", 3)});

  TaskGraph invalid_only = graph_of("invalid_only", 2);
  invalid_only.add_edge(0, 1, 8);
  rewire(invalid_only, 0, 0, 0);
  add("only an invalid edge", {invalid_only});

  TaskGraph mixed = graph_of("mixed", 6);
  mixed.add_edge(0, 1, 8);
  mixed.add_edge(1, 0, 8);
  mixed.add_edge(1, 2, 8);
  mixed.add_edge(1, 2, 8);
  mixed.add_edge(2, 3, 8);
  mixed.add_edge(3, 4, 8);
  rewire(mixed, 5, 3, 3);
  add("every defect at once", {mixed, graph_of("empty", 0), cycle, dup});
  return out;
}

// --- FlatSpec ---------------------------------------------------------------

std::vector<int> as_vector(std::span<const int> ids) {
  return {ids.begin(), ids.end()};
}

/// The error the old construction (TaskGraph::topo_order per graph, then
/// the hyperperiod) throws, which FlatSpec must throw too; empty when it
/// does not throw.
std::string old_construction_error(const Specification& spec) {
  try {
    std::vector<TimeNs> periods;
    for (const TaskGraph& graph : spec.graphs) {
      graph.topo_order();
      periods.push_back(graph.period());
    }
    hyperperiod(periods);
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

void expect_flat_matches_scan(const Input& in) {
  SCOPED_TRACE(in.name);
  const Specification& spec = in.spec;
  if (const std::string error = old_construction_error(spec); !error.empty()) {
    try {
      const FlatSpec flat(spec);
      ADD_FAILURE() << "FlatSpec did not throw: " << error;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), error);
    }
    return;
  }
  const FlatSpec flat(spec);

  // The flat ids of every task and edge, graph by graph.
  std::vector<int> src, dst, task_base;
  std::vector<int> topo;
  std::vector<TimeNs> deadline, periods;
  for (const TaskGraph& graph : spec.graphs) {
    const int base = static_cast<int>(deadline.size());
    task_base.push_back(base);
    periods.push_back(graph.period());
    for (const Edge& e : graph.edges()) {
      src.push_back(base + e.src);
      dst.push_back(base + e.dst);
    }
    for (int t : graph.topo_order()) topo.push_back(base + t);
    for (int t = 0; t < graph.task_count(); ++t) {
      const TimeNs d = graph.effective_deadline(t);
      deadline.push_back(d == kNoTime ? kNoTime : graph.est() + d);
    }
  }
  ASSERT_EQ(flat.task_count(), static_cast<int>(deadline.size()));
  ASSERT_EQ(flat.edge_count(), static_cast<int>(src.size()));
  EXPECT_EQ(flat.topo_order(), topo);
  EXPECT_EQ(flat.hyperperiod(), hyperperiod(periods));

  for (int tid = 0; tid < flat.task_count(); ++tid) {
    std::vector<int> out, in_edges;
    for (int eid = 0; eid < flat.edge_count(); ++eid) {
      if (src[eid] == tid) out.push_back(eid);
      if (dst[eid] == tid) in_edges.push_back(eid);
    }
    const int g = flat.graph_of_task(tid);
    std::vector<int> excl;
    for (int other : flat.task(tid).exclusions)
      excl.push_back(task_base[g] + other);
    EXPECT_EQ(as_vector(flat.out_edges(tid)), out) << "task " << tid;
    EXPECT_EQ(as_vector(flat.in_edges(tid)), in_edges) << "task " << tid;
    EXPECT_EQ(as_vector(flat.exclusions(tid)), excl) << "task " << tid;
    EXPECT_EQ(flat.absolute_deadline(tid), deadline[tid]) << "task " << tid;
    if (::testing::Test::HasFailure()) return;
  }
  for (int eid = 0; eid < flat.edge_count(); ++eid) {
    EXPECT_EQ(flat.edge_src(eid), src[eid]);
    EXPECT_EQ(flat.edge_dst(eid), dst[eid]);
  }
}

TEST(FlatSpecOracle, ProfilesAndFtTransformsMatchABruteForceScan) {
  for (const Input& in : profile_inputs()) expect_flat_matches_scan(in);
}

TEST(FlatSpecOracle, InjectMutantsMatchABruteForceScan) {
  const std::vector<Input> inputs = mutant_inputs();
  int built = 0;
  for (const Input& in : inputs) {
    expect_flat_matches_scan(in);
    if (old_construction_error(in.spec).empty()) ++built;
  }
  // Most mutants reach the comparison, and some cannot be flattened.
  EXPECT_GT(2 * built, static_cast<int>(inputs.size())) << built;
  EXPECT_LT(built, static_cast<int>(inputs.size()));
}

TEST(FlatSpecOracle, CraftedGraphsMatchABruteForceScan) {
  // A FlatSpec is built from graphs TaskGraph::add_edge accepted, so the
  // rewired self-loops and dangling endpoints are left out.
  for (const Input& in : crafted_inputs()) {
    bool edges_valid = true;
    for (const TaskGraph& graph : in.spec.graphs)
      for (const Edge& e : graph.edges())
        edges_valid = edges_valid && e.src != e.dst && e.src >= 0 &&
                      e.dst >= 0 && e.src < graph.task_count() &&
                      e.dst < graph.task_count();
    if (edges_valid) expect_flat_matches_scan(in);
  }
}

// --- structure pass ---------------------------------------------------------

void expect_same_structure_diagnostics(const Input& in) {
  SCOPED_TRACE(in.name);
  AnalyzeOptions options;
  options.bounds = false;
  options.resources = false;
  options.reconfig = false;
  options.source = in.parsed ? &in.source : nullptr;
  std::vector<Diagnostic> got =
      analyze_specification(in.spec, lib(), options).diagnostics;
  // The dependability-input check runs whatever the options say; it is not
  // part of the structure pass.
  std::erase_if(got, [](const Diagnostic& d) { return d.id == "A040"; });

  std::vector<Diagnostic> want =
      reference::structure_diagnostics(in.spec, lib(), options.source);
  // analyze_specification's closing order: anchored diagnostics first.
  std::stable_sort(want.begin(), want.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return (a.line == 0 ? 1 : 0) < (b.line == 0 ? 1 : 0);
                   });
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "diagnostic " << i;
    EXPECT_EQ(got[i].severity, want[i].severity) << "diagnostic " << i;
    EXPECT_EQ(got[i].line, want[i].line) << "diagnostic " << i;
    EXPECT_EQ(got[i].message, want[i].message) << "diagnostic " << i;
    EXPECT_EQ(got[i].paper_ref, want[i].paper_ref) << "diagnostic " << i;
  }
}

TEST(StructureOracle, ProfilesAndFtTransformsMatchTheReference) {
  for (const Input& in : profile_inputs())
    expect_same_structure_diagnostics(in);
}

TEST(StructureOracle, InjectMutantsMatchTheReference) {
  int diagnosed = 0;
  for (const Input& in : mutant_inputs()) {
    expect_same_structure_diagnostics(in);
    if (!reference::structure_diagnostics(in.spec, lib(), nullptr).empty())
      ++diagnosed;
  }
  EXPECT_GT(diagnosed, 0);  // the mutants do reach the structure checks
}

TEST(StructureOracle, CraftedGraphsMatchTheReference) {
  for (const Input& in : crafted_inputs()) {
    expect_same_structure_diagnostics(in);
    // Every crafted defect fires (the edgeless graph is clean).
    const auto want =
        reference::structure_diagnostics(in.spec, lib(), nullptr);
    EXPECT_EQ(want.empty(), in.name == "no edges") << in.name;
  }
}

}  // namespace
}  // namespace crusade
