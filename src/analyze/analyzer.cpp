#include "analyze/analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "reconfig/interface_synth.hpp"
#include "util/error.hpp"
#include "util/json_writer.hpp"

namespace crusade {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::Note:
      return "note";
    case Severity::Warning:
      return "warning";
    case Severity::Error:
      return "error";
  }
  return "?";
}

const std::vector<DiagnosticInfo>& diagnostic_catalog() {
  static const std::vector<DiagnosticInfo> catalog = {
      {"A000", Severity::Error, "parse-error", "§2.1"},
      {"A001", Severity::Error, "cycle", "§2.1"},
      {"A002", Severity::Error, "dangling-reference", "§2.1"},
      {"A003", Severity::Warning, "unreachable-task", "§2.1"},
      {"A004", Severity::Error, "invalid-timing", "§2.1"},
      {"A005", Severity::Warning, "deadline-exceeds-period", "§2.1"},
      {"A006", Severity::Error, "empty-graph", "§2.1"},
      {"A007", Severity::Note, "duplicate-edge", "§2.1"},
      {"A010", Severity::Warning, "utilization-bound", "§5"},
      {"A011", Severity::Error, "exec-exceeds-deadline", "§5"},
      {"A012", Severity::Error, "critical-path-bound", "§5"},
      {"A020", Severity::Warning, "dominated-pe", "§2.2"},
      {"A021", Severity::Warning, "dominated-link", "§2.2"},
      {"A022", Severity::Error, "task-no-pe", "§2.2"},
      {"A030", Severity::Warning, "compat-contradiction", "§4.1"},
      {"A031", Severity::Warning, "boot-exceeds-slack", "§4.3/§4.4"},
      {"A040", Severity::Error, "invalid-unavailability", "§6"},
  };
  return catalog;
}

bool AnalysisReport::has_errors() const { return count(Severity::Error) > 0; }

bool AnalysisReport::has_warnings() const {
  return count(Severity::Warning) > 0;
}

int AnalysisReport::count(Severity severity) const {
  int n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == severity) ++n;
  return n;
}

int AnalysisReport::count_id(const std::string& id) const {
  int n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.id == id) ++n;
  return n;
}

int AnalysisReport::dominated_pe_count() const {
  return static_cast<int>(
      std::count(dominated_pes.begin(), dominated_pes.end(), char{1}));
}

int AnalysisReport::dominated_link_count() const {
  return static_cast<int>(
      std::count(dominated_links.begin(), dominated_links.end(), char{1}));
}

std::string AnalysisReport::summary(const std::string& prefix) const {
  std::ostringstream out;
  for (const Diagnostic& d : diagnostics) {
    out << prefix;
    if (d.line > 0) out << "line " << d.line << ": ";
    out << to_string(d.severity) << ": [" << d.id << "] " << d.message;
    if (!d.paper_ref.empty()) out << " (" << d.paper_ref << ")";
    out << "\n";
  }
  return out.str();
}

std::string AnalysisReport::to_json() const {
  tools::JsonWriter w;
  w.begin_object()
      .key("errors").value(count(Severity::Error))
      .key("warnings").value(count(Severity::Warning))
      .key("notes").value(count(Severity::Note))
      .key("diagnostics").begin_array();
  for (const Diagnostic& d : diagnostics) {
    w.begin_object()
        .key("id").value(d.id)
        .key("severity").value(to_string(d.severity))
        .key("line").value(d.line)
        .key("message").value(d.message)
        .key("paper_ref").value(d.paper_ref)
        .end_object();
  }
  w.end_array().key("dominated_pe_types").begin_array();
  for (std::size_t i = 0; i < dominated_pes.size(); ++i)
    if (dominated_pes[i]) w.value(static_cast<unsigned long long>(i));
  w.end_array().key("dominated_link_types").begin_array();
  for (std::size_t i = 0; i < dominated_links.size(); ++i)
    if (dominated_links[i]) w.value(static_cast<unsigned long long>(i));
  w.end_array().end_object();
  return w.str();
}

Diagnostic parse_error_diagnostic(const Error& err) {
  Diagnostic d;
  d.id = "A000";
  d.severity = Severity::Error;
  d.paper_ref = "§2.1";
  d.message = err.what();
  const std::string msg = err.what();
  const std::string tag = "spec line ";
  if (msg.rfind(tag, 0) == 0) {
    std::size_t pos = tag.size();
    int line = 0;
    while (pos < msg.size() && msg[pos] >= '0' && msg[pos] <= '9')
      line = line * 10 + (msg[pos++] - '0');
    d.line = line;
  }
  return d;
}

namespace {

/// Everything the per-graph passes learn and the cross-graph passes reuse.
struct GraphFacts {
  bool structure_ok = true;   ///< arity/index damage: skip deeper checks
  bool bounds_ok = false;     ///< min-exec/path bounds below are usable
  std::vector<TimeNs> min_exec;   ///< per task, fastest feasible PE
  std::vector<TimeNs> path_lb;    ///< per task, critical-path lower bound
  TimeNs critical_path = 0;       ///< max over tasks of path_lb
  bool any_programmable = false;  ///< some task runs on an FPGA/CPLD type
};

class Analyzer {
 public:
  Analyzer(const Specification& spec, const ResourceLibrary& lib,
           const AnalyzeOptions& options)
      : spec_(spec), lib_(lib), opt_(options) {}

  AnalysisReport run() {
    facts_.resize(spec_.graphs.size());
    // The structure pass always runs — it establishes structure_ok, which
    // every later pass relies on to avoid tripping over damaged graphs —
    // but its diagnostics are dropped when the caller disabled them.
    for (int g = 0; g < graph_count(); ++g) check_structure(g);
    if (!opt_.structure) report_.diagnostics.clear();
    check_dependability();
    for (int g = 0; g < graph_count(); ++g) compute_bounds(g);
    if (opt_.bounds)
      for (int g = 0; g < graph_count(); ++g) check_bounds(g);
    if (opt_.resources) check_resources();
    if (opt_.reconfig) check_reconfig();
    // Library findings (no source anchor) read better after the anchored
    // ones; within each class keep emission order.
    std::stable_sort(report_.diagnostics.begin(), report_.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return (a.line == 0 ? 1 : 0) < (b.line == 0 ? 1 : 0);
                     });
    return std::move(report_);
  }

 private:
  int graph_count() const { return static_cast<int>(spec_.graphs.size()); }

  void emit(const char* id, Severity severity, int line, std::string message,
            const char* paper_ref) {
    report_.diagnostics.push_back(
        Diagnostic{id, severity, line, std::move(message), paper_ref});
  }

  int graph_line(int g) const {
    return opt_.source ? opt_.source->line_of_graph(g) : 0;
  }
  int task_line(int g, int t) const {
    return opt_.source ? opt_.source->line_of_task(g, t) : 0;
  }
  int edge_line(int g, int e) const {
    return opt_.source ? opt_.source->line_of_edge(g, e) : 0;
  }

  bool edge_valid(const TaskGraph& graph, const Edge& e) const {
    return e.src >= 0 && e.src < graph.task_count() && e.dst >= 0 &&
           e.dst < graph.task_count() && e.src != e.dst;
  }

  bool task_arity_ok(const Task& t) const {
    if (static_cast<int>(t.exec.size()) != lib_.pe_count()) return false;
    return t.preference.empty() ||
           static_cast<int>(t.preference.size()) == lib_.pe_count();
  }

  // --- A001-A007: task-graph structure --------------------------------
  void check_structure(int g) {
    const TaskGraph& graph = spec_.graphs[g];
    GraphFacts& facts = facts_[g];
    if (graph.task_count() == 0) {
      emit("A006", Severity::Error, graph_line(g),
           "graph '" + graph.name() + "' has no tasks", "§2.1");
      facts.structure_ok = false;
      return;
    }
    if (graph.period() <= 0) {
      emit("A004", Severity::Error, graph_line(g),
           "graph '" + graph.name() + "' has non-positive period " +
               format_time(graph.period()),
           "§2.1");
      facts.structure_ok = false;
    }
    if (graph.est() < 0) {
      emit("A004", Severity::Error, graph_line(g),
           "graph '" + graph.name() + "' has negative earliest start time",
           "§2.1");
      facts.structure_ok = false;
    }

    for (int t = 0; t < graph.task_count(); ++t) {
      const Task& task = graph.task(t);
      if (!task_arity_ok(task)) {
        emit("A022", Severity::Error, task_line(g, t),
             "task '" + task.name + "' execution/preference vector arity " +
                 std::to_string(task.exec.size()) + " != PE library size " +
                 std::to_string(lib_.pe_count()),
             "§2.2");
        facts.structure_ok = false;
        continue;
      }
      for (PeTypeId pe = 0; pe < lib_.pe_count(); ++pe)
        if (task.exec[pe] != kNoTime && task.exec[pe] <= 0)
          emit("A004", Severity::Error, task_line(g, t),
               "task '" + task.name + "' has non-positive execution time on '" +
                   lib_.pe(pe).name + "'",
               "§2.1");
      if (task.deadline != kNoTime && task.deadline <= 0)
        emit("A004", Severity::Error, task_line(g, t),
             "task '" + task.name + "' has non-positive deadline " +
                 format_time(task.deadline),
             "§2.1");
      else if (task.deadline != kNoTime && graph.period() > 0 &&
               task.deadline > graph.period())
        emit("A005", Severity::Warning, task_line(g, t),
             "task '" + task.name + "' deadline " +
                 format_time(task.deadline) + " exceeds the graph period " +
                 format_time(graph.period()) +
                 " — this pipelines frame copies; declare it intentionally",
             "§2.1");
      for (const int other : task.exclusions)
        if (other < 0 || other >= graph.task_count()) {
          emit("A002", Severity::Error, task_line(g, t),
               "task '" + task.name + "' excludes unknown task index " +
                   std::to_string(other),
               "§2.1");
          facts.structure_ok = false;
        }
    }

    // Edge endpoint sanity, then duplicates over the valid edges.
    std::map<std::pair<int, int>, int> seen;
    int valid_edges = 0;
    for (int e = 0; e < graph.edge_count(); ++e) {
      const Edge& edge = graph.edge(e);
      if (!edge_valid(graph, edge)) {
        emit("A002", Severity::Error, edge_line(g, e),
             "edge " + std::to_string(e) + " of graph '" + graph.name() +
                 "' has a dangling or self-loop endpoint (" +
                 std::to_string(edge.src) + " -> " + std::to_string(edge.dst) +
                 ")",
             "§2.1");
        facts.structure_ok = false;
        continue;
      }
      ++valid_edges;
      const auto [it, inserted] = seen.insert({{edge.src, edge.dst}, e});
      if (!inserted)
        emit("A007", Severity::Note, edge_line(g, e),
             "duplicate edge " + graph.task(edge.src).name + " -> " +
                 graph.task(edge.dst).name + " of graph '" + graph.name() +
                 "' (parallel transfer; legal but often a spec mistake)",
             "§2.1");
    }

    // Cycle detection over the valid edges only (Kahn).
    std::vector<int> indegree(graph.task_count(), 0);
    for (const Edge& edge : graph.edges())
      if (edge_valid(graph, edge)) ++indegree[edge.dst];
    std::vector<int> ready;
    for (int t = 0; t < graph.task_count(); ++t)
      if (indegree[t] == 0) ready.push_back(t);
    std::size_t done = 0;
    while (done < ready.size()) {
      const int t = ready[done++];
      for (const Edge& edge : graph.edges())
        if (edge_valid(graph, edge) && edge.src == t)
          if (--indegree[edge.dst] == 0) ready.push_back(edge.dst);
    }
    if (static_cast<int>(ready.size()) != graph.task_count()) {
      std::string members;
      int listed = 0;
      for (int t = 0; t < graph.task_count() && listed < 3; ++t)
        if (indegree[t] > 0) {
          members += (listed ? ", " : "") + graph.task(t).name;
          ++listed;
        }
      emit("A001", Severity::Error, graph_line(g),
           "graph '" + graph.name() + "' contains a cycle through " + members,
           "§2.1");
      facts.structure_ok = false;
    }

    // Unreachable/isolated tasks: only meaningful once the graph has
    // dataflow at all (an edgeless graph is a set of independent tasks).
    if (valid_edges > 0)
      for (int t = 0; t < graph.task_count(); ++t) {
        bool touched = false;
        for (const Edge& edge : graph.edges())
          if (edge_valid(graph, edge) && (edge.src == t || edge.dst == t))
            touched = true;
        if (!touched)
          emit("A003", Severity::Warning, task_line(g, t),
               "task '" + graph.task(t).name +
                   "' is disconnected from the dataflow of graph '" +
                   graph.name() + "'",
               "§2.1");
      }
  }

  // --- A040: fault-tolerance inputs ------------------------------------
  // A malformed unavailability requirement would otherwise surface only
  // deep inside the CRUSADE-FT Markov solver (or, worse, as a NaN compared
  // against a NaN, silently "meeting" the requirement).  The same rule as
  // Specification::validate, phrased so NaN fails it.
  void check_dependability() {
    const auto& req = spec_.unavailability_requirement;
    if (req.empty()) return;
    if (req.size() != spec_.graphs.size()) {
      emit("A040", Severity::Error, 0,
           "unavailability requirement count " + std::to_string(req.size()) +
               " != graph count " + std::to_string(spec_.graphs.size()),
           "§6");
      return;
    }
    for (std::size_t g = 0; g < req.size(); ++g)
      if (!(req[g] >= 0 && req[g] <= 1))
        emit("A040", Severity::Error, graph_line(static_cast<int>(g)),
             "graph '" + spec_.graphs[g].name() +
                 "' unavailability requirement is outside [0,1]",
             "§6");
  }

  /// Cheapest possible communication for an edge: free on a shared PE,
  /// unless the endpoints are mutually excluded — then the transfer must
  /// cross PEs and costs at least the fastest 2-port link's time.
  TimeNs comm_lower_bound(const TaskGraph& graph, const Edge& edge) const {
    const auto& excl = graph.task(edge.src).exclusions;
    if (std::find(excl.begin(), excl.end(), edge.dst) == excl.end()) return 0;
    const std::int64_t bytes = std::max<std::int64_t>(0, edge.bytes);
    TimeNs best = kNoTime;
    for (LinkTypeId lt = 0; lt < lib_.link_count(); ++lt) {
      const TimeNs c = lib_.link(lt).comm_time(bytes, 2);
      if (best == kNoTime || c < best) best = c;
    }
    return best == kNoTime ? 0 : best;
  }

  // --- shared lower bounds (min exec, critical path) -------------------
  void compute_bounds(int g) {
    const TaskGraph& graph = spec_.graphs[g];
    GraphFacts& facts = facts_[g];
    if (!facts.structure_ok || graph.task_count() == 0) return;

    facts.min_exec.assign(graph.task_count(), kNoTime);
    bool all_feasible = true;
    for (int t = 0; t < graph.task_count(); ++t) {
      const Task& task = graph.task(t);
      for (PeTypeId pe = 0; pe < lib_.pe_count(); ++pe) {
        if (!task.feasible_on(pe)) continue;
        if (facts.min_exec[t] == kNoTime || task.exec[pe] < facts.min_exec[t])
          facts.min_exec[t] = task.exec[pe];
        if (lib_.pe(pe).is_programmable()) facts.any_programmable = true;
      }
      if (facts.min_exec[t] == kNoTime) all_feasible = false;  // A022 below
    }
    if (!all_feasible) return;  // path bounds moot without every task's floor

    // Longest path in minimum-execution + forced-communication terms.
    // structure_ok guarantees acyclicity, so topo_order cannot throw.
    facts.path_lb.assign(graph.task_count(), 0);
    for (const int t : graph.topo_order()) {
      TimeNs arrive = 0;
      for (const int e : graph.in_edges().at(t)) {
        const Edge& edge = graph.edge(e);
        arrive = std::max(arrive, facts.path_lb[edge.src] +
                                      comm_lower_bound(graph, edge));
      }
      facts.path_lb[t] = arrive + facts.min_exec[t];
      facts.critical_path = std::max(facts.critical_path, facts.path_lb[t]);
    }
    facts.bounds_ok = true;
  }

  // --- A010-A012, A022: necessary schedulability conditions ------------
  void check_bounds(int g) {
    const TaskGraph& graph = spec_.graphs[g];
    const GraphFacts& facts = facts_[g];
    if (!facts.structure_ok || graph.task_count() == 0) return;

    for (int t = 0; t < graph.task_count(); ++t)
      if (t < static_cast<int>(facts.min_exec.size()) &&
          facts.min_exec[t] == kNoTime)
        emit("A022", Severity::Error, task_line(g, t),
             "task '" + graph.task(t).name +
                 "' is executable on no PE type in the library",
             "§2.2");
    if (!facts.bounds_ok) return;

    double utilization = 0;
    for (int t = 0; t < graph.task_count(); ++t) {
      utilization += static_cast<double>(facts.min_exec[t]) /
                     static_cast<double>(graph.period());
      const TimeNs deadline = graph.effective_deadline(t);
      if (deadline == kNoTime) continue;
      if (facts.min_exec[t] > deadline)
        emit("A011", Severity::Error, task_line(g, t),
             "task '" + graph.task(t).name + "' minimum execution time " +
                 format_time(facts.min_exec[t]) +
                 " exceeds its deadline " + format_time(deadline) +
                 " on every PE in the library",
             "§5");
      else if (facts.path_lb[t] > deadline && facts.path_lb[t] >
                                                  facts.min_exec[t])
        emit("A012", Severity::Error, task_line(g, t),
             "critical path to task '" + graph.task(t).name +
                 "' needs at least " + format_time(facts.path_lb[t]) +
                 " (fastest execution + forced communication) but the "
                 "deadline is " +
                 format_time(deadline),
             "§5");
    }
    if (utilization > 1.0 + 1e-9) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "graph '%s' utilization lower bound %.2f on the fastest "
                    "PEs: at least %d PE instances are required",
                    graph.name().c_str(), utilization,
                    static_cast<int>(std::ceil(utilization - 1e-9)));
      emit("A010", Severity::Warning, graph_line(g), buf, "§5");
    }
  }

  // --- A020-A021: dominated library entries ----------------------------
  bool pe_dominates(PeTypeId b, PeTypeId a) const {
    const PeType& pa = lib_.pe(a);
    const PeType& pb = lib_.pe(b);
    if (pa.kind != pb.kind) return false;
    if (pb.cost > pa.cost || pb.memory_cost_per_mb > pa.memory_cost_per_mb)
      return false;
    if (pb.memory_bytes < pa.memory_bytes || pb.gates < pa.gates ||
        pb.pfus < pa.pfus || pb.pins < pa.pins)
      return false;
    if (pb.context_switch > pa.context_switch ||
        pb.preemption_overhead > pa.preemption_overhead)
      return false;
    if (pb.config_bits > pa.config_bits ||
        pb.boot_memory_bytes > pa.boot_memory_bytes ||
        pb.boot_setup > pa.boot_setup)
      return false;
    if (pa.partial_reconfig && !pb.partial_reconfig) return false;
    if (pb.power_mw > pa.power_mw || pb.fit_rate > pa.fit_rate) return false;

    bool strict = pb.cost < pa.cost || pb.power_mw < pa.power_mw ||
                  pb.memory_bytes > pa.memory_bytes || pb.gates > pa.gates ||
                  pb.pfus > pa.pfus || pb.pins > pa.pins;
    for (int g = 0; g < graph_count(); ++g) {
      const TaskGraph& graph = spec_.graphs[g];
      for (const Task& task : graph.tasks()) {
        if (!task_arity_ok(task)) return false;
        if (!task.feasible_on(a)) continue;
        if (!task.feasible_on(b) || task.exec[b] > task.exec[a]) return false;
        const double pref_a = task.preference.empty() ? 0 : task.preference[a];
        const double pref_b = task.preference.empty() ? 0 : task.preference[b];
        if (pref_b < pref_a) return false;
        if (task.exec[b] < task.exec[a]) strict = true;
      }
    }
    // Exact ties (duplicate entries): keep the lower-indexed one.
    return strict || b < a;
  }

  bool link_dominates(LinkTypeId b, LinkTypeId a,
                      const std::vector<std::int64_t>& payloads) const {
    const LinkType& la = lib_.link(a);
    const LinkType& lb = lib_.link(b);
    if (lb.cost > la.cost || lb.cost_per_port > la.cost_per_port) return false;
    if (lb.max_ports < la.max_ports) return false;
    if (lb.fit_rate > la.fit_rate) return false;
    bool strict = lb.cost < la.cost || lb.cost_per_port < la.cost_per_port ||
                  lb.max_ports > la.max_ports;
    const int port_cap = std::min(std::max(2, la.max_ports), 16);
    for (const std::int64_t bytes : payloads)
      for (int ports = 2; ports <= port_cap; ++ports) {
        const TimeNs ca = la.comm_time(bytes, ports);
        const TimeNs cb = lb.comm_time(bytes, ports);
        if (cb > ca) return false;
        if (cb < ca) strict = true;
      }
    return strict || b < a;
  }

  void check_resources() {
    report_.dominated_pes.assign(lib_.pe_count(), 0);
    report_.dominated_links.assign(lib_.link_count(), 0);

    for (PeTypeId a = 0; a < lib_.pe_count(); ++a)
      for (PeTypeId b = 0; b < lib_.pe_count(); ++b) {
        if (a == b || report_.dominated_pes[a]) continue;
        // Never prune relative to an entry already pruned itself: domination
        // is transitive, so the surviving dominator covers both.
        if (report_.dominated_pes[b]) continue;
        if (!pe_dominates(b, a)) continue;
        report_.dominated_pes[a] = 1;
        emit("A020", Severity::Warning, 0,
             "PE type '" + lib_.pe(a).name + "' is dominated by '" +
                 lib_.pe(b).name +
                 "' on every axis (cost, execution times, capacity, power) "
                 "for this specification; preflight prunes it from the "
                 "allocation array",
             "§2.2");
      }

    std::set<std::int64_t> distinct;
    for (const TaskGraph& graph : spec_.graphs)
      for (const Edge& edge : graph.edges())
        if (edge.bytes >= 0) distinct.insert(edge.bytes);
    if (distinct.empty()) distinct.insert(0);
    // Bound the domination probe for pathological edge diversity.
    std::vector<std::int64_t> payloads;
    for (const std::int64_t bytes : distinct) {
      payloads.push_back(bytes);
      if (payloads.size() >= 64) break;
    }

    for (LinkTypeId a = 0; a < lib_.link_count(); ++a)
      for (LinkTypeId b = 0; b < lib_.link_count(); ++b) {
        if (a == b || report_.dominated_links[a]) continue;
        if (report_.dominated_links[b]) continue;
        if (!link_dominates(b, a, payloads)) continue;
        report_.dominated_links[a] = 1;
        emit("A021", Severity::Warning, 0,
             "link type '" + lib_.link(a).name + "' is dominated by '" +
                 lib_.link(b).name +
                 "' on cost, ports and communication time for every payload "
                 "in this specification; preflight prunes it",
             "§2.2");
      }
  }

  // --- A030-A031: reconfiguration checks -------------------------------
  /// Absolute fastest reconfiguration any mode of `type` could achieve:
  /// smallest possible image over the fastest interface the paper admits
  /// (8-bit slave at 10 MHz, unchained; §4.4).
  TimeNs fastest_boot(const PeType& type) const {
    return mode_boot_time(type, 1,
                          InterfaceOption{ProgStyle::Parallel8Slave, 10.0,
                                          false},
                          1);
  }

  void check_reconfig() {
    if (spec_.compatibility &&
        spec_.compatibility->graph_count() != graph_count()) {
      emit("A030", Severity::Error, 0,
           "compatibility matrix arity " +
               std::to_string(spec_.compatibility->graph_count()) +
               " != graph count " + std::to_string(graph_count()),
           "§4.1");
      return;
    }

    TimeNs min_boot = kNoTime;
    std::string min_boot_pe;
    for (PeTypeId pe = 0; pe < lib_.pe_count(); ++pe) {
      if (!lib_.pe(pe).is_programmable()) continue;
      const TimeNs boot = fastest_boot(lib_.pe(pe));
      if (min_boot == kNoTime || boot < min_boot) {
        min_boot = boot;
        min_boot_pe = lib_.pe(pe).name;
      }
    }

    bool declared_pairs = false;
    if (spec_.compatibility) {
      for (int i = 0; i < graph_count(); ++i)
        for (int j = i + 1; j < graph_count(); ++j) {
          if (!spec_.compatibility->compatible(i, j)) continue;
          declared_pairs = true;
          const GraphFacts& fi = facts_[i];
          const GraphFacts& fj = facts_[j];
          if (!fi.bounds_ok || !fj.bounds_ok) continue;
          const double density =
              static_cast<double>(fi.critical_path) /
                  static_cast<double>(spec_.graphs[i].period()) +
              static_cast<double>(fj.critical_path) /
                  static_cast<double>(spec_.graphs[j].period());
          if (density > 1.0 + 1e-9) {
            char buf[224];
            std::snprintf(
                buf, sizeof buf,
                "graphs '%s' and '%s' are declared compatible "
                "(executions never overlap) but their combined "
                "critical-path density is %.2f > 1 — the declaration "
                "contradicts itself",
                spec_.graphs[i].name().c_str(),
                spec_.graphs[j].name().c_str(), density);
            const int line =
                opt_.source ? opt_.source->line_of_compat(i, j) : 0;
            emit("A030", Severity::Warning, line, buf, "§4.1");
          }
        }
    }

    if (min_boot == kNoTime) return;  // no programmable PE in the library

    if (declared_pairs && min_boot > spec_.boot_time_requirement) {
      const int line =
          opt_.source ? opt_.source->boot_requirement_line : 0;
      emit("A031", Severity::Warning, line,
           "boot-time requirement " +
               format_time(spec_.boot_time_requirement) +
               " is below the fastest possible reconfiguration (" +
               format_time(min_boot) + " on '" + min_boot_pe +
               "'): no mode switch can ever meet it",
           "§4.3/§4.4");
    }

    if (!declared_pairs) {
      // Derived-compatibility operation charges reboots to the frame
      // schedule (Figure 3): a graph whose slack cannot absorb even the
      // fastest reconfiguration will never benefit from mode merging.
      for (int g = 0; g < graph_count(); ++g) {
        const GraphFacts& facts = facts_[g];
        if (!facts.bounds_ok || !facts.any_programmable) continue;
        const TaskGraph& graph = spec_.graphs[g];
        TimeNs slack = kNoTime;
        for (int t = 0; t < graph.task_count(); ++t) {
          const TimeNs deadline = graph.effective_deadline(t);
          if (deadline == kNoTime) continue;
          const TimeNs s = deadline - facts.path_lb[t];
          if (slack == kNoTime || s < slack) slack = s;
        }
        if (slack != kNoTime && slack >= 0 && min_boot > slack)
          emit("A031", Severity::Note, graph_line(g),
               "graph '" + graph.name() + "' slack " + format_time(slack) +
                   " cannot absorb even the fastest reconfiguration (" +
                   format_time(min_boot) + " on '" + min_boot_pe +
                   "'): modes hosting it can never reboot within the frame "
                   "schedule",
               "§4.3/§4.4");
      }
    }
  }

  const Specification& spec_;
  const ResourceLibrary& lib_;
  const AnalyzeOptions& opt_;
  std::vector<GraphFacts> facts_;
  AnalysisReport report_;
};

}  // namespace

AnalysisReport analyze_specification(const Specification& spec,
                                     const ResourceLibrary& lib,
                                     const AnalyzeOptions& options) {
  return Analyzer(spec, lib, options).run();
}

}  // namespace crusade
