// The analyzer's structure pass as it was, with the Analyzer's helpers it
// read inlined and structure_ok dropped: the old code otherwise.
#include "reference_structure.hpp"

#include <map>

namespace crusade::reference {

namespace {

class OldStructurePass {
 public:
  OldStructurePass(const ResourceLibrary& lib, const SpecSourceMap* source)
      : lib_(lib), source_(source) {}

  std::vector<Diagnostic> diagnostics;

  void check_structure(const Specification& spec, int g) {
    const TaskGraph& graph = spec.graphs[g];
    if (graph.task_count() == 0) {
      emit("A006", Severity::Error, graph_line(g),
           "graph '" + graph.name() + "' has no tasks", "§2.1");
      return;
    }
    if (graph.period() <= 0) {
      emit("A004", Severity::Error, graph_line(g),
           "graph '" + graph.name() + "' has non-positive period " +
               format_time(graph.period()),
           "§2.1");
    }
    if (graph.est() < 0) {
      emit("A004", Severity::Error, graph_line(g),
           "graph '" + graph.name() + "' has negative earliest start time",
           "§2.1");
    }

    for (int t = 0; t < graph.task_count(); ++t) {
      const Task& task = graph.task(t);
      if (!task_arity_ok(task)) {
        emit("A022", Severity::Error, task_line(g, t),
             "task '" + task.name + "' execution/preference vector arity " +
                 std::to_string(task.exec.size()) + " != PE library size " +
                 std::to_string(lib_.pe_count()),
             "§2.2");
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

 private:
  void emit(const char* id, Severity severity, int line, std::string message,
            const char* paper_ref) {
    diagnostics.push_back(
        Diagnostic{id, severity, line, std::move(message), paper_ref});
  }
  int graph_line(int g) const {
    return source_ ? source_->line_of_graph(g) : 0;
  }
  int task_line(int g, int t) const {
    return source_ ? source_->line_of_task(g, t) : 0;
  }
  int edge_line(int g, int e) const {
    return source_ ? source_->line_of_edge(g, e) : 0;
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

  const ResourceLibrary& lib_;
  const SpecSourceMap* source_;
};

}  // namespace

std::vector<Diagnostic> structure_diagnostics(const Specification& spec,
                                              const ResourceLibrary& lib,
                                              const SpecSourceMap* source) {
  OldStructurePass pass(lib, source);
  for (int g = 0; g < static_cast<int>(spec.graphs.size()); ++g)
    pass.check_structure(spec, g);
  return std::move(pass.diagnostics);
}

}  // namespace crusade::reference
