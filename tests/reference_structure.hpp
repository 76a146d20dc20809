// Test-only reference for the analyzer's task-graph structure pass
// (A001-A007 with the A004/A005/A022 task checks it makes on the way), as it
// ran before it built a valid-edge adjacency: Kahn scanned every edge once
// per ready task, the isolation check once per task, and duplicates went
// through a std::map.  Kept as the oracle for analyze_specification.
#pragma once

#include <vector>

#include "analyze/analyzer.hpp"

namespace crusade::reference {

/// The old structure pass over every graph, diagnostics in emission order
/// (before analyze_specification's anchored-first stable sort).  `source`
/// may be null.
std::vector<Diagnostic> structure_diagnostics(const Specification& spec,
                                              const ResourceLibrary& lib,
                                              const SpecSourceMap* source);

}  // namespace crusade::reference
