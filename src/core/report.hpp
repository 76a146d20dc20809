// Human-readable architecture and result reporting used by examples and
// bench harnesses.
#pragma once

#include <string>

#include "core/crusade.hpp"

namespace crusade {

/// Multi-line summary: PE histogram by kind/type, modes, links, cost
/// breakdown, schedule verdict and synthesis time.
std::string describe_result(const CrusadeResult& result);

/// One-line verdict for logs/tests.
std::string one_line_verdict(const CrusadeResult& result);

/// FNV-1a of the architecture's canonical serialization as 16 hex digits:
/// equal iff the serialized bytes are identical.
std::string arch_fingerprint(const Architecture& arch);

/// Deterministic fingerprint (16 hex digits) of everything a run's outcome
/// promises: architecture bytes, feasibility, cost, the deterministic
/// search counters and the validator's verdict.  Two runs of the same
/// search, interrupted and resumed or not, served from a cache or not,
/// produce equal signatures (`crusade soak`, the serve tests).
std::string result_signature(const CrusadeResult& result);

/// Textual Gantt-style dump of the frame schedule: one section per live
/// resource listing its periodic busy windows ([start, finish) @ period and
/// the owning task/edge/reboot), capped at `max_rows` windows total.
std::string dump_schedule(const CrusadeResult& result, const FlatSpec& flat,
                          int max_rows = 200);

}  // namespace crusade
