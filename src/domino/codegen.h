// Python code generation (Fig. 11): Domino turns a parsed text configuration
// into a runnable, self-contained Python detector module.
//
// The generated module expects each window `w` as a dict mapping
// "scope.series" names (see expr.h) to lists of floats, "scope.series@t"
// to the sample times (integer microseconds since the window start; read
// by argmin/argmax and time-bucketed functions), "fwd.is_uplink" /
// "rev.is_uplink" to booleans and "has_gnb_log" to a boolean. It exposes:
//   DETECTORS      — {node name: detector function}
//   CHAINS         — [(chain name, [node names...]), ...]
//   detect_chain(w, nodes) / analyze(windows)
#pragma once

#include <string>

#include "domino/config_parser.h"

namespace domino::analysis {

/// Generates the Python module for a parsed config. Built-in events
/// referenced by chains are emitted from their prelude entries (prelude.h)
/// exactly as custom events are, so the module runs without any C++
/// dependency.
std::string GeneratePython(const DominoConfigFile& cfg,
                           const EventThresholds& th = {});

}  // namespace domino::analysis
