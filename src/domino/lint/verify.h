// domino-verify: semantic verification of config DSL conditions against the
// declared telemetry schema (DESIGN.md §12). Runs after parsing, inside
// LintConfigText (on by default; `domino lint --no-verify` disables it).
//
// An abstract evaluator folds every event condition over the interval
// domain (interval.h) seeded with the schema's physical series ranges
// (schema.h), observing the DSL's empty-window semantics (aggregates
// default to 0), and emits the DL400-series diagnostics:
//
//   DL401 (error)   condition provably unsatisfiable over schema ranges
//   DL402 (warning) condition tautological — fires on every window
//   DL403 (warning) unit mismatch the parser cannot see (units propagated
//                   through * and / arithmetic)
//   DL404 (warning) a comparison decided by a series' physical range
//                   (threshold can never / always be crossed)
//   DL405 (warning) chain shadowed by an earlier chain: same shape, and
//                   every differing condition implies its counterpart
//   DL406 (error/warning) declared `requires` streams unknown / disagree
//                   with the streams the condition actually reads
//   DL407 (warning) analysis window too narrow to ever satisfy a
//                   min-samples constraint at the stream's native cadence
//
// Soundness rule: a diagnostic fires only when the interval semantics force
// it for *every* window, so real telemetry can never trip a false positive.
#pragma once

#include "domino/config_parser.h"
#include "domino/lint/diagnostics.h"

namespace domino::analysis::lint {

struct VerifyOptions {
  /// Analysis window the DL407 sample budgets are computed for. Matches
  /// DominoConfig::window's default; `domino lint --window` overrides.
  double window_ms = 5000.0;
};

/// Runs DL401-DL407 over a parsed config and appends into `sink` (the
/// caller sorts). Events whose expressions failed to parse are skipped;
/// DL401/DL402 are suppressed on lines where the expression front-end
/// already folded the comparison (DL108/DL109) so nothing reports twice.
void VerifyConfig(const DominoConfigFile& cfg, DiagnosticSink& sink,
                  const VerifyOptions& opts = {});

}  // namespace domino::analysis::lint
