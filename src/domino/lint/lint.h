// domino-lint: whole-config semantic analysis for the causal-graph DSL.
//
// LintConfigText runs the full pipeline over a config file:
//   1. multi-error parse (ParseConfigChecked, which itself folds in the
//      expression front-end's syntax/type/range/unit diagnostics),
//   2. chain-node resolution against built-ins, custom events, and the base
//      graph, with did-you-mean suggestions (DL208/DL209), and `@rev` on a
//      built-in that ignores the leg (DL214),
//   3. config-level structure checks: duplicate chains, unused events,
//       2-node chains, role conflicts with the base graph (DL210-DL212,
//      DL302),
//   4. semantic verification (verify.h): the DL401-DL407 abstract
//      interpretation pass over the declared telemetry schema,
//   5. graph-level checks on the extended graph when nothing above errored:
//      cycles with the offending path (DL301) and dead nodes that sit on no
//      cause -> consequence chain (DL303), with source spans threaded in
//      from the chain declarations (GraphSpans).
//
// See DESIGN.md §7 and §12 for the full diagnostic catalog.
#pragma once

#include <map>
#include <string>
#include <utility>

#include "domino/config_parser.h"
#include "domino/graph.h"
#include "domino/lint/diagnostics.h"
#include "domino/lint/verify.h"

namespace domino::analysis::lint {

struct LintOptions {
  /// Graph the config extends. Null: the paper's default graph when
  /// `use_default_graph`, else an empty graph (stand-alone config).
  const CausalGraph* base_graph = nullptr;
  bool use_default_graph = true;
  bool check_graph = true;  ///< Run the DL301/DL303 graph pass.
  bool verify = true;       ///< Run the DL401-DL407 verification pass.
  VerifyOptions verify_options;
  EventThresholds thresholds;
};

struct LintResult {
  DominoConfigFile config;  ///< Whatever parsed cleanly (best effort).
  DiagnosticSink sink;      ///< All diagnostics, sorted by position.
};

LintResult LintConfigText(const std::string& text,
                          const LintOptions& opts = {});

/// Source locations for graph entities, collected from the chain
/// declarations that created them. Lets the graph pass attach real spans
/// to DL301/DL302/DL303 instead of location-free diagnostics.
struct GraphSpans {
  /// Node name -> span of its first appearance in a chain.
  std::map<std::string, SourceSpan> nodes;
  /// (from, to) node names -> name_span of the declaring chain.
  std::map<std::pair<std::string, std::string>, SourceSpan> edges;
};

/// Structural checks on an already-built graph: DL301 cycle (with path),
/// DL302 node-kind conflicts, DL303 dead nodes. With `spans`, DL301 points
/// at the last chain contributing a cycle edge, DL302/DL303 at the node's
/// declaration, and DL303 reports only span-mapped (config-declared)
/// nodes; without, spans are empty — a built graph has no source text.
/// `check_kinds` is off when the caller already reported role conflicts
/// with source spans.
void LintGraph(const CausalGraph& graph, DiagnosticSink& sink,
               bool check_kinds = true, const GraphSpans* spans = nullptr);

/// Promotes every warning to an error (strict mode).
void PromoteWarnings(DiagnosticSink& sink);

}  // namespace domino::analysis::lint
