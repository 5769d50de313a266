#include "domino/lint/lint.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "domino/events.h"
#include "domino/lint/suggest.h"

namespace domino::analysis::lint {

namespace {

std::string FormatPath(const CausalGraph& g, const std::vector<int>& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += " -> ";
    out += g.node(path[i]).name;
  }
  return out;
}

const char* KindName(NodeKind k) {
  switch (k) {
    case NodeKind::kCause: return "cause";
    case NodeKind::kIntermediate: return "intermediate";
    case NodeKind::kConsequence: return "consequence";
  }
  return "node";
}

/// Role conflicts between a chain position and an already-established node
/// kind (DL302): an established cause gaining a predecessor, or a chain
/// continuing past an established consequence (EnumerateChains stops at the
/// first consequence, silently truncating the chain).
void CheckChainRoles(const ConfigChainDef& chain,
                     std::map<std::string, NodeKind>& roles,
                     DiagnosticSink& sink) {
  for (std::size_t i = 0; i < chain.nodes.size(); ++i) {
    const std::string& node = chain.nodes[i];
    SourceSpan span = i < chain.node_spans.size() ? chain.node_spans[i]
                                                  : chain.name_span;
    NodeKind pos_kind = i == 0 ? NodeKind::kCause
                       : i + 1 == chain.nodes.size()
                           ? NodeKind::kConsequence
                           : NodeKind::kIntermediate;
    auto it = roles.find(node);
    if (it == roles.end()) {
      roles.emplace(node, pos_kind);
      continue;
    }
    if (it->second == NodeKind::kCause && i > 0) {
      sink.Warning("DL302", span,
                   "'" + node + "' is already a cause, but chain '" +
                       chain.name + "' gives it a predecessor");
    } else if (it->second == NodeKind::kConsequence &&
               i + 1 < chain.nodes.size()) {
      sink.Warning("DL302", span,
                   "'" + node + "' is already a consequence, but chain '" +
                       chain.name +
                       "' continues past it; chain enumeration stops at "
                       "the first consequence");
    }
  }
}

}  // namespace

void PromoteWarnings(DiagnosticSink& sink) {
  DiagnosticSink promoted;
  for (Diagnostic d : sink.diagnostics()) {
    if (d.severity == Severity::kWarning) d.severity = Severity::kError;
    promoted.Add(std::move(d));
  }
  sink = std::move(promoted);
}

namespace {

/// Span of a node's declaration, or an empty span without a map entry.
SourceSpan NodeDeclSpan(const GraphSpans* spans, const std::string& name) {
  if (spans != nullptr) {
    auto it = spans->nodes.find(name);
    if (it != spans->nodes.end()) return it->second;
  }
  return {};
}

}  // namespace

void LintGraph(const CausalGraph& graph, DiagnosticSink& sink,
               bool check_kinds, const GraphSpans* spans) {
  std::vector<int> cycle = graph.FindCycle();
  if (!cycle.empty()) {
    // Attribute the cycle to the last declaration contributing one of its
    // edges (the earlier chains were fine on their own).
    SourceSpan span{};
    if (spans != nullptr) {
      for (std::size_t i = 0; i + 1 < cycle.size(); ++i) {
        auto it = spans->edges.find(
            {graph.node(cycle[i]).name, graph.node(cycle[i + 1]).name});
        if (it == spans->edges.end()) continue;
        const SourceSpan& s = it->second;
        if (s.line > span.line ||
            (s.line == span.line && s.col > span.col)) {
          span = s;
        }
      }
    }
    sink.Error("DL301", span,
               "causal graph has a cycle: " + FormatPath(graph, cycle));
    return;  // chains (and thus dead nodes) are undefined under a cycle
  }
  if (check_kinds) {
    for (std::size_t u = 0; u < graph.node_count(); ++u) {
      const Node& from = graph.node(static_cast<int>(u));
      for (int v : graph.adjacency()[u]) {
        const Node& to = graph.node(v);
        if (to.kind == NodeKind::kCause) {
          sink.Warning("DL302", NodeDeclSpan(spans, to.name),
                       "'" + to.name + "' is a " + KindName(to.kind) +
                           " but has an incoming edge from '" + from.name +
                           "'");
        }
        if (from.kind == NodeKind::kConsequence) {
          sink.Warning("DL302", NodeDeclSpan(spans, from.name),
                       "'" + from.name + "' is a " + KindName(from.kind) +
                           " but has an outgoing edge to '" + to.name +
                           "'; chain enumeration stops at the first "
                           "consequence");
        }
      }
    }
  }
  std::vector<char> on_chain(graph.node_count(), 0);
  for (const auto& chain : graph.EnumerateChains()) {
    for (int n : chain) on_chain[static_cast<std::size_t>(n)] = 1;
  }
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    if (on_chain[i]) continue;
    const std::string& name = graph.node(static_cast<int>(i)).name;
    // With declaration spans, report only declared nodes: dead base-graph
    // nodes are the base's problem, not this config's.
    if (spans != nullptr && !spans->nodes.count(name)) continue;
    sink.Warning("DL303", NodeDeclSpan(spans, name),
                 "node '" + name +
                     "' is dead: it sits on no cause -> consequence "
                     "chain");
  }
}

LintResult LintConfigText(const std::string& text, const LintOptions& opts) {
  LintResult res;
  res.config = ParseConfigChecked(text, res.sink);
  const DominoConfigFile& cfg = res.config;
  DiagnosticSink& sink = res.sink;

  CausalGraph base;
  if (opts.base_graph != nullptr) {
    base = *opts.base_graph;
  } else if (opts.use_default_graph) {
    base = CausalGraph::Default(opts.thresholds);
  }

  auto find_event = [&](const std::string& name) -> const ConfigEventDef* {
    for (const auto& e : cfg.events) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };

  // Candidates for did-you-mean on unknown chain nodes.
  std::vector<std::string> candidates = KnownEventNames();
  for (const auto& e : cfg.events) candidates.push_back(e.name);
  for (std::size_t i = 0; i < base.node_count(); ++i) {
    candidates.push_back(base.node(static_cast<int>(i)).name);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::map<std::string, NodeKind> roles;
  for (std::size_t i = 0; i < base.node_count(); ++i) {
    const Node& n = base.node(static_cast<int>(i));
    roles.emplace(n.name, n.kind);
  }

  std::set<std::string> used_events;
  std::map<std::string, int> chain_names;              // name -> first line
  std::map<std::vector<std::string>, std::string> sequences;

  for (const auto& chain : cfg.chains) {
    auto [name_it, fresh] = chain_names.emplace(chain.name, chain.line);
    if (!fresh) {
      sink.Warning("DL210", chain.name_span,
                   "duplicate chain name '" + chain.name +
                       "' (first defined on line " +
                       std::to_string(name_it->second) + ")");
    }
    if (!chain.nodes.empty()) {
      auto [seq_it, new_seq] = sequences.emplace(chain.nodes, chain.name);
      if (!new_seq && seq_it->second != chain.name) {
        sink.Warning("DL210", chain.name_span,
                     "chain '" + chain.name +
                         "' repeats the node sequence of chain '" +
                         seq_it->second + "'");
      }
    }
    if (chain.nodes.size() == 2 && chain.node_spans.size() == 2) {
      sink.Warning("DL212", chain.name_span,
                   "chain '" + chain.name +
                       "' has no intermediate nodes; the cause links "
                       "directly to the consequence");
    }

    for (std::size_t i = 0; i < chain.nodes.size(); ++i) {
      const std::string& node = chain.nodes[i];
      SourceSpan span = i < chain.node_spans.size() ? chain.node_spans[i]
                                                    : chain.name_span;
      auto [base_name, leg] = SplitNodeLeg(node);
      if (const ConfigEventDef* ev = find_event(base_name)) {
        used_events.insert(base_name);
        if (leg == PathLeg::kRev) {
          sink.Error("DL209", span,
                     "custom event '" + base_name +
                         "' cannot take @rev; scope the expression instead "
                         "(e.g. rev.owd_ms)",
                     base_name);
        }
        (void)ev;
      } else if (const auto type = EventTypeFromName(base_name)) {
        if (leg == PathLeg::kRev && !IsLegScoped(*type)) {
          sink.Warning("DL214", span,
                       "built-in '" + base_name +
                           "' names its series explicitly and ignores the "
                           "leg; '@rev' evaluates the same condition as '" +
                           base_name + "'",
                       base_name);
        }
      } else if (base.FindNode(node) < 0) {
        std::string hint = lint::DidYouMean(base_name, candidates);
        sink.Error("DL208", span,
                   "unknown chain node '" + node +
                       "' (not a built-in event, custom event, or graph "
                       "node)" +
                       lint::DidYouMeanSuffix(hint),
                   hint);
      }
    }
    CheckChainRoles(chain, roles, sink);
  }

  for (const auto& e : cfg.events) {
    if (!used_events.count(e.name)) {
      sink.Warning("DL211", e.name_span,
                   "event '" + e.name +
                       "' is defined but never used in a chain");
    }
  }

  if (opts.verify) {
    VerifyConfig(cfg, sink, opts.verify_options);
  }

  if (!sink.has_errors() && opts.check_graph && !cfg.chains.empty()) {
    CausalGraph g = base;
    ExtendGraphUnchecked(g, cfg, opts.thresholds);
    // Thread the chain declarations' source locations into the graph pass
    // so DL301/DL303 point at real config lines.
    GraphSpans spans;
    for (const auto& chain : cfg.chains) {
      for (std::size_t i = 0; i < chain.nodes.size(); ++i) {
        SourceSpan span = i < chain.node_spans.size() ? chain.node_spans[i]
                                                      : chain.name_span;
        spans.nodes.emplace(chain.nodes[i], span);
        if (i + 1 < chain.nodes.size()) {
          spans.edges[{chain.nodes[i], chain.nodes[i + 1]}] =
              chain.name_span;
        }
      }
    }
    LintGraph(g, sink, /*check_kinds=*/false, &spans);
  }

  sink.SortByPosition();
  return res;
}

}  // namespace domino::analysis::lint
