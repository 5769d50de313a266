#include "domino/config_parser.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <memory>
#include <utility>

#include "domino/lint/schema.h"
#include "domino/lint/suggest.h"
#include "domino/prelude.h"

namespace domino::analysis {

namespace {

using lint::DiagnosticSink;
using lint::SourceSpan;

std::string Trim(const std::string& s) {
  std::size_t a = s.find_first_not_of(" \t\r");
  if (a == std::string::npos) return "";
  std::size_t b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

bool ValidName(const std::string& s, bool allow_at) {
  if (s.empty()) return false;
  for (char c : s) {
    bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              (allow_at && c == '@');
    if (!ok) return false;
  }
  return true;
}

/// Column-preserving per-line parser. One instance per config; accumulates
/// into `cfg` and reports every problem (with recovery) into `sink`.
class ConfigLineParser {
 public:
  ConfigLineParser(DominoConfigFile& cfg, DiagnosticSink& sink,
                   const InputLimits& limits)
      : cfg_(cfg), sink_(sink), limits_(limits) {}

  void ParseLine(const std::string& line, int lineno) {
    line_ = &line;
    lineno_ = lineno;

    std::size_t start = line.find_first_not_of(" \t\r");
    std::size_t end = line.find_last_not_of(" \t\r") + 1;
    std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      sink_.Error("DL201", Span(start, end),
                  "expected 'event <name>: <expr>' or "
                  "'chain <name>: a -> b -> c'");
      return;
    }

    std::size_t kw_end = TokenEnd(start, colon);
    std::string keyword = line.substr(start, kw_end - start);

    std::size_t name_start = line.find_first_not_of(" \t\r", kw_end);
    std::string name;
    SourceSpan name_span{};
    if (name_start >= colon) {
      sink_.Error("DL203", Span(colon, colon + 1),
                  "missing name after '" + keyword + "'");
      return;
    }
    std::size_t name_end = TokenEnd(name_start, colon);
    name = line.substr(name_start, name_end - name_start);
    name_span = Span(name_start, name_end);

    std::vector<std::string> required;
    SourceSpan requires_span{};
    std::size_t extra = line.find_first_not_of(" \t\r", name_end);
    if (extra < colon) {
      std::size_t req_end = TokenEnd(extra, colon);
      bool is_requires =
          keyword == "event" && line.compare(extra, req_end - extra,
                                             "requires") == 0 &&
          req_end - extra == 8;
      if (!is_requires) {
        sink_.Error("DL201", Span(extra, colon),
                    "unexpected text between the name and ':'");
        return;
      }
      if (!ParseRequires(req_end, colon, required, requires_span)) return;
    }

    std::size_t body_start = line.find_first_not_of(" \t\r", colon + 1);
    if (keyword == "event") {
      ParseEvent(name, name_span, body_start, end, std::move(required),
                 requires_span);
    } else if (keyword == "chain") {
      ParseChain(name, name_span, body_start, end);
    } else {
      std::string hint = lint::DidYouMean(keyword, {"event", "chain"});
      sink_.Error("DL202", Span(start, kw_end),
                  "unknown keyword '" + keyword +
                      "'; expected 'event' or 'chain'" +
                      lint::DidYouMeanSuffix(hint),
                  hint);
    }
  }

 private:
  SourceSpan Span(std::size_t begin, std::size_t end) const {
    if (begin == std::string::npos || begin >= line_->size()) {
      begin = line_->empty() ? 0 : line_->size() - 1;
      end = begin + 1;
    }
    return {lineno_, static_cast<int>(begin) + 1,
            static_cast<int>(end > begin ? end - begin : 1)};
  }

  /// End of the name/keyword token starting at `pos` (stops at whitespace
  /// or the header-terminating colon).
  std::size_t TokenEnd(std::size_t pos, std::size_t colon) const {
    std::size_t end = pos;
    while (end < colon && !std::isspace(static_cast<unsigned char>(
                              (*line_)[end]))) {
      ++end;
    }
    return end;
  }

  /// Parses the stream list of `event name requires s1, s2: ...` between
  /// the end of the `requires` keyword and the ':'. Name validity is the
  /// verifier's job (DL406); this only splits and rejects empty entries.
  bool ParseRequires(std::size_t req_end, std::size_t colon,
                     std::vector<std::string>& out, SourceSpan& span) {
    const std::string& line = *line_;
    std::size_t list_start = line.find_first_not_of(" \t\r", req_end);
    if (list_start >= colon) {
      sink_.Error("DL201", Span(req_end - 8, req_end),
                  "missing stream list after 'requires'");
      return false;
    }
    std::size_t list_end = colon;
    while (list_end > list_start &&
           std::isspace(static_cast<unsigned char>(line[list_end - 1]))) {
      --list_end;
    }
    span = Span(list_start, list_end);
    std::size_t pos = list_start;
    while (pos < list_end) {
      std::size_t comma = line.find(',', pos);
      if (comma == std::string::npos || comma > list_end) comma = list_end;
      std::string tok = Trim(line.substr(pos, comma - pos));
      if (tok.empty()) {
        sink_.Error("DL201",
                    Span(pos, comma < list_end ? comma + 1 : list_end),
                    "empty stream name in 'requires' list");
        return false;
      }
      out.push_back(std::move(tok));
      pos = comma < list_end ? comma + 1 : list_end;
    }
    return true;
  }

  void ParseEvent(const std::string& name, SourceSpan name_span,
                  std::size_t body_start, std::size_t line_end,
                  std::vector<std::string> required,
                  SourceSpan requires_span) {
    if (!ValidName(name, /*allow_at=*/false)) {
      std::string why = name.find('@') != std::string::npos
                            ? " ('@' is reserved for the @rev node suffix)"
                            : " (use letters, digits, and '_')";
      sink_.Error("DL204", name_span, "invalid event name '" + name + "'" +
                                          why);
      return;
    }
    for (const auto& prev : cfg_.events) {
      if (prev.name == name) {
        sink_.Error("DL205", name_span,
                    "duplicate event '" + name + "' (first defined on line " +
                        std::to_string(prev.line) + ")");
        return;
      }
    }
    if (body_start == std::string::npos || body_start >= line_end) {
      sink_.Error("DL201", Span(line_end - 1, line_end),
                  "missing expression after ':' in event '" + name + "'");
      return;
    }
    ConfigEventDef def;
    def.name = name;
    def.name_span = name_span;
    def.line = lineno_;
    def.required_streams = std::move(required);
    def.requires_span = requires_span;
    def.expr_col = static_cast<int>(body_start) + 1;
    def.expr_text = line_->substr(body_start, line_end - body_start);

    DiagnosticSink sub;
    CheckedExpr ce = ParseExpressionChecked(def.expr_text, sub, limits_);
    bool had_errors = sub.has_errors();
    sub.DrainInto(sink_, lineno_, def.expr_col);
    def.expr = ce.expr;
    def.is_boolean = ce.is_boolean;
    def.is_series = ce.is_series;
    if (!had_errors && ce.expr != nullptr) {
      SourceSpan body_span = Span(body_start, line_end);
      if (ce.is_series) {
        sink_.Error("DL105", body_span,
                    "event '" + name +
                        "' is a bare series; a condition must be boolean — "
                        "compare an aggregate instead",
                    "max(" + def.expr_text + ") > 0");
        def.expr = nullptr;
      } else if (!ce.is_boolean) {
        sink_.Warning("DL111", body_span,
                      "event '" + name +
                          "' has a numeric (non-boolean) condition; it "
                          "fires whenever the value is nonzero");
      }
    }
    cfg_.events.push_back(std::move(def));
  }

  void ParseChain(const std::string& name, SourceSpan name_span,
                  std::size_t body_start, std::size_t line_end) {
    if (!ValidName(name, /*allow_at=*/false)) {
      sink_.Error("DL204", name_span,
                  "invalid chain name '" + name +
                      "' (use letters, digits, and '_')");
      return;
    }
    if (body_start == std::string::npos || body_start >= line_end) {
      sink_.Error("DL206", Span(line_end - 1, line_end),
                  "a chain needs at least two nodes ('a -> b')");
      return;
    }
    ConfigChainDef def;
    def.name = name;
    def.name_span = name_span;
    def.line = lineno_;

    bool node_errors = false;
    std::size_t pos = body_start;
    while (pos != std::string::npos) {
      std::size_t arrow = line_->find("->", pos);
      if (arrow >= line_end) arrow = std::string::npos;
      std::size_t seg_end = arrow == std::string::npos ? line_end : arrow;
      std::size_t node_start = line_->find_first_not_of(" \t\r", pos);
      std::string node;
      if (node_start < seg_end) {
        std::size_t node_end = seg_end;
        while (node_end > node_start &&
               std::isspace(static_cast<unsigned char>(
                   (*line_)[node_end - 1]))) {
          --node_end;
        }
        node = line_->substr(node_start, node_end - node_start);
        if (!ValidName(node, /*allow_at=*/true)) {
          sink_.Error("DL207", Span(node_start, node_end),
                      "invalid chain node name '" + node + "'");
          node_errors = true;
        } else {
          def.nodes.push_back(node);
          def.node_spans.push_back(Span(node_start, node_end));
        }
      } else {
        sink_.Error("DL207",
                    Span(arrow == std::string::npos ? seg_end - 1 : arrow,
                         arrow == std::string::npos ? seg_end : arrow + 2),
                    "empty chain node (stray '->'?)");
        node_errors = true;
      }
      pos = arrow == std::string::npos ? std::string::npos : arrow + 2;
    }
    if (!node_errors && def.nodes.size() < 2) {
      sink_.Error("DL206", Span(body_start, line_end),
                  "a chain needs at least two nodes ('a -> b')");
      return;
    }
    cfg_.chains.push_back(std::move(def));
  }

  DominoConfigFile& cfg_;
  DiagnosticSink& sink_;
  InputLimits limits_;
  const std::string* line_ = nullptr;
  int lineno_ = 0;
};

}  // namespace

std::pair<std::string, PathLeg> SplitNodeLeg(const std::string& name) {
  auto pos = name.find("@rev");
  if (pos != std::string::npos && pos + 4 == name.size()) {
    return {name.substr(0, pos), PathLeg::kRev};
  }
  return {name, PathLeg::kFwd};
}

DominoConfigFile ParseConfigChecked(const std::string& text,
                                    lint::DiagnosticSink& sink,
                                    const InputLimits& limits) {
  DominoConfigFile cfg;
  if (text.size() > limits.max_config_bytes) {
    sink.Error("DL213", SourceSpan{1, 1, 1},
               "config is " + std::to_string(text.size()) +
                   " bytes; the limit is " +
                   std::to_string(limits.max_config_bytes) +
                   " — refusing to parse");
    return cfg;
  }
  ConfigLineParser parser(cfg, sink, limits);
  std::vector<std::string> lines = lint::SplitLines(text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (cfg.events.size() + cfg.chains.size() >= limits.max_config_defs) {
      sink.Error("DL213", SourceSpan{static_cast<int>(i) + 1, 1, 1},
                 "config defines more than " +
                     std::to_string(limits.max_config_defs) +
                     " events/chains; remaining lines ignored");
      break;
    }
    std::string line = lines[i];
    auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    if (Trim(line).empty()) continue;
    parser.ParseLine(line, static_cast<int>(i) + 1);
  }
  return cfg;
}

DominoConfigFile ParseConfigText(const std::string& text) {
  lint::DiagnosticSink sink;
  DominoConfigFile cfg = ParseConfigChecked(text, sink);
  for (const auto& d : sink.diagnostics()) {
    if (d.severity == lint::Severity::kError) {
      throw DslError("config line " + std::to_string(d.span.line) + ": " +
                     d.message);
    }
  }
  return cfg;
}

void ExtendGraphUnchecked(CausalGraph& graph, const DominoConfigFile& cfg,
                          const EventThresholds& th) {
  auto find_event_def =
      [&](const std::string& name) -> const ConfigEventDef* {
    for (const auto& e : cfg.events) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };

  for (const auto& chain : cfg.chains) {
    for (std::size_t i = 0; i < chain.nodes.size(); ++i) {
      const std::string& name = chain.nodes[i];
      if (graph.FindNode(name) >= 0) continue;

      NodeKind kind = i == 0 ? NodeKind::kCause
                     : i + 1 == chain.nodes.size() ? NodeKind::kConsequence
                                                   : NodeKind::kIntermediate;
      auto [base, leg] = SplitNodeLeg(name);
      if (const ConfigEventDef* def = find_event_def(base)) {
        if (leg == PathLeg::kRev) {
          throw DslError("custom event '" + base +
                         "' cannot take @rev; scope the expression instead");
        }
        if (def->expr == nullptr) {
          throw DslError("custom event '" + base +
                         "' has no valid expression");
        }
        auto cond = std::make_shared<const Condition>(def->expr);
        Node n;
        n.name = name;
        n.kind = kind;
        n.detect = [cond](const WindowContext& ctx) {
          return cond->Eval(ctx);
        };
        // Stream use for the detector's data-quality gating: the declared
        // `requires` mask when present, else inferred from the condition.
        StreamMask declared = 0;
        for (const auto& stream : def->required_streams) {
          if (auto id = lint::StreamIdFromName(stream)) {
            declared = static_cast<StreamMask>(
                declared | (1u << static_cast<unsigned>(*id)));
          }
        }
        n.streams = declared != 0
                        ? std::array<StreamMask, 2>{declared, declared}
                        : std::array<StreamMask, 2>{cond->streams(0),
                                                    cond->streams(1)};
        graph.AddNode(std::move(n));
      } else if (auto type = EventTypeFromName(base)) {
        graph.AddBuiltinNode(name, kind, EventRef{*type, leg}, th);
      } else {
        std::vector<std::string> candidates = KnownEventNames();
        for (const auto& e : cfg.events) candidates.push_back(e.name);
        throw DslError("chain '" + chain.name + "': unknown node '" + name +
                       "' (not a built-in event, custom event, or existing "
                       "graph node)" +
                       lint::DidYouMeanSuffix(
                           lint::DidYouMean(base, candidates)));
      }
    }
    for (std::size_t i = 0; i + 1 < chain.nodes.size(); ++i) {
      // Avoid duplicate edges when chains share prefixes.
      int f = graph.FindNode(chain.nodes[i]);
      int t = graph.FindNode(chain.nodes[i + 1]);
      const auto& out = graph.adjacency()[static_cast<std::size_t>(f)];
      if (std::find(out.begin(), out.end(), t) == out.end()) {
        graph.AddEdge(f, t);
      }
    }
  }
}

void ExtendGraph(CausalGraph& graph, const DominoConfigFile& cfg,
                 const EventThresholds& th) {
  ExtendGraphUnchecked(graph, cfg, th);
  graph.Validate();
}

CausalGraph BuildGraphFromConfig(const DominoConfigFile& cfg,
                                 const EventThresholds& th) {
  CausalGraph graph;
  ExtendGraph(graph, cfg, th);
  return graph;
}

}  // namespace domino::analysis
