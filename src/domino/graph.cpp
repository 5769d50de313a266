#include "domino/graph.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "domino/lint/suggest.h"
#include "domino/prelude.h"

namespace domino::analysis {

int CausalGraph::AddNode(Node node) {
  if (FindNode(node.name) >= 0) {
    throw std::invalid_argument("CausalGraph: duplicate node " + node.name);
  }
  nodes_.push_back(std::move(node));
  adj_.emplace_back();
  return static_cast<int>(nodes_.size()) - 1;
}

int CausalGraph::AddBuiltinNode(const std::string& name, NodeKind kind,
                                EventRef ref, const EventThresholds& th) {
  // Interned per thresholds value, so the reference outlives the graph.
  const Condition& c = Prelude::For(th).Get(ref);
  Node n;
  n.name = name;
  n.kind = kind;
  n.builtin = ref;
  n.detect = [&c](const WindowContext& ctx) { return c.Eval(ctx); };
  n.streams = {c.streams(0), c.streams(1)};
  return AddNode(std::move(n));
}

int CausalGraph::FindNode(const std::string& name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void CausalGraph::AddEdge(const std::string& from, const std::string& to) {
  int f = FindNode(from);
  int t = FindNode(to);
  if (f < 0 || t < 0) {
    // Name the endpoint that is actually missing (both, when both are).
    std::string missing = f < 0 ? "'" + from + "'" : "";
    if (t < 0) missing += (missing.empty() ? "'" : " and '") + to + "'";
    std::vector<std::string> names;
    names.reserve(nodes_.size());
    for (const auto& n : nodes_) names.push_back(n.name);
    std::string hint = lint::DidYouMean(f < 0 ? from : to, names);
    throw std::invalid_argument("CausalGraph: unknown node " + missing +
                                " in edge " + from + " -> " + to +
                                lint::DidYouMeanSuffix(hint));
  }
  AddEdge(f, t);
}

void CausalGraph::AddEdge(int from, int to) {
  const int n = static_cast<int>(nodes_.size());
  if (from < 0 || from >= n || to < 0 || to >= n) {
    throw std::invalid_argument(
        "CausalGraph: edge endpoint out of range (" + std::to_string(from) +
        " -> " + std::to_string(to) + ", " + std::to_string(n) + " nodes)");
  }
  adj_[static_cast<std::size_t>(from)].push_back(to);
}

std::vector<int> CausalGraph::FindCycle() const {
  enum Color : char { kWhite, kGray, kBlack };
  std::vector<Color> color(nodes_.size(), kWhite);
  std::vector<int> stack;
  std::vector<int> cycle;
  std::function<bool(int)> dfs = [&](int n) {
    color[static_cast<std::size_t>(n)] = kGray;
    stack.push_back(n);
    for (int t : adj_[static_cast<std::size_t>(n)]) {
      if (color[static_cast<std::size_t>(t)] == kGray) {
        auto it = std::find(stack.begin(), stack.end(), t);
        cycle.assign(it, stack.end());
        cycle.push_back(t);
        return true;
      }
      if (color[static_cast<std::size_t>(t)] == kWhite && dfs(t)) return true;
    }
    color[static_cast<std::size_t>(n)] = kBlack;
    stack.pop_back();
    return false;
  };
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (color[i] == kWhite && dfs(static_cast<int>(i))) return cycle;
  }
  return {};
}

void CausalGraph::Validate() const {
  std::vector<int> cycle = FindCycle();
  if (!cycle.empty()) {
    std::string path;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      if (i > 0) path += " -> ";
      path += nodes_[static_cast<std::size_t>(cycle[i])].name;
    }
    throw std::runtime_error("CausalGraph: cycle detected: " + path);
  }
}

std::vector<ChainPath> CausalGraph::EnumerateChains() const {
  std::vector<ChainPath> chains;
  ChainPath path;
  // DFS from each cause; record every time we hit a consequence node.
  std::function<void(int)> dfs = [&](int n) {
    path.push_back(n);
    if (nodes_[static_cast<std::size_t>(n)].kind == NodeKind::kConsequence) {
      chains.push_back(path);
    } else {
      for (int t : adj_[static_cast<std::size_t>(n)]) dfs(t);
    }
    path.pop_back();
  };
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::kCause) dfs(static_cast<int>(i));
  }
  return chains;
}

CausalGraph CausalGraph::Default(const EventThresholds& th) {
  CausalGraph g;
  using ET = EventType;
  const std::array<std::pair<const char*, ET>, 6> causes = {{
      {"poor_channel", ET::kChannelDegrade},
      {"cross_traffic", ET::kCrossTraffic},
      {"ul_scheduling", ET::kUlScheduling},
      {"harq_retx", ET::kHarqRetx},
      {"rlc_retx", ET::kRlcRetx},
      {"rrc_change", ET::kRrcChange},
  }};

  // Forward-leg cause nodes and the capacity intermediates they act through.
  for (const auto& [name, type] : causes) {
    g.AddBuiltinNode(name, NodeKind::kCause, EventRef{type, PathLeg::kFwd},
                     th);
    g.AddBuiltinNode(std::string(name) + "@rev", NodeKind::kCause,
                     EventRef{type, PathLeg::kRev}, th);
  }
  g.AddBuiltinNode("tbs_drop", NodeKind::kIntermediate,
                   EventRef{ET::kTbsDrop, PathLeg::kFwd}, th);
  g.AddBuiltinNode("rate_gap", NodeKind::kIntermediate,
                   EventRef{ET::kRateGap, PathLeg::kFwd}, th);
  g.AddBuiltinNode("tbs_drop@rev", NodeKind::kIntermediate,
                   EventRef{ET::kTbsDrop, PathLeg::kRev}, th);
  g.AddBuiltinNode("rate_gap@rev", NodeKind::kIntermediate,
                   EventRef{ET::kRateGap, PathLeg::kRev}, th);
  g.AddBuiltinNode("fwd_delay_up", NodeKind::kIntermediate,
                   EventRef{ET::kFwdDelayUp}, th);
  g.AddBuiltinNode("rev_delay_up", NodeKind::kIntermediate,
                   EventRef{ET::kRevDelayUp}, th);
  g.AddBuiltinNode("gcc_overuse", NodeKind::kIntermediate,
                   EventRef{ET::kGccOveruse}, th);
  g.AddBuiltinNode("outstanding_up", NodeKind::kIntermediate,
                   EventRef{ET::kOutstandingUp}, th);
  g.AddBuiltinNode("cwnd_full", NodeKind::kIntermediate,
                   EventRef{ET::kCwndFull}, th);
  g.AddBuiltinNode("jitter_buffer_drain", NodeKind::kConsequence,
                   EventRef{ET::kJitterBufferDrain}, th);
  g.AddBuiltinNode("target_bitrate_drop", NodeKind::kConsequence,
                   EventRef{ET::kTargetBitrateDrop}, th);
  g.AddBuiltinNode("pushback_drop", NodeKind::kConsequence,
                   EventRef{ET::kPushbackDrop}, th);

  // Radio-resource causes act through capacity loss; timing/reliability
  // causes inflate delay directly (§5).
  g.AddEdge("poor_channel", "tbs_drop");
  g.AddEdge("cross_traffic", "tbs_drop");
  g.AddEdge("tbs_drop", "rate_gap");
  g.AddEdge("rate_gap", "fwd_delay_up");
  g.AddEdge("ul_scheduling", "fwd_delay_up");
  g.AddEdge("harq_retx", "fwd_delay_up");
  g.AddEdge("rlc_retx", "fwd_delay_up");
  g.AddEdge("rrc_change", "fwd_delay_up");

  g.AddEdge("poor_channel@rev", "tbs_drop@rev");
  g.AddEdge("cross_traffic@rev", "tbs_drop@rev");
  g.AddEdge("tbs_drop@rev", "rate_gap@rev");
  g.AddEdge("rate_gap@rev", "rev_delay_up");
  g.AddEdge("ul_scheduling@rev", "rev_delay_up");
  g.AddEdge("harq_retx@rev", "rev_delay_up");
  g.AddEdge("rlc_retx@rev", "rev_delay_up");
  g.AddEdge("rrc_change@rev", "rev_delay_up");

  // Forward delay hits playback and both GCC controllers; reverse delay
  // only starves feedback, reaching the pushback controller (Fig. 22).
  g.AddEdge("fwd_delay_up", "jitter_buffer_drain");
  g.AddEdge("fwd_delay_up", "gcc_overuse");
  g.AddEdge("gcc_overuse", "target_bitrate_drop");
  g.AddEdge("fwd_delay_up", "outstanding_up");
  g.AddEdge("rev_delay_up", "outstanding_up");
  g.AddEdge("outstanding_up", "cwnd_full");
  g.AddEdge("cwnd_full", "pushback_drop");

  g.Validate();
  return g;
}

std::string FormatChain(const CausalGraph& graph, const ChainPath& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += " -> ";
    out += graph.node(path[i]).name;
  }
  return out;
}

}  // namespace domino::analysis
