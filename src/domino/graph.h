// The causal graph Domino traces (Fig. 9): a DAG whose roots are 5G causes,
// whose internal nodes are cross-layer intermediate effects, and whose sinks
// are WebRTC consequences. Chains are root->sink paths; the default graph
// yields exactly the paper's 24 chains (§4.2).
//
// Nodes carry a detection predicate. Built-in nodes evaluate a prelude
// entry (prelude.h); the config DSL (config_parser.h) adds nodes with
// user-defined expressions of the same language, making the graph
// user-extensible as the paper describes.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "domino/events.h"

namespace domino::analysis {

enum class NodeKind { kCause, kIntermediate, kConsequence };

struct Node {
  std::string name;
  NodeKind kind;
  /// Window predicate. Nodes built from a condition (prelude entries and
  /// config events, prelude.h) evaluate it through the per-window memo.
  std::function<bool(const WindowContext&)> detect;
  /// Set when the node wraps a built-in event (used for reporting).
  std::optional<EventRef> builtin;
  /// Raw streams the node's condition reads, one mask per perspective
  /// (index = sender_client): InferStreamUse over its condition, or a
  /// config event's declared `requires` streams. 0 = unknown: the detector
  /// then applies no data-quality degradation.
  std::array<StreamMask, 2> streams{};
};

/// A root->sink path through the graph, by node index.
using ChainPath = std::vector<int>;

class CausalGraph {
 public:
  /// Adds a node; name must be unique. Returns the node index.
  int AddNode(Node node);

  /// Adds a built-in event node, binding the given thresholds.
  int AddBuiltinNode(const std::string& name, NodeKind kind, EventRef ref,
                     const EventThresholds& th);

  /// Adds a directed edge between existing nodes (by name).
  void AddEdge(const std::string& from, const std::string& to);
  void AddEdge(int from, int to);

  [[nodiscard]] int FindNode(const std::string& name) const;  ///< -1 if absent
  [[nodiscard]] const Node& node(int i) const {
    return nodes_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const std::vector<std::vector<int>>& adjacency() const {
    return adj_;
  }

  /// Throws std::runtime_error (naming an offending path) on a cycle.
  void Validate() const;

  /// A directed cycle as node indices with the entry node repeated at the
  /// end ("a b c a"); empty when the graph is acyclic.
  [[nodiscard]] std::vector<int> FindCycle() const;

  /// All cause->consequence paths, in deterministic (DFS) order.
  [[nodiscard]] std::vector<ChainPath> EnumerateChains() const;

  /// The paper's default graph (Fig. 9): 6 causes x {forward, reverse} legs,
  /// delay intermediates, 3 consequences; 24 chains total.
  static CausalGraph Default(const EventThresholds& th = {});

 private:
  std::vector<Node> nodes_;
  std::vector<std::vector<int>> adj_;
};

/// Renders a chain as "cause -> ... -> consequence" using node names.
std::string FormatChain(const CausalGraph& graph, const ChainPath& path);

}  // namespace domino::analysis
