// The 20 built-in events of Table 5 / Appendix D as a DSL prelude.
//
// Built-in and config-defined events are the same kind of thing: a boolean
// expression over windowed series (expr.h). The prelude is one table of
// `name: expression` entries with the EventThresholds substituted, parsed by
// the ordinary expression front-end. Detection, stream masks (lint
// InferStreamUse), verification and Python code generation all read these
// entries; no other definition of a built-in condition exists.
//
// Events 13-20 are scoped to a path leg: their entries read the `fwd`
// scope, and `name@rev` evaluates the same entry with fwd and rev swapped.
// The other events name their series explicitly and ignore the leg.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "domino/events.h"

namespace domino::analysis {

class ExprNode;

/// A compiled window condition: a parsed expression plus the raw streams it
/// reads. Evaluation with a WindowStatsCache attached is memoised per
/// (condition, sender) for the current window, so a condition several
/// graph nodes and the feature extractor ask for is evaluated once.
class Condition {
 public:
  explicit Condition(std::shared_ptr<const ExprNode> expr);

  [[nodiscard]] bool Eval(const WindowContext& ctx) const;
  [[nodiscard]] const ExprNode& expr() const { return *expr_; }
  /// Streams the condition reads from perspective `sender_client`.
  [[nodiscard]] StreamMask streams(int sender_client) const {
    return streams_[static_cast<std::size_t>(sender_client)];
  }

 private:
  std::shared_ptr<const ExprNode> expr_;
  std::array<StreamMask, 2> streams_{};
};

/// The prelude compiled for one EventThresholds value. Equal thresholds
/// share one instance for the life of the process, so the memo sees the
/// same conditions whichever consumer evaluates them.
class Prelude {
 public:
  [[nodiscard]] static const Prelude& For(const EventThresholds& th);

  /// The condition of `ref` (an unqualified leg means fwd).
  [[nodiscard]] const Condition& Get(const EventRef& ref) const;
  /// The entry's DSL text, thresholds substituted.
  [[nodiscard]] const std::string& text(EventType type) const;

 private:
  explicit Prelude(const EventThresholds& th);

  EventThresholds th_;
  std::vector<std::string> text_;       ///< By EventType - 1.
  std::vector<Condition> conditions_;   ///< Never resized after build.
  std::vector<std::array<const Condition*, 2>> by_leg_;  ///< [type][rev].
};

}  // namespace domino::analysis
