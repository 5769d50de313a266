// Expression DSL for user-defined event conditions (the extensibility API of
// §4.2 / Fig. 11).
//
// Users describe an event as a boolean expression over the window's named
// series, e.g.
//
//     max(fwd.owd_ms) > 200 and trend_up(fwd.owd_ms)
//     frac_gt(fwd.app_bitrate, fwd.tbs_bitrate) > 0.1
//
// Series references are `scope.name` pairs:
//   scopes:  fwd rev           (path legs, perspective-relative)
//            ul dl             (absolute 5G directions)
//            sender receiver   (perspective-relative clients)
//            ue remote         (absolute clients)
//   5G series:     tbs prb_self prb_other mcs harq_retx rlc_retx owd_ms
//                  app_bitrate tbs_bitrate rnti
//   client series: inbound_fps outbound_fps outbound_resolution
//                  jitter_buffer_ms target_bitrate pushback_rate
//                  outstanding_bytes cwnd_bytes overuse
//
// Functions over series ([...] = optional argument, [default]):
//   min max mean stddev sum first last
//   argmin argmax            (ms from the window start to the first extreme)
//   count(s[,w]) p(s,q[,w]) count_below(s,x[,w]) count_above(s,x[,w])
//                            (with w: over the means of w-ms time buckets)
//   has_drop(s[,f])          (some next < prev * (1 - f) [0])
//   trend_up(s[,n,k])        (means of n-sample buckets [10]: some
//                             next > k * prev [1])
//   has_rise trend_down      (some next > prev; 10-sample bucket means fall)
// Paired element-wise over two series (first min(count) samples):
//   frac_gt(a,b) count_gt(a,b) pairs(a,b)   (a > b fraction / count; pairs)
//   any_gt(a,b) any_lt(a,b[,k])             (some a > b / a < k*b [1])
//   any_over_cap(a,c)                       (some c > 0 and a > c)
//   any_mismatch(a,b,t)                     (some |a - b| > t * a)
// Predicates on where a series comes from:
//   is_uplink(s)   s is a 5G direction series on the uplink (fwd/rev resolve
//                  per perspective)
//   captured(s)    the capture carries s's source stream (the gNB log is
//                  absent on commercial cells; other streams always count)
//
// Scalars combine with + - * / and comparisons; `and` / `or` / `not`
// combine booleans. Comparisons yield 1.0/0.0. Built-in events are written
// in this language too (prelude.h).
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parse.h"
#include "domino/events.h"
#include "domino/lint/diagnostics.h"

namespace domino::analysis {

/// Parse or evaluation error, with 1-based column info for parse problems.
/// Parsing keeps this as a thin legacy wrapper over the first error
/// diagnostic of the checked front-end (see ParseExpressionChecked).
class DslError : public std::runtime_error {
 public:
  explicit DslError(const std::string& what) : std::runtime_error(what) {}
};

class ExprNode;
using ExprPtr = std::shared_ptr<const ExprNode>;

/// Operators exposed through the visitor API (ExprVisitor). The parser's
/// internal token kinds map onto these; consumers like the domino-verify
/// abstract evaluator switch on them without seeing lexer details.
enum class BinOp { kAdd, kSub, kMul, kDiv, kLt, kGt, kLe, kGe, kEq, kNe,
                   kAnd, kOr };
enum class UnOp { kNeg, kNot };

/// Structural visitor over parsed expression ASTs. Each callback receives
/// the node itself (for source-range lookups via src_begin()/src_end())
/// plus its decomposed payload; recursion into children is the visitor's
/// job, so analyses can prune or reorder traversal freely.
class ExprVisitor {
 public:
  virtual ~ExprVisitor() = default;
  virtual void VisitNumber(const ExprNode& node, double value) = 0;
  virtual void VisitSeries(const ExprNode& node, const std::string& scope,
                           const std::string& name) = 0;
  /// `func` is the DSL function name ("max", "frac_gt", ...); series
  /// arguments precede scalar arguments, as in the grammar.
  virtual void VisitCall(const ExprNode& node, const std::string& func,
                         const std::vector<ExprPtr>& series_args,
                         const std::vector<ExprPtr>& scalar_args) = 0;
  virtual void VisitUnary(const ExprNode& node, UnOp op,
                          const ExprNode& operand) = 0;
  virtual void VisitBinary(const ExprNode& node, BinOp op,
                           const ExprNode& lhs, const ExprNode& rhs) = 0;
};

class ExprNode {
 public:
  virtual ~ExprNode() = default;

  /// Evaluates to a scalar; throws DslError for series-valued nodes.
  [[nodiscard]] virtual double EvalScalar(const WindowContext& ctx) const = 0;
  /// Emits equivalent Python source (see codegen.h).
  [[nodiscard]] virtual std::string ToPython() const = 0;
  /// Single dispatch into the matching ExprVisitor callback.
  virtual void Accept(ExprVisitor& v) const = 0;

  /// 0-based half-open character range of this node in the expression
  /// source it was parsed from; [0, 0) when unknown. The config layer
  /// rebases these offsets onto file line:column coordinates.
  [[nodiscard]] std::size_t src_begin() const { return src_begin_; }
  [[nodiscard]] std::size_t src_end() const { return src_end_; }
  void SetSrcRange(std::size_t begin, std::size_t end) {
    src_begin_ = begin;
    src_end_ = end;
  }

 private:
  std::size_t src_begin_ = 0;
  std::size_t src_end_ = 0;
};

/// Parses an expression. Throws DslError on syntax/semantic problems.
/// `swap_legs` reads every `fwd` scope as `rev` and vice versa (how a
/// leg-scoped built-in evaluates on its reverse leg, prelude.h).
ExprPtr ParseExpression(const std::string& text, bool swap_legs = false);

/// Result of the multi-error front-end: the expression (null when any error
/// diagnostic was emitted) plus the facts the config-level linter needs.
struct CheckedExpr {
  ExprPtr expr;            ///< Null when errors were reported.
  bool is_series = false;  ///< Top level is a bare `scope.name` reference.
  bool is_boolean = false; ///< Top level is a comparison / logical op /
                           ///< boolean-valued function.
};

/// Lint-grade parse: recovers per-token instead of throwing, emits every
/// problem into `sink` with column-accurate spans (1-based, line 1), and
/// additionally runs the semantic checks the throwing front-end defers or
/// downgrades: did-you-mean suggestions for unknown scopes / series /
/// functions, series-vs-scalar type checks, arity checks, value-range
/// constant folding (tautological / unsatisfiable comparisons), and
/// unit-sanity heuristics. Warnings never block; errors null the result.
/// `limits` bounds parser recursion depth and AST size (DL006) so a
/// hostile expression cannot overflow the stack or balloon memory.
CheckedExpr ParseExpressionChecked(const std::string& text,
                                   lint::DiagnosticSink& sink,
                                   const InputLimits& limits = {});

/// The shortest DSL literal that parses back to exactly `v` (negative
/// values parenthesised; infinities and NaN as arithmetic yielding them).
/// Also valid Python.
std::string DslLiteral(double v);

/// Convenience: evaluates a parsed expression as a boolean condition.
inline bool EvalCondition(const ExprNode& expr, const WindowContext& ctx) {
  return expr.EvalScalar(ctx) != 0.0;
}

/// All valid series names for a scope kind (used for diagnostics and tests).
std::vector<std::string> KnownDirSeries();
std::vector<std::string> KnownClientSeries();
std::vector<std::string> KnownScopes();

}  // namespace domino::analysis
