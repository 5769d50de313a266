#include "domino/lint/verify.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "domino/expr.h"
#include "domino/lint/interval.h"
#include "domino/lint/schema.h"
#include "domino/lint/suggest.h"

namespace domino::analysis::lint {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Abstract values and the evaluator
// ---------------------------------------------------------------------------

/// Abstract value of a subexpression: its interval plus the provenance
/// facts the checks key on.
struct AbsVal {
  Interval range;
  Unit unit = Unit::kUnknown;
  /// Unit is visible to the parser's DL110 pass (no * or / in between);
  /// DL403 only reports clashes the parser could NOT have seen.
  bool direct = false;
  /// Pure arithmetic over literals — no series involved.
  bool constant = false;
  /// Range (partly) derives from schema knowledge the parser lacks; gates
  /// DL404 so parser-foldable verdicts (DL108/DL109) never report twice.
  bool schema_dependent = false;
  /// For series references: the schema row (element range + cadence).
  const SeriesSchema* series = nullptr;
};

/// One comparison inside a condition, with its abstract verdict.
struct CmpRecord {
  const ExprNode* node = nullptr;
  CmpOp op = CmpOp::kLt;
  AbsVal lhs, rhs;
  Tri verdict = Tri::kMaybe;
};

/// A unit clash invisible to the parser (units laundered through * or /).
struct UnitClash {
  const ExprNode* node = nullptr;   ///< The operator node (span anchor).
  const ExprNode* lhs = nullptr;
  const ExprNode* rhs = nullptr;
  Unit lhs_unit = Unit::kUnknown;
  Unit rhs_unit = Unit::kUnknown;
  const char* what = "";            ///< "comparing", "+", "-".
};

CmpOp ToCmpOp(BinOp op) {
  switch (op) {
    case BinOp::kLt: return CmpOp::kLt;
    case BinOp::kGt: return CmpOp::kGt;
    case BinOp::kLe: return CmpOp::kLe;
    case BinOp::kGe: return CmpOp::kGe;
    case BinOp::kEq: return CmpOp::kEq;
    default: return CmpOp::kNe;
  }
}

/// Mirrors `c OP x` into `x OP' c`.
CmpOp Mirror(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGe: return CmpOp::kLe;
    case CmpOp::kEq: return CmpOp::kEq;
    case CmpOp::kNe: return CmpOp::kNe;
  }
  return op;
}

Interval TriRange(Tri t) {
  switch (t) {
    case Tri::kFalse: return Interval::Exact(0);
    case Tri::kTrue: return Interval::Exact(1);
    case Tri::kMaybe: return {0, 1};
  }
  return {0, 1};
}

/// Folds a condition over the schema'd interval domain. Two passes share
/// this class: pass 1 ignores sample budgets (schema ranges only), pass 2
/// additionally bounds count/sum/trend by how many samples the window can
/// hold at the series' cadence — a verdict that appears only in pass 2 is
/// a DL407 (window) finding, not a DL401/DL404 (range) finding.
class AbstractEvaluator : public ExprVisitor {
 public:
  AbstractEvaluator(const VerifyOptions& opts, bool bound_samples,
                    std::vector<CmpRecord>* cmps,
                    std::vector<UnitClash>* clashes)
      : opts_(opts),
        bound_samples_(bound_samples),
        cmps_(cmps),
        clashes_(clashes) {}

  AbsVal Eval(const ExprNode& n) {
    n.Accept(*this);
    return std::move(result_);
  }

  void VisitNumber(const ExprNode&, double value) override {
    AbsVal v;
    v.range = Interval::Exact(value);
    v.constant = true;
    result_ = std::move(v);
  }

  void VisitSeries(const ExprNode&, const std::string& scope,
                   const std::string& name) override {
    AbsVal v;
    if (const SeriesSchema* row = FindSeriesSchema(scope, name)) {
      v.range = {row->min_value, row->max_value};
      v.unit = row->unit;
      v.direct = true;
      v.schema_dependent = true;
      v.series = row;
    }
    result_ = std::move(v);
  }

  void VisitCall(const ExprNode&, const std::string& func,
                 const std::vector<ExprPtr>& series_args,
                 const std::vector<ExprPtr>& scalar_args) override {
    std::vector<AbsVal> args;
    args.reserve(series_args.size() + scalar_args.size());
    for (const auto& a : series_args) args.push_back(Eval(*a));
    for (const auto& a : scalar_args) args.push_back(Eval(*a));
    result_ = EvalCall(func, args, series_args.size() == 2);
  }

  void VisitUnary(const ExprNode&, UnOp op,
                  const ExprNode& operand) override {
    AbsVal inner = Eval(operand);
    AbsVal v;
    if (op == UnOp::kNeg) {
      v.range = Neg(inner.range);
      v.unit = inner.unit;
      v.direct = inner.direct;
      v.constant = inner.constant;
      v.schema_dependent = inner.schema_dependent;
    } else {
      v.range = TriRange(TriNot(Truth(inner.range)));
      v.schema_dependent = inner.schema_dependent;
    }
    result_ = std::move(v);
  }

  void VisitBinary(const ExprNode& node, BinOp op, const ExprNode& lhs,
                   const ExprNode& rhs) override {
    AbsVal l = Eval(lhs);
    AbsVal r = Eval(rhs);
    AbsVal v;
    v.constant = l.constant && r.constant;
    v.schema_dependent = l.schema_dependent || r.schema_dependent;
    switch (op) {
      case BinOp::kAdd:
      case BinOp::kSub:
        v.range = op == BinOp::kAdd ? Add(l.range, r.range)
                                    : Sub(l.range, r.range);
        CombineAdditiveUnits(node, op, lhs, rhs, l, r, v);
        break;
      case BinOp::kMul:
        v.range = Mul(l.range, r.range);
        // A constant factor scales a quantity without changing its unit —
        // knowledge the parser drops (hence direct = false).
        if (l.unit != Unit::kUnknown && r.constant) {
          v.unit = l.unit;
        } else if (r.unit != Unit::kUnknown && l.constant) {
          v.unit = r.unit;
        }
        break;
      case BinOp::kDiv:
        v.range = Div(l.range, r.range);
        if (l.unit != Unit::kUnknown && r.constant) v.unit = l.unit;
        break;
      case BinOp::kAnd:
        v.range = TriRange(TriAnd(Truth(l.range), Truth(r.range)));
        break;
      case BinOp::kOr:
        v.range = TriRange(TriOr(Truth(l.range), Truth(r.range)));
        break;
      default: {  // comparisons
        CmpOp cmp = ToCmpOp(op);
        Tri verdict = FoldCmp(cmp, l.range, r.range);
        if (cmps_ != nullptr) {
          cmps_->push_back(CmpRecord{&node, cmp, l, r, verdict});
        }
        if (clashes_ != nullptr && l.unit != Unit::kUnknown &&
            r.unit != Unit::kUnknown && l.unit != r.unit &&
            !(l.direct && r.direct)) {
          clashes_->push_back(
              UnitClash{&node, &lhs, &rhs, l.unit, r.unit, "comparing"});
        }
        v.range = TriRange(verdict);
        break;
      }
    }
    result_ = std::move(v);
  }

 private:
  /// Samples of `row` the window can hold; unbounded in pass 1.
  double SampleCap(const SeriesSchema* row) const {
    if (!bound_samples_ || row == nullptr) return kInf;
    return static_cast<double>(MaxSamplesInWindow(*row, opts_.window_ms));
  }

  /// `paired`: args[1] is a second series (element-wise functions).
  AbsVal EvalCall(const std::string& func, const std::vector<AbsVal>& args,
                  bool paired) {
    const AbsVal& s0 = args[0];
    AbsVal v;
    v.schema_dependent = s0.schema_dependent;
    // Keep the provenance row so window-budget findings (DL407) can name
    // the series and its cadence even through count()/sum() aggregates.
    v.series = s0.series;
    const double cap = SampleCap(s0.series);

    if (func == "min" || func == "max" || func == "mean" || func == "first" ||
        func == "last" || func == "p") {
      // Order statistics (and bucket means) stay inside the element range;
      // an empty window yields the 0.0 default, so the hull must include it.
      v.range = s0.range.HullWith(0);
      v.unit = s0.unit;
      v.direct = s0.direct;
    } else if (func == "argmin" || func == "argmax") {
      // An offset into the window; 0 when it is empty.
      v.range = {0, bound_samples_ ? opts_.window_ms : kInf};
      v.unit = Unit::kMs;
      v.direct = true;
      v.schema_dependent = bound_samples_;
    } else if (func == "stddev") {
      double spread = s0.range.hi - s0.range.lo;
      v.range = {0, std::isnan(spread) ? kInf : spread};
      v.unit = s0.unit;
      v.direct = s0.direct;
    } else if (func == "sum") {
      v.range = SumRange(s0.range, cap);
      v.unit = s0.unit;
      v.direct = s0.direct;
      v.schema_dependent = s0.schema_dependent || bound_samples_;
    } else if (func == "count" || func == "count_below" ||
               func == "count_above" || func == "count_gt" ||
               func == "pairs") {
      // Paired counts stop at the shorter series.
      const double n =
          paired ? std::min(cap, SampleCap(args[1].series)) : cap;
      v.range = {0, n};
      v.unit = Unit::kCount;
      v.direct = true;
      // The parser already knows count() is in [0, inf); only the cadence
      // cap is new knowledge.
      v.schema_dependent = bound_samples_;
    } else if (func == "has_drop" || func == "has_rise") {
      // A step needs two samples.
      v.range = cap < 2 ? Interval::Exact(0) : Interval{0, 1};
      v.schema_dependent = bound_samples_;
    } else if (func == "trend_up" || func == "trend_down") {
      // A trend needs at least two buckets of n samples each, so more than
      // n samples in the window. A non-constant n is assumed as small as 1.
      double n = 10;
      if (args.size() > 1) n = args[1].range.IsExact() ? args[1].range.lo : 1;
      v.range = !(n >= 1) || cap < std::floor(n) + 1 ? Interval::Exact(0)
                                                      : Interval{0, 1};
      v.schema_dependent = bound_samples_;
    } else {
      // Paired any_* / frac_gt, is_uplink and captured: booleans or a
      // fraction, decided by data the schema does not bound.
      v.range = {0, 1};
      if (paired) {
        v.schema_dependent =
            s0.schema_dependent || args[1].schema_dependent;
      }
    }
    return v;
  }

  static Interval SumRange(const Interval& elem, double cap) {
    auto scaled = [cap](double bound) {
      if (bound == 0) return 0.0;
      return bound * cap;
    };
    double lo = std::min(0.0, scaled(elem.lo));
    double hi = std::max(0.0, scaled(elem.hi));
    if (std::isnan(lo) || std::isnan(hi)) return {};
    return {lo, hi};
  }

  void CombineAdditiveUnits(const ExprNode& node, BinOp op,
                            const ExprNode& lhs, const ExprNode& rhs,
                            const AbsVal& l, const AbsVal& r, AbsVal& out) {
    if (l.unit != Unit::kUnknown && r.unit != Unit::kUnknown) {
      if (l.unit != r.unit) {
        if (clashes_ != nullptr && !(l.direct && r.direct)) {
          clashes_->push_back(UnitClash{&node, &lhs, &rhs, l.unit, r.unit,
                                        op == BinOp::kAdd ? "+" : "-"});
        }
        return;  // unit stays unknown
      }
      out.unit = l.unit;
      out.direct = l.direct && r.direct;
      return;
    }
    // A plain number offsets a quantity without changing its unit.
    const AbsVal& known = l.unit != Unit::kUnknown ? l : r;
    out.unit = known.unit;
    out.direct = known.direct;
  }

  const VerifyOptions& opts_;
  bool bound_samples_;
  std::vector<CmpRecord>* cmps_;
  std::vector<UnitClash>* clashes_;
  AbsVal result_;
};

// ---------------------------------------------------------------------------
// Condition normalization for chain implication (DL405)
// ---------------------------------------------------------------------------

/// Shallow classification of one AST node (no recursion).
struct NodeShape : ExprVisitor {
  enum Kind { kNum, kSeries, kCall, kUnary, kBinary } kind = kNum;
  double num = 0;
  BinOp bop = BinOp::kAdd;
  const ExprNode* lhs = nullptr;
  const ExprNode* rhs = nullptr;

  static NodeShape Of(const ExprNode& n) {
    NodeShape s;
    n.Accept(s);
    return s;
  }

  void VisitNumber(const ExprNode&, double value) override {
    kind = kNum;
    num = value;
  }
  void VisitSeries(const ExprNode&, const std::string&,
                   const std::string&) override {
    kind = kSeries;
  }
  void VisitCall(const ExprNode&, const std::string&,
                 const std::vector<ExprPtr>&,
                 const std::vector<ExprPtr>&) override {
    kind = kCall;
  }
  void VisitUnary(const ExprNode&, UnOp, const ExprNode&) override {
    kind = kUnary;
  }
  void VisitBinary(const ExprNode&, BinOp op, const ExprNode& l,
                   const ExprNode& r) override {
    kind = kBinary;
    bop = op;
    lhs = &l;
    rhs = &r;
  }
};

/// A condition as a conjunction of atoms: interval constraints on canonical
/// scalar quantities (keyed by ToPython, which is whitespace-stable across
/// differently-formatted sources) plus opaque boolean atoms matched by
/// structural equality.
struct NormalForm {
  std::map<std::string, Constraint> constraints;
  std::set<std::string> opaque;
};

void CollectConjuncts(const ExprNode& n, std::vector<const ExprNode*>& out) {
  NodeShape s = NodeShape::Of(n);
  if (s.kind == NodeShape::kBinary && s.bop == BinOp::kAnd) {
    CollectConjuncts(*s.lhs, out);
    CollectConjuncts(*s.rhs, out);
    return;
  }
  out.push_back(&n);
}

/// Exact constant value of a subexpression, when it is pure arithmetic
/// over literals.
bool ConstValue(const ExprNode& n, const VerifyOptions& opts, double& out) {
  AbstractEvaluator eval(opts, /*bound_samples=*/false, nullptr, nullptr);
  AbsVal v = eval.Eval(n);
  if (!v.constant || !v.range.IsExact()) return false;
  out = v.range.lo;
  return true;
}

NormalForm Normalize(const ExprNode& expr, const VerifyOptions& opts) {
  NormalForm nf;
  std::vector<const ExprNode*> conjuncts;
  CollectConjuncts(expr, conjuncts);
  for (const ExprNode* c : conjuncts) {
    NodeShape s = NodeShape::Of(*c);
    if (s.kind == NodeShape::kBinary && s.bop != BinOp::kAnd &&
        s.bop != BinOp::kOr && s.bop != BinOp::kAdd && s.bop != BinOp::kSub &&
        s.bop != BinOp::kMul && s.bop != BinOp::kDiv &&
        s.bop != BinOp::kNe) {
      CmpOp op = ToCmpOp(s.bop);
      double cval = 0;
      if (ConstValue(*s.rhs, opts, cval)) {
        std::string key = s.lhs->ToPython();
        Constraint con = Constraint::FromCmp(op, cval);
        auto [it, fresh] = nf.constraints.emplace(key, con);
        if (!fresh) it->second = it->second.Intersect(con);
        continue;
      }
      if (ConstValue(*s.lhs, opts, cval)) {
        std::string key = s.rhs->ToPython();
        Constraint con = Constraint::FromCmp(Mirror(op), cval);
        auto [it, fresh] = nf.constraints.emplace(key, con);
        if (!fresh) it->second = it->second.Intersect(con);
        continue;
      }
    }
    nf.opaque.insert(c->ToPython());
  }
  return nf;
}

/// Every window satisfying `stronger` satisfies `weaker`.
bool Implies(const NormalForm& stronger, const NormalForm& weaker) {
  for (const std::string& atom : weaker.opaque) {
    if (!stronger.opaque.count(atom)) return false;
  }
  for (const auto& [key, wc] : weaker.constraints) {
    auto it = stronger.constraints.find(key);
    if (it == stronger.constraints.end()) return false;
    if (!it->second.Implies(wc)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::string FormatNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Rebases an AST node's expression-local character range onto the config
/// file coordinates of the event definition that contains it.
SourceSpan NodeSpan(const ConfigEventDef& def, const ExprNode& node) {
  std::size_t begin = node.src_begin();
  std::size_t end = node.src_end();
  int len = end > begin ? static_cast<int>(end - begin) : 1;
  return {def.line, def.expr_col + static_cast<int>(begin), len};
}

std::string SideText(const ConfigEventDef& def, const ExprNode& node) {
  std::size_t begin = node.src_begin();
  std::size_t end = node.src_end();
  if (end > begin && end <= def.expr_text.size()) {
    return def.expr_text.substr(begin, end - begin);
  }
  return node.ToPython();
}

/// "max(fwd.owd_ms) is in [0, 10000] (milliseconds)".
std::string DescribeSide(const ConfigEventDef& def, const ExprNode& node,
                         const AbsVal& v) {
  std::string out = "'" + SideText(def, node) + "' is in " +
                    FormatInterval(v.range);
  if (v.unit != Unit::kUnknown) {
    out += " (";
    out += UnitName(v.unit);
    out += ")";
  }
  return out;
}

struct EventAnalysis {
  const ConfigEventDef* def = nullptr;
  Tri top_schema = Tri::kMaybe;    ///< Pass 1: schema ranges only.
  Tri top_window = Tri::kMaybe;    ///< Pass 2: + window sample budgets.
  std::vector<CmpRecord> cmps_schema;
  std::vector<CmpRecord> cmps_window;
  std::vector<UnitClash> clashes;
};

void ReportEvent(const EventAnalysis& ea, const VerifyOptions& opts,
                 bool parser_folded_line, DiagnosticSink& sink) {
  const ConfigEventDef& def = *ea.def;
  SourceSpan body{def.line, def.expr_col,
                  static_cast<int>(def.expr_text.size())};

  // DL403: unit clashes the parser's DL110 pass cannot see.
  for (const UnitClash& c : ea.clashes) {
    Diagnostic d;
    d.code = "DL403";
    d.severity = Severity::kWarning;
    d.span = NodeSpan(def, *c.node);
    d.message = std::string(c.what) + " mixes '" + SideText(def, *c.lhs) +
                "' (" + UnitName(c.lhs_unit) + ") with '" +
                SideText(def, *c.rhs) + "' (" + UnitName(c.rhs_unit) + ")";
    if (c.what == std::string("comparing")) {
      d.message = "comparing '" + SideText(def, *c.lhs) + "' (" +
                  UnitName(c.lhs_unit) + ") against '" +
                  SideText(def, *c.rhs) + "' (" + UnitName(c.rhs_unit) + ")";
    }
    d.detail = "units flow through */ arithmetic, which DL110 cannot track";
    sink.Add(std::move(d));
  }

  // DL401/DL402: the whole condition is decided by schema ranges alone.
  if (!parser_folded_line) {
    if (ea.top_schema == Tri::kFalse) {
      Diagnostic d;
      d.code = "DL401";
      d.severity = Severity::kError;
      d.span = body;
      d.message = "event '" + def.name +
                  "' is provably unsatisfiable: no telemetry window can "
                  "make this condition true";
      d.detail = "abstract value over the declared schema is [0, 0]";
      sink.Add(std::move(d));
      return;  // per-comparison findings are subsumed
    }
    if (ea.top_schema == Tri::kTrue) {
      Diagnostic d;
      d.code = "DL402";
      d.severity = Severity::kWarning;
      d.span = body;
      d.message = "event '" + def.name +
                  "' is a tautology: it fires on every window, so it "
                  "carries no diagnostic signal";
      d.detail = "abstract value over the declared schema is [1, 1]";
      sink.Add(std::move(d));
      return;
    }
  }

  // DL404: individual comparisons decided by physical ranges (the whole
  // condition stays data-dependent, e.g. behind an `or`).
  for (const CmpRecord& c : ea.cmps_schema) {
    if (c.verdict == Tri::kMaybe) continue;
    if (!c.lhs.schema_dependent && !c.rhs.schema_dependent) continue;
    Diagnostic d;
    d.code = "DL404";
    d.severity = Severity::kWarning;
    d.span = NodeSpan(def, *c.node);
    d.message =
        std::string("comparison is always ") +
        (c.verdict == Tri::kTrue ? "true" : "false") +
        " over the telemetry schema: the threshold is outside the "
        "physical range";
    d.detail = DescribeSide(def, *c.node, c.lhs) + "; right side in " +
               FormatInterval(c.rhs.range);
    sink.Add(std::move(d));
  }

  // DL407: decided only once the window's sample budget is applied.
  if (ea.top_window == Tri::kFalse && ea.top_schema == Tri::kMaybe) {
    Diagnostic d;
    d.code = "DL407";
    d.severity = Severity::kWarning;
    d.span = body;
    d.message = "event '" + def.name + "' can never fire inside a " +
                FormatNum(opts.window_ms) +
                " ms analysis window: too few samples can arrive at the "
                "streams' native cadence";
    d.detail = "widen the window or lower the sample threshold";
    sink.Add(std::move(d));
    return;
  }
  for (std::size_t i = 0; i < ea.cmps_window.size(); ++i) {
    const CmpRecord& w = ea.cmps_window[i];
    if (w.verdict == Tri::kMaybe) continue;
    if (i < ea.cmps_schema.size() &&
        ea.cmps_schema[i].verdict != Tri::kMaybe) {
      continue;  // already decided without the window bound (DL404 above)
    }
    const SeriesSchema* row =
        w.lhs.series != nullptr ? w.lhs.series : w.rhs.series;
    std::string budget;
    if (row != nullptr) {
      budget = "at most " +
               std::to_string(MaxSamplesInWindow(*row, opts.window_ms)) +
               " samples of '" + row->name + "' fit a " +
               FormatNum(opts.window_ms) + " ms window (cadence " +
               FormatNum(row->cadence_ms) + " ms)";
    } else {
      budget = "the window's sample budget decides this comparison";
    }
    Diagnostic d;
    d.code = "DL407";
    d.severity = Severity::kWarning;
    d.span = NodeSpan(def, *w.node);
    d.message = std::string("comparison is always ") +
                (w.verdict == Tri::kTrue ? "true" : "false") +
                " inside a " + FormatNum(opts.window_ms) +
                " ms window: " + budget;
    d.detail = "widen the window or adjust the threshold";
    sink.Add(std::move(d));
  }
}

void CheckRequiredStreams(const ConfigEventDef& def, DiagnosticSink& sink) {
  if (def.required_streams.empty()) return;
  StreamMask declared = 0;
  bool unknown = false;
  std::vector<std::string> known;
  for (std::size_t s = 0; s < telemetry::kStreamCount; ++s) {
    known.emplace_back(
        telemetry::StreamName(static_cast<telemetry::StreamId>(s)));
  }
  for (const std::string& name : def.required_streams) {
    auto id = StreamIdFromName(name);
    if (!id.has_value()) {
      std::string hint = DidYouMean(name, known);
      sink.Error("DL406", def.requires_span,
                 "unknown stream '" + name +
                     "' in requires clause (streams: dci, gnb_log, "
                     "packets, stats_ue, stats_remote)" +
                     DidYouMeanSuffix(hint),
                 hint);
      unknown = true;
      continue;
    }
    declared = static_cast<StreamMask>(
        declared | (1u << static_cast<unsigned>(*id)));
  }
  if (unknown || def.expr == nullptr) return;
  StreamMask inferred = static_cast<StreamMask>(
      InferStreamUse(*def.expr, 0) | InferStreamUse(*def.expr, 1));
  if (declared == inferred) return;
  Diagnostic d;
  d.code = "DL406";
  d.severity = Severity::kWarning;
  d.span = def.requires_span;
  d.message = "event '" + def.name + "' declares streams [" +
              StreamMaskNames(declared) +
              "] but its condition reads [" + StreamMaskNames(inferred) +
              "]";
  d.fixit = "requires " + StreamMaskNames(inferred);
  d.detail = "inferred from the series the expression references";
  sink.Add(std::move(d));
}

}  // namespace

void VerifyConfig(const DominoConfigFile& cfg, DiagnosticSink& sink,
                  const VerifyOptions& opts) {
  // Lines where the expression front-end already folded a comparison:
  // DL401/DL402 would re-state DL108/DL109 there.
  std::set<int> parser_folded;
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.code == "DL108" || d.code == "DL109") {
      parser_folded.insert(d.span.line);
    }
  }

  std::map<std::string, NormalForm> forms;  // custom event -> atoms
  for (const ConfigEventDef& def : cfg.events) {
    CheckRequiredStreams(def, sink);
    if (def.expr == nullptr) continue;

    EventAnalysis ea;
    ea.def = &def;
    {
      AbstractEvaluator eval(opts, /*bound_samples=*/false, &ea.cmps_schema,
                             &ea.clashes);
      ea.top_schema = Truth(eval.Eval(*def.expr).range);
    }
    {
      AbstractEvaluator eval(opts, /*bound_samples=*/true, &ea.cmps_window,
                             nullptr);
      ea.top_window = Truth(eval.Eval(*def.expr).range);
    }
    ReportEvent(ea, opts, parser_folded.count(def.line) > 0, sink);
    forms.emplace(def.name, Normalize(*def.expr, opts));
  }

  // DL405: a chain whose every position either names the same node as an
  // earlier chain or (for custom events) provably implies its counterpart
  // adds no windows beyond the earlier chain — it is shadowed.
  for (std::size_t j = 1; j < cfg.chains.size(); ++j) {
    const ConfigChainDef& later = cfg.chains[j];
    for (std::size_t i = 0; i < j; ++i) {
      const ConfigChainDef& earlier = cfg.chains[i];
      if (earlier.nodes.size() != later.nodes.size()) continue;
      if (earlier.nodes.empty()) continue;
      bool all_match = true;
      bool any_implied = false;
      std::string via;
      for (std::size_t k = 0; k < later.nodes.size(); ++k) {
        const std::string& a = earlier.nodes[k];
        const std::string& b = later.nodes[k];
        if (a == b) continue;
        auto fb = forms.find(b);
        auto fa = forms.find(a);
        if (fb == forms.end() || fa == forms.end() ||
            !Implies(fb->second, fa->second)) {
          all_match = false;
          break;
        }
        any_implied = true;
        if (!via.empty()) via += ", ";
        via += "'" + b + "' implies '" + a + "'";
      }
      if (!all_match || !any_implied) continue;
      Diagnostic d;
      d.code = "DL405";
      d.severity = Severity::kWarning;
      d.span = later.name_span;
      d.message = "chain '" + later.name +
                  "' is shadowed by chain '" + earlier.name + "' (line " +
                  std::to_string(earlier.line) +
                  "): every window it matches already matches the earlier "
                  "chain";
      d.detail = via;
      sink.Add(std::move(d));
      break;  // one shadow report per chain is enough
    }
  }
}

}  // namespace domino::analysis::lint
