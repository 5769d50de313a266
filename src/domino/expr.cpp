#include "domino/expr.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <utility>

#include "common/stats.h"
#include "domino/lint/schema.h"
#include "domino/lint/suggest.h"

namespace domino::analysis {

namespace {

using lint::DiagnosticSink;
using lint::SourceSpan;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string FormatNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class Tok {
  kEnd, kNumber, kIdent, kDot, kComma, kLParen, kRParen,
  kPlus, kMinus, kStar, kSlash,
  kLt, kGt, kLe, kGe, kEq, kNe,
  kAnd, kOr, kNot,
};

struct Token {
  Tok kind;
  double number = 0;
  std::string text;
  std::size_t pos = 0;  ///< 0-based offset into the expression source.
  std::size_t len = 1;
};

/// 1-based column span of a token (expressions are single-line; the config
/// layer rebases line/column onto file coordinates).
SourceSpan SpanOf(const Token& t) {
  return {1, static_cast<int>(t.pos) + 1, static_cast<int>(t.len)};
}

SourceSpan SpanBetween(std::size_t begin, std::size_t end) {
  return {1, static_cast<int>(begin) + 1,
          static_cast<int>(end > begin ? end - begin : 1)};
}

/// Tokenizer with two error modes: with a sink it emits a diagnostic and
/// resynchronizes (skips the offending characters); without one it throws
/// DslError with the 1-based column, the legacy behaviour.
class Lexer {
 public:
  Lexer(const std::string& src, DiagnosticSink* sink)
      : src_(src), sink_(sink) {
    Advance();
  }

  const Token& peek() const { return current_; }
  Token Take() {
    Token t = current_;
    Advance();
    return t;
  }

 private:
  void Fail(const std::string& code, SourceSpan span,
            const std::string& msg) {
    if (sink_ != nullptr) {
      sink_->Error(code, span, msg);
      return;
    }
    throw DslError(msg + " (column " + std::to_string(span.col) + ")");
  }

  void Advance() {
    for (;;) {
      while (i_ < src_.size() &&
             std::isspace(static_cast<unsigned char>(src_[i_]))) {
        ++i_;
      }
      current_ = Token{};
      current_.pos = i_;
      if (i_ >= src_.size()) {
        current_.kind = Tok::kEnd;
        current_.len = 0;
        return;
      }
      char c = src_[i_];
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '.' && i_ + 1 < src_.size() &&
           std::isdigit(static_cast<unsigned char>(src_[i_ + 1])))) {
        std::size_t end = i_;
        while (end < src_.size() &&
               (std::isdigit(static_cast<unsigned char>(src_[end])) ||
                src_[end] == '.' || src_[end] == 'e' || src_[end] == 'E' ||
                ((src_[end] == '+' || src_[end] == '-') && end > i_ &&
                 (src_[end - 1] == 'e' || src_[end - 1] == 'E')))) {
          ++end;
        }
        current_.kind = Tok::kNumber;
        current_.len = end - i_;
        // Exception-free parse: a malformed literal is DL002, one whose
        // magnitude over/underflows double (e.g. 1e99999) is DL005.
        const std::string lit = src_.substr(i_, end - i_);
        char* endp = nullptr;
        errno = 0;
        double v = std::strtod(lit.c_str(), &endp);
        if (endp != lit.c_str() + lit.size()) {
          Fail("DL002", SpanBetween(i_, end),
               "bad number literal '" + lit + "'");
          v = 0;  // recovered placeholder
        } else if (errno == ERANGE || !std::isfinite(v)) {
          Fail("DL005", SpanBetween(i_, end),
               "number literal '" + lit + "' is out of range for a double");
          v = 0;  // recovered placeholder
        }
        current_.number = v;
        i_ = end;
        return;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::size_t end = i_;
        while (end < src_.size() &&
               (std::isalnum(static_cast<unsigned char>(src_[end])) ||
                src_[end] == '_')) {
          ++end;
        }
        std::string word = src_.substr(i_, end - i_);
        current_.len = end - i_;
        i_ = end;
        if (word == "and") {
          current_.kind = Tok::kAnd;
        } else if (word == "or") {
          current_.kind = Tok::kOr;
        } else if (word == "not") {
          current_.kind = Tok::kNot;
        } else {
          current_.kind = Tok::kIdent;
          current_.text = word;
        }
        return;
      }
      auto two = [&](char next) {
        return i_ + 1 < src_.size() && src_[i_ + 1] == next;
      };
      switch (c) {
        case '.': current_.kind = Tok::kDot; ++i_; return;
        case ',': current_.kind = Tok::kComma; ++i_; return;
        case '(': current_.kind = Tok::kLParen; ++i_; return;
        case ')': current_.kind = Tok::kRParen; ++i_; return;
        case '+': current_.kind = Tok::kPlus; ++i_; return;
        case '-': current_.kind = Tok::kMinus; ++i_; return;
        case '*': current_.kind = Tok::kStar; ++i_; return;
        case '/': current_.kind = Tok::kSlash; ++i_; return;
        case '<':
          if (two('=')) { current_.kind = Tok::kLe; current_.len = 2; i_ += 2; }
          else { current_.kind = Tok::kLt; ++i_; }
          return;
        case '>':
          if (two('=')) { current_.kind = Tok::kGe; current_.len = 2; i_ += 2; }
          else { current_.kind = Tok::kGt; ++i_; }
          return;
        case '=':
          if (two('=')) { current_.kind = Tok::kEq; current_.len = 2; i_ += 2;
                          return; }
          break;
        case '!':
          if (two('=')) { current_.kind = Tok::kNe; current_.len = 2; i_ += 2;
                          return; }
          break;
        default:
          break;
      }
      // Unrecognized character: collapse a contiguous run into one
      // diagnostic, skip it, and try again from the next character.
      std::size_t end = i_;
      auto recognizable = [&](char ch) {
        return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
               std::isspace(static_cast<unsigned char>(ch)) ||
               std::string(".,()+-*/<>=!").find(ch) != std::string::npos;
      };
      while (end < src_.size() && !recognizable(src_[end])) ++end;
      if (end == i_) ++end;  // '=' or '!' not followed by '='
      Fail("DL001", SpanBetween(i_, end),
           "unexpected character" + std::string(end - i_ > 1 ? "s '" : " '") +
               src_.substr(i_, end - i_) + "'");
      i_ = end;  // sink mode: resynchronize and keep lexing
    }
  }

  const std::string& src_;
  DiagnosticSink* sink_;
  std::size_t i_ = 0;
  Token current_;
};

// ---------------------------------------------------------------------------
// AST nodes
// ---------------------------------------------------------------------------

class NumberNode : public ExprNode {
 public:
  explicit NumberNode(double v) : v_(v) {}
  double EvalScalar(const WindowContext&) const override { return v_; }
  std::string ToPython() const override { return DslLiteral(v_); }
  void Accept(ExprVisitor& v) const override { v.VisitNumber(*this, v_); }

 private:
  double v_;
};

/// Scope tokens, in KnownScopes() order.
enum class Scope : std::uint8_t { kFwd, kRev, kUl, kDl, kSender, kReceiver,
                                  kUe, kRemote };
constexpr const char* kScopeNames[] = {"fwd",    "rev",      "ul", "dl",
                                       "sender", "receiver", "ue", "remote"};

/// A `scope.name` reference, bound at parse time to its scope kind and the
/// DerivedTrace member its schema row names, so evaluation never compares
/// strings.
class SeriesNode : public ExprNode {
 public:
  SeriesNode(Scope scope, const lint::SeriesSchema& row)
      : scope_(scope), row_(&row) {}

  double EvalScalar(const WindowContext&) const override {
    throw DslError("series '" + Name() +
                   "' used where a scalar was expected");
  }

  [[nodiscard]] const TimeSeries<double>& Resolve(
      const WindowContext& ctx) const {
    const telemetry::DerivedTrace& t = ctx.trace();
    switch (scope_) {
      case Scope::kFwd: return ctx.Dir(PathLeg::kFwd).*row_->dir_member;
      case Scope::kRev: return ctx.Dir(PathLeg::kRev).*row_->dir_member;
      case Scope::kUl: return t.dir[0].*row_->dir_member;
      case Scope::kDl: return t.dir[1].*row_->dir_member;
      case Scope::kSender: return ctx.Sender().*row_->client_member;
      case Scope::kReceiver: return ctx.Receiver().*row_->client_member;
      case Scope::kUe: return t.client[0].*row_->client_member;
      case Scope::kRemote: break;
    }
    return t.client[1].*row_->client_member;
  }

  /// A 5G direction series on the uplink in this window's perspective.
  [[nodiscard]] bool IsUplink(const WindowContext& ctx) const {
    if (!IsLeg()) return scope_ == Scope::kUl;
    return ctx.DirIndex(scope_ == Scope::kFwd ? PathLeg::kFwd
                                              : PathLeg::kRev) == 0;
  }
  /// The capture carries the series' source stream; only the gNB log can
  /// be missing (DerivedTrace::has_gnb_log).
  [[nodiscard]] bool Captured(const WindowContext& ctx) const {
    return !FromGnbLog() || ctx.trace().has_gnb_log;
  }

  // Python for the values, sample times, IsUplink() and Captured() (the
  // window contract in codegen.h).
  std::string ToPython() const override { return "w[\"" + Name() + "\"]"; }
  [[nodiscard]] std::string TimesPython() const {
    return "w[\"" + Name() + "@t\"]";
  }
  [[nodiscard]] std::string IsUplinkPython() const {
    if (IsLeg()) return "w[\"" + ScopeName() + ".is_uplink\"]";
    return scope_ == Scope::kUl ? "True" : "False";
  }
  [[nodiscard]] std::string CapturedPython() const {
    return FromGnbLog() ? "w[\"has_gnb_log\"]" : "True";
  }

  void Accept(ExprVisitor& v) const override {
    v.VisitSeries(*this, ScopeName(), row_->name);
  }

 private:
  [[nodiscard]] bool IsLeg() const {
    return scope_ == Scope::kFwd || scope_ == Scope::kRev;
  }
  [[nodiscard]] bool FromGnbLog() const {
    return row_->source == lint::SourceFeed::kGnbLog;
  }
  [[nodiscard]] std::string ScopeName() const {
    return kScopeNames[static_cast<std::size_t>(scope_)];
  }
  [[nodiscard]] std::string Name() const {
    return ScopeName() + "." + row_->name;
  }

  Scope scope_;
  const lint::SeriesSchema* row_;
};

enum class Func {
  kMin, kMax, kMean, kStdDev, kSum, kCount, kFirst, kLast, kArgMin, kArgMax,
  kPercentile, kCountBelow, kCountAbove, kHasDrop, kHasRise, kTrendUp,
  kTrendDown, kFracGt, kCountGt, kPairs, kAnyGt, kAnyLt, kAnyOverCap,
  kAnyMismatch, kIsUplink, kCaptured,
};

/// What a call yields, for the front-end's range/unit synthesis.
enum class Yields : std::uint8_t {
  kSeriesUnit,  ///< A value in the first series' unit (min, p, sum, ...).
  kCount,       ///< A count: [0, inf), unit count.
  kMs,          ///< A window offset: [0, inf) milliseconds.
  kFraction,    ///< [0, 1], unitless.
  kBool,        ///< A truth value.
};

struct FuncInfo {
  Func id;
  const char* name;
  Yields yields;
  int series_args;        ///< Leading series arguments.
  int scalar_args;        ///< Required trailing scalar arguments.
  int optional_args = 0;  ///< Scalar arguments that may follow them.
};

constexpr FuncInfo kFuncs[] = {
    {Func::kMin, "min", Yields::kSeriesUnit, 1, 0},
    {Func::kMax, "max", Yields::kSeriesUnit, 1, 0},
    {Func::kMean, "mean", Yields::kSeriesUnit, 1, 0},
    {Func::kStdDev, "stddev", Yields::kSeriesUnit, 1, 0},
    {Func::kSum, "sum", Yields::kSeriesUnit, 1, 0},
    {Func::kFirst, "first", Yields::kSeriesUnit, 1, 0},
    {Func::kLast, "last", Yields::kSeriesUnit, 1, 0},
    {Func::kCount, "count", Yields::kCount, 1, 0, 1},
    {Func::kArgMin, "argmin", Yields::kMs, 1, 0},
    {Func::kArgMax, "argmax", Yields::kMs, 1, 0},
    {Func::kPercentile, "p", Yields::kSeriesUnit, 1, 1, 1},
    {Func::kCountBelow, "count_below", Yields::kCount, 1, 1, 1},
    {Func::kCountAbove, "count_above", Yields::kCount, 1, 1, 1},
    {Func::kHasDrop, "has_drop", Yields::kBool, 1, 0, 1},
    {Func::kHasRise, "has_rise", Yields::kBool, 1, 0},
    {Func::kTrendUp, "trend_up", Yields::kBool, 1, 0, 2},
    {Func::kTrendDown, "trend_down", Yields::kBool, 1, 0},
    {Func::kFracGt, "frac_gt", Yields::kFraction, 2, 0},
    {Func::kCountGt, "count_gt", Yields::kCount, 2, 0},
    {Func::kPairs, "pairs", Yields::kCount, 2, 0},
    {Func::kAnyGt, "any_gt", Yields::kBool, 2, 0},
    {Func::kAnyLt, "any_lt", Yields::kBool, 2, 0, 1},
    {Func::kAnyOverCap, "any_over_cap", Yields::kBool, 2, 0},
    {Func::kAnyMismatch, "any_mismatch", Yields::kBool, 2, 1},
    {Func::kIsUplink, "is_uplink", Yields::kBool, 1, 0},
    {Func::kCaptured, "captured", Yields::kBool, 1, 0},
};

const FuncInfo* FindFunc(const std::string& name) {
  for (const auto& f : kFuncs) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

/// Offset of `t` from the window start in milliseconds.
double MsSince(Time begin, Time t) {
  return static_cast<double>((t - begin).micros()) / 1000.0;
}

class FuncNode : public ExprNode {
 public:
  FuncNode(const FuncInfo& info, std::vector<ExprPtr> series,
           std::vector<ExprPtr> scalars)
      : info_(info), series_(std::move(series)), scalars_(std::move(scalars)) {}

  double EvalScalar(const WindowContext& ctx) const override {
    // Aggregates ride the window aggregates (O(1) amortised under the
    // incremental engine); the rest scan the window's view.
    const TimeSeries<double>& src = Series(0).Resolve(ctx);
    switch (info_.id) {
      case Func::kMin:
      case Func::kMax:
      case Func::kMean:
      case Func::kArgMin:
      case Func::kArgMax:
        if (ctx.SeriesCount(src) == 0) return 0.0;  // empty-window default
        if (info_.id == Func::kMin) return ctx.SeriesMin(src);
        if (info_.id == Func::kMax) return ctx.SeriesMax(src);
        if (info_.id == Func::kMean) return ctx.SeriesMean(src);
        return MsSince(ctx.begin(), info_.id == Func::kArgMin
                                        ? ctx.SeriesArgMin(src)
                                        : ctx.SeriesArgMax(src));
      case Func::kSum:
        return ctx.SeriesSum(src);
      case Func::kCount:
        if (TimeBucketed()) {
          return static_cast<double>(Buckets(ctx, src).size());
        }
        return static_cast<double>(ctx.SeriesCount(src));
      case Func::kCountBelow:
      case Func::kCountAbove: {
        const double x = Arg(ctx, 0, 0.0);
        const CountOp op =
            info_.id == Func::kCountBelow ? CountOp::kBelow : CountOp::kAbove;
        if (!TimeBucketed()) {
          return static_cast<double>(ctx.SeriesCountCmp(src, op, x));
        }
        std::size_t n = 0;
        for (double b : Buckets(ctx, src)) {
          if (op == CountOp::kBelow ? b < x : b > x) ++n;
        }
        return static_cast<double>(n);
      }
      case Func::kPercentile: {
        const double q = Arg(ctx, 0, 0.0);
        if (TimeBucketed()) return Percentile(Buckets(ctx, src), q);
        std::span<const double> v = ctx.View(src).values();
        return Percentile(std::vector<double>(v.begin(), v.end()), q);
      }
      case Func::kPairs:
        return static_cast<double>(std::min(
            ctx.SeriesCount(src), ctx.SeriesCount(Series(1).Resolve(ctx))));
      case Func::kIsUplink:
        return Series(0).IsUplink(ctx) ? 1.0 : 0.0;
      case Func::kCaptured:
        return Series(0).Captured(ctx) ? 1.0 : 0.0;
      default:
        break;
    }
    std::span<const double> v = ctx.View(src).values();
    switch (info_.id) {
      case Func::kStdDev:
        if (v.size() < 2) return 0.0;
        return StdDev(std::vector<double>(v.begin(), v.end()));
      case Func::kFirst:
        return v.empty() ? 0.0 : v.front();
      case Func::kLast:
        return v.empty() ? 0.0 : v.back();
      case Func::kHasDrop:
      case Func::kHasRise: {
        // Exactly `next < prev` at the default f = 0 (x * 1.0 == x).
        const bool drop = info_.id == Func::kHasDrop;
        const double k = drop ? 1.0 - Arg(ctx, 0, 0.0) : 1.0;
        for (std::size_t i = 0; i + 1 < v.size(); ++i) {
          if (drop ? v[i + 1] < v[i] * k : v[i + 1] > v[i] * k) return 1.0;
        }
        return 0.0;
      }
      case Func::kTrendUp:
      case Func::kTrendDown: {
        const double n = Arg(ctx, 0, 10.0);
        const double k = Arg(ctx, 1, 1.0);
        if (!(n >= 1) || n > 1e15) return 0.0;  // no whole bucket
        auto m = BucketMeans(ctx.View(src), static_cast<std::size_t>(n));
        const bool up = info_.id == Func::kTrendUp;
        for (std::size_t j = 0; j + 1 < m.size(); ++j) {
          if (up ? m[j + 1] > m[j] * k : m[j + 1] < m[j] * k) return 1.0;
        }
        return 0.0;
      }
      default:
        break;
    }
    // Paired element-wise functions: the first min(count) samples of each.
    std::span<const double> b = ctx.View(Series(1).Resolve(ctx)).values();
    const std::size_t n = std::min(v.size(), b.size());
    std::size_t hits = 0;
    const double k = Arg(ctx, 0, info_.id == Func::kAnyMismatch ? 0.0 : 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      switch (info_.id) {
        case Func::kAnyLt: hits += v[i] < k * b[i]; break;
        case Func::kAnyOverCap: hits += b[i] > 0 && v[i] > b[i]; break;
        case Func::kAnyMismatch: hits += std::fabs(v[i] - b[i]) > k * v[i];
          break;
        case Func::kAnyGt: hits += v[i] > k * b[i]; break;
        default: hits += v[i] > b[i]; break;  // frac_gt, count_gt
      }
      if (hits > 0 && info_.yields == Yields::kBool) return 1.0;
    }
    if (info_.id == Func::kFracGt) {
      return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
    }
    return static_cast<double>(hits);
  }

  std::string ToPython() const override {
    const SeriesNode& s0 = Series(0);
    switch (info_.id) {
      case Func::kIsUplink:
        return s0.IsUplinkPython();
      case Func::kCaptured:
        return s0.CapturedPython();
      case Func::kArgMin:
      case Func::kArgMax:
        return Call(s0.ToPython() + ", " + s0.TimesPython());
      default:
        break;
    }
    if (TimeBucketed()) {
      // The width (last argument) feeds _time_buckets, not the function.
      std::string lead = "_time_buckets(" + s0.ToPython() + ", " +
                         s0.TimesPython() + ", " +
                         scalars_.back()->ToPython() + ")";
      for (std::size_t i = 0; i + 1 < scalars_.size(); ++i) {
        lead += ", " + scalars_[i]->ToPython();
      }
      return std::string("dsl_") + info_.name + "(" + lead + ")";
    }
    std::string args;
    for (const auto& a : series_) {
      if (!args.empty()) args += ", ";
      args += a->ToPython();
    }
    return Call(args);
  }

  void Accept(ExprVisitor& v) const override {
    v.VisitCall(*this, info_.name, series_, scalars_);
  }

 private:
  /// Series arguments are always `scope.name` references (the parser
  /// rejects anything else).
  [[nodiscard]] const SeriesNode& Series(std::size_t i) const {
    return static_cast<const SeriesNode&>(*series_[i]);
  }

  /// Scalar argument i, or `def` when the optional argument was omitted.
  [[nodiscard]] double Arg(const WindowContext& ctx, std::size_t i,
                           double def) const {
    return i < scalars_.size() ? scalars_[i]->EvalScalar(ctx) : def;
  }

  /// count, count_below, count_above or p given a bucket width (the
  /// optional last argument): they read time-bucket means.
  [[nodiscard]] bool TimeBucketed() const {
    return info_.yields != Yields::kBool && info_.optional_args > 0 &&
           scalars_.size() > static_cast<std::size_t>(info_.scalar_args);
  }

  /// Means of the window's time buckets, width = the last scalar (ms).
  [[nodiscard]] std::vector<double> Buckets(const WindowContext& ctx,
                                            const TimeSeries<double>& s) const {
    const double us = std::round(scalars_.back()->EvalScalar(ctx) * 1000.0);
    if (!(us >= 1) || us > 9e15) return {};
    return ctx.SeriesTimeBuckets(s, Micros(static_cast<std::int64_t>(us)));
  }

  /// "dsl_<name>(<lead>, <scalar args>)".
  [[nodiscard]] std::string Call(std::string lead) const {
    for (std::size_t i = 0; i < scalars_.size(); ++i) {
      if (!lead.empty()) lead += ", ";
      lead += scalars_[i]->ToPython();
    }
    return std::string("dsl_") + info_.name + "(" + lead + ")";
  }

  FuncInfo info_;
  std::vector<ExprPtr> series_;
  std::vector<ExprPtr> scalars_;
};

class UnaryNode : public ExprNode {
 public:
  enum Op { kNeg, kNot };
  UnaryNode(Op op, ExprPtr inner) : op_(op), inner_(std::move(inner)) {}

  double EvalScalar(const WindowContext& ctx) const override {
    double v = inner_->EvalScalar(ctx);
    return op_ == kNeg ? -v : (v == 0.0 ? 1.0 : 0.0);
  }
  std::string ToPython() const override {
    return op_ == kNeg ? "(-" + inner_->ToPython() + ")"
                       : "(not " + inner_->ToPython() + ")";
  }

  void Accept(ExprVisitor& v) const override {
    v.VisitUnary(*this, op_ == kNeg ? UnOp::kNeg : UnOp::kNot, *inner_);
  }

 private:
  Op op_;
  ExprPtr inner_;
};

class BinaryNode : public ExprNode {
 public:
  BinaryNode(Tok op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  double EvalScalar(const WindowContext& ctx) const override {
    // Short-circuit logical operators.
    if (op_ == Tok::kAnd) {
      return lhs_->EvalScalar(ctx) != 0.0 && rhs_->EvalScalar(ctx) != 0.0
                 ? 1.0
                 : 0.0;
    }
    if (op_ == Tok::kOr) {
      return lhs_->EvalScalar(ctx) != 0.0 || rhs_->EvalScalar(ctx) != 0.0
                 ? 1.0
                 : 0.0;
    }
    double a = lhs_->EvalScalar(ctx);
    double b = rhs_->EvalScalar(ctx);
    switch (op_) {
      case Tok::kPlus: return a + b;
      case Tok::kMinus: return a - b;
      case Tok::kStar: return a * b;
      case Tok::kSlash: return b == 0.0 ? 0.0 : a / b;
      case Tok::kLt: return a < b ? 1.0 : 0.0;
      case Tok::kGt: return a > b ? 1.0 : 0.0;
      case Tok::kLe: return a <= b ? 1.0 : 0.0;
      case Tok::kGe: return a >= b ? 1.0 : 0.0;
      case Tok::kEq: return a == b ? 1.0 : 0.0;
      case Tok::kNe: return a != b ? 1.0 : 0.0;
      default: throw DslError("internal: bad binary operator");
    }
  }

  std::string ToPython() const override {
    static const std::map<Tok, std::string> kOps = {
        {Tok::kPlus, "+"}, {Tok::kMinus, "-"}, {Tok::kStar, "*"},
        {Tok::kSlash, "/"}, {Tok::kLt, "<"}, {Tok::kGt, ">"},
        {Tok::kLe, "<="}, {Tok::kGe, ">="}, {Tok::kEq, "=="},
        {Tok::kNe, "!="}, {Tok::kAnd, "and"}, {Tok::kOr, "or"},
    };
    std::string out = "(";
    out += lhs_->ToPython();
    out += " ";
    out += kOps.at(op_);
    out += " ";
    out += rhs_->ToPython();
    out += ")";
    return out;
  }

  void Accept(ExprVisitor& v) const override {
    v.VisitBinary(*this, ToBinOp(op_), *lhs_, *rhs_);
  }

 private:
  static BinOp ToBinOp(Tok op) {
    switch (op) {
      case Tok::kPlus: return BinOp::kAdd;
      case Tok::kMinus: return BinOp::kSub;
      case Tok::kStar: return BinOp::kMul;
      case Tok::kSlash: return BinOp::kDiv;
      case Tok::kLt: return BinOp::kLt;
      case Tok::kGt: return BinOp::kGt;
      case Tok::kLe: return BinOp::kLe;
      case Tok::kGe: return BinOp::kGe;
      case Tok::kEq: return BinOp::kEq;
      case Tok::kNe: return BinOp::kNe;
      case Tok::kAnd: return BinOp::kAnd;
      default: return BinOp::kOr;
    }
  }

  Tok op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

// ---------------------------------------------------------------------------
// Series name resolution. Units and ranges come from the declared telemetry
// schema (lint/schema.h) — the single source of truth shared with the
// domino-verify pass.
// ---------------------------------------------------------------------------

using Unit = lint::Unit;
using lint::UnitName;

// ---------------------------------------------------------------------------
// Parser with bottom-up semantic synthesis
// ---------------------------------------------------------------------------

/// Interval bound on an expression's value, for constant folding:
/// comparisons whose operand intervals cannot overlap (or always must) are
/// tautological/unsatisfiable predicates.
struct ValueRange {
  double lo = -kInf;
  double hi = kInf;
  bool known = false;
};

ValueRange KnownRange(double lo, double hi) { return {lo, hi, true}; }

std::string FormatRange(const ValueRange& r) {
  std::string out = "[";
  out += FormatNum(r.lo);
  out += ", ";
  out += FormatNum(r.hi);
  out += "]";
  return out;
}

/// Annotated subexpression: the AST plus everything the semantic checker
/// synthesizes bottom-up. `poisoned` marks recovered-from errors so one
/// mistake does not cascade into follow-on diagnostics.
struct Ann {
  ExprPtr expr;
  bool series = false;
  bool boolean = false;
  bool poisoned = false;
  ValueRange range;
  Unit unit = Unit::kUnknown;
  std::string unit_src;  ///< e.g. "fwd.owd_ms", for unit-mismatch messages.
  std::size_t begin = 0;
  std::size_t end = 0;
};

class Parser {
 public:
  Parser(const std::string& src, DiagnosticSink* sink,
         const InputLimits& limits = {}, bool swap_legs = false)
      : src_(src),
        lexer_(src, sink),
        sink_(sink),
        limits_(limits),
        swap_legs_(swap_legs) {}

  Ann Parse() {
    Ann e = ParseOr();
    if (lexer_.peek().kind != Tok::kEnd) {
      Error("DL004", SpanBetween(lexer_.peek().pos, src_.size()),
            "unexpected trailing input");
      while (lexer_.peek().kind != Tok::kEnd) lexer_.Take();
      e.poisoned = true;
    }
    return e;
  }

 private:
  /// In sink mode records the diagnostic and returns (the caller recovers);
  /// in legacy mode throws DslError carrying the 1-based column.
  void Error(const char* code, SourceSpan span, const std::string& msg,
             std::string fixit = "") {
    if (sink_ != nullptr) {
      sink_->Error(code, span, msg, std::move(fixit));
      return;
    }
    throw DslError(msg + " (column " + std::to_string(span.col) + ")");
  }

  void Warn(const char* code, SourceSpan span, const std::string& msg,
            std::string fixit = "") {
    // Warnings exist only for the lint front-end; the legacy throwing path
    // has always accepted these expressions and must keep doing so.
    if (sink_ != nullptr) sink_->Warning(code, span, msg, std::move(fixit));
  }

  std::string Text(const Ann& a) const {
    return src_.substr(a.begin, a.end - a.begin);
  }

  static SourceSpan SpanOfAnn(const Ann& a) {
    return SpanBetween(a.begin, a.end);
  }

  static Ann Poisoned(std::size_t begin, std::size_t end, bool series) {
    Ann a;
    auto node = std::make_shared<NumberNode>(0.0);
    node->SetSrcRange(begin, end);
    a.expr = node;
    a.series = series;
    a.poisoned = true;
    a.begin = begin;
    a.end = end;
    return a;
  }

  /// Series where a scalar is required (operators, conditions). Emits DL105
  /// with a wrap-in-aggregate fix-it and poisons the operand.
  void RequireScalar(Ann& a, const std::string& where) {
    if (!a.series || a.poisoned) return;
    Error("DL105", SpanOfAnn(a),
          "series '" + Text(a) + "' used where a scalar was expected (" +
              where + "); wrap it in an aggregate like max() or mean()",
          "max(" + Text(a) + ")");
    a.series = false;
    a.poisoned = true;
  }

  /// Recursion/size budget (DL006). The grammar recurses through ParseOr
  /// (parenthesized groups, call arguments) and ParseUnary (chained
  /// unary operators); both check the depth budget on entry. On a blown
  /// budget the rest of the input is skipped — a pathological expression
  /// must cost O(len) work and O(max_expr_depth) stack, never a stack
  /// overflow or an exponential diagnostic cascade.
  bool EnterBudgeted(std::size_t pos) {
    ++nodes_;
    if (depth_ < limits_.max_expr_depth && nodes_ <= limits_.max_expr_nodes) {
      ++depth_;
      return true;
    }
    if (!budget_blown_) {
      budget_blown_ = true;
      Error("DL006", SpanBetween(pos, src_.size()),
            depth_ >= limits_.max_expr_depth
                ? "expression nests deeper than " +
                      std::to_string(limits_.max_expr_depth) + " levels"
                : "expression has more than " +
                      std::to_string(limits_.max_expr_nodes) + " nodes");
    }
    while (lexer_.peek().kind != Tok::kEnd) lexer_.Take();
    return false;
  }
  void LeaveBudgeted() { --depth_; }

  Ann ParseOr() {
    if (!EnterBudgeted(lexer_.peek().pos)) {
      return Poisoned(lexer_.peek().pos, src_.size(), false);
    }
    Ann lhs = ParseAnd();
    while (lexer_.peek().kind == Tok::kOr) {
      Token op = lexer_.Take();
      lhs = MakeBinary(Tok::kOr, op, std::move(lhs), ParseAnd());
    }
    LeaveBudgeted();
    return lhs;
  }

  Ann ParseAnd() {
    Ann lhs = ParseCmp();
    while (lexer_.peek().kind == Tok::kAnd) {
      Token op = lexer_.Take();
      lhs = MakeBinary(Tok::kAnd, op, std::move(lhs), ParseCmp());
    }
    return lhs;
  }

  Ann ParseCmp() {
    Ann lhs = ParseSum();
    Tok k = lexer_.peek().kind;
    if (k == Tok::kLt || k == Tok::kGt || k == Tok::kLe || k == Tok::kGe ||
        k == Tok::kEq || k == Tok::kNe) {
      Token op = lexer_.Take();
      return MakeBinary(k, op, std::move(lhs), ParseSum());
    }
    return lhs;
  }

  Ann ParseSum() {
    Ann lhs = ParseProd();
    for (;;) {
      Tok k = lexer_.peek().kind;
      if (k != Tok::kPlus && k != Tok::kMinus) return lhs;
      Token op = lexer_.Take();
      lhs = MakeBinary(k, op, std::move(lhs), ParseProd());
    }
  }

  Ann ParseProd() {
    Ann lhs = ParseUnary();
    for (;;) {
      Tok k = lexer_.peek().kind;
      if (k != Tok::kStar && k != Tok::kSlash) return lhs;
      Token op = lexer_.Take();
      lhs = MakeBinary(k, op, std::move(lhs), ParseUnary());
    }
  }

  Ann ParseUnary() {
    if (!EnterBudgeted(lexer_.peek().pos)) {
      return Poisoned(lexer_.peek().pos, src_.size(), false);
    }
    Ann out = ParseUnaryInner();
    LeaveBudgeted();
    return out;
  }

  Ann ParseUnaryInner() {
    if (lexer_.peek().kind == Tok::kMinus) {
      Token op = lexer_.Take();
      Ann inner = ParseUnary();
      RequireScalar(inner, "operand of unary '-'");
      Ann out;
      auto node = std::make_shared<UnaryNode>(UnaryNode::kNeg, inner.expr);
      node->SetSrcRange(op.pos, inner.end);
      out.expr = node;
      out.poisoned = inner.poisoned;
      if (inner.range.known) {
        out.range = KnownRange(-inner.range.hi, -inner.range.lo);
      }
      out.unit = inner.unit;
      out.unit_src = inner.unit_src;
      out.begin = op.pos;
      out.end = inner.end;
      return out;
    }
    if (lexer_.peek().kind == Tok::kNot) {
      Token op = lexer_.Take();
      Ann inner = ParseUnary();
      RequireScalar(inner, "operand of 'not'");
      Ann out;
      auto node = std::make_shared<UnaryNode>(UnaryNode::kNot, inner.expr);
      node->SetSrcRange(op.pos, inner.end);
      out.expr = node;
      out.poisoned = inner.poisoned;
      out.boolean = true;
      out.range = KnownRange(0, 1);
      out.begin = op.pos;
      out.end = inner.end;
      return out;
    }
    return ParsePrimary();
  }

  Ann ParsePrimary() {
    for (;;) {
      Token t = lexer_.peek();
      switch (t.kind) {
        case Tok::kNumber: {
          lexer_.Take();
          Ann a;
          auto node = std::make_shared<NumberNode>(t.number);
          node->SetSrcRange(t.pos, t.pos + t.len);
          a.expr = node;
          a.range = KnownRange(t.number, t.number);
          a.begin = t.pos;
          a.end = t.pos + t.len;
          return a;
        }
        case Tok::kLParen: {
          lexer_.Take();
          Ann e = ParseOr();
          e.begin = t.pos;
          e.end = ExpectClose(e.end);
          return e;
        }
        case Tok::kIdent:
          lexer_.Take();
          return ParseIdent(t);
        default:
          Error("DL003", SpanOf(t.kind == Tok::kEnd
                                    ? Token{Tok::kEnd, 0, "", src_.size(), 0}
                                    : t),
                "expected an expression");
          if (t.kind == Tok::kEnd) {
            return Poisoned(src_.size(), src_.size(), false);
          }
          lexer_.Take();  // sink mode: skip the offender and retry
      }
    }
  }

  /// Expects ')' and returns the offset just past it (or `fallback_end` when
  /// recovering from a missing one).
  std::size_t ExpectClose(std::size_t fallback_end) {
    if (lexer_.peek().kind == Tok::kRParen) {
      Token r = lexer_.Take();
      return r.pos + r.len;
    }
    Error("DL003", SpanOf(lexer_.peek()), "expected ')'");
    return fallback_end;
  }

  Ann ParseIdent(const Token& ident) {
    if (lexer_.peek().kind == Tok::kDot) {
      lexer_.Take();
      return ParseSeriesRef(ident);
    }
    const FuncInfo* fn = FindFunc(ident.text);
    if (fn == nullptr) {
      std::vector<std::string> candidates;
      for (const auto& f : kFuncs) candidates.emplace_back(f.name);
      for (const auto& s : KnownScopes()) candidates.push_back(s);
      std::string hint = lint::DidYouMean(ident.text, candidates);
      Error("DL103", SpanOf(ident),
            "unknown function or scope '" + ident.text + "'" +
                lint::DidYouMeanSuffix(hint),
            hint);
      // Recovery: swallow a call-looking argument list so its tokens do not
      // produce follow-on noise.
      std::size_t end = ident.pos + ident.len;
      if (lexer_.peek().kind == Tok::kLParen) {
        lexer_.Take();
        if (lexer_.peek().kind != Tok::kRParen &&
            lexer_.peek().kind != Tok::kEnd) {
          ParseOr();
          while (lexer_.peek().kind == Tok::kComma) {
            lexer_.Take();
            ParseOr();
          }
        }
        end = ExpectClose(end);
      }
      return Poisoned(ident.pos, end, false);
    }
    return ParseCall(*fn, ident);
  }

  Ann ParseSeriesRef(const Token& scope) {
    if (lexer_.peek().kind != Tok::kIdent) {
      Error("DL003", SpanOf(lexer_.peek()),
            "expected a series name after '" + scope.text + ".'");
      return Poisoned(scope.pos, scope.pos + scope.len + 1, true);
    }
    Token name = lexer_.Take();
    std::size_t begin = scope.pos;
    std::size_t end = name.pos + name.len;

    bool dir = lint::IsDirScopeName(scope.text);
    bool client = lint::IsClientScopeName(scope.text);
    if (!dir && !client) {
      std::string hint = lint::DidYouMean(scope.text, KnownScopes());
      Error("DL101", SpanOf(scope),
            "unknown scope '" + scope.text + "'" +
                lint::DidYouMeanSuffix(hint),
            hint);
      return Poisoned(begin, end, true);
    }
    const lint::SeriesSchema* entry = lint::FindSeriesSchema(scope.text, name.text);
    if (entry == nullptr) {
      const char* kind = dir ? "5G" : "client";
      std::vector<std::string> known =
          dir ? KnownDirSeries() : KnownClientSeries();
      std::string hint = lint::DidYouMean(name.text, known);
      std::string msg = "unknown " + std::string(kind) + " series '" +
                        name.text + "' in scope '" + scope.text + "'" +
                        lint::DidYouMeanSuffix(hint);
      // The name may belong to the other scope kind — say so.
      if (lint::FindSeriesSchema(dir ? "sender" : "fwd", name.text) != nullptr) {
        msg += dir ? " ('" + name.text +
                         "' is a client series; use sender/receiver/ue/"
                         "remote)"
                   : " ('" + name.text +
                         "' is a 5G direction series; use fwd/rev/ul/dl)";
      }
      Error("DL102", SpanOf(name), msg, hint);
      return Poisoned(begin, end, true);
    }
    Ann a;
    auto scope_it = std::find(std::begin(kScopeNames), std::end(kScopeNames),
                              std::string_view(scope.text));
    auto kind = static_cast<Scope>(scope_it - std::begin(kScopeNames));
    if (swap_legs_ && (kind == Scope::kFwd || kind == Scope::kRev)) {
      kind = kind == Scope::kFwd ? Scope::kRev : Scope::kFwd;
    }
    auto node = std::make_shared<SeriesNode>(kind, *entry);
    node->SetSrcRange(begin, end);
    a.expr = node;
    a.series = true;
    a.unit = entry->unit;
    a.unit_src = scope.text + "." + name.text;
    a.begin = begin;
    a.end = end;
    return a;
  }

  Ann ParseCall(const FuncInfo& fn, const Token& ident) {
    std::size_t end = ident.pos + ident.len;
    if (lexer_.peek().kind != Tok::kLParen) {
      Error("DL003", SpanOf(lexer_.peek()),
            std::string("expected '(' after '") + fn.name + "'");
      return Poisoned(ident.pos, end, false);
    }
    lexer_.Take();
    std::vector<Ann> args;
    if (lexer_.peek().kind != Tok::kRParen &&
        lexer_.peek().kind != Tok::kEnd) {
      args.push_back(ParseOr());
      while (lexer_.peek().kind == Tok::kComma) {
        lexer_.Take();
        args.push_back(ParseOr());
      }
    }
    end = ExpectClose(args.empty() ? end : args.back().end);

    const int required = fn.series_args + fn.scalar_args;
    const int given = static_cast<int>(args.size());
    if (given < required || given > required + fn.optional_args) {
      const std::string want =
          fn.optional_args == 0
              ? std::to_string(required)
              : std::to_string(required) + " to " +
                    std::to_string(required + fn.optional_args);
      Error("DL112", SpanOf(ident),
            std::string(fn.name) + " expects " + want +
                " argument(s), got " + std::to_string(args.size()));
      return Poisoned(ident.pos, end, false);
    }
    bool poisoned = false;
    for (int i = 0; i < given; ++i) {
      Ann& a = args[static_cast<std::size_t>(i)];
      poisoned = poisoned || a.poisoned;
      if (a.poisoned) continue;
      if (i < fn.series_args && !a.series) {
        Error("DL104", SpanOfAnn(a),
              std::string(fn.name) + ": argument " + std::to_string(i + 1) +
                  " must be a series (a 'scope.name' reference)");
        poisoned = true;
      } else if (i >= fn.series_args && a.series) {
        Error("DL104", SpanOfAnn(a),
              std::string(fn.name) + ": argument " + std::to_string(i + 1) +
                  " must be a scalar; wrap the series in an aggregate",
              "mean(" + Text(a) + ")");
        poisoned = true;
      } else if (fn.id == Func::kIsUplink &&
                 lint::IsClientScopeName(
                     a.unit_src.substr(0, a.unit_src.find('.')))) {
        Error("DL104", SpanOfAnn(a),
              "is_uplink: argument 1 must be a 5G direction series "
              "(fwd/rev/ul/dl)");
        poisoned = true;
      }
    }
    if (poisoned) return Poisoned(ident.pos, end, false);

    std::vector<ExprPtr> series, scalars;
    for (int i = 0; i < given; ++i) {
      (i < fn.series_args ? series : scalars)
          .push_back(args[static_cast<std::size_t>(i)].expr);
    }
    Ann out;
    auto node = std::make_shared<FuncNode>(fn, std::move(series),
                                           std::move(scalars));
    node->SetSrcRange(ident.pos, end);
    out.expr = node;
    out.begin = ident.pos;
    out.end = end;
    AnnotateCall(fn, args, ident, out);
    return out;
  }

  /// Synthesizes range/unit/boolean facts for a call and runs the
  /// call-specific semantic checks (percentile rank, paired units).
  void AnnotateCall(const FuncInfo& fn, const std::vector<Ann>& args,
                    const Token& ident, Ann& out) {
    const Ann& s0 = args[0];
    switch (fn.yields) {
      case Yields::kCount:
        out.range = KnownRange(0, kInf);
        out.unit = Unit::kCount;
        break;
      case Yields::kMs:
        out.range = KnownRange(0, kInf);
        out.unit = Unit::kMs;
        out.unit_src = std::string(fn.name) + "(" + s0.unit_src + ")";
        break;
      case Yields::kFraction:
        out.range = KnownRange(0, 1);
        break;
      case Yields::kBool:
        out.range = KnownRange(0, 1);
        out.boolean = true;
        break;
      case Yields::kSeriesUnit:
        out.unit = s0.unit;
        out.unit_src = s0.unit_src;
        // A boolean series stays in [0, 1] under order statistics (and the
        // empty-window default is 0).
        if (s0.unit == Unit::kBool && fn.id != Func::kSum &&
            fn.id != Func::kStdDev) {
          out.range = KnownRange(0, 1);
        }
        break;
    }

    if (fn.id == Func::kPercentile) {
      const Ann& q = args[1];
      if (q.range.known && q.range.lo == q.range.hi && !q.poisoned) {
        double v = q.range.lo;
        if (v < 0 || v > 100) {
          Error("DL106", SpanOfAnn(q),
                "percentile rank " + FormatNum(v) +
                    " is outside [0, 100]; p() takes a percentage",
                v < 0 ? "0" : "100");
        } else if (v > 0 && v < 2 && v != std::floor(v)) {
          Warn("DL107", SpanOfAnn(q),
               "percentile rank " + FormatNum(v) +
                   " looks like a fraction; ranks are percentages in "
                   "[0, 100] (the " +
                   FormatNum(v) + "th percentile is nearly the minimum)",
               FormatNum(v * 100));
        }
      }
    }
    const bool paired_cmp = fn.series_args == 2 && fn.id != Func::kPairs;
    if (paired_cmp && args[0].unit != Unit::kUnknown && args[1].unit != Unit::kUnknown &&
        args[0].unit != args[1].unit) {
      Warn("DL110", SpanOf(ident),
           std::string(fn.name) + " compares " + args[0].unit_src + " (" +
               UnitName(args[0].unit) + ") against " + args[1].unit_src +
               " (" + UnitName(args[1].unit) + ") element-wise");
    }
    if ((fn.id == Func::kCountBelow || fn.id == Func::kCountAbove) &&
        args[0].unit != Unit::kUnknown && args[1].unit != Unit::kUnknown &&
        args[0].unit != args[1].unit) {
      Warn("DL110", SpanOfAnn(args[1]),
           std::string(fn.name) + " threshold is " +
               UnitName(args[1].unit) + " but the series " +
               args[0].unit_src + " is " + UnitName(args[0].unit));
    }
  }

  Ann MakeBinary(Tok op, const Token& op_tok, Ann lhs, Ann rhs) {
    const char* opname = OpName(op);
    RequireScalar(lhs, std::string("operand of '") + opname + "'");
    RequireScalar(rhs, std::string("operand of '") + opname + "'");
    Ann out;
    auto node = std::make_shared<BinaryNode>(op, lhs.expr, rhs.expr);
    node->SetSrcRange(lhs.begin, rhs.end);
    out.expr = node;
    out.poisoned = lhs.poisoned || rhs.poisoned;
    out.begin = lhs.begin;
    out.end = rhs.end;
    switch (op) {
      case Tok::kPlus:
      case Tok::kMinus:
        out.range = Combine(op, lhs.range, rhs.range);
        CheckAdditiveUnits(op_tok, lhs, rhs, out);
        break;
      case Tok::kStar:
        out.range = Combine(op, lhs.range, rhs.range);
        break;
      case Tok::kSlash:
        break;  // guarded division; range and unit unknown
      case Tok::kAnd:
      case Tok::kOr:
        out.boolean = true;
        out.range = KnownRange(0, 1);
        break;
      default:  // comparisons
        out.boolean = true;
        out.range = KnownRange(0, 1);
        CheckComparison(op, op_tok, lhs, rhs);
        break;
    }
    return out;
  }

  static const char* OpName(Tok op) {
    switch (op) {
      case Tok::kPlus: return "+";
      case Tok::kMinus: return "-";
      case Tok::kStar: return "*";
      case Tok::kSlash: return "/";
      case Tok::kLt: return "<";
      case Tok::kGt: return ">";
      case Tok::kLe: return "<=";
      case Tok::kGe: return ">=";
      case Tok::kEq: return "==";
      case Tok::kNe: return "!=";
      case Tok::kAnd: return "and";
      case Tok::kOr: return "or";
      default: return "?";
    }
  }

  static ValueRange Combine(Tok op, const ValueRange& a, const ValueRange& b) {
    if (!a.known || !b.known) return {};
    auto finite = [](double v) { return !std::isnan(v); };
    switch (op) {
      case Tok::kPlus: {
        double lo = a.lo + b.lo, hi = a.hi + b.hi;
        if (!finite(lo) || !finite(hi)) return {};
        return KnownRange(lo, hi);
      }
      case Tok::kMinus: {
        double lo = a.lo - b.hi, hi = a.hi - b.lo;
        if (!finite(lo) || !finite(hi)) return {};
        return KnownRange(lo, hi);
      }
      case Tok::kStar: {
        double c[4] = {a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi};
        double lo = c[0], hi = c[0];
        for (double v : c) {
          if (!finite(v)) return {};
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        return KnownRange(lo, hi);
      }
      default:
        return {};
    }
  }

  void CheckAdditiveUnits(const Token& op_tok, const Ann& lhs, const Ann& rhs,
                          Ann& out) {
    if (lhs.unit != Unit::kUnknown && rhs.unit != Unit::kUnknown) {
      if (lhs.unit != rhs.unit && !out.poisoned) {
        Warn("DL110", SpanOf(op_tok),
             std::string(OpName(op_tok.kind == Tok::kMinus ? Tok::kMinus
                                                           : Tok::kPlus)) +
                 " mixes " + lhs.unit_src + " (" + UnitName(lhs.unit) +
                 ") with " + rhs.unit_src + " (" + UnitName(rhs.unit) + ")");
        return;  // result unit stays unknown
      }
      out.unit = lhs.unit;
      out.unit_src = lhs.unit_src;
      return;
    }
    // A plain number offsets a quantity without changing its unit.
    const Ann& known = lhs.unit != Unit::kUnknown ? lhs : rhs;
    out.unit = known.unit;
    out.unit_src = known.unit_src;
  }

  void CheckComparison(Tok op, const Token& op_tok, const Ann& lhs,
                       const Ann& rhs) {
    if (lhs.poisoned || rhs.poisoned) return;
    if (lhs.unit != Unit::kUnknown && rhs.unit != Unit::kUnknown &&
        lhs.unit != rhs.unit) {
      Warn("DL110", SpanOf(op_tok),
           "comparing " + lhs.unit_src + " (" + UnitName(lhs.unit) +
               ") against " + rhs.unit_src + " (" + UnitName(rhs.unit) + ")");
    }
    if (!lhs.range.known || !rhs.range.known) return;
    int verdict = FoldComparison(op, lhs.range, rhs.range);
    if (verdict < 0) return;
    SourceSpan span = SpanBetween(lhs.begin, rhs.end);
    std::string ranges = " (left is in " + FormatRange(lhs.range) +
                         ", right in " + FormatRange(rhs.range) + ")";
    if (verdict == 1) {
      Warn("DL108", span, "comparison is always true" + ranges);
    } else {
      Warn("DL109", span, "comparison is always false" + ranges);
    }
  }

  /// 1 = tautology, 0 = unsatisfiable, -1 = genuinely data-dependent.
  static int FoldComparison(Tok op, const ValueRange& a, const ValueRange& b) {
    switch (op) {
      case Tok::kLt:
        if (a.hi < b.lo) return 1;
        if (a.lo >= b.hi) return 0;
        return -1;
      case Tok::kLe:
        if (a.hi <= b.lo) return 1;
        if (a.lo > b.hi) return 0;
        return -1;
      case Tok::kGt:
        if (a.lo > b.hi) return 1;
        if (a.hi <= b.lo) return 0;
        return -1;
      case Tok::kGe:
        if (a.lo >= b.hi) return 1;
        if (a.hi < b.lo) return 0;
        return -1;
      case Tok::kEq:
        if (a.lo == a.hi && b.lo == b.hi && a.lo == b.lo) return 1;
        if (a.hi < b.lo || b.hi < a.lo) return 0;
        return -1;
      case Tok::kNe:
        if (a.hi < b.lo || b.hi < a.lo) return 1;
        if (a.lo == a.hi && b.lo == b.hi && a.lo == b.lo) return 0;
        return -1;
      default:
        return -1;
    }
  }

  const std::string& src_;
  Lexer lexer_;
  DiagnosticSink* sink_;
  InputLimits limits_;
  std::size_t depth_ = 0;
  std::size_t nodes_ = 0;
  bool budget_blown_ = false;
  bool swap_legs_ = false;
};

}  // namespace

std::string DslLiteral(double v) {
  if (std::isnan(v)) return "(1e308 * 10 - 1e308 * 10)";
  if (std::isinf(v)) return v > 0 ? "(1e308 * 10)" : "(-1e308 * 10)";
  char buf[32];
  for (int digits = 15;; ++digits) {
    std::snprintf(buf, sizeof(buf), "%.*g", digits, std::fabs(v));
    if (std::strtod(buf, nullptr) == std::fabs(v) || digits == 17) break;
  }
  return std::signbit(v) ? "(-" + std::string(buf) + ")" : buf;
}

ExprPtr ParseExpression(const std::string& text, bool swap_legs) {
  Parser p(text, nullptr, {}, swap_legs);
  return p.Parse().expr;
}

CheckedExpr ParseExpressionChecked(const std::string& text,
                                   lint::DiagnosticSink& sink,
                                   const InputLimits& limits) {
  std::size_t errors_before = sink.error_count();
  Parser p(text, &sink, limits);
  Ann a = p.Parse();
  CheckedExpr out;
  out.is_series = a.series;
  out.is_boolean = a.boolean;
  if (sink.error_count() == errors_before) out.expr = a.expr;
  return out;
}

std::vector<std::string> KnownDirSeries() {
  std::vector<std::string> out;
  for (const auto& e : lint::TelemetrySchema()) {
    if (e.scope == lint::SchemaScope::kDirection) out.emplace_back(e.name);
  }
  return out;
}
std::vector<std::string> KnownClientSeries() {
  std::vector<std::string> out;
  for (const auto& e : lint::TelemetrySchema()) {
    if (e.scope == lint::SchemaScope::kClient) out.emplace_back(e.name);
  }
  return out;
}
std::vector<std::string> KnownScopes() {
  return {std::begin(kScopeNames), std::end(kScopeNames)};
}

}  // namespace domino::analysis
