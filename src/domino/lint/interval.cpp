#include "domino/lint/interval.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace domino::analysis::lint {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

std::string FormatNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}
}  // namespace

Interval::Interval() : lo(-kInf), hi(kInf) {}

Interval::Interval(double l, double h) : lo(std::min(l, h)), hi(std::max(l, h)) {}

Interval Interval::HullWith(double v) const {
  return {std::min(lo, v), std::max(hi, v)};
}

Interval Union(const Interval& a, const Interval& b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval Add(const Interval& a, const Interval& b) {
  double lo = a.lo + b.lo;
  double hi = a.hi + b.hi;
  if (std::isnan(lo) || std::isnan(hi)) return {};
  return {lo, hi};
}

Interval Sub(const Interval& a, const Interval& b) {
  double lo = a.lo - b.hi;
  double hi = a.hi - b.lo;
  if (std::isnan(lo) || std::isnan(hi)) return {};
  return {lo, hi};
}

Interval Mul(const Interval& a, const Interval& b) {
  const double c[4] = {a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi};
  double lo = c[0];
  double hi = c[0];
  for (double v : c) {
    if (std::isnan(v)) return {};
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (std::isnan(lo) || std::isnan(hi)) return {};
  return {lo, hi};
}

Interval Neg(const Interval& a) { return {-a.hi, -a.lo}; }

Interval Div(const Interval& a, const Interval& b) {
  if (!b.IsExact() || b.lo == 0 || !std::isfinite(b.lo)) return {};
  double lo = a.lo / b.lo;
  double hi = a.hi / b.lo;
  if (std::isnan(lo) || std::isnan(hi)) return {};
  return {lo, hi};
}

std::string FormatInterval(const Interval& r) {
  // Built by append, not `"[" + ...`: GCC 12's -O3 inlining of that
  // operator+ raises a false -Wrestrict.
  const std::string lo = FormatNum(r.lo);
  const std::string hi = FormatNum(r.hi);
  std::string out;
  out.reserve(lo.size() + hi.size() + 4);
  out.append("[").append(lo).append(", ").append(hi).append("]");
  return out;
}

Tri TriNot(Tri a) {
  if (a == Tri::kMaybe) return Tri::kMaybe;
  return a == Tri::kTrue ? Tri::kFalse : Tri::kTrue;
}

Tri TriAnd(Tri a, Tri b) {
  if (a == Tri::kFalse || b == Tri::kFalse) return Tri::kFalse;
  if (a == Tri::kTrue && b == Tri::kTrue) return Tri::kTrue;
  return Tri::kMaybe;
}

Tri TriOr(Tri a, Tri b) {
  if (a == Tri::kTrue || b == Tri::kTrue) return Tri::kTrue;
  if (a == Tri::kFalse && b == Tri::kFalse) return Tri::kFalse;
  return Tri::kMaybe;
}

Tri Truth(const Interval& r) {
  if (r.lo == 0 && r.hi == 0) return Tri::kFalse;
  if (!r.Contains(0)) return Tri::kTrue;
  return Tri::kMaybe;
}

Tri FoldCmp(CmpOp op, const Interval& a, const Interval& b) {
  switch (op) {
    case CmpOp::kLt:
      if (a.hi < b.lo) return Tri::kTrue;
      if (a.lo >= b.hi) return Tri::kFalse;
      return Tri::kMaybe;
    case CmpOp::kLe:
      if (a.hi <= b.lo) return Tri::kTrue;
      if (a.lo > b.hi) return Tri::kFalse;
      return Tri::kMaybe;
    case CmpOp::kGt:
      if (a.lo > b.hi) return Tri::kTrue;
      if (a.hi <= b.lo) return Tri::kFalse;
      return Tri::kMaybe;
    case CmpOp::kGe:
      if (a.lo >= b.hi) return Tri::kTrue;
      if (a.hi < b.lo) return Tri::kFalse;
      return Tri::kMaybe;
    case CmpOp::kEq:
      if (a.IsExact() && b.IsExact() && a.lo == b.lo) return Tri::kTrue;
      if (a.hi < b.lo || b.hi < a.lo) return Tri::kFalse;
      return Tri::kMaybe;
    case CmpOp::kNe:
      if (a.hi < b.lo || b.hi < a.lo) return Tri::kTrue;
      if (a.IsExact() && b.IsExact() && a.lo == b.lo) return Tri::kFalse;
      return Tri::kMaybe;
  }
  return Tri::kMaybe;
}

Constraint::Constraint() : lo(-kInf), hi(kInf) {}

Constraint Constraint::FromCmp(CmpOp op, double c) {
  Constraint out;
  switch (op) {
    case CmpOp::kLt: out.hi = c; out.hi_strict = true; break;
    case CmpOp::kLe: out.hi = c; break;
    case CmpOp::kGt: out.lo = c; out.lo_strict = true; break;
    case CmpOp::kGe: out.lo = c; break;
    case CmpOp::kEq: out.lo = c; out.hi = c; break;
    case CmpOp::kNe: break;  // not representable; callers keep kNe opaque
  }
  return out;
}

bool Constraint::Implies(const Constraint& weaker) const {
  // Lower bound containment: ours must be at least as tight.
  bool lo_ok = lo > weaker.lo ||
               (lo == weaker.lo && (lo_strict || !weaker.lo_strict));
  bool hi_ok = hi < weaker.hi ||
               (hi == weaker.hi && (hi_strict || !weaker.hi_strict));
  return lo_ok && hi_ok;
}

Constraint Constraint::Intersect(const Constraint& other) const {
  Constraint out;
  if (lo > other.lo || (lo == other.lo && lo_strict)) {
    out.lo = lo;
    out.lo_strict = lo_strict;
  } else {
    out.lo = other.lo;
    out.lo_strict = other.lo_strict;
  }
  if (hi < other.hi || (hi == other.hi && hi_strict)) {
    out.hi = hi;
    out.hi_strict = hi_strict;
  } else {
    out.hi = other.hi;
    out.hi_strict = other.hi_strict;
  }
  return out;
}

bool Constraint::IsEmpty() const {
  return lo > hi || (lo == hi && (lo_strict || hi_strict));
}

}  // namespace domino::analysis::lint
