#include "domino/codegen.h"

#include <set>
#include <sstream>

#include "domino/prelude.h"

namespace domino::analysis {

namespace {

/// Sanitises a node name ("harq_retx@rev" -> "harq_retx__rev") for use in a
/// Python identifier.
std::string PyName(const std::string& node_name) {
  std::string out;
  for (char c : node_name) out += (c == '@' ? '_' : c);
  return out;
}

constexpr const char* kPreamble = R"PY(# Generated by Domino (cross-layer causal-chain detector).
# Window `w`: see the contract in codegen.h. Sums run left to right, as in C++.

def _sum(s):
    acc = 0.0
    for v in s:
        acc += v
    return acc

def dsl_min(s): return min(s) if s else 0.0
def dsl_max(s): return max(s) if s else 0.0
def dsl_mean(s): return _sum(s) / len(s) if s else 0.0
def dsl_first(s): return s[0] if s else 0.0
def dsl_last(s): return s[-1] if s else 0.0
def dsl_sum(s): return _sum(s)
def dsl_count(s): return float(len(s))
def dsl_argmin(s, t): return t[s.index(min(s))] / 1000.0 if s else 0.0
def dsl_argmax(s, t): return t[s.index(max(s))] / 1000.0 if s else 0.0
def dsl_count_below(s, x): return float(sum(1 for v in s if v < x))
def dsl_count_above(s, x): return float(sum(1 for v in s if v > x))
def dsl_has_drop(s, f=0.0): return any(b < a * (1.0 - f) for a, b in zip(s, s[1:]))
def dsl_has_rise(s): return any(b > a for a, b in zip(s, s[1:]))
def dsl_count_gt(a, b): return float(sum(1 for x, y in zip(a, b) if x > y))
def dsl_pairs(a, b): return float(min(len(a), len(b)))
def dsl_any_gt(a, b): return any(x > y for x, y in zip(a, b))
def dsl_any_lt(a, b, k=1.0): return any(x < k * y for x, y in zip(a, b))
def dsl_any_over_cap(a, c): return any(y > 0 and x > y for x, y in zip(a, c))
def dsl_any_mismatch(a, b, t): return any(abs(x - y) > t * x for x, y in zip(a, b))

def dsl_stddev(s):
    if len(s) < 2:
        return 0.0
    m = _sum(s) / len(s)
    return (_sum((x - m) ** 2 for x in s) / (len(s) - 1)) ** 0.5

def dsl_p(s, q):
    if not s:
        return 0.0
    v = sorted(s)
    if len(v) == 1:
        return v[0]
    rank = min(max(q, 0.0), 100.0) / 100.0 * (len(v) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (rank - lo) * (v[hi] - v[lo])

def _time_buckets(s, t, width_ms):
    width = int(width_ms * 1000 + 0.5)
    out, acc, n, k = [], 0.0, 0, None
    for v, ti in zip(s, t) if width >= 1 else ():
        if ti // width != k:
            if n:
                out.append(acc / n)
            acc, n, k = 0.0, 0, ti // width
        acc += v
        n += 1
    return out + [acc / n] if n else out

def _buckets(s, n):
    n = int(n) if 1 <= n <= 1e15 else 0
    return [_sum(s[k*n:(k+1)*n]) / n for k in range(len(s) // n)] if n else []

def dsl_trend_up(s, n=10, k=1.0):
    b = _buckets(s, n)
    return any(y > x * k for x, y in zip(b, b[1:]))

def dsl_trend_down(s):
    b = _buckets(s, 10)
    return any(y < x for x, y in zip(b, b[1:]))

def dsl_frac_gt(a, b):
    n = min(len(a), len(b))
    return sum(1 for i in range(n) if a[i] > b[i]) / n if n else 0.0
)PY";

}  // namespace

std::string GeneratePython(const DominoConfigFile& cfg,
                           const EventThresholds& th) {
  std::ostringstream os;
  os << kPreamble << "\n";

  std::set<std::string> emitted;

  // Custom events first.
  for (const auto& e : cfg.events) {
    os << "def detect_" << PyName(e.name) << "(w):\n"
       << "    # " << e.expr_text << "\n"
       << "    return bool(" << e.expr->ToPython() << ")\n\n";
    emitted.insert(e.name);
  }

  // Built-in events referenced by chains.
  for (const auto& chain : cfg.chains) {
    for (const auto& node : chain.nodes) {
      if (emitted.count(node) > 0) continue;
      auto [base, leg] = SplitNodeLeg(node);
      auto type = EventTypeFromName(base);
      if (!type.has_value()) continue;  // custom or pre-existing node
      const Prelude& prelude = Prelude::For(th);
      const Condition& cond = prelude.Get(EventRef{*type, leg});
      const bool swapped = &cond != &prelude.Get(EventRef{*type});
      os << "def detect_" << PyName(node) << "(w):\n"
         << "    # " << prelude.text(*type)
         << (swapped ? "  (fwd/rev swapped)" : "") << "\n"
         << "    return bool(" << cond.expr().ToPython() << ")\n\n";
      emitted.insert(node);
    }
  }

  os << "DETECTORS = {\n";
  for (const auto& name : emitted) {
    os << "    \"" << name << "\": detect_" << PyName(name) << ",\n";
  }
  os << "}\n\n";

  os << "CHAINS = [\n";
  for (const auto& chain : cfg.chains) {
    os << "    (\"" << chain.name << "\", [";
    for (std::size_t i = 0; i < chain.nodes.size(); ++i) {
      if (i > 0) os << ", ";
      os << "\"" << chain.nodes[i] << "\"";
    }
    os << "]),\n";
  }
  os << "]\n\n";

  os << R"PY(def detect_chain(w, nodes):
    return all(DETECTORS[n](w) for n in nodes)

def analyze(windows):
    """Returns [(window index, chain name)] for every chain instance."""
    hits = []
    for i, w in enumerate(windows):
        for name, nodes in CHAINS:
            if detect_chain(w, nodes):
                hits.append((i, name))
    return hits
)PY";
  return os.str();
}

}  // namespace domino::analysis
