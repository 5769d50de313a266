// Span recording and the small helpers the benchmark shares.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "e2e.h"

namespace e2e {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

int Tracer::Begin(const char* layer, const char* call) {
  Span s;
  s.layer = layer;
  s.call = call;
  s.parent = open_.empty() ? -1 : open_.back();
  s.session = session;
  s.start_ns = NowNs();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::SelfMsByLayer(bool setup) const {
  // Children nest strictly inside their parent on one thread, so the part
  // of a parent covered by its children is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if ((s.session < 0) != setup) continue;
    out[s.layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                    1e6;
  }
  return out;
}

bool Tracer::Dump(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (const Span& s : spans_) {
    f << "{\"layer\": \"" << s.layer << "\", \"call\": \"" << s.call
      << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
      << ", \"parent\": " << s.parent << ", \"session\": " << s.session
      << "}\n";
  }
  return static_cast<bool>(f);
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream buf;
  buf << f.rdbuf();
  *out = buf.str();
  return true;
}

std::string FileDigest(const std::string& path) {
  std::string bytes;
  if (!ReadFile(path, &bytes)) return "missing";
  return Hex64(Fnv1a(bytes));
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  if (p == 50) {
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  }
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

}  // namespace e2e
