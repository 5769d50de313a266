#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace domino {

namespace {

/// The order statistics a percentile interpolates between (n >= 2): the
/// result is v[lo] + frac * (v[hi] - v[lo]) over the sorted values v.
struct PercentileRank {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

PercentileRank RankOf(std::size_t n, double p) {
  p = std::clamp(p, 0.0, 100.0);
  double rank = p / 100.0 * static_cast<double>(n - 1);
  auto lo = static_cast<std::size_t>(rank);
  return {lo, std::min(lo + 1, n - 1), rank - static_cast<double>(lo)};
}

}  // namespace

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  auto [lo, hi, frac] = RankOf(sorted.size(), p);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Percentile(std::vector<double> values, double p) {
  // A NaN value has no place in a comparison order and a NaN p has no
  // rank, so such calls keep the sort-based evaluation.
  if (std::isnan(p) ||
      std::any_of(values.begin(), values.end(),
                  [](double v) { return std::isnan(v); })) {
    std::sort(values.begin(), values.end());
    return PercentileSorted(values, p);
  }
  if (values.empty()) return 0.0;
  if (values.size() == 1) return values.front();
  // Select only the two order statistics PercentileSorted would read:
  // O(n) instead of a full sort.
  auto [lo, hi, frac] = RankOf(values.size(), p);
  auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  double vlo = *lo_it;
  // After nth_element every element past lo is >= vlo, so the next order
  // statistic is the least of them.
  double vhi = hi == lo ? vlo : *std::min_element(lo_it + 1, values.end());
  return vlo + frac * (vhi - vlo);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double m = Mean(values);
  double s2 = 0;
  for (double v : values) s2 += (v - m) * (v - m);
  return std::sqrt(s2 / static_cast<double>(values.size() - 1));
}

CdfSummary MakeCdf(std::vector<double> values, std::vector<double> quantiles) {
  if (quantiles.empty()) {
    quantiles = {1, 5, 10, 25, 50, 75, 90, 95, 99, 99.9};
  }
  std::sort(values.begin(), values.end());
  CdfSummary out;
  out.quantiles = quantiles;
  out.points.reserve(quantiles.size());
  for (double q : quantiles) out.points.push_back(PercentileSorted(values, q));
  return out;
}

void RunningStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double LinearSlope(const std::vector<double>& x, const std::vector<double>& y) {
  std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < n; ++i) {
    num += (x[i] - mx) * (y[i] - my);
    den += (x[i] - mx) * (x[i] - mx);
  }
  if (den == 0.0) return 0.0;
  return num / den;
}

}  // namespace domino
