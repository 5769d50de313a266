// Descriptive statistics used by the benchmark harnesses (CDFs, percentiles)
// and by Domino's event conditions (windowed percentiles).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace domino {

/// Percentile via linear interpolation between order statistics.
/// `p` is in [0, 100]. Returns 0 for an empty input. Selects the two order
/// statistics it needs (O(n)); the result equals sorting then
/// PercentileSorted. Inputs holding a NaN take the sort path.
double Percentile(std::vector<double> values, double p);

/// Percentile over an already-sorted vector (no copy).
double PercentileSorted(const std::vector<double>& sorted, double p);

double Mean(const std::vector<double>& values);
double StdDev(const std::vector<double>& values);

/// A condensed empirical CDF: `points[i]` is the value at quantile
/// `quantiles[i]`. Used by benches to print figure series compactly.
struct CdfSummary {
  std::vector<double> quantiles;
  std::vector<double> points;
};

/// Builds a CDF summary at the given quantiles (default: 1..99 plus tails).
CdfSummary MakeCdf(std::vector<double> values,
                   std::vector<double> quantiles = {});

/// Running statistics accumulator (Welford) for counters that should not
/// retain every sample.
class RunningStats {
 public:
  void Add(double x);
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Least-squares slope of y over x. Returns 0 if fewer than 2 points or
/// degenerate x. This is the same primitive GCC's trendline filter uses.
double LinearSlope(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace domino
