// Unit tests for the foundation library: time, RNG, time series, statistics,
// event queue, CSV, and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "common/csv.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/time.h"
#include "common/timeseries.h"

namespace domino {
namespace {

// --- Time / Duration --------------------------------------------------------

TEST(TimeTest, DurationArithmetic) {
  EXPECT_EQ((Millis(5) + Micros(500)).micros(), 5500);
  EXPECT_EQ((Millis(5) - Millis(7)).micros(), -2000);
  EXPECT_EQ((Millis(3) * 4).millis(), 12.0);
  EXPECT_EQ((Millis(10) / 4).micros(), 2500);
  EXPECT_EQ(Millis(10) / Millis(3), 3);
  EXPECT_DOUBLE_EQ(Seconds(1.5).seconds(), 1.5);
}

TEST(TimeTest, TimePointArithmetic) {
  Time t{1'000'000};
  EXPECT_EQ((t + Millis(5)).micros(), 1'005'000);
  EXPECT_EQ((t - Millis(5)).micros(), 995'000);
  EXPECT_EQ((t - Time{400'000}).micros(), 600'000);
  Time u = t;
  u += Seconds(1.0);
  EXPECT_EQ(u.micros(), 2'000'000);
}

TEST(TimeTest, Comparisons) {
  EXPECT_LT(Time{1}, Time{2});
  EXPECT_LE(Millis(1), Millis(1));
  EXPECT_GT(Time::max(), Time{1'000'000'000});
}

TEST(TimeTest, Formatting) {
  EXPECT_EQ(ToString(Time{1'234'000}), "1.234s");
  EXPECT_EQ(ToString(Millis(105)), "105.0ms");
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(3.0, 5.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.UniformInt(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    saw_lo |= v == 1;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  RunningStats st;
  for (int i = 0; i < 20000; ++i) st.Add(rng.Normal(10.0, 2.0));
  EXPECT_NEAR(st.mean(), 10.0, 0.1);
  EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExpMeanMoment) {
  Rng rng(13);
  RunningStats st;
  for (int i = 0; i < 20000; ++i) st.Add(rng.ExpMean(3.0));
  EXPECT_NEAR(st.mean(), 3.0, 0.15);
}

TEST(RngTest, ChanceProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ForkedStreamsIndependent) {
  Rng parent(5);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

// --- TimeSeries --------------------------------------------------------------

TimeSeries<double> MakeSeries(std::initializer_list<double> values,
                              std::int64_t step_us = 1000) {
  TimeSeries<double> s;
  std::int64_t t = 0;
  for (double v : values) {
    s.Push(Time{t}, v);
    t += step_us;
  }
  return s;
}

TEST(TimeSeriesTest, PushAndAccess) {
  auto s = MakeSeries({1, 2, 3});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[1].value, 2);
  EXPECT_EQ(s.front().value, 1);
  EXPECT_EQ(s.back().value, 3);
}

TEST(TimeSeriesTest, RejectsBackwardsTime) {
  TimeSeries<double> s;
  s.Push(Time{100}, 1.0);
  EXPECT_THROW(s.Push(Time{50}, 2.0), std::invalid_argument);
  s.Push(Time{100}, 3.0);  // equal time is fine
}

TEST(TimeSeriesTest, WindowHalfOpen) {
  auto s = MakeSeries({0, 1, 2, 3, 4});  // times 0,1,2,3,4 ms
  auto w = s.Window(Time{1000}, Time{3000});
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].value, 1);
  EXPECT_EQ(w[1].value, 2);
}

TEST(TimeSeriesTest, WindowEmptyAndFull) {
  auto s = MakeSeries({5, 6, 7});
  EXPECT_TRUE(s.Window(Time{100'000}, Time{200'000}).empty());
  EXPECT_EQ(s.Window(Time{0}, Time{1'000'000}).size(), 3u);
}

TEST(TimeSeriesTest, ValueAt) {
  auto s = MakeSeries({10, 20, 30});
  EXPECT_EQ(s.ValueAt(Time{-5}, -1.0), -1.0);
  EXPECT_EQ(s.ValueAt(Time{0}), 10);
  EXPECT_EQ(s.ValueAt(Time{1500}), 20);
  EXPECT_EQ(s.ValueAt(Time{99'000}), 30);
}

TEST(WindowViewTest, MinMaxArg) {
  auto s = MakeSeries({3, 1, 4, 1, 5});
  auto w = s.Window(Time{0}, Time{10'000});
  EXPECT_EQ(w.Min(), 1);
  EXPECT_EQ(w.Max(), 5);
  EXPECT_EQ(w.ArgMin().micros(), 1000);  // first minimum
  EXPECT_EQ(w.ArgMax().micros(), 4000);
}

TEST(WindowViewTest, MeanSumCount) {
  auto s = MakeSeries({2, 4, 6});
  auto w = s.Window(Time{0}, Time{10'000});
  EXPECT_DOUBLE_EQ(w.Mean(), 4.0);
  EXPECT_DOUBLE_EQ(w.Sum(), 12.0);
  EXPECT_EQ(w.CountIf([](double v) { return v > 3; }), 2u);
  EXPECT_TRUE(w.Any([](double v) { return v == 6; }));
  EXPECT_FALSE(w.Any([](double v) { return v > 10; }));
}

TEST(WindowViewTest, Trends) {
  auto up = MakeSeries({1, 2, 3});
  auto down = MakeSeries({3, 2, 1});
  auto flat = MakeSeries({2, 2, 2});
  auto full = [](const TimeSeries<double>& s) {
    return s.Window(Time{0}, Time{10'000});
  };
  EXPECT_TRUE(full(up).HasIncreasingStep());
  EXPECT_FALSE(full(up).HasDecreasingStep());
  EXPECT_TRUE(full(down).HasDecreasingStep());
  EXPECT_FALSE(full(down).HasIncreasingStep());
  EXPECT_FALSE(full(flat).HasIncreasingStep());
  EXPECT_FALSE(full(flat).HasDecreasingStep());
}

TEST(WindowViewTest, BucketMeans) {
  TimeSeries<double> s;
  for (int i = 0; i < 25; ++i) s.Push(Time{i * 1000}, i);
  auto w = s.Window(Time{0}, Time{100'000});
  auto means = BucketMeans(w, 10);
  ASSERT_EQ(means.size(), 2u);  // trailing partial bucket dropped
  EXPECT_DOUBLE_EQ(means[0], 4.5);
  EXPECT_DOUBLE_EQ(means[1], 14.5);
}

TEST(WindowViewTest, TimeBucketMeans) {
  TimeSeries<double> s;
  s.Push(Time{0}, 1);
  s.Push(Time{10'000}, 3);   // same 50 ms bucket
  s.Push(Time{60'000}, 10);  // next bucket
  auto w = s.Window(Time{0}, Time{200'000});
  auto means = TimeBucketMeans(w, Time{0}, Millis(50));
  ASSERT_EQ(means.size(), 2u);
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 10.0);
}

// --- Stats ---------------------------------------------------------------------

TEST(StatsTest, PercentileBasics) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 99), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5}, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 50), 2.5);  // interpolation
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 3}, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 3}, 100), 5.0);
}

TEST(StatsTest, PercentileClampsP) {
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, -10), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, 200), 2.0);
}

/// The sort-based Percentile that selection replaced, kept as the oracle.
double SortedPercentileOracle(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, p);
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(StatsTest, PercentileMatchesSortOracle) {
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    auto n = static_cast<std::size_t>(
        trial < 20 ? trial + 1 : rng.UniformInt(1, 5000));
    // Small integer range plus a few fractional values: heavy ties.
    std::vector<double> v(n);
    for (double& x : v) {
      x = rng.Chance(0.8) ? static_cast<double>(rng.UniformInt(-5, 5))
                          : rng.Uniform(-5, 5);
    }
    std::vector<double> ps = {0, 100, -10, 200, 50, 90, 99.9,
                              rng.Uniform(0, 100)};
    // Ranks that land exactly on an index.
    if (n > 1) {
      auto k = static_cast<double>(rng.UniformInt(0, static_cast<int>(n) - 1));
      ps.push_back(100.0 * k / static_cast<double>(n - 1));
    }
    for (double p : ps) {
      ASSERT_EQ(Percentile(v, p), SortedPercentileOracle(v, p))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(StatsTest, PercentileMatchesSortOracleWithInfinities) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    auto n = static_cast<std::size_t>(rng.UniformInt(1, 64));
    std::vector<double> v(n);
    for (double& x : v) {
      double u = rng.Uniform();
      x = u < 0.2 ? inf : u < 0.4 ? -inf
                        : static_cast<double>(rng.UniformInt(0, 3));
    }
    for (double p : {0.0, 10.0, 50.0, 90.0, 100.0, rng.Uniform(0, 100)}) {
      double got = Percentile(v, p);
      double want = SortedPercentileOracle(v, p);
      // inf - inf interpolates to NaN on both paths.
      ASSERT_EQ(Bits(got), Bits(want)) << "n=" << n << " p=" << p;
    }
  }
  // An infinite endpoint interpolates to NaN (0 * inf) on both paths.
  EXPECT_EQ(Bits(Percentile({-inf, 1, inf}, 0)),
            Bits(SortedPercentileOracle({-inf, 1, inf}, 0)));
  EXPECT_EQ(Percentile({-inf, 1, 2, 3}, 100), 3.0);
}

TEST(StatsTest, PercentileWithNaNKeepsSortResultBitwise) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    auto n = static_cast<std::size_t>(rng.UniformInt(1, 200));
    std::vector<double> v(n);
    for (double& x : v) {
      x = rng.Chance(0.1) ? nan : static_cast<double>(rng.UniformInt(0, 9));
    }
    v[static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(n) - 1))] =
        nan;
    for (double p : {0.0, 50.0, 90.0, 100.0}) {
      ASSERT_EQ(Bits(Percentile(v, p)), Bits(SortedPercentileOracle(v, p)))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(StatsTest, MeanAndStdDev) {
  EXPECT_DOUBLE_EQ(Mean({2, 4, 6}), 4.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_NEAR(StdDev({2, 4, 6}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(StdDev({5}), 0.0);
}

TEST(StatsTest, CdfSummary) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  auto cdf = MakeCdf(v, {50, 99});
  ASSERT_EQ(cdf.points.size(), 2u);
  EXPECT_NEAR(cdf.points[0], 50.5, 0.01);
  EXPECT_NEAR(cdf.points[1], 99.01, 0.01);
}

TEST(StatsTest, RunningStatsMatchesBatch) {
  Rng rng(3);
  std::vector<double> v;
  RunningStats st;
  for (int i = 0; i < 500; ++i) {
    double x = rng.Normal(5, 3);
    v.push_back(x);
    st.Add(x);
  }
  EXPECT_NEAR(st.mean(), Mean(v), 1e-9);
  EXPECT_NEAR(st.stddev(), StdDev(v), 1e-9);
  EXPECT_EQ(st.count(), 500u);
}

TEST(StatsTest, LinearSlope) {
  EXPECT_DOUBLE_EQ(LinearSlope({0, 1, 2}, {1, 3, 5}), 2.0);
  EXPECT_DOUBLE_EQ(LinearSlope({0, 1, 2}, {5, 5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(LinearSlope({1}, {2}), 0.0);          // too few points
  EXPECT_DOUBLE_EQ(LinearSlope({2, 2, 2}, {1, 2, 3}), 0.0);  // degenerate x
}

// --- EventQueue ------------------------------------------------------------------

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(Time{300}, [&] { order.push_back(3); });
  q.ScheduleAt(Time{100}, [&] { order.push_back(1); });
  q.ScheduleAt(Time{200}, [&] { order.push_back(2); });
  q.RunUntil(Time{1000});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now().micros(), 1000);
}

TEST(EventQueueTest, FifoForEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(Time{100}, [&order, i] { order.push_back(i); });
  }
  q.RunUntil(Time{100});
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  Time fired{0};
  q.ScheduleAt(Time{100}, [&] {
    q.ScheduleAfter(Millis(1), [&] { fired = q.now(); });
  });
  q.RunUntil(Time{10'000});
  EXPECT_EQ(fired.micros(), 1100);
}

TEST(EventQueueTest, RejectsPast) {
  EventQueue q;
  q.ScheduleAt(Time{100}, [] {});
  q.RunUntil(Time{200});
  EXPECT_THROW(q.ScheduleAt(Time{50}, [] {}), std::invalid_argument);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) q.ScheduleAfter(Millis(1), tick);
  };
  q.ScheduleAt(Time{0}, tick);
  q.RunUntil(Time{100'000});
  EXPECT_EQ(count, 10);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  int ran = 0;
  q.ScheduleAt(Time{100}, [&] { ++ran; });
  q.ScheduleAt(Time{200}, [&] { ++ran; });
  q.RunUntil(Time{150});
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntil(Time{200});
  EXPECT_EQ(ran, 2);
}

// --- CSV ------------------------------------------------------------------------

TEST(CsvTest, SimpleRow) {
  std::ostringstream os;
  CsvWriter w(os);
  w.WriteRow({"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(CsvTest, EscapesSpecials) {
  std::ostringstream os;
  CsvWriter w(os);
  w.WriteRow({"a,b", "he said \"hi\"", "line\nbreak"});
  EXPECT_EQ(os.str(), "\"a,b\",\"he said \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(CsvTest, ParseRoundTrip) {
  auto cells = ParseCsvLine("\"a,b\",\"he said \"\"hi\"\"\",plain");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "a,b");
  EXPECT_EQ(cells[1], "he said \"hi\"");
  EXPECT_EQ(cells[2], "plain");
}

TEST(CsvTest, UnterminatedQuoteThrows) {
  EXPECT_THROW(ParseCsvLine("\"oops"), std::invalid_argument);
}

TEST(CsvTest, ReadSkipsEmptyLinesAndCr) {
  std::istringstream is("a,b\r\n\nc,d\n");
  auto rows = ReadCsv(is);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "b");
  EXPECT_EQ(rows[1][0], "c");
}

// --- TextTable -------------------------------------------------------------------

TEST(TextTableTest, AlignsColumns) {
  TextTable t({"name", "v"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "22"});
  std::string out = t.Render();
  EXPECT_NE(out.find("name    v"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
}

TEST(TextTableTest, NumAndPct) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Pct(0.1234), "12.3%");
}

TEST(TextTableTest, ShortRowPadded) {
  TextTable t({"a", "b", "c"});
  t.AddRow({"x"});
  EXPECT_NO_THROW(t.Render());
}

}  // namespace
}  // namespace domino
