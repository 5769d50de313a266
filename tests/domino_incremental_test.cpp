// Parity suite for the incremental sliding-window engine (incremental.h):
// the engine must reproduce the naive re-slice/re-scan path bit-for-bit —
// same window begins, feature vectors, active nodes, and chain instances —
// on simulated traces, adversarial random traces, custom DSL graphs, and
// the streaming path, at any fan-out width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench_util_for_tests.h"
#include "common/rng.h"
#include "domino/config_parser.h"
#include "domino/detector.h"
#include "domino/incremental.h"
#include "domino/streaming.h"
#include "telemetry/dataset.h"
#include "trace_fixtures.h"

namespace domino::analysis {
namespace {

using analysis_test::EmptyTrace;
using analysis_test::RunQuickCall;
using telemetry::DerivedTrace;

void ExpectSameWindow(const WindowResult& a, const WindowResult& b,
                      std::size_t w) {
  EXPECT_EQ(a.begin.micros(), b.begin.micros()) << "window " << w;
  EXPECT_EQ(a.features, b.features) << "window " << w;
  EXPECT_EQ(a.node_active, b.node_active) << "window " << w;
  ASSERT_EQ(a.chains.size(), b.chains.size()) << "window " << w;
  for (std::size_t c = 0; c < a.chains.size(); ++c) {
    EXPECT_EQ(a.chains[c].window_begin.micros(),
              b.chains[c].window_begin.micros());
    EXPECT_EQ(a.chains[c].sender_client, b.chains[c].sender_client);
    EXPECT_EQ(a.chains[c].chain_index, b.chains[c].chain_index);
  }
}

void ExpectSameResults(const AnalysisResult& a, const AnalysisResult& b) {
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t w = 0; w < a.windows.size(); ++w) {
    ExpectSameWindow(a.windows[w], b.windows[w], w);
  }
}

AnalysisResult RunAnalysis(const CausalGraph& graph, const DerivedTrace& trace,
                   DominoConfig cfg, bool incremental, int threads) {
  cfg.incremental = incremental;
  cfg.threads = threads;
  return Detector(graph, cfg).Analyze(trace);
}

/// A trace where every series is an irregular random walk: duplicate
/// timestamps, empty stretches, and heavy value ties to stress the deque
/// tie-breaks and cursor edges.
DerivedTrace RandomTrace(std::uint64_t seed, Duration duration) {
  Rng rng(seed);
  DerivedTrace t;
  t.begin = Time{0};
  t.end = Time{0} + duration;
  t.has_gnb_log = rng.Chance(0.5);
  auto fill = [&](TimeSeries<double>& s, double lo, double hi,
                  std::int64_t max_gap_us, bool integral) {
    if (rng.Chance(0.1)) return;  // some series stay empty
    Time tt = t.begin + Micros(rng.UniformInt(0, max_gap_us));
    double v = rng.Uniform(lo, hi);
    while (tt < t.end) {
      s.Push(tt, integral ? std::floor(v) : v);
      tt += Micros(rng.UniformInt(0, max_gap_us));  // 0 => duplicate time
      v += rng.Uniform(-(hi - lo) * 0.1, (hi - lo) * 0.1);
      v = std::clamp(v, lo, hi);
    }
  };
  for (auto& d : t.dir) {
    fill(d.tbs_bytes, 100, 6000, 8'000, true);
    fill(d.prb_self, 0, 30, 8'000, true);
    fill(d.prb_other, 0, 30, 8'000, true);
    fill(d.mcs, 0, 28, 8'000, true);
    fill(d.harq_retx, 1, 1, 120'000, true);
    fill(d.rlc_retx, 1, 1, 400'000, true);
    fill(d.owd_ms, 5, 220, 30'000, false);
    fill(d.app_bitrate_bps, 1e5, 4e6, 50'000, false);
    fill(d.tbs_bitrate_bps, 1e5, 4e6, 50'000, false);
    fill(d.rnti, 17000, 17004, 10'000, true);
  }
  for (auto& c : t.client) {
    fill(c.inbound_fps, 0, 31, 120'000, true);
    fill(c.outbound_fps, 0, 31, 120'000, true);
    fill(c.outbound_resolution, 180, 1080, 150'000, true);
    fill(c.jitter_buffer_ms, 0, 120, 60'000, false);
    fill(c.target_bitrate_bps, 1e5, 4e6, 60'000, false);
    fill(c.pushback_bitrate_bps, 1e5, 4e6, 60'000, false);
    fill(c.outstanding_bytes, 0, 2e5, 60'000, true);
    fill(c.cwnd_bytes, 1e4, 2e5, 60'000, true);
    fill(c.overuse, 0, 1, 200'000, true);
  }
  return t;
}

// --- Full-pipeline parity ---------------------------------------------------

TEST(IncrementalParityTest, SimulatedTraceMatchesNaive) {
  static const DerivedTrace trace = telemetry::BuildDerivedTrace(
      RunQuickCall(sim::Amarisoft(), Seconds(20), 11));
  CausalGraph graph = CausalGraph::Default();
  DominoConfig cfg;
  AnalysisResult naive = RunAnalysis(graph, trace, cfg, false, 1);
  ExpectSameResults(naive, RunAnalysis(graph, trace, cfg, true, 1));
  ExpectSameResults(naive, RunAnalysis(graph, trace, cfg, true, 4));
  // Naive path must also be invariant under the fan-out width.
  ExpectSameResults(naive, RunAnalysis(graph, trace, cfg, false, 4));
}

class RandomTraceParityTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomTraceParityTest, MatchesNaiveAtAnyWidth) {
  DerivedTrace trace = RandomTrace(GetParam(), Seconds(12));
  CausalGraph graph = CausalGraph::Default();
  DominoConfig cfg;
  AnalysisResult naive = RunAnalysis(graph, trace, cfg, false, 1);
  ExpectSameResults(naive, RunAnalysis(graph, trace, cfg, true, 1));
  ExpectSameResults(naive, RunAnalysis(graph, trace, cfg, true, 3));
}

TEST_P(RandomTraceParityTest, OffGridStepMatchesNaive) {
  DerivedTrace trace = RandomTrace(GetParam() + 100, Seconds(12));
  CausalGraph graph = CausalGraph::Default();
  DominoConfig cfg;
  cfg.step = Millis(273);  // off the 50 ms MCS bucket grid -> naive fallback
  ExpectSameResults(RunAnalysis(graph, trace, cfg, false, 1),
                    RunAnalysis(graph, trace, cfg, true, 1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTraceParityTest,
                         ::testing::Range<std::uint64_t>(1, 7));

// --- Custom DSL graphs ------------------------------------------------------

TEST(IncrementalParityTest, CustomDslGraphMatchesNaive) {
  // Exercise every aggregate the DSL routes through the cache (sum, mean,
  // count, count_below/above) plus view-scan functions (p, frac_gt) mixed
  // with built-ins, on nodes the memo must NOT serve (custom thresholds).
  const std::string config_text = R"(
event prb_load: sum(fwd.prb_other) > 40 and mean(fwd.prb_other) > 0.1
event low_fps: count_below(sender.outbound_fps, 24) > 3 or p(sender.outbound_fps, 10) < 20
event fast_net: count_above(fwd.tbs, 1000) > 5 and count(fwd.tbs) > 0
event rate_mismatch: frac_gt(fwd.app_bitrate, fwd.tbs_bitrate) > 0.05
chain custom_a: prb_load -> tbs_drop -> rate_mismatch -> low_fps
chain custom_b: fast_net -> low_fps
)";
  DominoConfig cfg;
  CausalGraph graph = CausalGraph::Default(cfg.thresholds);
  ExtendGraph(graph, ParseConfigText(config_text), cfg.thresholds);

  static const DerivedTrace sim_trace = telemetry::BuildDerivedTrace(
      RunQuickCall(sim::Amarisoft(), Seconds(20), 12));
  AnalysisResult naive = RunAnalysis(graph, sim_trace, cfg, false, 1);
  ExpectSameResults(naive, RunAnalysis(graph, sim_trace, cfg, true, 1));
  ExpectSameResults(naive, RunAnalysis(graph, sim_trace, cfg, true, 4));

  for (std::uint64_t seed = 40; seed < 44; ++seed) {
    DerivedTrace trace = RandomTrace(seed, Seconds(12));
    ExpectSameResults(RunAnalysis(graph, trace, cfg, false, 1),
                      RunAnalysis(graph, trace, cfg, true, 2));
  }
}

// --- Streaming --------------------------------------------------------------

TEST(IncrementalParityTest, StreamingMatchesBatchUnderIrregularAdvances) {
  DerivedTrace trace = RandomTrace(77, Seconds(30));
  DominoConfig cfg;
  cfg.threads = 4;
  AnalysisResult batch = Detector(CausalGraph::Default(), cfg).Analyze(trace);

  StreamingDetector stream(CausalGraph::Default(), cfg);
  std::vector<WindowResult> seen;
  stream.on_window = [&](const WindowResult& w) { seen.push_back(w); };
  Rng rng(5);
  Time now = trace.begin;
  // Irregular advances: sub-step nudges, single steps, and one large
  // catch-up jump (>= 16 windows) that exercises the parallel batch path.
  stream.Advance(trace, now + Seconds(14));
  while (now < trace.end) {
    now += Micros(rng.UniformInt(1, 2'000'000));
    stream.Advance(trace, std::min(now, trace.end));
  }
  ASSERT_EQ(seen.size(), batch.windows.size());
  for (std::size_t w = 0; w < seen.size(); ++w) {
    ExpectSameWindow(seen[w], batch.windows[w], w);
  }
  EXPECT_EQ(stream.windows_processed(),
            static_cast<long>(batch.windows.size()));
  EXPECT_EQ(stream.chains_detected(),
            static_cast<long>(batch.AllChains().size()));
}

// --- Short / degenerate traces ---------------------------------------------

TEST(IncrementalParityTest, ShortTraceYieldsOneTruncatedWindowBothPaths) {
  DerivedTrace trace = RandomTrace(9, Seconds(3));  // < one 5 s window
  CausalGraph graph = CausalGraph::Default();
  DominoConfig cfg;
  AnalysisResult naive = RunAnalysis(graph, trace, cfg, false, 1);
  ASSERT_EQ(naive.windows.size(), 1u);
  EXPECT_EQ(naive.windows[0].begin.micros(), trace.begin.micros());
  ExpectSameResults(naive, RunAnalysis(graph, trace, cfg, true, 1));
}

TEST(IncrementalParityTest, ExactlyOneWindowTraceIsAnalysed) {
  DerivedTrace trace = RandomTrace(10, Seconds(5));  // == one window
  DominoConfig cfg;
  AnalysisResult r = RunAnalysis(CausalGraph::Default(), trace, cfg, true, 1);
  ASSERT_EQ(r.windows.size(), 1u);
  EXPECT_EQ(r.windows[0].begin.micros(), trace.begin.micros());
}

TEST(IncrementalParityTest, ZeroDurationTraceYieldsNothing) {
  DerivedTrace trace;
  trace.begin = trace.end = Time{0} + Seconds(1);
  DominoConfig cfg;
  EXPECT_TRUE(RunAnalysis(CausalGraph::Default(), trace, cfg, true, 1).windows.empty());
  EXPECT_TRUE(
      RunAnalysis(CausalGraph::Default(), trace, cfg, false, 1).windows.empty());
}

TEST(TimeSeriesTest, WindowOnEmptySeriesIsSafe) {
  TimeSeries<double> s;  // regression: &*begin() on an empty vector was UB
  WindowView<double> v = s.Window(Time{0}, Time{0} + Seconds(5));
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.Sum(), 0.0);
}

// --- SeriesCursor unit parity ----------------------------------------------

TEST(SeriesCursorTest, MatchesNaiveWindowOverRandomAdvances) {
  Rng rng(7);
  TimeSeries<double> s;
  Time t{0};
  for (int i = 0; i < 2000; ++i) {
    // Integer values in a small range: heavy ties for the ArgMin/ArgMax
    // first-occurrence check; zero gaps produce duplicate timestamps.
    s.Push(t, static_cast<double>(rng.UniformInt(0, 40)));
    t += Micros(rng.UniformInt(0, 20'000));
  }
  SeriesCursor cur(s);
  Time begin{0};
  for (int step = 0; step < 400; ++step) {
    begin += Micros(rng.UniformInt(0, 150'000));
    // The random length lets `end` occasionally move backwards, covering
    // the non-monotone Reset fallback as well as the O(1) slide.
    Time end = begin + Micros(rng.UniformInt(0, 4'000'000));
    cur.Advance(begin, end);
    WindowView<double> view = s.Window(begin, end);
    ASSERT_EQ(cur.count(), view.size());
    if (!view.empty()) {
      EXPECT_EQ(cur.Min(), view.Min());
      EXPECT_EQ(cur.Max(), view.Max());
      EXPECT_EQ(cur.ArgMin().micros(), view.ArgMin().micros());
      EXPECT_EQ(cur.ArgMax().micros(), view.ArgMax().micros());
      EXPECT_EQ(cur.Sum(), view.Sum());  // integer-valued -> exact
    }
    double x = rng.Uniform(0, 40);
    EXPECT_EQ(cur.CountCmp(CountOp::kBelow, x),
              view.CountIf([x](double v) { return v < x; }));
    EXPECT_EQ(cur.CountCmp(CountOp::kAbove, x),
              view.CountIf([x](double v) { return v > x; }));
  }
}

/// Random integer-valued series (heavy ties, duplicate timestamps) with an
/// empty 2 s gap starting at `gap_at`.
TimeSeries<double> TiedSeries(std::uint64_t seed, Time gap_at) {
  Rng rng(seed);
  TimeSeries<double> s;
  Time t{0};
  for (int i = 0; i < 1500; ++i) {
    if (t >= gap_at && t < gap_at + Seconds(2)) t = gap_at + Seconds(2);
    s.Push(t, static_cast<double>(rng.UniformInt(0, 30)));
    t += Micros(rng.UniformInt(0, 20'000));
  }
  return s;
}

/// Checks every cursor aggregate except the extrema against the naive view.
void ExpectCheapAggregates(SeriesCursor& cur, const TimeSeries<double>& s,
                           Time begin, Time end) {
  WindowView<double> view = s.Window(begin, end);
  ASSERT_EQ(cur.count(), view.size());
  EXPECT_EQ(cur.Sum(), view.Sum());  // integer-valued -> exact
  EXPECT_EQ(cur.CountCmp(CountOp::kBelow, 10.5),
            view.CountIf([](double v) { return v < 10.5; }));
}

void ExpectExtrema(SeriesCursor& cur, const TimeSeries<double>& s, Time begin,
                   Time end) {
  WindowView<double> view = s.Window(begin, end);
  ASSERT_EQ(cur.count(), view.size());
  if (view.empty()) return;
  EXPECT_EQ(cur.Min(), view.Min());
  EXPECT_EQ(cur.Max(), view.Max());
  EXPECT_EQ(cur.ArgMin().micros(), view.ArgMin().micros());
  EXPECT_EQ(cur.ArgMax().micros(), view.ArgMax().micros());
}

TEST(SeriesCursorTest, LazyExtremaFirstAskedAfterCountOnlyAdvances) {
  TimeSeries<double> s = TiedSeries(21, Time{0} + Seconds(100));
  for (int first_ask : {0, 1, 7, 40, 120}) {
    SeriesCursor cur(s);
    Rng rng(static_cast<std::uint64_t>(first_ask) + 1);
    Time begin{0};
    for (int step = 0; step < 160; ++step) {
      begin += Micros(rng.UniformInt(0, 120'000));
      Time end = begin + Micros(rng.UniformInt(1'000'000, 3'000'000));
      cur.Advance(begin, end);
      ExpectCheapAggregates(cur, s, begin, end);
      if (step >= first_ask) ExpectExtrema(cur, s, begin, end);
    }
  }
  // Many fresh cursors over short windows (a handful of samples), so the
  // seeded window's first and last samples are often its extrema.
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    SeriesCursor cur(s);
    Time begin = Time{0} + Micros(rng.UniformInt(0, 10'000'000));
    const auto first_ask = rng.UniformInt(0, 20);
    for (int step = 0; step <= first_ask + 5; ++step) {
      begin += Micros(rng.UniformInt(0, 40'000));
      Time end = begin + Micros(rng.UniformInt(0, 120'000));
      cur.Advance(begin, end);
      ExpectCheapAggregates(cur, s, begin, end);
      if (step >= first_ask) ExpectExtrema(cur, s, begin, end);
    }
  }
}

TEST(SeriesCursorTest, LazyExtremaFirstAskedAfterNonMonotoneReset) {
  TimeSeries<double> s = TiedSeries(22, Time{0} + Seconds(100));
  SeriesCursor cur(s);
  Time begin = Time{0} + Seconds(10);
  for (int step = 0; step < 30; ++step) {
    begin += Millis(100);
    cur.Advance(begin, begin + Seconds(2));
    ExpectCheapAggregates(cur, s, begin, begin + Seconds(2));
  }
  // Jump backwards: Reset re-seats the cursor, then the first extrema query.
  begin = Time{0} + Seconds(4);
  Rng rng(5);
  for (int step = 0; step < 60; ++step) {
    Time end = begin + Micros(rng.UniformInt(500'000, 2'500'000));
    cur.Advance(begin, end);
    ExpectExtrema(cur, s, begin, end);
    ExpectCheapAggregates(cur, s, begin, end);
    begin += Micros(rng.UniformInt(0, 100'000));
  }
  // Tracking survives a second Reset.
  begin = Time{0} + Seconds(1);
  for (int step = 0; step < 20; ++step) {
    cur.Advance(begin, begin + Seconds(1));
    ExpectExtrema(cur, s, begin, begin + Seconds(1));
    begin += Millis(50);
  }
}

TEST(SeriesCursorTest, LazyExtremaAcrossEmptyWindows) {
  const Time gap = Time{0} + Seconds(6);
  TimeSeries<double> s = TiedSeries(23, gap);
  // A cursor whose first windows are empty (inside the gap) serves only
  // count()/Sum(), and is first asked for extrema on the first non-empty
  // window after it, in the DSL's `count == 0 ? 0 : min` idiom.
  {
    SeriesCursor cur(s);
    bool asked = false;
    for (Time begin = gap; begin < gap + Seconds(4); begin += Millis(100)) {
      Time end = begin + Millis(500);
      cur.Advance(begin, end);
      ExpectCheapAggregates(cur, s, begin, end);
      if (cur.count() == 0) {
        EXPECT_FALSE(asked) << "the gap precedes every non-empty window";
        continue;
      }
      asked = true;
      ExpectExtrema(cur, s, begin, end);
    }
    EXPECT_TRUE(asked);
  }
  // A cursor tracking extrema before the gap slides through empty windows
  // (its deques drain) and keeps serving after it.
  {
    SeriesCursor cur(s);
    for (Time begin = gap - Seconds(2); begin < gap + Seconds(4);
         begin += Millis(100)) {
      Time end = begin + Millis(500);
      cur.Advance(begin, end);
      ExpectExtrema(cur, s, begin, end);
      ExpectCheapAggregates(cur, s, begin, end);
    }
  }
}

}  // namespace
}  // namespace domino::analysis
