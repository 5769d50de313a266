// Tests for the sliding-window detector and the feature vector: window
// arithmetic, chain detection on planted scenarios, and perspective
// handling.
#include <gtest/gtest.h>

#include <stdexcept>

#include "domino/detector.h"
#include "trace_fixtures.h"

namespace domino::analysis {
namespace {

using namespace domino::analysis_test;

/// Builds a trace where heavy DL cross traffic starves capacity, forward
/// (DL) delay rises, GCC on the remote sender detects overuse and cuts the
/// target — the full cross_traffic -> ... -> target_bitrate_drop chain from
/// the remote perspective, planted in [10 s, 16 s).
DerivedTrace CrossTrafficScenario() {
  DerivedTrace t;
  t.begin = Time{0};
  t.end = Time{0} + Seconds(30);
  t.has_gnb_log = true;
  Time ev_start = Time{0} + Seconds(10);
  Time ev_end = Time{0} + Seconds(16);
  auto in_event = [&](Time tt) { return tt >= ev_start && tt < ev_end; };

  int i = 0;
  for (Time tt = t.begin; tt < t.end; tt += Millis(10), ++i) {
    bool ev = in_event(tt);
    t.dir[1].prb_self.Push(tt, ev ? 4.0 : 20.0);
    t.dir[1].prb_other.Push(tt, ev ? 60.0 : 2.0);
    t.dir[1].tbs_bytes.Push(tt, ev ? 250.0 : 1300.0);
    t.dir[1].mcs.Push(tt, 18.0);
    double ramp = ev ? (tt - ev_start).millis() * 0.08 : 0.0;
    t.dir[1].owd_ms.Push(tt, 25.0 + std::min(ramp, 250.0));
    t.dir[0].owd_ms.Push(tt, 30.0);
    t.dir[0].prb_self.Push(tt, 10.0);
    t.dir[0].mcs.Push(tt, 18.0);
    t.dir[0].tbs_bytes.Push(tt, 900.0);
  }
  for (Time tt = t.begin; tt < t.end; tt += Millis(50)) {
    bool ev = in_event(tt);
    t.dir[1].app_bitrate_bps.Push(tt, 2.4e6);
    t.dir[1].tbs_bitrate_bps.Push(tt, ev ? 1.0e6 : 8e6);
    t.dir[0].app_bitrate_bps.Push(tt, 2.4e6);
    t.dir[0].tbs_bitrate_bps.Push(tt, 8e6);
    // Remote sender's GCC reaction, shortly after the event starts.
    bool reacting = tt >= ev_start + Seconds(1) && tt < ev_start + Seconds(3);
    t.client[1].overuse.Push(tt, reacting ? 1.0 : 0.0);
    t.client[1].target_bitrate_bps.Push(
        tt, reacting ? 1.2e6 : (tt < ev_start ? 2.4e6 : 1.4e6));
    t.client[1].pushback_bitrate_bps.Push(
        tt, reacting ? 1.2e6 : (tt < ev_start ? 2.4e6 : 1.4e6));
    t.client[0].target_bitrate_bps.Push(tt, 2.0e6);
    t.client[0].pushback_bitrate_bps.Push(tt, 2.0e6);
    t.client[0].overuse.Push(tt, 0.0);
  }
  return t;
}

TEST(DetectorTest, WindowCountMatchesStepArithmetic) {
  Detector det(CausalGraph::Default(), DominoConfig{});
  DerivedTrace t = EmptyTrace();  // 10 s
  auto result = det.Analyze(t);
  // Windows start at 0, 0.5, ..., 5.0 -> 11 windows of length 5 s in 10 s.
  EXPECT_EQ(result.windows.size(), 11u);
  EXPECT_EQ(result.windows[1].begin.micros(), 500'000);
}

TEST(DetectorTest, RejectsWindowOrStepBelowOneMicrosecond) {
  // The window loop advances by `step`: zero or negative never ends, and
  // Seconds() truncates a sub-microsecond value to zero.
  for (Duration bad : {Micros(0), Micros(-500'000), Seconds(0.0000001)}) {
    DominoConfig step_cfg;
    step_cfg.step = bad;
    EXPECT_THROW((void)Detector(CausalGraph::Default(), step_cfg),
                 std::invalid_argument);
    DominoConfig window_cfg;
    window_cfg.window = bad;
    EXPECT_THROW((void)Detector(CausalGraph::Default(), window_cfg),
                 std::invalid_argument);
  }
  DominoConfig tiny;
  tiny.window = tiny.step = Micros(1);
  EXPECT_NO_THROW((void)Detector(CausalGraph::Default(), tiny));
}

TEST(DetectorTest, ShortTraceYieldsSingleTruncatedWindow) {
  Detector det(CausalGraph::Default(), DominoConfig{});
  DerivedTrace t;
  t.begin = Time{0};
  t.end = Time{0} + Seconds(3);  // shorter than one window
  auto result = det.Analyze(t);
  // The whole trace is analysed as one truncated window instead of being
  // silently dropped.
  ASSERT_EQ(result.windows.size(), 1u);
  EXPECT_EQ(result.windows[0].begin.micros(), 0);
}

TEST(DetectorTest, ZeroDurationTraceYieldsNothing) {
  Detector det(CausalGraph::Default(), DominoConfig{});
  DerivedTrace t;
  t.begin = Time{0};
  t.end = Time{0};
  EXPECT_TRUE(det.Analyze(t).windows.empty());
}

TEST(DetectorTest, PlantedChainDetected) {
  DominoConfig cfg;
  Detector det(CausalGraph::Default(cfg.thresholds), cfg);
  auto result = det.Analyze(CrossTrafficScenario());
  bool found = false;
  for (const auto& ci : result.AllChains()) {
    const auto& chain = det.chains()[static_cast<std::size_t>(ci.chain_index)];
    if (det.graph().node(chain.front()).name == "cross_traffic" &&
        det.graph().node(chain.back()).name == "target_bitrate_drop") {
      found = true;
      EXPECT_EQ(ci.sender_client, 1);  // the remote (DL) sender suffers
      // The window must overlap the planted event.
      EXPECT_GE(ci.window_begin + cfg.window, Time{0} + Seconds(10));
      EXPECT_LE(ci.window_begin, Time{0} + Seconds(16));
    }
  }
  EXPECT_TRUE(found);
}

TEST(DetectorTest, QuietPeriodHasNoChains) {
  DominoConfig cfg;
  Detector det(CausalGraph::Default(cfg.thresholds), cfg);
  auto result = det.Analyze(CrossTrafficScenario());
  for (const auto& w : result.windows) {
    if (w.begin + cfg.window <= Time{0} + Seconds(10)) {
      EXPECT_TRUE(w.chains.empty())
          << "chain in quiet window at " << ToString(w.begin);
    }
  }
}

TEST(DetectorTest, NodeActivationsPerPerspective) {
  DominoConfig cfg;
  Detector det(CausalGraph::Default(cfg.thresholds), cfg);
  auto result = det.Analyze(CrossTrafficScenario());
  int cross_idx = det.graph().FindNode("cross_traffic");
  ASSERT_GE(cross_idx, 0);
  // Pick a window inside the event.
  const WindowResult* w = nullptr;
  for (const auto& win : result.windows) {
    if (win.begin == Time{0} + Seconds(11)) w = &win;
  }
  ASSERT_NE(w, nullptr);
  // Cross traffic is on the DL: forward leg of the remote perspective only.
  EXPECT_FALSE(w->node_active[0][static_cast<std::size_t>(cross_idx)]);
  EXPECT_TRUE(w->node_active[1][static_cast<std::size_t>(cross_idx)]);
}

TEST(DetectorTest, FeatureVectorMatchesEvents) {
  DominoConfig cfg;
  Detector det(CausalGraph::Default(cfg.thresholds), cfg);
  auto result = det.Analyze(CrossTrafficScenario());
  const WindowResult* w = nullptr;
  for (const auto& win : result.windows) {
    if (win.begin == Time{0} + Seconds(11)) w = &win;
  }
  ASSERT_NE(w, nullptr);
  // Find the "cross_traffic[dl]" dimension by name and confirm it fired.
  bool found_dim = false;
  for (int d = 0; d < kFeatureCount; ++d) {
    if (FeatureName(d) == "cross_traffic[dl]") {
      EXPECT_TRUE(w->features[static_cast<std::size_t>(d)]);
      found_dim = true;
    }
    if (FeatureName(d) == "cross_traffic[ul]") {
      EXPECT_FALSE(w->features[static_cast<std::size_t>(d)]);
    }
  }
  EXPECT_TRUE(found_dim);
}

TEST(DetectorTest, FeatureExtractionCanBeDisabled) {
  DominoConfig cfg;
  cfg.extract_features = false;
  Detector det(CausalGraph::Default(cfg.thresholds), cfg);
  auto result = det.Analyze(CrossTrafficScenario());
  ASSERT_FALSE(result.windows.empty());
  for (bool b : result.windows[0].features) {
    EXPECT_FALSE(b);
  }
  // Chain detection still works.
  EXPECT_FALSE(result.AllChains().empty());
}

TEST(FeatureNameTest, AllDimensionsNamed) {
  std::set<std::string> names;
  for (int d = 0; d < kFeatureCount; ++d) {
    std::string n = FeatureName(d);
    EXPECT_FALSE(n.empty());
    EXPECT_EQ(n.find("unknown"), std::string::npos) << d;
    names.insert(n);
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kFeatureCount));
}

TEST(FeatureNameTest, PaperLayout) {
  // Spot checks of the Appendix D layout.
  EXPECT_EQ(FeatureName(0), "inbound_fps_drop[ue]");
  EXPECT_EQ(FeatureName(10), "inbound_fps_drop[remote]");
  EXPECT_EQ(FeatureName(20), "fwd_delay_up[ue]");
  EXPECT_EQ(FeatureName(24), "tbs_drop[ul]");
  EXPECT_EQ(FeatureName(30), "tbs_drop[dl]");
  EXPECT_EQ(FeatureName(36), "ul_scheduling[ul]");
  EXPECT_EQ(FeatureName(39), "rrc_change[dl]");
  EXPECT_EQ(kPaperFeatureCount, 36);
}

}  // namespace
}  // namespace domino::analysis
