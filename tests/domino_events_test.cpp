// Tests for the 20 built-in event detection conditions (Table 5 /
// Appendix D), each with positive and negative synthetic traces, plus the
// scope-resolution rules of WindowContext.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/stats.h"
#include "domino/events.h"
#include "domino/incremental.h"
#include "trace_fixtures.h"

namespace domino::analysis {
namespace {

using namespace domino::analysis_test;

bool Detect(const DerivedTrace& t, EventRef ref, int sender = 0) {
  WindowContext ctx(t, kWinBegin, kWinEnd, sender);
  return DetectEvent(ref, ctx, EventThresholds{});
}

// --- Scope resolution ---------------------------------------------------------

TEST(WindowContextTest, ForwardLegFollowsPerspective) {
  DerivedTrace t = EmptyTrace();
  WindowContext ue(t, kWinBegin, kWinEnd, 0);
  WindowContext remote(t, kWinBegin, kWinEnd, 1);
  EXPECT_EQ(ue.DirIndex(PathLeg::kFwd), 0);   // UE media rides the UL
  EXPECT_EQ(ue.DirIndex(PathLeg::kRev), 1);
  EXPECT_EQ(remote.DirIndex(PathLeg::kFwd), 1);
  EXPECT_EQ(remote.DirIndex(PathLeg::kRev), 0);
}

TEST(WindowContextTest, SenderReceiverClients) {
  DerivedTrace t = EmptyTrace();
  t.client[0].inbound_fps.Push(Time{0}, 11);
  t.client[1].inbound_fps.Push(Time{0}, 22);
  WindowContext ue(t, kWinBegin, kWinEnd, 0);
  EXPECT_EQ(ue.Sender().inbound_fps[0].value, 11);
  EXPECT_EQ(ue.Receiver().inbound_fps[0].value, 22);
  WindowContext remote(t, kWinBegin, kWinEnd, 1);
  EXPECT_EQ(remote.Sender().inbound_fps[0].value, 22);
}

// --- Events 1/2: frame-rate drops ------------------------------------------------

TEST(EventTest, FpsDropDetected) {
  DerivedTrace t = EmptyTrace();
  // 30 fps then a sag to 20: max>27, min<25, max before min.
  Fill(t.client[1].inbound_fps, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return i < 50 ? 30.0 : 20.0; });
  EXPECT_TRUE(Detect(t, {EventType::kInboundFpsDrop}));
}

TEST(EventTest, FpsRecoveryNotADrop) {
  DerivedTrace t = EmptyTrace();
  // Rises 20 -> 30: the max comes after the min.
  Fill(t.client[1].inbound_fps, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return i < 50 ? 20.0 : 30.0; });
  EXPECT_FALSE(Detect(t, {EventType::kInboundFpsDrop}));
}

TEST(EventTest, StableFpsNotADrop) {
  DerivedTrace t = EmptyTrace();
  FillConst(t.client[1].inbound_fps, kWinBegin, kWinEnd, Millis(50), 30);
  EXPECT_FALSE(Detect(t, {EventType::kInboundFpsDrop}));
  DerivedTrace low = EmptyTrace();
  // Uniformly low fps: no *drop* within the window.
  FillConst(low.client[1].inbound_fps, kWinBegin, kWinEnd, Millis(50), 15);
  EXPECT_FALSE(Detect(low, {EventType::kInboundFpsDrop}));
}

TEST(EventTest, OutboundFpsUsesSenderClient) {
  DerivedTrace t = EmptyTrace();
  Fill(t.client[0].outbound_fps, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return i < 50 ? 30.0 : 20.0; });
  EXPECT_TRUE(Detect(t, {EventType::kOutboundFpsDrop}, 0));
  EXPECT_FALSE(Detect(t, {EventType::kOutboundFpsDrop}, 1));
}

// --- Event 3: resolution drop ------------------------------------------------------

TEST(EventTest, ResolutionDrop) {
  DerivedTrace t = EmptyTrace();
  Fill(t.client[0].outbound_resolution, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return i < 60 ? 540.0 : 360.0; });
  EXPECT_TRUE(Detect(t, {EventType::kResolutionDrop}));
  DerivedTrace up = EmptyTrace();
  Fill(up.client[0].outbound_resolution, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return i < 60 ? 360.0 : 540.0; });
  EXPECT_FALSE(Detect(up, {EventType::kResolutionDrop}));
}

// --- Event 4: jitter buffer drain ----------------------------------------------------

TEST(EventTest, JitterBufferDrain) {
  DerivedTrace t = EmptyTrace();
  Fill(t.client[1].jitter_buffer_ms, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return i == 40 ? 0.0 : 80.0; });
  EXPECT_TRUE(Detect(t, {EventType::kJitterBufferDrain}, 0));
  DerivedTrace ok = EmptyTrace();
  FillConst(ok.client[1].jitter_buffer_ms, kWinBegin, kWinEnd, Millis(50), 60);
  EXPECT_FALSE(Detect(ok, {EventType::kJitterBufferDrain}, 0));
}

// --- Events 5/7: rate drops ----------------------------------------------------------

TEST(EventTest, TargetBitrateDrop) {
  DerivedTrace t = EmptyTrace();
  Fill(t.client[0].target_bitrate_bps, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return i < 50 ? 2e6 : 1.2e6; });
  EXPECT_TRUE(Detect(t, {EventType::kTargetBitrateDrop}));
}

TEST(EventTest, TinyFluctuationIgnored) {
  DerivedTrace t = EmptyTrace();
  // 0.5% wiggle is below the 2% drop threshold.
  Fill(t.client[0].target_bitrate_bps, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return 2e6 * (1.0 + (i % 2 == 0 ? 0.0 : -0.005)); });
  EXPECT_FALSE(Detect(t, {EventType::kTargetBitrateDrop}));
}

TEST(EventTest, PushbackDropRequiresDivergenceFromTarget) {
  // Pushback mirrors a target drop exactly: NOT a pushback event.
  DerivedTrace mirror = EmptyTrace();
  Fill(mirror.client[0].target_bitrate_bps, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return i < 50 ? 2e6 : 1.2e6; });
  Fill(mirror.client[0].pushback_bitrate_bps, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return i < 50 ? 2e6 : 1.2e6; });
  EXPECT_FALSE(Detect(mirror, {EventType::kPushbackDrop}));

  // Pushback dips below a stable target: the distinct mechanism fires.
  DerivedTrace diverge = EmptyTrace();
  FillConst(diverge.client[0].target_bitrate_bps, kWinBegin, kWinEnd,
            Millis(50), 2e6);
  Fill(diverge.client[0].pushback_bitrate_bps, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return i < 50 ? 2e6 : 0.8e6; });
  EXPECT_TRUE(Detect(diverge, {EventType::kPushbackDrop}));
}

// --- Event 6: GCC overuse --------------------------------------------------------------

TEST(EventTest, GccOveruse) {
  DerivedTrace t = EmptyTrace();
  Fill(t.client[0].overuse, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return i == 10 ? 1.0 : 0.0; });
  EXPECT_TRUE(Detect(t, {EventType::kGccOveruse}));
  DerivedTrace ok = EmptyTrace();
  FillConst(ok.client[0].overuse, kWinBegin, kWinEnd, Millis(50), 0.0);
  EXPECT_FALSE(Detect(ok, {EventType::kGccOveruse}));
}

// --- Event 8: congestion window full ----------------------------------------------------

TEST(EventTest, CwndFull) {
  DerivedTrace t = EmptyTrace();
  FillConst(t.client[0].cwnd_bytes, kWinBegin, kWinEnd, Millis(50), 100e3);
  Fill(t.client[0].outstanding_bytes, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return i == 20 ? 150e3 : 40e3; });
  EXPECT_TRUE(Detect(t, {EventType::kCwndFull}));
  DerivedTrace ok = EmptyTrace();
  FillConst(ok.client[0].cwnd_bytes, kWinBegin, kWinEnd, Millis(50), 100e3);
  FillConst(ok.client[0].outstanding_bytes, kWinBegin, kWinEnd, Millis(50),
            40e3);
  EXPECT_FALSE(Detect(ok, {EventType::kCwndFull}));
}

// --- Event 9: outstanding bytes uptrend --------------------------------------------------

TEST(EventTest, OutstandingUp) {
  DerivedTrace t = EmptyTrace();
  // Clear growth across 10-sample buckets.
  Fill(t.client[0].outstanding_bytes, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return 10e3 + i * 1e3; });
  EXPECT_TRUE(Detect(t, {EventType::kOutstandingUp}));
}

TEST(EventTest, OutstandingOscillationIgnored) {
  DerivedTrace t = EmptyTrace();
  // Per-RTT oscillation with no bucket-level trend.
  Fill(t.client[0].outstanding_bytes, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return i % 2 == 0 ? 30e3 : 50e3; });
  EXPECT_FALSE(Detect(t, {EventType::kOutstandingUp}));
}

// --- Event 10: pushback != target ---------------------------------------------------------

TEST(EventTest, PushbackNeqTarget) {
  DerivedTrace t = EmptyTrace();
  FillConst(t.client[0].target_bitrate_bps, kWinBegin, kWinEnd, Millis(50),
            2e6);
  Fill(t.client[0].pushback_bitrate_bps, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return i == 5 ? 1.5e6 : 2e6; });
  EXPECT_TRUE(Detect(t, {EventType::kPushbackNeqTarget}));
  DerivedTrace eq = EmptyTrace();
  FillConst(eq.client[0].target_bitrate_bps, kWinBegin, kWinEnd, Millis(50),
            2e6);
  FillConst(eq.client[0].pushback_bitrate_bps, kWinBegin, kWinEnd,
            Millis(50), 2e6);
  EXPECT_FALSE(Detect(eq, {EventType::kPushbackNeqTarget}));
}

// --- Events 11/12: delay uptrends ------------------------------------------------------------

TEST(EventTest, FwdDelayUp) {
  DerivedTrace t = EmptyTrace();
  // Rising delay breaking the 80 ms bar (UL = forward for the UE sender).
  Fill(t.dir[0].owd_ms, kWinBegin, kWinEnd, Millis(10),
       [](int i) { return 30.0 + i * 0.5; });
  EXPECT_TRUE(Detect(t, {EventType::kFwdDelayUp}, 0));
  // Same series is the *reverse* leg for the remote perspective.
  EXPECT_TRUE(Detect(t, {EventType::kRevDelayUp}, 1));
  EXPECT_FALSE(Detect(t, {EventType::kRevDelayUp}, 0));
}

TEST(EventTest, LowDelayUptrendIgnored) {
  DerivedTrace t = EmptyTrace();
  // Clear uptrend but peak below 80 ms.
  Fill(t.dir[0].owd_ms, kWinBegin, kWinEnd, Millis(10),
       [](int i) { return 20.0 + i * 0.05; });
  EXPECT_FALSE(Detect(t, {EventType::kFwdDelayUp}, 0));
}

TEST(EventTest, HighButFallingDelayIgnored) {
  DerivedTrace t = EmptyTrace();
  Fill(t.dir[0].owd_ms, kWinBegin, kWinEnd, Millis(10),
       [](int i) { return 300.0 - i * 0.5; });
  EXPECT_FALSE(Detect(t, {EventType::kFwdDelayUp}, 0));
}

// --- Event 13: TBS drop -------------------------------------------------------------------------

TEST(EventTest, TbsDrop) {
  DerivedTrace t = EmptyTrace();
  Fill(t.dir[0].tbs_bytes, kWinBegin, kWinEnd, Millis(10),
       [](int i) { return i > 200 && i < 260 ? 300.0 : 1000.0; });
  EXPECT_TRUE(Detect(t, {EventType::kTbsDrop}, 0));
  DerivedTrace flat = EmptyTrace();
  // 10% variation stays above the 80% bar.
  Fill(flat.dir[0].tbs_bytes, kWinBegin, kWinEnd, Millis(10),
       [](int i) { return i % 2 == 0 ? 1000.0 : 900.0; });
  EXPECT_FALSE(Detect(flat, {EventType::kTbsDrop}, 0));
}

// --- Event 14: app bitrate exceeds TBS rate ----------------------------------------------------

TEST(EventTest, RateGap) {
  DerivedTrace t = EmptyTrace();
  FillConst(t.dir[0].app_bitrate_bps, kWinBegin, kWinEnd, Millis(50), 2e6);
  // Capacity below the app rate for 20% of the bins.
  Fill(t.dir[0].tbs_bitrate_bps, kWinBegin, kWinEnd, Millis(50),
       [](int i) { return i % 5 == 0 ? 1e6 : 4e6; });
  EXPECT_TRUE(Detect(t, {EventType::kRateGap}, 0));
  DerivedTrace ok = EmptyTrace();
  FillConst(ok.dir[0].app_bitrate_bps, kWinBegin, kWinEnd, Millis(50), 2e6);
  FillConst(ok.dir[0].tbs_bitrate_bps, kWinBegin, kWinEnd, Millis(50), 4e6);
  EXPECT_FALSE(Detect(ok, {EventType::kRateGap}, 0));
}

// --- Event 15: cross traffic --------------------------------------------------------------------

TEST(EventTest, CrossTraffic) {
  DerivedTrace t = EmptyTrace();
  FillConst(t.dir[1].prb_self, kWinBegin, kWinEnd, Millis(10), 10);
  FillConst(t.dir[1].prb_other, kWinBegin, kWinEnd, Millis(10), 5);
  // Other = 50% of self, well past the 20% bar. (DL = fwd for remote.)
  EXPECT_TRUE(Detect(t, {EventType::kCrossTraffic}, 1));
}

TEST(EventTest, LightCrossTrafficIgnored) {
  DerivedTrace t = EmptyTrace();
  FillConst(t.dir[1].prb_self, kWinBegin, kWinEnd, Millis(10), 50);
  // 5% of self.
  Fill(t.dir[1].prb_other, kWinBegin, kWinEnd, Millis(10),
       [](int i) { return i % 4 == 0 ? 10.0 : 0.0; });
  EXPECT_FALSE(Detect(t, {EventType::kCrossTraffic}, 1));
}

TEST(EventTest, CrossTrafficAbsoluteFloor) {
  // Tiny absolute cross PRBs cannot trigger even with zero self PRBs.
  DerivedTrace t = EmptyTrace();
  t.dir[1].prb_other.Push(Time{1'000'000}, 8.0);
  EXPECT_FALSE(Detect(t, {EventType::kCrossTraffic}, 1));
}

// --- Event 16: channel degrade ------------------------------------------------------------------

TEST(EventTest, ChannelDegrade) {
  DerivedTrace t = EmptyTrace();
  // MCS collapses below 10 for 1 s (20 x 50 ms buckets) of the window,
  // and the window's bucket p90 stays under 20.
  Fill(t.dir[0].mcs, kWinBegin, kWinEnd, Millis(10),
       [](int i) { return i >= 100 && i < 200 ? 3.0 : 15.0; });
  EXPECT_TRUE(Detect(t, {EventType::kChannelDegrade}, 0));
}

TEST(EventTest, GoodChannelNotDegraded) {
  DerivedTrace t = EmptyTrace();
  FillConst(t.dir[0].mcs, kWinBegin, kWinEnd, Millis(10), 22);
  EXPECT_FALSE(Detect(t, {EventType::kChannelDegrade}, 0));
}

TEST(EventTest, BriefDipNotDegraded) {
  DerivedTrace t = EmptyTrace();
  // Only 5 low buckets (250 ms): below the >10 bucket requirement.
  Fill(t.dir[0].mcs, kWinBegin, kWinEnd, Millis(10),
       [](int i) { return i >= 100 && i < 125 ? 3.0 : 15.0; });
  EXPECT_FALSE(Detect(t, {EventType::kChannelDegrade}, 0));
}

/// The channel-degrade evaluation as it read before the count-first gate:
/// sort-based p90, then the low-bucket count.
bool ChannelDegradeP90First(const TimeSeries<double>& mcs,
                            const EventThresholds& th) {
  auto buckets =
      TimeBucketMeans(mcs.Window(kWinBegin, kWinEnd), kWinBegin,
                      th.mcs_bucket);
  if (buckets.empty()) return false;
  std::vector<double> sorted = buckets;
  std::sort(sorted.begin(), sorted.end());
  if (PercentileSorted(sorted, 90.0) >= th.mcs_p90_max) return false;
  int low = 0;
  for (double b : buckets) {
    if (b < th.mcs_low) ++low;
  }
  return low > th.mcs_low_count;
}

TEST(EventTest, ChannelDegradeBoundariesMatchAcrossEngines) {
  const EventThresholds th;
  ASSERT_EQ(th.mcs_bucket.micros(), Millis(50).micros());
  const double at = th.mcs_p90_max;
  const double below = std::nextafter(th.mcs_p90_max, 0.0);
  for (int low : {th.mcs_low_count, th.mcs_low_count + 1}) {
    for (double p90 : {at, below}) {
      // 100 one-sample buckets whose sorted order is `low` buckets at 3,
      // filler at 15 up to rank 88, ranks 89 and 90 at `p90` (so the
      // interpolated p90 is exactly `p90`), and 25 above — interleaved in
      // time by a fixed stride.
      std::vector<double> sorted(100, 15.0);
      for (int i = 0; i < low; ++i) sorted[static_cast<std::size_t>(i)] = 3.0;
      sorted[89] = sorted[90] = p90;
      for (std::size_t i = 91; i < 100; ++i) sorted[i] = 25.0;
      DerivedTrace t = EmptyTrace();
      Fill(t.dir[0].mcs, kWinBegin, kWinEnd, th.mcs_bucket, [&](int i) {
        return sorted[static_cast<std::size_t>(i * 37 % 100)];
      });
      ASSERT_EQ(t.dir[0].mcs.size(), 100u);

      const bool oracle = ChannelDegradeP90First(t.dir[0].mcs, th);
      EXPECT_EQ(oracle, low > th.mcs_low_count && p90 < th.mcs_p90_max)
          << "low=" << low << " p90=" << p90;
      WindowContext naive(t, kWinBegin, kWinEnd, 0);
      EXPECT_EQ(DetectEvent({EventType::kChannelDegrade}, naive, th), oracle)
          << "naive, low=" << low << " p90=" << p90;
      WindowStatsCache cache(t);
      cache.BeginWindow(kWinBegin, kWinEnd);
      WindowContext incremental(t, kWinBegin, kWinEnd, 0, &cache);
      EXPECT_EQ(DetectEvent({EventType::kChannelDegrade}, incremental, th),
                oracle)
          << "incremental, low=" << low << " p90=" << p90;
    }
  }
}

// --- Event 17: HARQ retransmissions ------------------------------------------------------------

TEST(EventTest, HarqRetxThreshold) {
  DerivedTrace t = EmptyTrace();
  for (int i = 0; i < 11; ++i) {
    t.dir[0].harq_retx.Push(Time{i * 100'000}, 1.0);
  }
  EXPECT_TRUE(Detect(t, {EventType::kHarqRetx}, 0));
  DerivedTrace few = EmptyTrace();
  for (int i = 0; i < 10; ++i) {
    few.dir[0].harq_retx.Push(Time{i * 100'000}, 1.0);
  }
  EXPECT_FALSE(Detect(few, {EventType::kHarqRetx}, 0));  // needs > 10
}

// --- Event 18: RLC retransmissions -------------------------------------------------------------

TEST(EventTest, RlcRetxNeedsGnbLog) {
  DerivedTrace t = EmptyTrace();
  t.dir[0].rlc_retx.Push(Time{1'000'000}, 1.0);
  EXPECT_TRUE(Detect(t, {EventType::kRlcRetx}, 0));
  // Commercial cell: the same signal is invisible without gNB logs.
  t.has_gnb_log = false;
  EXPECT_FALSE(Detect(t, {EventType::kRlcRetx}, 0));
}

// --- Event 19: UL scheduling --------------------------------------------------------------------

TEST(EventTest, UlSchedulingOnlyOnUplinkLeg) {
  DerivedTrace t = EmptyTrace();
  FillConst(t.dir[0].prb_self, kWinBegin, kWinEnd, Millis(10), 5);
  // UE sender: fwd = UL -> active. Remote sender: fwd = DL -> inactive,
  // but its reverse leg is the UL -> active.
  EXPECT_TRUE(Detect(t, {EventType::kUlScheduling, PathLeg::kFwd}, 0));
  EXPECT_FALSE(Detect(t, {EventType::kUlScheduling, PathLeg::kFwd}, 1));
  EXPECT_TRUE(Detect(t, {EventType::kUlScheduling, PathLeg::kRev}, 1));
}

TEST(EventTest, UlSchedulingNeedsTraffic) {
  DerivedTrace t = EmptyTrace();  // no UL DCIs at all
  EXPECT_FALSE(Detect(t, {EventType::kUlScheduling, PathLeg::kFwd}, 0));
}

// --- Event 20: RRC change -----------------------------------------------------------------------

TEST(EventTest, RrcChangeViaRnti) {
  DerivedTrace t = EmptyTrace();
  Fill(t.dir[0].rnti, kWinBegin, kWinEnd, Millis(100),
       [](int i) { return i < 25 ? 0x4601 : 0x4602; });
  EXPECT_TRUE(Detect(t, {EventType::kRrcChange}, 0));
  DerivedTrace stable = EmptyTrace();
  FillConst(stable.dir[0].rnti, kWinBegin, kWinEnd, Millis(100), 0x4601);
  EXPECT_FALSE(Detect(stable, {EventType::kRrcChange}, 0));
}

// --- Names ----------------------------------------------------------------------------------------

TEST(EventNamesTest, RoundTrip) {
  for (int i = 1; i <= 20; ++i) {
    auto type = static_cast<EventType>(i);
    auto back = EventTypeFromName(ToString(type));
    ASSERT_TRUE(back.has_value()) << ToString(type);
    EXPECT_EQ(*back, type);
  }
  EXPECT_FALSE(EventTypeFromName("bogus").has_value());
}

TEST(EventNamesTest, RevSuffix) {
  EXPECT_EQ(ToString(EventRef{EventType::kHarqRetx, PathLeg::kRev}),
            "harq_retx@rev");
  EXPECT_EQ(ToString(EventRef{EventType::kHarqRetx, PathLeg::kFwd}),
            "harq_retx");
}

}  // namespace
}  // namespace domino::analysis
