// The simulated traces the built-in parity suites (dsl_builtin_parity_test,
// domino_codegen_test) sweep, plus the per-event oracle they compare the
// prelude against.
//
// The oracle is the hand-written C++ detector the prelude replaced, kept
// here verbatim as test-only code: every prelude entry must reproduce it
// bit for bit, on both engines, both perspectives and both legs.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_util_for_tests.h"
#include "common/stats.h"
#include "domino/events.h"

namespace domino::analysis::parity {

/// Event-rich simulated traces: Amarisoft with a scripted uplink fade and
/// RRC release (private cell: gNB log, RLC retransmissions), and a busy
/// commercial TDD cell (cross traffic, no gNB log).
inline const std::vector<telemetry::DerivedTrace>& Traces() {
  static const std::vector<telemetry::DerivedTrace> traces = [] {
    std::vector<telemetry::DerivedTrace> out;
    {
      sim::SessionConfig cfg;
      cfg.profile = sim::Amarisoft();
      cfg.profile.rrc.random_release_rate_per_min = 0;
      cfg.duration = Seconds(40);
      cfg.seed = 3;
      sim::CallSession session(cfg);
      session.ul_link()->channel().AddEpisode(phy::ChannelEpisode{
          Time{0} + Seconds(15), Time{0} + Seconds(18), -9.0});
      session.rrc()->ScheduleRelease(Time{0} + Seconds(30));
      out.push_back(telemetry::BuildDerivedTrace(session.Run()));
    }
    {
      sim::SessionConfig cfg;
      cfg.profile = sim::TMobileTdd100();
      cfg.duration = Seconds(20);
      cfg.seed = 5;
      out.push_back(telemetry::BuildDerivedTrace(sim::CallSession(cfg).Run()));
    }
    return out;
  }();
  return traces;
}

/// Window begins of the default 5 s / 0.5 s sweep over `trace`.
inline std::vector<Time> WindowBegins(const telemetry::DerivedTrace& trace) {
  std::vector<Time> begins;
  for (Time t = trace.begin; t + Seconds(5) <= trace.end; t += Millis(500)) {
    begins.push_back(t);
  }
  return begins;
}

// --- The replaced C++ conditions (oracle) ----------------------------------

inline bool HasRelativeDrop(const WindowView<double>& v, double frac) {
  for (std::size_t i = 0; i + 1 < v.size(); ++i) {
    if (v[i + 1].value < v[i].value * (1.0 - frac)) return true;
  }
  return false;
}

inline bool BucketedUptrend(const WindowView<double>& v, int bucket,
                            double factor) {
  auto means = BucketMeans(v, static_cast<std::size_t>(bucket));
  for (std::size_t k = 0; k + 1 < means.size(); ++k) {
    if (means[k + 1] > means[k] * factor) return true;
  }
  return false;
}

inline bool FpsDrop(const WindowContext& ctx, const TimeSeries<double>& s,
                    const EventThresholds& th) {
  if (ctx.SeriesCount(s) == 0) return false;
  if (ctx.SeriesMax(s) <= th.fps_high || ctx.SeriesMin(s) >= th.fps_low) {
    return false;
  }
  return ctx.SeriesArgMax(s) < ctx.SeriesArgMin(s);
}

template <typename Pred>
bool AnyPaired(const WindowView<double>& a, const WindowView<double>& b,
               Pred pred) {
  std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (pred(a[i].value, b[i].value)) return true;
  }
  return false;
}

inline bool DelayUptrend(const WindowContext& ctx,
                         const TimeSeries<double>& s,
                         const EventThresholds& th) {
  if (ctx.SeriesCount(s) == 0) return false;
  if (ctx.SeriesMax(s) <= th.delay_up_min_ms) return false;
  return BucketedUptrend(ctx.View(s), th.trend_bucket, 1.0);
}

inline bool ChannelDegrade(const WindowContext& ctx,
                           const TimeSeries<double>& mcs,
                           const EventThresholds& th) {
  auto buckets = ctx.SeriesTimeBuckets(mcs, th.mcs_bucket);
  if (buckets.empty()) return false;
  int low = 0;
  for (double b : buckets) {
    if (b < th.mcs_low) ++low;
  }
  if (low <= th.mcs_low_count) return false;
  return !(Percentile(std::move(buckets), 90.0) >= th.mcs_p90_max);
}

inline bool RateGap(const WindowView<double>& app,
                    const WindowView<double>& tbs,
                    const EventThresholds& th) {
  std::size_t n = std::min(app.size(), tbs.size());
  if (n == 0) return false;
  std::size_t gap = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (app[i].value > tbs[i].value) ++gap;
  }
  return static_cast<double>(gap) > th.rate_gap_frac * static_cast<double>(n);
}

inline bool CrossTraffic(const WindowContext& ctx,
                         const TimeSeries<double>& self,
                         const TimeSeries<double>& other,
                         const EventThresholds& th) {
  double other_sum = ctx.SeriesSum(other);
  if (other_sum < th.cross_traffic_min_prbs) return false;
  return other_sum > th.cross_traffic_frac * ctx.SeriesSum(self);
}

/// The built-in condition for `ref` as the C++ detector computed it.
inline bool Oracle(const EventRef& ref, const WindowContext& ctx,
                   const EventThresholds& th) {
  const PathLeg leg = ref.leg == PathLeg::kNone ? PathLeg::kFwd : ref.leg;
  const auto& dir = ctx.Dir(leg);
  const auto& snd = ctx.Sender();
  const auto& rcv = ctx.Receiver();
  switch (ref.type) {
    case EventType::kInboundFpsDrop:
      return FpsDrop(ctx, rcv.inbound_fps, th);
    case EventType::kOutboundFpsDrop:
      return FpsDrop(ctx, snd.outbound_fps, th);
    case EventType::kResolutionDrop:
      return ctx.View(snd.outbound_resolution).HasDecreasingStep();
    case EventType::kJitterBufferDrain:
      return ctx.SeriesCount(rcv.jitter_buffer_ms) > 0 &&
             ctx.SeriesMin(rcv.jitter_buffer_ms) <= th.jb_drain_ms;
    case EventType::kTargetBitrateDrop:
      return HasRelativeDrop(ctx.View(snd.target_bitrate_bps),
                             th.bitrate_drop_frac);
    case EventType::kGccOveruse:
      return ctx.SeriesCount(snd.overuse) > 0 &&
             ctx.SeriesMax(snd.overuse) > 0.5;
    case EventType::kPushbackDrop:
      return HasRelativeDrop(ctx.View(snd.pushback_bitrate_bps),
                             th.bitrate_drop_frac) &&
             AnyPaired(ctx.View(snd.target_bitrate_bps),
                       ctx.View(snd.pushback_bitrate_bps),
                       [](double t, double p) { return p < 0.99 * t; });
    case EventType::kCwndFull:
      return AnyPaired(ctx.View(snd.outstanding_bytes),
                       ctx.View(snd.cwnd_bytes),
                       [](double o, double w) { return w > 0 && o > w; });
    case EventType::kOutstandingUp:
      return BucketedUptrend(ctx.View(snd.outstanding_bytes),
                             th.trend_bucket, th.outstanding_up_frac);
    case EventType::kPushbackNeqTarget:
      return AnyPaired(
          ctx.View(snd.target_bitrate_bps),
          ctx.View(snd.pushback_bitrate_bps),
          [](double t, double p) { return std::fabs(t - p) > 1e-3 * t; });
    case EventType::kFwdDelayUp:
      return DelayUptrend(ctx, ctx.Dir(PathLeg::kFwd).owd_ms, th);
    case EventType::kRevDelayUp:
      return DelayUptrend(ctx, ctx.Dir(PathLeg::kRev).owd_ms, th);
    case EventType::kTbsDrop:
      return ctx.SeriesCount(dir.tbs_bytes) > 0 &&
             ctx.SeriesMin(dir.tbs_bytes) <
                 th.tbs_drop_frac * ctx.SeriesMax(dir.tbs_bytes);
    case EventType::kRateGap:
      return RateGap(ctx.View(dir.app_bitrate_bps),
                     ctx.View(dir.tbs_bitrate_bps), th);
    case EventType::kCrossTraffic:
      return CrossTraffic(ctx, dir.prb_self, dir.prb_other, th);
    case EventType::kChannelDegrade:
      return ChannelDegrade(ctx, dir.mcs, th);
    case EventType::kHarqRetx:
      return static_cast<int>(ctx.SeriesCount(dir.harq_retx)) >
             th.harq_retx_count;
    case EventType::kRlcRetx:
      return ctx.trace().has_gnb_log && ctx.SeriesCount(dir.rlc_retx) > 0;
    case EventType::kUlScheduling:
      return ctx.DirIndex(leg) == 0 && ctx.SeriesCount(dir.prb_self) > 0;
    case EventType::kRrcChange:
      return ctx.SeriesCount(dir.rnti) >= 2 &&
             ctx.SeriesMin(dir.rnti) != ctx.SeriesMax(dir.rnti);
  }
  return false;
}

}  // namespace domino::analysis::parity
