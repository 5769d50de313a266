#include "domino/events.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/stats.h"
#include "domino/incremental.h"

namespace domino::analysis {

// ---------------------------------------------------------------------------
// WindowContext aggregate helpers: cursor-backed when a cache is attached,
// computed from the sliced window otherwise (the naive path).
// ---------------------------------------------------------------------------

WindowView<double> WindowContext::View(const TimeSeries<double>& s) const {
  return cache_ ? cache_->View(s) : s.Window(begin_, end_);
}
std::size_t WindowContext::SeriesCount(const TimeSeries<double>& s) const {
  return cache_ ? cache_->Count(s) : View(s).size();
}
double WindowContext::SeriesMin(const TimeSeries<double>& s) const {
  return cache_ ? cache_->Min(s) : View(s).Min();
}
double WindowContext::SeriesMax(const TimeSeries<double>& s) const {
  return cache_ ? cache_->Max(s) : View(s).Max();
}
Time WindowContext::SeriesArgMin(const TimeSeries<double>& s) const {
  return cache_ ? cache_->ArgMin(s) : View(s).ArgMin();
}
Time WindowContext::SeriesArgMax(const TimeSeries<double>& s) const {
  return cache_ ? cache_->ArgMax(s) : View(s).ArgMax();
}
double WindowContext::SeriesSum(const TimeSeries<double>& s) const {
  return cache_ ? cache_->Sum(s) : View(s).Sum();
}
double WindowContext::SeriesMean(const TimeSeries<double>& s) const {
  if (!cache_) return View(s).Mean();
  return cache_->Sum(s) / static_cast<double>(cache_->Count(s));
}
std::size_t WindowContext::SeriesCountBelow(const TimeSeries<double>& s,
                                            double x) const {
  if (cache_) return cache_->CountCmp(s, CountOp::kBelow, x);
  return View(s).CountIf([x](double v) { return v < x; });
}
std::size_t WindowContext::SeriesCountAbove(const TimeSeries<double>& s,
                                            double x) const {
  if (cache_) return cache_->CountCmp(s, CountOp::kAbove, x);
  return View(s).CountIf([x](double v) { return v > x; });
}
std::vector<double> WindowContext::SeriesTimeBuckets(
    const TimeSeries<double>& s, Duration width) const {
  if (cache_) return cache_->TimeBuckets(s, width);
  return TimeBucketMeans(View(s), begin_, width);
}

namespace {

struct NameEntry {
  EventType type;
  const char* name;
};

constexpr std::array<NameEntry, 20> kNames = {{
    {EventType::kInboundFpsDrop, "inbound_fps_drop"},
    {EventType::kOutboundFpsDrop, "outbound_fps_drop"},
    {EventType::kResolutionDrop, "resolution_drop"},
    {EventType::kJitterBufferDrain, "jitter_buffer_drain"},
    {EventType::kTargetBitrateDrop, "target_bitrate_drop"},
    {EventType::kGccOveruse, "gcc_overuse"},
    {EventType::kPushbackDrop, "pushback_drop"},
    {EventType::kCwndFull, "cwnd_full"},
    {EventType::kOutstandingUp, "outstanding_up"},
    {EventType::kPushbackNeqTarget, "pushback_neq_target"},
    {EventType::kFwdDelayUp, "fwd_delay_up"},
    {EventType::kRevDelayUp, "rev_delay_up"},
    {EventType::kTbsDrop, "tbs_drop"},
    {EventType::kRateGap, "rate_gap"},
    {EventType::kCrossTraffic, "cross_traffic"},
    {EventType::kChannelDegrade, "channel_degrade"},
    {EventType::kHarqRetx, "harq_retx"},
    {EventType::kRlcRetx, "rlc_retx"},
    {EventType::kUlScheduling, "ul_scheduling"},
    {EventType::kRrcChange, "rrc_change"},
}};

/// Downtrend with a relative threshold: some consecutive pair drops by more
/// than `frac` of the earlier value.
bool HasRelativeDrop(const WindowView<double>& v, double frac) {
  for (std::size_t i = 0; i + 1 < v.size(); ++i) {
    if (v[i + 1].value < v[i].value * (1.0 - frac)) return true;
  }
  return false;
}

bool BucketedUptrend(const WindowView<double>& v, int bucket, double factor) {
  auto means = BucketMeans(v, static_cast<std::size_t>(bucket));
  for (std::size_t k = 0; k + 1 < means.size(); ++k) {
    if (means[k + 1] > means[k] * factor) return true;
  }
  return false;
}

/// Frame-rate drop (conditions 1 & 2): max > high, min < low, and the
/// maximum occurs before the minimum.
bool FpsDrop(const WindowContext& ctx, const TimeSeries<double>& s,
             const EventThresholds& th) {
  if (ctx.SeriesCount(s) == 0) return false;
  if (ctx.SeriesMax(s) <= th.fps_high || ctx.SeriesMin(s) >= th.fps_low) {
    return false;
  }
  return ctx.SeriesArgMax(s) < ctx.SeriesArgMin(s);
}

/// Paired element-wise comparison between two series sampled on the same
/// ticks (e.g. outstanding bytes vs congestion window).
template <typename Pred>
bool AnyPaired(const WindowView<double>& a, const WindowView<double>& b,
               Pred pred) {
  std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (pred(a[i].value, b[i].value)) return true;
  }
  return false;
}

bool DelayUptrend(const WindowContext& ctx, const TimeSeries<double>& s,
                  const EventThresholds& th) {
  // The O(1) max gate prunes the O(n) bucketed-trend scan in quiet windows.
  if (ctx.SeriesCount(s) == 0) return false;
  if (ctx.SeriesMax(s) <= th.delay_up_min_ms) return false;
  return BucketedUptrend(ctx.View(s), th.trend_bucket, 1.0);
}

bool ChannelDegrade(const WindowContext& ctx, const TimeSeries<double>& mcs,
                    const EventThresholds& th) {
  auto buckets = ctx.SeriesTimeBuckets(mcs, th.mcs_bucket);
  if (buckets.empty()) return false;
  // The low-bucket count is the cheap conjunct: most windows fail it, so
  // the percentile is only selected for the few that pass.
  int low = 0;
  for (double b : buckets) {
    if (b < th.mcs_low) ++low;
  }
  if (low <= th.mcs_low_count) return false;
  // !(p90 >= max) rather than p90 < max: a NaN p90 does not veto the event.
  return !(Percentile(std::move(buckets), 90.0) >= th.mcs_p90_max);
}

bool RateGap(const WindowView<double>& app, const WindowView<double>& tbs,
             const EventThresholds& th) {
  std::size_t n = std::min(app.size(), tbs.size());
  if (n == 0) return false;
  std::size_t gap = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (app[i].value > tbs[i].value) ++gap;
  }
  return static_cast<double>(gap) > th.rate_gap_frac * static_cast<double>(n);
}

bool CrossTraffic(const WindowContext& ctx, const TimeSeries<double>& self,
                  const TimeSeries<double>& other,
                  const EventThresholds& th) {
  double other_sum = ctx.SeriesSum(other);
  if (other_sum < th.cross_traffic_min_prbs) return false;
  return other_sum > th.cross_traffic_frac * ctx.SeriesSum(self);
}

bool DetectEventImpl(EventType type, PathLeg leg, const WindowContext& ctx,
                     const EventThresholds& th) {
  const auto& dir = ctx.Dir(leg);
  const auto& snd = ctx.Sender();
  const auto& rcv = ctx.Receiver();

  switch (type) {
    case EventType::kInboundFpsDrop:
      return FpsDrop(ctx, rcv.inbound_fps, th);
    case EventType::kOutboundFpsDrop:
      return FpsDrop(ctx, snd.outbound_fps, th);
    case EventType::kResolutionDrop:
      return ctx.View(snd.outbound_resolution).HasDecreasingStep();
    case EventType::kJitterBufferDrain:
      // "Any sample <= drain threshold" == "window minimum <= threshold".
      return ctx.SeriesCount(rcv.jitter_buffer_ms) > 0 &&
             ctx.SeriesMin(rcv.jitter_buffer_ms) <= th.jb_drain_ms;
    case EventType::kTargetBitrateDrop:
      return HasRelativeDrop(ctx.View(snd.target_bitrate_bps),
                             th.bitrate_drop_frac);
    case EventType::kGccOveruse:
      // "Any sample > 0.5" == "window maximum > 0.5".
      return ctx.SeriesCount(snd.overuse) > 0 &&
             ctx.SeriesMax(snd.overuse) > 0.5;
    case EventType::kPushbackDrop:
      // A pushback-rate reduction distinct from the bandwidth estimator:
      // the rate must both drop and diverge below the target bitrate
      // (otherwise the pushback controller is just following the target).
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
      // True when this leg rides the 5G uplink and actually carried data.
      return ctx.DirIndex(leg) == 0 && ctx.SeriesCount(dir.prb_self) > 0;
    case EventType::kRrcChange:
      return ctx.SeriesCount(dir.rnti) >= 2 &&
             ctx.SeriesMin(dir.rnti) != ctx.SeriesMax(dir.rnti);
  }
  return false;
}

}  // namespace

std::string ToString(EventType type) {
  for (const auto& e : kNames) {
    if (e.type == type) return e.name;
  }
  return "unknown";
}

std::string ToString(const EventRef& ref) {
  std::string s = ToString(ref.type);
  if (ref.leg == PathLeg::kRev) s += "@rev";
  return s;
}

std::optional<EventType> EventTypeFromName(const std::string& name) {
  for (const auto& e : kNames) {
    if (name == e.name) return e.type;
  }
  return std::nullopt;
}

std::vector<std::string> KnownEventNames() {
  std::vector<std::string> out;
  out.reserve(kNames.size());
  for (const auto& e : kNames) out.emplace_back(e.name);
  return out;
}

bool DetectEvent(const EventRef& ref, const WindowContext& ctx,
                 const EventThresholds& th) {
  // Direction-scoped events default to the forward leg when unqualified.
  PathLeg leg = ref.leg == PathLeg::kNone ? PathLeg::kFwd : ref.leg;
  // Per-window memo: the same built-in evaluated by the feature extractor
  // and by several graph nodes is detected once. Valid only for the
  // thresholds instance the owning detector registered (matched by
  // address — graph nodes carrying their own copies bypass the memo).
  WindowStatsCache* cache = ctx.cache();
  bool memo = cache != nullptr && cache->memo_thresholds() == &th;
  if (memo) {
    if (auto hit = cache->LookupEvent(ref.type, leg, ctx.sender_client())) {
      return *hit;
    }
  }
  bool value = DetectEventImpl(ref.type, leg, ctx, th);
  if (memo) cache->StoreEvent(ref.type, leg, ctx.sender_client(), value);
  return value;
}

namespace {

StreamMask Bit(telemetry::StreamId id) {
  return static_cast<StreamMask>(1u << static_cast<unsigned>(id));
}

StreamMask StatsBit(int client) {
  return Bit(client == telemetry::kUeClient
                 ? telemetry::StreamId::kStatsUe
                 : telemetry::StreamId::kStatsRemote);
}

}  // namespace

StreamMask RequiredStreams(const EventRef& ref, int sender_client) {
  using S = telemetry::StreamId;
  switch (ref.type) {
    // Receiver-side playback signals.
    case EventType::kInboundFpsDrop:
    case EventType::kJitterBufferDrain:
      return StatsBit(1 - sender_client);
    // Sender-side GCC internals.
    case EventType::kOutboundFpsDrop:
    case EventType::kResolutionDrop:
    case EventType::kTargetBitrateDrop:
    case EventType::kGccOveruse:
    case EventType::kPushbackDrop:
    case EventType::kCwndFull:
    case EventType::kOutstandingUp:
    case EventType::kPushbackNeqTarget:
      return StatsBit(sender_client);
    // Packet-trace signals.
    case EventType::kFwdDelayUp:
    case EventType::kRevDelayUp:
      return Bit(S::kPackets);
    // App rate (packets) vs allocated rate (DCI).
    case EventType::kRateGap:
      return static_cast<StreamMask>(Bit(S::kPackets) | Bit(S::kDci));
    // NR-Scope scheduling telemetry.
    case EventType::kTbsDrop:
    case EventType::kCrossTraffic:
    case EventType::kChannelDegrade:
    case EventType::kHarqRetx:
    case EventType::kUlScheduling:
    case EventType::kRrcChange:
      return Bit(S::kDci);
    // gNB log (private cells).
    case EventType::kRlcRetx:
      return Bit(S::kGnbLog);
  }
  return 0;
}

}  // namespace domino::analysis
