// Domino event model: the 20 event types of Table 5 / Appendix D, their
// scoping rules, and the window they are evaluated over. The conditions
// themselves are DSL text in the prelude (prelude.h).
//
// Events are *typed conditions*; a concrete feature is an event type bound
// to a scope (which client, or which 5G direction) and evaluated over one
// sliding window of the derived trace.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/time.h"
#include "common/timeseries.h"
#include "telemetry/dataset.h"

namespace domino::analysis {

/// The 20 event/feature types of Table 5 (same numbering).
enum class EventType : std::uint8_t {
  kInboundFpsDrop = 1,
  kOutboundFpsDrop = 2,
  kResolutionDrop = 3,
  kJitterBufferDrain = 4,
  kTargetBitrateDrop = 5,
  kGccOveruse = 6,
  kPushbackDrop = 7,
  kCwndFull = 8,
  kOutstandingUp = 9,
  kPushbackNeqTarget = 10,
  kFwdDelayUp = 11,
  kRevDelayUp = 12,
  kTbsDrop = 13,
  kRateGap = 14,
  kCrossTraffic = 15,
  kChannelDegrade = 16,
  kHarqRetx = 17,
  kRlcRetx = 18,
  kUlScheduling = 19,
  kRrcChange = 20,
};

/// Which leg of the media path a direction-scoped event refers to, relative
/// to the current perspective (the sending client under analysis):
/// forward = the media direction, reverse = the RTCP feedback direction.
enum class PathLeg : std::uint8_t { kNone, kFwd, kRev };

/// A scoped event: the unit Domino's causal graph nodes reference.
struct EventRef {
  EventType type;
  PathLeg leg = PathLeg::kNone;

  bool operator==(const EventRef&) const = default;
};

/// Canonical snake_case name (used by the config DSL and reports),
/// e.g. "cross_traffic", "jitter_buffer_drain".
std::string ToString(EventType type);
std::string ToString(const EventRef& ref);
/// Inverse of ToString(EventType); nullopt for unknown names.
std::optional<EventType> EventTypeFromName(const std::string& name);
/// All canonical built-in event names (for diagnostics and suggestions).
std::vector<std::string> KnownEventNames();
/// True for the built-ins scoped to a path leg (events 13-20), where
/// `name@rev` swaps the fwd and rev scopes; the others ignore the leg.
bool IsLegScoped(EventType type);

/// Tunable thresholds for the built-in conditions (paper defaults).
struct EventThresholds {
  double fps_high = 27.0;
  double fps_low = 25.0;
  double jb_drain_ms = 0.5;          ///< "drops to 0 ms" (allow quantisation).
  double bitrate_drop_frac = 0.02;   ///< Relative step treated as a drop.
  double outstanding_up_frac = 1.05; ///< Bucketed uptrend factor.
  int trend_bucket = 10;             ///< Samples per trend bucket (App. D).
  double delay_up_min_ms = 80.0;     ///< Delay uptrend must exceed this peak.
  double tbs_drop_frac = 0.8;        ///< min < frac x max.
  double rate_gap_frac = 0.10;       ///< Fraction of bins with app > TBS.
  double cross_traffic_frac = 0.20;  ///< Other PRBs vs ours.
  double cross_traffic_min_prbs = 50;///< Absolute floor (guards empty self).
  double mcs_p90_max = 20.0;         ///< Channel-degrade condition.
  double mcs_low = 10.0;
  int mcs_low_count = 10;
  Duration mcs_bucket = Millis(50);
  int harq_retx_count = 10;          ///< "> 10 HARQ retransmissions".

  bool operator==(const EventThresholds&) const = default;
};

class WindowStatsCache;  // incremental.h

/// Comparison kinds for threshold counts (DSL count_below / count_above).
enum class CountOp : std::uint8_t { kBelow, kAbove };

/// One sliding window over the derived trace, bound to a perspective.
///
/// Perspective: `sender_client` = 0 analyses the UE's outbound media (the
/// forward leg is the 5G uplink); 1 analyses the remote client's outbound
/// media (forward = downlink). Client-scoped series resolve to the sender
/// (GCC-side signals) or the receiver (playback-side signals) accordingly.
///
/// When a WindowStatsCache is attached, window slicing and the series
/// aggregates below ride the incremental engine (O(1) amortised per window
/// step); without one they are computed from scratch — the naive path.
/// Both produce identical results (see incremental.h for the one caveat).
class WindowContext {
 public:
  WindowContext(const telemetry::DerivedTrace& trace, Time begin, Time end,
                int sender_client, WindowStatsCache* cache = nullptr)
      : trace_(&trace),
        begin_(begin),
        end_(end),
        sender_(sender_client),
        cache_(cache) {}

  [[nodiscard]] Time begin() const { return begin_; }
  [[nodiscard]] Time end() const { return end_; }
  [[nodiscard]] int sender_client() const { return sender_; }
  [[nodiscard]] int receiver_client() const { return 1 - sender_; }
  [[nodiscard]] const telemetry::DerivedTrace& trace() const {
    return *trace_;
  }

  /// Direction index (0 = UL, 1 = DL) of the given path leg.
  [[nodiscard]] int DirIndex(PathLeg leg) const {
    // UE sender (client 0) sends its media on the uplink.
    bool fwd_is_ul = sender_ == 0;
    bool want_ul = (leg == PathLeg::kFwd) == fwd_is_ul;
    return want_ul ? 0 : 1;
  }

  [[nodiscard]] const telemetry::DirectionSeries& Dir(PathLeg leg) const {
    return trace_->dir[static_cast<std::size_t>(DirIndex(leg))];
  }
  [[nodiscard]] const telemetry::ClientSeries& Sender() const {
    return trace_->client[static_cast<std::size_t>(sender_)];
  }
  [[nodiscard]] const telemetry::ClientSeries& Receiver() const {
    return trace_->client[static_cast<std::size_t>(1 - sender_)];
  }

  [[nodiscard]] WindowStatsCache* cache() const { return cache_; }

  /// Slices a series to this window (cursor-backed when a cache is set).
  [[nodiscard]] WindowView<double> View(const TimeSeries<double>& s) const;

  /// Window aggregates over a series. Min/Max/ArgMin/ArgMax require a
  /// non-empty window (check SeriesCount first), matching WindowView.
  [[nodiscard]] std::size_t SeriesCount(const TimeSeries<double>& s) const;
  [[nodiscard]] double SeriesMin(const TimeSeries<double>& s) const;
  [[nodiscard]] double SeriesMax(const TimeSeries<double>& s) const;
  [[nodiscard]] Time SeriesArgMin(const TimeSeries<double>& s) const;
  [[nodiscard]] Time SeriesArgMax(const TimeSeries<double>& s) const;
  [[nodiscard]] double SeriesSum(const TimeSeries<double>& s) const;
  [[nodiscard]] double SeriesMean(const TimeSeries<double>& s) const;
  /// Samples with value < x (kBelow) or > x (kAbove).
  [[nodiscard]] std::size_t SeriesCountCmp(const TimeSeries<double>& s,
                                           CountOp op, double x) const;
  /// TimeBucketMeans of the window, bucket edges at begin() + k * width.
  [[nodiscard]] std::vector<double> SeriesTimeBuckets(
      const TimeSeries<double>& s, Duration width) const;

 private:
  const telemetry::DerivedTrace* trace_;
  Time begin_;
  Time end_;
  int sender_;
  WindowStatsCache* cache_ = nullptr;
};

/// Evaluates the built-in condition for `ref` over the window: the prelude
/// entry for `th` (prelude.h), memoised when `ctx` rides a cache.
bool DetectEvent(const EventRef& ref, const WindowContext& ctx,
                 const EventThresholds& th);

/// Bitmask over raw telemetry streams (bit = 1 << StreamId).
using StreamMask = std::uint8_t;

/// The streams whose data the built-in condition for `ref` reads, resolved
/// for the given perspective (lint::InferStreamUse over its prelude
/// entry). This drives graceful degradation: a detected
/// chain is only as trustworthy as the window coverage of the streams its
/// nodes observed, so low-coverage windows downgrade to "insufficient
/// evidence" instead of asserting a root cause.
StreamMask RequiredStreams(const EventRef& ref, int sender_client);

}  // namespace domino::analysis
