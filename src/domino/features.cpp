#include "domino/features.h"

#include "domino/prelude.h"

namespace domino::analysis {

namespace {

constexpr std::array<EventType, 10> kAppEvents = {
    EventType::kInboundFpsDrop,   EventType::kOutboundFpsDrop,
    EventType::kResolutionDrop,   EventType::kJitterBufferDrain,
    EventType::kTargetBitrateDrop, EventType::kGccOveruse,
    EventType::kPushbackDrop,     EventType::kCwndFull,
    EventType::kOutstandingUp,    EventType::kPushbackNeqTarget,
};

constexpr std::array<EventType, 6> k5gEvents = {
    EventType::kTbsDrop,       EventType::kRateGap,
    EventType::kCrossTraffic,  EventType::kChannelDegrade,
    EventType::kHarqRetx,      EventType::kRlcRetx,
};

/// App events 1 and 4 are receiver-side signals; the rest are sender-side.
bool IsReceiverScoped(EventType t) {
  return t == EventType::kInboundFpsDrop ||
         t == EventType::kJitterBufferDrain;
}

}  // namespace

std::string FeatureName(int dim) {
  if (dim < 20) {
    int client = dim / 10;
    EventType t = kAppEvents[static_cast<std::size_t>(dim % 10)];
    return ToString(t) + (client == 0 ? "[ue]" : "[remote]");
  }
  if (dim < 24) {
    int client = (dim - 20) / 2;
    bool fwd = (dim - 20) % 2 == 0;
    return std::string(fwd ? "fwd_delay_up" : "rev_delay_up") +
           (client == 0 ? "[ue]" : "[remote]");
  }
  if (dim < 36) {
    int d = (dim - 24) / 6;
    EventType t = k5gEvents[static_cast<std::size_t>((dim - 24) % 6)];
    return ToString(t) + (d == 0 ? "[ul]" : "[dl]");
  }
  if (dim < 38) {
    return std::string("ul_scheduling") + (dim == 36 ? "[ul]" : "[dl]");
  }
  return std::string("rrc_change") + (dim == 38 ? "[ul]" : "[dl]");
}

FeatureVector ExtractFeatures(const telemetry::DerivedTrace& trace,
                              Time begin, Time end,
                              const EventThresholds& th,
                              WindowStatsCache* cache) {
  const Prelude& prelude = Prelude::For(th);
  auto detect = [&](EventType type, const WindowContext& ctx) {
    return prelude.Get(EventRef{type}).Eval(ctx);
  };
  FeatureVector out{};
  // Perspective contexts: sender = UE (forward leg is UL) and
  // sender = remote (forward leg is DL).
  WindowContext ue_ctx(trace, begin, end, 0, cache);
  WindowContext remote_ctx(trace, begin, end, 1, cache);

  // App events per client. Sender-scoped events use the client's own
  // perspective; receiver-scoped events are reached through the *other*
  // client's perspective (where this client is the receiver).
  for (int c = 0; c < 2; ++c) {
    const WindowContext& own = c == 0 ? ue_ctx : remote_ctx;
    const WindowContext& other = c == 0 ? remote_ctx : ue_ctx;
    for (int e = 0; e < 10; ++e) {
      EventType t = kAppEvents[static_cast<std::size_t>(e)];
      out[static_cast<std::size_t>(c * 10 + e)] =
          detect(t, IsReceiverScoped(t) ? other : own);
    }
  }

  // Forward/reverse delay per perspective (events 11, 12).
  out[20] = detect(EventType::kFwdDelayUp, ue_ctx);
  out[21] = detect(EventType::kRevDelayUp, ue_ctx);
  out[22] = detect(EventType::kFwdDelayUp, remote_ctx);
  out[23] = detect(EventType::kRevDelayUp, remote_ctx);

  // 5G events per direction. The UE perspective's forward leg is the UL;
  // the remote perspective's forward leg is the DL.
  for (int d = 0; d < 2; ++d) {
    const WindowContext& ctx = d == 0 ? ue_ctx : remote_ctx;
    for (int e = 0; e < 6; ++e) {
      out[static_cast<std::size_t>(24 + d * 6 + e)] =
          detect(k5gEvents[static_cast<std::size_t>(e)], ctx);
    }
  }
  out[36] = detect(EventType::kUlScheduling, ue_ctx);
  out[37] = detect(EventType::kUlScheduling, remote_ctx);
  out[38] = detect(EventType::kRrcChange, ue_ctx);
  out[39] = detect(EventType::kRrcChange, remote_ctx);
  return out;
}

}  // namespace domino::analysis
