#include "domino/prelude.h"

#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "domino/expr.h"
#include "domino/incremental.h"
#include "domino/lint/schema.h"

namespace domino::analysis {

namespace {

struct Entry {
  EventType type;
  const char* name;  ///< Canonical name (configs, reports, features).
  bool leg_scoped;   ///< `@rev` swaps the fwd and rev scopes.
  const char* text;  ///< DSL, with {threshold} placeholders.
};

// Table 5 / Appendix D. Each entry restates the detector's floating-point
// test exactly: `not (x <= t)` where an early exit used `x <= t`, so NaN
// resolves as it always has.
constexpr Entry kEntries[] = {
    {EventType::kInboundFpsDrop, "inbound_fps_drop", false,
     "not (max(receiver.inbound_fps) <= {fps_high} or "
     "min(receiver.inbound_fps) >= {fps_low}) and "
     "argmax(receiver.inbound_fps) < argmin(receiver.inbound_fps)"},
    {EventType::kOutboundFpsDrop, "outbound_fps_drop", false,
     "not (max(sender.outbound_fps) <= {fps_high} or "
     "min(sender.outbound_fps) >= {fps_low}) and "
     "argmax(sender.outbound_fps) < argmin(sender.outbound_fps)"},
    {EventType::kResolutionDrop, "resolution_drop", false,
     "has_drop(sender.outbound_resolution)"},
    {EventType::kJitterBufferDrain, "jitter_buffer_drain", false,
     "count(receiver.jitter_buffer_ms) > 0 and "
     "min(receiver.jitter_buffer_ms) <= {jb_drain_ms}"},
    {EventType::kTargetBitrateDrop, "target_bitrate_drop", false,
     "has_drop(sender.target_bitrate, {bitrate_drop_frac})"},
    {EventType::kGccOveruse, "gcc_overuse", false,
     "count(sender.overuse) > 0 and max(sender.overuse) > 0.5"},
    // The pushback rate must both drop and sit below the target: otherwise
    // the pushback controller is only following the bandwidth estimate.
    {EventType::kPushbackDrop, "pushback_drop", false,
     "has_drop(sender.pushback_rate, {bitrate_drop_frac}) and "
     "any_lt(sender.pushback_rate, sender.target_bitrate, 0.99)"},
    {EventType::kCwndFull, "cwnd_full", false,
     "any_over_cap(sender.outstanding_bytes, sender.cwnd_bytes)"},
    {EventType::kOutstandingUp, "outstanding_up", false,
     "trend_up(sender.outstanding_bytes, {trend_bucket}, "
     "{outstanding_up_frac})"},
    {EventType::kPushbackNeqTarget, "pushback_neq_target", false,
     "any_mismatch(sender.target_bitrate, sender.pushback_rate, 0.001)"},
    // The O(1) max gate spares quiet windows the bucketed-trend scan.
    {EventType::kFwdDelayUp, "fwd_delay_up", false,
     "not (max(fwd.owd_ms) <= {delay_up_min_ms}) and "
     "trend_up(fwd.owd_ms, {trend_bucket}, 1)"},
    {EventType::kRevDelayUp, "rev_delay_up", false,
     "not (max(rev.owd_ms) <= {delay_up_min_ms}) and "
     "trend_up(rev.owd_ms, {trend_bucket}, 1)"},
    {EventType::kTbsDrop, "tbs_drop", true,
     "count(fwd.tbs) > 0 and min(fwd.tbs) < {tbs_drop_frac} * max(fwd.tbs)"},
    {EventType::kRateGap, "rate_gap", true,
     "count_gt(fwd.app_bitrate, fwd.tbs_bitrate) > "
     "{rate_gap_frac} * pairs(fwd.app_bitrate, fwd.tbs_bitrate)"},
    {EventType::kCrossTraffic, "cross_traffic", true,
     "not (sum(fwd.prb_other) < {cross_traffic_min_prbs}) and "
     "sum(fwd.prb_other) > {cross_traffic_frac} * sum(fwd.prb_self)"},
    // Bucket means are computed once per window and shared by the three
    // conjuncts; most windows fail the low-bucket count, so the percentile
    // is only selected for the few that pass.
    {EventType::kChannelDegrade, "channel_degrade", true,
     "count(fwd.mcs, {mcs_bucket_ms}) > 0 and "
     "count_below(fwd.mcs, {mcs_low}, {mcs_bucket_ms}) > {mcs_low_count} and "
     "not (p(fwd.mcs, 90, {mcs_bucket_ms}) >= {mcs_p90_max})"},
    {EventType::kHarqRetx, "harq_retx", true, "count(fwd.harq_retx) > {harq_retx_count}"},
    {EventType::kRlcRetx, "rlc_retx", true,
     "captured(fwd.rlc_retx) and count(fwd.rlc_retx) > 0"},
    // This leg rides the 5G uplink and actually carried data.
    {EventType::kUlScheduling, "ul_scheduling", true,
     "is_uplink(fwd.prb_self) and count(fwd.prb_self) > 0"},
    {EventType::kRrcChange, "rrc_change", true,
     "count(fwd.rnti) >= 2 and min(fwd.rnti) != max(fwd.rnti)"},
};

constexpr std::size_t Index(EventType type) {
  return static_cast<std::size_t>(type) - 1;  // EventType is 1-based.
}

constexpr bool InTypeOrder() {
  for (std::size_t i = 0; i < std::size(kEntries); ++i) {
    if (Index(kEntries[i].type) != i) return false;
  }
  return std::size(kEntries) == 20;
}
static_assert(InTypeOrder(), "one prelude entry per EventType, in order");

/// Substitutes every {name} placeholder with the threshold's exact literal.
std::string Instantiate(std::string text, const EventThresholds& th) {
  const std::pair<const char*, double> values[] = {
      {"fps_high", th.fps_high},
      {"fps_low", th.fps_low},
      {"jb_drain_ms", th.jb_drain_ms},
      {"bitrate_drop_frac", th.bitrate_drop_frac},
      {"outstanding_up_frac", th.outstanding_up_frac},
      {"trend_bucket", static_cast<double>(th.trend_bucket)},
      {"delay_up_min_ms", th.delay_up_min_ms},
      {"tbs_drop_frac", th.tbs_drop_frac},
      {"rate_gap_frac", th.rate_gap_frac},
      {"cross_traffic_frac", th.cross_traffic_frac},
      {"cross_traffic_min_prbs", th.cross_traffic_min_prbs},
      {"mcs_p90_max", th.mcs_p90_max},
      {"mcs_low", th.mcs_low},
      {"mcs_low_count", static_cast<double>(th.mcs_low_count)},
      {"mcs_bucket_ms", static_cast<double>(th.mcs_bucket.micros()) / 1000.0},
      {"harq_retx_count", static_cast<double>(th.harq_retx_count)},
  };
  for (const auto& [key, value] : values) {
    const std::string slot = "{" + std::string(key) + "}";
    for (auto at = text.find(slot); at != std::string::npos;
         at = text.find(slot, at)) {
      text.replace(at, slot.size(), DslLiteral(value));
    }
  }
  return text;
}

}  // namespace

std::string ToString(EventType type) {
  for (const Entry& e : kEntries) {
    if (e.type == type) return e.name;
  }
  return "unknown";
}

std::optional<EventType> EventTypeFromName(const std::string& name) {
  for (const Entry& e : kEntries) {
    if (name == e.name) return e.type;
  }
  return std::nullopt;
}

bool IsLegScoped(EventType type) { return kEntries[Index(type)].leg_scoped; }

std::vector<std::string> KnownEventNames() {
  std::vector<std::string> out;
  for (const Entry& e : kEntries) out.emplace_back(e.name);
  return out;
}

Condition::Condition(std::shared_ptr<const ExprNode> expr)
    : expr_(std::move(expr)),
      streams_{lint::InferStreamUse(*expr_, 0),
               lint::InferStreamUse(*expr_, 1)} {}

bool Condition::Eval(const WindowContext& ctx) const {
  WindowStatsCache* cache = ctx.cache();
  if (cache == nullptr) return EvalCondition(*expr_, ctx);
  // Evaluating an expression never touches the memo, so the slot stays
  // valid across it.
  std::int8_t& slot = cache->Memo(this, ctx.sender_client());
  if (slot < 0) slot = EvalCondition(*expr_, ctx) ? 1 : 0;
  return slot != 0;
}

Prelude::Prelude(const EventThresholds& th) : th_(th) {
  std::vector<std::pair<std::size_t, std::size_t>> slots;  // fwd, rev
  for (const Entry& e : kEntries) {
    text_.push_back(Instantiate(e.text, th));
    const std::size_t fwd = conditions_.size();
    conditions_.emplace_back(ParseExpression(text_.back()));
    if (e.leg_scoped) {
      conditions_.emplace_back(
          ParseExpression(text_.back(), /*swap_legs=*/true));
    }
    slots.emplace_back(fwd, conditions_.size() - 1);
  }
  for (const auto& [fwd, rev] : slots) {
    by_leg_.push_back({&conditions_[fwd], &conditions_[rev]});
  }
}

const Prelude& Prelude::For(const EventThresholds& th) {
  // Interned for the process lifetime: conditions are memo keys, and
  // consumers keep references to them.
  static std::mutex mu;
  static auto* interned = new std::vector<std::unique_ptr<const Prelude>>();
  std::lock_guard<std::mutex> lock(mu);
  for (const auto& p : *interned) {
    if (p->th_ == th) return *p;
  }
  interned->push_back(std::unique_ptr<const Prelude>(new Prelude(th)));
  return *interned->back();
}

const Condition& Prelude::Get(const EventRef& ref) const {
  return *by_leg_[Index(ref.type)][ref.leg == PathLeg::kRev ? 1 : 0];
}

const std::string& Prelude::text(EventType type) const {
  return text_[Index(type)];
}

}  // namespace domino::analysis
