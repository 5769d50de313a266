#include "domino/lint/schema.h"

#include <cmath>

#include "domino/expr.h"

namespace domino::analysis::lint {

const char* UnitName(Unit u) {
  switch (u) {
    case Unit::kUnknown: return "unknown";
    case Unit::kMs: return "milliseconds";
    case Unit::kBps: return "bits/s";
    case Unit::kFps: return "frames/s";
    case Unit::kBytes: return "bytes";
    case Unit::kPrb: return "PRBs";
    case Unit::kMcs: return "MCS index";
    case Unit::kCount: return "a count";
    case Unit::kResolution: return "pixels";
    case Unit::kBool: return "a boolean";
    case Unit::kId: return "an identifier";
  }
  return "unknown";
}

namespace {

using telemetry::StreamId;

constexpr SchemaScope kDir = SchemaScope::kDirection;
constexpr SchemaScope kCli = SchemaScope::kClient;

// Physically plausible per-sample ranges. Bounds are deliberately generous
// (false positives are forbidden); cadences are the *densest* the source
// can emit, so window sample budgets (DL407) are upper bounds:
//   - DCI-derived series arrive at most once per 0.5 ms slot;
//   - per-packet delay can be back-to-back (10 µs floor);
//   - application stats and the rate series come in 50 ms bins;
//   - gNB RLC log entries are at most ~1/ms.
// PRBs cap at 273 (the widest NR carrier), MCS at index 28, RNTI at the
// 16-bit C-RNTI space, fps at 120 (the paper's dataset caps at 30/60).
// harq_retx / rlc_retx are tick series whose samples are exactly 1.0.
using D = telemetry::DirectionSeries;
using C = telemetry::ClientSeries;

const std::vector<SeriesSchema> kSchema = {
    // 5G direction-scope series (fwd/rev/ul/dl).
    {"tbs", kDir, Unit::kBytes, 0, 4.0e6, 0.5, SourceFeed::kDci, &D::tbs_bytes},
    {"prb_self", kDir, Unit::kPrb, 0, 273, 0.5, SourceFeed::kDci, &D::prb_self},
    {"prb_other", kDir, Unit::kPrb, 0, 273, 0.5, SourceFeed::kDci,
     &D::prb_other},
    {"mcs", kDir, Unit::kMcs, 0, 28, 0.5, SourceFeed::kDci, &D::mcs},
    {"harq_retx", kDir, Unit::kCount, 1, 1, 0.5, SourceFeed::kDci,
     &D::harq_retx},
    {"rlc_retx", kDir, Unit::kCount, 1, 1, 1.0, SourceFeed::kGnbLog,
     &D::rlc_retx},
    {"owd_ms", kDir, Unit::kMs, 0, 1.0e4, 0.01, SourceFeed::kPackets,
     &D::owd_ms},
    {"app_bitrate", kDir, Unit::kBps, 0, 1.0e10, 50, SourceFeed::kPackets,
     &D::app_bitrate_bps},
    {"tbs_bitrate", kDir, Unit::kBps, 0, 1.0e10, 50, SourceFeed::kDci,
     &D::tbs_bitrate_bps},
    {"rnti", kDir, Unit::kId, 1, 65535, 0.5, SourceFeed::kDci, &D::rnti},
    // Client-scope series (sender/receiver/ue/remote), all 50 ms stats.
    {"inbound_fps", kCli, Unit::kFps, 0, 120, 50, SourceFeed::kClientStats,
     nullptr, &C::inbound_fps},
    {"outbound_fps", kCli, Unit::kFps, 0, 120, 50, SourceFeed::kClientStats,
     nullptr, &C::outbound_fps},
    {"outbound_resolution", kCli, Unit::kResolution, 0, 4320, 50,
     SourceFeed::kClientStats, nullptr, &C::outbound_resolution},
    {"jitter_buffer_ms", kCli, Unit::kMs, 0, 1.0e4, 50,
     SourceFeed::kClientStats, nullptr, &C::jitter_buffer_ms},
    {"target_bitrate", kCli, Unit::kBps, 0, 1.0e10, 50,
     SourceFeed::kClientStats, nullptr, &C::target_bitrate_bps},
    {"pushback_rate", kCli, Unit::kBps, 0, 1.0e10, 50,
     SourceFeed::kClientStats, nullptr, &C::pushback_bitrate_bps},
    {"outstanding_bytes", kCli, Unit::kBytes, 0, 1.0e9, 50,
     SourceFeed::kClientStats, nullptr, &C::outstanding_bytes},
    {"cwnd_bytes", kCli, Unit::kBytes, 0, 1.0e9, 50,
     SourceFeed::kClientStats, nullptr, &C::cwnd_bytes},
    {"overuse", kCli, Unit::kBool, 0, 1, 50, SourceFeed::kClientStats,
     nullptr, &C::overuse},
};

StreamMask Bit(StreamId id) {
  return static_cast<StreamMask>(1u << static_cast<unsigned>(id));
}

/// Collects the source streams of every series reference in an expression.
class StreamUseWalker : public ExprVisitor {
 public:
  explicit StreamUseWalker(int sender_client)
      : sender_client_(sender_client) {}

  StreamMask mask() const { return mask_; }

  void VisitNumber(const ExprNode&, double) override {}
  void VisitSeries(const ExprNode&, const std::string& scope,
                   const std::string& name) override {
    const SeriesSchema* row = FindSeriesSchema(scope, name);
    if (row == nullptr) return;  // unresolvable reference: no stream claim
    mask_ = static_cast<StreamMask>(
        mask_ | Bit(ResolveSourceStream(*row, scope, sender_client_)));
  }
  void VisitCall(const ExprNode&, const std::string&,
                 const std::vector<ExprPtr>& series_args,
                 const std::vector<ExprPtr>& scalar_args) override {
    for (const auto& a : series_args) a->Accept(*this);
    for (const auto& a : scalar_args) a->Accept(*this);
  }
  void VisitUnary(const ExprNode&, UnOp, const ExprNode& operand) override {
    operand.Accept(*this);
  }
  void VisitBinary(const ExprNode&, BinOp, const ExprNode& lhs,
                   const ExprNode& rhs) override {
    lhs.Accept(*this);
    rhs.Accept(*this);
  }

 private:
  int sender_client_;
  StreamMask mask_ = 0;
};

}  // namespace

const std::vector<SeriesSchema>& TelemetrySchema() { return kSchema; }

const SeriesSchema* FindSeriesSchema(SchemaScope scope,
                                     const std::string& name) {
  for (const auto& row : kSchema) {
    if (row.scope == scope && name == row.name) return &row;
  }
  return nullptr;
}

const SeriesSchema* FindSeriesSchema(const std::string& scope,
                                     const std::string& name) {
  if (IsDirScopeName(scope)) return FindSeriesSchema(kDir, name);
  if (IsClientScopeName(scope)) return FindSeriesSchema(kCli, name);
  return nullptr;
}

bool IsDirScopeName(const std::string& s) {
  return s == "fwd" || s == "rev" || s == "ul" || s == "dl";
}

bool IsClientScopeName(const std::string& s) {
  return s == "sender" || s == "receiver" || s == "ue" || s == "remote";
}

std::size_t MaxSamplesInWindow(const SeriesSchema& row, double window_ms) {
  if (window_ms <= 0 || row.cadence_ms <= 0) return 0;
  return static_cast<std::size_t>(std::floor(window_ms / row.cadence_ms)) + 1;
}

telemetry::StreamId ResolveSourceStream(const SeriesSchema& row,
                                        const std::string& scope,
                                        int sender_client) {
  switch (row.source) {
    case SourceFeed::kDci: return StreamId::kDci;
    case SourceFeed::kGnbLog: return StreamId::kGnbLog;
    case SourceFeed::kPackets: return StreamId::kPackets;
    case SourceFeed::kClientStats: break;
  }
  int client;
  if (scope == "ue") {
    client = telemetry::kUeClient;
  } else if (scope == "remote") {
    client = telemetry::kRemoteClient;
  } else if (scope == "sender") {
    client = sender_client;
  } else {  // "receiver"
    client = 1 - sender_client;
  }
  return client == telemetry::kUeClient ? StreamId::kStatsUe
                                        : StreamId::kStatsRemote;
}

StreamMask InferStreamUse(const ExprNode& expr, int sender_client) {
  StreamUseWalker walker(sender_client);
  expr.Accept(walker);
  return walker.mask();
}

std::optional<telemetry::StreamId> StreamIdFromName(const std::string& name) {
  for (std::size_t s = 0; s < telemetry::kStreamCount; ++s) {
    auto id = static_cast<StreamId>(s);
    if (name == telemetry::StreamName(id)) return id;
  }
  return std::nullopt;
}

std::string StreamMaskNames(StreamMask mask) {
  std::string out;
  for (std::size_t s = 0; s < telemetry::kStreamCount; ++s) {
    if ((mask & (1u << s)) == 0) continue;
    if (!out.empty()) out += ", ";
    out += telemetry::StreamName(static_cast<StreamId>(s));
  }
  return out;
}

}  // namespace domino::analysis::lint
