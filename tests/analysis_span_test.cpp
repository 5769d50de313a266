// Bounded analysis span ≡ full retained dataset. The live runtime sanitizes
// and derives only the span GatherAnalysisSpan selects (rows at or after a
// grid-aligned `lo`). For every window that begins at or after
// lo + gap_threshold, Detector::AnalyzeWindow must then give exactly the
// result it gives on the sanitized, derived whole dataset: over clean,
// fault-injected, gapped and stalled-stream traces, several `lo` and two
// gap thresholds. The per-stream window coverage, which bounds the
// confidence of every chain, must match as well.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "domino/detector.h"
#include "sim/call_session.h"
#include "sim/cell_config.h"
#include "telemetry/fault_inject.h"
#include "telemetry/retention.h"
#include "telemetry/sanitize.h"

namespace domino {
namespace {

using telemetry::SessionDataset;

struct Trace {
  std::string name;
  SessionDataset ds;
};

std::vector<Trace> Traces() {
  sim::SessionConfig cfg;
  cfg.profile = sim::Amarisoft();
  cfg.duration = Seconds(20);
  cfg.seed = 21;
  const SessionDataset clean = sim::CallSession(cfg).Run();

  // The BM_Sanitize/5 fault mix.
  telemetry::FaultSpec mix;
  mix.drop = 0.05;
  mix.duplicate = 0.05;
  mix.reorder = 0.05;
  mix.corrupt_time = 0.01;
  SessionDataset faulted = clean;
  telemetry::InjectFaults(faulted, mix, 11);

  // A 3 s hole in every stream over [8.5 s, 11.5 s): lo = 10 s cuts it.
  telemetry::FaultSpec hole;
  hole.gap = Seconds(3);
  hole.gap_at = 0.5;
  SessionDataset gapped = clean;
  telemetry::InjectFaults(gapped, hole, 5);

  // Two streams stop 9 s in: a span past that holds none of their rows.
  SessionDataset stalled = clean;
  const Time stall = clean.begin + Seconds(9);
  stalled.stats[telemetry::kRemoteClient].EraseIf(
      [&](const auto& r) { return r.time >= stall; });
  stalled.gnb_log.EraseIf([&](const auto& r) { return r.time >= stall; });

  return {{"clean", clean},
          {"faulted", faulted},
          {"gapped", gapped},
          {"stalled", stalled}};
}

telemetry::DerivedTrace SanitizeAndDerive(
    SessionDataset& ds, const telemetry::SanitizeOptions& opts) {
  const telemetry::SanitizeReport health =
      telemetry::SanitizeDataset(ds, opts);
  telemetry::DerivedTrace trace = telemetry::BuildDerivedTrace(ds);
  trace.quality = health.quality();
  return trace;
}

void ExpectSameWindow(const analysis::WindowResult& full,
                      const analysis::WindowResult& span,
                      const std::string& where) {
  EXPECT_EQ(full.features, span.features) << where;
  EXPECT_EQ(full.node_active, span.node_active) << where;
  ASSERT_EQ(full.chains.size(), span.chains.size()) << where;
  for (std::size_t i = 0; i < full.chains.size(); ++i) {
    EXPECT_EQ(full.chains[i].window_begin, span.chains[i].window_begin)
        << where;
    EXPECT_EQ(full.chains[i].sender_client, span.chains[i].sender_client)
        << where;
    EXPECT_EQ(full.chains[i].chain_index, span.chains[i].chain_index)
        << where;
    EXPECT_EQ(full.chains[i].confidence, span.chains[i].confidence) << where;
  }
}

TEST(AnalysisSpanTest, SpanMatchesFullRetainedAnalysisFromLoPlusGap) {
  analysis::DominoConfig cfg;
  cfg.extract_features = true;
  const analysis::Detector detector(
      analysis::CausalGraph::Default(cfg.thresholds), cfg);

  SessionDataset span;  // Reused across cases, as the live runtime does.
  for (const Trace& t : Traces()) {
    for (const double gap_s : {1.0, 2.0}) {
      telemetry::SanitizeOptions opts;
      opts.gap_threshold = Seconds(gap_s);
      SessionDataset full = t.ds;
      const telemetry::DerivedTrace full_trace =
          SanitizeAndDerive(full, opts);

      for (const int lo_s : {0, 3, 7, 10, 12}) {
        const Time lo = t.ds.begin + Seconds(lo_s);
        telemetry::GatherAnalysisSpan(t.ds, lo, span);
        const telemetry::DerivedTrace span_trace =
            SanitizeAndDerive(span, opts);

        int compared = 0;
        for (Time b = t.ds.begin; b + cfg.window <= t.ds.end; b += cfg.step) {
          if (b < lo + opts.gap_threshold) continue;
          const std::string where =
              t.name + " gap " + std::to_string(gap_s) + " lo " +
              std::to_string(lo_s) + " window " +
              std::to_string((b - t.ds.begin).seconds());
          ExpectSameWindow(detector.AnalyzeWindow(full_trace, b),
                           detector.AnalyzeWindow(span_trace, b), where);
          // Per-stream coverage bounds the confidence of any chain, firing
          // here or not.
          for (std::size_t s = 0; s < telemetry::kStreamCount; ++s) {
            const auto id = static_cast<telemetry::StreamId>(s);
            EXPECT_EQ(full_trace.quality.WindowCoverage(id, b, b + cfg.window),
                      span_trace.quality.WindowCoverage(id, b, b + cfg.window))
                << where << " stream " << telemetry::StreamName(id);
          }
          ++compared;
        }
        EXPECT_GT(compared, 0) << t.name << " lo " << lo_s;
      }
    }
  }
}

TEST(AnalysisSpanTest, BorrowsSuffixesAndKeepsEmptiedStreamsPresent) {
  SessionDataset ds;
  ds.begin = Time{0};
  ds.end = Time{0} + Seconds(10);
  for (int ms : {100, 1500, 2500, 3000}) {
    telemetry::DciRecord d;
    d.time = Time{0} + Millis(ms);
    ds.dci.push_back(d);
    telemetry::WebRtcStatsRecord s;
    s.time = Time{0} + Millis(ms / 2);  // All before 2 s.
    ds.stats[telemetry::kUeClient].push_back(s);
  }
  // Packets arrive out of send order: rows at or after 2 s are no suffix.
  for (int ms : {2100, 500, 2600, 1900}) {
    telemetry::PacketRecord p;
    p.sent = Time{0} + Millis(ms);
    p.received = p.sent + Millis(20);
    ds.packets.push_back(p);
  }

  SessionDataset span;
  telemetry::GatherAnalysisSpan(ds, Time{0} + Seconds(2), span);
  EXPECT_EQ(span.begin, Time{0} + Seconds(2));
  EXPECT_EQ(span.end, ds.end);

  ASSERT_EQ(span.dci.size(), 2u);
  EXPECT_TRUE(span.dci.time.borrowed());
  EXPECT_EQ(span.dci[0].time, Time{0} + Millis(2500));

  ASSERT_EQ(span.packets.size(), 2u);
  EXPECT_FALSE(span.packets.sent.borrowed());
  EXPECT_EQ(span.packets[0].sent, Time{0} + Millis(2100));
  EXPECT_EQ(span.packets[1].sent, Time{0} + Millis(2600));

  // No UE stats row at or after 2 s: the last one stands in for the stream.
  ASSERT_EQ(span.stats[telemetry::kUeClient].size(), 1u);
  EXPECT_EQ(span.stats[telemetry::kUeClient][0].time, Time{0} + Millis(1500));
  EXPECT_TRUE(span.stats[telemetry::kRemoteClient].empty());
  EXPECT_TRUE(span.gnb_log.empty());
}

}  // namespace
}  // namespace domino
