// Unit tests for the telemetry robustness layer: the per-stream sanitizer
// (sanitize.h), the deterministic fault injector (fault_inject.h), the
// TraceQuality window-coverage math, and the tolerant dataset loader.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "telemetry/fault_inject.h"
#include "telemetry/io.h"
#include "telemetry/sanitize.h"
#include "test_scratch.h"

namespace domino {
namespace {

using telemetry::StreamId;

telemetry::DciRecord Dci(double t_s, std::uint32_t rnti = 17) {
  telemetry::DciRecord r;
  r.time = Time{0} + Seconds(t_s);
  r.rnti = rnti;
  r.dir = Direction::kUplink;
  r.prbs = 5;
  r.mcs = 10;
  r.tbs_bytes = 100;
  return r;
}

telemetry::WebRtcStatsRecord Stat(double t_s) {
  telemetry::WebRtcStatsRecord r;
  r.time = Time{0} + Seconds(t_s);
  r.outbound_fps = 30;
  return r;
}

/// A minimal 10 s dataset with a session range and a few records.
telemetry::SessionDataset TinyDataset() {
  telemetry::SessionDataset ds;
  ds.cell_name = "test";
  ds.begin = Time{0};
  ds.end = Time{0} + Seconds(10);
  for (int i = 0; i < 100; ++i) {
    ds.dci.push_back(Dci(0.1 * i));
  }
  for (int i = 0; i < 200; ++i) {
    ds.stats[0].push_back(Stat(0.05 * i));
    ds.stats[1].push_back(Stat(0.05 * i));
  }
  for (int i = 0; i < 100; ++i) {
    telemetry::PacketRecord p;
    p.id = static_cast<std::uint64_t>(i);
    p.dir = i % 2 == 0 ? Direction::kUplink : Direction::kDownlink;
    p.size_bytes = 1200;
    p.sent = Time{0} + Seconds(0.1 * i);
    p.received = p.sent + Millis(20);
    ds.packets.push_back(p);
  }
  return ds;
}

// --- Sanitizer -------------------------------------------------------------------

TEST(SanitizeTest, CleanDatasetIsClean) {
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.stream(StreamId::kDci).rows_kept, 100u);
  EXPECT_DOUBLE_EQ(rep.stream(StreamId::kDci).coverage, 1.0);
  // The gNB stream is absent by design on this (non-private) dataset.
  EXPECT_FALSE(rep.stream(StreamId::kGnbLog).expected);
}

TEST(SanitizeTest, ExactDuplicatesRemoved) {
  telemetry::SessionDataset ds = TinyDataset();
  ds.dci.InsertAt(50, ds.dci[50]);
  ds.dci.InsertAt(20, ds.dci[20]);
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  EXPECT_EQ(rep.stream(StreamId::kDci).duplicates, 2u);
  EXPECT_EQ(ds.dci.size(), 100u);
  EXPECT_FALSE(rep.clean());
}

TEST(SanitizeTest, EqualTimestampDistinctRecordsKept) {
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::DciRecord twin = Dci(5.0, /*rnti=*/99);  // same slot, other UE
  ds.dci.InsertAt(51, twin);
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  EXPECT_EQ(rep.stream(StreamId::kDci).duplicates, 0u);
  EXPECT_EQ(rep.stream(StreamId::kDci).late_dropped, 0u);
  EXPECT_EQ(ds.dci.size(), 101u);
}

TEST(SanitizeTest, LateRecordWithinWindowReinserted) {
  telemetry::SessionDataset ds = TinyDataset();
  ds.dci.push_back(Dci(9.5));  // 0.4 s behind the stream head (9.9)
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  EXPECT_EQ(rep.stream(StreamId::kDci).reordered, 1u);
  EXPECT_EQ(rep.stream(StreamId::kDci).late_dropped, 0u);
  for (std::size_t i = 1; i < ds.dci.size(); ++i) {
    EXPECT_LE(ds.dci[i - 1].time, ds.dci[i].time);
  }
}

TEST(SanitizeTest, StaleRecordBeyondWindowDropped) {
  telemetry::SessionDataset ds = TinyDataset();
  ds.dci.push_back(Dci(2.0));  // 7.9 s behind the stream head
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  EXPECT_EQ(rep.stream(StreamId::kDci).late_dropped, 1u);
  EXPECT_EQ(ds.dci.size(), 100u);
}

TEST(SanitizeTest, OutOfRangeTimestampDropped) {
  telemetry::SessionDataset ds = TinyDataset();
  ds.dci.push_back(Dci(4000.0));
  telemetry::DciRecord past = Dci(0.0);
  past.time = Time{0} - Seconds(500);
  ds.dci.InsertAt(0, past);
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  EXPECT_EQ(rep.stream(StreamId::kDci).out_of_range, 2u);
  EXPECT_EQ(ds.dci.size(), 100u);
}

TEST(SanitizeTest, GapDetectedAndCoverageComputed) {
  telemetry::SessionDataset ds = TinyDataset();
  // Remove all DCIs in [3 s, 7 s): a 4 s hole in a 10 s session.
  ds.dci.EraseIf([](const telemetry::DciRecord& r) {
    return r.time >= Time{0} + Seconds(3) && r.time < Time{0} + Seconds(7);
  });
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  const telemetry::StreamHealth& h = rep.stream(StreamId::kDci);
  EXPECT_EQ(h.gap_count, 1u);
  ASSERT_EQ(h.gaps.size(), 1u);
  EXPECT_NEAR(h.coverage, 0.6, 0.02);
  EXPECT_NEAR(h.max_gap.seconds(), 4.0, 0.2);
  EXPECT_FALSE(rep.clean());
}

TEST(SanitizeTest, PacketsInArrivalOrderAreNotDefects) {
  telemetry::SessionDataset ds = TinyDataset();
  // Swap two packets so send order is violated (normal in a reconciled
  // two-host capture).
  ds.packets.SwapRows(10, 11);
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  EXPECT_EQ(rep.stream(StreamId::kPackets).reordered, 0u);
  EXPECT_EQ(rep.stream(StreamId::kPackets).late_dropped, 0u);
  EXPECT_TRUE(rep.clean());
  // ...but they are re-sorted for the monotone consumers.
  for (std::size_t i = 1; i < ds.packets.size(); ++i) {
    EXPECT_LE(ds.packets[i - 1].sent, ds.packets[i].sent);
  }
}

TEST(SanitizeTest, SkewEstimatedAndSuspectWithoutRepair) {
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::FaultSpec spec;
  spec.skew_ms = 40;
  telemetry::InjectFaults(ds, spec, 1);
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  EXPECT_NEAR(rep.skew_ms, 40.0, 5.0);
  EXPECT_TRUE(rep.skew_suspect);
  EXPECT_FALSE(rep.skew_corrected);
  EXPECT_FALSE(rep.clean());
}

TEST(SanitizeTest, SkewCorrectedWhenRequested) {
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::FaultSpec spec;
  spec.skew_ms = 40;
  telemetry::InjectFaults(ds, spec, 1);
  telemetry::SanitizeOptions opts;
  opts.correct_skew = true;
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds, opts);
  EXPECT_TRUE(rep.skew_corrected);
  // After correction a second pass estimates ~0 skew.
  telemetry::SanitizeReport again = telemetry::SanitizeDataset(ds);
  EXPECT_NEAR(again.skew_ms, 0.0, 5.0);
}

TEST(SanitizeTest, QualityGivesUnexpectedStreamsFullCoverage) {
  telemetry::SessionDataset ds = TinyDataset();  // no gNB log
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  telemetry::TraceQuality q = rep.quality();
  EXPECT_TRUE(q.present);
  EXPECT_DOUBLE_EQ(
      q.WindowCoverage(StreamId::kGnbLog, Time{0}, Time{0} + Seconds(5)),
      1.0);
}

// --- TraceQuality window coverage ------------------------------------------------

TEST(TraceQualityTest, WindowCoverageOverlapsGaps) {
  telemetry::TraceQuality q;
  q.present = true;
  auto& dci = q.streams[static_cast<std::size_t>(StreamId::kDci)];
  dci.gaps.emplace_back(Time{0} + Seconds(2), Time{0} + Seconds(4));

  // Window fully inside the gap.
  EXPECT_DOUBLE_EQ(q.WindowCoverage(StreamId::kDci, Time{0} + Seconds(2),
                                    Time{0} + Seconds(4)),
                   0.0);
  // Window half inside.
  EXPECT_NEAR(q.WindowCoverage(StreamId::kDci, Time{0} + Seconds(3),
                               Time{0} + Seconds(5)),
              0.5, 1e-9);
  // Window clear of the gap.
  EXPECT_DOUBLE_EQ(q.WindowCoverage(StreamId::kDci, Time{0} + Seconds(5),
                                    Time{0} + Seconds(7)),
                   1.0);
  // Absent quality info => fully covered.
  telemetry::TraceQuality none;
  EXPECT_DOUBLE_EQ(none.WindowCoverage(StreamId::kDci, Time{0},
                                       Time{0} + Seconds(1)),
                   1.0);
}

// --- Fault injector --------------------------------------------------------------

TEST(FaultInjectTest, SameSeedSameCorruption) {
  telemetry::FaultSpec spec;
  spec.drop = 0.1;
  spec.duplicate = 0.05;
  spec.reorder = 0.05;
  telemetry::SessionDataset a = TinyDataset();
  telemetry::SessionDataset b = TinyDataset();
  telemetry::FaultSummary sa = telemetry::InjectFaults(a, spec, 99);
  telemetry::FaultSummary sb = telemetry::InjectFaults(b, spec, 99);
  EXPECT_EQ(sa.total(), sb.total());
  ASSERT_EQ(a.dci.size(), b.dci.size());
  for (std::size_t i = 0; i < a.dci.size(); ++i) {
    EXPECT_EQ(a.dci[i], b.dci[i]);
  }
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    EXPECT_EQ(a.packets[i], b.packets[i]);
  }
}

TEST(FaultInjectTest, DifferentSeedsDiffer) {
  telemetry::FaultSpec spec;
  spec.drop = 0.2;
  telemetry::SessionDataset a = TinyDataset();
  telemetry::SessionDataset b = TinyDataset();
  telemetry::InjectFaults(a, spec, 1);
  telemetry::InjectFaults(b, spec, 2);
  EXPECT_TRUE(a.dci != b.dci || a.stats[0] != b.stats[0]);
}

TEST(FaultInjectTest, CountsMatchSpecRoughly) {
  telemetry::FaultSpec spec;
  spec.drop = 0.25;
  telemetry::SessionDataset ds = TinyDataset();
  std::size_t before = ds.dci.size() + ds.packets.size() +
                       ds.stats[0].size() + ds.stats[1].size();
  telemetry::FaultSummary sum = telemetry::InjectFaults(ds, spec, 5);
  std::size_t after = ds.dci.size() + ds.packets.size() +
                      ds.stats[0].size() + ds.stats[1].size();
  EXPECT_EQ(before - after, sum.total());
  // 25% of 600 records, within generous tolerance.
  EXPECT_GT(sum.total(), 90u);
  EXPECT_LT(sum.total(), 220u);
}

TEST(FaultInjectTest, GapRemovesWindowOfRecords) {
  telemetry::FaultSpec spec;
  spec.gap = Seconds(4);
  spec.gap_at = 0.5;
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::FaultSummary sum = telemetry::InjectFaults(ds, spec, 1);
  EXPECT_GT(sum.total(), 0u);
  // No surviving DCI inside the injected hole.
  std::size_t inside = 0;
  for (const auto& r : ds.dci) {
    if (r.time >= Time{0} + Seconds(3.5) &&
        r.time < Time{0} + Seconds(6.5)) {
      ++inside;
    }
  }
  EXPECT_EQ(inside, 0u);
}

TEST(FaultInjectTest, TruncationCutsTail) {
  telemetry::FaultSpec spec;
  spec.truncate_tail = 0.3;
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::InjectFaults(ds, spec, 1);
  for (const auto& r : ds.dci) {
    EXPECT_LT(r.time, Time{0} + Seconds(7.01));
  }
}

// --- Loader + sanitizer integration ----------------------------------------------

TEST(LoadReportTest, MalformedRowsFoldIntoHealth) {
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::DatasetLoadReport load;
  load.stream(StreamId::kDci).rows_total = 102;
  load.stream(StreamId::kDci).rows_kept = 100;
  load.stream(StreamId::kDci).rows_dropped = 2;
  load.stream(StreamId::kDci).Add(telemetry::TelemetryErrorKind::kBadField,
                                  5, "bad");
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  telemetry::MergeLoadReport(rep, load);
  EXPECT_EQ(rep.stream(StreamId::kDci).malformed, 2u);
  EXPECT_FALSE(rep.clean());
}

TEST(LoadReportTest, UnreadableExpectedStreamFlagged) {
  telemetry::SessionDataset ds = TinyDataset();
  ds.dci.clear();  // loader kept nothing
  telemetry::DatasetLoadReport load;
  load.stream(StreamId::kDci)
      .Add(telemetry::TelemetryErrorKind::kMissingFile, 0, "dci.csv");
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  telemetry::MergeLoadReport(rep, load);
  EXPECT_TRUE(rep.stream(StreamId::kDci).expected);
  EXPECT_GE(rep.stream(StreamId::kDci).malformed, 1u);
  EXPECT_FALSE(rep.clean());
}

TEST(LoadDatasetTest, RoundTripWithCorruptionSurvives) {
  namespace fs = std::filesystem;
  const fs::path dir = testing_scratch::FreshDir("ds");
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::SaveDataset(ds, dir.string());

  // Vandalise dci.csv: inject garbage rows between good ones.
  {
    std::ifstream in(dir / "dci.csv");
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    in.close();
    std::ofstream out(dir / "dci.csv");
    out << text << "garbage,row\nnot,even,numeric,a,b,c,d,e,f\n";
  }
  fs::remove(dir / "stats_remote.csv");  // and lose a whole stream

  telemetry::DatasetLoadReport report;
  telemetry::SessionDataset loaded;
  EXPECT_NO_THROW(loaded = telemetry::LoadDataset(dir.string(), &report));
  EXPECT_EQ(loaded.dci.size(), 100u);  // good rows all kept
  EXPECT_EQ(report.stream(StreamId::kDci).rows_dropped, 2u);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.stream(StreamId::kStatsRemote).ok());
  EXPECT_FALSE(report.Format().empty());
}

TEST(SanitizeTest, FormatMentionsEveryStream) {
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  std::string text = rep.Format();
  for (const char* name :
       {"dci", "gnb_log", "packets", "stats_ue", "stats_remote", "skew"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace domino
