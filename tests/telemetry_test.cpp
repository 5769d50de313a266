// Unit tests for the telemetry layer: derived-trace building and CSV I/O.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "telemetry/dataset.h"
#include "telemetry/io.h"
#include "test_scratch.h"

namespace domino::telemetry {
namespace {

// --- BuildDerivedTrace --------------------------------------------------------

SessionDataset BaseDataset() {
  SessionDataset ds;
  ds.cell_name = "test";
  ds.is_private_cell = true;
  ds.begin = Time{0};
  ds.end = Time{0} + Seconds(10);
  ds.ue_rnti.Push(Time{0}, 0x4601);
  return ds;
}

DciRecord Dci(std::int64_t us, std::uint32_t rnti, Direction dir, int prbs,
              int mcs, int tbs, bool retx = false) {
  DciRecord d;
  d.time = Time{us};
  d.rnti = rnti;
  d.dir = dir;
  d.prbs = prbs;
  d.mcs = mcs;
  d.tbs_bytes = tbs;
  d.is_retx = retx;
  return d;
}

TEST(DerivedTraceTest, ClassifiesSelfVsCrossByRnti) {
  SessionDataset ds = BaseDataset();
  ds.dci.push_back(Dci(1000, 0x4601, Direction::kUplink, 10, 15, 500));
  ds.dci.push_back(Dci(2000, 0x0100, Direction::kUplink, 20, 15, 900));
  DerivedTrace t = BuildDerivedTrace(ds);
  ASSERT_EQ(t.ul().prb_self.size(), 1u);
  EXPECT_EQ(t.ul().prb_self[0].value, 10);
  ASSERT_EQ(t.ul().prb_other.size(), 1u);
  EXPECT_EQ(t.ul().prb_other[0].value, 20);
  EXPECT_EQ(t.ul().tbs_bytes[0].value, 500);
  EXPECT_EQ(t.ul().mcs[0].value, 15);
}

TEST(DerivedTraceTest, RntiChangeReclassifies) {
  SessionDataset ds = BaseDataset();
  ds.ue_rnti.Push(Time{5'000'000}, 0x4602);
  // Before the change 0x4601 is ours; after, 0x4602 is and 0x4601 is not.
  ds.dci.push_back(Dci(1'000'000, 0x4601, Direction::kUplink, 5, 10, 100));
  ds.dci.push_back(Dci(6'000'000, 0x4602, Direction::kUplink, 7, 10, 100));
  ds.dci.push_back(Dci(7'000'000, 0x4601, Direction::kUplink, 9, 10, 100));
  DerivedTrace t = BuildDerivedTrace(ds);
  ASSERT_EQ(t.ul().prb_self.size(), 2u);
  EXPECT_EQ(t.ul().prb_self[0].value, 5);
  EXPECT_EQ(t.ul().prb_self[1].value, 7);
  ASSERT_EQ(t.ul().prb_other.size(), 1u);
  EXPECT_EQ(t.ul().prb_other[0].value, 9);
  // The RNTI series follows the change (event 20's signal).
  EXPECT_EQ(t.ul().rnti[0].value, 0x4601);
  EXPECT_EQ(t.ul().rnti[1].value, 0x4602);
}

TEST(DerivedTraceTest, HarqRetxSeriesFromRetxDcis) {
  SessionDataset ds = BaseDataset();
  ds.dci.push_back(Dci(1000, 0x4601, Direction::kDownlink, 5, 10, 100));
  ds.dci.push_back(Dci(2000, 0x4601, Direction::kDownlink, 5, 10, 100, true));
  DerivedTrace t = BuildDerivedTrace(ds);
  EXPECT_EQ(t.dl().harq_retx.size(), 1u);
  // Retransmissions carry no *new* data: excluded from the TBS rate.
  EXPECT_EQ(t.ul().harq_retx.size(), 0u);
}

TEST(DerivedTraceTest, OwdSeriesSortedBySendTime) {
  SessionDataset ds = BaseDataset();
  PacketRecord a;
  a.id = 1;
  a.dir = Direction::kUplink;
  a.sent = Time{2'000'000};
  a.received = Time{2'050'000};
  PacketRecord b;
  b.id = 2;
  b.dir = Direction::kUplink;
  b.sent = Time{1'000'000};
  b.received = Time{2'100'000};  // arrived later but sent earlier
  ds.packets.AssignRows({a, b});  // appended in arrival order
  DerivedTrace t = BuildDerivedTrace(ds);
  ASSERT_EQ(t.ul().owd_ms.size(), 2u);
  EXPECT_LT(t.ul().owd_ms[0].time, t.ul().owd_ms[1].time);
  EXPECT_NEAR(t.ul().owd_ms[0].value, 1100.0, 0.1);
  EXPECT_NEAR(t.ul().owd_ms[1].value, 50.0, 0.1);
}

TEST(DerivedTraceTest, LostPacketsExcludedFromOwd) {
  SessionDataset ds = BaseDataset();
  PacketRecord lost;
  lost.id = 1;
  lost.dir = Direction::kDownlink;
  lost.sent = Time{1'000'000};
  ds.packets.AssignRows({lost});
  DerivedTrace t = BuildDerivedTrace(ds);
  EXPECT_TRUE(t.dl().owd_ms.empty());
}

TEST(DerivedTraceTest, AppBitrateBinsMediaOnly) {
  SessionDataset ds = BaseDataset();
  for (int i = 0; i < 10; ++i) {
    PacketRecord p;
    p.id = static_cast<std::uint64_t>(i + 1);
    p.dir = Direction::kUplink;
    p.size_bytes = 1250;  // 10 x 1250 B in 50 ms = 2 Mbps
    p.sent = Time{i * 5'000};
    p.received = p.sent + Millis(20);
    ds.packets.push_back(p);
  }
  PacketRecord rtcp;
  rtcp.id = 11;
  rtcp.dir = Direction::kUplink;
  rtcp.size_bytes = 10'000;
  rtcp.is_rtcp = true;
  rtcp.sent = Time{10'000};
  rtcp.received = Time{40'000};
  ds.packets.push_back(rtcp);
  DerivedTrace t = BuildDerivedTrace(ds);
  ASSERT_FALSE(t.ul().app_bitrate_bps.empty());
  EXPECT_NEAR(t.ul().app_bitrate_bps[0].value, 2e6, 1e3);
}

TEST(DerivedTraceTest, FarFutureTimestampDoesNotExplodeRateBins) {
  // Record timestamps are untrusted (a CRC-valid .dtb can carry any i64),
  // and a degenerate session range (end <= begin) bypasses the sanitizer's
  // range filter — the rate binner must drop such records instead of
  // resizing a multi-terabyte bin array.
  SessionDataset ds;
  ds.begin = Time{0};
  ds.end = Time{0};
  PacketRecord p;
  p.id = 1;
  p.dir = Direction::kUplink;
  p.size_bytes = 1200;
  p.sent = Time{INT64_MAX - 1};
  p.received = Time::max();  // lost: exercises only the rate-binner path
  ds.packets.push_back(p);
  DerivedTrace t = BuildDerivedTrace(ds);
  EXPECT_TRUE(t.ul().app_bitrate_bps.empty());
}

TEST(DerivedTraceTest, RlcRetxAttributedByDirection) {
  SessionDataset ds = BaseDataset();
  GnbLogRecord g;
  g.time = Time{1'000'000};
  g.dir = Direction::kDownlink;
  g.rlc_retx = true;
  ds.gnb_log.push_back(g);
  DerivedTrace t = BuildDerivedTrace(ds);
  EXPECT_EQ(t.dl().rlc_retx.size(), 1u);
  EXPECT_TRUE(t.ul().rlc_retx.empty());
}

TEST(DerivedTraceTest, StatsMappedPerClient) {
  SessionDataset ds = BaseDataset();
  WebRtcStatsRecord r;
  r.time = Time{50'000};
  r.inbound_fps = 29;
  r.target_bitrate_bps = 1.5e6;
  r.gcc_state = NetworkState::kOveruse;
  ds.stats[kUeClient].push_back(r);
  DerivedTrace t = BuildDerivedTrace(ds);
  EXPECT_EQ(t.client[0].inbound_fps[0].value, 29);
  EXPECT_EQ(t.client[0].target_bitrate_bps[0].value, 1.5e6);
  EXPECT_EQ(t.client[0].overuse[0].value, 1.0);
  EXPECT_TRUE(t.client[1].inbound_fps.empty());
}

// --- CSV round trips --------------------------------------------------------------

TEST(TelemetryIoTest, DciRoundTrip) {
  std::vector<DciRecord> in = {
      Dci(123'456, 0x4601, Direction::kUplink, 12, 17, 842, true)};
  in[0].harq_process = 3;
  in[0].attempt = 2;
  std::stringstream ss;
  WriteDciCsv(ss, in);
  auto out = ReadDciCsv(ss);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].time.micros(), 123'456);
  EXPECT_EQ(out[0].rnti, 0x4601u);
  EXPECT_EQ(out[0].dir, Direction::kUplink);
  EXPECT_EQ(out[0].prbs, 12);
  EXPECT_EQ(out[0].mcs, 17);
  EXPECT_EQ(out[0].tbs_bytes, 842);
  EXPECT_TRUE(out[0].is_retx);
  EXPECT_EQ(out[0].harq_process, 3);
  EXPECT_EQ(out[0].attempt, 2);
}

TEST(TelemetryIoTest, PacketRoundTripIncludingLoss) {
  PacketRecord p;
  p.id = 42;
  p.dir = Direction::kDownlink;
  p.size_bytes = 1200;
  p.sent = Time{1'000};
  p.received = Time::max();  // lost
  p.is_rtcp = true;
  p.frame_id = 9;
  std::stringstream ss;
  WritePacketCsv(ss, {p});
  auto out = ReadPacketCsv(ss);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].lost());
  EXPECT_TRUE(out[0].is_rtcp);
  EXPECT_EQ(out[0].frame_id, 9u);
}

TEST(TelemetryIoTest, StatsRoundTrip) {
  WebRtcStatsRecord r;
  r.time = Time{50'000};
  r.inbound_fps = 29.5;
  r.outbound_fps = 30;
  r.outbound_resolution = 540;
  r.jitter_buffer_ms = 123.5;
  r.target_bitrate_bps = 1.5e6;
  r.pushback_bitrate_bps = 1.4e6;
  r.outstanding_bytes = 44'000;
  r.cwnd_bytes = 90'000;
  r.gcc_state = NetworkState::kUnderuse;
  r.delay_slope = -3.25;
  r.concealed_ratio = 0.12;
  r.frozen = true;
  std::stringstream ss;
  WriteStatsCsv(ss, {r});
  auto out = ReadStatsCsv(ss);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].outbound_resolution, 540);
  EXPECT_NEAR(out[0].jitter_buffer_ms, 123.5, 1e-6);
  EXPECT_EQ(out[0].gcc_state, NetworkState::kUnderuse);
  EXPECT_NEAR(out[0].delay_slope, -3.25, 1e-6);
  EXPECT_TRUE(out[0].frozen);
}

TEST(TelemetryIoTest, GnbLogRoundTrip) {
  GnbLogRecord g;
  g.time = Time{77'000};
  g.rnti = 0x4602;
  g.dir = Direction::kDownlink;
  g.rlc_buffer_bytes = 12'345;
  g.rlc_retx = true;
  g.rrc_state = RrcState::kTransitioning;
  std::stringstream ss;
  WriteGnbLogCsv(ss, {g});
  auto out = ReadGnbLogCsv(ss);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rlc_buffer_bytes, 12'345);
  EXPECT_TRUE(out[0].rlc_retx);
  EXPECT_EQ(out[0].rrc_state, RrcState::kTransitioning);
  EXPECT_EQ(out[0].dir, Direction::kDownlink);
}

TEST(TelemetryIoTest, DatasetSaveLoadRoundTrip) {
  SessionDataset ds = BaseDataset();
  ds.ue_rnti.Push(Time{1'000'000}, 0x4602);
  ds.dci.push_back(Dci(1000, 0x4601, Direction::kUplink, 10, 15, 500));
  PacketRecord p;
  p.id = 1;
  p.dir = Direction::kUplink;
  p.size_bytes = 1200;
  p.sent = Time{5'000};
  p.received = Time{25'000};
  ds.packets.push_back(p);
  WebRtcStatsRecord r;
  r.time = Time{50'000};
  r.inbound_fps = 30;
  ds.stats[kUeClient].push_back(r);
  GnbLogRecord g;
  g.time = Time{10'000};
  g.rlc_buffer_bytes = 99;
  ds.gnb_log.push_back(g);

  const std::string dir = testing_scratch::FreshDir("io");
  SaveDataset(ds, dir);
  SessionDataset loaded = LoadDataset(dir);

  EXPECT_EQ(loaded.cell_name, "test");
  EXPECT_TRUE(loaded.is_private_cell);
  EXPECT_EQ(loaded.end.micros(), ds.end.micros());
  ASSERT_EQ(loaded.dci.size(), 1u);
  ASSERT_EQ(loaded.packets.size(), 1u);
  ASSERT_EQ(loaded.stats[kUeClient].size(), 1u);
  ASSERT_EQ(loaded.gnb_log.size(), 1u);
  ASSERT_EQ(loaded.ue_rnti.size(), 2u);
  EXPECT_EQ(loaded.ue_rnti[1].value, 0x4602);
}

}  // namespace
}  // namespace domino::telemetry
