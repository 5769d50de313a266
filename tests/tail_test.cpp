// Tail-reader parsing parity: the exact records, ReadStats counts and
// diagnostics (kind, message, absolute row number) TailingDatasetReader
// produces for blank, CRLF, over-long, malformed-field, too-wide and
// partial lines, through both Poll and the resume-time ReplayTo. Plus the
// size snapshot: a poll reads only up to the size it saw at open, defers a
// line straddling it, and polls racing a writer ingest exactly what one
// poll of the finished file does.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/tail.h"
#include "test_scratch.h"

namespace domino::telemetry {
namespace {

using testing_scratch::FreshDir;

void Append(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::app) << bytes;
}

DciRecord Dci(std::int64_t us, std::uint32_t rnti, Direction dir, int prbs,
              int mcs, int tbs, bool retx, int harq, int attempt) {
  DciRecord r;
  r.time = Time{us};
  r.rnti = rnti;
  r.dir = dir;
  r.prbs = prbs;
  r.mcs = mcs;
  r.tbs_bytes = tbs;
  r.is_retx = retx;
  r.harq_process = harq;
  r.attempt = attempt;
  return r;
}

struct Diag {
  TelemetryErrorKind kind;
  std::size_t row;
  std::string message;
};

void ExpectDiagnostics(const ReadStats& stats, const std::vector<Diag>& want) {
  ASSERT_EQ(stats.errors.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(stats.errors[i].kind, want[i].kind) << "diagnostic " << i;
    EXPECT_EQ(stats.errors[i].row, want[i].row) << "diagnostic " << i;
    EXPECT_EQ(stats.errors[i].message, want[i].message) << "diagnostic " << i;
  }
}

TailLimits Limits(std::int64_t cut_us, std::int64_t limit_us) {
  TailLimits lim;
  lim.cut = Time{cut_us};
  lim.limit = Time{limit_us};
  lim.reorder_guard = Micros(1000);
  lim.max_jump = Seconds(60.0);
  lim.input.max_line_bytes = 80;
  lim.input.max_fields = 14;
  return lim;
}

// Rows 1-13 of the DCI file; row 14 is appended without its newline first.
const char* const kDciRows =
    "time_us,rnti,dir,prbs,mcs,tbs_bytes,is_retx,harq_process,attempt\n"
    "1000,17921,DL,10,20,3000,0,1,0\n"  // 2: behind the cut
    "\n"                                // 3: blank
    "2000,17921,UL,5,9,600,1,2,1\r\n"   // 4: CRLF
    "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"
    "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\n"  // 5: over-long (100 bytes)
    "abc,17921,DL,1,1,1,0,0,0\n"              // 6: malformed field
    "3000,17921,DL,1,1,1\n"                   // 7: truncated row
    "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15\n"   // 8: too wide
    "\"4000,17921,DL,1,1,1,0,0,0\n"           // 9: unterminated quote
    "\"5000\",17921,DL,2,3,400,0,0,0\n"       // 10: quoted cell
    "6000,4660,UL,2,3,400,0,3,2\r\r\n"        // 11: doubled CR
    "99000000,17921,DL,1,1,1,0,0,0\n"         // 12: corrupt future time
    "20000,17921,DL,7,8,900,0,0,0\n";         // 13: held back at limit 10 ms

TEST(TailParseParityTest, PollPinsRecordsStatsAndRowNumbers) {
  const std::string dir = FreshDir("tail_dci");
  const std::string path = dir + "/dci.csv";
  Append(path, kDciRows);
  Append(path, "25000,17921,DL,1,2,3,0,0,0");  // 14: partial (no newline)

  TailingDatasetReader reader(dir);
  SessionDataset ds;

  TailProgress p = reader.Poll(StreamId::kDci, ds, Limits(1500, 10000));
  EXPECT_EQ(p.rows_ingested, 4u);
  EXPECT_TRUE(p.progressed);
  EXPECT_FALSE(p.eof);
  EXPECT_FALSE(p.partial_tail);
  EXPECT_EQ(reader.watermark(StreamId::kDci), Time{6000});
  EXPECT_EQ(reader.cursor(StreamId::kDci).abs_row, 12u);

  p = reader.Poll(StreamId::kDci, ds, Limits(1500, 30000));
  EXPECT_EQ(p.rows_ingested, 1u);
  EXPECT_TRUE(p.partial_tail);
  EXPECT_EQ(reader.cursor(StreamId::kDci).abs_row, 13u);

  Append(path, "\n");
  p = reader.Poll(StreamId::kDci, ds, Limits(1500, 30000));
  EXPECT_EQ(p.rows_ingested, 1u);
  EXPECT_TRUE(p.eof);
  EXPECT_FALSE(p.partial_tail);

  const std::vector<DciRecord> want = {
      Dci(2000, 17921, Direction::kUplink, 5, 9, 600, true, 2, 1),
      Dci(5000, 17921, Direction::kDownlink, 2, 3, 400, false, 0, 0),
      Dci(6000, 4660, Direction::kUplink, 2, 3, 400, false, 3, 2),
      Dci(99000000, 17921, Direction::kDownlink, 1, 1, 1, false, 0, 0),
      Dci(20000, 17921, Direction::kDownlink, 7, 8, 900, false, 0, 0),
      Dci(25000, 17921, Direction::kDownlink, 1, 2, 3, false, 0, 0),
  };
  EXPECT_EQ(ds.dci.ToRows(), want);

  const ReadStats& st = reader.stats(StreamId::kDci);
  EXPECT_EQ(st.rows_total, 12u);
  EXPECT_EQ(st.rows_kept, 7u);
  EXPECT_EQ(st.rows_dropped, 5u);
  ExpectDiagnostics(
      st, {{TelemetryErrorKind::kLimitExceeded, 5, "line exceeds 80 bytes"},
           {TelemetryErrorKind::kBadField, 6,
            "column 1: not an integer ('abc')"},
           {TelemetryErrorKind::kTruncatedRow, 7,
            "row has 6 cells, need at least 7"},
           {TelemetryErrorKind::kBadField, 8,
            "unterminated quote or more than 14 fields"},
           {TelemetryErrorKind::kBadField, 9,
            "unterminated quote or more than 14 fields"}});

  const TailCursor cur = reader.cursor(StreamId::kDci);
  EXPECT_EQ(cur.abs_row, 14u);
  EXPECT_TRUE(cur.header_seen);
  EXPECT_EQ(cur.offset, std::string(kDciRows).size() + 27);
  EXPECT_EQ(cur.watermark, Time{25000});

  // Resume: replaying to the cursor re-ingests the same records (minus the
  // ones behind the cut) and adopts the counts, without re-reporting
  // diagnostics.
  for (const std::int64_t cut : {1500, 5500}) {
    TailingDatasetReader replay(dir);
    SessionDataset rds;
    replay.ReplayTo(StreamId::kDci, rds, cur, Time{cut},
                    Limits(cut, 0).input);
    std::vector<DciRecord> kept;
    for (const DciRecord& r : want) {
      if (r.time >= Time{cut}) kept.push_back(r);
    }
    EXPECT_EQ(rds.dci.ToRows(), kept) << "cut " << cut;
    const ReadStats& rst = replay.stats(StreamId::kDci);
    EXPECT_EQ(rst.rows_total, 12u);
    EXPECT_EQ(rst.rows_kept, 7u);
    EXPECT_EQ(rst.rows_dropped, 5u);
    EXPECT_TRUE(rst.errors.empty());
    EXPECT_EQ(replay.cursor(StreamId::kDci).offset, cur.offset);
    EXPECT_EQ(replay.cursor(StreamId::kDci).abs_row, 14u);
  }
}

TEST(TailParseParityTest, EveryStreamMapsFieldsLikeTheBatchReader) {
  const std::string dir = FreshDir("tail_streams");
  Append(dir + "/packets.csv",
         "id,dir,size_bytes,sent_us,recv_us,is_rtcp,is_audio,frame_id\n"
         "7,UL,1200,1000,-1,0,1,42\n"
         "8,DL,12x0,2000,2500,0,0,43\n"
         "9,DL,300,3000,3400,1,0,44\r\n");
  Append(dir + "/stats_ue.csv",
         "time_us,in_fps,out_fps,out_res,jb_ms,target_bps,pushback_bps,"
         "outstanding,cwnd,gcc_state,delay_slope,concealed,frozen\n"
         "1000,29.5,30,720,40.25,1.5e6,1.4e6,1000,2000,overuse,0.5,0.01,1\n"
         "2000,30,30,720,nan,1e6,1e6,0,0,normal,0,0,0\n"
         "3000,30,30,720,10,1e6,1e6,0,0,underuse,0,0\n");
  Append(dir + "/gnb_log.csv",
         "time_us,rnti,dir,rlc_buffer,rlc_retx,rrc_state\n"
         "1000,17921,DL,500,1,idle\n"
         "2000,17921,UL,0,0,connected\n"
         "3000,17921,UL\n");

  TailingDatasetReader reader(dir);
  SessionDataset ds;
  const TailLimits lim = Limits(0, 10000);
  EXPECT_EQ(reader.Poll(StreamId::kPackets, ds, lim).rows_ingested, 2u);
  EXPECT_EQ(reader.Poll(StreamId::kStatsUe, ds, lim).rows_ingested, 1u);
  EXPECT_EQ(reader.Poll(StreamId::kGnbLog, ds, lim).rows_ingested, 2u);

  ASSERT_EQ(ds.packets.size(), 2u);
  PacketRecord p0 = ds.packets[0];
  EXPECT_EQ(p0.id, 7u);
  EXPECT_EQ(p0.dir, Direction::kUplink);
  EXPECT_EQ(p0.size_bytes, 1200);
  EXPECT_EQ(p0.sent, Time{1000});
  EXPECT_EQ(p0.received, Time::max());
  EXPECT_TRUE(p0.is_audio);
  EXPECT_EQ(p0.frame_id, 42u);
  PacketRecord p1 = ds.packets[1];
  EXPECT_EQ(p1.received, Time{3400});
  EXPECT_TRUE(p1.is_rtcp);
  ExpectDiagnostics(reader.stats(StreamId::kPackets),
                    {{TelemetryErrorKind::kBadField, 3,
                      "column 3: not an integer ('12x0')"}});

  ASSERT_EQ(ds.stats[kUeClient].size(), 1u);
  WebRtcStatsRecord s = ds.stats[kUeClient][0];
  EXPECT_EQ(s.time, Time{1000});
  EXPECT_DOUBLE_EQ(s.inbound_fps, 29.5);
  EXPECT_EQ(s.outbound_resolution, 720);
  EXPECT_DOUBLE_EQ(s.jitter_buffer_ms, 40.25);
  EXPECT_DOUBLE_EQ(s.target_bitrate_bps, 1.5e6);
  EXPECT_EQ(s.gcc_state, NetworkState::kOveruse);
  EXPECT_DOUBLE_EQ(s.concealed_ratio, 0.01);
  EXPECT_TRUE(s.frozen);
  ExpectDiagnostics(reader.stats(StreamId::kStatsUe),
                    {{TelemetryErrorKind::kBadField, 3,
                      "column 5: not a number ('nan')"},
                     {TelemetryErrorKind::kTruncatedRow, 4,
                      "row has 12 cells, need at least 13"}});

  ASSERT_EQ(ds.gnb_log.size(), 2u);
  GnbLogRecord g0 = ds.gnb_log[0];
  EXPECT_EQ(g0.dir, Direction::kDownlink);
  EXPECT_EQ(g0.rlc_buffer_bytes, 500);
  EXPECT_TRUE(g0.rlc_retx);
  EXPECT_EQ(g0.rrc_state, RrcState::kIdle);
  EXPECT_EQ(ds.gnb_log[1].rrc_state, RrcState::kConnected);
  ExpectDiagnostics(reader.stats(StreamId::kGnbLog),
                    {{TelemetryErrorKind::kTruncatedRow, 4,
                      "row has 3 cells, need at least 4"}});
  EXPECT_EQ(reader.stats(StreamId::kGnbLog).rows_total, 3u);
  EXPECT_EQ(reader.stats(StreamId::kGnbLog).rows_dropped, 1u);
}

/// Same DCI records, cursor, counts and diagnostics.
void ExpectSameTail(const TailingDatasetReader& got, const SessionDataset& gds,
                    const TailingDatasetReader& want,
                    const SessionDataset& wds) {
  EXPECT_EQ(gds.dci.ToRows(), wds.dci.ToRows());
  const TailCursor g = got.cursor(StreamId::kDci);
  const TailCursor w = want.cursor(StreamId::kDci);
  EXPECT_EQ(g.offset, w.offset);
  EXPECT_EQ(g.abs_row, w.abs_row);
  EXPECT_EQ(g.watermark, w.watermark);
  EXPECT_EQ(g.rows_total, w.rows_total);
  EXPECT_EQ(g.rows_kept, w.rows_kept);
  EXPECT_EQ(g.rows_dropped, w.rows_dropped);
  const ReadStats& gs = got.stats(StreamId::kDci);
  std::vector<Diag> diags;
  for (const TelemetryError& e : want.stats(StreamId::kDci).errors) {
    diags.push_back({e.kind, e.row, e.message});
  }
  ExpectDiagnostics(gs, diags);
}

TEST(TailSnapshotTest, StraddlingLineIsDeferredThenIngestedAtTheSameCursor) {
  const std::string dir = FreshDir("tail_straddle");
  const std::string path = dir + "/dci.csv";
  const std::string head =
      "time_us,rnti,dir,prbs,mcs,tbs_bytes,is_retx,harq_process,attempt\n"
      "1000,17921,DL,10,20,3000,0,1,0\n"
      "2000,17921,UL,5,9,600,1,2,1\n";
  Append(path, head + "3000,17921,D");  // the snapshot ends mid-line

  TailingDatasetReader reader(dir);
  SessionDataset ds;
  const TailLimits lim = Limits(0, 1'000'000);
  TailProgress p = reader.Poll(StreamId::kDci, ds, lim);
  EXPECT_EQ(p.rows_ingested, 2u);
  EXPECT_TRUE(p.partial_tail);
  EXPECT_EQ(reader.cursor(StreamId::kDci).offset, head.size());
  EXPECT_EQ(reader.cursor(StreamId::kDci).abs_row, 3u);

  const std::string rest = "L,1,1,100,0,0,0\n";
  Append(path, rest);
  p = reader.Poll(StreamId::kDci, ds, lim);
  EXPECT_EQ(p.rows_ingested, 1u);
  EXPECT_TRUE(p.eof);
  EXPECT_FALSE(p.partial_tail);
  EXPECT_EQ(reader.cursor(StreamId::kDci).offset,
            head.size() + std::string("3000,17921,D").size() + rest.size());
  EXPECT_EQ(reader.cursor(StreamId::kDci).abs_row, 4u);

  TailingDatasetReader once(dir);
  SessionDataset ods;
  once.Poll(StreamId::kDci, ods, lim);
  ExpectSameTail(reader, ds, once, ods);
}

TEST(TailSnapshotTest, PollsRacingAWriterIngestWhatOnePollDoes) {
  // > 64 KiB of rows, with CRLF, blank, malformed and over-long lines, so
  // the writer's chunks split lines, CRLF pairs and scanner blocks alike.
  std::mt19937_64 rng(29);
  std::string bytes =
      "time_us,rnti,dir,prbs,mcs,tbs_bytes,is_retx,harq_process,attempt\n";
  for (int i = 0; bytes.size() < 3 * (64 << 10); ++i) {
    switch (rng() % 20) {
      case 0:
        bytes += "\n";
        break;
      case 1:
        bytes.append("x").append(std::to_string(i));
        bytes.append(",17921,DL,1,1,1,0,0,0\n");
        break;
      case 2:
        bytes.append(200, '7').append("\n");
        break;
      default:
        bytes.append(std::to_string(1000 * (i + 1))).append(",17921,");
        bytes.append(i % 2 == 0 ? "DL," : "UL,");
        bytes.append(std::to_string(i % 50)).append(",20,");
        bytes.append(std::to_string(rng() % 100000)).append(",0,1,0");
        bytes.append(rng() % 4 == 0 ? "\r\n" : "\n");
    }
  }

  const std::string dir = FreshDir("tail_race");
  const std::string path = dir + "/dci.csv";
  const int wfd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  ASSERT_GE(wfd, 0);
  std::thread writer([&] {
    std::mt19937_64 wrng(31);
    for (std::size_t at = 0; at < bytes.size();) {
      const std::size_t n = std::min<std::size_t>(1 + wrng() % 3000,
                                                  bytes.size() - at);
      if (::write(wfd, bytes.data() + at, n) != static_cast<ssize_t>(n)) {
        return;
      }
      at += n;
    }
  });

  const TailLimits lim = Limits(0, 1'000'000'000);
  TailingDatasetReader reader(dir);
  SessionDataset ds;
  for (int i = 0; i < 200; ++i) reader.Poll(StreamId::kDci, ds, lim);
  writer.join();
  ::close(wfd);
  reader.Poll(StreamId::kDci, ds, lim);
  ASSERT_EQ(reader.cursor(StreamId::kDci).offset, bytes.size());

  TailingDatasetReader once(dir);
  SessionDataset ods;
  once.Poll(StreamId::kDci, ods, lim);
  ASSERT_GT(ods.dci.size(), 1000u);
  ExpectSameTail(reader, ds, once, ods);
}

}  // namespace
}  // namespace domino::telemetry
