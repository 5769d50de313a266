// Tests for the binary telemetry wire format (telemetry/binfmt.h): value
// round-trips, zero-copy mmap adoption, byte-exact CSV goldens, and the
// strict rejection of corrupted images — every truncation point and every
// single-bit flip of a valid file must fail with a typed diagnostic.
#include "telemetry/binfmt.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "telemetry/dataset.h"
#include "telemetry/io.h"
#include "trace_fixtures.h"

namespace domino::telemetry {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("domino_binfmt_" + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

/// A small deterministic dataset touching every field of every stream,
/// including the edge values the wire must preserve exactly (lost-packet
/// Time::max() sentinels, negative delay slopes, all enum states).
SessionDataset MakeDataset() {
  SessionDataset ds;
  ds.cell_name = "binfmt-cell";
  ds.is_private_cell = true;
  ds.begin = Time{0};
  ds.end = Time{0} + Seconds(10);
  for (int i = 0; i < 9; ++i) {
    DciRecord d;
    d.time = Time{i * 1000};
    d.rnti = i % 2 == 0 ? 0x4601u : 0x4602u;
    d.dir = i % 2 == 0 ? Direction::kDownlink : Direction::kUplink;
    d.prbs = 10 + i;
    d.mcs = 27 - i;
    d.tbs_bytes = 1500 * (i + 1);
    d.is_retx = i % 3 == 0;
    d.harq_process = i % 8;
    d.attempt = i % 3;
    ds.dci.push_back(d);
  }
  for (int i = 0; i < 5; ++i) {
    GnbLogRecord g;
    g.time = Time{i * 2000};
    g.rnti = 0x4601;
    g.dir = Direction::kUplink;
    g.rlc_buffer_bytes = 777 * i;
    g.rlc_retx = i == 2;
    g.rrc_state = static_cast<RrcState>(i % 3);
    ds.gnb_log.push_back(g);
  }
  for (int i = 0; i < 7; ++i) {
    PacketRecord p;
    p.id = 1000 + static_cast<std::uint64_t>(i);
    p.dir = Direction::kDownlink;
    p.size_bytes = 1200 - i;
    p.sent = Time{i * 500};
    p.received = i == 4 ? Time::max() : Time{i * 500 + 9000};
    p.is_rtcp = i == 1;
    p.is_audio = i == 5;
    p.frame_id = static_cast<std::uint64_t>(i) / 2;
    ds.packets.push_back(p);
  }
  for (int client = 0; client < 2; ++client) {
    for (int i = 0; i < 4; ++i) {
      WebRtcStatsRecord s;
      s.time = Time{i * 50'000};
      s.inbound_fps = 30 - i;
      s.outbound_fps = 29.5;
      s.outbound_resolution = 720;
      s.jitter_buffer_ms = 85.25 + i;
      s.target_bitrate_bps = 2.5e6;
      s.pushback_bitrate_bps = 2.4e6;
      s.outstanding_bytes = 12345;
      s.cwnd_bytes = 65536;
      s.gcc_state = static_cast<NetworkState>(i % 3);
      s.delay_slope = -0.125 * i;
      s.concealed_ratio = 0.01 * client;
      s.frozen = i == 3;
      ds.stats[client].push_back(s);
    }
  }
  analysis_test::Fill(ds.ue_rnti, Time{0}, Time{0} + Seconds(10), Seconds(2),
                      [](int i) { return 0x4601 + i % 2; });
  return ds;
}

void ExpectEqualDatasets(const SessionDataset& a, const SessionDataset& b) {
  EXPECT_EQ(a.cell_name, b.cell_name);
  EXPECT_EQ(a.is_private_cell, b.is_private_cell);
  EXPECT_EQ(a.begin, b.begin);
  EXPECT_EQ(a.end, b.end);
  EXPECT_TRUE(a.dci == b.dci);
  EXPECT_TRUE(a.gnb_log == b.gnb_log);
  EXPECT_TRUE(a.packets == b.packets);
  EXPECT_TRUE(a.stats[0] == b.stats[0]);
  EXPECT_TRUE(a.stats[1] == b.stats[1]);
  ASSERT_EQ(a.ue_rnti.size(), b.ue_rnti.size());
  for (std::size_t i = 0; i < a.ue_rnti.size(); ++i) {
    EXPECT_EQ(a.ue_rnti[i].time, b.ue_rnti[i].time);
    EXPECT_EQ(a.ue_rnti[i].value, b.ue_rnti[i].value);
  }
}

bool ParseImage(const std::string& img, SessionDataset& ds, ReadStats& stats,
                const InputLimits& limits = {}) {
  return ParseDatasetBinary(reinterpret_cast<const std::byte*>(img.data()),
                            img.size(), nullptr, ds, stats, limits);
}

std::string ReadFileBytes(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(BinFmt, EmptyDatasetRoundTrips) {
  SessionDataset empty;
  const std::string img = SerializeDatasetBinary(empty);
  SessionDataset out;
  ReadStats stats;
  ASSERT_TRUE(ParseImage(img, out, stats));
  EXPECT_TRUE(stats.ok());
  ExpectEqualDatasets(empty, out);
}

TEST(BinFmt, RoundTripPreservesEveryStream) {
  const SessionDataset ds = MakeDataset();
  const std::string img = SerializeDatasetBinary(ds);
  SessionDataset out;
  ReadStats stats;
  ASSERT_TRUE(ParseImage(img, out, stats))
      << (stats.errors.empty() ? std::string() : stats.errors[0].message);
  EXPECT_TRUE(stats.ok());
  ExpectEqualDatasets(ds, out);
}

TEST(BinFmt, SerializationIsDeterministic) {
  const SessionDataset ds = MakeDataset();
  EXPECT_EQ(SerializeDatasetBinary(ds), SerializeDatasetBinary(ds));
}

TEST(BinFmt, RowMaterializedCopySerializesIdentically) {
  // Columnar-vs-row equivalence at the wire: a dataset rebuilt through the
  // row-record API (ToRows/AssignRows) produces the identical image.
  const SessionDataset ds = MakeDataset();
  SessionDataset rebuilt = ds;
  rebuilt.dci.AssignRows(ds.dci.ToRows());
  rebuilt.gnb_log.AssignRows(ds.gnb_log.ToRows());
  rebuilt.packets.AssignRows(ds.packets.ToRows());
  rebuilt.stats[0].AssignRows(ds.stats[0].ToRows());
  rebuilt.stats[1].AssignRows(ds.stats[1].ToRows());
  EXPECT_EQ(SerializeDatasetBinary(ds), SerializeDatasetBinary(rebuilt));
}

TEST(BinFmt, MmapReadAdoptsColumnsZeroCopy) {
  TempDir dir("mmap");
  const SessionDataset ds = MakeDataset();
  ASSERT_TRUE(SaveDatasetBinary(ds, dir.str()));
  SessionDataset out;
  ReadStats stats;
  ASSERT_TRUE(ReadDatasetBinary(dir.str() + "/" + kBinaryDatasetFile, out,
                                stats));
  ExpectEqualDatasets(ds, out);
  // Columns borrow the mapping rather than owning copies...
  EXPECT_TRUE(out.dci.time.borrowed());
  EXPECT_TRUE(out.stats[0].jitter_buffer_ms.borrowed());
  EXPECT_TRUE(out.ue_rnti.shares_times());
  // ...and materialize copy-on-write when mutated.
  DciRecord extra = ds.dci[0];
  extra.time = Time{0} + Seconds(9);
  out.dci.push_back(extra);
  EXPECT_FALSE(out.dci.time.borrowed());
  EXPECT_EQ(out.dci.size(), ds.dci.size() + 1);
  EXPECT_TRUE(out.dci[ds.dci.size()] == extra);
}

TEST(BinFmt, InPlaceReencodeIsSafeAndAtomic) {
  // After ReadDatasetBinary the columns zero-copy borrow the mmap of
  // telemetry.dtb, so re-saving into the same directory serializes from the
  // very pages the save replaces. The writer must build the image before
  // touching the destination and stage through a temp + rename (regression:
  // it used to truncate the mapped file first — SIGBUS mid-write and a
  // destroyed original).
  TempDir dir("inplace");
  const SessionDataset ds = MakeDataset();
  ASSERT_TRUE(SaveDatasetBinary(ds, dir.str()));
  const std::string path = dir.str() + "/" + kBinaryDatasetFile;
  SessionDataset loaded;
  ReadStats stats;
  ASSERT_TRUE(ReadDatasetBinary(path, loaded, stats));
  ASSERT_TRUE(loaded.dci.time.borrowed());  // the mapping is live
  ASSERT_TRUE(SaveDatasetBinary(loaded, dir.str()));
  SessionDataset reread;
  ReadStats stats2;
  ASSERT_TRUE(ReadDatasetBinary(path, reread, stats2));
  ExpectEqualDatasets(ds, reread);
  for (const auto& e : fs::directory_iterator(dir.str())) {
    // The staging file was renamed away.
    EXPECT_NE(e.path().filename().string().rfind("telemetry.dtb.tmp", 0), 0u)
        << e.path();
  }
}

TEST(BinFmt, OverBoundsCellNameFailsTheSave) {
  // The reader caps cell names at 4096 bytes; the writer must refuse such
  // a dataset instead of silently producing an unloadable .dtb.
  SessionDataset ds = MakeDataset();
  ds.cell_name.assign(5000, 'x');
  EXPECT_TRUE(SerializeDatasetBinary(ds).empty());
  std::ostringstream os;
  EXPECT_FALSE(WriteDatasetBinary(os, ds));
  EXPECT_TRUE(os.str().empty());
  TempDir dir("overbounds");
  EXPECT_FALSE(SaveDatasetBinary(ds, dir.str()));
  EXPECT_FALSE(fs::exists(dir.path / kBinaryDatasetFile));
}

TEST(BinFmt, ReadStatsCountRowsOncePerStream) {
  // 9 DCI + 5 gNB + 7 packet + 4 + 4 stats rows. The wire carries one block
  // per column; the row figures must not be multiplied by the column count.
  const SessionDataset ds = MakeDataset();
  const std::string img = SerializeDatasetBinary(ds);
  SessionDataset out;
  ReadStats stats;
  ASSERT_TRUE(ParseImage(img, out, stats));
  EXPECT_EQ(stats.rows_total, 29u);
  EXPECT_EQ(stats.rows_kept, 29u);
}

TEST(BinFmt, CsvToBinaryToCsvIsByteExact) {
  TempDir dir("golden");
  const SessionDataset ds = MakeDataset();
  const fs::path csv1 = dir.path / "csv1";
  const fs::path bin = dir.path / "bin";
  const fs::path csv2 = dir.path / "csv2";
  SaveDataset(ds, csv1.string());

  // CSV -> binary -> CSV, loading through the public LoadDataset surface
  // each time (the binary is auto-detected in `bin`).
  DatasetLoadReport r1;
  SessionDataset from_csv = LoadDataset(csv1.string(), &r1);
  ASSERT_TRUE(r1.ok()) << r1.Format();
  ASSERT_TRUE(SaveDatasetBinary(from_csv, bin.string()));
  DatasetLoadReport r2;
  SessionDataset from_bin = LoadDataset(bin.string(), &r2);
  ASSERT_TRUE(r2.ok()) << r2.Format();
  SaveDataset(from_bin, csv2.string());

  for (const char* name : {"dci.csv", "packets.csv", "stats_ue.csv",
                           "stats_remote.csv", "gnb_log.csv", "meta.csv"}) {
    EXPECT_EQ(ReadFileBytes(csv1 / name), ReadFileBytes(csv2 / name))
        << name << " changed across the CSV->binary->CSV round trip";
  }
}

TEST(BinFmt, LoadDatasetPrefersBinaryOverCsv) {
  TempDir dir("prefer");
  SessionDataset csv_ds = MakeDataset();
  csv_ds.cell_name = "from-csv";
  SaveDataset(csv_ds, dir.str());
  SessionDataset bin_ds = MakeDataset();
  bin_ds.cell_name = "from-binary";
  ASSERT_TRUE(SaveDatasetBinary(bin_ds, dir.str()));

  DatasetLoadReport report;
  SessionDataset loaded = LoadDataset(dir.str(), &report);
  EXPECT_TRUE(report.ok()) << report.Format();
  EXPECT_EQ(loaded.cell_name, "from-binary");
  EXPECT_EQ(report.stream(StreamId::kDci).rows_kept, bin_ds.dci.size());
}

TEST(BinFmt, CorruptBinaryFallsBackToCsvWithDiagnostic) {
  TempDir dir("fallback");
  SessionDataset csv_ds = MakeDataset();
  csv_ds.cell_name = "from-csv";
  SaveDataset(csv_ds, dir.str());
  {
    std::ofstream f(dir.path / kBinaryDatasetFile, std::ios::binary);
    f << "this is not a DTB image";
  }
  DatasetLoadReport report;
  SessionDataset loaded = LoadDataset(dir.str(), &report);
  EXPECT_EQ(loaded.cell_name, "from-csv");  // CSV bundle still loads.
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.meta.errors.empty());
  EXPECT_EQ(report.meta.errors[0].kind, TelemetryErrorKind::kCorruptBinary);
}

TEST(BinFmt, EveryTruncationIsRejected) {
  const std::string img = SerializeDatasetBinary(MakeDataset());
  for (std::size_t len = 0; len < img.size(); ++len) {
    SessionDataset out;
    ReadStats stats;
    ASSERT_FALSE(ParseImage(img.substr(0, len), out, stats))
        << "truncation to " << len << " of " << img.size()
        << " bytes was accepted";
    ASSERT_FALSE(stats.errors.empty());
    EXPECT_EQ(stats.errors[0].kind, TelemetryErrorKind::kCorruptBinary);
    EXPECT_TRUE(out.dci.empty());  // Rejected images leave no partial data.
  }
}

TEST(BinFmt, EveryBitFlipIsRejected) {
  // Every byte of the image is covered by a CRC, a structural check, or the
  // padding-must-be-zero rule, so no single-bit corruption can slip through.
  const std::string img = SerializeDatasetBinary(MakeDataset());
  for (std::size_t i = 0; i < img.size(); ++i) {
    std::string bad = img;
    bad[i] = static_cast<char>(
        static_cast<unsigned char>(bad[i]) ^ (1u << (i % 8)));
    SessionDataset out;
    ReadStats stats;
    ASSERT_FALSE(ParseImage(bad, out, stats))
        << "bit flip at byte " << i << " was accepted";
  }
}

TEST(BinFmt, TrailingGarbageIsRejected) {
  std::string img = SerializeDatasetBinary(MakeDataset());
  img.append(8, '\0');
  SessionDataset out;
  ReadStats stats;
  ASSERT_FALSE(ParseImage(img, out, stats));
  EXPECT_EQ(stats.errors[0].kind, TelemetryErrorKind::kCorruptBinary);
}

TEST(BinFmt, OverBudgetStreamIsRejectedAsLimitExceeded) {
  const std::string img = SerializeDatasetBinary(MakeDataset());
  InputLimits limits;
  limits.max_records = 4;  // MakeDataset has 9 DCI rows.
  SessionDataset out;
  ReadStats stats;
  ASSERT_FALSE(ParseImage(img, out, stats, limits));
  ASSERT_FALSE(stats.errors.empty());
  EXPECT_EQ(stats.errors[0].kind, TelemetryErrorKind::kLimitExceeded);
}

TEST(BinFmt, OverBudgetRntiTimelineIsRejected) {
  SessionDataset ds;  // Streams empty; only the timeline is populated.
  analysis_test::Fill(ds.ue_rnti, Time{0}, Time{0} + Seconds(10), Seconds(1),
                      [](int) { return 0x4601; });
  const std::string img = SerializeDatasetBinary(ds);
  InputLimits limits;
  limits.max_records = 4;
  SessionDataset out;
  ReadStats stats;
  ASSERT_FALSE(ParseImage(img, out, stats, limits));
  ASSERT_FALSE(stats.errors.empty());
  EXPECT_EQ(stats.errors[0].kind, TelemetryErrorKind::kLimitExceeded);
}

/// Patches bytes in a minimal image (empty cell name and RNTI timeline, so
/// the header CRC sits at offset 48) and recomputes the stored CRC, to
/// reach validation branches beyond the checksum.
std::string PatchedMinimalImage(std::size_t off, std::uint32_t value) {
  SessionDataset ds;
  std::string img = SerializeDatasetBinary(ds);
  std::memcpy(img.data() + off, &value, sizeof(value));
  const std::uint32_t crc = Crc32(img.data(), 48);
  std::memcpy(img.data() + 48, &crc, sizeof(crc));
  return img;
}

TEST(BinFmt, UnsupportedVersionIsRejected) {
  const std::string img = PatchedMinimalImage(8, 2);  // version = 2
  SessionDataset out;
  ReadStats stats;
  ASSERT_FALSE(ParseImage(img, out, stats));
  ASSERT_FALSE(stats.errors.empty());
  EXPECT_NE(stats.errors[0].message.find("version"), std::string::npos);
}

TEST(BinFmt, ForeignEndiannessIsRejected) {
  const std::string img = PatchedMinimalImage(12, 0x0D0C0B0A);  // swapped
  SessionDataset out;
  ReadStats stats;
  ASSERT_FALSE(ParseImage(img, out, stats));
  ASSERT_FALSE(stats.errors.empty());
  EXPECT_NE(stats.errors[0].message.find("byte order"), std::string::npos);
}

TEST(BinFmt, MissingFileIsTypedError) {
  SessionDataset out;
  ReadStats stats;
  ASSERT_FALSE(ReadDatasetBinary("/nonexistent/dir/telemetry.dtb", out,
                                 stats));
  ASSERT_FALSE(stats.errors.empty());
  EXPECT_EQ(stats.errors[0].kind, TelemetryErrorKind::kMissingFile);
}

TEST(BinFmt, UnsortedRntiTimelineIsRejected) {
  // Swap the two timeline entries of a valid image, then re-seal the header
  // CRC so the structural sortedness check (not the checksum) must fire.
  SessionDataset ds;
  ds.ue_rnti.Push(Time{1000}, 1.0);
  ds.ue_rnti.Push(Time{2000}, 2.0);
  std::string img = SerializeDatasetBinary(ds);
  // Header is 48 bytes, cell name empty: times live at [48, 64).
  std::int64_t t0 = 2000, t1 = 1000;
  std::memcpy(img.data() + 48, &t0, 8);
  std::memcpy(img.data() + 56, &t1, 8);
  const std::size_t crc_off = 48 + 16 + 16;  // times + values
  const std::uint32_t crc = Crc32(img.data(), crc_off);
  std::memcpy(img.data() + crc_off, &crc, sizeof(crc));
  SessionDataset out;
  ReadStats stats;
  ASSERT_FALSE(ParseImage(img, out, stats));
  ASSERT_FALSE(stats.errors.empty());
  EXPECT_EQ(stats.errors[0].kind, TelemetryErrorKind::kCorruptBinary);
  EXPECT_NE(stats.errors[0].message.find("time-ordered"), std::string::npos);
}

}  // namespace
}  // namespace domino::telemetry
