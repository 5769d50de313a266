#include "telemetry/io.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <string_view>
#include <utility>

#include "common/csv.h"
#include "telemetry/binfmt.h"

namespace domino::telemetry {

const char* ToString(TelemetryErrorKind kind) {
  switch (kind) {
    case TelemetryErrorKind::kMissingFile: return "missing_file";
    case TelemetryErrorKind::kEmptyStream: return "empty_stream";
    case TelemetryErrorKind::kTruncatedRow: return "truncated_row";
    case TelemetryErrorKind::kBadField: return "bad_field";
    case TelemetryErrorKind::kLimitExceeded: return "limit_exceeded";
    case TelemetryErrorKind::kCorruptBinary: return "corrupt_binary";
  }
  return "?";
}

void ReadStats::Add(TelemetryErrorKind kind, std::size_t row,
                    std::string message) {
  if (errors.size() < kMaxRecorded) {
    errors.push_back(TelemetryError{kind, row, std::move(message)});
  }
}

void ReadStats::Merge(const ReadStats& other) {
  rows_total += other.rows_total;
  rows_kept += other.rows_kept;
  rows_dropped += other.rows_dropped;
  for (const auto& e : other.errors) {
    if (errors.size() >= kMaxRecorded) break;
    errors.push_back(e);
  }
}

namespace {

std::string I(std::int64_t v) { return std::to_string(v); }
std::string D(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Full-consumption integer parse; false on garbage (no exceptions).
bool ParseI(std::string_view s, std::int64_t* out) {
  return ParseInt64(s, *out);
}

/// ParseFinite also rejects "inf"/"nan" spellings and out-of-range
/// magnitudes: a non-finite metric would silently poison every window
/// statistic downstream.
bool ParseD(std::string_view s, double* out) {
  return ParseFinite(s, *out);
}

/// Cursor over one CSV row: typed field accessors that record the first
/// defect and mark the row bad instead of throwing. Cells are views into
/// the reader's reused line buffer — no per-row string allocations.
class Row {
 public:
  Row(const std::vector<std::string_view>& cells, std::size_t row_number)
      : cells_(cells), row_(row_number) {}

  std::int64_t Int(std::size_t col) {
    std::int64_t v = 0;
    if (!Have(col)) return 0;
    if (!ParseI(cells_[col], &v)) Bad(col, "not an integer");
    return v;
  }
  double Dbl(std::size_t col) {
    double v = 0;
    if (!Have(col)) return 0;
    if (!ParseD(cells_[col], &v)) Bad(col, "not a number");
    return v;
  }
  std::string_view Str(std::size_t col) {
    if (!Have(col)) return {};
    return cells_[col];
  }

  [[nodiscard]] bool ok() const { return ok_; }
  void Report(ReadStats& stats) const {
    if (ok_) return;
    stats.Add(kind_, row_, message_);
  }

 private:
  bool Have(std::size_t col) {
    if (col < cells_.size()) return true;
    if (ok_) {
      ok_ = false;
      kind_ = TelemetryErrorKind::kTruncatedRow;
      message_ = "row has " + std::to_string(cells_.size()) +
                 " cells, need at least " + std::to_string(col + 1);
    }
    return false;
  }
  void Bad(std::size_t col, const char* what) {
    if (!ok_) return;
    ok_ = false;
    kind_ = TelemetryErrorKind::kBadField;
    message_ = "column " + std::to_string(col + 1) + ": " + what + " ('" +
               std::string(cells_[col]) + "')";
  }

  const std::vector<std::string_view>& cells_;
  std::size_t row_;
  bool ok_ = true;
  TelemetryErrorKind kind_ = TelemetryErrorKind::kBadField;
  std::string message_;
};

/// Diagnostic for a line the tokenizer rejected (broken quoting, too wide).
void AddMalformedLine(ReadStats& stats, std::size_t row,
                      const InputLimits& limits) {
  stats.Add(TelemetryErrorKind::kBadField, row,
            "unterminated quote or more than " +
                std::to_string(limits.max_fields) + " fields");
}

/// Reads a CSV stream row by row, calling `parse(Row&)` per data row; the
/// parser returns false to drop the row. Defects never escape as
/// exceptions; they land in `stats`. InputLimits are enforced here: lines
/// over limits.max_line_bytes and rows over limits.max_fields are dropped
/// as kLimitExceeded/kBadField, and the loop stops (one kLimitExceeded
/// diagnostic) after limits.max_records data rows.
template <typename ParseFn>
void ForEachRow(std::istream& is, const char* stream_name, ReadStats& stats,
                const InputLimits& limits, ParseFn parse) {
  std::string line;
  std::vector<std::string_view> cells;
  std::size_t row_number = 0;  // 1-based; header is row 1.
  std::size_t records = 0;
  bool saw_header = false;
  for (;;) {
    const LineRead lr = BoundedGetline(is, line, limits.max_line_bytes);
    if (!lr.got) break;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    ++row_number;
    // A malformed row (over-long, broken quoting, too wide) counts toward
    // the totals but is dropped; even a broken header counts as "saw data".
    const bool bad_line =
        lr.truncated || !ParseCsvLineViews(line, cells, limits.max_fields);
    if (bad_line) {
      if (row_number == 1) saw_header = true;
      if (row_number > 1) {
        ++stats.rows_total;
        ++stats.rows_dropped;
      }
      if (lr.truncated) {
        stats.Add(TelemetryErrorKind::kLimitExceeded, row_number,
                  "line exceeds " + std::to_string(limits.max_line_bytes) +
                      " bytes");
      } else {
        AddMalformedLine(stats, row_number, limits);
      }
      continue;
    }
    if (row_number == 1) {  // header row: column names are not validated
      saw_header = true;
      continue;
    }
    if (records >= limits.max_records) {
      stats.Add(TelemetryErrorKind::kLimitExceeded, row_number,
                "record budget (" + std::to_string(limits.max_records) +
                    ") exhausted for " + stream_name +
                    "; remaining rows ignored");
      break;
    }
    ++records;
    ++stats.rows_total;
    Row row(cells, row_number);
    bool keep = parse(row) && row.ok();
    if (keep) {
      ++stats.rows_kept;
    } else {
      ++stats.rows_dropped;
      row.Report(stats);
    }
  }
  if (!saw_header) {
    stats.Add(TelemetryErrorKind::kEmptyStream,
              0, std::string("no CSV data for ") + stream_name);
  }
}

Direction DirFromString(std::string_view s) {
  return s == "UL" ? Direction::kUplink : Direction::kDownlink;
}

// --- Shared row formats ----------------------------------------------------
// Each stream's schema lives in one Write*Rows/MapRow pair. The public
// row-vector, columnar and one-line entry points below are thin adapters
// over these: ParseRows feeds each good record of a stream to a `sink`, and
// ParseCsvRow maps a single line.

template <typename Range>
void WriteDciRows(std::ostream& os, const Range& records) {
  CsvWriter w(os);
  w.WriteRow({"time_us", "rnti", "dir", "prbs", "mcs", "tbs_bytes", "is_retx",
              "harq_process", "attempt"});
  for (const auto& r : records) {
    w.WriteRow({I(r.time.micros()), I(r.rnti),
                r.dir == Direction::kUplink ? "UL" : "DL", I(r.prbs),
                I(r.mcs), I(r.tbs_bytes), I(r.is_retx ? 1 : 0),
                I(r.harq_process), I(r.attempt)});
  }
}

bool MapRow(Row& c, DciRecord& r) {
  r.time = Time{c.Int(0)};
  r.rnti = static_cast<std::uint32_t>(c.Int(1));
  r.dir = DirFromString(c.Str(2));
  r.prbs = static_cast<int>(c.Int(3));
  r.mcs = static_cast<int>(c.Int(4));
  r.tbs_bytes = static_cast<int>(c.Int(5));
  r.is_retx = c.Int(6) != 0;
  r.harq_process = static_cast<int>(c.Int(7));
  r.attempt = static_cast<int>(c.Int(8));
  return c.ok();
}

template <typename Range>
void WritePacketRows(std::ostream& os, const Range& records) {
  CsvWriter w(os);
  w.WriteRow({"id", "dir", "size_bytes", "sent_us", "recv_us", "is_rtcp",
              "is_audio", "frame_id"});
  for (const auto& r : records) {
    w.WriteRow({I(static_cast<std::int64_t>(r.id)),
                r.dir == Direction::kUplink ? "UL" : "DL", I(r.size_bytes),
                I(r.sent.micros()),
                r.lost() ? "-1" : I(r.received.micros()),
                I(r.is_rtcp ? 1 : 0), I(r.is_audio ? 1 : 0),
                I(static_cast<std::int64_t>(r.frame_id))});
  }
}

bool MapRow(Row& c, PacketRecord& r) {
  r.id = static_cast<std::uint64_t>(c.Int(0));
  r.dir = DirFromString(c.Str(1));
  r.size_bytes = static_cast<int>(c.Int(2));
  r.sent = Time{c.Int(3)};
  std::int64_t recv = c.Int(4);
  r.received = recv < 0 ? Time::max() : Time{recv};
  r.is_rtcp = c.Int(5) != 0;
  r.is_audio = c.Int(6) != 0;
  r.frame_id = static_cast<std::uint64_t>(c.Int(7));
  return c.ok();
}

template <typename Range>
void WriteStatsRows(std::ostream& os, const Range& records) {
  CsvWriter w(os);
  w.WriteRow({"time_us", "in_fps", "out_fps", "out_res", "jb_ms",
              "target_bps", "pushback_bps", "outstanding", "cwnd",
              "gcc_state", "delay_slope", "concealed", "frozen"});
  for (const auto& r : records) {
    w.WriteRow({I(r.time.micros()), D(r.inbound_fps), D(r.outbound_fps),
                I(r.outbound_resolution), D(r.jitter_buffer_ms),
                D(r.target_bitrate_bps), D(r.pushback_bitrate_bps),
                D(r.outstanding_bytes), D(r.cwnd_bytes),
                std::string(ToString(r.gcc_state)), D(r.delay_slope),
                D(r.concealed_ratio), I(r.frozen ? 1 : 0)});
  }
}

bool MapRow(Row& c, WebRtcStatsRecord& r) {
  r.time = Time{c.Int(0)};
  r.inbound_fps = c.Dbl(1);
  r.outbound_fps = c.Dbl(2);
  r.outbound_resolution = static_cast<int>(c.Int(3));
  r.jitter_buffer_ms = c.Dbl(4);
  r.target_bitrate_bps = c.Dbl(5);
  r.pushback_bitrate_bps = c.Dbl(6);
  r.outstanding_bytes = c.Dbl(7);
  r.cwnd_bytes = c.Dbl(8);
  if (c.Str(9) == "overuse") {
    r.gcc_state = NetworkState::kOveruse;
  } else if (c.Str(9) == "underuse") {
    r.gcc_state = NetworkState::kUnderuse;
  } else {
    r.gcc_state = NetworkState::kNormal;
  }
  r.delay_slope = c.Dbl(10);
  r.concealed_ratio = c.Dbl(11);
  r.frozen = c.Int(12) != 0;
  return c.ok();
}

template <typename Range>
void WriteGnbLogRows(std::ostream& os, const Range& records) {
  CsvWriter w(os);
  w.WriteRow({"time_us", "rnti", "dir", "rlc_buffer", "rlc_retx",
              "rrc_state"});
  for (const auto& r : records) {
    w.WriteRow({I(r.time.micros()), I(r.rnti),
                r.dir == Direction::kUplink ? "UL" : "DL",
                I(r.rlc_buffer_bytes), I(r.rlc_retx ? 1 : 0),
                std::string(ToString(r.rrc_state))});
  }
}

bool MapRow(Row& c, GnbLogRecord& r) {
  r.time = Time{c.Int(0)};
  r.rnti = static_cast<std::uint32_t>(c.Int(1));
  r.dir = DirFromString(c.Str(2));
  r.rlc_buffer_bytes = static_cast<int>(c.Int(3));
  r.rlc_retx = c.Int(4) != 0;
  if (c.Str(5) == "connected") {
    r.rrc_state = RrcState::kConnected;
  } else if (c.Str(5) == "idle") {
    r.rrc_state = RrcState::kIdle;
  } else {
    r.rrc_state = RrcState::kTransitioning;
  }
  return c.ok();
}

/// Batch reader over one stream: each good row goes to `sink`.
template <typename Rec, typename Sink>
void ParseRows(std::istream& is, const char* stream_name, ReadStats& st,
               const InputLimits& limits, Sink sink) {
  ForEachRow(is, stream_name, st, limits, [&](Row& c) {
    Rec r;
    if (!MapRow(c, r)) return false;
    sink(r);
    return true;
  });
}


ReadStats& StatsOrLocal(ReadStats* stats, ReadStats& local) {
  return stats != nullptr ? *stats : local;
}

/// Caps a file-size-derived reserve hint: never reserve beyond the record
/// budget (the reader stops there anyway).
std::size_t CapHint(std::size_t hint, const InputLimits& limits) {
  return std::min(hint, limits.max_records);
}

}  // namespace

void WriteDciCsv(std::ostream& os, const std::vector<DciRecord>& records) {
  WriteDciRows(os, records);
}
void WriteDciCsv(std::ostream& os, const DciColumns& records) {
  WriteDciRows(os, records);
}

std::vector<DciRecord> ReadDciCsv(std::istream& is, ReadStats* stats,
                                  const InputLimits& limits) {
  ReadStats local;
  std::vector<DciRecord> out;
  ParseRows<DciRecord>(is, "dci", StatsOrLocal(stats, local), limits,
                       [&](const DciRecord& r) { out.push_back(r); });
  return out;
}

void ReadDciCsvInto(std::istream& is, DciColumns& out, ReadStats* stats,
                    const InputLimits& limits, std::size_t reserve_hint) {
  ReadStats local;
  if (reserve_hint > 0) out.reserve(out.size() + CapHint(reserve_hint, limits));
  ParseRows<DciRecord>(is, "dci", StatsOrLocal(stats, local), limits,
                       [&](const DciRecord& r) { out.Append(r); });
}

void WritePacketCsv(std::ostream& os,
                    const std::vector<PacketRecord>& records) {
  WritePacketRows(os, records);
}
void WritePacketCsv(std::ostream& os, const PacketColumns& records) {
  WritePacketRows(os, records);
}

std::vector<PacketRecord> ReadPacketCsv(std::istream& is, ReadStats* stats,
                                        const InputLimits& limits) {
  ReadStats local;
  std::vector<PacketRecord> out;
  ParseRows<PacketRecord>(is, "packets", StatsOrLocal(stats, local), limits,
                          [&](const PacketRecord& r) { out.push_back(r); });
  return out;
}

void ReadPacketCsvInto(std::istream& is, PacketColumns& out, ReadStats* stats,
                       const InputLimits& limits, std::size_t reserve_hint) {
  ReadStats local;
  if (reserve_hint > 0) out.reserve(out.size() + CapHint(reserve_hint, limits));
  ParseRows<PacketRecord>(is, "packets", StatsOrLocal(stats, local), limits,
                          [&](const PacketRecord& r) { out.Append(r); });
}

void WriteStatsCsv(std::ostream& os,
                   const std::vector<WebRtcStatsRecord>& records) {
  WriteStatsRows(os, records);
}
void WriteStatsCsv(std::ostream& os, const StatsColumns& records) {
  WriteStatsRows(os, records);
}

std::vector<WebRtcStatsRecord> ReadStatsCsv(std::istream& is,
                                            ReadStats* stats,
                                            const InputLimits& limits) {
  ReadStats local;
  std::vector<WebRtcStatsRecord> out;
  ParseRows<WebRtcStatsRecord>(
      is, "stats", StatsOrLocal(stats, local), limits,
      [&](const WebRtcStatsRecord& r) { out.push_back(r); });
  return out;
}

void ReadStatsCsvInto(std::istream& is, StatsColumns& out, ReadStats* stats,
                      const InputLimits& limits, std::size_t reserve_hint) {
  ReadStats local;
  if (reserve_hint > 0) out.reserve(out.size() + CapHint(reserve_hint, limits));
  ParseRows<WebRtcStatsRecord>(
      is, "stats", StatsOrLocal(stats, local), limits,
      [&](const WebRtcStatsRecord& r) { out.Append(r); });
}

void WriteGnbLogCsv(std::ostream& os,
                    const std::vector<GnbLogRecord>& records) {
  WriteGnbLogRows(os, records);
}
void WriteGnbLogCsv(std::ostream& os, const GnbLogColumns& records) {
  WriteGnbLogRows(os, records);
}

std::vector<GnbLogRecord> ReadGnbLogCsv(std::istream& is, ReadStats* stats,
                                        const InputLimits& limits) {
  ReadStats local;
  std::vector<GnbLogRecord> out;
  ParseRows<GnbLogRecord>(is, "gnb_log", StatsOrLocal(stats, local), limits,
                          [&](const GnbLogRecord& r) { out.push_back(r); });
  return out;
}

void ReadGnbLogCsvInto(std::istream& is, GnbLogColumns& out, ReadStats* stats,
                       const InputLimits& limits, std::size_t reserve_hint) {
  ReadStats local;
  if (reserve_hint > 0) out.reserve(out.size() + CapHint(reserve_hint, limits));
  ParseRows<GnbLogRecord>(is, "gnb_log", StatsOrLocal(stats, local), limits,
                          [&](const GnbLogRecord& r) { out.Append(r); });
}

// The batch reader's per-row steps (CR strip, blank skip, tokenize, map) on
// one line, without the stream.
template <typename Rec>
LineParse ParseCsvRow(std::string& line, std::size_t row,
                      const InputLimits& limits,
                      std::vector<std::string_view>& cells, ReadStats* stats,
                      Rec& out) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.empty()) return LineParse::kBlank;
  if (ParseCsvLineViews(line, cells, limits.max_fields)) {
    Row c(cells, row);
    if (MapRow(c, out)) return LineParse::kRecord;
    if (stats != nullptr) c.Report(*stats);
  } else if (stats != nullptr) {
    AddMalformedLine(*stats, row, limits);
  }
  if (stats != nullptr) {
    ++stats->rows_total;
    ++stats->rows_dropped;
  }
  return LineParse::kDropped;
}
template LineParse ParseCsvRow(std::string&, std::size_t, const InputLimits&,
                               std::vector<std::string_view>&, ReadStats*,
                               DciRecord&);
template LineParse ParseCsvRow(std::string&, std::size_t, const InputLimits&,
                               std::vector<std::string_view>&, ReadStats*,
                               GnbLogRecord&);
template LineParse ParseCsvRow(std::string&, std::size_t, const InputLimits&,
                               std::vector<std::string_view>&, ReadStats*,
                               PacketRecord&);
template LineParse ParseCsvRow(std::string&, std::size_t, const InputLimits&,
                               std::vector<std::string_view>&, ReadStats*,
                               WebRtcStatsRecord&);

bool DatasetLoadReport::ok() const {
  for (const auto& s : streams) {
    if (!s.ok()) return false;
  }
  return meta.ok();
}

std::string DatasetLoadReport::Format() const {
  std::string out;
  auto describe = [&](const char* name, const ReadStats& s) {
    if (s.ok()) return;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  %-12s %zu/%zu rows dropped\n", name, s.rows_dropped,
                  s.rows_total);
    out += buf;
    for (const auto& e : s.errors) {
      std::snprintf(buf, sizeof(buf), "    [%s] row %zu: %s\n",
                    ToString(e.kind), e.row, e.message.c_str());
      out += buf;
    }
  };
  for (std::size_t i = 0; i < kStreamCount; ++i) {
    describe(StreamName(static_cast<StreamId>(i)), streams[i]);
  }
  describe("meta", meta);
  return out;
}

void SaveDataset(const SessionDataset& ds, const std::string& dir) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  {
    std::ofstream f(dir + "/dci.csv");
    WriteDciCsv(f, ds.dci);
  }
  {
    std::ofstream f(dir + "/packets.csv");
    WritePacketCsv(f, ds.packets);
  }
  {
    std::ofstream f(dir + "/stats_ue.csv");
    WriteStatsCsv(f, ds.stats[kUeClient]);
  }
  {
    std::ofstream f(dir + "/stats_remote.csv");
    WriteStatsCsv(f, ds.stats[kRemoteClient]);
  }
  {
    std::ofstream f(dir + "/gnb_log.csv");
    WriteGnbLogCsv(f, ds.gnb_log);
  }
  {
    std::ofstream f(dir + "/meta.csv");
    CsvWriter w(f);
    w.WriteRow({"cell_name", "is_private", "begin_us", "end_us"});
    w.WriteRow({ds.cell_name, ds.is_private_cell ? "1" : "0",
                I(ds.begin.micros()), I(ds.end.micros())});
    w.WriteRow({"rnti_time_us", "rnti"});
    for (const auto& s : ds.ue_rnti) {
      w.WriteRow({I(s.time.micros()), D(s.value)});
    }
  }
}

namespace {

/// Opens a stream file; records kMissingFile and returns false when absent.
bool OpenStream(const std::string& path, std::ifstream& f, ReadStats& stats) {
  f.open(path);
  if (f) return true;
  stats.Add(TelemetryErrorKind::kMissingFile, 0, "cannot open " + path);
  return false;
}

/// Row-count reserve hint from the on-disk file size: rows are at least
/// `min_row_bytes` of CSV text, so this never over-reserves by more than
/// the file's own size and usually lands within a few percent.
std::size_t RowHint(const std::string& path, std::size_t min_row_bytes) {
  std::error_code ec;
  auto bytes = std::filesystem::file_size(path, ec);
  if (ec) return 0;
  return static_cast<std::size_t>(bytes) / min_row_bytes;
}

}  // namespace

SessionDataset LoadDataset(const std::string& dir,
                           DatasetLoadReport* report,
                           const InputLimits& limits) {
  DatasetLoadReport local;
  DatasetLoadReport& rep = report != nullptr ? *report : local;
  SessionDataset ds;
  {
    // A binary image, when present, supersedes the CSV bundle: one strict,
    // mmap-backed read instead of five text parses. A corrupt image leaves
    // its diagnostics in `meta` and the loader falls back to the CSVs.
    const std::string bin = dir + "/" + kBinaryDatasetFile;
    std::error_code ec;
    if (std::filesystem::exists(bin, ec)) {
      ReadStats bstats;
      if (ReadDatasetBinary(bin, ds, bstats, limits)) {
        for (std::size_t i = 0; i < kStreamCount; ++i) {
          const std::size_t n =
              i == 0   ? ds.dci.size()
              : i == 1 ? ds.gnb_log.size()
              : i == 2 ? ds.packets.size()
              : i == 3 ? ds.stats[kUeClient].size()
                       : ds.stats[kRemoteClient].size();
          rep.streams[i].rows_total = n;
          rep.streams[i].rows_kept = n;
        }
        return ds;
      }
      rep.meta.Merge(bstats);
      ds = SessionDataset{};
    }
  }
  {
    std::ifstream f;
    const std::string path = dir + "/dci.csv";
    if (OpenStream(path, f, rep.stream(StreamId::kDci))) {
      ReadDciCsvInto(f, ds.dci, &rep.stream(StreamId::kDci), limits,
                     RowHint(path, 24));
    }
  }
  {
    std::ifstream f;
    const std::string path = dir + "/packets.csv";
    if (OpenStream(path, f, rep.stream(StreamId::kPackets))) {
      ReadPacketCsvInto(f, ds.packets, &rep.stream(StreamId::kPackets),
                        limits, RowHint(path, 24));
    }
  }
  {
    std::ifstream f;
    const std::string path = dir + "/stats_ue.csv";
    if (OpenStream(path, f, rep.stream(StreamId::kStatsUe))) {
      ReadStatsCsvInto(f, ds.stats[kUeClient],
                       &rep.stream(StreamId::kStatsUe), limits,
                       RowHint(path, 40));
    }
  }
  {
    std::ifstream f;
    const std::string path = dir + "/stats_remote.csv";
    if (OpenStream(path, f, rep.stream(StreamId::kStatsRemote))) {
      ReadStatsCsvInto(f, ds.stats[kRemoteClient],
                       &rep.stream(StreamId::kStatsRemote), limits,
                       RowHint(path, 40));
    }
  }
  {
    std::ifstream f;
    const std::string path = dir + "/gnb_log.csv";
    if (OpenStream(path, f, rep.stream(StreamId::kGnbLog))) {
      ReadGnbLogCsvInto(f, ds.gnb_log, &rep.stream(StreamId::kGnbLog),
                        limits, RowHint(path, 20));
    }
  }
  {
    std::ifstream f;
    if (OpenStream(dir + "/meta.csv", f, rep.meta)) {
      ReadMetaCsv(f, ds, rep.meta, limits);
    }
  }
  return ds;
}

bool ReadMetaCsv(std::istream& is, SessionDataset& ds, ReadStats& stats,
                 const InputLimits& limits) {
  CsvReadStatus csv_status;
  std::vector<std::vector<std::string>> rows =
      ReadCsv(is, limits, &csv_status);
  if (csv_status.rows_dropped > 0) {
    stats.Add(TelemetryErrorKind::kBadField, 0,
              std::to_string(csv_status.rows_dropped) +
                  " malformed meta.csv row(s) dropped");
  }
  if (csv_status.row_budget_hit) {
    stats.Add(TelemetryErrorKind::kLimitExceeded, 0,
              "meta.csv record budget exhausted");
  }
  bool session_ok = false;
  if (rows.size() >= 2 && rows[1].size() >= 4) {
    std::int64_t begin_us = 0, end_us = 0;
    ds.cell_name = rows[1][0];
    ds.is_private_cell = rows[1][1] == "1";
    if (ParseI(rows[1][2], &begin_us) && ParseI(rows[1][3], &end_us)) {
      ds.begin = Time{begin_us};
      ds.end = Time{end_us};
      session_ok = true;
    } else {
      stats.Add(TelemetryErrorKind::kBadField, 2, "bad begin_us/end_us");
    }
  } else if (!rows.empty()) {
    stats.Add(TelemetryErrorKind::kTruncatedRow, 2, "missing session row");
  } else {
    stats.Add(TelemetryErrorKind::kEmptyStream, 0, "no CSV data for meta");
  }
  // The RNTI timeline must be pushed in time order; a corrupt or
  // hand-edited meta.csv must not abort the load, so sort first.
  std::vector<std::pair<std::int64_t, double>> rnti;
  for (std::size_t i = 3; i < rows.size(); ++i) {
    std::int64_t t = 0;
    double v = 0;
    if (rows[i].size() >= 2 && ParseI(rows[i][0], &t) &&
        ParseD(rows[i][1], &v)) {
      rnti.emplace_back(t, v);
    } else {
      stats.Add(TelemetryErrorKind::kBadField, i + 1,
                "bad rnti timeline row");
    }
  }
  std::stable_sort(
      rnti.begin(), rnti.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  ds.ue_rnti = TimeSeries<double>{};
  for (const auto& [t, v] : rnti) ds.ue_rnti.Push(Time{t}, v);
  return session_ok;
}

}  // namespace domino::telemetry
