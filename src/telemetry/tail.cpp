#include "telemetry/tail.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace domino::telemetry {

namespace {

// Backoff caps: a persistently missing file is retried every
// kMaxBackoffPolls polls instead of every poll.
constexpr long kMaxBackoffShift = 6;
constexpr long kMaxBackoffPolls = 64;

/// One read-only descriptor of a stream file, open for a single Poll or
/// ReplayTo, with the file size snapshotted from it.
class StreamFile {
 public:
  explicit StreamFile(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    struct stat sb {};
    if (fd_ >= 0 && ::fstat(fd_, &sb) == 0 && sb.st_size >= 0) {
      size_ = static_cast<std::size_t>(sb.st_size);
      ok_ = true;
    }
  }
  ~StreamFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  StreamFile(const StreamFile&) = delete;
  StreamFile& operator=(const StreamFile&) = delete;

  /// Open and sized; size() is meaningful only then.
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  int fd_;
  std::size_t size_ = 0;
  bool ok_ = false;
};

Time RecordTime(const DciRecord& r) { return r.time; }
Time RecordTime(const GnbLogRecord& r) { return r.time; }
Time RecordTime(const PacketRecord& r) { return r.sent; }
Time RecordTime(const WebRtcStatsRecord& r) { return r.time; }

/// Calls fn(columns, record) with stream `id`'s columnar storage in `ds`
/// and a scratch record of its type, so one generic loop serves all five.
template <typename Fn>
void VisitStream(StreamId id, SessionDataset& ds, Fn&& fn) {
  switch (id) {
    case StreamId::kDci: fn(ds.dci, DciRecord{}); break;
    case StreamId::kGnbLog: fn(ds.gnb_log, GnbLogRecord{}); break;
    case StreamId::kPackets: fn(ds.packets, PacketRecord{}); break;
    case StreamId::kStatsUe:
      fn(ds.stats[kUeClient], WebRtcStatsRecord{});
      break;
    case StreamId::kStatsRemote:
      fn(ds.stats[kRemoteClient], WebRtcStatsRecord{});
      break;
  }
}

}  // namespace

const char* StreamFileName(StreamId id) {
  switch (id) {
    case StreamId::kDci: return "dci.csv";
    case StreamId::kGnbLog: return "gnb_log.csv";
    case StreamId::kPackets: return "packets.csv";
    case StreamId::kStatsUe: return "stats_ue.csv";
    case StreamId::kStatsRemote: return "stats_remote.csv";
  }
  return "?";
}

TailingDatasetReader::TailingDatasetReader(std::string dir)
    : dir_(std::move(dir)) {}

bool TailingDatasetReader::PollMeta(SessionDataset& ds) {
  if (meta_ready_) return true;
  std::ifstream f(dir_ + "/meta.csv");
  if (!f) return false;
  ReadStats stats;  // Pre-ready parse noise is transient; discard it.
  SessionDataset parsed;
  if (!ReadMetaCsv(f, parsed, stats)) return false;
  ds.cell_name = parsed.cell_name;
  ds.is_private_cell = parsed.is_private_cell;
  ds.begin = parsed.begin;
  ds.end = parsed.end;
  ds.ue_rnti = parsed.ue_rnti;
  meta_ready_ = true;
  return true;
}

TailProgress TailingDatasetReader::Poll(StreamId id, SessionDataset& ds,
                                        const TailLimits& lim) {
  StreamState& st = state(id);
  TailProgress p;

  ++st.attempts;
  if (st.attempts < st.next_attempt) {
    p.backed_off = true;
    return p;
  }

  const std::string path = dir_ + "/" + StreamFileName(id);
  const StreamFile f(path);
  if (!f.ok() || f.size() < st.offset) {
    // Absent, unreadable, or shrunk (a rewritten file would desync our
    // offset — never re-ingest): transient failure, back off exponentially.
    ++st.misses;
    ++st.retries;
    if (st.misses == 1) {
      st.stats.Add(TelemetryErrorKind::kMissingFile, 0,
                   "cannot tail " + path);
    }
    long shift = std::min(st.misses - 1, kMaxBackoffShift);
    st.next_attempt =
        st.attempts + std::min(1L << shift, kMaxBackoffPolls);
    p.missing = true;
    return p;
  }
  st.misses = 0;
  st.next_attempt = 0;

  // Per-line consumption loop over [offset, size snapshot): bytes appended
  // after the snapshot wait for the next poll, so a line straddling it is a
  // partial tail. Each complete line is parsed in place by io.h's one-line
  // entry point, which shares the batch readers' field mapping and
  // diagnostics.
  scanner_.Reset(f.fd(), st.offset, f.size());
  std::string line;
  std::vector<std::string_view> cells;
  VisitStream(id, ds, [&](auto& cols, auto rec) {
    while (true) {
      if (st.offset == f.size()) {
        p.eof = true;
        return;
      }
      const LineRead lr = scanner_.Next(line, lim.input.max_line_bytes);
      if (!lr.got) {
        p.eof = true;
        return;
      }
      if (lr.hit_eof) {  // No trailing newline: writer is mid-line.
        p.partial_tail = true;  // Re-read once completed, next poll.
        return;
      }
      // raw_len counts every byte of the line even past the buffering cap,
      // so offsets stay byte-exact for over-long (dropped) lines too.
      const std::size_t consumed = lr.raw_len + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!st.header_seen) {
        st.header_seen = true;
        st.abs_row = 1;
        st.offset += consumed;
        p.progressed = true;
        continue;
      }
      const std::size_t this_row = st.abs_row + 1;
      if (lr.truncated) {
        st.offset += consumed;
        st.abs_row = this_row;
        p.progressed = true;
        ++st.stats.rows_total;
        ++st.stats.rows_dropped;
        st.stats.Add(TelemetryErrorKind::kLimitExceeded, this_row,
                     "line exceeds " +
                         std::to_string(lim.input.max_line_bytes) +
                         " bytes");
        continue;
      }
      if (ParseCsvRow(line, this_row, lim.input, cells, &st.stats, rec) !=
          LineParse::kRecord) {
        // Blank or malformed (already counted and diagnosed with its
        // absolute row number): consume it.
        st.offset += consumed;
        st.abs_row = this_row;
        p.progressed = true;
        continue;
      }
      const Time t = RecordTime(rec);
      if (t >= lim.limit + lim.reorder_guard &&
          t <= lim.limit + lim.max_jump) {
        // Stop rule: this row belongs to a future poll window. Hold it
        // back (offset untouched) so a re-scan with the same limit ingests
        // the identical prefix.
        return;
      }
      st.offset += consumed;
      st.abs_row = this_row;
      p.progressed = true;
      ++st.stats.rows_total;
      ++st.stats.rows_kept;
      if (t < lim.cut) {
        // Behind the retention horizon (only possible on a resume
        // re-scan): already analysed, drop silently but keep counts exact.
        continue;
      }
      ++p.rows_ingested;
      if (t <= lim.limit + lim.max_jump) {
        st.watermark = std::max(st.watermark, t);
      }
      cols.Append(rec);
    }
  });
  return p;
}

TailCursor TailingDatasetReader::cursor(StreamId id) const {
  const StreamState& st = state_[static_cast<std::size_t>(id)];
  TailCursor c;
  c.offset = st.offset;
  c.abs_row = st.abs_row;
  c.header_seen = st.header_seen;
  c.watermark = st.watermark;
  c.rows_total = st.stats.rows_total;
  c.rows_kept = st.stats.rows_kept;
  c.rows_dropped = st.stats.rows_dropped;
  return c;
}

void TailingDatasetReader::ReplayTo(StreamId id, SessionDataset& ds,
                                    const TailCursor& cur, Time cut,
                                    const InputLimits& limits) {
  StreamState& st = state(id);
  if (cur.offset > 0) {
    const std::string path = dir_ + "/" + StreamFileName(id);
    const StreamFile f(path);
    if (!f.ok() || f.size() < cur.offset) {
      throw std::runtime_error(
          "tail: cannot replay " + path +
          " — file is shorter than its checkpointed cursor");
    }
    scanner_.Reset(f.fd(), 0, f.size());

    std::size_t pos = 0;
    bool header = false;
    std::string line;
    std::vector<std::string_view> cells;
    VisitStream(id, ds, [&](auto& cols, auto rec) {
      while (pos < cur.offset) {
        const LineRead lr = scanner_.Next(line, limits.max_line_bytes);
        if (!lr.got) break;
        // A final line with no newline contributes raw_len bytes only; the
        // checkpointed cursor never points past a newline-terminated row,
        // so this keeps pos byte-exact in both cases.
        const std::size_t consumed = lr.raw_len + (lr.hit_eof ? 0 : 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        pos += consumed;
        if (!header) {
          header = true;
          continue;
        }
        // Over-long lines were dropped by the killed process too: skip the
        // parse but keep consuming bytes.
        if (lr.truncated) continue;
        // Blank or malformed lines were already counted.
        if (ParseCsvRow(line, 0, limits, cells, nullptr, rec) !=
            LineParse::kRecord) {
          continue;
        }
        if (RecordTime(rec) < cut) continue;  // Evicted before the crash.
        cols.Append(rec);
      }
    });
  }
  st.offset = cur.offset;
  st.abs_row = cur.abs_row;
  st.header_seen = cur.header_seen;
  st.watermark = cur.watermark;
  st.stats.rows_total = cur.rows_total;
  st.stats.rows_kept = cur.rows_kept;
  st.stats.rows_dropped = cur.rows_dropped;
}

}  // namespace domino::telemetry
