// Incremental (tailing) dataset reader for live analysis.
//
// A live capture directory has the same layout SaveDataset produces, but
// the per-stream CSVs *grow* while we read them. TailingDatasetReader keeps
// a byte offset per stream and, on each poll, parses only the complete rows
// appended since the previous poll. A poll opens the file once, snapshots
// its size from that descriptor and reads [offset, size) in blocks
// (LineScanner, common/parse.h): block reads are bounded by the snapshot,
// so bytes appended while the poll runs wait for the next one, and a line
// straddling the snapshot is a partial tail. Each line is parsed in place
// by io.h's one-line entry point, ParseCsvRow, which shares the batch
// readers' field mapping: malformed-row semantics (kinds and messages)
// match batch ingestion exactly, diagnostics carry absolute file row
// numbers, and a good row costs no allocation.
//
// Determinism contract (what kill-and-resume correctness rests on): for a
// given (cut, limit) pair, the multiset and order of rows this reader
// ingests depends only on file *content*, never on how many polls it took
// to get there. That requires two rules:
//
//  * Partial tail lines (no trailing newline yet) are deferred — the byte
//    offset stays before them so the next poll re-reads the completed line.
//  * Stop rule with one-row pushback: ingestion of a stream stops at the
//    first row whose time lands in [limit + reorder_guard, limit +
//    max_jump]; that row is held back (offset not advanced past it) and
//    re-read once the limit moves. Rows beyond limit + max_jump are
//    treated as corrupt future timestamps: they are ingested (the
//    sanitizer ranges them out) but do not gate the stop rule or advance
//    the watermark.
//
// Crash-safe resume does not re-derive stop positions (a row classified
// "corrupt future" under an early limit could re-classify under a later
// one): the live checkpoint persists each stream's exact TailCursor, and
// ReplayTo() re-reads the file from byte 0 up to that cursor, ingesting
// the identical row multiset the killed process held, after which normal
// polling continues from the same byte the killed process would have.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "common/parse.h"
#include "telemetry/dataset.h"
#include "telemetry/io.h"

namespace domino::telemetry {

/// Outcome of one Poll() on one stream.
struct TailProgress {
  std::size_t rows_ingested = 0;
  bool progressed = false;   ///< Offset advanced (rows or malformed lines).
  bool eof = false;          ///< Offset reached the current end of file.
  bool partial_tail = false; ///< Trailing bytes without newline deferred.
  bool missing = false;      ///< File absent/unreadable this poll.
  bool backed_off = false;   ///< Skipped: in exponential backoff window.
};

/// Time bounds governing one Poll(). All rules are in record (trace) time.
struct TailLimits {
  Time cut{0};             ///< Rows with time < cut are discarded on ingest.
  Time limit{0};           ///< Ingest horizon (typically the poll boundary).
  Duration reorder_guard{0};  ///< Slack past limit before stopping.
  Duration max_jump{0};       ///< Times beyond limit+max_jump are corrupt.
  InputLimits input{};        ///< Resource budget (line bytes, fields).
};

/// Checkpointable position of one stream's tail: enough to resume polling
/// byte-exactly where a killed process stopped.
struct TailCursor {
  std::size_t offset = 0;   ///< Bytes consumed (header + complete rows).
  std::size_t abs_row = 1;  ///< 1-based CSV row number last consumed.
  bool header_seen = false;
  Time watermark{0};  ///< Jump-guarded high-water record time.
  std::size_t rows_total = 0;
  std::size_t rows_kept = 0;
  std::size_t rows_dropped = 0;
};

class TailingDatasetReader {
 public:
  explicit TailingDatasetReader(std::string dir);

  /// Reads meta.csv (small; re-read whole on each call until it parses).
  /// Returns true once the session row (cell, privacy, begin/end, RNTI
  /// timeline) has been applied to `ds`.
  bool PollMeta(SessionDataset& ds);
  [[nodiscard]] bool meta_ready() const { return meta_ready_; }

  /// Ingests new complete rows of `id` into `ds`, in file order, applying
  /// the TailLimits rules documented above.
  TailProgress Poll(StreamId id, SessionDataset& ds, const TailLimits& lim);

  /// Current checkpointable cursor for `id`.
  [[nodiscard]] TailCursor cursor(StreamId id) const;

  /// Resume path: re-reads the file from byte 0 up to exactly
  /// `cur.offset`, ingesting every row with time >= `cut` into `ds` (no
  /// stop rule — everything below the cursor was ingested by the killed
  /// process), then adopts `cur` as this stream's state. Throws
  /// std::runtime_error when the file is shorter than the cursor (the
  /// data the checkpoint describes no longer exists).
  void ReplayTo(StreamId id, SessionDataset& ds, const TailCursor& cur,
                Time cut, const InputLimits& limits = {});

  /// Highest jump-guarded record time ingested so far for `id` (Time{0}
  /// before any row).
  [[nodiscard]] Time watermark(StreamId id) const {
    return state_[static_cast<std::size_t>(id)].watermark;
  }
  /// Cumulative CSV diagnostics (malformed rows etc.) for `id`, with row
  /// numbers rebased to absolute file rows.
  [[nodiscard]] const ReadStats& stats(StreamId id) const {
    return state_[static_cast<std::size_t>(id)].stats;
  }
  /// Transient-failure retries (missing file / unreadable) for `id`.
  [[nodiscard]] long retries(StreamId id) const {
    return state_[static_cast<std::size_t>(id)].retries;
  }
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  struct StreamState {
    std::size_t offset = 0;     ///< Bytes consumed (past header + rows).
    std::size_t abs_row = 1;    ///< 1-based CSV row number last consumed.
    bool header_seen = false;
    Time watermark{0};
    ReadStats stats;
    // Exponential backoff for transient failures: skip polls until
    // attempts reaches next_attempt.
    long attempts = 0;
    long next_attempt = 0;
    long misses = 0;
    long retries = 0;
  };

  StreamState& state(StreamId id) {
    return state_[static_cast<std::size_t>(id)];
  }

  std::string dir_;
  bool meta_ready_ = false;
  LineScanner scanner_;  ///< One block buffer shared by every stream.
  std::array<StreamState, kStreamCount> state_;
};

/// File name of one stream under a dataset directory ("dci.csv", ...).
const char* StreamFileName(StreamId id);

}  // namespace domino::telemetry
