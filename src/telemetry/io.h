// CSV import/export for session datasets.
//
// Lets users persist captured (or simulated) cross-layer traces and re-run
// Domino on them later — the "network operators can provide [traces] on a
// continuous basis" workflow from §1. One CSV file per record stream,
// bundled under a directory.
//
// Readers are *tolerant*: real captures contain truncated rows, non-numeric
// garbage, and missing files, and one bad row must not abort a multi-hour
// trace. Every defect is recorded as a typed TelemetryError diagnostic in a
// ReadStats (good rows are kept); nothing in this header throws on
// malformed input.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.h"
#include "telemetry/dataset.h"

namespace domino::telemetry {

/// What went wrong with one CSV row (or a whole stream).
enum class TelemetryErrorKind : std::uint8_t {
  kMissingFile,    ///< Stream file absent or unreadable.
  kEmptyStream,    ///< No header row at all (zero-byte or non-CSV file).
  kTruncatedRow,   ///< Fewer cells than the schema requires.
  kBadField,       ///< A cell failed numeric parsing (or a broken quote).
  kLimitExceeded,  ///< An InputLimits budget was hit (line bytes, fields,
                   ///< or the per-stream record budget).
  kCorruptBinary,  ///< A binary (.dtb) image failed structural validation
                   ///< (bad magic/version, truncation, CRC mismatch, ...).
};

const char* ToString(TelemetryErrorKind kind);

/// One typed ingestion diagnostic. `row` is the 1-based CSV row number
/// (the header is row 1); 0 for stream-level problems.
struct TelemetryError {
  TelemetryErrorKind kind;
  std::size_t row = 0;
  std::string message;
};

/// Per-stream ingestion outcome: row counts plus the first few diagnostics
/// (capped so a fully corrupt multi-GB file cannot balloon memory; the
/// counts stay exact).
struct ReadStats {
  static constexpr std::size_t kMaxRecorded = 64;

  std::size_t rows_total = 0;    ///< Data rows seen (excluding the header).
  std::size_t rows_kept = 0;
  std::size_t rows_dropped = 0;  ///< Malformed rows skipped.
  std::vector<TelemetryError> errors;  ///< First kMaxRecorded diagnostics.

  void Add(TelemetryErrorKind kind, std::size_t row, std::string message);
  [[nodiscard]] bool ok() const {
    return rows_dropped == 0 && errors.empty();
  }
  /// Merges another stream's outcome into this one (for aggregate views).
  void Merge(const ReadStats& other);
};

// Single-stream writers/readers (stream-based for testability). With
// `stats` null the readers are still tolerant — diagnostics are simply
// discarded. Every reader honours the InputLimits budget: over-long lines
// and over-wide rows are dropped as kLimitExceeded, and ingestion of a
// stream stops (with one kLimitExceeded diagnostic) once
// limits.max_records data rows have been seen.
//
// Each writer has a row-vector overload (kept for callers that hold
// individual rows, e.g. the live feed's single-row formatter) and a
// columnar overload over the SessionDataset stream type. The `...Into`
// readers append parsed rows straight into a columnar stream —
// `reserve_hint` (rows, typically derived from the file size) pre-sizes
// the columns so ingest does not reallocate.
void WriteDciCsv(std::ostream& os, const std::vector<DciRecord>& records);
void WriteDciCsv(std::ostream& os, const DciColumns& records);
std::vector<DciRecord> ReadDciCsv(std::istream& is,
                                  ReadStats* stats = nullptr,
                                  const InputLimits& limits = {});
void ReadDciCsvInto(std::istream& is, DciColumns& out,
                    ReadStats* stats = nullptr,
                    const InputLimits& limits = {},
                    std::size_t reserve_hint = 0);

void WritePacketCsv(std::ostream& os,
                    const std::vector<PacketRecord>& records);
void WritePacketCsv(std::ostream& os, const PacketColumns& records);
std::vector<PacketRecord> ReadPacketCsv(std::istream& is,
                                        ReadStats* stats = nullptr,
                                        const InputLimits& limits = {});
void ReadPacketCsvInto(std::istream& is, PacketColumns& out,
                       ReadStats* stats = nullptr,
                       const InputLimits& limits = {},
                       std::size_t reserve_hint = 0);

void WriteStatsCsv(std::ostream& os,
                   const std::vector<WebRtcStatsRecord>& records);
void WriteStatsCsv(std::ostream& os, const StatsColumns& records);
std::vector<WebRtcStatsRecord> ReadStatsCsv(std::istream& is,
                                            ReadStats* stats = nullptr,
                                            const InputLimits& limits = {});
void ReadStatsCsvInto(std::istream& is, StatsColumns& out,
                      ReadStats* stats = nullptr,
                      const InputLimits& limits = {},
                      std::size_t reserve_hint = 0);

void WriteGnbLogCsv(std::ostream& os,
                    const std::vector<GnbLogRecord>& records);
void WriteGnbLogCsv(std::ostream& os, const GnbLogColumns& records);
std::vector<GnbLogRecord> ReadGnbLogCsv(std::istream& is,
                                        ReadStats* stats = nullptr,
                                        const InputLimits& limits = {});
void ReadGnbLogCsvInto(std::istream& is, GnbLogColumns& out,
                       ReadStats* stats = nullptr,
                       const InputLimits& limits = {},
                       std::size_t reserve_hint = 0);

/// Outcome of parsing one data line (ParseCsvRow).
enum class LineParse : std::uint8_t {
  kBlank,    ///< Empty line: skipped, nothing counted.
  kRecord,   ///< Good row; the record was written to `out`.
  kDropped,  ///< Malformed row; counted and diagnosed in `stats`.
};

/// One-line entry point for incremental readers (the tail reader): parses
/// one data line of a stream's CSV with the same field mapping, limits and
/// diagnostics as the batch readers above, with no stream and no
/// allocation on good rows. `line` holds the line without its '\n'; one
/// trailing '\r' is stripped and quoted cells are unescaped in place.
/// `cells` is caller-owned tokenizer scratch, reused across calls. A
/// kDropped row adds one to stats->rows_total and stats->rows_dropped and
/// records its diagnostic at `row` (the 1-based file row); a kRecord row
/// leaves `stats` alone, so the caller decides whether it is consumed.
/// `stats` may be null. The per-stream record budget (max_records) does
/// not apply to a single line.
/// Instantiated for DciRecord, GnbLogRecord, PacketRecord and
/// WebRtcStatsRecord.
template <typename Rec>
LineParse ParseCsvRow(std::string& line, std::size_t row,
                      const InputLimits& limits,
                      std::vector<std::string_view>& cells, ReadStats* stats,
                      Rec& out);

/// Parses meta.csv (cell name, privacy flag, session range, RNTI timeline)
/// into `ds`. Returns true when the session row was parseable; diagnostics
/// for anything else land in `stats`. Shared by LoadDataset and the live
/// tailing reader.
bool ReadMetaCsv(std::istream& is, SessionDataset& ds, ReadStats& stats,
                 const InputLimits& limits = {});

/// Aggregate outcome of LoadDataset: one ReadStats per stream plus one for
/// meta.csv.
struct DatasetLoadReport {
  std::array<ReadStats, kStreamCount> streams;
  ReadStats meta;

  [[nodiscard]] ReadStats& stream(StreamId id) {
    return streams[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const ReadStats& stream(StreamId id) const {
    return streams[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] bool ok() const;
  /// Human-readable one-problem-per-line summary; empty when ok().
  [[nodiscard]] std::string Format() const;
};

/// Writes the whole dataset under `dir` (created if needed): dci.csv,
/// packets.csv, stats_ue.csv, stats_remote.csv, gnb_log.csv, meta.csv.
void SaveDataset(const SessionDataset& ds, const std::string& dir);

/// Loads a dataset previously written by SaveDataset. Tolerant: malformed
/// rows are skipped and missing files yield empty streams; pass `report`
/// to receive the per-stream diagnostics. `limits` bounds what one load
/// may allocate (see common/parse.h).
SessionDataset LoadDataset(const std::string& dir,
                           DatasetLoadReport* report = nullptr,
                           const InputLimits& limits = {});

}  // namespace domino::telemetry
