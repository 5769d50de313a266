// Strict parsing for every untrusted input surface.
//
// Domino reads bytes it does not control: telemetry CSVs from sniffers and
// gNB logs, config DSL files, live checkpoints, CLI flags. This header is
// the shared defensive layer those readers stand on:
//
//  * Checked number parsing (ParseInt64 / ParseUint64 / ParseFinite and
//    the range-checked *In variants): full-consumption, errno-checked,
//    exception-free. Garbage, overflow, and (for ParseFinite) inf/nan all
//    return false instead of throwing or saturating silently — the caller
//    fails closed with a diagnostic.
//
//  * InputLimits: one budget object naming every resource cap a reader
//    must honour (line bytes, fields per row, records per stream, config
//    bytes, DSL nodes and nesting depth, checkpoint bytes). The defaults
//    are generous enough for multi-hour traces but finite, so hostile
//    input degrades into a typed error instead of unbounded allocation.
//
//  * BoundedGetline: a std::getline replacement that never buffers more
//    than the cap. Over-long lines are consumed (byte-exact accounting for
//    the tailing reader) but only the first `max` bytes are materialized.
//
//  * LineScanner: the same per-line contract over a byte range of a file
//    descriptor, read in fixed blocks and split with memchr, for the
//    tailing reader's hot path.
//
// Everything here is exception-free by construction so the fuzz harnesses
// in fuzz/ can drive the readers with arbitrary bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace domino {

/// Resource budget for one parse of untrusted input. Every reader that
/// touches external bytes takes one of these (defaulted) and fails closed
/// with a diagnostic when a cap is hit; nothing allocates proportionally
/// to hostile input beyond these bounds.
struct InputLimits {
  /// Longest CSV/checkpoint/config line buffered in memory; longer lines
  /// are consumed but reported as malformed.
  std::size_t max_line_bytes = 1 << 20;  // 1 MiB
  /// Most cells accepted in one CSV row.
  std::size_t max_fields = 1024;
  /// Most data rows ingested per stream (per file) in one load.
  std::size_t max_records = 200'000'000;
  /// Largest config DSL file accepted.
  std::size_t max_config_bytes = 4 << 20;  // 4 MiB
  /// Most event/chain definitions accepted per config.
  std::size_t max_config_defs = 10'000;
  /// Most AST nodes materialized per DSL expression.
  std::size_t max_expr_nodes = 10'000;
  /// Deepest operator/parenthesis nesting per DSL expression. Small enough
  /// that the recursive-descent parser cannot overflow the stack.
  std::size_t max_expr_depth = 64;
  /// Largest live checkpoint file parsed.
  std::size_t max_checkpoint_bytes = 64 << 20;  // 64 MiB
  /// Most repeated-key lines (cause/chain/shed) accepted per checkpoint.
  std::size_t max_checkpoint_entries = 1'000'000;
};

// ---------------------------------------------------------------------------
// Checked number parsing (full consumption, no exceptions)
// ---------------------------------------------------------------------------

/// Strict base-10 signed integer: optional sign, digits, nothing else.
/// False on empty input, trailing garbage, or overflow.
bool ParseInt64(std::string_view s, std::int64_t& out);

/// Strict base-10 unsigned integer: digits only (no sign). False on empty
/// input, trailing garbage, or overflow.
bool ParseUint64(std::string_view s, std::uint64_t& out);

/// Strict finite double: accepts everything strtod does *except* inf/nan
/// spellings and out-of-range magnitudes. False on empty input, trailing
/// garbage, overflow, or a non-finite result.
bool ParseFinite(std::string_view s, double& out);

/// Range-checked variants: value must land in [lo, hi].
bool ParseInt64In(std::string_view s, std::int64_t lo, std::int64_t hi,
                  std::int64_t& out);
bool ParseFiniteIn(std::string_view s, double lo, double hi, double& out);

// ---------------------------------------------------------------------------
// Bounded line reading
// ---------------------------------------------------------------------------

/// Outcome of one BoundedGetline call.
struct LineRead {
  bool got = false;        ///< A line (possibly empty) was read.
  bool hit_eof = false;    ///< Line ended at EOF, not at '\n'.
  bool truncated = false;  ///< Line exceeded `max`; only first `max` bytes
                           ///< are in the output string.
  std::size_t raw_len = 0; ///< Full line length in bytes, excluding the
                           ///< '\n' (exact even when truncated).
};

/// Reads one '\n'-terminated line, buffering at most `max` bytes. The
/// stream is always consumed through the terminating '\n' (or EOF), and
/// `raw_len` counts every consumed byte, so byte-offset bookkeeping stays
/// exact for over-long lines. A trailing '\r' is NOT stripped (callers
/// decide, matching std::getline semantics).
LineRead BoundedGetline(std::istream& is, std::string& line,
                        std::size_t max);

/// Line reader over bytes [begin, end) of a file descriptor: each Next()
/// returns exactly what BoundedGetline would on a stream holding those
/// bytes, with the end of the range acting as EOF. Bytes are read with
/// pread in kBlockBytes blocks into one buffer the scanner owns (allocated
/// on first read, reused across Reset calls); lines are found with memchr,
/// and at most `max` bytes of a line are copied out. A read error or a
/// file that shrank under the range ends the range early, like EOF.
class LineScanner {
 public:
  static constexpr std::size_t kBlockBytes = 64 << 10;

  /// Starts scanning [begin, end) of `fd`. The scanner does not own `fd`,
  /// which must stay open while Next() is called.
  void Reset(int fd, std::size_t begin, std::size_t end);

  LineRead Next(std::string& line, std::size_t max);

 private:
  /// Reads the next block of the range; false at the end of the range.
  bool Fill();

  int fd_ = -1;
  std::size_t next_ = 0;  ///< File offset of the next block read.
  std::size_t end_ = 0;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  ///< Unconsumed bytes are buf_[pos_, len_).
  std::size_t len_ = 0;
};

}  // namespace domino
