// Crash-safe checkpoint persistence for the live analysis runtime.
//
// A checkpoint is everything `domino live` needs to resume after a SIGKILL
// and keep producing byte-identical output: the analysis cursor, the
// aligned poll schedule, the retention cut, every monotone counter that
// feeds the final report, the streaming ranking accumulators, watchdog
// tallies, and the chains.jsonl byte offset the log must be truncated to
// (chains past the offset were emitted after the checkpoint and will be
// re-emitted deterministically).
//
// The file is a sealed record (common/sealed_record.h): a version header,
// line-oriented `key values...` fields and a trailing FNV-1a checksum over
// everything above it. Load rejects torn or hand-edited files and a
// fingerprint mismatch (different config/engine would not reproduce the
// same windows). Save goes through AtomicWriteFile (common/diskfault.h):
// write a process-unique staging file, fsync it, rename it over `<path>`,
// then fsync the directory, so a crash or power cut leaves either the
// previous checkpoint or the new one intact.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/diskfault.h"
#include "common/parse.h"
#include "common/time.h"
#include "telemetry/dataset.h"
#include "telemetry/tail.h"

namespace domino::runtime {

/// One load-shedding episode: windows in [begin, end) were skipped, not
/// analysed, and are reported as degraded.
struct ShedRange {
  Time begin{0};
  Time end{0};
  long windows = 0;
};

/// Per-stream watchdog tallies (indexed by telemetry::StreamId).
struct StallState {
  long stall_events = 0;
  long recoveries = 0;
  bool stalled = false;
};

struct LiveCheckpoint {
  /// Config/engine fingerprint; resume refuses a mismatched one.
  std::string fingerprint;

  Time next_begin{0};     ///< First window the detector has NOT analysed.
  Time ingest_limit{0};   ///< Tail-reader ingest horizon at checkpoint time.
  Time retention_cut{0};  ///< Everything before this has been evicted.
  Time anchor{0};         ///< Dataset begin; the poll/retention grid origin.
  long poll_count = 0;

  long windows = 0;
  long chains = 0;
  long insufficient = 0;
  long resets = 0;
  long checkpoints_written = 0;
  std::uint64_t chainlog_bytes = 0;  ///< Truncate chains.jsonl to this.
  /// Windows processed at the last *cadence-counted* checkpoint. A drain
  /// checkpoint (graceful shutdown) persists progress without consuming a
  /// cadence slot; recording the cadence origin separately lets the
  /// resumed run place its periodic checkpoints exactly where an
  /// undisturbed run would, keeping `checkpoints` counts byte-identical.
  /// -1 in a parsed checkpoint means the writer predates the field; the
  /// reader falls back to `windows`.
  long last_checkpoint_windows = -1;

  long retention_cuts = 0;
  std::uint64_t evicted_records = 0;
  std::uint64_t peak_retained_records = 0;
  Duration peak_retained_span{0};

  // Streaming ranking accumulators (keys are graph-node / chain indices).
  long windows_seen = 0;
  long windows_with_chain = 0;
  long insufficient_windows = 0;
  std::map<int, std::pair<long, long>> cause;        ///< idx -> active, wins.
  std::map<int, std::pair<long, long>> chain_tally;  ///< idx -> count, insuff.

  std::vector<ShedRange> shed;
  std::array<StallState, telemetry::kStreamCount> stalls{};
  /// Per-stream tail positions; resume replays each file to exactly this
  /// byte offset instead of re-deriving stop positions (see tail.h).
  std::array<telemetry::TailCursor, telemetry::kStreamCount> tails{};
};

/// Serialises `cp` (text form, checksummed). Exposed for tests.
std::string FormatCheckpoint(const LiveCheckpoint& cp);

/// Why a checkpoint load failed. Callers branch on this: corruption means
/// "warn and start fresh" (the file is untrusted garbage), while a
/// fingerprint mismatch means "refuse to run" (the file is valid but was
/// written under a different config — resuming would silently mix
/// incompatible analysis state).
enum class CheckpointFailure {
  kNone,                 ///< Load succeeded.
  kMissing,              ///< No file: a fresh start, not a failure.
  kCorrupt,              ///< Torn, tampered, oversized, or unparseable.
  kFingerprintMismatch,  ///< Valid file from a different config/engine.
};

/// Parses a checkpoint; returns false (with `*error` set and `*failure`
/// classified) on version, checksum, size-budget, or syntax problems.
/// `expected_fingerprint` empty skips the fingerprint check.
bool ParseCheckpoint(const std::string& text,
                     const std::string& expected_fingerprint,
                     LiveCheckpoint* cp, std::string* error,
                     CheckpointFailure* failure = nullptr,
                     const InputLimits& limits = {});

/// Durable save through AtomicWriteFile. Returns false on I/O failure (the
/// previous checkpoint, if any, is left untouched). `fault`, if non-null,
/// is consulted once per save and fails it at the stage the fault names:
/// ENOSPC/EIO before any bytes land, a short write leaving a torn staging
/// file, an fsync fault removing the staging file, a rename fault leaving
/// the complete staging file unpublished.
bool SaveCheckpoint(const LiveCheckpoint& cp, const std::string& path,
                    DiskFaultInjector* fault = nullptr);

/// Loads and validates a checkpoint file. Missing file returns false with
/// an empty error (a fresh start, not a failure). Files larger than
/// limits.max_checkpoint_bytes are rejected as corrupt without being read
/// into memory (ReadFileBounded).
bool LoadCheckpoint(const std::string& path,
                    const std::string& expected_fingerprint,
                    LiveCheckpoint* cp, std::string* error,
                    CheckpointFailure* failure = nullptr,
                    const InputLimits& limits = {});

}  // namespace domino::runtime
