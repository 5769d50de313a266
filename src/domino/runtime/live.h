// Crash-safe supervised live analysis — the `domino live` runtime.
//
// LiveRunner tails a (possibly still growing) dataset directory, feeds the
// sanitizer and the StreamingDetector poll by poll, appends every detected
// chain to <state>/chains.jsonl the moment its window completes, and
// periodically persists a checkpoint so a SIGKILLed process can resume and
// produce byte-identical output (checkpoint.h documents the protocol).
//
// Determinism is the design axis everything else hangs off:
//
//  * Virtual-time poll schedule. Poll k ingests up to limit_k = anchor +
//    k*chunk — a grid fixed by the dataset begin, not by wall clock — so a
//    resumed run re-joins the exact schedule the killed run was on.
//  * Content-driven analysis frontier. Each poll analyses up to
//    min(limit_k, watchdog frontier), both pure functions of file content
//    and poll index. Wall-clock data never reaches chains.jsonl or
//    live_report.json (it only appears in stderr status lines).
//  * Grid-quantised retention. Raw records older than the horizon are
//    evicted with telemetry/retention.h's 1 s-grid cut, keeping the derived
//    series of the retained region bit-identical however long the process
//    has been alive.
//  * Bounded analysis span. Each poll sanitizes and derives only the
//    retained rows at or after lo, one gap threshold before the next
//    window, on the same 1 s grid (telemetry::GatherAnalysisSpan). Every
//    window still to come gets the result the whole retained data would
//    give (DESIGN.md §9), so a poll costs what is new, not what is
//    retained.
//
// Supervision: a per-stream trace-time watchdog (watchdog.h) excludes
// stalled streams from the frontier so one dead stream degrades coverage
// (reduced chain confidence via the sanitizer's tail gap) instead of
// head-of-line-blocking the session; the tail reader retries transient
// ingest failures with exponential backoff. Bounded memory: when the
// analysis backlog exceeds max_backlog_windows the oldest windows are shed
// (StreamingDetector::SkipTo) and recorded in the report as degraded spans
// — never silently dropped.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "domino/runtime/checkpoint.h"
#include "domino/runtime/watchdog.h"
#include "domino/streaming.h"
#include "telemetry/retention.h"
#include "telemetry/sanitize.h"
#include "telemetry/tail.h"

namespace domino::runtime {

struct LiveOptions {
  analysis::DominoConfig detector;
  telemetry::SanitizeOptions sanitize;
  /// Resource budgets for everything this runtime reads from disk (tailed
  /// CSVs, meta.csv, the checkpoint); see common/parse.h.
  InputLimits input{};

  /// Virtual-time poll grid: poll k ingests up to anchor + k*chunk. Must be
  /// a multiple of the detector step (enforced at construction).
  Duration chunk = Seconds(2.0);
  /// Raw-record retention horizon behind the analysis cursor. Clamped up to
  /// window + sanitize.reorder_window + chunk so eviction can never touch
  /// data a future window still needs.
  Duration horizon = Seconds(30.0);
  /// Trace-time lag beyond which a stream is declared stalled and excluded
  /// from the ingest frontier (see watchdog.h).
  Duration stall_deadline = Seconds(5.0);
  /// Tail-reader stop-rule slack past the poll limit (reorder tolerance).
  Duration reorder_guard = Seconds(1.0);
  /// Timestamps further than this past the poll limit are treated as
  /// corrupt and do not advance the stream watermark.
  Duration max_watermark_jump = Seconds(60.0);
  /// Backpressure: max windows analysed per poll before the oldest are
  /// shed. 0 = unlimited (no shedding).
  long max_backlog_windows = 0;
  /// Checkpoint cadence, in analysed windows.
  long checkpoint_every_windows = 8;
  /// Polls without any ingest or analysis progress before a non-follow run
  /// concludes the dataset is complete (safety net for datasets whose meta
  /// lacks an end time).
  int max_idle_polls = 16;
  /// Follow mode: sleep and re-poll when no data arrived instead of
  /// counting idle polls (for tailing a capture that is still being
  /// written).
  bool follow = false;
  int poll_sleep_ms = 200;  ///< Follow-mode sleep between empty polls.
  /// Test hook: call std::_Exit(137) immediately after this process writes
  /// its N-th checkpoint — simulates SIGKILL exactly at a checkpoint
  /// boundary. 0 = off.
  long crash_after_checkpoints = 0;
  /// Cooperative cancellation: when non-null and set, the runner aborts the
  /// current attempt with a "cancelled" error at the next poll boundary
  /// (used by the fleet supervisor's wall-clock session deadlines). The
  /// pointee must outlive the runner. Not part of the config fingerprint.
  const std::atomic<bool>* cancel = nullptr;
  /// Graceful drain: when non-null and set, the runner stops at the next
  /// poll boundary, persists a *drain checkpoint* (progress saved, but no
  /// cadence slot consumed — see LiveCheckpoint::last_checkpoint_windows),
  /// and returns with LiveSummary::drained set instead of finishing. A
  /// later run resumes from the drain checkpoint and produces output
  /// byte-identical to an undisturbed run. The pointee must outlive the
  /// runner. Not part of the config fingerprint.
  const std::atomic<bool>* drain = nullptr;
  /// Deterministic chaos hooks (fleet chaos harness). Each fires once, on a
  /// *fresh* run only (`resumed_ == false`), so a retried attempt resumes
  /// from the checkpoint and runs clean — this is what makes a chaos fault
  /// "recoverable". Not part of the config fingerprint. 0 = off.
  long chaos_crash_after = 0;  ///< _Exit(137) after Nth checkpoint of a
                               ///< fresh run (unlike crash_after_checkpoints
                               ///< which also fires after a resume).
  long chaos_fail_after = 0;   ///< Throw after Nth checkpoint of a fresh run.
  long chaos_wedge_after = 0;  ///< Stop progressing (sleep loop honouring
                               ///< `cancel`) after Nth checkpoint of a
                               ///< fresh run.
  /// Deterministic disk-fault chaos (common/diskfault.h): fails the Nth
  /// guarded durability write (checkpoint save or report write) of a
  /// *fresh* run with ENOSPC/EIO/a short write. The failed write escalates
  /// to an attempt failure, so under a fleet the session takes the
  /// retry/quarantine path; the retried attempt resumes clean. kNone = off.
  DiskFaultSpec disk_fault{};
  /// Sharded fleet fencing (shard.h): when `fence_lease_dir` is non-empty,
  /// the runner proves — before every checkpoint save, the report write,
  /// and at every poll boundary — that the session lease at that directory
  /// still carries `fence_token`. A mismatch means the lease was stolen
  /// (this box was presumed dead): the attempt throws a "fenced: ..."
  /// runtime_error without touching another file, so a zombie daemon can
  /// never clobber the new owner's state. Not part of the config
  /// fingerprint (ownership is per-attempt, not per-analysis).
  std::string fence_lease_dir;
  std::uint64_t fence_token = 0;
  /// Suppress per-poll stderr status lines.
  bool quiet = false;
};

/// What Run() hands back to the CLI / supervisor (wall-clock-free).
struct LiveSummary {
  std::string dataset_dir;
  long polls = 0;
  long windows = 0;
  long chains = 0;
  long insufficient_chains = 0;
  long resets = 0;
  long checkpoints = 0;
  long shed_windows = 0;
  long stalled_streams = 0;  ///< Streams stalled at end of run.
  bool resumed = false;      ///< Run continued from a checkpoint.
  bool drained = false;      ///< Run stopped by a drain request (resumable).
  std::string report_path;
  std::string chains_path;
};

/// Streaming root-cause ranking: per-window winners accumulated with
/// cause base rates *so far* (batch ranking re-scores with final rates; a
/// live pipeline cannot, so its winners are the anytime variant — equally
/// deterministic, checkpointable in O(nodes)).
struct LiveRanking {
  long windows_seen = 0;
  long windows_with_chain = 0;
  long insufficient_windows = 0;
  std::map<int, std::pair<long, long>> cause;        ///< idx -> active, wins.
  std::map<int, std::pair<long, long>> chain_tally;  ///< idx -> count, insuff.

  void OnWindow(const analysis::WindowResult& w,
                const analysis::Detector& detector);
};

class LiveRunner {
 public:
  /// `state_dir` receives chains.jsonl, live_report.json and live.ckpt; it
  /// is created if missing. Throws std::runtime_error on unusable state
  /// (corrupt checkpoint, fingerprint mismatch, meta never appearing).
  LiveRunner(std::string dataset_dir, std::string state_dir,
             analysis::CausalGraph graph, LiveOptions opts);

  /// Runs the session to completion (dataset end, or idle cap). Resumes
  /// from <state>/live.ckpt automatically when one is present.
  LiveSummary Run();

  /// Config/engine fingerprint stored in checkpoints (exposed for tests).
  [[nodiscard]] const std::string& fingerprint() const { return fingerprint_; }

 private:
  bool AwaitMeta();
  /// Throws "cancelled" when the supervisor's cancel token is set.
  void CheckCancel() const;
  /// Sharded fencing: throws "fenced: ..." when the session lease no
  /// longer carries our token (see LiveOptions::fence_lease_dir). No-op
  /// when fencing is off.
  void CheckFence() const;
  /// Chaos hook: after the configured checkpoint count of a fresh run,
  /// stop progressing (sleep loop honouring the cancel token).
  void MaybeChaosWedge();
  /// One poll step; returns false when the session is finished.
  bool PollOnce();
  [[nodiscard]] bool DrainRequested() const;
  void AdvanceAnalysis(Time advance_to);
  void ApplyBackpressure(Time advance_to);
  [[nodiscard]] LiveCheckpoint BuildCheckpoint() const;
  void WriteCheckpoint();
  /// Persist progress for a graceful drain without consuming a cadence
  /// slot. Best-effort: on write failure the previous periodic checkpoint
  /// still resumes correctly, just replaying more.
  void WriteDrainCheckpoint();
  void FinishRun();
  [[nodiscard]] std::string BuildLiveReportJson(
      const telemetry::SanitizeReport& final_health) const;
  void Status(const char* stage) const;

  std::string dataset_dir_;
  std::string state_dir_;
  LiveOptions opts_;
  std::string fingerprint_;

  telemetry::TailingDatasetReader reader_;
  telemetry::SessionDataset ds_;  ///< Retained raw records.
  /// Per-poll analysis span of ds_ (AdvanceAnalysis); storage reused.
  telemetry::SessionDataset span_;
  analysis::StreamingDetector streaming_;
  std::optional<StreamWatchdog> watchdog_;  ///< Built once meta is known.
  LiveRanking ranking_;
  telemetry::RetentionStats retention_;
  std::vector<ShedRange> shed_;

  Time anchor_{0};
  Time meta_end_{0};  ///< Time{0} = unknown.
  Time cut_{0};
  Time limit_{0};
  Time analyzed_to_{0};
  long poll_count_ = 0;
  long checkpoints_written_ = 0;
  long process_checkpoints_ = 0;  ///< Since this process started (crash hook).
  long last_checkpoint_windows_ = 0;
  long last_resets_ = 0;
  int idle_polls_ = 0;
  bool resumed_ = false;
  bool finished_ = false;
  bool drained_ = false;
  DiskFaultInjector diskfault_;

  std::ofstream chain_log_;
  std::uint64_t chainlog_bytes_ = 0;
  std::array<StallState, telemetry::kStreamCount> restored_stalls_{};
  std::array<telemetry::TailCursor, telemetry::kStreamCount> restored_tails_{};
  bool have_restored_stalls_ = false;
};

/// Default state directory for a dataset (<dataset>/live_state).
std::string DefaultStateDir(const std::string& dataset_dir);

}  // namespace domino::runtime
