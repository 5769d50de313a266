#include "domino/runtime/live.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/lease.h"
#include "domino/ranking.h"
#include "domino/report.h"

namespace domino::runtime {

namespace fs = std::filesystem;
using telemetry::StreamId;
using telemetry::kStreamCount;

namespace {

constexpr const char* kCheckpointFile = "live.ckpt";
constexpr const char* kChainsFile = "chains.jsonl";
constexpr const char* kReportFile = "live_report.json";

std::array<StreamId, kStreamCount> AllStreams() {
  return {StreamId::kDci, StreamId::kGnbLog, StreamId::kPackets,
          StreamId::kStatsUe, StreamId::kStatsRemote};
}

}  // namespace

void LiveRanking::OnWindow(const analysis::WindowResult& w,
                           const analysis::Detector& detector) {
  const analysis::CausalGraph& graph = detector.graph();
  ++windows_seen;
  for (std::size_t n = 0; n < graph.node_count(); ++n) {
    bool active = false;
    for (std::size_t p = 0; p < 2; ++p) {
      if (n < w.node_active[p].size()) active |= w.node_active[p][n];
    }
    if (active) ++cause[static_cast<int>(n)].first;
  }
  if (w.chains.empty()) return;
  ++windows_with_chain;

  // Anytime variant of RankRootCauses: same score formula, cause base
  // rates over the windows seen *so far* (including this one).
  const double total = std::max(1.0, static_cast<double>(windows_seen));
  const double min_cov = detector.config().min_coverage;
  double best_score = 0;
  bool best_insufficient = true;
  int best_cause = -1;
  bool have_best = false;
  for (const analysis::ChainInstance& ci : w.chains) {
    const analysis::ChainPath& path =
        detector.chains()[static_cast<std::size_t>(ci.chain_index)];
    auto& tally = chain_tally[ci.chain_index];
    ++tally.first;
    if (ci.confidence < min_cov) ++tally.second;

    const int cause_node = path.front();
    const double rate =
        static_cast<double>(cause[cause_node].first) / total;
    const double score = (-std::log(std::max(rate, 1e-6)) +
                          1e-3 * static_cast<double>(path.size())) *
                         ci.confidence;
    const bool insufficient = ci.confidence < min_cov;
    // Insufficient chains rank after sufficient ones whatever the score;
    // first-seen wins exact ties (deterministic, order of w.chains).
    const bool better =
        !have_best || (insufficient != best_insufficient
                           ? best_insufficient
                           : score > best_score);
    if (better) {
      have_best = true;
      best_score = score;
      best_insufficient = insufficient;
      best_cause = cause_node;
    }
  }
  if (best_insufficient) {
    ++insufficient_windows;
  } else {
    ++cause[best_cause].second;
  }
}

std::string DefaultStateDir(const std::string& dataset_dir) {
  return dataset_dir + "/live_state";
}

LiveRunner::LiveRunner(std::string dataset_dir, std::string state_dir,
                       analysis::CausalGraph graph, LiveOptions opts)
    : dataset_dir_(std::move(dataset_dir)),
      state_dir_(std::move(state_dir)),
      opts_(std::move(opts)),
      reader_(dataset_dir_),
      streaming_(std::move(graph), opts_.detector) {
  // Normalise options that other invariants rest on.
  const Duration step = opts_.detector.step;
  if (opts_.chunk < step) opts_.chunk = step;
  if (step * (opts_.chunk / step) != opts_.chunk) {
    throw std::runtime_error("live: chunk must be a multiple of step");
  }
  const Duration min_horizon =
      opts_.detector.window + opts_.sanitize.reorder_window + opts_.chunk;
  if (opts_.horizon < min_horizon) opts_.horizon = min_horizon;
  // Each poll sanitizes only a bounded span (AdvanceAnalysis); a clock-skew
  // correction estimated over that span would differ from one over the
  // whole retained data.
  if (opts_.sanitize.correct_skew) {
    throw std::runtime_error("live: sanitize.correct_skew is not supported");
  }

  // Everything that can change the byte content of chains.jsonl or
  // live_report.json goes into the fingerprint; a resume under a different
  // fingerprint is refused instead of silently mixing two schedules.
  const analysis::Detector& det = streaming_.detector();
  std::ostringstream fp;
  fp << "v1 w=" << opts_.detector.window.micros()
     << " s=" << opts_.detector.step.micros()
     << " inc=" << (opts_.detector.incremental ? 1 : 0)
     << " cov=" << opts_.detector.min_coverage
     << " nodes=" << det.graph().node_count()
     << " chains=" << det.chains().size()
     << " chunk=" << opts_.chunk.micros()
     << " hor=" << opts_.horizon.micros()
     << " stall=" << opts_.stall_deadline.micros()
     << " guard=" << opts_.reorder_guard.micros()
     << " jump=" << opts_.max_watermark_jump.micros()
     << " backlog=" << opts_.max_backlog_windows
     << " ckpt=" << opts_.checkpoint_every_windows
     << " ro=" << opts_.sanitize.reorder_window.micros()
     << " gap=" << opts_.sanitize.gap_threshold.micros()
     << " slack=" << opts_.sanitize.range_slack.micros();
  fingerprint_ = fp.str();
  // Disk chaos is per-attempt state, like the crash/fail/wedge hooks: the
  // injector counts this attempt's guarded writes from zero.
  diskfault_ = DiskFaultInjector(opts_.disk_fault);
}

LiveSummary LiveRunner::Run() {
  // Fence before touching any state: both resume and fresh-start truncate
  // the chain log below, and a zombie attempt carrying a stolen token must
  // not truncate the new owner's output.
  CheckFence();
  fs::create_directories(state_dir_);
  const std::string ckpt_path = state_dir_ + "/" + kCheckpointFile;
  const std::string chains_path = state_dir_ + "/" + kChainsFile;

  LiveCheckpoint cp;
  std::string error;
  CheckpointFailure failure = CheckpointFailure::kNone;
  if (LoadCheckpoint(ckpt_path, fingerprint_, &cp, &error, &failure,
                     opts_.input)) {
    // Resume: restore every accumulator, then truncate the chain log to
    // the checkpointed byte offset — chains past it were emitted after the
    // checkpoint and will be re-emitted deterministically.
    streaming_.Restore(cp.next_begin, cp.windows, cp.chains,
                       cp.insufficient, cp.resets);
    anchor_ = cp.anchor;
    cut_ = cp.retention_cut;
    limit_ = cp.ingest_limit;
    poll_count_ = cp.poll_count;
    checkpoints_written_ = cp.checkpoints_written;
    // A drain checkpoint carries progress past the cadence origin; restore
    // the origin itself so periodic checkpoints land exactly where an
    // undisturbed run would put them (pre-cadence files fall back to the
    // old behaviour: the checkpoint was the origin).
    last_checkpoint_windows_ = cp.last_checkpoint_windows >= 0
                                   ? cp.last_checkpoint_windows
                                   : cp.windows;
    last_resets_ = cp.resets;
    analyzed_to_ = cp.next_begin;
    retention_.cuts = cp.retention_cuts;
    retention_.evicted_records =
        static_cast<std::size_t>(cp.evicted_records);
    retention_.peak_retained_records =
        static_cast<std::size_t>(cp.peak_retained_records);
    retention_.peak_retained_span = cp.peak_retained_span;
    ranking_.windows_seen = cp.windows_seen;
    ranking_.windows_with_chain = cp.windows_with_chain;
    ranking_.insufficient_windows = cp.insufficient_windows;
    ranking_.cause = cp.cause;
    ranking_.chain_tally = cp.chain_tally;
    shed_ = cp.shed;
    restored_stalls_ = cp.stalls;
    restored_tails_ = cp.tails;
    have_restored_stalls_ = true;
    resumed_ = true;

    std::error_code ec;
    auto size = fs::file_size(chains_path, ec);
    if (ec && cp.chainlog_bytes > 0) {
      throw std::runtime_error("live: checkpoint expects " +
                               std::to_string(cp.chainlog_bytes) +
                               " bytes of " + chains_path +
                               " but the file is unreadable");
    }
    if (!ec) {
      if (size < cp.chainlog_bytes) {
        throw std::runtime_error(
            "live: chain log shorter than its checkpoint (" + chains_path +
            " was tampered with or lost data)");
      }
      fs::resize_file(chains_path, cp.chainlog_bytes);
    }
    chainlog_bytes_ = cp.chainlog_bytes;
  } else if (failure == CheckpointFailure::kFingerprintMismatch) {
    // The checkpoint is *valid* but belongs to a different config/engine.
    // Resuming would mix incompatible analysis state and starting fresh
    // would silently discard a healthy run — the operator must decide.
    throw std::runtime_error(error + " (" + ckpt_path + ")");
  } else {
    if (failure == CheckpointFailure::kCorrupt) {
      // Torn, tampered, or oversized: the file carries no trustworthy
      // state, so the only safe continuation is a fresh start. Warn loudly
      // — data before the crash will be re-analysed, not lost.
      std::fprintf(stderr,
                   "live: warning: ignoring corrupt checkpoint %s (%s); "
                   "starting fresh\n",
                   ckpt_path.c_str(), error.c_str());
    }
    // Fresh start: a stale log from an earlier aborted run (no checkpoint
    // yet written) must not pollute this one.
    std::ofstream(chains_path, std::ios::trunc);
    chainlog_bytes_ = 0;
  }

  chain_log_.open(chains_path, std::ios::binary | std::ios::app);
  if (!chain_log_) {
    throw std::runtime_error("live: cannot open " + chains_path);
  }

  streaming_.on_chain = [this](const analysis::ChainInstance& ci,
                               const analysis::WindowResult&) {
    std::string line =
        analysis::FormatChainInstanceJson(ci, streaming_.detector()) + "\n";
    chain_log_ << line;
    chainlog_bytes_ += line.size();
  };
  streaming_.on_window = [this](const analysis::WindowResult& w) {
    ranking_.OnWindow(w, streaming_.detector());
  };

  if (!AwaitMeta()) {
    if (!drained_) {
      throw std::runtime_error("live: " + dataset_dir_ +
                               "/meta.csv never became readable");
    }
    // Drained before the session even became readable: nothing to
    // checkpoint, nothing analysed — the next run simply starts fresh.
  }

  while (!finished_ && !drained_) {
    if (!PollOnce()) break;
  }

  LiveSummary sum;
  sum.dataset_dir = dataset_dir_;
  sum.polls = poll_count_;
  sum.windows = streaming_.windows_processed();
  sum.chains = streaming_.chains_detected();
  sum.insufficient_chains = streaming_.insufficient_chains();
  sum.resets = streaming_.resets();
  sum.checkpoints = checkpoints_written_;
  for (const ShedRange& s : shed_) sum.shed_windows += s.windows;
  if (watchdog_.has_value()) {
    for (StreamId id : AllStreams()) {
      if (watchdog_->stalled(id)) ++sum.stalled_streams;
    }
  }
  sum.resumed = resumed_;
  sum.drained = drained_;
  sum.report_path = state_dir_ + "/" + kReportFile;
  sum.chains_path = chains_path;
  return sum;
}

bool LiveRunner::AwaitMeta() {
  for (int attempt = 0; attempt <= opts_.max_idle_polls; ++attempt) {
    if (reader_.PollMeta(ds_)) {
      // The declared session end from meta.csv — ds_.end is repurposed
      // below to track the retained-data extent, so grab it now.
      const Time declared_end = ds_.end;
      if (resumed_) {
        if (ds_.begin != anchor_) {
          throw std::runtime_error(
              "live: dataset begin changed since the checkpoint was "
              "written — refusing to resume against different data");
        }
        // Retention had already moved the dataset begin forward. Rebuild
        // the retained raw records by replaying every stream file to its
        // checkpointed byte cursor (tail.h documents why stop positions
        // are replayed, not re-derived).
        ds_.begin = cut_;
        Time data_end = cut_;
        for (StreamId id : AllStreams()) {
          const auto& cur =
              restored_tails_[static_cast<std::size_t>(id)];
          reader_.ReplayTo(id, ds_, cur, cut_, opts_.input);
          data_end = std::max(data_end, cur.watermark);
        }
        ds_.end = data_end;
      } else {
        anchor_ = ds_.begin;
        cut_ = ds_.begin;
        limit_ = ds_.begin;
        analyzed_to_ = ds_.begin;
      }
      meta_end_ = declared_end > anchor_ ? declared_end : Time{0};
      std::array<bool, kStreamCount> expected{};
      expected[static_cast<std::size_t>(StreamId::kDci)] = true;
      expected[static_cast<std::size_t>(StreamId::kGnbLog)] =
          ds_.is_private_cell;
      expected[static_cast<std::size_t>(StreamId::kPackets)] = true;
      expected[static_cast<std::size_t>(StreamId::kStatsUe)] = true;
      expected[static_cast<std::size_t>(StreamId::kStatsRemote)] = true;
      watchdog_.emplace(opts_.stall_deadline, expected);
      if (have_restored_stalls_) watchdog_->Restore(restored_stalls_);
      return true;
    }
    // Static datasets either have a meta.csv or never will — fail fast.
    // Only follow mode waits for a writer to produce one.
    if (!opts_.follow) return false;
    if (DrainRequested()) {
      drained_ = true;
      return false;
    }
    CheckCancel();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opts_.poll_sleep_ms));
  }
  return false;
}

bool LiveRunner::DrainRequested() const {
  return opts_.drain != nullptr &&
         opts_.drain->load(std::memory_order_relaxed);
}

void LiveRunner::CheckCancel() const {
  if (opts_.cancel != nullptr &&
      opts_.cancel->load(std::memory_order_relaxed)) {
    throw std::runtime_error("live: cancelled (session deadline exceeded)");
  }
}

void LiveRunner::CheckFence() const {
  if (opts_.fence_lease_dir.empty()) return;
  if (!LeaseTokenCurrent(opts_.fence_lease_dir, opts_.fence_token)) {
    throw std::runtime_error(
        "fenced: session lease no longer carries token " +
        std::to_string(opts_.fence_token) +
        " (stolen by another box; stopping without touching state)");
  }
}

void LiveRunner::MaybeChaosWedge() {
  if (resumed_ || opts_.chaos_wedge_after <= 0 ||
      process_checkpoints_ < opts_.chaos_wedge_after) {
    return;
  }
  // Simulate a session that stops making progress without failing: a dead
  // live feed, a wedged filesystem. Only the supervisor's wall-clock
  // deadline (cancel token in thread isolation, SIGKILL in process
  // isolation) can get a worker back from here.
  for (;;) {
    CheckCancel();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

bool LiveRunner::PollOnce() {
  // Fence before the drain check: a zombie daemon draining after its lease
  // was stolen must not publish even a drain checkpoint over the new
  // owner's state.
  CheckFence();
  if (DrainRequested()) {
    // Graceful drain: persist progress at this poll boundary and stop
    // without finishing. The next run resumes here and produces output
    // byte-identical to a run that was never interrupted.
    WriteDrainCheckpoint();
    drained_ = true;
    return false;
  }
  CheckCancel();
  MaybeChaosWedge();
  ++poll_count_;
  limit_ = anchor_ + opts_.chunk * poll_count_;

  telemetry::TailLimits lim;
  lim.cut = cut_;
  lim.limit = limit_;
  lim.reorder_guard = opts_.reorder_guard;
  lim.max_jump = opts_.max_watermark_jump;
  lim.input = opts_.input;

  std::size_t rows = 0;
  bool all_eof = true;
  for (StreamId id : AllStreams()) {
    if (!watchdog_->expected(id)) continue;
    telemetry::TailProgress p = reader_.Poll(id, ds_, lim);
    rows += p.rows_ingested;
    // A stream is "drained" for termination purposes when we have consumed
    // its file to the end; stalled/missing streams are covered by the
    // watchdog exclusion below.
    if (!p.eof && !watchdog_->stalled(id)) all_eof = false;
  }

  std::array<Time, kStreamCount> watermarks{};
  Time data_end = cut_;
  for (StreamId id : AllStreams()) {
    watermarks[static_cast<std::size_t>(id)] = reader_.watermark(id);
    data_end = std::max(data_end, reader_.watermark(id));
  }
  // ds_.end tracks the retained data extent (not the declared session
  // end) so RetentionStats::peak_retained_span measures real memory.
  ds_.end = data_end;
  Time frontier = watchdog_->Update(watermarks);

  Time advance_to = std::min(limit_, frontier);
  if (meta_end_ > Time{0}) advance_to = std::min(advance_to, meta_end_);

  // Termination: the schedule has moved past the declared end and every
  // live stream is drained — analyse the remaining tail in full and stop.
  // The data must actually have gotten near the declared end, though: a
  // capture whose files all stop far short of meta's end is an interrupted
  // recording (it may grow later and be resumed), not a finished one, and
  // flushing windows past its watermark would bake half-empty analysis
  // into the log. "Near" is the stall deadline — the same tolerance that
  // separates a late stream from a dead one.
  const bool past_end = meta_end_ > Time{0} &&
                        limit_ >= meta_end_ + opts_.reorder_guard;
  const bool data_complete =
      data_end + opts_.stall_deadline >= meta_end_;
  const bool final_poll = past_end && all_eof && rows == 0 && data_complete;
  if (final_poll) advance_to = meta_end_;

  long windows_before = streaming_.windows_processed();
  if (advance_to > analyzed_to_ || final_poll) {
    AdvanceAnalysis(advance_to);
    analyzed_to_ = std::max(analyzed_to_, advance_to);
  }
  long new_windows = streaming_.windows_processed() - windows_before;

  // Retention: evict raw records the analysis cursor has left behind.
  Time cut_candidate = telemetry::QuantizeRetentionCut(
      anchor_, streaming_.next_window_begin() - opts_.horizon);
  if (cut_candidate > cut_) {
    telemetry::ApplyRetention(ds_, cut_candidate, retention_);
    cut_ = cut_candidate;
  }
  telemetry::NoteRetained(ds_, retention_);

  chain_log_.flush();
  if (opts_.checkpoint_every_windows > 0 &&
      streaming_.windows_processed() - last_checkpoint_windows_ >=
          opts_.checkpoint_every_windows) {
    WriteCheckpoint();
  }
  Status(final_poll ? "final" : "poll");

  if (final_poll) {
    FinishRun();
    return false;
  }

  if (rows == 0 && new_windows == 0) {
    ++idle_polls_;
    if (!opts_.follow && idle_polls_ >= opts_.max_idle_polls) {
      // Nothing moving for a whole idle budget (no declared end, or a
      // poisoned directory that can never drain): conclude the capture is
      // over rather than spinning forever. Extra idle polls change no
      // reported quantity, so this stays resume-invariant.
      FinishRun();
      return false;
    }
    if (opts_.follow) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts_.poll_sleep_ms));
    }
  } else {
    idle_polls_ = 0;
  }
  return true;
}

void LiveRunner::AdvanceAnalysis(Time advance_to) {
  if (advance_to <= cut_) return;
  ApplyBackpressure(advance_to);
  // Bounded analysis span: sanitize and derive only the retained rows at or
  // after lo, one gap threshold before the next window on the 1 s grid.
  // Every window from next_window_begin() on gets the same result as from
  // the whole retained dataset (retention.h; DESIGN.md §9), so a poll costs
  // what is new, not what is retained. The session end is pinned to the
  // analysis frontier, so a stalled stream's missing tail shows up as a
  // coverage gap (-> reduced chain confidence) rather than as silence.
  const Time lo = std::max(
      cut_, telemetry::QuantizeRetentionCut(
                anchor_, streaming_.next_window_begin() -
                             opts_.sanitize.gap_threshold));
  telemetry::GatherAnalysisSpan(ds_, lo, span_);
  span_.end = advance_to;
  telemetry::SanitizeReport health =
      telemetry::SanitizeDataset(span_, opts_.sanitize);
  telemetry::DerivedTrace trace = telemetry::BuildDerivedTrace(span_);
  trace.quality = health.quality();

  streaming_.Advance(trace, advance_to);

  // S1 guard: the live loop rebuilds its trace once per poll, so exactly
  // one incremental-cursor reset per Advance is expected. More means a
  // caller bug that silently re-pays cursor warm-up on every call.
  long resets = streaming_.resets();
  if (resets - last_resets_ > 1) {
    std::fprintf(stderr,
                 "live[%s]: warning: %ld incremental cursor resets in one "
                 "poll (expected at most 1) — trace identity is flapping\n",
                 dataset_dir_.c_str(), resets - last_resets_);
  }
  last_resets_ = resets;
}

void LiveRunner::ApplyBackpressure(Time advance_to) {
  if (opts_.max_backlog_windows <= 0) return;
  const Duration step = opts_.detector.step;
  const Duration window = opts_.detector.window;
  const Time nb = streaming_.next_window_begin();
  if (nb + window > advance_to) return;
  const long pending = (advance_to - window - nb) / step + 1;
  if (pending <= opts_.max_backlog_windows) return;

  const Time target = nb + step * (pending - opts_.max_backlog_windows);
  const int skipped = streaming_.SkipTo(target);
  if (skipped <= 0) return;
  if (!shed_.empty() && shed_.back().end == nb) {
    shed_.back().end = target;
    shed_.back().windows += skipped;
  } else {
    shed_.push_back(ShedRange{nb, target, skipped});
  }
  if (!opts_.quiet) {
    std::fprintf(stderr,
                 "live[%s]: backpressure: shed %d windows [%.1fs, %.1fs)\n",
                 dataset_dir_.c_str(), skipped, nb.seconds(),
                 target.seconds());
  }
}

LiveCheckpoint LiveRunner::BuildCheckpoint() const {
  LiveCheckpoint cp;
  cp.fingerprint = fingerprint_;
  cp.next_begin = streaming_.next_window_begin();
  cp.ingest_limit = limit_;
  cp.retention_cut = cut_;
  cp.anchor = anchor_;
  cp.poll_count = poll_count_;
  cp.windows = streaming_.windows_processed();
  cp.chains = streaming_.chains_detected();
  cp.insufficient = streaming_.insufficient_chains();
  cp.resets = streaming_.resets();
  cp.chainlog_bytes = chainlog_bytes_;
  cp.retention_cuts = retention_.cuts;
  cp.evicted_records = retention_.evicted_records;
  cp.peak_retained_records = retention_.peak_retained_records;
  cp.peak_retained_span = retention_.peak_retained_span;
  cp.windows_seen = ranking_.windows_seen;
  cp.windows_with_chain = ranking_.windows_with_chain;
  cp.insufficient_windows = ranking_.insufficient_windows;
  cp.cause = ranking_.cause;
  cp.chain_tally = ranking_.chain_tally;
  cp.shed = shed_;
  if (watchdog_.has_value()) cp.stalls = watchdog_->Snapshot();
  for (StreamId id : AllStreams()) {
    cp.tails[static_cast<std::size_t>(id)] = reader_.cursor(id);
  }
  return cp;
}

void LiveRunner::WriteDrainCheckpoint() {
  chain_log_.flush();
  LiveCheckpoint cp = BuildCheckpoint();
  // Progress is saved, but no cadence slot is consumed: the resumed run
  // must count and place its periodic checkpoints exactly like a run that
  // was never drained, or the final report stops being byte-identical.
  cp.checkpoints_written = checkpoints_written_;
  cp.last_checkpoint_windows = last_checkpoint_windows_;
  const std::string path = state_dir_ + "/" + kCheckpointFile;
  // Best-effort, never injected (drain is not an attempt making progress):
  // if the disk is failing, the previous periodic checkpoint still resumes
  // correctly, just replaying more.
  if (!SaveCheckpoint(cp, path)) {
    std::fprintf(stderr,
                 "live[%s]: warning: failed to write drain checkpoint %s; "
                 "resume will replay from the previous checkpoint\n",
                 dataset_dir_.c_str(), path.c_str());
  }
}

void LiveRunner::WriteCheckpoint() {
  // Prove ownership immediately before the durable write: a fenced zombie
  // must fail here, not overwrite the new owner's checkpoint.
  CheckFence();
  chain_log_.flush();
  LiveCheckpoint cp = BuildCheckpoint();
  cp.checkpoints_written = checkpoints_written_ + 1;
  cp.last_checkpoint_windows = streaming_.windows_processed();

  const std::string path = state_dir_ + "/" + kCheckpointFile;
  const long faults_before = diskfault_.faults_injected();
  // Disk chaos follows the fresh-run-only convention of the other chaos
  // hooks: a retried attempt resumes from the previous checkpoint and
  // writes clean, which is what makes the fault recoverable.
  if (!SaveCheckpoint(cp, path, resumed_ ? nullptr : &diskfault_)) {
    // A session that cannot persist its progress must not keep running as
    // if it had: escalate to an attempt failure so the fleet supervisor
    // takes the retry/backoff/quarantine path (the previous checkpoint is
    // intact, so the retry resumes and replays only the uncheckpointed
    // tail). A standalone `domino live` run exits nonzero for the same
    // reason — silent non-durability is worse than a loud failure.
    if (diskfault_.faults_injected() > faults_before) {
      throw std::runtime_error("live: checkpoint write failed (injected " +
                               diskfault_.last_fault_name() + " at write " +
                               std::to_string(diskfault_.writes_seen()) +
                               ")");
    }
    throw std::runtime_error("live: checkpoint write failed: " + path);
  }
  ++checkpoints_written_;
  ++process_checkpoints_;
  last_checkpoint_windows_ = streaming_.windows_processed();
  if (opts_.crash_after_checkpoints > 0 &&
      process_checkpoints_ >= opts_.crash_after_checkpoints) {
    // Chaos hook: die *exactly* at a checkpoint boundary, as SIGKILL
    // would, with no destructors and no flushes beyond what a real crash
    // guarantees.
    std::_Exit(137);
  }
  // Fleet chaos hooks: unlike crash_after_checkpoints they fire only on a
  // fresh (non-resumed) run, so the supervisor's retry — which resumes
  // from the checkpoint just written — runs clean. That makes these
  // faults *recoverable* by construction.
  if (!resumed_ && opts_.chaos_crash_after > 0 &&
      process_checkpoints_ >= opts_.chaos_crash_after) {
    std::_Exit(137);
  }
  if (!resumed_ && opts_.chaos_fail_after > 0 &&
      process_checkpoints_ >= opts_.chaos_fail_after) {
    throw std::runtime_error("live: chaos fault injected after checkpoint " +
                             std::to_string(process_checkpoints_));
  }
}

void LiveRunner::FinishRun() {
  CheckFence();
  finished_ = true;
  const Time end = meta_end_ > Time{0} ? meta_end_ : analyzed_to_;

  // Final health snapshot over the retained tail, for the report only.
  telemetry::SessionDataset copy = ds_;
  if (end > copy.begin) copy.end = end;
  telemetry::SanitizeReport health =
      telemetry::SanitizeDataset(copy, opts_.sanitize);

  const std::string report_path = state_dir_ + "/" + kReportFile;
  // The report is a guarded durability write like the checkpoint: atomic
  // (temp + rename, so readers never see a torn report), faultable under
  // disk chaos, and loud on failure — an attempt whose output cannot be
  // persisted has not completed.
  std::string werr;
  if (!AtomicWriteFile(report_path, BuildLiveReportJson(health),
                       /*fsync_file=*/false,
                       resumed_ ? nullptr : &diskfault_, &werr)) {
    throw std::runtime_error("live: report " + werr);
  }
  chain_log_.flush();
  WriteCheckpoint();
}

std::string LiveRunner::BuildLiveReportJson(
    const telemetry::SanitizeReport& final_health) const {
  using analysis::JsonEscape;
  using analysis::JsonNum;
  const analysis::Detector& det = streaming_.detector();
  const analysis::CausalGraph& graph = det.graph();
  const Time end = meta_end_ > Time{0} ? meta_end_ : analyzed_to_;

  // Only wall-clock-free, resume-invariant quantities belong here: this
  // file is byte-compared between killed-and-resumed and uninterrupted
  // runs. (Notably absent: resume counts, reset counts, wall timings.)
  std::ostringstream os;
  os << "{\n";
  os << "  \"trace\": {\"cell\": \"" << JsonEscape(ds_.cell_name)
     << "\", \"begin_s\": " << JsonNum(anchor_.seconds())
     << ", \"end_s\": " << JsonNum(end.seconds())
     << ", \"window_s\": " << JsonNum(opts_.detector.window.seconds())
     << ", \"step_s\": " << JsonNum(opts_.detector.step.seconds()) << "},\n";
  os << "  \"live\": {\"chunk_s\": " << JsonNum(opts_.chunk.seconds())
     << ", \"horizon_s\": " << JsonNum(opts_.horizon.seconds())
     << ", \"stall_deadline_s\": "
     << JsonNum(opts_.stall_deadline.seconds())
     << ", \"max_backlog_windows\": " << opts_.max_backlog_windows << "},\n";
  os << "  \"progress\": {\"windows\": " << streaming_.windows_processed()
     << ", \"chains\": " << streaming_.chains_detected()
     << ", \"insufficient_chains\": " << streaming_.insufficient_chains()
     << ", \"checkpoints\": " << checkpoints_written_ << "},\n";

  long shed_windows = 0;
  os << "  \"backpressure\": {\"shed_ranges\": [";
  for (std::size_t i = 0; i < shed_.size(); ++i) {
    const ShedRange& s = shed_[i];
    shed_windows += s.windows;
    os << (i == 0 ? "" : ", ") << "{\"begin_s\": " << JsonNum(s.begin.seconds())
       << ", \"end_s\": " << JsonNum(s.end.seconds())
       << ", \"windows\": " << s.windows << ", \"degraded\": true}";
  }
  os << "], \"shed_windows\": " << shed_windows << "},\n";

  os << "  \"retention\": {\"cuts\": " << retention_.cuts
     << ", \"evicted_records\": " << retention_.evicted_records
     << ", \"peak_retained_records\": " << retention_.peak_retained_records
     << ", \"peak_retained_span_s\": "
     << JsonNum(retention_.peak_retained_span.seconds()) << "},\n";

  os << "  \"watchdog\": {\"streams\": [";
  bool first = true;
  for (StreamId id : AllStreams()) {
    if (!first) os << ", ";
    first = false;
    const bool have = watchdog_.has_value();
    os << "{\"stream\": \"" << telemetry::StreamName(id) << "\""
       << ", \"expected\": "
       << ((have && watchdog_->expected(id)) ? "true" : "false")
       << ", \"stall_events\": " << (have ? watchdog_->stall_events(id) : 0)
       << ", \"stalled\": "
       << ((have && watchdog_->stalled(id)) ? "true" : "false") << "}";
  }
  os << "]},\n";

  os << "  \"health\": [";
  first = true;
  for (const telemetry::StreamHealth& s : final_health.streams) {
    if (!first) os << ", ";
    first = false;
    os << "{\"stream\": \"" << telemetry::StreamName(s.id) << "\""
       << ", \"expected\": " << (s.expected ? "true" : "false")
       << ", \"coverage\": " << JsonNum(s.coverage)
       << ", \"gap_count\": " << s.gap_count << "}";
  }
  os << "],\n";

  // Per-window root-cause winners (anytime ranking; see LiveRanking).
  std::vector<std::pair<std::string, long>> winners;
  for (const auto& [idx, v] : ranking_.cause) {
    if (v.second > 0) {
      winners.emplace_back(graph.node(idx).name, v.second);
    }
  }
  std::sort(winners.begin(), winners.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  os << "  \"root_causes\": [";
  for (std::size_t i = 0; i < winners.size(); ++i) {
    os << (i == 0 ? "" : ",") << "\n    {\"cause\": \""
       << JsonEscape(winners[i].first)
       << "\", \"windows\": " << winners[i].second << "}";
  }
  os << (winners.empty() ? "" : "\n  ") << "],\n";
  os << "  \"insufficient_windows\": " << ranking_.insufficient_windows
     << ",\n";

  std::vector<std::pair<int, std::pair<long, long>>> top(
      ranking_.chain_tally.begin(), ranking_.chain_tally.end());
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    return a.second.first != b.second.first
               ? a.second.first > b.second.first
               : a.first < b.first;
  });
  if (top.size() > 8) top.resize(8);
  os << "  \"top_chains\": [";
  for (std::size_t i = 0; i < top.size(); ++i) {
    const auto& [idx, tally] = top[i];
    os << (i == 0 ? "" : ",") << "\n    {\"path\": \""
       << JsonEscape(analysis::FormatChain(
              graph, det.chains()[static_cast<std::size_t>(idx)]))
       << "\", \"count\": " << tally.first
       << ", \"insufficient\": " << tally.second << "}";
  }
  os << (top.empty() ? "" : "\n  ") << "],\n";
  os << "  \"ended\": true\n";
  os << "}\n";
  return os.str();
}

void LiveRunner::Status(const char* stage) const {
  if (opts_.quiet) return;
  std::fprintf(stderr,
               "live[%s]: %s %ld t=%.1fs windows=%ld chains=%ld "
               "(%ld insufficient) retained=%zu%s\n",
               dataset_dir_.c_str(), stage, poll_count_, limit_.seconds(),
               streaming_.windows_processed(), streaming_.chains_detected(),
               streaming_.insufficient_chains(),
               telemetry::CountRecords(ds_),
               (watchdog_.has_value() && watchdog_->any_stalled())
                   ? " [stalled stream]"
                   : "");
}

}  // namespace domino::runtime
