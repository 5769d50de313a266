// Live runtime tests: the crash-safe `domino live` stack end to end —
// checkpoint format durability, kill-and-resume byte determinism (via the
// CLI's --crash-after SIGKILL hook), resume across dataset growth, bounded
// memory through retention + backpressure shedding, watchdog degradation
// for stalled streams, multi-session isolation, and the streaming-detector
// regressions the runtime depends on (counted cursor resets, ordered
// catch-up fan-out).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/sealed_record.h"
#include "domino/runtime/checkpoint.h"
#include "domino/runtime/fleet.h"
#include "domino/runtime/live.h"
#include "domino/streaming.h"
#include "sim/call_session.h"
#include "sim/cell_config.h"
#include "sim/live_feed.h"
#include "telemetry/io.h"
#include "telemetry/sanitize.h"
#include "test_scratch.h"

namespace domino {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, under this process's own root
/// (test_scratch.h), so parallel test processes never share one.
std::string TempDir(const std::string& name) {
  return testing_scratch::FreshDir("live_" + name);
}

std::string Slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// One shared 16 s private-cell session (all five streams live), simulated
/// once — the live tests only differ in how they feed/kill the runtime.
const telemetry::SessionDataset& SharedSession() {
  static const telemetry::SessionDataset ds = [] {
    sim::SessionConfig cfg;
    cfg.profile = sim::Amarisoft();
    cfg.duration = Seconds(16);
    cfg.seed = 11;
    return sim::CallSession(cfg).Run();
  }();
  return ds;
}

/// Dataset dir holding SharedSession(), written once.
const std::string& SharedSessionDir() {
  static const std::string dir = testing_scratch::PublishFixture(
      "live_shared_ds",
      [](const std::string& d) { telemetry::SaveDataset(SharedSession(), d); });
  return dir;
}

runtime::LiveOptions QuietOpts() {
  runtime::LiveOptions opts;
  opts.quiet = true;
  return opts;
}

analysis::CausalGraph DefaultGraph(const runtime::LiveOptions& opts) {
  return analysis::CausalGraph::Default(opts.detector.thresholds);
}

// --- checkpoint format -----------------------------------------------------------

runtime::LiveCheckpoint SampleCheckpoint() {
  runtime::LiveCheckpoint cp;
  cp.fingerprint = "v1 w=5000000 s=500000 inc=1";
  cp.next_begin = Time{0} + Seconds(12.5);
  cp.ingest_limit = Time{0} + Seconds(18);
  cp.retention_cut = Time{0} + Seconds(3);
  cp.anchor = Time{0} + Seconds(1);
  cp.poll_count = 9;
  cp.windows = 20;
  cp.chains = 57;
  cp.insufficient = 4;
  cp.resets = 9;
  cp.checkpoints_written = 2;
  cp.chainlog_bytes = 13337;
  cp.retention_cuts = 3;
  cp.evicted_records = 4242;
  cp.peak_retained_records = 999;
  cp.peak_retained_span = Seconds(11.5);
  cp.windows_seen = 20;
  cp.windows_with_chain = 15;
  cp.insufficient_windows = 2;
  cp.cause[0] = {18, 7};
  cp.cause[3] = {5, 1};
  cp.chain_tally[2] = {12, 3};
  runtime::ShedRange shed;
  shed.begin = Time{0} + Seconds(4);
  shed.end = Time{0} + Seconds(6);
  shed.windows = 4;
  cp.shed.push_back(shed);
  cp.stalls[1] = {2, 1, true};
  telemetry::TailCursor tail;
  tail.offset = 123456;
  tail.abs_row = 789;
  tail.header_seen = true;
  tail.watermark = Time{0} + Seconds(17.5);
  tail.rows_total = 788;
  tail.rows_kept = 700;
  tail.rows_dropped = 88;
  cp.tails[0] = tail;
  return cp;
}

TEST(CheckpointTest, FormatRoundtripsEveryField) {
  const runtime::LiveCheckpoint cp = SampleCheckpoint();
  const std::string text = FormatCheckpoint(cp);

  runtime::LiveCheckpoint back;
  std::string error;
  ASSERT_TRUE(
      runtime::ParseCheckpoint(text, cp.fingerprint, &back, &error))
      << error;

  EXPECT_EQ(back.fingerprint, cp.fingerprint);
  EXPECT_EQ(back.next_begin.micros(), cp.next_begin.micros());
  EXPECT_EQ(back.ingest_limit.micros(), cp.ingest_limit.micros());
  EXPECT_EQ(back.retention_cut.micros(), cp.retention_cut.micros());
  EXPECT_EQ(back.anchor.micros(), cp.anchor.micros());
  EXPECT_EQ(back.poll_count, cp.poll_count);
  EXPECT_EQ(back.windows, cp.windows);
  EXPECT_EQ(back.chains, cp.chains);
  EXPECT_EQ(back.insufficient, cp.insufficient);
  EXPECT_EQ(back.resets, cp.resets);
  EXPECT_EQ(back.checkpoints_written, cp.checkpoints_written);
  EXPECT_EQ(back.chainlog_bytes, cp.chainlog_bytes);
  EXPECT_EQ(back.retention_cuts, cp.retention_cuts);
  EXPECT_EQ(back.evicted_records, cp.evicted_records);
  EXPECT_EQ(back.peak_retained_records, cp.peak_retained_records);
  EXPECT_EQ(back.peak_retained_span.micros(), cp.peak_retained_span.micros());
  EXPECT_EQ(back.windows_seen, cp.windows_seen);
  EXPECT_EQ(back.windows_with_chain, cp.windows_with_chain);
  EXPECT_EQ(back.insufficient_windows, cp.insufficient_windows);
  EXPECT_EQ(back.cause, cp.cause);
  EXPECT_EQ(back.chain_tally, cp.chain_tally);
  ASSERT_EQ(back.shed.size(), 1u);
  EXPECT_EQ(back.shed[0].begin.micros(), cp.shed[0].begin.micros());
  EXPECT_EQ(back.shed[0].end.micros(), cp.shed[0].end.micros());
  EXPECT_EQ(back.shed[0].windows, cp.shed[0].windows);
  EXPECT_EQ(back.stalls[1].stall_events, 2);
  EXPECT_EQ(back.stalls[1].recoveries, 1);
  EXPECT_TRUE(back.stalls[1].stalled);
  EXPECT_EQ(back.tails[0].offset, cp.tails[0].offset);
  EXPECT_EQ(back.tails[0].abs_row, cp.tails[0].abs_row);
  EXPECT_TRUE(back.tails[0].header_seen);
  EXPECT_EQ(back.tails[0].watermark.micros(), cp.tails[0].watermark.micros());
  EXPECT_EQ(back.tails[0].rows_total, cp.tails[0].rows_total);
  EXPECT_EQ(back.tails[0].rows_kept, cp.tails[0].rows_kept);
  EXPECT_EQ(back.tails[0].rows_dropped, cp.tails[0].rows_dropped);
}

TEST(CheckpointTest, RejectsTornTamperedAndMismatchedFiles) {
  const runtime::LiveCheckpoint cp = SampleCheckpoint();
  const std::string text = FormatCheckpoint(cp);
  runtime::LiveCheckpoint out;
  std::string error;

  // A torn write (truncated anywhere) must not parse.
  for (std::size_t keep : {text.size() / 4, text.size() / 2,
                           text.size() - 3}) {
    error.clear();
    EXPECT_FALSE(runtime::ParseCheckpoint(text.substr(0, keep),
                                          cp.fingerprint, &out, &error));
    EXPECT_FALSE(error.empty());
  }

  // A flipped digit invalidates the checksum.
  std::string tampered = text;
  const std::size_t pos = tampered.find_first_of("0123456789");
  ASSERT_NE(pos, std::string::npos);
  tampered[pos] = tampered[pos] == '1' ? '2' : '1';
  EXPECT_FALSE(
      runtime::ParseCheckpoint(tampered, cp.fingerprint, &out, &error));

  // A different config fingerprint would not reproduce the same windows.
  EXPECT_FALSE(
      runtime::ParseCheckpoint(text, "v1 other-config", &out, &error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

TEST(CheckpointTest, SaveIsAtomicAndMissingFileMeansFreshStart) {
  const std::string dir = TempDir("ckpt_io");
  const std::string path = dir + "/live.ckpt";
  runtime::LiveCheckpoint out;
  std::string error = "sentinel";

  // Missing file: fresh start, not a failure.
  EXPECT_FALSE(runtime::LoadCheckpoint(path, "", &out, &error));
  EXPECT_TRUE(error.empty());

  const runtime::LiveCheckpoint cp = SampleCheckpoint();
  ASSERT_TRUE(runtime::SaveCheckpoint(cp, path));
  for (const auto& e : fs::directory_iterator(dir)) {  // staging renamed away
    EXPECT_NE(e.path().filename().string().rfind("live.ckpt.tmp", 0), 0u)
        << e.path();
  }
  ASSERT_TRUE(runtime::LoadCheckpoint(path, cp.fingerprint, &out, &error))
      << error;
  EXPECT_EQ(out.windows, cp.windows);

  // Corrupting the saved file on disk is detected at load.
  std::ofstream(path, std::ios::binary | std::ios::app) << "x";
  EXPECT_FALSE(runtime::LoadCheckpoint(path, cp.fingerprint, &out, &error));
  EXPECT_FALSE(error.empty());
}

// --- live runner vs batch --------------------------------------------------------

TEST(LiveRunnerTest, MatchesBatchAnalysisOnCompleteDataset) {
  const std::string state = TempDir("vs_batch_state");
  runtime::LiveOptions opts = QuietOpts();
  runtime::LiveRunner runner(SharedSessionDir(), state, DefaultGraph(opts),
                             opts);
  runtime::LiveSummary sum = runner.Run();

  // Batch reference over the same (sanitized) dataset.
  telemetry::SessionDataset ds = SharedSession();
  telemetry::SanitizeReport health = telemetry::SanitizeDataset(ds);
  telemetry::DerivedTrace trace = telemetry::BuildDerivedTrace(ds);
  trace.quality = health.quality();
  analysis::Detector det(DefaultGraph(opts), opts.detector);
  analysis::AnalysisResult batch = det.Analyze(trace);

  EXPECT_EQ(sum.windows, static_cast<long>(batch.windows.size()));
  EXPECT_EQ(sum.chains, static_cast<long>(batch.AllChains().size()));
  EXPECT_FALSE(sum.resumed);
  EXPECT_GT(sum.checkpoints, 0);

  // chains.jsonl carries exactly one line per chain instance.
  const std::string log = Slurp(sum.chains_path);
  EXPECT_EQ(std::count(log.begin(), log.end(), '\n'),
            static_cast<long>(batch.AllChains().size()));
  EXPECT_NE(Slurp(sum.report_path).find("\"ended\": true"),
            std::string::npos);
}

TEST(LiveRunnerTest, RefusesResumeUnderDifferentConfig) {
  const std::string state = TempDir("fp_state");
  runtime::LiveOptions opts = QuietOpts();
  {
    runtime::LiveRunner runner(SharedSessionDir(), state,
                               DefaultGraph(opts), opts);
    runner.Run();
  }
  runtime::LiveOptions other = opts;
  other.detector.window = Seconds(4.0);  // different windows => new analysis
  runtime::LiveRunner runner(SharedSessionDir(), state, DefaultGraph(other),
                             other);
  EXPECT_THROW(runner.Run(), std::runtime_error);
}

TEST(LiveRunnerTest, CorruptCheckpointMatrixStartsFreshNeverCrashes) {
  // Reference run from scratch; its checkpoint is the corruption donor and
  // its chain log the byte-exact expectation for every fresh restart.
  const std::string ref_state = TempDir("corrupt_ref");
  runtime::LiveOptions opts = QuietOpts();
  runtime::LiveSummary ref;
  {
    runtime::LiveRunner r(SharedSessionDir(), ref_state, DefaultGraph(opts),
                          opts);
    ref = r.Run();
  }
  const std::string ref_chains = Slurp(ref.chains_path);
  const std::string good = Slurp(ref_state + "/live.ckpt");
  ASSERT_FALSE(good.empty());

  std::string flipped = good;
  const std::size_t digit = flipped.find_first_of("0123456789");
  ASSERT_NE(digit, std::string::npos);
  flipped[digit] = static_cast<char>(flipped[digit] ^ 0x01);

  // Oversized field behind a valid checksum: the 400-digit poll count
  // overflows the tokenizer's int64 and must surface as "malformed field",
  // not as UB or an uncaught exception.
  const std::size_t mark = good.rfind("checksum ");
  ASSERT_NE(mark, std::string::npos);
  std::string body = good.substr(0, mark);
  const std::size_t cursor_at = body.find("cursor ");
  ASSERT_NE(cursor_at, std::string::npos);
  body.insert(cursor_at + 7, std::string(400, '9'));
  const std::string oversized_field = Seal(body);

  const struct {
    const char* name;
    std::string text;
  } kMatrix[] = {
      {"zero_byte", ""},
      {"truncated", good.substr(0, good.size() / 2)},
      {"bit_flipped", flipped},
      {"oversized_field", oversized_field},
      {"binary_garbage", std::string("\x7f\x45\x4c\x46\x00\x01\x02", 7)},
  };
  for (const auto& c : kMatrix) {
    SCOPED_TRACE(c.name);
    const std::string state = TempDir(std::string("corrupt_") + c.name);
    std::ofstream(state + "/live.ckpt", std::ios::binary) << c.text;
    runtime::LiveRunner r(SharedSessionDir(), state, DefaultGraph(opts),
                          opts);
    runtime::LiveSummary sum;
    ASSERT_NO_THROW(sum = r.Run());
    EXPECT_FALSE(sum.resumed);  // warned and started from scratch
    EXPECT_EQ(sum.windows, ref.windows);
    EXPECT_EQ(Slurp(sum.chains_path), ref_chains);
  }
}

TEST(LiveRunnerTest, CheckpointOverByteBudgetIsCorruptNotFatal) {
  const std::string state = TempDir("corrupt_oversize");
  // A structurally *valid* checkpoint that exceeds the configured byte
  // budget must be treated as corrupt (fresh start), and must not be
  // slurped into memory first.
  runtime::LiveOptions opts = QuietOpts();
  opts.input.max_checkpoint_bytes = 64;
  ASSERT_TRUE(
      runtime::SaveCheckpoint(SampleCheckpoint(), state + "/live.ckpt"));
  runtime::LiveRunner r(SharedSessionDir(), state, DefaultGraph(opts), opts);
  runtime::LiveSummary sum;
  ASSERT_NO_THROW(sum = r.Run());
  EXPECT_FALSE(sum.resumed);
  EXPECT_GT(sum.windows, 0);
}

// --- kill and resume -------------------------------------------------------------

#ifdef DOMINO_BINARY
int RunCli(const std::string& args) {
  const std::string cmd =
      std::string(DOMINO_BINARY) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(KillResumeTest, SigkillAtCheckpointResumesByteIdentical) {
  const std::string ds_dir = SharedSessionDir();
  const std::string baseline = TempDir("kill_baseline");
  const std::string state = TempDir("kill_state");

  ASSERT_EQ(RunCli("live " + ds_dir + " --quiet --state " + baseline), 0);

  // --crash-after N _Exit(137)s right after the N-th checkpoint rename —
  // the harshest kill point (state just became durable, log is ahead).
  ASSERT_EQ(RunCli("live " + ds_dir + " --quiet --state " + state +
                   " --crash-after 2"),
            137);
  ASSERT_TRUE(fs::exists(state + "/live.ckpt"));
  EXPECT_FALSE(fs::exists(state + "/live_report.json"));

  ASSERT_EQ(RunCli("live " + ds_dir + " --quiet --state " + state), 0);
  EXPECT_EQ(Slurp(state + "/chains.jsonl"),
            Slurp(baseline + "/chains.jsonl"));
  EXPECT_EQ(Slurp(state + "/live_report.json"),
            Slurp(baseline + "/live_report.json"));
}
#endif  // DOMINO_BINARY

TEST(LiveRunnerTest, ResumesAcrossDatasetGrowth) {
  const runtime::LiveOptions opts = QuietOpts();

  // Baseline: the whole capture present before the first poll.
  const std::string full_dir = TempDir("grow_full");
  const std::string full_state = full_dir + "/state";
  sim::LiveFeedWriter(SharedSession(), full_dir).WriteAll();
  runtime::LiveRunner full(full_dir, full_state, DefaultGraph(opts), opts);
  const runtime::LiveSummary full_sum = full.Run();

  // Interrupted capture: first half, analyse (ends at the idle cap),
  // then the rest arrives and a second runner resumes from the checkpoint.
  const std::string grow_dir = TempDir("grow_half");
  const std::string grow_state = grow_dir + "/state";
  sim::LiveFeedWriter feed(SharedSession(), grow_dir);
  while (feed.Step() && feed.cursor() < SharedSession().begin + Seconds(8)) {
  }
  {
    runtime::LiveRunner half(grow_dir, grow_state, DefaultGraph(opts),
                             opts);
    runtime::LiveSummary sum = half.Run();
    EXPECT_LT(sum.windows, full_sum.windows);
  }
  feed.WriteAll();
  runtime::LiveRunner rest(grow_dir, grow_state, DefaultGraph(opts), opts);
  const runtime::LiveSummary sum = rest.Run();

  EXPECT_TRUE(sum.resumed);
  EXPECT_EQ(sum.windows, full_sum.windows);
  EXPECT_EQ(sum.chains, full_sum.chains);
  // The chain log is pure content: growth history must not leak into it.
  EXPECT_EQ(Slurp(grow_state + "/chains.jsonl"),
            Slurp(full_state + "/chains.jsonl"));
}

// --- bounded memory --------------------------------------------------------------

TEST(LiveRunnerTest, RetentionBoundsRawRecordMemory) {
  // A session much longer than the horizon: peak retained span must track
  // the horizon, not the trace length.
  sim::SessionConfig cfg;
  cfg.profile = sim::Amarisoft();
  cfg.duration = Seconds(60);
  cfg.seed = 12;
  telemetry::SessionDataset ds = sim::CallSession(cfg).Run();
  const std::string dir = TempDir("retention_ds");
  telemetry::SaveDataset(ds, dir);

  runtime::LiveOptions opts = QuietOpts();
  opts.horizon = Seconds(8);  // clamped to window + reorder + chunk
  runtime::LiveRunner runner(dir, dir + "/state", DefaultGraph(opts), opts);
  runner.Run();

  const std::string report = Slurp(dir + "/state/live_report.json");
  // Retention ran and evicted most of the trace...
  EXPECT_NE(report.find("\"cuts\": "), std::string::npos);
  EXPECT_EQ(report.find("\"cuts\": 0,"), std::string::npos);
  // ...and the retained span never exceeded the analytic bound: the
  // horizon trails the *analysis cursor* (next window begin), which itself
  // trails the ingest watermark by up to window - step + reorder_guard,
  // plus the 1 s cut grid.
  const std::string key = "\"peak_retained_span_s\": ";
  const auto pos = report.find(key);
  ASSERT_NE(pos, std::string::npos);
  const double span = std::stod(report.substr(pos + key.size()));
  EXPECT_LE(span, 8.0 + 5.0 - 0.5 + 1.0 + 1.0);
  EXPECT_LT(span, 30.0);  // far below the 60 s trace
}

TEST(LiveRunnerTest, BackpressureShedsWindowsAsDegraded) {
  const std::string state = TempDir("shed_state");
  runtime::LiveOptions opts = QuietOpts();
  // 4 s polls produce 8 step-windows each; a 4-window backlog cap forces
  // half of every poll's windows to be shed.
  opts.chunk = Seconds(4.0);
  opts.max_backlog_windows = 4;
  runtime::LiveRunner runner(SharedSessionDir(), state, DefaultGraph(opts),
                             opts);
  runtime::LiveSummary sum = runner.Run();

  EXPECT_GT(sum.shed_windows, 0);
  // Analysed + shed covers the whole session's window grid.
  const long total =
      (SharedSession().duration() - opts.detector.window) /
          opts.detector.step + 1;
  EXPECT_EQ(sum.windows + sum.shed_windows, total);

  const std::string report = Slurp(sum.report_path);
  EXPECT_NE(report.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(report.find("\"shed_windows\": "), std::string::npos);
}

// --- watchdog --------------------------------------------------------------------

TEST(LiveRunnerTest, StalledStreamDegradesInsteadOfBlocking) {
  // The packets sniffer dies 7 s into a 16 s call; the session must still
  // analyse every window, with late chains downgraded, not stall forever.
  const std::string dir = TempDir("stall_ds");
  sim::LiveFeedOptions feed_opts;
  feed_opts.stall_after[static_cast<std::size_t>(
      telemetry::StreamId::kPackets)] = SharedSession().begin + Seconds(7);
  sim::LiveFeedWriter(SharedSession(), dir, feed_opts).WriteAll();

  runtime::LiveOptions opts = QuietOpts();
  opts.stall_deadline = Seconds(3);
  runtime::LiveRunner runner(dir, dir + "/state", DefaultGraph(opts), opts);
  runtime::LiveSummary sum = runner.Run();

  // Healthy baseline over the same session, for the degradation contract.
  const std::string base_state = TempDir("stall_baseline");
  runtime::LiveRunner base(SharedSessionDir(), base_state,
                           DefaultGraph(opts), opts);
  runtime::LiveSummary base_sum = base.Run();

  EXPECT_EQ(sum.windows, base_sum.windows);  // never blocked on the dead
                                             // stream — every window done
  EXPECT_GE(sum.stalled_streams, 1);
  EXPECT_GT(sum.chains, 0);                  // still emitting before/around
                                             // the stall
  EXPECT_LT(sum.chains - sum.insufficient_chains,
            base_sum.chains);                // fewer *confirmed* chains

  const std::string report = Slurp(sum.report_path);
  EXPECT_NE(report.find("\"stalled\": true"), std::string::npos);
  EXPECT_NE(report.find("\"stall_events\": 1"), std::string::npos);
}

// --- supervision -----------------------------------------------------------------

TEST(SupervisorTest, PoisonedSessionFailsAloneOthersComplete) {
  const std::string good_a = SharedSessionDir();
  const std::string good_b = TempDir("sup_good_b");
  telemetry::SaveDataset(SharedSession(), good_b);
  // Header-only meta: the tolerant reader can never extract a session row,
  // so this directory is permanently unreadable as a capture.
  const std::string poison = TempDir("sup_poison");
  std::ofstream(poison + "/meta.csv")
      << "cell_name,is_private,begin_us,end_us\n";

  std::vector<runtime::SessionSpec> specs(3);
  specs[0].dataset_dir = good_a;
  specs[0].state_dir = TempDir("sup_state_a");
  specs[1].dataset_dir = poison;
  specs[2].dataset_dir = good_b;

  const runtime::LiveOptions opts = QuietOpts();
  runtime::FleetOptions fleet;
  fleet.workers = static_cast<int>(specs.size());
  fleet.max_attempts = 1;
  std::vector<runtime::SessionOutcome> out =
      runtime::FleetSupervisor(specs, DefaultGraph(opts), opts, fleet)
          .Run()
          .outcomes;

  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].ok) << out[0].error;
  EXPECT_FALSE(out[1].ok);
  EXPECT_FALSE(out[1].error.empty());
  EXPECT_TRUE(out[2].ok) << out[2].error;
  // Isolation: both healthy sessions produced full, equal analyses.
  EXPECT_GT(out[0].summary.windows, 0);
  EXPECT_EQ(out[0].summary.windows, out[2].summary.windows);
  EXPECT_EQ(out[0].summary.chains, out[2].summary.chains);
}

// --- streaming-detector regressions (S1, S4) -------------------------------------

TEST(StreamingResetsTest, TraceObjectSwapsAreCountedNotSilent) {
  telemetry::SessionDataset ds = SharedSession();
  telemetry::SanitizeDataset(ds);
  const telemetry::DerivedTrace a = telemetry::BuildDerivedTrace(ds);
  const telemetry::DerivedTrace b = telemetry::BuildDerivedTrace(ds);

  analysis::DominoConfig cfg;
  cfg.incremental = true;
  analysis::StreamingDetector det(
      analysis::CausalGraph::Default(cfg.thresholds), cfg);

  det.Advance(a, ds.begin + Seconds(7));
  EXPECT_EQ(det.resets(), 0);  // first trace: warm-up, not a reset
  det.Advance(a, ds.begin + Seconds(8));
  EXPECT_EQ(det.resets(), 0);  // same object: cursors persist
  det.Advance(b, ds.begin + Seconds(9));
  EXPECT_EQ(det.resets(), 1);  // swap pays a cursor re-init — counted
  det.Advance(a, ds.begin + Seconds(10));
  EXPECT_EQ(det.resets(), 2);  // flip-flopping keeps counting

  // The naive engine has no cursors to lose.
  analysis::DominoConfig naive = cfg;
  naive.incremental = false;
  analysis::StreamingDetector ndet(
      analysis::CausalGraph::Default(naive.thresholds), naive);
  ndet.Advance(a, ds.begin + Seconds(7));
  ndet.Advance(b, ds.begin + Seconds(9));
  EXPECT_EQ(ndet.resets(), 0);
}

TEST(StreamingCatchUpTest, ParallelFanOutKeepsCallbacksInWindowOrder) {
  telemetry::SessionDataset ds = SharedSession();
  telemetry::SanitizeDataset(ds);
  const telemetry::DerivedTrace trace = telemetry::BuildDerivedTrace(ds);

  analysis::DominoConfig cfg;
  cfg.incremental = true;
  cfg.threads = 4;
  analysis::StreamingDetector det(
      analysis::CausalGraph::Default(cfg.thresholds), cfg);

  std::vector<Time> window_order;
  std::vector<Time> chain_order;
  det.on_window = [&](const analysis::WindowResult& w) {
    window_order.push_back(w.begin);
  };
  det.on_chain = [&](const analysis::ChainInstance& c,
                     const analysis::WindowResult&) {
    chain_order.push_back(c.window_begin);
  };

  // One huge catch-up jump: the whole session in a single Advance, forcing
  // the multi-threaded batch path.
  const int n = det.Advance(trace, ds.end);
  ASSERT_GT(n, 8);  // actually fanned out over a large batch
  ASSERT_EQ(window_order.size(), static_cast<std::size_t>(n));
  for (std::size_t i = 1; i < window_order.size(); ++i) {
    EXPECT_LT(window_order[i - 1].micros(), window_order[i].micros());
  }
  for (std::size_t i = 1; i < chain_order.size(); ++i) {
    EXPECT_LE(chain_order[i - 1].micros(), chain_order[i].micros());
  }
}

}  // namespace
}  // namespace domino
