// Domino pipeline micro-benchmarks (google-benchmark): how fast the
// analysis runs relative to trace time — the basis for the paper's claim
// that operators can run it "on a continuous, near real-time basis" — plus
// ablations over window/step parameters and the DSL overhead.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include "bench_util.h"
#include "common/lease.h"
#include "domino/codegen.h"
#include "domino/config_parser.h"
#include "domino/detector.h"
#include "domino/ranking.h"
#include "domino/report.h"
#include "domino/streaming.h"
#include "domino/expr.h"
#include "domino/runtime/daemon.h"
#include "domino/runtime/fleet.h"
#include "domino/runtime/live.h"
#include "domino/runtime/shard.h"
#include "telemetry/binfmt.h"
#include "telemetry/fault_inject.h"
#include "telemetry/io.h"
#include "telemetry/sanitize.h"
#include "telemetry/tail.h"

using namespace domino;
using namespace domino::bench;

namespace {

/// One shared 60 s trace for all benchmarks (built once).
const telemetry::DerivedTrace& SharedTrace() {
  static const telemetry::DerivedTrace trace = [] {
    telemetry::SessionDataset ds = RunCall(sim::TMobileFdd15(), Seconds(60), 5);
    return telemetry::BuildDerivedTrace(ds);
  }();
  return trace;
}

void BM_BuildDerivedTrace(benchmark::State& state) {
  telemetry::SessionDataset ds = RunCall(sim::TMobileFdd15(), Seconds(60), 5);
  for (auto _ : state) {
    auto trace = telemetry::BuildDerivedTrace(ds);
    benchmark::DoNotOptimize(trace);
  }
}
BENCHMARK(BM_BuildDerivedTrace);

void BM_AnalyzeWindow(benchmark::State& state) {
  analysis::DominoConfig cfg;
  analysis::Detector detector(analysis::CausalGraph::Default(cfg.thresholds),
                              cfg);
  const auto& trace = SharedTrace();
  for (auto _ : state) {
    auto w = detector.AnalyzeWindow(trace, Time{0} + Seconds(30));
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_AnalyzeWindow);

/// Full-trace analysis; the counter reports the real-time speedup
/// (trace seconds analysed per wall-clock second). Args: step_ms x
/// incremental {0, 1} x fan-out threads {1, 2, 4}.
void BM_FullAnalysis(benchmark::State& state) {
  analysis::DominoConfig cfg;
  cfg.step = Millis(state.range(0));
  cfg.incremental = state.range(1) != 0;
  cfg.threads = static_cast<int>(state.range(2));
  analysis::Detector detector(analysis::CausalGraph::Default(cfg.thresholds),
                              cfg);
  const auto& trace = SharedTrace();
  double trace_s = (trace.end - trace.begin).seconds();
  for (auto _ : state) {
    auto r = detector.Analyze(trace);
    benchmark::DoNotOptimize(r);
  }
  state.counters["realtime_x"] = benchmark::Counter(
      trace_s * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
// Real time, not CPU time: the threads:{2,4} rows fan windows out to
// workers, whose work the main thread's CPU clock does not see.
BENCHMARK(BM_FullAnalysis)
    ->ArgNames({"step_ms", "inc", "threads"})
    ->ArgsProduct({{500, 250, 100}, {0, 1}, {1}})
    ->ArgsProduct({{100}, {1}, {2, 4}})
    ->UseRealTime();

void BM_FeatureVector(benchmark::State& state) {
  analysis::EventThresholds th;
  const auto& trace = SharedTrace();
  for (auto _ : state) {
    auto fv = analysis::ExtractFeatures(trace, Time{0} + Seconds(30),
                                        Time{0} + Seconds(35), th);
    benchmark::DoNotOptimize(fv);
  }
}
BENCHMARK(BM_FeatureVector);

void BM_DslParse(benchmark::State& state) {
  const std::string expr =
      "max(fwd.owd_ms) > 200 and trend_up(fwd.owd_ms) and "
      "frac_gt(fwd.app_bitrate, fwd.tbs_bitrate) > 0.1";
  for (auto _ : state) {
    auto e = analysis::ParseExpression(expr);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_DslParse);

void BM_DslEval(benchmark::State& state) {
  auto expr = analysis::ParseExpression(
      "max(fwd.owd_ms) > 200 and trend_up(fwd.owd_ms)");
  const auto& trace = SharedTrace();
  analysis::WindowContext ctx(trace, Time{0} + Seconds(30),
                              Time{0} + Seconds(35), 0);
  for (auto _ : state) {
    bool v = analysis::EvalCondition(*expr, ctx);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_DslEval);

/// The extended example config's percentile atom over the same window:
/// one p90 over ~5 s of per-slot TBS samples per evaluation.
void BM_DslEvalPercentile(benchmark::State& state) {
  auto expr = analysis::ParseExpression("p(fwd.tbs, 90) < 600");
  const auto& trace = SharedTrace();
  analysis::WindowContext ctx(trace, Time{0} + Seconds(30),
                              Time{0} + Seconds(35), 0);
  for (auto _ : state) {
    bool v = analysis::EvalCondition(*expr, ctx);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_DslEvalPercentile);

void BM_PythonCodegen(benchmark::State& state) {
  auto cfg = analysis::ParseConfigText(
      "event surge: max(fwd.owd_ms) > 200\n"
      "chain c: cross_traffic -> tbs_drop -> surge -> "
      "target_bitrate_drop\n");
  for (auto _ : state) {
    auto py = analysis::GeneratePython(cfg);
    benchmark::DoNotOptimize(py);
  }
}
BENCHMARK(BM_PythonCodegen);

/// Live-pipeline cost: one step-sized Advance at a time over the whole
/// trace, the shape an operator deployment actually runs. Args:
/// incremental {0, 1} x threads {1, 4} (threads only reach the catch-up
/// batches; steady-state streaming is inherently sequential).
void BM_StreamingAdvance(benchmark::State& state) {
  analysis::DominoConfig cfg;
  cfg.extract_features = false;
  cfg.incremental = state.range(0) != 0;
  cfg.threads = static_cast<int>(state.range(1));
  const auto& trace = SharedTrace();
  for (auto _ : state) {
    analysis::StreamingDetector stream(
        analysis::CausalGraph::Default(cfg.thresholds), cfg);
    int n = 0;
    for (Time now = trace.begin; now <= trace.end; now += cfg.step) {
      n += stream.Advance(trace, now);
    }
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_StreamingAdvance)
    ->ArgNames({"inc", "threads"})
    ->ArgsProduct({{0, 1}, {1}})
    ->Args({1, 4})
    ->UseRealTime();

void BM_RankAndReport(benchmark::State& state) {
  analysis::DominoConfig cfg;
  cfg.extract_features = false;
  analysis::Detector detector(analysis::CausalGraph::Default(cfg.thresholds),
                              cfg);
  auto result = detector.Analyze(SharedTrace());
  for (auto _ : state) {
    auto ranked = analysis::RankRootCauses(result, detector);
    auto report = analysis::BuildSummaryReport(result, detector);
    benchmark::DoNotOptimize(ranked);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_RankAndReport);

/// Ingest-hardening overhead: SanitizeDataset on a 60 s session. Arg is
/// the fault percentage — 0 measures the tax on a pristine capture (the
/// common case: one pass that finds nothing), 5 the acceptance mix of
/// drops/dups/reorders/time corruption the robustness suite uses.
void BM_Sanitize(benchmark::State& state) {
  telemetry::SessionDataset clean =
      RunCall(sim::TMobileFdd15(), Seconds(60), 5);
  telemetry::FaultSpec spec;
  if (state.range(0) > 0) {
    double rate = static_cast<double>(state.range(0)) / 100.0;
    spec.drop = rate;
    spec.duplicate = rate;
    spec.reorder = rate;
    spec.corrupt_time = rate / 5.0;
  }
  telemetry::SessionDataset faulted = clean;
  telemetry::InjectFaults(faulted, spec, 11);
  std::size_t rows = faulted.dci.size() + faulted.gnb_log.size() +
                     faulted.packets.size() + faulted.stats[0].size() +
                     faulted.stats[1].size();
  for (auto _ : state) {
    telemetry::SessionDataset ds = faulted;
    auto report = telemetry::SanitizeDataset(ds);
    benchmark::DoNotOptimize(report);
    benchmark::DoNotOptimize(ds);
  }
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(rows) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Sanitize)->ArgName("fault_pct")->Arg(0)->Arg(5);

/// On-disk copies of the shared 60 s session, written once: a CSV bundle
/// and its binary (telemetry.dtb) image, for the loader benchmarks.
struct LoadFixture {
  std::string csv_dir;
  std::string bin_dir;
};
const LoadFixture& SharedLoadFixture() {
  static const LoadFixture fx = [] {
    namespace fs = std::filesystem;
    LoadFixture f;
    f.csv_dir = (fs::temp_directory_path() / "domino_bench_load_csv").string();
    f.bin_dir = (fs::temp_directory_path() / "domino_bench_load_bin").string();
    telemetry::SessionDataset ds =
        RunCall(sim::TMobileFdd15(), Seconds(60), 5);
    telemetry::SaveDataset(ds, f.csv_dir);
    telemetry::SaveDatasetBinary(ds, f.bin_dir);
    return f;
  }();
  return fx;
}

void BM_LoadDatasetCsv(benchmark::State& state) {
  const LoadFixture& fx = SharedLoadFixture();
  for (auto _ : state) {
    auto ds = telemetry::LoadDataset(fx.csv_dir);
    benchmark::DoNotOptimize(ds);
  }
}
BENCHMARK(BM_LoadDatasetCsv)->Unit(benchmark::kMillisecond);

/// Same dataset through the binary fast path (mmap + column adoption);
/// LoadDataset auto-detects the .dtb. The CSV/binary ratio is the payoff
/// of the wire format.
void BM_LoadDatasetBinary(benchmark::State& state) {
  const LoadFixture& fx = SharedLoadFixture();
  for (auto _ : state) {
    auto ds = telemetry::LoadDataset(fx.bin_dir);
    benchmark::DoNotOptimize(ds);
  }
}
BENCHMARK(BM_LoadDatasetBinary);

/// One-shot conversion cost (what `domino convert` does): tolerant CSV
/// load plus serialize-and-write of the binary image.
void BM_ConvertCsvToBinary(benchmark::State& state) {
  namespace fs = std::filesystem;
  const LoadFixture& fx = SharedLoadFixture();
  const std::string out =
      (fs::temp_directory_path() / "domino_bench_convert").string();
  for (auto _ : state) {
    auto ds = telemetry::LoadDataset(fx.csv_dir);
    bool ok = telemetry::SaveDatasetBinary(ds, out);
    benchmark::DoNotOptimize(ok);
  }
  fs::remove_all(out);
}
BENCHMARK(BM_ConvertCsvToBinary)->Unit(benchmark::kMillisecond);

void BM_SimulateSecond(benchmark::State& state) {
  // Cost of generating one second of cross-layer telemetry.
  for (auto _ : state) {
    auto ds = RunCall(sim::Amarisoft(), Seconds(1), 9);
    benchmark::DoNotOptimize(ds);
  }
}
BENCHMARK(BM_SimulateSecond);

/// The full live pipeline — tail-read from disk, per-poll sanitize and
/// derive over the bounded analysis span, retention eviction, streaming
/// detection, checkpointing — over a 60 s capture, as `domino live` runs
/// it. trace_s_per_s says how many seconds of call the runtime chews
/// through per wall second; the paper's "continuous, near real-time" claim
/// needs this far above 1. The capture directory is per process, so two
/// concurrent runs never share it.
void BM_LivePipeline(benchmark::State& state) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("domino_bench_live-" + std::to_string(::getpid())))
          .string();
  {
    telemetry::SessionDataset ds = RunCall(sim::Amarisoft(), Seconds(60), 5);
    telemetry::SaveDataset(ds, dir);
  }
  runtime::LiveOptions opts;
  opts.quiet = true;
  opts.detector.extract_features = false;
  double trace_seconds = 0;
  for (auto _ : state) {
    fs::remove_all(dir + "/state");
    runtime::LiveRunner runner(
        dir, dir + "/state",
        analysis::CausalGraph::Default(opts.detector.thresholds), opts);
    runtime::LiveSummary sum = runner.Run();
    benchmark::DoNotOptimize(sum);
    trace_seconds += 60.0;
  }
  fs::remove_all(dir);
  state.counters["trace_s_per_s"] =
      benchmark::Counter(trace_seconds, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LivePipeline)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The live path's ingest stage alone: a fresh TailingDatasetReader reads
/// one 60 s CSV capture on `domino live`'s catch-up poll grid (2 s chunks,
/// 1 s reorder guard, so every poll holds one row back and re-reads it
/// next time), with no retention and no analysis. bytes_per_s is capture
/// bytes consumed per wall second.
void BM_TailPoll(benchmark::State& state) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("domino_bench_tail-" + std::to_string(::getpid())))
          .string();
  {
    telemetry::SessionDataset ds = RunCall(sim::Amarisoft(), Seconds(60), 5);
    telemetry::SaveDataset(ds, dir);
  }
  double bytes = 0;
  for (std::size_t i = 0; i < telemetry::kStreamCount; ++i) {
    bytes += static_cast<double>(fs::file_size(
        dir + "/" +
        telemetry::StreamFileName(static_cast<telemetry::StreamId>(i))));
  }
  std::size_t rows = 0;
  for (auto _ : state) {
    telemetry::TailingDatasetReader reader(dir);
    telemetry::SessionDataset ds;
    reader.PollMeta(ds);
    telemetry::TailLimits lim;
    lim.reorder_guard = Seconds(1.0);
    lim.max_jump = Seconds(60.0);
    for (long k = 1;; ++k) {
      lim.limit = ds.begin + Seconds(2.0) * k;
      bool all_eof = true;
      for (std::size_t i = 0; i < telemetry::kStreamCount; ++i) {
        const telemetry::TailProgress p =
            reader.Poll(static_cast<telemetry::StreamId>(i), ds, lim);
        rows += p.rows_ingested;
        all_eof = all_eof && p.eof;
      }
      if (all_eof && lim.limit > ds.end + lim.reorder_guard) break;
    }
    benchmark::DoNotOptimize(ds);
  }
  fs::remove_all(dir);
  state.counters["bytes_per_s"] = benchmark::Counter(
      bytes * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(rows), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TailPoll)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Fleet supervision overhead: 4 sessions over a 2-worker pool, as `domino
/// serve` runs them (admission control, outcome collection, report
/// aggregation — no faults injected). sessions_per_s is fleet throughput;
/// p99_latency_s is the slowest session's end-to-end supervised latency.
void BM_FleetThroughput(benchmark::State& state) {
  namespace fs = std::filesystem;
  constexpr int kSessions = 4;
  const std::string root =
      (fs::temp_directory_path() / "domino_bench_fleet").string();
  std::vector<runtime::SessionSpec> specs(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    const std::string dir = root + "/d" + std::to_string(i);
    telemetry::SaveDataset(
        RunCall(sim::Amarisoft(), Seconds(10), 40 + i), dir);
    specs[static_cast<std::size_t>(i)].dataset_dir = dir;
  }
  runtime::LiveOptions opts;
  opts.quiet = true;
  opts.detector.extract_features = false;
  runtime::FleetOptions fopts;
  fopts.workers = 2;
  fopts.global_backlog_windows = 256;
  double sessions = 0;
  double p99 = 0;
  for (auto _ : state) {
    for (int i = 0; i < kSessions; ++i) {
      specs[static_cast<std::size_t>(i)].state_dir =
          root + "/s" + std::to_string(i);
      fs::remove_all(specs[static_cast<std::size_t>(i)].state_dir);
    }
    runtime::FleetSupervisor sup(
        specs, analysis::CausalGraph::Default(opts.detector.thresholds),
        opts, fopts);
    runtime::FleetReport report = sup.Run();
    benchmark::DoNotOptimize(report);
    sessions += static_cast<double>(report.completed);
    p99 = runtime::LatencyPercentile(report.session_latency_s, 99);
  }
  fs::remove_all(root);
  state.counters["sessions_per_s"] =
      benchmark::Counter(sessions, benchmark::Counter::kIsRate);
  state.counters["p99_latency_s"] = benchmark::Counter(p99);
}
// Real time, not CPU time: the sessions run on pool workers, so the main
// thread's CPU clock sees almost none of the work.
BENCHMARK(BM_FleetThroughput)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Fleet-manifest serialisation cost: format + checksum + parse of a
/// manifest at the given fleet size. The daemon writes this document on
/// every drain and reads it on every restart, so it must stay cheap even
/// for large fleets; sessions_per_s is the roundtrip rate.
void BM_ManifestRoundtrip(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  runtime::FleetManifest m;
  m.workers = 8;
  m.max_attempts = 3;
  m.global_backlog_windows = 4096;
  m.isolate = runtime::IsolationMode::kProcess;
  m.sessions.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    runtime::ManifestEntry& e = m.sessions[static_cast<std::size_t>(i)];
    e.spec.dataset_dir = "/var/telemetry/cell " + std::to_string(i);
    e.spec.state_dir = "/var/fleet/state/s" + std::to_string(i);
    e.spec.tenant = "tenant " + std::to_string(i % 7);
    e.seed.attempts = 1 + i % 3;
    e.seed.terminal = i % 4 != 0;
    if (e.seed.terminal) {
      e.seed.outcome.ok = i % 8 != 3;
      e.seed.outcome.attempts = e.seed.attempts;
      e.seed.outcome.quarantined = !e.seed.outcome.ok;
      if (!e.seed.outcome.ok)
        e.seed.outcome.error = "live: checkpoint write failed (injected EIO)";
      e.seed.outcome.summary.windows = 40 + i;
      e.seed.outcome.summary.chains = i % 5;
      e.seed.outcome.checkpointed_to_us = 1'000'000LL * i;
    }
  }
  double sessions = 0;
  for (auto _ : state) {
    std::string doc = runtime::FormatFleetManifest(m);
    runtime::FleetManifest back;
    std::string error;
    if (!runtime::ParseFleetManifest(doc, &back, &error)) {
      state.SkipWithError(("manifest roundtrip failed: " + error).c_str());
      return;
    }
    benchmark::DoNotOptimize(back);
    sessions += static_cast<double>(n);
  }
  state.counters["sessions_per_s"] =
      benchmark::Counter(sessions, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ManifestRoundtrip)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

/// Lease protocol cost: one acquire (epoch mkdir + temp write + fsync +
/// link) plus release per iteration, on the local filesystem. This bounds
/// the per-session claiming overhead a sharded daemon adds to admission;
/// leases_per_s is the acquire/release rate.
void BM_LeaseAcquire(benchmark::State& state) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "domino_bench_lease").string();
  fs::remove_all(dir);
  LeaseFile lease(dir + "/s", "bench-box");
  std::int64_t now = 1'000'000;
  double acquired = 0;
  for (auto _ : state) {
    std::string err;
    if (lease.TryAcquire(now, 60'000, nullptr, &err) !=
        LeaseAcquire::kAcquired) {
      state.SkipWithError(("lease acquire failed: " + err).c_str());
      return;
    }
    lease.Release(&err);
    now += 10;
    acquired += 1;
  }
  fs::remove_all(dir);
  state.counters["leases_per_s"] =
      benchmark::Counter(acquired, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LeaseAcquire)->Unit(benchmark::kMicrosecond);

/// BM_FleetThroughput with the cross-box coordination layer on top: two
/// ShardCoordinators race to claim 4 sessions, each box runs what it won
/// through its own supervisor (fenced attempts), and every session is
/// published as a done marker. The delta against BM_FleetThroughput is the
/// end-to-end cost of sharding; sessions_per_s counts completed sessions.
void BM_ShardedFleetThroughput(benchmark::State& state) {
  namespace fs = std::filesystem;
  constexpr int kSessions = 4;
  const std::string root =
      (fs::temp_directory_path() / "domino_bench_shard").string();
  fs::remove_all(root);
  std::vector<std::string> datasets(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    datasets[static_cast<std::size_t>(i)] = root + "/d" + std::to_string(i);
    telemetry::SaveDataset(RunCall(sim::Amarisoft(), Seconds(10), 40 + i),
                           datasets[static_cast<std::size_t>(i)]);
  }
  runtime::LiveOptions opts;
  opts.quiet = true;
  opts.detector.extract_features = false;
  double sessions = 0;
  int round = 0;
  for (auto _ : state) {
    // A fresh state root per iteration: claims and done markers are
    // durable, so reusing one would measure the kDone short-circuit.
    const std::string sroot = root + "/r" + std::to_string(round++);
    fs::create_directories(sroot);
    std::vector<std::unique_ptr<runtime::ShardCoordinator>> boxes;
    for (const char* owner : {"boxa", "boxb"}) {
      runtime::ShardOptions so;
      so.state_root = sroot;
      so.owner = owner;
      boxes.push_back(std::make_unique<runtime::ShardCoordinator>(so));
    }
    for (auto& box : boxes) {
      std::vector<runtime::SessionSpec> mine;
      for (const std::string& ds : datasets) {
        std::string err;
        if (box->TryClaim(ds, &err) != runtime::ClaimResult::kClaimed) {
          continue;
        }
        runtime::SessionSpec spec;
        spec.dataset_dir = ds;
        spec.state_dir = runtime::SessionStateDirFor(sroot, ds);
        mine.push_back(std::move(spec));
      }
      if (mine.empty()) continue;
      runtime::FleetOptions fopts;
      fopts.workers = 2;
      fopts.global_backlog_windows = 256;
      fopts.shard_binding = [&box](const std::string& ds,
                                   std::string* lease_dir,
                                   std::uint64_t* token) {
        if (!box->Held(ds)) return false;
        *lease_dir = box->LeaseDirFor(ds);
        *token = box->TokenFor(ds);
        return true;
      };
      runtime::FleetSupervisor sup(
          mine, analysis::CausalGraph::Default(opts.detector.thresholds),
          opts, fopts);
      runtime::FleetReport report = sup.Run();
      for (std::size_t i = 0; i < mine.size(); ++i) {
        const runtime::SessionOutcome& o = report.outcomes[i];
        if (!o.ok) continue;
        runtime::ShardDoneRecord rec;
        rec.status = 1;
        rec.attempts = o.attempts;
        rec.windows = o.summary.windows;
        rec.chains = o.summary.chains;
        std::string err;
        box->MarkDone(mine[i].dataset_dir, rec, &err);
      }
      sessions += static_cast<double>(report.completed);
    }
  }
  fs::remove_all(root);
  state.counters["sessions_per_s"] =
      benchmark::Counter(sessions, benchmark::Counter::kIsRate);
}
// Real time for the same reason as BM_FleetThroughput.
BENCHMARK(BM_ShardedFleetThroughput)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
