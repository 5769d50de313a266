// Robustness tests: hostile inputs to the DSL parser, the config parser,
// the CSV readers, and the full analysis pipeline must never crash, hang,
// or silently mis-parse. CSV ingestion is *tolerant*: malformed rows become
// typed diagnostics while good rows are kept. The fault-injection matrix at
// the bottom drives corrupted datasets end to end (inject -> sanitize ->
// derive -> detect) and asserts determinism plus naive/incremental parity.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#if !defined(_WIN32)
#include <sys/wait.h>
#endif

#include "common/diskfault.h"
#include "common/lease.h"
#include "common/rng.h"
#include "domino/config_parser.h"
#include "domino/detector.h"
#include "domino/expr.h"
#include "domino/report.h"
#include "domino/runtime/daemon.h"
#include "domino/runtime/fleet.h"
#include "domino/runtime/live.h"
#include "domino/runtime/shard.h"
#include "domino/streaming.h"
#include "sim/call_session.h"
#include "sim/cell_config.h"
#include "telemetry/fault_inject.h"
#include "telemetry/io.h"
#include "telemetry/sanitize.h"
#include "test_scratch.h"

namespace domino {
namespace {

// --- DSL parser fuzz -------------------------------------------------------------

class DslFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DslFuzzTest, RandomTokenSoupNeverCrashes) {
  Rng rng(GetParam());
  const char* tokens[] = {"min",  "(",    ")",   "fwd", ".",  "owd_ms",
                          "and",  "or",   "not", ">",   "<",  "==",
                          "+",    "-",    "*",   "/",   ",",  "1.5",
                          "42",   "p",    "ul",  "mcs", ">=", "frac_gt",
                          "1e9",  "bogus"};
  for (int trial = 0; trial < 400; ++trial) {
    std::string src;
    int n = static_cast<int>(rng.UniformInt(1, 14));
    for (int i = 0; i < n; ++i) {
      src += tokens[rng.UniformInt(0, std::size(tokens) - 1)];
      src += ' ';
    }
    try {
      auto e = analysis::ParseExpression(src);
      ASSERT_NE(e, nullptr);  // if it parsed, it must be usable
    } catch (const analysis::DslError&) {
      // expected for most soups
    }
  }
}

TEST_P(DslFuzzTest, RandomBytesNeverCrash) {
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 300; ++trial) {
    std::string src;
    int n = static_cast<int>(rng.UniformInt(0, 40));
    for (int i = 0; i < n; ++i) {
      src += static_cast<char>(rng.UniformInt(32, 126));
    }
    try {
      analysis::ParseExpression(src);
    } catch (const analysis::DslError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DslFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 5));

TEST(ConfigFuzzTest, RandomLinesOnlyThrowDslError) {
  Rng rng(9);
  const char* fragments[] = {"event",  "chain", "x:",    "->", "a",
                             "max(",   ")",     "fwd.",  "#",  ":",
                             "owd_ms", "1 > 0", "@rev"};
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    int lines = static_cast<int>(rng.UniformInt(1, 5));
    for (int l = 0; l < lines; ++l) {
      int n = static_cast<int>(rng.UniformInt(1, 7));
      for (int i = 0; i < n; ++i) {
        text += fragments[rng.UniformInt(0, std::size(fragments) - 1)];
        text += ' ';
      }
      text += '\n';
    }
    try {
      analysis::ParseConfigText(text);
    } catch (const analysis::DslError&) {
    }
  }
}

// --- CSV readers (tolerant) ------------------------------------------------------

TEST(CsvRobustnessTest, TruncatedRowDroppedGoodRowsKept) {
  std::istringstream is(
      "time_us,rnti,dir,prbs,mcs,tbs_bytes,is_retx,harq_process,attempt\n"
      "1000,17,UL,5,10,100,0,0,0\n"
      "2000,17\n"
      "3000,17,UL,5,10,100,0,0,0\n");
  telemetry::ReadStats stats;
  auto rows = telemetry::ReadDciCsv(is, &stats);
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(stats.rows_total, 3u);
  EXPECT_EQ(stats.rows_kept, 2u);
  EXPECT_EQ(stats.rows_dropped, 1u);
  ASSERT_EQ(stats.errors.size(), 1u);
  EXPECT_EQ(stats.errors[0].kind,
            telemetry::TelemetryErrorKind::kTruncatedRow);
  EXPECT_EQ(stats.errors[0].row, 3u);  // 1-based; the header is row 1.
  EXPECT_FALSE(stats.ok());
}

TEST(CsvRobustnessTest, NonNumericFieldDroppedWithDiagnostic) {
  std::istringstream is(
      "time_us,rnti,dir,prbs,mcs,tbs_bytes,is_retx,harq_process,attempt\n"
      "abc,1,UL,1,1,1,0,0,0\n"
      "2000,17,DL,5,10,100,0,0,0\n");
  telemetry::ReadStats stats;
  auto rows = telemetry::ReadDciCsv(is, &stats);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].rnti, 17u);
  EXPECT_EQ(stats.rows_dropped, 1u);
  ASSERT_EQ(stats.errors.size(), 1u);
  EXPECT_EQ(stats.errors[0].kind, telemetry::TelemetryErrorKind::kBadField);
}

TEST(CsvRobustnessTest, EmptyStreamReportedNotThrown) {
  std::istringstream is("");
  telemetry::ReadStats stats;
  EXPECT_TRUE(telemetry::ReadDciCsv(is, &stats).empty());
  ASSERT_EQ(stats.errors.size(), 1u);
  EXPECT_EQ(stats.errors[0].kind,
            telemetry::TelemetryErrorKind::kEmptyStream);
}

TEST(CsvRobustnessTest, NullStatsStillTolerant) {
  std::istringstream is("h\ngarbage\n\"unterminated,1\n");
  EXPECT_NO_THROW({ EXPECT_TRUE(telemetry::ReadDciCsv(is).empty()); });
}

TEST(CsvRobustnessTest, HeaderOnlyIsEmptyDataset) {
  std::istringstream is(
      "time_us,rnti,dir,prbs,mcs,tbs_bytes,is_retx,harq_process,attempt\n");
  telemetry::ReadStats stats;
  EXPECT_TRUE(telemetry::ReadDciCsv(is, &stats).empty());
  EXPECT_TRUE(stats.ok());
}

TEST(CsvRobustnessTest, DiagnosticsCappedButCountsExact) {
  std::ostringstream src;
  src << "header\n";
  for (int i = 0; i < 200; ++i) src << "bad,row\n";
  std::istringstream is(src.str());
  telemetry::ReadStats stats;
  EXPECT_TRUE(telemetry::ReadPacketCsv(is, &stats).empty());
  EXPECT_EQ(stats.rows_dropped, 200u);
  EXPECT_EQ(stats.errors.size(), telemetry::ReadStats::kMaxRecorded);
}

TEST(CsvRobustnessTest, RandomByteSoupNeverThrows) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    std::string src = "h1,h2,h3\n";
    int n = static_cast<int>(rng.UniformInt(0, 400));
    for (int i = 0; i < n; ++i) {
      src += static_cast<char>(rng.UniformInt(1, 255));
    }
    std::istringstream d(src), p(src), s(src), g(src);
    EXPECT_NO_THROW(telemetry::ReadDciCsv(d));
    EXPECT_NO_THROW(telemetry::ReadPacketCsv(p));
    EXPECT_NO_THROW(telemetry::ReadStatsCsv(s));
    EXPECT_NO_THROW(telemetry::ReadGnbLogCsv(g));
  }
}

// --- Fault-injection matrix ------------------------------------------------------
//
// Every fault class (and a kitchen-sink mix), across seeds: the corrupted
// dataset must sanitize without throwing, derive into a trace, and analyse
// identically on the naive and incremental engines — and the whole chain
// must be deterministic in (spec, seed).

telemetry::SessionDataset FaultSession(std::uint64_t seed) {
  sim::SessionConfig cfg;
  cfg.profile = sim::Amarisoft();  // private cell: all five streams live
  cfg.duration = Seconds(20);
  cfg.seed = seed;
  sim::CallSession session(cfg);
  return session.Run();
}

struct FaultCase {
  const char* name;
  telemetry::FaultSpec spec;
  /// Whether the sanitizer can even see this fault class. Uniform drops on
  /// a dense stream leave no duplicate/reorder marks and no gap above the
  /// threshold — they are invisible without ground-truth record counts.
  bool detectable = true;
};

std::vector<FaultCase> FaultMatrix() {
  std::vector<FaultCase> cases;
  {
    telemetry::FaultSpec s;
    s.drop = 0.05;
    cases.push_back({"drop", s, /*detectable=*/false});
  }
  {
    telemetry::FaultSpec s;
    s.duplicate = 0.05;
    cases.push_back({"duplicate", s});
  }
  {
    telemetry::FaultSpec s;
    s.reorder = 0.05;
    cases.push_back({"reorder", s});
  }
  {
    telemetry::FaultSpec s;
    s.corrupt_time = 0.01;
    cases.push_back({"corrupt_time", s});
  }
  {
    telemetry::FaultSpec s;
    s.truncate_tail = 0.2;
    cases.push_back({"truncate", s});
  }
  {
    telemetry::FaultSpec s;
    s.gap = Seconds(4);
    cases.push_back({"gap", s});
  }
  {
    telemetry::FaultSpec s;
    s.skew_ms = 40;
    s.drift_ppm = 50;
    cases.push_back({"skew_drift", s});
  }
  {
    telemetry::FaultSpec s;  // the acceptance mix: 5% of everything
    s.drop = 0.05;
    s.duplicate = 0.05;
    s.reorder = 0.05;
    s.corrupt_time = 0.01;
    s.gap = Seconds(3);
    s.skew_ms = 20;
    cases.push_back({"kitchen_sink", s});
  }
  return cases;
}

/// Injects, sanitizes, and analyses one corrupted copy of `clean`;
/// returns the flat chain list.
std::vector<analysis::ChainInstance> RunFaulted(
    const telemetry::SessionDataset& clean, const telemetry::FaultSpec& spec,
    std::uint64_t seed, bool incremental,
    telemetry::SanitizeReport* health_out = nullptr) {
  telemetry::SessionDataset ds = clean;
  telemetry::InjectFaults(ds, spec, seed);
  telemetry::SanitizeReport health = telemetry::SanitizeDataset(ds);
  if (health_out != nullptr) *health_out = health;
  telemetry::DerivedTrace trace = telemetry::BuildDerivedTrace(ds);
  trace.quality = health.quality();
  analysis::DominoConfig cfg;
  cfg.incremental = incremental;
  analysis::Detector det(analysis::CausalGraph::Default(cfg.thresholds),
                         cfg);
  return det.Analyze(trace).AllChains();
}

class FaultMatrixTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FaultMatrixTest, SanitizedAnalysisIsDeterministicAndEngineAgnostic) {
  const FaultCase fc = FaultMatrix()[GetParam()];
  telemetry::SessionDataset clean = FaultSession(5);
  for (std::uint64_t seed : {1ull, 2ull}) {
    telemetry::SanitizeReport health;
    auto naive = RunFaulted(clean, fc.spec, seed, /*incremental=*/false,
                            &health);
    auto incremental = RunFaulted(clean, fc.spec, seed,
                                  /*incremental=*/true);
    auto replay = RunFaulted(clean, fc.spec, seed, /*incremental=*/false);

    // Injection left a mark wherever the fault class is observable.
    if (fc.detectable) {
      EXPECT_FALSE(health.clean()) << fc.name;
    }

    // Naive == incremental, field by field, confidence included.
    ASSERT_EQ(naive.size(), incremental.size()) << fc.name;
    ASSERT_EQ(naive.size(), replay.size()) << fc.name;
    for (std::size_t i = 0; i < naive.size(); ++i) {
      EXPECT_EQ(naive[i].window_begin.micros(),
                incremental[i].window_begin.micros());
      EXPECT_EQ(naive[i].sender_client, incremental[i].sender_client);
      EXPECT_EQ(naive[i].chain_index, incremental[i].chain_index);
      EXPECT_DOUBLE_EQ(naive[i].confidence, incremental[i].confidence);
      // Determinism of the whole inject->sanitize->analyse chain.
      EXPECT_EQ(naive[i].window_begin.micros(),
                replay[i].window_begin.micros());
      EXPECT_EQ(naive[i].chain_index, replay[i].chain_index);
      EXPECT_DOUBLE_EQ(naive[i].confidence, replay[i].confidence);
    }
  }
}

std::string FaultCaseName(const ::testing::TestParamInfo<std::size_t>& info) {
  return FaultMatrix()[info.param].name;
}

INSTANTIATE_TEST_SUITE_P(AllFaults, FaultMatrixTest,
                         ::testing::Range<std::size_t>(0, 8),
                         FaultCaseName);

TEST(FaultPipelineTest, GapDowngradesChainsToInsufficientEvidence) {
  telemetry::SessionDataset clean = FaultSession(5);
  telemetry::FaultSpec spec;
  spec.gap = Seconds(6);
  telemetry::SessionDataset ds = clean;
  telemetry::InjectFaults(ds, spec, 3);
  telemetry::SanitizeReport health = telemetry::SanitizeDataset(ds);
  telemetry::DerivedTrace trace = telemetry::BuildDerivedTrace(ds);
  trace.quality = health.quality();

  analysis::DominoConfig cfg;
  analysis::Detector det(analysis::CausalGraph::Default(cfg.thresholds),
                         cfg);
  analysis::AnalysisResult result = det.Analyze(trace);

  std::size_t low = 0;
  for (const auto& ci : result.AllChains()) {
    EXPECT_GE(ci.confidence, 0.0);
    EXPECT_LE(ci.confidence, 1.0);
    if (ci.confidence < cfg.min_coverage) ++low;
  }
  ASSERT_GT(low, 0u) << "a 6 s gap must degrade some windows";

  std::string report = analysis::BuildSummaryReport(result, det, &health);
  EXPECT_NE(report.find("insufficient evidence"), std::string::npos);
  EXPECT_NE(report.find("Data quality"), std::string::npos);

  std::string json = analysis::BuildReportJson(result, det, &health);
  EXPECT_NE(json.find("\"sufficient\": false"), std::string::npos);
  EXPECT_NE(json.find("\"insufficient_windows\""), std::string::npos);
}

TEST(FaultPipelineTest, StreamingMatchesBatchOnGappedInput) {
  telemetry::SessionDataset ds = FaultSession(6);
  telemetry::FaultSpec spec;
  spec.gap = Seconds(6);
  spec.drop = 0.05;
  telemetry::InjectFaults(ds, spec, 4);
  telemetry::SanitizeReport health = telemetry::SanitizeDataset(ds);
  telemetry::DerivedTrace trace = telemetry::BuildDerivedTrace(ds);
  trace.quality = health.quality();

  analysis::DominoConfig cfg;
  analysis::Detector det(analysis::CausalGraph::Default(cfg.thresholds),
                         cfg);
  analysis::AnalysisResult batch = det.Analyze(trace);
  auto batch_chains = batch.AllChains();
  long batch_insufficient = 0;
  for (const auto& ci : batch_chains) {
    if (ci.confidence < cfg.min_coverage) ++batch_insufficient;
  }

  analysis::StreamingDetector sd(analysis::CausalGraph::Default(
                                     cfg.thresholds),
                                 cfg);
  // Drip-feed in 2 s steps, then flush.
  for (Time now = trace.begin; now <= trace.end; now += Seconds(2.0)) {
    sd.Advance(trace, now);
  }
  sd.Advance(trace, trace.end);

  EXPECT_EQ(sd.chains_detected(),
            static_cast<long>(batch_chains.size()));
  EXPECT_EQ(sd.insufficient_chains(), batch_insufficient);
}

TEST(FaultInjectTest, DefaultSeedIsDeterministicAcrossRuns) {
  // `domino ingest --inject` without --seed falls back to seed 1; two runs
  // of that default path must corrupt the dataset identically, or fixtures
  // built without an explicit seed silently stop reproducing.
  const telemetry::SessionDataset clean = FaultSession(8);
  telemetry::FaultSpec spec;
  spec.drop = 0.05;
  spec.duplicate = 0.02;
  spec.reorder = 0.05;
  spec.corrupt_time = 0.01;

  telemetry::SessionDataset a = clean;
  telemetry::SessionDataset b = clean;
  const telemetry::FaultSummary sa =
      telemetry::InjectFaults(a, spec, /*seed=*/1);  // the CLI default
  const telemetry::FaultSummary sb = telemetry::InjectFaults(b, spec, 1);

  EXPECT_GT(sa.total(), 0u);
  EXPECT_EQ(sa.total(), sb.total());
  ASSERT_EQ(a.dci.size(), b.dci.size());
  for (std::size_t i = 0; i < a.dci.size(); ++i) {
    ASSERT_EQ(a.dci[i].time.micros(), b.dci[i].time.micros());
  }
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    ASSERT_EQ(a.packets[i].sent.micros(), b.packets[i].sent.micros());
    ASSERT_EQ(a.packets[i].id, b.packets[i].id);
    ASSERT_EQ(a.packets[i].received.micros(), b.packets[i].received.micros());
  }
  ASSERT_EQ(a.gnb_log.size(), b.gnb_log.size());
  for (std::size_t i = 0; i < a.gnb_log.size(); ++i) {
    ASSERT_EQ(a.gnb_log[i].time.micros(), b.gnb_log[i].time.micros());
  }
  for (int c : {telemetry::kUeClient, telemetry::kRemoteClient}) {
    ASSERT_EQ(a.stats[c].size(), b.stats[c].size());
    for (std::size_t i = 0; i < a.stats[c].size(); ++i) {
      ASSERT_EQ(a.stats[c][i].time.micros(), b.stats[c][i].time.micros());
    }
  }
}

TEST(FaultPipelineTest, CleanTraceReportsAreByteIdenticalWithHealth) {
  telemetry::SessionDataset ds = FaultSession(7);
  telemetry::SanitizeReport health = telemetry::SanitizeDataset(ds);
  EXPECT_TRUE(health.clean());
  telemetry::DerivedTrace trace = telemetry::BuildDerivedTrace(ds);

  analysis::DominoConfig cfg;
  analysis::Detector det(analysis::CausalGraph::Default(cfg.thresholds),
                         cfg);
  // Legacy path: no quality annotations, two-argument report.
  analysis::AnalysisResult bare = det.Analyze(trace);
  std::string legacy = analysis::BuildSummaryReport(bare, det);

  // Sanitized path: quality attached, health-aware report.
  trace.quality = health.quality();
  analysis::AnalysisResult annotated = det.Analyze(trace);
  std::string with_health =
      analysis::BuildSummaryReport(annotated, det, &health);

  EXPECT_EQ(legacy, with_health);
  for (const auto& ci : annotated.AllChains()) {
    EXPECT_DOUBLE_EQ(ci.confidence, 1.0);
  }
}

// --- Fleet-supervisor fault matrix -----------------------------------------------
//
// The fault matrix extended to the supervision layer: N sessions where one
// is poisoned (unreadable meta), one fails mid-run, one wedges, one sits
// behind a corrupt checkpoint or a truncated CSV. The healthy majority must
// always finish, recoverable faults must be retried to byte-identical
// success from their checkpoints, the unrecoverable one must be quarantined
// with the right attempt count — and all of it deterministically across
// runs (asserted via the wall-clock-free JSON FleetReport).

namespace fs = std::filesystem;

/// Fresh scratch directory under this process's own root (test_scratch.h),
/// so parallel test processes never share or remove each other's dirs.
std::string FleetTempDir(const std::string& name) {
  return testing_scratch::FreshDir("fleet_" + name);
}

std::string FleetSlurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// One shared 10 s private-cell dataset on disk; sessions share it
/// read-only and differ only in state dirs and fault schedule.
const std::string& FleetDatasetDir() {
  static const std::string dir = [] {
    sim::SessionConfig cfg;
    cfg.profile = sim::Amarisoft();
    cfg.duration = Seconds(10);
    cfg.seed = 13;
    const telemetry::SessionDataset ds = sim::CallSession(cfg).Run();
    return testing_scratch::PublishFixture(
        "fleet_shared_ds",
        [&](const std::string& d) { telemetry::SaveDataset(ds, d); });
  }();
  return dir;
}

std::string MakePoisonDir(const std::string& scratch) {
  const std::string dir = scratch + "/poison";
  fs::create_directories(dir);
  std::ofstream(dir + "/meta.csv") << "cell_name,is_private,begin_us,end_us\n";
  return dir;
}

runtime::LiveOptions FleetLiveOpts() {
  runtime::LiveOptions opts;
  opts.quiet = true;
  opts.checkpoint_every_windows = 2;  // checkpoints early enough to resume
  return opts;
}

runtime::FleetOptions QuietFleet() {
  runtime::FleetOptions fopts;
  fopts.quiet = true;
  fopts.backoff_ms = 5;
  fopts.backoff_cap_ms = 20;
  return fopts;
}

runtime::FleetReport RunFleet(const std::vector<runtime::SessionSpec>& specs,
                              const runtime::LiveOptions& live,
                              const runtime::FleetOptions& fopts) {
  runtime::FleetSupervisor sup(
      specs, analysis::CausalGraph::Default(live.detector.thresholds), live,
      fopts);
  return sup.Run();
}

TEST(FleetSupervisorTest, BackoffDelayIsCappedExponential) {
  EXPECT_EQ(runtime::BackoffDelayMs(1, 200, 5000), 0);  // first attempt
  EXPECT_EQ(runtime::BackoffDelayMs(2, 200, 5000), 200);
  EXPECT_EQ(runtime::BackoffDelayMs(3, 200, 5000), 400);
  EXPECT_EQ(runtime::BackoffDelayMs(4, 200, 5000), 800);
  EXPECT_EQ(runtime::BackoffDelayMs(7, 200, 5000), 5000);  // capped
  EXPECT_EQ(runtime::BackoffDelayMs(60, 200, 5000), 5000);
  EXPECT_EQ(runtime::BackoffDelayMs(3, 0, 5000), 0);  // backoff disabled
  // No overflow however deep the attempt count goes uncapped.
  EXPECT_GT(runtime::BackoffDelayMs(500, 1000, 0), 0);
}

TEST(FleetSupervisorTest, EffectiveBacklogPicksSmallestShare) {
  // Session budget alone.
  EXPECT_EQ(runtime::EffectiveBacklogWindows(64, 0, 4, 0, 1), 64);
  // Global budget divided over the workers.
  EXPECT_EQ(runtime::EffectiveBacklogWindows(0, 64, 4, 0, 1), 16);
  // Tenant budget divided over the tenant's sessions.
  EXPECT_EQ(runtime::EffectiveBacklogWindows(0, 0, 4, 30, 3), 10);
  // Smallest non-zero share wins.
  EXPECT_EQ(runtime::EffectiveBacklogWindows(64, 40, 4, 30, 3), 10);
  EXPECT_EQ(runtime::EffectiveBacklogWindows(8, 40, 4, 30, 3), 8);
  // All unlimited -> unlimited; shares never round down to zero.
  EXPECT_EQ(runtime::EffectiveBacklogWindows(0, 0, 4, 0, 1), 0);
  EXPECT_EQ(runtime::EffectiveBacklogWindows(0, 3, 8, 0, 1), 1);
}

TEST(FleetSupervisorTest, LatencyPercentileUsesNearestRank) {
  EXPECT_DOUBLE_EQ(runtime::LatencyPercentile({}, 99), 0.0);
  EXPECT_DOUBLE_EQ(runtime::LatencyPercentile({5.0}, 50), 5.0);
  std::vector<double> s = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(runtime::LatencyPercentile(s, 50), 2.0);
  EXPECT_DOUBLE_EQ(runtime::LatencyPercentile(s, 99), 4.0);
  EXPECT_DOUBLE_EQ(runtime::LatencyPercentile(s, 0), 1.0);
}

TEST(FleetSupervisorTest, BudgetsThreadThroughSessionOptions) {
  const std::string scratch = FleetTempDir("budgets");
  std::vector<runtime::SessionSpec> specs(3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].dataset_dir = FleetDatasetDir();
    specs[i].state_dir = scratch + "/s" + std::to_string(i);
  }
  specs[0].tenant = "a";
  specs[1].tenant = "a";
  specs[2].tenant = "b";

  runtime::FleetOptions fopts = QuietFleet();
  fopts.workers = 2;
  fopts.global_backlog_windows = 100;
  fopts.tenants["a"].backlog_windows = 20;
  fopts.tenants["b"].input.max_records = 777;
  fopts.tenants["b"].has_input = true;
  fopts.chaos.resize(3);
  fopts.chaos[2].crash_after = 1;  // thread mode: must degrade to fail

  runtime::FleetSupervisor sup(
      specs, analysis::CausalGraph::Default({}), FleetLiveOpts(), fopts);
  // Tenant "a": min(global 100/2 workers = 50, tenant 20/2 sessions = 10).
  EXPECT_EQ(sup.session_options(0).max_backlog_windows, 10);
  EXPECT_EQ(sup.session_options(1).max_backlog_windows, 10);
  // Tenant "b": only the global share applies; InputLimits overridden.
  EXPECT_EQ(sup.session_options(2).max_backlog_windows, 50);
  EXPECT_EQ(sup.session_options(2).input.max_records, 777u);
  EXPECT_EQ(sup.session_options(0).input.max_records,
            InputLimits{}.max_records);
  // Thread isolation rewrites the crash hook into the fail hook.
  EXPECT_EQ(sup.session_options(2).chaos_crash_after, 0);
  EXPECT_EQ(sup.session_options(2).chaos_fail_after, 1);
}

TEST(FleetSupervisorTest, PoisonedSessionQuarantinedOthersFinish) {
  const std::string scratch = FleetTempDir("poison_quarantine");
  const std::string poison = MakePoisonDir(scratch);

  auto build_specs = [&](const std::string& round) {
    std::vector<runtime::SessionSpec> specs(4);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].dataset_dir = i == 2 ? poison : FleetDatasetDir();
      specs[i].state_dir =
          scratch + "/" + round + "_s" + std::to_string(i);
    }
    return specs;
  };
  runtime::FleetOptions fopts = QuietFleet();
  fopts.workers = 2;
  fopts.max_attempts = 3;

  runtime::FleetReport a = RunFleet(build_specs("a"), FleetLiveOpts(), fopts);
  runtime::FleetReport b = RunFleet(build_specs("b"), FleetLiveOpts(), fopts);

  ASSERT_EQ(a.outcomes.size(), 4u);
  EXPECT_EQ(a.completed, 3);
  EXPECT_EQ(a.quarantined, 1);
  EXPECT_EQ(a.recovered, 0);
  for (std::size_t i : {0u, 1u, 3u}) {
    EXPECT_TRUE(a.outcomes[i].ok) << i << ": " << a.outcomes[i].error;
    EXPECT_EQ(a.outcomes[i].attempts, 1);
    EXPECT_GT(a.outcomes[i].summary.windows, 0);
  }
  const runtime::SessionOutcome& q = a.outcomes[2];
  EXPECT_FALSE(q.ok);
  EXPECT_TRUE(q.quarantined);
  EXPECT_EQ(q.attempts, 3);  // the full budget, recorded
  EXPECT_NE(q.error.find("meta.csv"), std::string::npos) << q.error;
  EXPECT_FALSE(q.has_partial);  // never reached a checkpoint

  // Outcome determinism across runs: the wall-clock-free JSON reports
  // differ only in the state-scoped dataset paths (none here: sessions
  // share the dataset dirs), so they must match byte for byte.
  EXPECT_EQ(runtime::BuildFleetReportJson(a),
            runtime::BuildFleetReportJson(b));
}

TEST(FleetSupervisorTest, InjectedFailureRetriedToByteIdenticalSuccess) {
  const std::string scratch = FleetTempDir("retry_recovers");
  std::vector<runtime::SessionSpec> specs(2);
  specs[0].dataset_dir = FleetDatasetDir();
  specs[0].state_dir = scratch + "/victim";
  specs[1].dataset_dir = FleetDatasetDir();
  specs[1].state_dir = scratch + "/twin";

  runtime::FleetOptions fopts = QuietFleet();
  fopts.workers = 2;
  fopts.max_attempts = 3;
  fopts.chaos.resize(2);
  fopts.chaos[0].fail_after = 1;  // die right after the first checkpoint

  runtime::FleetReport r = RunFleet(specs, FleetLiveOpts(), fopts);
  ASSERT_EQ(r.outcomes.size(), 2u);
  EXPECT_TRUE(r.outcomes[0].ok) << r.outcomes[0].error;
  EXPECT_EQ(r.outcomes[0].attempts, 2);  // one failure, one clean resume
  EXPECT_TRUE(r.outcomes[0].summary.resumed);
  EXPECT_TRUE(r.outcomes[1].ok);
  EXPECT_EQ(r.outcomes[1].attempts, 1);
  EXPECT_EQ(r.recovered, 1);

  // The PR-4 guarantee carried up the stack: a retried session's output is
  // byte-identical to an undisturbed session over the same data.
  EXPECT_EQ(FleetSlurp(scratch + "/victim/chains.jsonl"),
            FleetSlurp(scratch + "/twin/chains.jsonl"));
  EXPECT_EQ(FleetSlurp(scratch + "/victim/live_report.json"),
            FleetSlurp(scratch + "/twin/live_report.json"));
}

TEST(FleetSupervisorTest, WedgedSessionCancelledByDeadlineThenRecovers) {
  const std::string scratch = FleetTempDir("wedge_deadline");
  std::vector<runtime::SessionSpec> specs(2);
  specs[0].dataset_dir = FleetDatasetDir();
  specs[0].state_dir = scratch + "/wedged";
  specs[1].dataset_dir = FleetDatasetDir();
  specs[1].state_dir = scratch + "/healthy";

  runtime::FleetOptions fopts = QuietFleet();
  fopts.workers = 2;
  fopts.max_attempts = 3;
  fopts.session_deadline_s = 1.5;  // trace-time watchdog can't see a wedge
  fopts.chaos.resize(2);
  fopts.chaos[0].wedge_after = 1;

  runtime::FleetReport r = RunFleet(specs, FleetLiveOpts(), fopts);
  ASSERT_EQ(r.outcomes.size(), 2u);
  const runtime::SessionOutcome& w = r.outcomes[0];
  EXPECT_TRUE(w.ok) << w.error;
  EXPECT_EQ(w.attempts, 2);
  EXPECT_TRUE(w.deadline_exceeded);
  EXPECT_TRUE(r.outcomes[1].ok);
  EXPECT_FALSE(r.outcomes[1].deadline_exceeded);

  EXPECT_EQ(FleetSlurp(scratch + "/wedged/chains.jsonl"),
            FleetSlurp(scratch + "/healthy/chains.jsonl"));
}

TEST(FleetSupervisorTest, QuarantinedSessionCarriesPartialProgress) {
  const std::string scratch = FleetTempDir("partial_progress");
  std::vector<runtime::SessionSpec> specs(1);
  specs[0].dataset_dir = FleetDatasetDir();
  specs[0].state_dir = scratch + "/s0";

  // One attempt only: the first post-checkpoint failure is terminal, so the
  // outcome must surface how far the session got before dying.
  runtime::FleetOptions fopts = QuietFleet();
  fopts.workers = 1;
  fopts.max_attempts = 1;
  fopts.chaos.resize(1);
  fopts.chaos[0].fail_after = 2;

  runtime::FleetReport r = RunFleet(specs, FleetLiveOpts(), fopts);
  ASSERT_EQ(r.outcomes.size(), 1u);
  const runtime::SessionOutcome& o = r.outcomes[0];
  EXPECT_FALSE(o.ok);
  EXPECT_TRUE(o.quarantined);
  EXPECT_EQ(o.attempts, 1);
  EXPECT_FALSE(o.error.empty());
  ASSERT_TRUE(o.has_partial);
  EXPECT_GT(o.summary.windows, 0);
  EXPECT_EQ(o.summary.checkpoints, 2);
  EXPECT_GT(o.checkpointed_to_us, 0);
}

TEST(FleetSupervisorTest, CorruptCheckpointAndTruncatedCsvDegradeGracefully) {
  const std::string scratch = FleetTempDir("tolerated_poisons");

  // Session 0 resumes over a corrupt checkpoint: the runner must warn and
  // start fresh, not fail. Session 1 reads a CSV truncated mid-row: the
  // tolerant tail reader keeps the good prefix.
  const std::string trunc_ds = scratch + "/trunc_ds";
  fs::copy(FleetDatasetDir(), trunc_ds, fs::copy_options::recursive);
  {
    const std::string dci = trunc_ds + "/dci.csv";
    std::string body = FleetSlurp(dci);
    std::ofstream(dci, std::ios::binary | std::ios::trunc)
        << body.substr(0, body.size() / 2);
  }
  std::vector<runtime::SessionSpec> specs(2);
  specs[0].dataset_dir = FleetDatasetDir();
  specs[0].state_dir = scratch + "/s0";
  specs[1].dataset_dir = trunc_ds;
  specs[1].state_dir = scratch + "/s1";
  fs::create_directories(specs[0].state_dir);
  std::ofstream(specs[0].state_dir + "/live.ckpt")
      << "domino-live-checkpoint v1\ngarbage\n";

  runtime::FleetOptions fopts = QuietFleet();
  fopts.workers = 2;
  fopts.max_attempts = 2;

  runtime::FleetReport r = RunFleet(specs, FleetLiveOpts(), fopts);
  ASSERT_EQ(r.outcomes.size(), 2u);
  EXPECT_TRUE(r.outcomes[0].ok) << r.outcomes[0].error;
  EXPECT_EQ(r.outcomes[0].attempts, 1);
  EXPECT_TRUE(r.outcomes[1].ok) << r.outcomes[1].error;
  EXPECT_GT(r.outcomes[1].summary.windows, 0);
}

// --- Disk-fault injection --------------------------------------------------------
//
// Environmental faults (full disk, dying device) hit exactly the writes the
// runtime depends on for crash recovery. The injector makes the Nth guarded
// write fail deterministically, so "checkpoint write got ENOSPC" is a tested
// degradation path: the attempt fails, the supervisor retries from the last
// good checkpoint, and the daemon never goes down with the session.

TEST(DiskFaultTest, SpecParsesAndInjectorFiresExactlyOnce) {
  DiskFaultSpec spec;
  ASSERT_TRUE(ParseDiskFaultSpec("enospc:2", &spec));
  EXPECT_EQ(spec.kind, DiskFaultSpec::Kind::kEnospc);
  EXPECT_EQ(spec.at_write, 2);
  ASSERT_TRUE(ParseDiskFaultSpec("eio:1", &spec));
  EXPECT_EQ(spec.kind, DiskFaultSpec::Kind::kEio);
  ASSERT_TRUE(ParseDiskFaultSpec("short:3", &spec));
  EXPECT_EQ(spec.kind, DiskFaultSpec::Kind::kShortWrite);
  for (const char* bad : {"", "enospc", "enospc:", "enospc:0", "flood:2",
                          "enospc:2x", "enospc:2:3", "ENOSPC:2"}) {
    EXPECT_FALSE(ParseDiskFaultSpec(bad, &spec)) << bad;
  }

  DiskFaultInjector inj(DiskFaultSpec{DiskFaultSpec::Kind::kEnospc, 2});
  EXPECT_EQ(inj.OnWrite(100, nullptr), 0);
  EXPECT_EQ(inj.OnWrite(100, nullptr), ENOSPC);
  EXPECT_EQ(inj.OnWrite(100, nullptr), 0);  // a spec fires at most once
  EXPECT_EQ(inj.faults_injected(), 1);
  EXPECT_EQ(inj.writes_seen(), 3);
  EXPECT_EQ(inj.last_fault_name(), "ENOSPC");

  DiskFaultInjector torn(DiskFaultSpec{DiskFaultSpec::Kind::kShortWrite, 1});
  std::size_t cap = 100;
  EXPECT_EQ(torn.OnWrite(100, &cap), EIO);
  EXPECT_EQ(cap, 50u);  // only half the payload reaches the device
}

TEST(DiskFaultTest, FailedAtomicWriteLeavesTargetUntouched) {
  const std::string scratch = FleetTempDir("atomic_write");
  const std::string path = scratch + "/target.json";
  std::string err;
  ASSERT_TRUE(AtomicWriteFile(path, "good\n", false, nullptr, &err));

  for (const char* kind : {"enospc:1", "eio:1", "short:1"}) {
    SCOPED_TRACE(kind);
    DiskFaultSpec spec;
    ASSERT_TRUE(ParseDiskFaultSpec(kind, &spec));
    DiskFaultInjector inj(spec);
    err.clear();
    EXPECT_FALSE(AtomicWriteFile(path, "replacement\n", false, &inj, &err));
    EXPECT_NE(err.find("injected"), std::string::npos) << err;
    // The previous file survives every failure mode: the rename that would
    // expose the new content never happens.
    EXPECT_EQ(FleetSlurp(path), "good\n");
  }
}

TEST(FleetSupervisorTest, DiskFaultFailsAttemptThenRecovers) {
  const std::string scratch = FleetTempDir("disk_recovers");
  std::vector<runtime::SessionSpec> specs(2);
  specs[0].dataset_dir = FleetDatasetDir();
  specs[0].state_dir = scratch + "/victim";
  specs[1].dataset_dir = FleetDatasetDir();
  specs[1].state_dir = scratch + "/twin";

  runtime::FleetOptions fopts = QuietFleet();
  fopts.workers = 2;
  fopts.max_attempts = 3;
  fopts.chaos.resize(2);
  // The second guarded durability write of the first attempt gets ENOSPC:
  // checkpoint 1 is on disk, checkpoint 2 fails, the attempt dies. The
  // retry resumes from checkpoint 1 and writes clean (disk chaos follows
  // the fresh-run-only convention of the other hooks).
  fopts.chaos[0].disk = {DiskFaultSpec::Kind::kEnospc, 2};

  runtime::FleetReport r = RunFleet(specs, FleetLiveOpts(), fopts);
  ASSERT_EQ(r.outcomes.size(), 2u);
  EXPECT_TRUE(r.outcomes[0].ok) << r.outcomes[0].error;
  EXPECT_EQ(r.outcomes[0].attempts, 2);
  EXPECT_TRUE(r.outcomes[0].summary.resumed);
  EXPECT_EQ(r.recovered, 1);
  EXPECT_EQ(FleetSlurp(scratch + "/victim/chains.jsonl"),
            FleetSlurp(scratch + "/twin/chains.jsonl"));
  EXPECT_EQ(FleetSlurp(scratch + "/victim/live_report.json"),
            FleetSlurp(scratch + "/twin/live_report.json"));
}

TEST(FleetSupervisorTest, PersistentDiskFaultQuarantinesNeverAborts) {
  const std::string scratch = FleetTempDir("disk_quarantine");
  std::vector<runtime::SessionSpec> specs(2);
  specs[0].dataset_dir = FleetDatasetDir();
  specs[0].state_dir = scratch + "/victim";
  specs[1].dataset_dir = FleetDatasetDir();
  specs[1].state_dir = scratch + "/healthy";

  runtime::FleetOptions fopts = QuietFleet();
  fopts.workers = 2;
  fopts.max_attempts = 2;
  fopts.chaos.resize(2);
  // The *first* guarded write fails, so no checkpoint ever lands: every
  // retry is a fresh run and re-arms the injector — the EIO is persistent,
  // like a truly full disk. The session must exhaust its budget and be
  // quarantined; the healthy session and the supervisor must be untouched.
  fopts.chaos[0].disk = {DiskFaultSpec::Kind::kEio, 1};

  runtime::FleetReport r = RunFleet(specs, FleetLiveOpts(), fopts);
  ASSERT_EQ(r.outcomes.size(), 2u);
  const runtime::SessionOutcome& o = r.outcomes[0];
  EXPECT_FALSE(o.ok);
  EXPECT_TRUE(o.quarantined);
  EXPECT_EQ(o.attempts, 2);
  EXPECT_NE(o.error.find("checkpoint write failed"), std::string::npos)
      << o.error;
  EXPECT_NE(o.error.find("EIO"), std::string::npos) << o.error;
  EXPECT_FALSE(o.has_partial);  // nothing durable was ever written
  EXPECT_TRUE(r.outcomes[1].ok) << r.outcomes[1].error;
}

TEST(FleetSupervisorTest, GcRemovesCheckpointsOfCompletedSessionsOnly) {
  const std::string scratch = FleetTempDir("gc_checkpoints");
  std::vector<runtime::SessionSpec> specs(2);
  specs[0].dataset_dir = FleetDatasetDir();
  specs[0].state_dir = scratch + "/done";
  specs[1].dataset_dir = FleetDatasetDir();
  specs[1].state_dir = scratch + "/quar";

  runtime::FleetOptions fopts = QuietFleet();
  fopts.workers = 1;
  fopts.max_attempts = 1;
  fopts.gc_checkpoints = true;  // the `domino serve` default
  fopts.chaos.resize(2);
  fopts.chaos[1].fail_after = 2;  // quarantined with a real checkpoint

  runtime::FleetReport r = RunFleet(specs, FleetLiveOpts(), fopts);
  ASSERT_EQ(r.outcomes.size(), 2u);
  ASSERT_TRUE(r.outcomes[0].ok);
  ASSERT_TRUE(r.outcomes[1].quarantined);
  // Completed: outputs kept, checkpoint (now dead weight) gone.
  EXPECT_TRUE(fs::exists(scratch + "/done/chains.jsonl"));
  EXPECT_TRUE(fs::exists(scratch + "/done/live_report.json"));
  EXPECT_FALSE(fs::exists(scratch + "/done/live.ckpt"));
  // Quarantined: the checkpoint is the partial progress an operator (or a
  // later retry with a bigger budget) resumes from — kept.
  EXPECT_TRUE(fs::exists(scratch + "/quar/live.ckpt"));
}

// --- Daemon: manifest, discovery, tunables ---------------------------------------

namespace {

std::uint64_t TestFnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Recomputes the trailing checksum line so structural tampering (as
/// opposed to torn writes) can be tested separately.
std::string ResealManifest(const std::string& body) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(TestFnv1a(body)));
  return body + "checksum " + buf + "\n";
}

runtime::FleetManifest SampleManifest() {
  runtime::FleetManifest m;
  m.workers = 3;
  m.max_attempts = 4;
  m.global_backlog_windows = 64;
  m.isolate = runtime::IsolationMode::kProcess;
  m.sessions.resize(3);

  runtime::ManifestEntry& done = m.sessions[0];
  done.spec = {"/data/cell a", "/state/s0", "tenant a"};
  done.seed.terminal = true;
  done.seed.outcome.ok = true;
  done.seed.outcome.attempts = 2;
  done.seed.outcome.checkpointed_to_us = 1'234'567;
  done.seed.outcome.has_partial = true;
  done.seed.outcome.summary.polls = 7;
  done.seed.outcome.summary.windows = 19;
  done.seed.outcome.summary.chains = 57;
  done.seed.outcome.summary.checkpoints = 9;
  done.seed.outcome.summary.resumed = true;

  runtime::ManifestEntry& quar = m.sessions[1];
  quar.spec = {"/data/cell_b", "/state/s1", ""};
  quar.seed.terminal = true;
  quar.seed.outcome.quarantined = true;
  quar.seed.outcome.attempts = 4;
  quar.seed.outcome.exit_code = 137;
  quar.seed.outcome.deadline_exceeded = true;
  quar.seed.outcome.error = "live: chaos fault injected after checkpoint 1";

  runtime::ManifestEntry& open = m.sessions[2];
  open.spec = {"/data/cell_c", "/state/s2", ""};
  open.seed.terminal = false;
  open.seed.attempts = 1;  // one failed attempt before the drain
  return m;
}

}  // namespace

TEST(DaemonTest, ManifestRoundtripPreservesEverySeed) {
  const runtime::FleetManifest m = SampleManifest();
  const std::string text = runtime::FormatFleetManifest(m);

  runtime::FleetManifest back;
  std::string err;
  ASSERT_TRUE(runtime::ParseFleetManifest(text, &back, &err)) << err;
  EXPECT_EQ(back.workers, 3);
  EXPECT_EQ(back.max_attempts, 4);
  EXPECT_EQ(back.global_backlog_windows, 64);
  EXPECT_EQ(back.isolate, runtime::IsolationMode::kProcess);
  ASSERT_EQ(back.sessions.size(), 3u);

  const runtime::ManifestEntry& done = back.sessions[0];
  EXPECT_EQ(done.spec.dataset_dir, "/data/cell a");  // spaces survive
  EXPECT_EQ(done.spec.state_dir, "/state/s0");
  EXPECT_EQ(done.spec.tenant, "tenant a");
  EXPECT_TRUE(done.seed.terminal);
  EXPECT_TRUE(done.seed.outcome.ok);
  EXPECT_EQ(done.seed.outcome.attempts, 2);
  EXPECT_EQ(done.seed.outcome.checkpointed_to_us, 1'234'567);
  EXPECT_TRUE(done.seed.outcome.has_partial);
  EXPECT_EQ(done.seed.outcome.summary.windows, 19);
  EXPECT_EQ(done.seed.outcome.summary.chains, 57);
  EXPECT_EQ(done.seed.outcome.summary.checkpoints, 9);
  EXPECT_TRUE(done.seed.outcome.summary.resumed);
  // The parser re-stamps the identity fields the formatter elides.
  EXPECT_EQ(done.seed.outcome.dataset_dir, "/data/cell a");
  EXPECT_EQ(done.seed.outcome.tenant, "tenant a");

  const runtime::ManifestEntry& quar = back.sessions[1];
  EXPECT_TRUE(quar.seed.outcome.quarantined);
  EXPECT_EQ(quar.seed.outcome.attempts, 4);
  EXPECT_EQ(quar.seed.outcome.exit_code, 137);
  EXPECT_TRUE(quar.seed.outcome.deadline_exceeded);
  EXPECT_EQ(quar.seed.outcome.error,
            "live: chaos fault injected after checkpoint 1");

  const runtime::ManifestEntry& open = back.sessions[2];
  EXPECT_FALSE(open.seed.terminal);
  EXPECT_EQ(open.seed.attempts, 1);

  // Round-trip fixpoint: format(parse(format(m))) == format(m).
  EXPECT_EQ(runtime::FormatFleetManifest(back), text);
}

TEST(DaemonTest, ManifestRejectsTornAndTamperedDocuments) {
  const std::string good = runtime::FormatFleetManifest(SampleManifest());
  const std::size_t mark = good.rfind("checksum ");
  ASSERT_NE(mark, std::string::npos);
  const std::string body = good.substr(0, mark);

  std::string flipped = good;
  const std::size_t digit = flipped.find_first_of("0123456789");
  ASSERT_NE(digit, std::string::npos);
  flipped[digit] = static_cast<char>(flipped[digit] ^ 0x01);

  const struct {
    const char* name;
    std::string text;
    const char* why;  // substring the diagnostic must contain
  } kMatrix[] = {
      {"empty", "", "checksum"},
      {"truncated", good.substr(0, good.size() / 2), "checksum"},
      {"bit_flipped", flipped, "checksum"},
      {"no_checksum", body, "checksum"},
      {"trailing_garbage", good + "x", "checksum"},
      // Valid checksum over version-skewed content: unknown keys must be
      // refused, not skipped — resuming with half the state is worse than
      // not resuming.
      {"unknown_key", ResealManifest(body + "shard 7\n"), "unknown key"},
      {"bad_header",
       ResealManifest("domino-fleet-manifest v9\nconfig 1 1 0 0\n"),
       "version"},
      {"no_config", ResealManifest("domino-fleet-manifest v1\n"), "config"},
      {"negative_workers",
       ResealManifest("domino-fleet-manifest v1\nconfig -1 1 0 0\n"),
       "config"},
      {"terminal_without_outcome",
       ResealManifest("domino-fleet-manifest v1\nconfig 1 1 0 0\n"
                      "session 1 1\ndataset /d\nstate /s\ntenant \n"),
       "incomplete"},
  };
  for (const auto& c : kMatrix) {
    SCOPED_TRACE(c.name);
    runtime::FleetManifest out;
    std::string err;
    EXPECT_FALSE(runtime::ParseFleetManifest(c.text, &out, &err));
    EXPECT_NE(err.find(c.why), std::string::npos) << err;
  }

  // Save/Load carry the same guarantees through the filesystem, and a
  // missing file is "fresh start" (false, empty error), never a diagnostic.
  const std::string scratch = FleetTempDir("manifest_io");
  runtime::FleetManifest out;
  std::string err = "poison";
  EXPECT_FALSE(
      runtime::LoadFleetManifest(scratch + "/absent", &out, &err));
  EXPECT_TRUE(err.empty());
  ASSERT_TRUE(
      runtime::SaveFleetManifest(SampleManifest(), scratch + "/m", nullptr,
                                 &err));
  ASSERT_TRUE(runtime::LoadFleetManifest(scratch + "/m", &out, &err)) << err;
  EXPECT_EQ(runtime::FormatFleetManifest(out), good);
}

TEST(DaemonTest, ScanAdmitsOnlyReadySessionDirs) {
  const std::string root = FleetTempDir("scan_root");
  const std::string state_root = root + "/state";
  fs::create_directories(state_root + "/old_session_state");

  // Ready: a real dataset directory (meta.csv parses).
  const std::string ready = root + "/cell_a";
  fs::copy(FleetDatasetDir(), ready, fs::copy_options::recursive);
  // Not ready: header-only meta.csv — still being rsync'd in, say.
  MakePoisonDir(root);
  // Not ready: no meta at all.
  fs::create_directories(root + "/incoming");
  // Never a session: dotdirs, plain files, and the state root's subtree.
  fs::create_directories(root + "/.tmp_upload");
  std::ofstream(root + "/notes.txt") << "not a directory\n";

  std::set<std::string> known;
  std::vector<std::string> found =
      runtime::ScanForSessions({root}, known, state_root);
  ASSERT_EQ(found.size(), 1u) << (found.empty() ? "" : found[0]);
  EXPECT_EQ(found[0], ready);

  // Already-known dirs are not re-admitted; a vanished root is a quiet
  // empty sweep, not an error.
  known.insert(ready);
  EXPECT_TRUE(runtime::ScanForSessions({root}, known, state_root).empty());
  EXPECT_TRUE(
      runtime::ScanForSessions({root + "/gone"}, known, state_root).empty());

  // The poisoned directory becomes admissible the moment its session row
  // lands — the readiness rule is "meta parses", not "dir exists".
  std::ofstream(root + "/poison/meta.csv", std::ios::trunc)
      << FleetSlurp(FleetDatasetDir() + "/meta.csv");
  found = runtime::ScanForSessions({root}, known, state_root);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], root + "/poison");
}

TEST(DaemonTest, StateDirMappingIsStableAndSanitised) {
  const std::string a =
      runtime::SessionStateDirFor("/var/fleet", "/data/roots/cell_a");
  EXPECT_EQ(a, runtime::SessionStateDirFor("/var/fleet",
                                           "/data/roots/cell_a"));
  EXPECT_EQ(a.rfind("/var/fleet/cell_a_", 0), 0u) << a;
  // Same basename under different roots must not collide (the path hash
  // disambiguates), and hostile basenames are sanitised.
  EXPECT_NE(a, runtime::SessionStateDirFor("/var/fleet",
                                           "/other/roots/cell_a"));
  const std::string weird =
      runtime::SessionStateDirFor("/var/fleet", "/data/a b/../c;rm -rf");
  EXPECT_EQ(weird.find(' '), std::string::npos) << weird;
  EXPECT_EQ(weird.find(';'), std::string::npos) << weird;
}

TEST(DaemonTest, TunablesFileParsesAndRejectsAtomically) {
  const std::string scratch = FleetTempDir("tunables");
  const std::string path = scratch + "/tunables.conf";
  std::ofstream(path) << "# fleet knobs\n"
                      << "max_attempts 5\n"
                      << "backoff_ms 250   # inline comment\n"
                      << "\n"
                      << "session_deadline_s 12.5\n"
                      << "drain_grace_ms 900\n";
  runtime::DaemonTunables t;
  std::string err;
  ASSERT_TRUE(runtime::ParseTunablesFile(path, &t, &err)) << err;
  EXPECT_EQ(t.max_attempts, 5);
  EXPECT_EQ(t.backoff_ms, 250);
  EXPECT_DOUBLE_EQ(t.session_deadline_s, 12.5);
  EXPECT_EQ(t.drain_grace_ms, 900);
  EXPECT_EQ(t.backoff_cap_ms, 0);  // absent = keep current, never reset

  // One bad line fails the whole reload: half-applied tunables are worse
  // than stale ones.
  const struct {
    const char* name;
    const char* text;
  } kBad[] = {
      {"unknown_key", "max_attempts 5\nworker_count 9\n"},
      {"bad_value", "backoff_ms fast\n"},
      {"negative", "max_attempts -2\n"},
      {"trailing_token", "backoff_ms 250 500\n"},
  };
  for (const auto& c : kBad) {
    SCOPED_TRACE(c.name);
    std::ofstream(path, std::ios::trunc) << c.text;
    EXPECT_FALSE(runtime::ParseTunablesFile(path, &t, &err));
    EXPECT_FALSE(err.empty());
  }
  EXPECT_FALSE(runtime::ParseTunablesFile(scratch + "/absent", &t, &err));
}

// --- Daemon: drain, manifest resume, fault tolerance -----------------------------

TEST(FleetSupervisorTest, DrainSuspendsOpenSessionsAndManifestResumesByteIdentical) {
  const std::string scratch = FleetTempDir("drain_resume");
  constexpr int kSessions = 48;
  auto build_specs = [&](const std::string& round) {
    std::vector<runtime::SessionSpec> specs(kSessions);
    for (int i = 0; i < kSessions; ++i) {
      specs[static_cast<std::size_t>(i)].dataset_dir = FleetDatasetDir();
      specs[static_cast<std::size_t>(i)].state_dir =
          scratch + "/" + round + "_s" + std::to_string(i);
    }
    return specs;
  };
  runtime::FleetOptions fopts = QuietFleet();
  fopts.workers = 1;  // serialised, so the drain catches a long queue

  // Round 1: drain lands mid-fleet. Everything not yet terminal must come
  // back suspended — with attempt counters that pretend the interrupted
  // attempt never happened — and the run must end with exitable state.
  const std::vector<runtime::SessionSpec> specs = build_specs("a");
  runtime::FleetSupervisor sup(
      specs, analysis::CausalGraph::Default({}), FleetLiveOpts(), fopts);
  std::thread drainer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    sup.RequestDrain();
  });
  const runtime::FleetReport r1 = sup.Run();
  drainer.join();
  EXPECT_TRUE(r1.drained);
  EXPECT_EQ(r1.completed + r1.suspended,
            static_cast<long>(r1.outcomes.size()));
  ASSERT_GT(r1.suspended, 0) << "fleet finished before the drain landed";
  for (const runtime::SessionOutcome& o : r1.outcomes) {
    if (!o.suspended) continue;
    EXPECT_FALSE(o.ok);
    EXPECT_FALSE(o.quarantined);
    EXPECT_EQ(o.attempts, 0);  // the drained attempt is not an attempt
  }

  // The drain ledger round-trips through disk like the daemon writes it.
  const std::string mpath = scratch + "/fleet.manifest";
  std::string err;
  ASSERT_TRUE(runtime::SaveFleetManifest(
      runtime::BuildFleetManifest(r1, specs), mpath, nullptr, &err))
      << err;
  runtime::FleetManifest m;
  ASSERT_TRUE(runtime::LoadFleetManifest(mpath, &m, &err)) << err;
  ASSERT_EQ(m.sessions.size(), specs.size());

  // Round 2: a "restarted daemon" seeds from the manifest. Terminal
  // sessions are reported verbatim, suspended ones resume from their drain
  // checkpoints.
  runtime::FleetOptions fopts2 = fopts;
  std::vector<runtime::SessionSpec> specs2;
  for (runtime::ManifestEntry& e : m.sessions) {
    specs2.push_back(e.spec);
    fopts2.seeds.push_back(e.seed);
  }
  const runtime::FleetReport r2 = RunFleet(specs2, FleetLiveOpts(), fopts2);
  EXPECT_FALSE(r2.drained);
  EXPECT_EQ(r2.completed, static_cast<long>(specs.size()));
  EXPECT_EQ(r2.suspended, 0);

  // The promise that makes a rolling restart invisible: the resumed run's
  // report and every per-session output are byte-identical to a run that
  // was never disturbed.
  const runtime::FleetReport rt =
      RunFleet(build_specs("twin"), FleetLiveOpts(), fopts);
  EXPECT_EQ(runtime::BuildFleetReportJson(r2),
            runtime::BuildFleetReportJson(rt));
  for (int i = 0; i < kSessions; ++i) {
    const std::string drained = scratch + "/a_s" + std::to_string(i);
    const std::string twin = scratch + "/twin_s" + std::to_string(i);
    EXPECT_EQ(FleetSlurp(drained + "/chains.jsonl"),
              FleetSlurp(twin + "/chains.jsonl"))
        << i;
    EXPECT_EQ(FleetSlurp(drained + "/live_report.json"),
              FleetSlurp(twin + "/live_report.json"))
        << i;
  }
}

TEST(FleetSupervisorTest, DrainBeforeRunSuspendsEverythingAtAttemptZero) {
  const std::string scratch = FleetTempDir("drain_immediate");
  std::vector<runtime::SessionSpec> specs(4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].dataset_dir = FleetDatasetDir();
    specs[i].state_dir = scratch + "/s" + std::to_string(i);
  }
  runtime::FleetSupervisor sup(
      specs, analysis::CausalGraph::Default({}), FleetLiveOpts(),
      QuietFleet());
  sup.RequestDrain();  // SIGTERM before the first attempt even starts
  const runtime::FleetReport r = sup.Run();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.suspended, 4);
  EXPECT_EQ(r.total_attempts, 0);
  for (const runtime::SessionOutcome& o : r.outcomes) {
    EXPECT_TRUE(o.suspended);
    EXPECT_EQ(o.attempts, 0);
  }
}

TEST(DaemonTest, ResumeRefusesMismatchedConfigAndCorruptManifest) {
  const std::string scratch = FleetTempDir("resume_refuse");
  const std::string mpath = scratch + "/fleet.manifest";

  runtime::FleetManifest m;
  m.workers = 1;
  m.max_attempts = 3;
  m.global_backlog_windows = 0;
  m.isolate = runtime::IsolationMode::kThread;
  m.sessions.resize(1);
  m.sessions[0].spec = {FleetDatasetDir(), scratch + "/s0", ""};
  m.sessions[0].seed.terminal = false;
  std::string err;
  ASSERT_TRUE(runtime::SaveFleetManifest(m, mpath, nullptr, &err)) << err;

  runtime::ServeDaemonOptions dopts;
  dopts.manifest_path = mpath;

  // A different admission-budget configuration would change what the
  // resumed sessions shed — refusing beats silently breaking byte-identity.
  runtime::FleetOptions fopts = QuietFleet();
  fopts.workers = 1;
  fopts.global_backlog_windows = 8;  // manifest says 0
  runtime::ServeDaemonResult res = runtime::RunServeDaemon(
      {}, analysis::CausalGraph::Default({}), FleetLiveOpts(), fopts, dopts);
  EXPECT_TRUE(res.fatal);
  EXPECT_NE(res.error.find("different fleet configuration"),
            std::string::npos)
      << res.error;

  // A corrupt manifest is never guessed around either.
  std::ofstream(mpath, std::ios::trunc) << "domino-fleet-manifest v1\njunk";
  fopts.global_backlog_windows = 0;
  res = runtime::RunServeDaemon({}, analysis::CausalGraph::Default({}),
                                FleetLiveOpts(), fopts, dopts);
  EXPECT_TRUE(res.fatal);
  EXPECT_NE(res.error.find("corrupt manifest"), std::string::npos)
      << res.error;
}

TEST(DaemonTest, DiskFaultDegradesSessionStatusFileTellsTheStory) {
  const std::string scratch = FleetTempDir("daemon_diskfault");
  std::vector<runtime::SessionSpec> specs(2);
  specs[0].dataset_dir = FleetDatasetDir();
  specs[0].state_dir = scratch + "/healthy";
  specs[1].dataset_dir = FleetDatasetDir();
  specs[1].state_dir = scratch + "/victim";

  runtime::FleetOptions fopts = QuietFleet();
  fopts.workers = 1;
  fopts.max_attempts = 1;
  fopts.chaos.resize(2);
  fopts.chaos[1].disk = {DiskFaultSpec::Kind::kEnospc, 1};

  runtime::ServeDaemonOptions dopts;
  dopts.status_path = scratch + "/fleet_status.json";
  dopts.status_interval_ms = 1;

  runtime::ServeDaemonResult res = runtime::RunServeDaemon(
      std::move(specs), analysis::CausalGraph::Default({}), FleetLiveOpts(),
      fopts, dopts);
  // The injected ENOSPC cost the session, never the daemon.
  ASSERT_FALSE(res.fatal) << res.error;
  EXPECT_EQ(res.report.completed, 1);
  EXPECT_EQ(res.report.quarantined, 1);

  const std::string status = FleetSlurp(dopts.status_path);
  EXPECT_NE(status.find("\"state\": \"stopped\""), std::string::npos)
      << status;
  EXPECT_NE(status.find("\"quarantined\": 1"), std::string::npos) << status;
  EXPECT_NE(status.find("\"completed\": 1"), std::string::npos) << status;
}

// --- Sharded fleet: leases, fencing, cross-box takeover --------------------------

TEST(DiskFaultTest, RenameAndFsyncFaultsFailAtTheirStage) {
  DiskFaultSpec spec;
  ASSERT_TRUE(ParseDiskFaultSpec("rename:2", &spec));
  EXPECT_EQ(spec.kind, DiskFaultSpec::Kind::kRename);
  EXPECT_EQ(spec.at_write, 2);
  ASSERT_TRUE(ParseDiskFaultSpec("fsync:1", &spec));
  EXPECT_EQ(spec.kind, DiskFaultSpec::Kind::kFsync);

  const auto staging_files = [](const std::string& dir) {
    std::vector<std::string> out;
    for (const auto& e : fs::directory_iterator(dir)) {
      const std::string name = e.path().filename().string();
      if (name.find(".tmp") != std::string::npos) {
        out.push_back(e.path().string());
      }
    }
    return out;
  };

  // fsync fault: the bytes were all written but durability was refused —
  // the staging file is discarded and the target never changes.
  {
    const std::string scratch = FleetTempDir("fault_fsync");
    const std::string path = scratch + "/target.json";
    std::string err;
    ASSERT_TRUE(AtomicWriteFile(path, "good\n", true, nullptr, &err)) << err;
    DiskFaultInjector inj(DiskFaultSpec{DiskFaultSpec::Kind::kFsync, 1});
    EXPECT_FALSE(AtomicWriteFile(path, "replacement\n", true, &inj, &err));
    EXPECT_NE(err.find("fsync"), std::string::npos) << err;
    EXPECT_NE(err.find("injected"), std::string::npos) << err;
    EXPECT_EQ(FleetSlurp(path), "good\n");
#if !defined(_WIN32)
    EXPECT_TRUE(staging_files(scratch).empty());
#endif
  }

  // rename fault: write and fsync both succeeded; only the publishing
  // rename failed. The fully-written staging file stays behind for
  // postmortems, and the target still never changes — the one crash window
  // the atomic protocol leaves, now reproducible.
  {
    const std::string scratch = FleetTempDir("fault_rename");
    const std::string path = scratch + "/target.json";
    std::string err;
    ASSERT_TRUE(AtomicWriteFile(path, "good\n", true, nullptr, &err)) << err;
    DiskFaultInjector inj(DiskFaultSpec{DiskFaultSpec::Kind::kRename, 1});
    EXPECT_FALSE(AtomicWriteFile(path, "replacement\n", true, &inj, &err));
    EXPECT_NE(err.find("rename"), std::string::npos) << err;
    EXPECT_NE(err.find("injected"), std::string::npos) << err;
    EXPECT_EQ(FleetSlurp(path), "good\n");
    const std::vector<std::string> left = staging_files(scratch);
    ASSERT_EQ(left.size(), 1u);
    EXPECT_EQ(FleetSlurp(left[0]), "replacement\n");
  }
}

TEST(LeaseTest, FormatParseRoundtripRejectsTampering) {
  LeaseInfo in;
  in.owner = "box-a.rack1";
  in.token = 7;
  in.seq = 3;
  in.renewed_unix_ms = 1'723'000'000'123;
  const std::string text = FormatLease(in);
  LeaseInfo out;
  std::string err;
  ASSERT_TRUE(ParseLease(text, &out, &err)) << err;
  EXPECT_EQ(out.owner, in.owner);
  EXPECT_EQ(out.token, in.token);
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.renewed_unix_ms, in.renewed_unix_ms);

  // A flipped field, a torn tail, and trailing garbage all fail the
  // checksum before any field is trusted.
  std::string tampered = text;
  const std::size_t at = tampered.find("token 7");
  ASSERT_NE(at, std::string::npos);
  tampered[at + 6] = '8';
  EXPECT_FALSE(ParseLease(tampered, &out, &err));
  EXPECT_FALSE(ParseLease(text.substr(0, text.size() / 2), &out, &err));
  EXPECT_FALSE(ParseLease(text + "x", &out, &err));
  // Unknown keys are refused even under a recomputed (valid) checksum:
  // version skew must not be silently half-applied.
  const std::string body = text.substr(0, text.rfind("checksum "));
  EXPECT_FALSE(ParseLease(ResealManifest(body + "color blue\n"), &out, &err));
}

TEST(LeaseTest, AcquireHeldStealRenewLifecycle) {
  const std::string dir = FleetTempDir("lease_lifecycle") + "/s";
  LeaseFile a(dir, "boxa");
  LeaseFile b(dir, "boxb");
  std::string err;
  constexpr std::int64_t kTtl = 1'000;

  ASSERT_EQ(a.TryAcquire(1'000, kTtl, nullptr, &err), LeaseAcquire::kAcquired)
      << err;
  EXPECT_TRUE(a.held());
  const std::uint64_t a_token = a.info().token;
  EXPECT_GE(a_token, 1u);
  // Idempotent while held: no new token, still the owner.
  EXPECT_EQ(a.TryAcquire(1'200, kTtl, nullptr, &err), LeaseAcquire::kAcquired);
  EXPECT_EQ(a.info().token, a_token);

  // A live owner's lease cannot be taken...
  EXPECT_EQ(b.TryAcquire(1'500, kTtl, nullptr, &err), LeaseAcquire::kHeld);
  // ...and a heartbeat resets the staleness clock.
  EXPECT_EQ(a.Renew(1'800, nullptr, &err), LeaseRenew::kRenewed) << err;
  EXPECT_EQ(b.TryAcquire(2'500, kTtl, nullptr, &err), LeaseAcquire::kHeld);

  // Past the TTL the owner is presumed dead; the steal carries a strictly
  // higher fencing token, so every stale-token writer can be told apart.
  EXPECT_EQ(b.TryAcquire(3'000, kTtl, nullptr, &err), LeaseAcquire::kAcquired)
      << err;
  EXPECT_GT(b.info().token, a_token);
  // The zombie discovers the loss on its next heartbeat, and its token no
  // longer passes the fence.
  EXPECT_EQ(a.Renew(3'100, nullptr, &err), LeaseRenew::kLost);
  EXPECT_FALSE(a.held());
  EXPECT_FALSE(LeaseTokenCurrent(dir, a_token));
  EXPECT_TRUE(LeaseTokenCurrent(dir, b.info().token));

  // Release removes the lease; tokens stay monotonic across re-acquire.
  const std::uint64_t b_token = b.info().token;
  EXPECT_TRUE(b.Release(&err)) << err;
  LeaseInfo peek;
  EXPECT_FALSE(InspectLease(dir, &peek));
  EXPECT_EQ(a.TryAcquire(4'000, kTtl, nullptr, &err), LeaseAcquire::kAcquired)
      << err;
  EXPECT_GT(a.info().token, b_token);
}

TEST(LeaseTest, InjectedFaultsFailAcquireAtomically) {
  const char* kinds[] = {"enospc:1", "eio:1", "short:1", "fsync:1",
                         "rename:1"};
  for (std::size_t i = 0; i < 5; ++i) {
    SCOPED_TRACE(kinds[i]);
    const std::string dir =
        FleetTempDir("lease_fault_" + std::to_string(i)) + "/s";
    DiskFaultSpec spec;
    ASSERT_TRUE(ParseDiskFaultSpec(kinds[i], &spec));
    DiskFaultInjector inj(spec);
    LeaseFile lf(dir, "boxa");
    std::string err;
    // Whatever stage the publish dies at, no half-published lease may be
    // left behind — another box reading the directory sees "free".
    EXPECT_EQ(lf.TryAcquire(1'000, 1'000, &inj, &err),
              LeaseAcquire::kIoError);
    EXPECT_FALSE(lf.held());
    LeaseInfo peek;
    EXPECT_FALSE(InspectLease(dir, &peek));
    // The injector fires once; the retry goes through cleanly.
    EXPECT_EQ(lf.TryAcquire(2'000, 1'000, &inj, &err),
              LeaseAcquire::kAcquired)
        << err;
    EXPECT_TRUE(LeaseTokenCurrent(dir, lf.info().token));
  }
}

TEST(ShardTest, DoneRecordRoundtripRejectsCorruption) {
  runtime::ShardDoneRecord in;
  in.dataset_dir = "/data/cell a";
  in.owner = "box-a";
  in.token = 12;
  in.status = 2;
  in.attempts = 3;
  in.windows = 41;
  in.chains = 7;
  const std::string text = runtime::FormatShardDone(in);
  runtime::ShardDoneRecord out;
  std::string err;
  ASSERT_TRUE(runtime::ParseShardDone(text, &out, &err)) << err;
  EXPECT_EQ(out.dataset_dir, in.dataset_dir);
  EXPECT_EQ(out.owner, in.owner);
  EXPECT_EQ(out.token, in.token);
  EXPECT_EQ(out.status, in.status);
  EXPECT_EQ(out.attempts, in.attempts);
  EXPECT_EQ(out.windows, in.windows);
  EXPECT_EQ(out.chains, in.chains);

  std::string tampered = text;
  const std::size_t at = tampered.find("windows 41");
  ASSERT_NE(at, std::string::npos);
  tampered[at + 8] = '9';
  EXPECT_FALSE(runtime::ParseShardDone(tampered, &out, &err));
  EXPECT_FALSE(
      runtime::ParseShardDone(text.substr(0, text.size() / 2), &out, &err));
  EXPECT_FALSE(runtime::ParseShardDone(text + "x", &out, &err));
  // Semantically wrong documents are refused even under a valid checksum:
  // fenced (3) is a per-box manifest status, never a done marker — the box
  // that was fenced explicitly did NOT finish the work.
  runtime::ShardDoneRecord fenced = in;
  fenced.status = 3;
  EXPECT_FALSE(
      runtime::ParseShardDone(runtime::FormatShardDone(fenced), &out, &err));
  EXPECT_NE(err.find("status"), std::string::npos) << err;
  const std::string body = text.substr(0, text.rfind("checksum "));
  EXPECT_FALSE(
      runtime::ParseShardDone(ResealManifest(body + "color blue\n"), &out,
                              &err));
}

TEST(ShardTest, ClaimsAreExactlyOnceAcrossCoordinators) {
  const std::string scratch = FleetTempDir("shard_exactly_once");
  constexpr int kBoxes = 4;
  constexpr int kSessions = 6;
  std::vector<std::string> datasets;
  for (int i = 0; i < kSessions; ++i) {
    datasets.push_back("/data/capture_" + std::to_string(i));
  }
  std::vector<std::unique_ptr<runtime::ShardCoordinator>> boxes;
  for (int b = 0; b < kBoxes; ++b) {
    runtime::ShardOptions so;
    so.state_root = scratch;
    so.owner = "box" + std::to_string(b);
    so.lease_ttl_ms = 60'000;
    boxes.push_back(std::make_unique<runtime::ShardCoordinator>(so));
  }

  // Every box races to claim every session over the shared filesystem; the
  // link(2) publish admits exactly one winner per session.
  std::atomic<int> claims[kSessions] = {};
  std::vector<std::thread> threads;
  for (int b = 0; b < kBoxes; ++b) {
    threads.emplace_back([&, b] {
      for (int i = 0; i < kSessions; ++i) {
        std::string err;
        if (boxes[static_cast<std::size_t>(b)]->TryClaim(
                datasets[static_cast<std::size_t>(i)], &err) ==
            runtime::ClaimResult::kClaimed) {
          claims[i].fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  long held = 0;
  for (auto& box : boxes) held += box->held_count();
  EXPECT_EQ(held, kSessions);
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(claims[i].load(), 1) << datasets[static_cast<std::size_t>(i)];
  }

  // Finish every claim; afterwards every box (winner or not) agrees the
  // work is done and never re-claims it.
  for (auto& box : boxes) {
    for (const std::string& ds : datasets) {
      if (!box->Held(ds)) continue;
      runtime::ShardDoneRecord rec;
      rec.status = 1;
      rec.windows = 10;
      rec.chains = 2;
      std::string err;
      EXPECT_TRUE(box->MarkDone(ds, rec, &err)) << err;
    }
  }
  for (auto& box : boxes) {
    for (const std::string& ds : datasets) {
      std::string err;
      EXPECT_EQ(box->TryClaim(ds, &err), runtime::ClaimResult::kDone);
    }
  }
}

TEST(ShardTest, GcGuardRequiresACurrentLease) {
  const std::string scratch = FleetTempDir("shard_gc_guard");
  const std::string ds = "/data/capture_gc";
  std::int64_t now = 5'000;
  runtime::ShardOptions sa;
  sa.state_root = scratch;
  sa.owner = "boxa";
  sa.lease_ttl_ms = 1'000;
  sa.clock = [&now] { return now; };
  runtime::ShardCoordinator boxa(sa);
  runtime::ShardOptions sb = sa;
  sb.owner = "boxb";
  runtime::ShardCoordinator boxb(sb);

  EXPECT_FALSE(boxa.SafeToGc(ds));  // never claimed
  std::string err;
  ASSERT_EQ(boxa.TryClaim(ds, &err), runtime::ClaimResult::kClaimed) << err;
  EXPECT_TRUE(boxa.SafeToGc(ds));

  // After a steal, GC on the old owner must refuse even though that box
  // has not yet noticed the loss — a takeover can never race deletion.
  now += sa.lease_ttl_ms + 1;
  ASSERT_EQ(boxb.TryClaim(ds, &err), runtime::ClaimResult::kClaimed) << err;
  EXPECT_FALSE(boxa.SafeToGc(ds));
  EXPECT_TRUE(boxb.SafeToGc(ds));
}

TEST(ShardTest, StaleTakeoverResumesByteIdenticalAndFencesZombie) {
  const std::string scratch = FleetTempDir("shard_takeover");
  const std::string ds = FleetDatasetDir();
  std::int64_t now = 1'000'000;  // injected clock shared by both boxes

  runtime::ShardOptions sa;
  sa.state_root = scratch;
  sa.owner = "boxa";
  sa.lease_ttl_ms = 1'000;
  sa.clock = [&now] { return now; };
  runtime::ShardCoordinator boxa(sa);
  runtime::ShardOptions sb = sa;
  sb.owner = "boxb";
  runtime::ShardCoordinator boxb(sb);

  std::string err;
  ASSERT_EQ(boxa.TryClaim(ds, &err), runtime::ClaimResult::kClaimed) << err;
  ASSERT_EQ(boxb.TryClaim(ds, &err), runtime::ClaimResult::kHeldElsewhere);

  const std::string state = runtime::SessionStateDirFor(scratch, ds);
  const std::string lease_dir = boxa.LeaseDirFor(ds);

  // boxa runs the session fenced and "crashes" right after checkpoint 1.
  runtime::LiveOptions live = FleetLiveOpts();
  live.fence_lease_dir = lease_dir;
  live.fence_token = boxa.TokenFor(ds);
  live.chaos_fail_after = 1;
  const analysis::CausalGraph graph =
      analysis::CausalGraph::Default(live.detector.thresholds);
  EXPECT_THROW(runtime::LiveRunner(ds, state, graph, live).Run(),
               std::runtime_error);
  ASSERT_TRUE(fs::exists(state + "/live.ckpt"));
  const std::string partial_chains = FleetSlurp(state + "/chains.jsonl");
  const std::string partial_ckpt = FleetSlurp(state + "/live.ckpt");

  // boxa's box is dead: past the TTL boxb steals the lease with a strictly
  // higher fencing token.
  now += sa.lease_ttl_ms + 1;
  ASSERT_EQ(boxb.TryClaim(ds, &err), runtime::ClaimResult::kClaimed) << err;
  EXPECT_GT(boxb.TokenFor(ds), live.fence_token);

  // A zombie retry on boxa still carries the stale token: it must be
  // fenced before it can truncate the chain log or touch the checkpoint.
  runtime::LiveOptions zombie = live;
  zombie.chaos_fail_after = 0;
  try {
    runtime::LiveRunner(ds, state, graph, zombie).Run();
    FAIL() << "zombie attempt ran unfenced";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("fenced", 0), 0u) << e.what();
  }
  EXPECT_EQ(FleetSlurp(state + "/chains.jsonl"), partial_chains);
  EXPECT_EQ(FleetSlurp(state + "/live.ckpt"), partial_ckpt);

  // boxa's own bookkeeping discovers the loss: the heartbeat reports the
  // steal and a terminal publish is refused.
  const std::vector<std::string> lost = boxa.RenewHeld();
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], ds);
  runtime::ShardDoneRecord rec;
  rec.status = 1;
  EXPECT_FALSE(boxa.MarkDone(ds, rec, &err));

  // boxb resumes the victim's checkpoint and the final output is
  // byte-identical to a twin session that was never disturbed.
  runtime::LiveOptions bl = FleetLiveOpts();
  bl.fence_lease_dir = lease_dir;
  bl.fence_token = boxb.TokenFor(ds);
  const runtime::LiveSummary bs =
      runtime::LiveRunner(ds, state, graph, bl).Run();
  EXPECT_TRUE(bs.resumed);

  const std::string twin = scratch + "/twin";
  const runtime::LiveSummary ts =
      runtime::LiveRunner(ds, twin, graph, FleetLiveOpts()).Run();
  EXPECT_EQ(bs.windows, ts.windows);
  EXPECT_EQ(FleetSlurp(state + "/chains.jsonl"),
            FleetSlurp(twin + "/chains.jsonl"));
  EXPECT_EQ(FleetSlurp(state + "/live_report.json"),
            FleetSlurp(twin + "/live_report.json"));

  rec.windows = bs.windows;
  rec.chains = bs.chains;
  EXPECT_TRUE(boxb.MarkDone(ds, rec, &err)) << err;
  EXPECT_EQ(boxa.TryClaim(ds, &err), runtime::ClaimResult::kDone);
}

TEST(ShardTest, FleetStatusMergesManifestsAndDoneMarkers) {
  const std::string scratch = FleetTempDir("shard_status_merge");
  // boxa's manifest: ds0 done, ds1 open (boxa was draining). boxb's: ds1
  // fenced (boxb lost it mid-attempt), ds2 quarantined.
  runtime::FleetManifest ma;
  ma.workers = 1;
  ma.max_attempts = 1;
  ma.owner = "boxa";
  ma.sessions.resize(2);
  ma.sessions[0].spec = {"/data/ds0", scratch + "/s0", ""};
  ma.sessions[0].seed.terminal = true;
  ma.sessions[0].seed.outcome.ok = true;
  ma.sessions[0].seed.outcome.summary.windows = 10;
  ma.sessions[0].seed.outcome.summary.chains = 3;
  ma.sessions[1].spec = {"/data/ds1", scratch + "/s1", ""};
  ma.sessions[1].seed.terminal = false;
  runtime::FleetManifest mb;
  mb.workers = 1;
  mb.max_attempts = 1;
  mb.owner = "boxb";
  mb.sessions.resize(2);
  mb.sessions[0].spec = {"/data/ds1", scratch + "/s1", ""};
  mb.sessions[0].seed.terminal = true;
  mb.sessions[0].seed.outcome.fenced = true;
  mb.sessions[1].spec = {"/data/ds2", scratch + "/s2", ""};
  mb.sessions[1].seed.terminal = true;
  mb.sessions[1].seed.outcome.quarantined = true;
  mb.sessions[1].seed.outcome.summary.windows = 4;
  ASSERT_TRUE(
      runtime::SaveFleetManifest(ma, scratch + "/fleet-boxa.manifest"));
  ASSERT_TRUE(
      runtime::SaveFleetManifest(mb, scratch + "/fleet-boxb.manifest"));
  // A corrupt manifest (the SIGKILLed box) is skipped, never fatal.
  std::ofstream(scratch + "/fleet-boxc.manifest") << "garbage\n";

  // boxa finished ds1 after taking it over: the done marker must beat both
  // the open entry and boxb's fenced entry.
  {
    runtime::ShardOptions so;
    so.state_root = scratch;
    so.owner = "boxa";
    runtime::ShardCoordinator coord(so);
    std::string err;
    ASSERT_EQ(coord.TryClaim("/data/ds1", &err),
              runtime::ClaimResult::kClaimed)
        << err;
    runtime::ShardDoneRecord rec;
    rec.status = 1;
    rec.windows = 10;
    rec.chains = 3;
    ASSERT_TRUE(coord.MarkDone("/data/ds1", rec, &err)) << err;
  }

  runtime::FleetStatusView view;
  std::string err;
  ASSERT_TRUE(runtime::CollectFleetStatus(scratch, &view, &err)) << err;
  ASSERT_EQ(view.sessions.size(), 3u);
  EXPECT_EQ(view.sessions[0].dataset_dir, "/data/ds0");
  EXPECT_EQ(view.sessions[0].status, 1);
  EXPECT_EQ(view.sessions[1].dataset_dir, "/data/ds1");
  EXPECT_EQ(view.sessions[1].status, 1);  // done marker wins
  EXPECT_EQ(view.sessions[1].owner, "boxa");
  EXPECT_EQ(view.sessions[2].dataset_dir, "/data/ds2");
  EXPECT_EQ(view.sessions[2].status, 2);

  // The default JSON is owner-free — it is byte-compared across takeovers,
  // and ownership legitimately changes. --owners is the opt-in.
  const std::string plain = runtime::BuildFleetStatusJson(view, false);
  EXPECT_EQ(plain.find("boxa"), std::string::npos) << plain;
  EXPECT_NE(plain.find("\"done\": 2"), std::string::npos) << plain;
  EXPECT_NE(plain.find("\"quarantined\": 1"), std::string::npos) << plain;
  const std::string owners = runtime::BuildFleetStatusJson(view, true);
  EXPECT_NE(owners.find("\"owner\": \"boxa\""), std::string::npos) << owners;
}

TEST(FleetSupervisorTest, FencedAttemptIsTerminalNotRetriedNotFailed) {
  const std::string scratch = FleetTempDir("fleet_fenced");
  std::vector<runtime::SessionSpec> specs(1);
  specs[0].dataset_dir = FleetDatasetDir();
  specs[0].state_dir = scratch + "/victim";

  runtime::FleetOptions fopts = QuietFleet();
  fopts.workers = 1;
  fopts.max_attempts = 3;  // fenced must NOT consume the retry budget
  // An empty lease directory means every fence check fails: the lease was
  // "stolen" before the attempt even started.
  const std::string lease_dir = scratch + "/lease";
  fs::create_directories(lease_dir);
  fopts.shard_binding = [&](const std::string&, std::string* dir,
                            std::uint64_t* token) {
    *dir = lease_dir;
    *token = 1;
    return true;
  };
  std::atomic<int> terminal_fenced{0};
  fopts.on_terminal = [&](const runtime::SessionSpec&,
                          const runtime::SessionOutcome& o) {
    if (o.fenced) terminal_fenced.fetch_add(1);
  };

  runtime::FleetReport r = RunFleet(specs, FleetLiveOpts(), fopts);
  ASSERT_EQ(r.outcomes.size(), 1u);
  const runtime::SessionOutcome& o = r.outcomes[0];
  EXPECT_TRUE(o.fenced);
  EXPECT_FALSE(o.ok);
  EXPECT_FALSE(o.quarantined);  // another box owns it — not a failure here
  EXPECT_EQ(o.attempts, 1);     // terminal immediately, never retried
  EXPECT_EQ(r.fenced, 1);
  EXPECT_EQ(terminal_fenced.load(), 1);
  const std::string json = runtime::BuildFleetReportJson(r);
  EXPECT_NE(json.find("\"fenced\": true"), std::string::npos) << json;
}

#ifdef DOMINO_BINARY
TEST(FleetSupervisorTest, ProcessIsolationRecordsExitStatusAndRetries) {
  const std::string scratch = FleetTempDir("process_isolation");
  const std::string poison = MakePoisonDir(scratch);

  runtime::FleetOptions fopts = QuietFleet();
  fopts.isolate = runtime::IsolationMode::kProcess;
  fopts.exec_path = DOMINO_BINARY;
  fopts.child_args = {"--checkpoint-every", "2"};
  fopts.workers = 2;
  fopts.session_deadline_s = 2.0;

  // Round 1, single attempts: the exit status / signal of every fault mode
  // must land in the outcome. crash -> _Exit(137); wedge -> SIGKILL at the
  // deadline; poison -> child exit code 1.
  {
    std::vector<runtime::SessionSpec> specs(3);
    specs[0].dataset_dir = FleetDatasetDir();
    specs[0].state_dir = scratch + "/a_crash";
    specs[1].dataset_dir = FleetDatasetDir();
    specs[1].state_dir = scratch + "/a_wedge";
    specs[2].dataset_dir = poison;
    specs[2].state_dir = scratch + "/a_poison";
    fopts.max_attempts = 1;
    fopts.chaos.assign(3, runtime::SessionChaos{});
    fopts.chaos[0].crash_after = 1;
    fopts.chaos[1].wedge_after = 1;

    runtime::FleetReport r = RunFleet(specs, FleetLiveOpts(), fopts);
    ASSERT_EQ(r.outcomes.size(), 3u);
    EXPECT_TRUE(r.outcomes[0].quarantined);
    EXPECT_EQ(r.outcomes[0].exit_code, 137);
    EXPECT_TRUE(r.outcomes[0].has_partial);  // checkpoint before the crash
    EXPECT_GT(r.outcomes[0].summary.windows, 0);
    EXPECT_TRUE(r.outcomes[1].quarantined);
    EXPECT_EQ(r.outcomes[1].term_signal, SIGKILL);
    EXPECT_TRUE(r.outcomes[1].deadline_exceeded);
    EXPECT_TRUE(r.outcomes[2].quarantined);
    EXPECT_EQ(r.outcomes[2].exit_code, 1);
    EXPECT_FALSE(r.outcomes[2].has_partial);
  }

  // Round 2: with an attempt budget, the crashed session resumes from its
  // checkpoint and completes — the fleet outlives the SIGSEGV-class fault.
  {
    std::vector<runtime::SessionSpec> specs(2);
    specs[0].dataset_dir = FleetDatasetDir();
    specs[0].state_dir = scratch + "/b_crash";
    specs[1].dataset_dir = FleetDatasetDir();
    specs[1].state_dir = scratch + "/b_twin";
    fopts.max_attempts = 3;
    fopts.chaos.assign(2, runtime::SessionChaos{});
    fopts.chaos[0].crash_after = 1;

    runtime::FleetReport r = RunFleet(specs, FleetLiveOpts(), fopts);
    ASSERT_EQ(r.outcomes.size(), 2u);
    EXPECT_TRUE(r.outcomes[0].ok) << r.outcomes[0].error;
    EXPECT_EQ(r.outcomes[0].attempts, 2);
    EXPECT_EQ(r.recovered, 1);
    EXPECT_EQ(FleetSlurp(scratch + "/b_crash/chains.jsonl"),
              FleetSlurp(scratch + "/b_twin/chains.jsonl"));
  }
}

// --- Daemon CLI: SIGTERM drain, rolling restart, exit codes ----------------------

namespace {

/// Runs a shell command with all output discarded; returns its exit code,
/// or -1 if the shell itself died to a signal.
int RunShell(const std::string& cmd) {
  const int status =
      std::system(("( " + cmd + " ) >/dev/null 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

TEST(ServeDaemonCliTest, SigtermDrainThenRestartIsByteIdentical) {
  // The rolling-restart contract, end to end against the real binary and
  // real signals, in both isolation modes: SIGTERM mid-fleet exits 0 with
  // a manifest; the restarted daemon resumes from it; the final outputs
  // are byte-identical to a daemon that was never restarted.
  for (const char* iso : {"thread", "process"}) {
    SCOPED_TRACE(iso);
    const std::string scratch =
        FleetTempDir(std::string("daemon_drain_") + iso);
    constexpr int kSessions = 24;
    std::string operands;
    for (int i = 0; i < kSessions; ++i) operands += " " + FleetDatasetDir();
    const auto base = [&](const std::string& state_root,
                          const std::string& manifest) {
      return std::string(DOMINO_BINARY) + " serve" + operands +
             " --isolate " + iso + " --workers 1 --checkpoint-every 2" +
             " --state-root " + state_root + " --manifest " + manifest +
             " --quiet";
    };

    const std::string run = scratch + "/run";
    const std::string twin = scratch + "/twin";
    const std::string manifest = scratch + "/fleet.manifest";
    EXPECT_EQ(RunShell(base(run, manifest) + " --report " + scratch +
                       "/r1.json & pid=$!; sleep 0.15; "
                       "kill -TERM $pid 2>/dev/null; wait $pid"),
              0);
    ASSERT_TRUE(fs::exists(manifest));

    EXPECT_EQ(RunShell(base(run, manifest) + " --report " + scratch +
                       "/r2.json"),
              0);
    EXPECT_EQ(RunShell(base(twin, scratch + "/twin.manifest") +
                       " --report " + scratch + "/rt.json"),
              0);

    EXPECT_EQ(FleetSlurp(scratch + "/r2.json"),
              FleetSlurp(scratch + "/rt.json"));
    for (int i = 0; i < kSessions; ++i) {
      const std::string s = "/s" + std::to_string(i);
      EXPECT_EQ(FleetSlurp(run + s + "/chains.jsonl"),
                FleetSlurp(twin + s + "/chains.jsonl"))
          << s;
      EXPECT_EQ(FleetSlurp(run + s + "/live_report.json"),
                FleetSlurp(twin + s + "/live_report.json"))
          << s;
    }
  }
}

TEST(ServeDaemonCliTest, ExitCodesDistinguishDegradations) {
  const std::string scratch = FleetTempDir("daemon_exit_codes");
  const std::string serve = std::string(DOMINO_BINARY) + " serve ";

  // 0: everything completed cleanly.
  EXPECT_EQ(RunShell(serve + FleetDatasetDir() + " --state-root " +
                     scratch + "/ok --quiet"),
            0);
  // 3: completed, but admission control shed windows (degraded output).
  EXPECT_EQ(RunShell(serve + FleetDatasetDir() + " --state-root " +
                     scratch + "/shed --global-backlog 1 --quiet"),
            3);
  // 4: a session failed terminally (quarantined poison beats shed).
  EXPECT_EQ(RunShell(serve + MakePoisonDir(scratch) + " " +
                     FleetDatasetDir() + " --state-root " + scratch +
                     "/quar --max-attempts 1 --global-backlog 1 --quiet"),
            4);
  // 2: usage errors stay distinct from runtime degradation.
  EXPECT_EQ(RunShell(serve + FleetDatasetDir() + " --isolate carrier"), 2);
}

TEST(ServeDaemonCliTest, ProcessChildrenGetTheOperatorsExactFlagValues) {
  // Both isolation modes must analyse the window the operator typed. A
  // process child that got the value re-formatted (6 significant digits:
  // 5.12346) would checkpoint w=5123460 where a thread session has
  // w=5123456. The failing attempt keeps its checkpoint for inspection.
  const std::string scratch = FleetTempDir("daemon_verbatim_flags");
  for (const char* iso : {"thread", "process"}) {
    SCOPED_TRACE(iso);
    const std::string root = scratch + "/" + iso;
    EXPECT_EQ(RunShell(std::string(DOMINO_BINARY) + " serve " +
                       FleetDatasetDir() + " --isolate " + iso +
                       " --max-attempts 1 --chaos 0:fail:1" +
                       " --checkpoint-every 1 --window 5.123456789" +
                       " --state-root " + root + " --quiet"),
              4);
    const std::string ckpt = FleetSlurp(root + "/s0/live.ckpt");
    EXPECT_NE(ckpt.find(" w=5123456 "), std::string::npos) << ckpt;
  }
}

#if !defined(_WIN32)
TEST(ServeDaemonCliTest, WatchAdmitsLateSessionsAndSurvivesSighup) {
  const std::string scratch = FleetTempDir("daemon_watch");
  const std::string root = scratch + "/root";
  const std::string state = scratch + "/state";
  fs::create_directories(root);
  fs::copy(FleetDatasetDir(), root + "/sess_a",
           fs::copy_options::recursive);

  // One session present at startup; a second appears mid-run and must be
  // admitted by the watch loop without a restart. SIGHUP (re-scan +
  // tunables reload) must be survived, SIGTERM must drain to exit 0.
  std::ofstream(scratch + "/tunables.conf") << "backoff_ms 5\n";
  const std::string cmd =
      std::string(DOMINO_BINARY) + " serve --watch " + root +
      " --state-root " + state + " --scan-interval-ms 25" +
      " --status-file " + scratch + "/status.json --status-interval-ms 25" +
      " --tunables " + scratch + "/tunables.conf" +
      " --report " + scratch + "/rep.json --quiet & pid=$!; " +
      "sleep 0.5; cp -r " + FleetDatasetDir() + " " + root + "/sess_b; " +
      "sleep 1.2; kill -HUP $pid; sleep 0.4; " +
      "kill -TERM $pid; wait $pid";
  EXPECT_EQ(RunShell(cmd), 0);

  const std::string rep = FleetSlurp(scratch + "/rep.json");
  EXPECT_NE(rep.find("\"completed\": 2"), std::string::npos) << rep;
  const std::string status = FleetSlurp(scratch + "/status.json");
  EXPECT_NE(status.find("\"state\": \"stopped\""), std::string::npos)
      << status;
  // Watch mode defaults the drain ledger to <state-root>/fleet.manifest.
  EXPECT_TRUE(fs::exists(state + "/fleet.manifest"));
}
TEST(ShardCliTest, TwoDaemonsSigkillTakeoverIsByteIdentical) {
  // The tentpole contract end to end, against the real binary and a real
  // SIGKILL, in both isolation modes: two sharded daemons split one fleet
  // over a shared state root; one box dies mid-run; the survivor steals
  // the stale leases, resumes the victim's checkpoints, and the merged
  // fleet view plus every per-session output is byte-identical to a
  // single box that was never disturbed.
  for (const char* iso : {"thread", "process"}) {
    SCOPED_TRACE(iso);
    const std::string scratch =
        FleetTempDir(std::string("shard_cli_") + iso);
    constexpr int kSessions = 4;
    // Sharded identity is the dataset path, so each session needs its own
    // dataset copy (the same operand twice would be one unit of work).
    std::string operands;
    for (int i = 0; i < kSessions; ++i) {
      const std::string copy = scratch + "/ds" + std::to_string(i);
      fs::copy(FleetDatasetDir(), copy, fs::copy_options::recursive);
      operands += " " + copy;
    }
    const std::string shared = scratch + "/shared";
    const std::string solo = scratch + "/solo";
    const auto daemon = [&](const std::string& owner,
                            const std::string& root) {
      return std::string(DOMINO_BINARY) + " serve" + operands +
             " --isolate " + iso + " --workers 1 --checkpoint-every 2" +
             " --state-root " + root + " --owner " + owner +
             " --lease-ttl-ms 1000 --heartbeat-ms 100" +
             " --scan-interval-ms 50 --exit-when-idle --quiet";
    };

    EXPECT_EQ(RunShell(daemon("boxb", shared) + " & victim=$!; " +
                       daemon("boxa", shared) + " & survivor=$!; " +
                       "sleep 0.4; kill -KILL $victim 2>/dev/null; " +
                       "wait $survivor"),
              0);
    EXPECT_EQ(RunShell(daemon("boxa", solo)), 0);

    const std::string status = std::string(DOMINO_BINARY) + " fleet-status ";
    EXPECT_EQ(
        RunShell(status + shared + " --out " + scratch + "/merged.json"), 0);
    EXPECT_EQ(RunShell(status + solo + " --out " + scratch + "/solo.json"),
              0);
    const std::string merged = FleetSlurp(scratch + "/merged.json");
    EXPECT_EQ(merged, FleetSlurp(scratch + "/solo.json"));
    EXPECT_NE(merged.find("\"done\": " + std::to_string(kSessions)),
              std::string::npos)
        << merged;

    for (int i = 0; i < kSessions; ++i) {
      const std::string ds = scratch + "/ds" + std::to_string(i);
      EXPECT_EQ(
          FleetSlurp(runtime::SessionStateDirFor(shared, ds) +
                     "/chains.jsonl"),
          FleetSlurp(runtime::SessionStateDirFor(solo, ds) + "/chains.jsonl"))
          << ds;
    }
  }
}
#endif  // !_WIN32
#endif  // DOMINO_BINARY

}  // namespace
}  // namespace domino
