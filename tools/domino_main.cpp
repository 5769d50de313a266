// domino — the command-line tool an operator or researcher runs.
//
// `domino --help` lists every subcommand, operand and flag. It is generated
// from the flag table below, which is also the only parser: each option is
// declared once (shared ones in the analysis/session/run groups) with its
// value kind, bounds, the option field it writes and a one-line help.
// Values go through the strict layer in common/parse.h, so a malformed or
// out-of-range value (`--threads=abc`, `--seed 1e999`), an unknown or
// repeated flag, or a flag missing its value is a usage error (exit 2) with
// a one-line diagnostic, never an exception.
#include "domino_main.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <ranges>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <csignal>
#endif

#include "common/diskfault.h"
#include "common/parse.h"
#include "domino/codegen.h"
#include "domino/config_parser.h"
#include "domino/lint/lint.h"
#include "domino/report.h"
#include "domino/runtime/daemon.h"
#include "domino/runtime/fleet.h"
#include "domino/runtime/shard.h"
#include "domino/runtime/supervisor.h"
#include "sim/live_feed.h"
#include "telemetry/align.h"
#include "sim/call_session.h"
#include "sim/cell_config.h"
#include "telemetry/binfmt.h"
#include "telemetry/fault_inject.h"
#include "telemetry/io.h"
#include "telemetry/sanitize.h"

#ifndef DOMINO_VERSION
#define DOMINO_VERSION "unknown"
#endif

namespace domino::cli {
namespace {

using namespace domino;

// --- The flag table ---------------------------------------------------------

enum class Kind {
  kSwitch,  ///< No value.
  kText,    ///< Any string; commands parse structured specs themselves.
  kNumber,  ///< Finite double.
  kPeriod,  ///< Finite seconds that convert to at least 1 us.
  kInt,     ///< Integer in [lo, hi].
  kUint,    ///< Unsigned 64-bit integer.
  kChoice,  ///< One of the '|'-separated words in `meta`.
  kName,    ///< Letters, digits, '.', '_' and '-' (lands in file names).
};

/// A parsed flag value; only the members of the flag's kind are set.
struct Value {
  std::string text;
  double num = 0;
  Duration dur;  ///< Seconds(num), for kNumber and kPeriod.
  std::int64_t i = 0;
  std::uint64_t u = 0;
};

struct Cli;
using Setter = void (*)(Cli&, const Value&);

struct Flag {
  const char* name;
  Kind kind;
  const char* meta;  ///< Value placeholder in --help.
  const char* help;  ///< nullptr: internal plumbing (one shared help line).
  Setter set = nullptr;                 ///< Field it writes, if any.
  std::int64_t lo = 0, hi = INT64_MAX;  ///< kInt bounds.
};

/// Everything one command line sets. Flags with a setter write straight
/// into these option structs; the rest are read back by name.
struct Cli {
  runtime::LiveOptions live;  ///< live.detector is also analyze's config.
  runtime::FleetOptions fleet;
  runtime::ServeDaemonOptions daemon;
  telemetry::SanitizeOptions sanitize;
  sim::LiveFeedOptions feed;
  analysis::lint::LintOptions lint;
  std::uint64_t seed = 1;
  std::vector<std::string> operands;

  struct Given {
    const Flag* flag;
    Value value;
    std::vector<std::string> tokens;  ///< Exactly as the operator typed them.
  };
  std::vector<Given> given;  ///< In command-line order.

  const Value* Get(std::string_view name) const {
    for (const Given& g : given) {
      if (name == g.flag->name) return &g.value;
    }
    return nullptr;
  }
  bool Has(std::string_view name) const { return Get(name) != nullptr; }
  std::optional<std::string> Text(std::string_view name) const {
    const Value* v = Get(name);
    return v ? std::optional<std::string>(v->text) : std::nullopt;
  }
};

#define SETS(stmt) [](Cli& c, [[maybe_unused]] const Value& v) { c.stmt; }

constexpr std::int64_t kHourMs = 3'600'000;
constexpr std::int64_t kMax = INT64_MAX;

constexpr Flag Switch(const char* name, const char* help, Setter set = {}) {
  return {name, Kind::kSwitch, "", help, set};
}
constexpr Flag Text(const char* name, const char* meta, const char* help,
                    Setter set = {}) {
  return {name, Kind::kText, meta, help, set};
}
constexpr Flag Sec(const char* name, const char* help, Setter set = {}) {
  return {name, Kind::kNumber, "SEC", help, set};
}
constexpr Flag Period(const char* name, const char* help, Setter set = {}) {
  return {name, Kind::kPeriod, "SEC", help, set};
}
constexpr Flag Int(const char* name, std::int64_t lo, std::int64_t hi,
                   const char* help, Setter set = {}) {
  return {name, Kind::kInt, "N", help, set, lo, hi};
}

// Shared by analyze, live and serve (lint takes --window only). Serve
// forwards the ones the operator set to process-isolation children.
constexpr Flag kAnalysisFlags[] = {
    Period("--window", "window length [5]", SETS(live.detector.window = v.dur)),
    Period("--step", "window slide [0.5]", SETS(live.detector.step = v.dur)),
    {"--min-coverage", Kind::kNumber, "X", "coverage a chain needs [0.5]",
     SETS(live.detector.min_coverage = v.num)},
};

// Shared by live and serve; also forwarded to serve's process children.
constexpr Flag kSessionFlags[] = {
    Sec("--chunk-s", "data per poll [2]", SETS(live.chunk = v.dur)),
    Sec("--horizon-s", "history kept [30]", SETS(live.horizon = v.dur)),
    Sec("--stall-deadline-s", "silence that marks a stall [5]",
        SETS(live.stall_deadline = v.dur)),
    Int("--checkpoint-every", 0, kMax, "checkpoint every N windows [8]",
        SETS(live.checkpoint_every_windows = v.i)),
    Int("--max-idle", 0, INT_MAX, "empty polls before a session ends [16]",
        SETS(live.max_idle_polls = v.i)),
    Switch("--naive", "naive detection engine (parity checks)",
           SETS(live.detector.incremental = false)),
};

// Shared by live and serve, not forwarded: the fleet passes its own.
constexpr Flag kRunFlags[] = {
    Int("--max-backlog", 0, kMax, "shed windows past N pending (0 = off)",
        SETS(live.max_backlog_windows = v.i)),
    Switch("--quiet", "no per-poll progress", SETS(live.quiet = true)),
};

constexpr Flag kSeedFlags[] = {
    {"--seed", Kind::kUint, "N", "random seed [1]", SETS(seed = v.u)},
};

constexpr Flag kIngestFlags[] = {
    Switch("--repair", "correct clock skew, write the cleaned dataset",
           SETS(sanitize.correct_skew = true)),
    Text("--out", "DIR", "write the result here [in place]"),
    Text("--inject", "k=v,...", "corrupt the dataset first (keys below)"),
    Sec("--reorder-window", "bounded-reorder window [1]",
        SETS(sanitize.reorder_window = v.dur)),
    Sec("--gap-threshold", "silence reported as a gap [1]",
        SETS(sanitize.gap_threshold = v.dur)),
};

constexpr Flag kAnalyzeFlags[] = {
    Text("--config", "FILE", "extend the default graph (config_parser.h)"),
    Text("--chains-csv", "FILE", "write chain instances"),
    Text("--features-csv", "FILE", "write per-window feature vectors"),
    Text("--json-report", "FILE", "write the JSON report"),
    Switch("--offset-correct", "estimate and remove the remote clock offset"),
    Switch("--strict-lint", "config lint warnings block the run"),
    Switch("--no-lint", "skip config lint (first parse error wins)"),
    Switch("--no-sanitize", "analyse the dataset as loaded"),
};

constexpr Flag kLiveFlags[] = {
    Text("--state", "DIR", "state dir [<dataset>/live_state]"),
    Switch("--follow", "tail a growing capture", SETS(live.follow = true)),
    Switch("--sequential", "run several datasets one at a time"),
    Int("--threads", 0, 4096, "detector threads (0 = all cores)",
        SETS(live.detector.threads = v.i)),
    Int("--crash-after", 0, kMax, "_Exit(137) after the Nth checkpoint",
        SETS(live.crash_after_checkpoints = v.i)),
    // Plumbing for tests and serve's process children (fleet.cpp).
    Int("--poll-sleep-ms", 0, kHourMs, nullptr, SETS(live.poll_sleep_ms = v.i)),
    Int("--max-records", 1, kMax, nullptr, SETS(live.input.max_records = v.i)),
    Int("--chaos-crash", 0, kMax, nullptr, SETS(live.chaos_crash_after = v.i)),
    Int("--chaos-fail", 0, kMax, nullptr, SETS(live.chaos_fail_after = v.i)),
    Int("--chaos-wedge", 0, kMax, nullptr, SETS(live.chaos_wedge_after = v.i)),
    Text("--chaos-disk", "KIND:N", nullptr),
    Text("--fence-lease", "DIR", nullptr, SETS(live.fence_lease_dir = v.text)),
    {"--fence-token", Kind::kUint, "N", nullptr, SETS(live.fence_token = v.u)},
};

constexpr Flag kServeFlags[] = {
    Int("--workers", 0, 4096, "worker pool size (0 = auto)",
        SETS(fleet.workers = v.i)),
    Int("--max-attempts", 1, 1000, "attempts before quarantine [3]",
        SETS(fleet.max_attempts = v.i)),
    Int("--backoff-ms", 0, kHourMs, "first retry backoff [200]",
        SETS(fleet.backoff_ms = v.i)),
    Int("--backoff-cap-ms", 0, kHourMs, "backoff cap [5000]",
        SETS(fleet.backoff_cap_ms = v.i)),
    Int("--global-backlog", 0, kMax, "fleet-wide backlog cap (0 = off)",
        SETS(fleet.global_backlog_windows = v.i)),
    Sec("--session-deadline-s", "attempt deadline (0 = none)",
        SETS(fleet.session_deadline_s = v.num)),
    {"--isolate", Kind::kChoice, "thread|process", "fault domain per attempt",
     SETS(fleet.isolate = v.text == "process"
                              ? runtime::IsolationMode::kProcess
                              : runtime::IsolationMode::kThread)},
    Text("--exec", "FILE", "binary for process children [this binary]",
         SETS(fleet.exec_path = v.text)),
    Text("--state-root", "DIR", "session i keeps its state in DIR/s<i>",
         SETS(daemon.state_root = v.text)),
    Text("--report", "FILE", "also write the JSON fleet report"),
    Text("--chaos", "idx:kind:N,...", "inject faults (kinds below)"),
    Text("--tenant-backlog", "t=N,...", "per-tenant backlog caps"),
    Text("--tenant-max-records", "t=N,...", "per-tenant record caps"),
    Switch("--watch", "operands are roots", SETS(daemon.watch = true)),
    Switch("--exit-when-idle", "watch: exit once every session is terminal",
           SETS(daemon.exit_when_idle = true)),
    Int("--scan-interval-ms", 1, kHourMs, "watch re-scan period [500]",
        SETS(daemon.scan_interval_ms = v.i)),
    Text("--manifest", "FILE", "drain/resume ledger",
         SETS(daemon.manifest_path = v.text)),
    Text("--status-file", "FILE", "liveness JSON, rewritten periodically",
         SETS(daemon.status_path = v.text)),
    Int("--status-interval-ms", 1, kHourMs, "status period [1000]",
        SETS(daemon.status_interval_ms = v.i)),
    Text("--tunables", "FILE", "settings reloaded on SIGHUP",
         SETS(daemon.tunables_path = v.text)),
    Int("--drain-grace-ms", 0, kHourMs, "SIGTERM drain grace [5000]",
        SETS(daemon.drain_grace_ms = v.i)),
    {"--owner", Kind::kName, "ID", "this box's id in a sharded fleet",
     SETS(daemon.owner = v.text)},
    Int("--lease-ttl-ms", 1, kHourMs, "heartbeat age of a dead box [15000]",
        SETS(daemon.lease_ttl_ms = v.i)),
    Int("--heartbeat-ms", 1, kHourMs, "lease renewal period [ttl/4]",
        SETS(daemon.heartbeat_ms = v.i)),
};

constexpr Flag kReplayFlags[] = {
    Int("--interval-ms", 0, kHourMs, "sleep between chunks (0 = all at once)"),
    Int("--chunk-ms", 1, kMax / 1000, "virtual time per chunk [500]",
        SETS(feed.chunk = Millis(v.i))),
    Text("--stall", "stream=SEC", "withhold one stream from SEC on"),
};

constexpr Flag kFleetStatusFlags[] = {
    Switch("--owners", "add per-box attribution"),
    Text("--out", "FILE", "write the JSON here instead of stdout"),
};

constexpr Flag kConvertFlags[] = {
    {"--to", Kind::kChoice, "bin|csv", "output format [bin]"},
};

constexpr Flag kCodegenFlags[] = {
    Text("-o", "FILE", "write here instead of stdout"),
};

constexpr Flag kLintFlags[] = {
    Switch("--strict", "warnings count as errors"),
    {"--format", Kind::kChoice, "text|json", "report format [text]"},
    Switch("--no-default-graph", "lint the config stand-alone",
           SETS(lint.use_default_graph = false)),
    Switch("--no-verify", "skip DL401-DL407", SETS(lint.verify = false)),
};

#undef SETS

bool Declares(std::span<const Flag> group, const Flag* f) {
  for (const Flag& g : group) {
    if (&g == f) return true;
  }
  return false;
}

// --- Shared helpers ---------------------------------------------------------

/// A usage failure: one printf-style diagnostic line on stderr, exit code 2.
[[gnu::format(printf, 1, 2)]] int Refuse(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  return 2;
}

/// The canonical strict-flag failure: one-line diagnostic, exit code 2.
int BadFlag(const char* flag, const std::string& value, const char* want) {
  return Refuse("domino: invalid value '%s' for %s (want %s)", value.c_str(),
                flag, want);
}

std::optional<sim::CellProfile> CellByName(const std::string& name) {
  if (name == "tmobile-fdd15") return sim::TMobileFdd15();
  if (name == "tmobile-tdd100") return sim::TMobileTdd100();
  if (name == "amarisoft") return sim::Amarisoft();
  if (name == "mosolabs") return sim::Mosolabs();
  if (name == "wired") return sim::WiredBaseline();
  return std::nullopt;
}

int CmdSimulate(Cli& c, const MainOptions& mo) {
  const auto& args = c.operands;
  auto profile = CellByName(args[0]);
  if (!profile.has_value()) return Refuse("unknown cell '%s'", args[0].c_str());
  double seconds = 0;
  if (!ParseFinite(args[1], seconds) || seconds < 0) {
    return BadFlag("<seconds>", args[1], "a non-negative finite number");
  }
  const std::string& out_dir = args[2];
  if (mo.dry_run) return 0;

  std::printf("simulating %.0f s over '%s' (seed %llu)...\n", seconds,
              profile->name.c_str(), static_cast<unsigned long long>(c.seed));
  sim::SessionConfig cfg;
  cfg.profile = *profile;
  cfg.duration = Seconds(seconds);
  cfg.seed = c.seed;
  telemetry::SessionDataset ds = sim::CallSession(cfg).Run();
  telemetry::SaveDataset(ds, out_dir);
  std::printf("wrote %zu DCIs, %zu packets, %zu gNB log rows, %zu+%zu stats "
              "rows to %s/\n", ds.dci.size(), ds.packets.size(),
              ds.gnb_log.size(), ds.stats[0].size(), ds.stats[1].size(),
              out_dir.c_str());
  return 0;
}

/// The non-empty items of a comma-separated list.
std::vector<std::string> SplitList(const std::string& list) {
  std::vector<std::string> items;
  std::stringstream ss(list);
  for (std::string item; std::getline(ss, item, ',');) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

/// Writes `text` to `path`; false (with a message on stderr) on failure.
bool WriteOrComplain(const char* who, const std::string& path,
                     const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "%s: cannot write %s\n", who, path.c_str());
    return false;
  }
  f << text;
  return true;
}

/// Reads a whole file; nullopt (with a message on stderr) when unreadable.
std::optional<std::string> ReadFileOrComplain(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open config '%s'\n", path.c_str());
    return std::nullopt;
  }
  return std::string(std::istreambuf_iterator<char>(f), {});
}

int CmdLint(Cli& c, const MainOptions& mo) {
  const std::string& path = c.operands[0];
  if (mo.dry_run) return 0;
  auto text = ReadFileOrComplain(path);
  if (!text.has_value()) return 2;

  if (c.Has("--window")) {
    c.lint.verify_options.window_ms = c.live.detector.window.millis();
  }
  auto res = analysis::lint::LintConfigText(*text, c.lint);
  if (c.Has("--strict")) analysis::lint::PromoteWarnings(res.sink);

  if (c.Text("--format") == "json") {
    std::fputs(analysis::lint::FormatDiagnosticsJson(res.sink).c_str(),
               stdout);
  } else if (res.sink.empty()) {
    std::printf("%s: no issues\n", path.c_str());
  } else {
    std::fputs(
        analysis::lint::RenderDiagnostics(res.sink, *text, path).c_str(),
        stdout);
  }
  // Exit code mirrors the highest severity: 0 clean, 1 warnings, 2 errors.
  return static_cast<int>(res.sink.max_severity());
}

/// Parses the --inject "key=value,key=value" fault spec; nullopt (with a
/// message on stderr) on an unknown key or malformed pair.
std::optional<telemetry::FaultSpec> ParseFaultSpec(const std::string& spec) {
  using F = telemetry::FaultSpec;
  static constexpr std::pair<const char*, double F::*> kKeys[] = {
      {"drop", &F::drop}, {"dup", &F::duplicate}, {"duplicate", &F::duplicate},
      {"reorder", &F::reorder}, {"corrupt", &F::corrupt_time},
      {"truncate", &F::truncate_tail}, {"gap-at", &F::gap_at},
      {"skew-ms", &F::skew_ms}, {"drift-ppm", &F::drift_ppm}};
  F fs;
  for (const std::string& kv : SplitList(spec)) {
    auto eq = kv.find('=');
    if (eq == std::string::npos) {
      Refuse("bad fault spec '%s' (want key=value)", kv.c_str());
      return std::nullopt;
    }
    const std::string key = kv.substr(0, eq);
    const std::string text = kv.substr(eq + 1);
    double val = 0;
    if (!ParseFinite(text, val)) {
      Refuse("bad fault value '%s' for key '%s' (want a finite number)",
             text.c_str(), key.c_str());
      return std::nullopt;
    }
    const auto* k = std::find_if(std::begin(kKeys), std::end(kKeys),
                                 [&](const auto& e) { return key == e.first; });
    if (key == "reorder-span-ms") {
      fs.reorder_span = Seconds(val / 1000.0);
    } else if (key == "gap-s") {
      fs.gap = Seconds(val);
    } else if (k != std::end(kKeys)) {
      fs.*(k->second) = val;
    } else {
      Refuse("unknown fault key '%s' (known: drop dup reorder "
             "reorder-span-ms corrupt truncate gap-s gap-at skew-ms "
             "drift-ppm)",
             key.c_str());
      return std::nullopt;
    }
  }
  return fs;
}

int CmdIngest(Cli& c, const MainOptions& mo) {
  const std::string& dir = c.operands[0];
  const auto out_dir = c.Text("--out");
  const auto inject = c.Text("--inject");
  const bool repair = c.Has("--repair");
  const auto fault = inject ? ParseFaultSpec(*inject) : std::nullopt;
  if (inject && !fault) return 2;
  if (mo.dry_run) return 0;

  telemetry::DatasetLoadReport load;
  telemetry::SessionDataset ds = telemetry::LoadDataset(dir, &load);
  std::printf("loaded dataset '%s' (%s, %.0f s, %zu DCIs, %zu packets)\n",
              dir.c_str(), ds.cell_name.c_str(), ds.duration().seconds(),
              ds.dci.size(), ds.packets.size());
  if (!load.ok()) std::fputs(load.Format().c_str(), stdout);

  if (fault) {
    const auto injected = telemetry::InjectFaults(ds, *fault, c.seed);
    std::printf("injected %zu faults (seed %llu)\n", injected.total(),
                static_cast<unsigned long long>(c.seed));
    // Without --repair, --out captures the *corrupted* dataset (before the
    // sanitize pass below) — a reproducible hostile fixture for tests.
    if (!repair && out_dir) {
      telemetry::SaveDataset(ds, *out_dir);
      std::printf("corrupted dataset written to %s/\n", out_dir->c_str());
    }
  }

  telemetry::SanitizeReport health = telemetry::SanitizeDataset(ds, c.sanitize);
  telemetry::MergeLoadReport(health, load);
  std::fputs(health.Format().c_str(), stdout);

  if (repair) {
    const std::string& dest = out_dir ? *out_dir : dir;
    telemetry::SaveDataset(ds, dest);
    std::printf("repaired dataset written to %s/\n", dest.c_str());
  } else if (out_dir && !inject) {
    telemetry::SaveDataset(ds, *out_dir);
    std::printf("sanitized dataset written to %s/\n", out_dir->c_str());
  }
  return health.clean() ? 0 : 1;
}

int CmdAnalyze(Cli& c, const MainOptions& mo) {
  const std::string& dir = c.operands[0];
  if (mo.dry_run) return 0;

  telemetry::DatasetLoadReport load;
  telemetry::SessionDataset ds = telemetry::LoadDataset(dir, &load);
  std::optional<telemetry::SanitizeReport> health;
  if (!c.Has("--no-sanitize")) {
    health = telemetry::SanitizeDataset(ds);
    telemetry::MergeLoadReport(*health, load);
  }
  if (c.Has("--offset-correct")) {
    double offset_ms = telemetry::EstimateClockOffsetMs(ds);
    telemetry::AlignClocks(ds, offset_ms);
    std::printf("clock-offset correction applied: remote clock estimated "
                "%+.1f ms ahead\n", offset_ms);
  }
  std::printf("loaded dataset '%s' (%s, %.0f s, %zu DCIs, %zu packets)\n",
              dir.c_str(), ds.cell_name.c_str(), ds.duration().seconds(),
              ds.dci.size(), ds.packets.size());
  // Stream-health details only surface when something was actually wrong,
  // keeping clean-trace output identical to historical runs.
  if (health.has_value() && !health->clean()) {
    std::fputs(health->Format().c_str(), stdout);
  }

  analysis::DominoConfig& cfg = c.live.detector;
  using LintMode = analysis::DominoConfig::LintMode;
  cfg.lint = c.Has("--no-lint")       ? LintMode::kOff
             : c.Has("--strict-lint") ? LintMode::kStrict
                                      : LintMode::kPermissive;

  analysis::CausalGraph graph = analysis::CausalGraph::Default(cfg.thresholds);
  if (const auto config_path = c.Text("--config")) {
    auto text = ReadFileOrComplain(*config_path);
    if (!text.has_value()) return 2;
    if (cfg.lint == LintMode::kOff) {
      analysis::ExtendGraph(graph, analysis::ParseConfigText(*text),
                            cfg.thresholds);
    } else {
      c.lint.thresholds = cfg.thresholds;
      // DL407 sample budgets should reflect the window actually analysed.
      c.lint.verify_options.window_ms = cfg.window.millis();
      auto lres = analysis::lint::LintConfigText(*text, c.lint);
      if (cfg.lint == LintMode::kStrict) {
        analysis::lint::PromoteWarnings(lres.sink);
      }
      if (!lres.sink.empty()) {
        const std::string rendered =
            analysis::lint::RenderDiagnostics(lres.sink, *text, *config_path);
        std::fputs(rendered.c_str(), stderr);
      }
      if (lres.sink.has_errors()) return 1;
      analysis::ExtendGraph(graph, lres.config, cfg.thresholds);
    }
    std::printf("extended causal graph from %s\n", config_path->c_str());
  }

  analysis::Detector detector(std::move(graph), cfg);
  telemetry::DerivedTrace trace = telemetry::BuildDerivedTrace(ds);
  if (health.has_value()) trace.quality = health->quality();
  analysis::AnalysisResult result = detector.Analyze(trace);

  const telemetry::SanitizeReport* health_ptr = health ? &*health : nullptr;
  std::printf("\n%s",
              analysis::BuildSummaryReport(result, detector, health_ptr)
                  .c_str());

  if (const auto path = c.Text("--json-report")) {
    std::ofstream f(*path);
    f << analysis::BuildReportJson(result, detector, health_ptr);
    std::printf("\nJSON report written to %s\n", path->c_str());
  }
  if (const auto path = c.Text("--chains-csv")) {
    std::ofstream f(*path);
    analysis::WriteChainsCsv(f, result, detector);
    std::printf("\nchain instances written to %s\n", path->c_str());
  }
  if (const auto path = c.Text("--features-csv")) {
    std::ofstream f(*path);
    analysis::WriteFeaturesCsv(f, result);
    std::printf("feature vectors written to %s\n", path->c_str());
  }
  return 0;
}

/// Parses the `--stall stream=SEC` spec for `domino replay`.
std::optional<std::pair<telemetry::StreamId, double>> ParseStallSpec(
    const std::string& spec) {
  auto eq = spec.find('=');
  if (eq == std::string::npos) {
    Refuse("bad stall spec '%s' (want stream=SEC)", spec.c_str());
    return std::nullopt;
  }
  std::string name = spec.substr(0, eq);
  if (name == "gnb") name = "gnb_log";
  double sec = 0;
  if (!ParseFinite(spec.substr(eq + 1), sec)) {
    Refuse("bad stall time '%s' (want a finite number)",
           spec.substr(eq + 1).c_str());
    return std::nullopt;
  }
  for (std::size_t i = 0; i < telemetry::kStreamCount; ++i) {
    const auto id = static_cast<telemetry::StreamId>(i);
    if (name == telemetry::StreamName(id)) return std::make_pair(id, sec);
  }
  Refuse("unknown stream '%s' (known: dci gnb_log packets stats_ue "
         "stats_remote)",
         spec.substr(0, eq).c_str());
  return std::nullopt;
}

int CmdReplay(Cli& c, const MainOptions& mo) {
  const auto& args = c.operands;
  const auto stall = c.Text("--stall");
  const auto stall_spec = stall ? ParseStallSpec(*stall) : std::nullopt;
  if (stall && !stall_spec) return 2;
  if (mo.dry_run) return 0;

  telemetry::SessionDataset ds = telemetry::LoadDataset(args[0]);
  if (stall_spec) {
    c.feed.stall_after[static_cast<std::size_t>(stall_spec->first)] =
        ds.begin + Seconds(stall_spec->second);
  }
  const Value* interval = c.Get("--interval-ms");
  const int sleep_ms = interval ? static_cast<int>(interval->i) : 0;

  sim::LiveFeedWriter writer(ds, args[1], c.feed);
  std::printf("replaying %s (%.0f s) into %s, %lld ms chunks...\n",
              args[0].c_str(), ds.duration().seconds(), args[1].c_str(),
              static_cast<long long>(c.feed.chunk.micros() / 1000));
  while (writer.Step()) {
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }
  std::printf("replay complete at t=%.1f s\n",
              (writer.cursor() - ds.begin).seconds());
  return 0;
}

// Graceful-shutdown mailboxes. The handlers only bump atomics; the serve
// daemon's helper thread and the live runner's drain token poll them.
std::atomic<int> g_term_signals{0};
std::atomic<int> g_hup_signals{0};
std::atomic<bool> g_live_drain{false};

#if !defined(_WIN32)
void OnSignal(int sig) {
  if (sig == SIGHUP) {
    g_hup_signals.fetch_add(1, std::memory_order_relaxed);
  } else {
    g_term_signals.fetch_add(1, std::memory_order_relaxed);
    g_live_drain.store(true, std::memory_order_relaxed);
  }
}

void InstallSignalHandlers(bool with_hup) {
  struct sigaction sa {};
  sa.sa_handler = OnSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  if (with_hup) ::sigaction(SIGHUP, &sa, nullptr);
}
#endif

int CmdLive(Cli& c, const MainOptions& mo) {
  const auto& args = c.operands;
  runtime::LiveOptions& opts = c.live;
  const auto state_dir = c.Text("--state");
  if (state_dir && args.size() > 1) {
    return Refuse("--state needs a single dataset dir (got %zu); multiple "
                  "sessions use <dataset>/live_state",
                  args.size());
  }
  // Sharded fencing (shard.h): a process-isolation serve child proves this
  // lease token before every durable write; a stolen lease exits 76.
  const bool fenced = c.Has("--fence-lease");
  if (fenced != (opts.fence_token > 0)) {
    return Refuse("--fence-lease and --fence-token (>= 1) go together");
  }
  if (fenced && args.size() > 1) {
    return Refuse("--fence-lease covers a single session (got %zu datasets)",
                  args.size());
  }
  if (const auto disk = c.Text("--chaos-disk");
      disk && !ParseDiskFaultSpec(*disk, &opts.disk_fault)) {
    return BadFlag("--chaos-disk", *disk,
                   "enospc:N, eio:N, short:N, rename:N or fsync:N "
                   "with N >= 1");
  }
  if (mo.dry_run) return 0;

#if !defined(_WIN32)
  // SIGTERM/SIGINT drain: stop at the next poll boundary, write a drain
  // checkpoint, and exit 75 (EX_TEMPFAIL) so a supervisor — the fleet's
  // process isolation, or systemd — knows the run is resumable.
  InstallSignalHandlers(/*with_hup=*/false);
  opts.drain = &g_live_drain;
#endif

  std::vector<runtime::SessionSpec> specs(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    specs[i].dataset_dir = args[i];
    specs[i].state_dir = state_dir.value_or("");
  }
  const bool parallel = !c.Has("--sequential") && specs.size() > 1;
  std::vector<runtime::SessionOutcome> outcomes = runtime::RunSessions(
      specs, analysis::CausalGraph::Default(opts.detector.thresholds), opts,
      parallel);

  int failures = 0;
  int fenced_stops = 0;
  bool drained = false;
  for (const auto& o : outcomes) {
    if (!o.ok) {
      ++failures;
      if (o.error.rfind("fenced", 0) == 0) ++fenced_stops;
      std::printf("live %s: FAILED: %s\n", o.dataset_dir.c_str(),
                  o.error.c_str());
      continue;
    }
    const auto& s = o.summary;
    if (s.drained) drained = true;
    std::printf("live %s: %ld windows, %ld chains (%ld insufficient), "
                "%ld checkpoints%s%s%s\n",
                o.dataset_dir.c_str(), s.windows, s.chains,
                s.insufficient_chains, s.checkpoints,
                s.resumed ? ", resumed" : "",
                s.drained ? ", DRAINED (resumable)" : "",
                s.stalled_streams > 0 ? ", stalled streams at end" : "");
    std::printf("  report: %s\n  chains: %s\n", s.report_path.c_str(),
                s.chains_path.c_str());
  }
  // 76: every failure was a fencing stop — the session lease was stolen
  // and this process wrote nothing further. The parent supervisor records
  // the session as fenced (terminal here, finished by the new owner).
  if (failures != 0) return failures == fenced_stops ? 76 : 1;
  // EX_TEMPFAIL: everything checkpointed cleanly but the run was stopped
  // by a signal — rerunning the same command resumes byte-identically.
  return drained ? 75 : 0;
}

/// Parses the `--chaos idx:kind:N,...` fault schedule for `domino serve`
/// (kinds: crash fail wedge). Returns false with a message on stderr.
bool ParseChaosSpec(const std::string& spec, std::size_t sessions,
                    std::vector<runtime::SessionChaos>* out) {
  out->assign(sessions, runtime::SessionChaos{});
  for (const std::string& item : SplitList(spec)) {
    const auto c1 = item.find(':');
    const auto c2 = c1 == std::string::npos ? c1 : item.find(':', c1 + 1);
    std::int64_t idx = 0, n = 0;
    if (c1 == std::string::npos || c2 == std::string::npos ||
        !ParseInt64In(item.substr(0, c1), 0,
                      static_cast<std::int64_t>(sessions) - 1, idx) ||
        !ParseInt64In(item.substr(c2 + 1), 1, INT64_MAX, n)) {
      Refuse("bad chaos spec '%s' (want idx:kind:N with idx < %zu, kind "
             "crash|fail|wedge, N >= 1)",
             item.c_str(), sessions);
      return false;
    }
    const std::string kind = item.substr(c1 + 1, c2 - c1 - 1);
    runtime::SessionChaos& c = (*out)[static_cast<std::size_t>(idx)];
    if (kind == "crash") {
      c.crash_after = static_cast<long>(n);
    } else if (kind == "fail") {
      c.fail_after = static_cast<long>(n);
    } else if (kind == "wedge") {
      c.wedge_after = static_cast<long>(n);
    } else if (kind.rfind("disk-", 0) == 0 &&
               ParseDiskFaultSpec(kind.substr(5) + ":1", &c.disk)) {
      c.disk.at_write = static_cast<long>(n);  // N may exceed :N's cap
    } else {
      Refuse("unknown chaos kind '%s' (known: crash fail wedge disk-enospc "
             "disk-eio disk-short disk-rename disk-fsync)",
             kind.c_str());
      return false;
    }
  }
  return true;
}

/// Applies a `--tenant-* name=N,name=N` budget list, if given, to each
/// named tenant's budget with `set`; false on bad syntax.
bool ParseTenantBudgets(const Cli& c, const char* flag,
                        std::map<std::string, runtime::TenantBudget>* out,
                        void (*set)(runtime::TenantBudget&, long)) {
  for (const std::string& item : SplitList(c.Text(flag).value_or(""))) {
    const auto eq = item.find('=');
    std::int64_t v = 0;
    if (eq == std::string::npos || eq == 0 ||
        !ParseInt64In(item.substr(eq + 1), 1, INT64_MAX, v)) {
      Refuse("bad %s entry '%s' (want tenant=N)", flag, item.c_str());
      return false;
    }
    set((*out)[item.substr(0, eq)], v);
  }
  return true;
}

int CmdServe(Cli& c, const MainOptions& mo) {
  const auto& args = c.operands;
  runtime::LiveOptions& opts = c.live;
  runtime::FleetOptions& fopts = c.fleet;
  runtime::ServeDaemonOptions& dopts = c.daemon;
  const bool rooted = c.Has("--state-root");
  // Sharded fleet: --owner names this box; sessions are then claimed via
  // leases under <state-root>/shard (shard.h) before admission.
  const bool sharded = c.Has("--owner");
#if defined(_WIN32)
  if (dopts.watch) return Refuse("serve: --watch needs POSIX signals");
#endif
  if (sharded && (dopts.owner.empty() || !rooted)) {
    return Refuse("serve: --owner needs a non-empty box id and --state-root "
                  "(the shared filesystem root)");
  }
  if ((c.Has("--lease-ttl-ms") || c.Has("--heartbeat-ms")) && !sharded) {
    return Refuse("serve: --lease-ttl-ms/--heartbeat-ms only apply with "
                  "--owner (sharded mode)");
  }

  // Operands are <dir> or <tenant>=<dir>; --state-root gives session i the
  // state directory <root>/s<i> (default: <dataset>/live_state). With
  // --watch the operands are roots instead: sessions are discovered under
  // them at runtime (untenanted, state dir derived from the dataset path).
  const auto chaos_spec = c.Text("--chaos");
  std::vector<runtime::SessionSpec> specs;
  if (dopts.watch) {
    if (chaos_spec) {
      return Refuse("serve: --chaos needs a fixed session list; it cannot "
                    "index runtime-discovered sessions (drop --watch or "
                    "--chaos)");
    }
    dopts.watch_roots = args;
  } else {
    for (std::size_t i = 0; i < args.size(); ++i) {
      runtime::SessionSpec spec;
      const auto eq = args[i].find('=');
      const bool tenanted = eq != std::string::npos && eq > 0;
      spec.tenant = tenanted ? args[i].substr(0, eq) : "";
      spec.dataset_dir = tenanted ? args[i].substr(eq + 1) : args[i];
      if (spec.dataset_dir.empty()) {
        return Refuse("serve: empty dataset dir in '%s'", args[i].c_str());
      }
      if (rooted) {
        // Sharded boxes must agree on the dataset->state mapping whatever
        // order (or subset) of operands each was started with, so they use
        // the stable path-hash mapping instead of the positional s<i>.
        spec.state_dir =
            sharded ? runtime::SessionStateDirFor(dopts.state_root,
                                                  spec.dataset_dir)
                    : dopts.state_root + "/s" + std::to_string(i);
      }
      specs.push_back(std::move(spec));
    }
  }

  if (chaos_spec &&
      !ParseChaosSpec(*chaos_spec, specs.size(), &fopts.chaos)) {
    return 2;
  }
  using Budget = runtime::TenantBudget;
  if (!ParseTenantBudgets(c, "--tenant-backlog", &fopts.tenants,
                          [](Budget& b, long v) { b.backlog_windows = v; }) ||
      !ParseTenantBudgets(c, "--tenant-max-records", &fopts.tenants,
                          [](Budget& b, long v) {
                            b.input.max_records = v;
                            b.has_input = true;
                          })) {
    return 2;
  }

  fopts.quiet = opts.quiet;
  opts.quiet = true;  // Per-poll chatter from N sessions is noise.

  if (fopts.isolate == runtime::IsolationMode::kProcess) {
    if (!c.Has("--exec")) {
#if defined(__linux__)
      fopts.exec_path = "/proc/self/exe";
#else
      return Refuse("serve: --isolate process needs --exec <domino binary> "
                    "on this platform");
#endif
    }
    // Children must analyse with the exact same configuration, or their
    // checkpoints would be fingerprint-incompatible across attempts: they
    // get the operator's own tokens, never a re-formatted value.
    for (const Cli::Given& g : c.given) {
      if (Declares(kAnalysisFlags, g.flag) || Declares(kSessionFlags, g.flag)) {
        fopts.child_args.insert(fopts.child_args.end(), g.tokens.begin(),
                                g.tokens.end());
      }
    }
  }
  if (mo.dry_run) return 0;

  // Serve owns its sessions end to end, so successful ones do not need
  // their checkpoints after the run (standalone `domino live` keeps them
  // for resume-across-growth).
  fopts.gc_checkpoints = true;

  const bool default_manifest = !c.Has("--manifest");
  if (default_manifest && sharded) {
    // Sharded boxes write per-owner manifests on the shared root — they
    // must not clobber each other's, and `domino fleet-status` merges all
    // of them.
    dopts.manifest_path =
        dopts.state_root + "/fleet-" + dopts.owner + ".manifest";
  } else if (default_manifest && dopts.watch && rooted) {
    // Only watch mode defaults to a manifest: a plain batch serve must not
    // silently resume from an earlier run's ledger.
    dopts.manifest_path = dopts.state_root + "/fleet.manifest";
  }
#if !defined(_WIN32)
  InstallSignalHandlers(/*with_hup=*/true);
  dopts.term_signals = &g_term_signals;
  dopts.hup_signals = &g_hup_signals;
#endif

  analysis::CausalGraph graph =
      analysis::CausalGraph::Default(opts.detector.thresholds);
  runtime::ServeDaemonResult dres =
      runtime::RunServeDaemon(std::move(specs), std::move(graph),
                              std::move(opts), std::move(fopts), dopts);
  if (dres.fatal) {
    std::fprintf(stderr, "serve: %s\n", dres.error.c_str());
    return 1;
  }
  const runtime::FleetReport& report = dres.report;

  std::fputs(runtime::FormatFleetReportText(report).c_str(), stdout);
  if (const auto path = c.Text("--report")) {
    const std::string json = runtime::BuildFleetReportJson(report);
    if (!WriteOrComplain("serve", *path, json)) return 2;
    std::printf("JSON report written to %s\n", path->c_str());
  }
  // Exit codes (documented in --help): a drain is a clean stop — the
  // manifest carries the rest; otherwise quarantines trump shedding.
  // Fenced sessions are not failures either: another box finished them.
  if (report.drained) return 0;
  for (const auto& o : report.outcomes) {
    if (!o.ok && !o.fenced) return 4;
  }
  if (report.total_shed_windows > 0) return 3;
  return 0;
}

int CmdFleetStatus(Cli& c, const MainOptions& mo) {
  if (mo.dry_run) return 0;

  runtime::FleetStatusView view;
  std::string err;
  if (!runtime::CollectFleetStatus(c.operands[0], &view, &err)) {
    std::fprintf(stderr, "fleet-status: %s\n", err.c_str());
    return 1;
  }
  const std::string json =
      runtime::BuildFleetStatusJson(view, c.Has("--owners"));
  if (const auto path = c.Text("--out")) {
    if (!WriteOrComplain("fleet-status", *path, json)) return 2;
  } else {
    std::fputs(json.c_str(), stdout);
  }
  // 0 = everything terminal and clean, 3 = some session still open,
  // 4 = some session quarantined (mirrors serve's degraded/failed codes).
  bool open = false, quarantined = false;
  for (const auto& s : view.sessions) {
    if (s.status == 0 || s.status == 3) open = true;
    if (s.status == 2) quarantined = true;
  }
  if (quarantined) return 4;
  return open ? 3 : 0;
}

int CmdConvert(Cli& c, const MainOptions& mo) {
  const bool to_bin = c.Text("--to").value_or("bin") == "bin";
  const std::string& in_dir = c.operands[0];
  const std::string& out_dir = c.operands[1];
  if (mo.dry_run) return 0;

  telemetry::DatasetLoadReport report;
  telemetry::SessionDataset ds = telemetry::LoadDataset(in_dir, &report);
  if (!report.ok()) {
    std::fprintf(stderr, "%s: load problems:\n%s", in_dir.c_str(),
                 report.Format().c_str());
  }
  std::string out_path;
  if (to_bin) {
    if (!telemetry::SaveDatasetBinary(ds, out_dir)) {
      std::fprintf(stderr, "cannot write %s/%s\n", out_dir.c_str(),
                   telemetry::kBinaryDatasetFile);
      return 1;
    }
    out_path = out_dir + "/" + telemetry::kBinaryDatasetFile;
  } else {
    telemetry::SaveDataset(ds, out_dir);
    out_path = out_dir + "/ (CSV bundle)";
  }
  std::printf("converted %s -> %s: %zu DCIs, %zu packets, %zu gNB log rows, "
              "%zu+%zu stats rows\n", in_dir.c_str(), out_path.c_str(),
              ds.dci.size(), ds.packets.size(), ds.gnb_log.size(),
              ds.stats[0].size(), ds.stats[1].size());
  return report.ok() ? 0 : 1;
}

int CmdCodegen(Cli& c, const MainOptions& mo) {
  if (mo.dry_run) return 0;
  const auto text = ReadFileOrComplain(c.operands[0]);
  if (!text.has_value()) return 2;
  std::string python =
      analysis::GeneratePython(analysis::ParseConfigText(*text));
  if (const auto out = c.Text("-o")) {
    std::ofstream o(*out);
    o << python;
    std::printf("wrote %zu bytes of Python to %s\n", python.size(),
                out->c_str());
  } else {
    std::fputs(python.c_str(), stdout);
  }
  return 0;
}

// --- Subcommands, --help and the parser -------------------------------------

struct Command {
  const char* name;
  const char* operands;
  std::size_t min_operands, max_operands;
  const char* about;
  std::vector<std::span<const Flag>> flags;
  int (*run)(Cli&, const MainOptions&);
  const char* notes = nullptr;  ///< Free text after the flag lines.
};

constexpr std::size_t kMany = SIZE_MAX;

const std::vector<Command> kCommands = {
    {"simulate", "<cell> <seconds> <out_dir>", 3, 3,
     "simulate a two-party call over a modelled cell into a dataset",
     {kSeedFlags}, CmdSimulate,
     "    cells: tmobile-fdd15 tmobile-tdd100 amarisoft mosolabs wired\n"},
    {"ingest", "<dataset_dir>", 1, 1,
     "sanitize a dataset and print per-stream health (exit 1 if degraded)",
     {kIngestFlags, kSeedFlags}, CmdIngest,
     "    Inject keys: drop dup reorder reorder-span-ms corrupt truncate\n"
     "    gap-s gap-at skew-ms drift-ppm.\n"},
    {"analyze", "<dataset_dir>", 1, 1,
     "run the causal-chain analysis over a saved dataset",
     {kAnalysisFlags, kAnalyzeFlags}, CmdAnalyze},
    {"live", "<dataset_dir>...", 1, kMany,
     "crash-safe live analysis of growing captures, resumable after a kill",
     {kAnalysisFlags, kSessionFlags, kRunFlags, kLiveFlags}, CmdLive},
    {"serve", "<dir | tenant=dir>...", 1, kMany,
     "supervised fleet: retry, quarantine, drain and shard many sessions",
     {kAnalysisFlags, kSessionFlags, kRunFlags, kServeFlags}, CmdServe,
     "    With --watch the operands are roots: a subdirectory becomes a\n"
     "    session once its meta.csv parses. SIGTERM/SIGINT drain\n"
     "    (checkpoint + manifest, exit 0); SIGHUP re-scans the roots and\n"
     "    reloads the tunables file. Chaos kinds: crash fail wedge disk-\n"
     "    enospc disk-eio disk-short disk-rename disk-fsync.\n"
     "    With an owner id, daemons on many boxes sharing one state root\n"
     "    run one fleet: sessions are claimed by fencing-token leases, and\n"
     "    a box whose heartbeat goes stale has its sessions resumed\n"
     "    elsewhere from their checkpoints; its own stolen sessions end\n"
     "    'fenced', not failed.\n"
     "    Exit codes: 0 completed (or clean drain), 2 usage error, 3\n"
     "    windows were shed, 4 a session failed or was quarantined.\n"
     "    (`domino live` exits 76 when fenced.)\n"},
    {"fleet-status", "<state_root>", 1, 1,
     "merge every box's manifest into one JSON fleet view",
     {kFleetStatusFlags}, CmdFleetStatus,
     "    Exit 0 all terminal, 3 some open or fenced, 4 some quarantined.\n"},
    {"replay", "<dataset_dir> <out_dir>", 2, 2,
     "replay a saved dataset as a growing capture, for live follow mode",
     {kReplayFlags}, CmdReplay},
    {"convert", "<in_dir> <out_dir>", 2, 2,
     "re-encode a dataset between CSV and the binary telemetry.dtb",
     {kConvertFlags}, CmdConvert},
    {"codegen", "<config_file>", 1, 1,
     "generate the standalone Python detector for a config",
     {kCodegenFlags}, CmdCodegen},
    {"lint", "<config_file>", 1, 1,
     "statically analyse a config (exit 0 clean, 1 warnings, 2 errors)",
     {std::span(kAnalysisFlags).first(1), kLintFlags}, CmdLint},
};

const Command* FindCommand(const std::string& name) {
  const std::string key = name == "--lint" ? "lint" : name;
  for (const Command& cmd : kCommands) {
    if (key == cmd.name) return &cmd;
  }
  return nullptr;
}

const Flag* FindFlag(const Command& cmd, std::string_view name) {
  for (const Flag& f : cmd.flags | std::views::join) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

void PrintCommandHelp(std::FILE* to, const Command& cmd) {
  std::fprintf(to, "  domino %s %s\n      %s\n", cmd.name, cmd.operands,
               cmd.about);
  std::string internal;
  for (const Flag& f : cmd.flags | std::views::join) {
    if (f.help == nullptr) {
      internal += std::string(" ") + f.name;
      continue;
    }
    std::string usage = f.name;
    if (*f.meta != '\0') usage += std::string(" ") + f.meta;
    std::fprintf(to, "      %-28s %s\n", usage.c_str(), f.help);
  }
  if (!internal.empty()) {
    std::fprintf(to, "      internal:%s\n", internal.c_str());
  }
  if (cmd.notes != nullptr) std::fputs(cmd.notes, to);
}

void PrintUsage(std::FILE* to) {
  std::fputs("usage: domino <command> <operands> [flags]\n"
             "Flag values: --flag V or --flag=V; [x] is the default.\n",
             to);
  for (const Command& cmd : kCommands) PrintCommandHelp(to, cmd);
  std::fprintf(to, "  domino --help | --version\n");
}

/// A usage error: one-line diagnostic plus the command's help, exit 2.
int UsageError(const Command& cmd, const std::string& what) {
  Refuse("domino %s: %s", cmd.name, what.c_str());
  PrintCommandHelp(stderr, cmd);
  return 2;
}

/// Validates `text` against `f`'s kind and bounds into `out`.
bool ParseValue(const Flag& f, const std::string& text, Value& out,
                std::string& want) {
  out.text = text;
  switch (f.kind) {
    case Kind::kSwitch:
    case Kind::kText:
      return true;
    case Kind::kNumber:
      want = "a finite number";
      if (!ParseFinite(text, out.num)) return false;
      out.dur = Seconds(out.num);
      return true;
    case Kind::kPeriod:
      // Below 1 us a window or step rounds to zero and the window loop
      // never advances; above 9e12 s the microsecond count overflows.
      want = "seconds in [0.000001, 9e12]";
      if (!ParseFiniteIn(text, 0, 9e12, out.num)) return false;
      out.dur = Seconds(out.num);
      return out.dur >= Micros(1);
    case Kind::kInt:
      want = "an integer in [" + std::to_string(f.lo) + ", " +
             std::to_string(f.hi) + "]";
      return ParseInt64In(text, f.lo, f.hi, out.i);
    case Kind::kUint:
      want = "an unsigned integer";
      return ParseUint64(text, out.u);
    case Kind::kName:
      // Such ids land in file names (fleet-<owner>.manifest) and in
      // checksummed single-line records; keep them to a safe charset.
      want = "letters, digits, '.', '_' or '-' only";
      return text.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                    "0123456789._-") == std::string::npos;
    case Kind::kChoice:
      want = std::string("one of ") + f.meta;
      return text.find('|') == std::string::npos &&
             ("|" + std::string(f.meta) + "|").find("|" + text + "|") !=
                 std::string::npos;
  }
  return false;
}

/// One left-to-right pass over argv: `--flag V` and `--flag=V` anywhere,
/// every other token an operand. Returns 0, or 2 after a diagnostic.
int Parse(const Command& cmd, const std::vector<std::string>& args, Cli& c) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.size() < 2 || arg[0] != '-') {
      c.operands.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const Flag* f = FindFlag(cmd, name);
    if (f == nullptr) return UsageError(cmd, "unknown flag '" + name + "'");
    if (c.Has(name)) return UsageError(cmd, name + " given twice");
    Cli::Given g{f, {}, {arg}};
    std::string text;
    if (eq != std::string::npos) {
      if (f->kind == Kind::kSwitch) {
        return UsageError(cmd, name + " takes no value");
      }
      text = arg.substr(eq + 1);
    } else if (f->kind != Kind::kSwitch) {
      if (i + 1 == args.size()) return UsageError(cmd, name + " needs a value");
      text = args[++i];
      g.tokens.push_back(text);
    }
    std::string want;
    if (!ParseValue(*f, text, g.value, want)) {
      return BadFlag(f->name, text, want.c_str());
    }
    if (f->set) f->set(c, g.value);
    c.given.push_back(std::move(g));
  }
  if (c.operands.size() < cmd.min_operands ||
      c.operands.size() > cmd.max_operands) {
    return UsageError(cmd, "wrong number of operands");
  }
  return 0;
}

}  // namespace

std::map<std::string, std::vector<std::string>> FlagTable() {
  std::map<std::string, std::vector<std::string>> table;
  for (const Command& cmd : kCommands) {
    for (const Flag& f : cmd.flags | std::views::join) {
      table[cmd.name].push_back(f.name);
    }
  }
  return table;
}

int DominoMain(std::vector<std::string> args, const MainOptions& mo) {
  const std::string name = args.empty() ? "" : args[0];
  if (name == "--help" || name == "-h" || name == "help") {
    PrintUsage(stdout);
    return 0;
  }
  if (name == "--version" || name == "version") {
    std::printf("domino %s\n", DOMINO_VERSION);
    return 0;
  }
  const Command* cmd = FindCommand(name);
  if (cmd == nullptr) {
    PrintUsage(stderr);
    return 2;
  }
  args.erase(args.begin());
  try {
    Cli c;
    if (int rc = Parse(*cmd, args, c)) return rc;
    return cmd->run(c, mo);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "error: unknown exception\n");
    return 1;
  }
}

}  // namespace domino::cli
