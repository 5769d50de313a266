// The three workloads, their output checks and their metrics.
//
// Each workload is a closed loop: the next session starts when the last
// one has published its output. A session runs from a dataset on disk to
// its published files; the benchmark then checks those files outside the
// timed region.
#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "domino/config_parser.h"
#include "domino/detector.h"
#include "domino/lint/lint.h"
#include "domino/report.h"
#include "domino/runtime/fleet.h"
#include "domino/runtime/live.h"
#include "e2e.h"
#include "telemetry/io.h"
#include "telemetry/sanitize.h"

namespace e2e {

namespace fs = std::filesystem;
using namespace domino;

namespace {

/// Set-ups timed per session, in a burst before each timed unit and one
/// after the last; setup_s is their median. One set-up takes tens of
/// microseconds, and a shared host's speed changes in stretches of tens of
/// milliseconds to seconds, so set-ups timed in one block would land on
/// whichever stretch was current. Spread over the run, they see the same
/// host as the sessions. Every set-up builds the whole ready state, and the
/// sessions use the last one built.
constexpr long kSetupBurst = 50;
/// Floor on timed sessions per run, so p90 has ten samples beyond it.
constexpr long kMinSessions = 100;
/// serve-mixed: how often each input is submitted in one batch, and every
/// how many a session carries a recoverable chaos fault.
constexpr int kFleetRounds = 5;
constexpr int kChaosEvery = 8;

/// Windows a complete session must yield: (duration - window) / step + 1.
long ExpectedWindows(const analysis::DominoConfig& cfg) {
  const std::int64_t span =
      Seconds(kSessionSeconds).micros() - cfg.window.micros();
  return static_cast<long>(span / cfg.step.micros()) + 1;
}

std::uintmax_t FileSize(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t n = fs::file_size(path, ec);
  return ec ? 0 : n;
}

std::uintmax_t DirBytes(const std::string& dir) {
  std::uintmax_t n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) n += e.file_size();
  }
  return n;
}

/// Test hook: flips one bit in the middle of a published file (or gives an
/// empty one a byte: a cell with no detected chain logs nothing).
void Damage(const std::string& path) {
  std::string bytes;
  if (!ReadFile(path, &bytes)) return;
  if (bytes.empty()) {
    bytes = "\n";
  } else {
    bytes[bytes.size() / 2] ^= 1;
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// A number following `"key": ` in a flat JSON document (0 when absent).
double JsonNumber(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto at = doc.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtod(doc.c_str() + at + needle.size(), nullptr);
}

// ----------------------------------------------------------------- checks

/// Collects per-session output digests and decides which sessions failed.
/// At the golden seed every digest must equal the stored one; at any other
/// seed, every session of one input must agree with the others (the most
/// common digest wins, so one damaged output fails only its own session).
class Checker {
 public:
  Checker(const std::string& workload, const RunOptions& opts)
      : workload_(workload) {
    std::ifstream f(opts.golden_path);
    std::string tag, key, file, digest;
    std::uint64_t seed = 0;
    while (f >> tag) {
      if (tag == "#") {
        std::getline(f, tag);
      } else if (tag == "seed") {
        f >> seed;
      } else if (f >> key >> file >> digest && tag == workload) {
        golden_[key + " " + file] = digest;
      }
    }
    use_golden_ = !golden_.empty() && seed == opts.seed;
  }

  void Digest(long session, const std::string& group, const std::string& file,
              const std::string& digest) {
    if (digest == "missing") Fail(session, file + " was not published");
    seen_[group + " " + file].push_back({session, digest});
  }

  void Fail(long session, const std::string& why) {
    failed_.insert(session);
    if (problems_.size() < 20) {
      problems_.push_back("session " + std::to_string(session) + ": " + why);
    }
  }

  /// Resolves every digest group; returns the failed session count.
  long Finish(RunResult* out) {
    for (auto& [name, obs] : seen_) {
      std::map<std::string, int> votes;
      for (const auto& o : obs) ++votes[o.second];
      const std::string mode =
          std::max_element(votes.begin(), votes.end(),
                           [](const auto& a, const auto& b) {
                             return a.second < b.second;
                           })
              ->first;
      digests_[name] = mode;
      std::string want = mode;
      if (use_golden_) {
        auto g = golden_.find(name);
        want = g == golden_.end() ? "no-golden" : g->second;
      }
      for (const auto& [session, digest] : obs) {
        if (digest != want) Fail(session, name + " digest " + digest +
                                              " != expected " + want);
      }
    }
    out->problems = problems_;
    out->context["golden_checked"] = use_golden_ ? "true" : "false";
    return static_cast<long>(failed_.size());
  }

  /// The observed digests as "<workload> <group> <file> <digest>" lines,
  /// the golden file's format.
  bool WriteDigests(const std::string& path) const {
    std::ofstream f(path);
    for (const auto& [name, digest] : digests_) {
      f << workload_ << ' ' << name << ' ' << digest << '\n';
    }
    return static_cast<bool>(f);
  }

 private:
  std::string workload_;
  std::map<std::string, std::string> golden_;
  bool use_golden_ = false;
  std::map<std::string, std::vector<std::pair<long, std::string>>> seen_;
  std::map<std::string, std::string> digests_;
  std::set<long> failed_;
  std::vector<std::string> problems_;
};

// ----------------------------------------------------------- per-layer

/// Counts recorded at the layer boundaries of the traced phase.
struct LayerCounts {
  double io_rows = 0, io_bytes = 0;
  double sanitize_rows = 0, repaired = 0, derive_calls = 0;
  double detect_windows = 0, detect_chains = 0;
  double report_bytes = 0;   ///< Built by domino.report.
  double publish_bytes = 0;  ///< On disk after cli.publish.
  double live_sessions = 0, polls = 0, live_windows = 0,
         checkpoints = 0, checkpoint_bytes = 0, chainlog_bytes = 0,
         peak_retained = 0, evicted = 0, shed = 0;
  double fleet_batches = 0, makespan_ms = 0, attempts = 0, recovered = 0,
         quarantined = 0, ok = 0, busy_frac = 0, latency_ms = 0;

  /// Records one finished live session from its summary and state dir.
  void AddLive(const runtime::LiveSummary& s, const std::string& state_dir) {
    std::string report;
    ReadFile(state_dir + "/live_report.json", &report);
    live_sessions += 1;
    polls += static_cast<double>(s.polls);
    live_windows += static_cast<double>(s.windows);
    checkpoints += static_cast<double>(s.checkpoints);
    shed += static_cast<double>(s.shed_windows);
    checkpoint_bytes += static_cast<double>(FileSize(state_dir + "/live.ckpt"));
    chainlog_bytes +=
        static_cast<double>(FileSize(state_dir + "/chains.jsonl"));
    peak_retained += JsonNumber(report, "peak_retained_records");
    evicted += JsonNumber(report, "evicted_records");
  }
};

// --------------------------------------------------------------- analyze

struct AnalyzeSetup {
  analysis::DominoConfig cfg;
  std::unique_ptr<analysis::Detector> detector;
};

/// What `domino analyze --config F` does before it touches the dataset:
/// read the config, lint it, extend the default graph, build the detector.
AnalyzeSetup SetUpAnalyze(const std::string& config_path, Tracer& tr) {
  AnalyzeSetup s;
  s.cfg.extract_features = true;
  s.cfg.threads = 1;
  std::string text;
  if (!ReadFile(config_path, &text)) {
    throw std::runtime_error("cannot read config " + config_path);
  }
  analysis::lint::LintOptions lopts;
  lopts.thresholds = s.cfg.thresholds;
  lopts.verify_options.window_ms = s.cfg.window.millis();
  analysis::lint::LintResult lres = [&] {
    Scope span(tr, "domino.lint", "LintConfigText");
    return analysis::lint::LintConfigText(text, lopts);
  }();
  if (lres.sink.has_errors()) {
    throw std::runtime_error("config " + config_path + " does not lint");
  }
  analysis::CausalGraph graph =
      analysis::CausalGraph::Default(s.cfg.thresholds);
  {
    Scope span(tr, "domino.lint", "ExtendGraph");
    analysis::ExtendGraph(graph, lres.config, s.cfg.thresholds);
  }
  s.detector = std::make_unique<analysis::Detector>(std::move(graph), s.cfg);
  return s;
}

/// The CmdAnalyze call sequence over one dataset, publishing report.json
/// (the `--json-report` bytes) and summary.txt (the printed summary).
/// Returns the number of windows analysed.
long AnalyzeSession(const AnalyzeSetup& s, const std::string& dir,
                          const std::string& out_dir, Tracer& tr,
                          LayerCounts* lc) {
  telemetry::DatasetLoadReport load;
  telemetry::SessionDataset ds = [&] {
    Scope span(tr, "telemetry.io", "LoadDataset");
    return telemetry::LoadDataset(dir, &load);
  }();
  telemetry::SanitizeReport health = [&] {
    Scope span(tr, "telemetry.sanitize", "SanitizeDataset");
    telemetry::SanitizeReport h = telemetry::SanitizeDataset(ds);
    telemetry::MergeLoadReport(h, load);
    return h;
  }();
  telemetry::DerivedTrace trace = [&] {
    Scope span(tr, "telemetry.derive", "BuildDerivedTrace");
    telemetry::DerivedTrace t = telemetry::BuildDerivedTrace(ds);
    t.quality = health.quality();
    return t;
  }();
  analysis::AnalysisResult result = [&] {
    Scope span(tr, "domino.detect", "Detector::Analyze");
    return s.detector->Analyze(trace);
  }();
  std::string summary, json;
  {
    Scope span(tr, "domino.report", "BuildSummaryReport");
    summary = analysis::BuildSummaryReport(result, *s.detector, &health);
  }
  {
    Scope span(tr, "domino.report", "BuildReportJson");
    json = analysis::BuildReportJson(result, *s.detector, &health);
  }
  {
    Scope span(tr, "cli.publish", "write");
    fs::create_directories(out_dir);
    std::ofstream(out_dir + "/report.json") << json;
    std::ofstream(out_dir + "/summary.txt") << summary;
  }
  if (lc != nullptr) {
    for (const auto& st : load.streams) {
      lc->io_rows += static_cast<double>(st.rows_kept);
    }
    for (const auto& st : health.streams) {
      lc->sanitize_rows += static_cast<double>(st.rows_in);
      lc->repaired += static_cast<double>(st.duplicates + st.reordered +
                                          st.late_dropped + st.out_of_range);
    }
    lc->derive_calls += 1;
    lc->detect_windows += static_cast<double>(result.windows.size());
    lc->detect_chains += static_cast<double>(result.AllChains().size());
    lc->report_bytes += static_cast<double>(summary.size() + json.size());
    lc->publish_bytes +=
        static_cast<double>(FileSize(out_dir + "/report.json") +
                            FileSize(out_dir + "/summary.txt"));
  }
  return static_cast<long>(result.windows.size());
}

// ------------------------------------------------------------ the loop

/// What one workload plugs into the shared timed loop.
struct Workload {
  /// Brings the program to ready once (timed for setup_s).
  std::function<void(Tracer&)> setup;
  /// Runs unit `u` (a session, or a fleet batch) and checks its outputs.
  /// Appends the latency of each session it contains to `session_s` and
  /// stores the unit's wall time in `unit_wall_s`, both in seconds.
  std::function<void(long u, Tracer& tr, LayerCounts* lc,
                     std::vector<double>* session_s, double* unit_wall_s)>
      unit;
  long sessions_per_unit = 1;
  /// Runs end on a multiple of this many units, so every input weighs the
  /// same in the percentiles.
  long cycle = 1;
};

struct Phase {
  long units = 0;
  double wall_s = 0;  ///< Sum of unit wall times, set-ups excluded.
  std::vector<double> session_s;

  void Run(Workload& w, long u, Tracer& tr, LayerCounts* lc) {
    double wall = 0;
    w.unit(u, tr, lc, &session_s, &wall);
    wall_s += wall;
    ++units;
  }
};

/// Traced units are numbered from here. It is a multiple of every cycle,
/// so traced unit kTracedBase + u runs the same inputs as untraced unit u.
constexpr long kTracedBase = 1'000'000;

/// Times a burst of kSetupBurst set-ups per session of a unit, appending
/// each set-up's time to `setup_s`. Traced set-up spans have session -1.
void SetUpBurst(Workload& w, Tracer& tr, std::vector<double>* setup_s) {
  tr.session = -1;
  for (long r = 0; r < kSetupBurst * w.sessions_per_unit; ++r) {
    const Clock::time_point t0 = Clock::now();
    Scope span(tr, "setup", "setup");
    w.setup(tr);
    setup_s->push_back(SecondsSince(t0));
  }
}

/// Runs whole cycles of units until `seconds` have passed and at least
/// `min_units` ran, with a set-up burst before each unit and after the
/// last. With `traced`, every unit runs twice, untraced and then traced, so
/// both totals see the same host conditions: `plain` gets the untraced runs
/// and the returned phase the traced ones.
Phase RunUnits(Workload& w, Tracer& tr, LayerCounts* lc, double seconds,
               long min_units, Phase* plain, std::vector<double>* setup_s) {
  Phase p;
  const bool traced = plain != nullptr;
  const Clock::time_point t0 = Clock::now();
  for (long u = 0; u < min_units || u % w.cycle != 0 ||
                   SecondsSince(t0) < seconds;
       ++u) {
    tr.enabled = traced;
    SetUpBurst(w, tr, setup_s);
    if (!traced) {
      p.Run(w, u, tr, lc);
      continue;
    }
    tr.enabled = false;
    plain->Run(w, u, tr, nullptr);
    tr.enabled = true;
    p.Run(w, kTracedBase + u, tr, lc);
  }
  SetUpBurst(w, tr, setup_s);
  return p;
}

}  // namespace

void MirrorSessions(const std::string& config_path,
                    const std::vector<std::string>& dataset_dirs,
                    const std::string& out_root) {
  Tracer off;
  AnalyzeSetup s = SetUpAnalyze(config_path, off);
  for (std::size_t i = 0; i < dataset_dirs.size(); ++i) {
    AnalyzeSession(s, dataset_dirs[i], out_root + "/" + std::to_string(i),
                   off, nullptr);
  }
}

RunResult RunWorkload(const RunOptions& opts) {
  const std::vector<Input> inputs = ReadInputs(opts.root);
  // Every session starts from an empty state dir: a leftover checkpoint
  // would be resumed instead of run.
  const std::string out_root = opts.root + "/out";
  fs::remove_all(out_root);
  Checker check(opts.workload, opts);
  Tracer tr;
  RunResult res;
  const int nproc = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  const auto input_of = [&](long session) -> const Input& {
    return inputs[static_cast<std::size_t>(session) % inputs.size()];
  };
  std::map<std::string, double> input_bytes;
  for (const Input& in : inputs) {
    input_bytes[in.dir] = static_cast<double>(DirBytes(in.dir));
  }

  Workload w;
  AnalyzeSetup analyze;
  analysis::CausalGraph graph;
  runtime::LiveOptions live;
  live.quiet = true;
  live.detector.threads = 1;
  const long want_windows = ExpectedWindows(live.detector);
  int workers = 1;
  // serve-mixed: n sessions per fleet batch, each input once per round.
  // Round r puts the chaos fault on the inputs d with d + 3r = 7 (mod 8):
  // 12 sessions in 100, on every cell, and no input more than once, so
  // each also runs undisturbed in the same batch for the recovery check.
  long n = 0;
  runtime::FleetOptions fleet;
  const auto chaotic = [&](long i) {
    const long in_n = static_cast<long>(inputs.size());
    return (i % in_n + 3 * (i / in_n)) % kChaosEvery == kChaosEvery - 1;
  };
  const auto specs_for = [&](const std::string& dir) {
    std::vector<runtime::SessionSpec> specs(static_cast<std::size_t>(n));
    for (long i = 0; i < n; ++i) {
      specs[static_cast<std::size_t>(i)].dataset_dir = input_of(i).dir;
      specs[static_cast<std::size_t>(i)].state_dir =
          dir + "/" + std::to_string(i);
    }
    return specs;
  };

  if (opts.workload != "serve-mixed") {
    w.cycle = static_cast<long>(inputs.size());
  }
  if (opts.workload == "analyze-dtb") {
    w.setup = [&](Tracer& t) { analyze = SetUpAnalyze(opts.config_path, t); };
    w.unit = [&](long u, Tracer& t, LayerCounts* lc,
                 std::vector<double>* ss, double* wall) {
      const Input& in = input_of(u);
      const std::string out = out_root + "/" + std::to_string(u);
      t.session = static_cast<int>(u);
      const Clock::time_point t0 = Clock::now();
      long windows = 0;
      try {
        Scope span(t, "session", "analyze");
        windows = AnalyzeSession(analyze, in.dir, out, t, lc);
      } catch (const std::exception& e) {
        check.Fail(u, std::string("analyze: ") + e.what());
      }
      *wall = SecondsSince(t0);
      ss->push_back(*wall);
      if (lc != nullptr) lc->io_bytes += input_bytes[in.dir];
      if (u == opts.corrupt_session) Damage(out + "/report.json");
      if (windows != want_windows) {
        check.Fail(u, "windows " + std::to_string(windows) + " != " +
                          std::to_string(want_windows));
      }
      check.Digest(u, in.key, "report.json", FileDigest(out + "/report.json"));
      check.Digest(u, in.key, "summary.txt", FileDigest(out + "/summary.txt"));
      fs::remove_all(out);
    };
  } else if (opts.workload == "live-csv") {
    w.setup = [&](Tracer&) {
      graph = analysis::CausalGraph::Default(live.detector.thresholds);
      runtime::LiveRunner ready(inputs[0].dir, out_root + "/setup", graph,
                                live);
    };
    w.unit = [&](long u, Tracer& t, LayerCounts* lc,
                 std::vector<double>* ss, double* wall) {
      const Input& in = input_of(u);
      const std::string state = out_root + "/" + std::to_string(u);
      t.session = static_cast<int>(u);
      const Clock::time_point t0 = Clock::now();
      runtime::LiveSummary sum;
      try {
        Scope session(t, "session", "live");
        Scope span(t, "runtime.live", "LiveRunner::Run");
        runtime::LiveRunner runner(in.dir, state, graph, live);
        sum = runner.Run();
      } catch (const std::exception& e) {
        check.Fail(u, std::string("live: ") + e.what());
      }
      *wall = SecondsSince(t0);
      ss->push_back(*wall);
      if (lc != nullptr) lc->AddLive(sum, state);
      if (u == opts.corrupt_session) Damage(state + "/chains.jsonl");
      if (sum.windows != want_windows || sum.shed_windows != 0) {
        check.Fail(u, "windows " + std::to_string(sum.windows) + " (shed " +
                          std::to_string(sum.shed_windows) + ") != " +
                          std::to_string(want_windows));
      }
      check.Digest(u, in.key, "chains.jsonl",
                   FileDigest(state + "/chains.jsonl"));
      check.Digest(u, in.key, "live_report.json",
                   FileDigest(state + "/live_report.json"));
      fs::remove_all(state);
    };
  } else if (opts.workload == "serve-mixed") {
    workers = std::min(2, nproc);
    n = static_cast<long>(inputs.size()) * kFleetRounds;
    w.sessions_per_unit = n;
    fleet.workers = workers;
    fleet.max_attempts = 3;
    fleet.backoff_ms = 10;
    fleet.backoff_cap_ms = 100;
    fleet.global_backlog_windows = 256;
    fleet.isolate = runtime::IsolationMode::kThread;
    fleet.chaos.resize(static_cast<std::size_t>(n));
    for (long i = 0; i < n; ++i) {
      if (chaotic(i)) fleet.chaos[static_cast<std::size_t>(i)].fail_after = 1;
    }
    w.setup = [&](Tracer&) {
      graph = analysis::CausalGraph::Default(live.detector.thresholds);
      runtime::FleetSupervisor ready(specs_for(out_root + "/setup"), graph,
                                     live, fleet);
    };
    w.unit = [&](long u, Tracer& t, LayerCounts* lc,
                 std::vector<double>* ss, double* wall) {
      const std::string batch = out_root + "/b" + std::to_string(u);
      t.session = static_cast<int>(u);
      const Clock::time_point t0 = Clock::now();
      runtime::FleetReport report;
      {
        Scope session(t, "session", "serve");
        Scope span(t, "runtime.fleet", "FleetSupervisor::Run");
        runtime::FleetSupervisor sup(specs_for(batch), graph, live, fleet);
        report = sup.Run();
      }
      *wall = SecondsSince(t0);
      double latency_sum = 0;
      for (double s : report.session_latency_s) {
        ss->push_back(s);
        latency_sum += s;
      }
      const long id0 = u * n;  // Checker ids: unique per session.
      if (u == 0 && opts.corrupt_session >= 0 && opts.corrupt_session < n) {
        Damage(batch + "/" + std::to_string(opts.corrupt_session) +
               "/chains.jsonl");
      }
      long chaos_n = 0;
      for (long i = 0; i < n; ++i) {
        const auto& o = report.outcomes[static_cast<std::size_t>(i)];
        const std::string state = batch + "/" + std::to_string(i);
        const bool chaos = chaotic(i);
        chaos_n += chaos ? 1 : 0;
        if (!o.ok || o.quarantined || o.attempts != (chaos ? 2 : 1) ||
            o.summary.windows != want_windows ||
            o.summary.shed_windows != 0) {
          check.Fail(id0 + i,
                     "fleet outcome ok=" + std::to_string(o.ok) +
                         " attempts=" + std::to_string(o.attempts) +
                         " windows=" + std::to_string(o.summary.windows) +
                         " error=" + o.error);
        }
        const std::string& key = input_of(i).key;
        check.Digest(id0 + i, key, "chains.jsonl",
                     FileDigest(state + "/chains.jsonl"));
        check.Digest(id0 + i, key, "live_report.json",
                     FileDigest(state + "/live_report.json"));
        if (lc != nullptr) lc->AddLive(o.summary, state);
      }
      if (report.completed != n || report.recovered != chaos_n ||
          report.quarantined != 0) {
        check.Fail(id0, "fleet completed=" + std::to_string(report.completed) +
                            " recovered=" + std::to_string(report.recovered) +
                            " quarantined=" +
                            std::to_string(report.quarantined));
      }
      if (lc != nullptr) {
        lc->latency_ms += latency_sum * 1e3;
        lc->fleet_batches += 1;
        lc->makespan_ms += *wall * 1e3;
        lc->attempts += static_cast<double>(report.total_attempts);
        lc->recovered += static_cast<double>(report.recovered);
        lc->quarantined += static_cast<double>(report.quarantined);
        lc->ok += static_cast<double>(report.completed);
        lc->busy_frac += latency_sum / (report.workers * *wall);
      }
      fs::remove_all(batch);
    };
  } else {
    throw std::runtime_error("unknown workload " + opts.workload);
  }

  LayerCounts lc;
  Phase timed;
  std::vector<double> setup_s;
  double overhead = 0;
  if (!opts.trace) {
    const long min_units =
        (kMinSessions + w.sessions_per_unit - 1) / w.sessions_per_unit;
    timed = RunUnits(w, tr, nullptr, opts.seconds, min_units, nullptr,
                     &setup_s);
  } else {
    Phase plain;
    timed = RunUnits(w, tr, &lc, opts.seconds, 1, &plain, &setup_s);
    overhead = timed.wall_s / plain.wall_s - 1;
    res.attempted += plain.units * w.sessions_per_unit;
    tr.Dump(opts.root + "/spans.jsonl");
  }
  fs::remove_all(out_root + "/setup");
  res.attempted += timed.units * w.sessions_per_unit;
  res.failed = check.Finish(&res);
  check.WriteDigests(opts.root + "/digests.txt");

  double trace_s = kSessionSeconds * static_cast<double>(timed.units) *
                   static_cast<double>(w.sessions_per_unit);
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto& m = res.metrics;
  if (!opts.trace) {
    m["setup_s"] = {Percentile(setup_s, 50), "s"};
    m["trace_s_per_s"] = {trace_s / timed.wall_s, "s/s"};
    m["session_ms_p50"] = {Percentile(timed.session_s, 50) * 1e3, "ms"};
    m["session_ms_p90"] = {Percentile(timed.session_s, 90) * 1e3, "ms"};
    m["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"};
  } else {
    const std::map<std::string, double> self = tr.SelfMsByLayer(false);
    const std::map<std::string, double> setup_self = tr.SelfMsByLayer(true);
    const auto self_ms = [&](const char* layer) {
      auto it = self.find(layer);
      return it == self.end() ? 0.0 : it->second;
    };
    const auto per = [](double v, double n) { return n > 0 ? v / n : 0.0; };
    const double sessions = static_cast<double>(timed.units) *
                            static_cast<double>(w.sessions_per_unit);
    const double live_n = lc.live_sessions;
    m["telemetry.io.busy_ms"] = {per(self_ms("telemetry.io"), sessions), "ms"};
    m["telemetry.io.rows"] = {per(lc.io_rows, sessions), "count"};
    m["telemetry.io.bytes"] = {per(lc.io_bytes, sessions), "bytes"};
    m["telemetry.sanitize.busy_ms"] = {
        per(self_ms("telemetry.sanitize"), sessions), "ms"};
    m["telemetry.sanitize.rows"] = {per(lc.sanitize_rows, sessions), "count"};
    m["telemetry.sanitize.repaired"] = {per(lc.repaired, sessions), "count"};
    m["telemetry.derive.busy_ms"] = {
        per(self_ms("telemetry.derive"), sessions), "ms"};
    m["telemetry.derive.calls"] = {per(lc.derive_calls, sessions), "count"};
    const auto lint = setup_self.find("domino.lint");
    m["domino.lint.busy_ms"] = {
        per(lint == setup_self.end() ? 0.0 : lint->second,
            static_cast<double>(setup_s.size())),
        "ms"};
    m["domino.detect.busy_ms"] = {per(self_ms("domino.detect"), sessions),
                                  "ms"};
    m["domino.detect.windows"] = {per(lc.detect_windows, sessions), "count"};
    m["domino.detect.chains"] = {per(lc.detect_chains, sessions), "count"};
    m["domino.detect.us_per_window"] = {
        per(self_ms("domino.detect") * 1e3, lc.detect_windows), "us"};
    m["domino.report.busy_ms"] = {per(self_ms("domino.report"), sessions),
                                  "ms"};
    m["domino.report.bytes"] = {per(lc.report_bytes, sessions), "bytes"};
    m["cli.publish.busy_ms"] = {per(self_ms("cli.publish"), sessions), "ms"};
    m["cli.publish.bytes"] = {per(lc.publish_bytes, sessions), "bytes"};
    // In the fleet the per-session latency stands in for LiveRunner time:
    // calls inside FleetSupervisor::Run are not traced from outside.
    const double live_ms = opts.workload == "live-csv"
                               ? self_ms("runtime.live")
                               : lc.latency_ms;
    m["runtime.live.busy_ms"] = {per(live_ms, live_n), "ms"};
    m["runtime.live.polls"] = {per(lc.polls, live_n), "count"};
    m["runtime.live.ms_per_poll"] = {per(live_ms, lc.polls), "ms"};
    m["runtime.live.windows"] = {per(lc.live_windows, live_n), "count"};
    m["runtime.live.checkpoints"] = {per(lc.checkpoints, live_n), "count"};
    m["runtime.live.checkpoint_bytes"] = {per(lc.checkpoint_bytes, live_n),
                                          "bytes"};
    m["runtime.live.chainlog_bytes"] = {per(lc.chainlog_bytes, live_n),
                                        "bytes"};
    m["runtime.live.peak_retained_records"] = {per(lc.peak_retained, live_n),
                                               "count"};
    m["runtime.live.evicted_records"] = {per(lc.evicted, live_n), "count"};
    m["runtime.live.shed_windows"] = {per(lc.shed, live_n), "count"};
    const double batches = lc.fleet_batches;
    m["runtime.fleet.makespan_ms"] = {per(lc.makespan_ms, batches), "ms"};
    m["runtime.fleet.attempts"] = {per(lc.attempts, batches), "count"};
    m["runtime.fleet.recovered"] = {per(lc.recovered, batches), "count"};
    m["runtime.fleet.quarantined"] = {per(lc.quarantined, batches), "count"};
    m["runtime.fleet.ok_per_attempt"] = {per(lc.ok, lc.attempts), "ratio"};
    m["runtime.fleet.worker_busy_frac"] = {per(lc.busy_frac, batches),
                                           "ratio"};
    // Self times partition each session span, so their sum is the sessions'
    // wall time and the "session" layer's own share is what no layer call
    // covers.
    double total_ms = 0;
    for (const auto& [layer, ms] : self) total_ms += ms;
    const double session_ms = self_ms("session");
    m["trace.layer_self_frac"] = {per(total_ms - session_ms, total_ms),
                                  "ratio"};
    m["trace.overhead_frac"] = {overhead, "ratio"};
    const auto session_spans = std::count_if(
        tr.spans().begin(), tr.spans().end(),
        [](const Span& sp) { return sp.session >= 0; });
    m["trace.spans_per_session"] = {
        per(static_cast<double>(session_spans), sessions), "count"};
  }

  auto& c = res.context;
  c["nproc"] = std::to_string(nproc);
  c["threads"] = std::to_string(live.detector.threads);
  c["workers"] = std::to_string(workers);
  c["session_samples"] = std::to_string(timed.session_s.size());
  c["units"] = std::to_string(timed.units);
  c["timed_wall_s"] = Num(timed.wall_s);
  c["setup_reps"] = std::to_string(setup_s.size());
  if (opts.trace) c["trace_overhead_frac"] = Num(overhead);
  return res;
}

}  // namespace e2e
