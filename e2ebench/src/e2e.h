// Shared declarations of the end-to-end Domino benchmark (README.md in this
// directory describes the workloads and metrics).
//
// The benchmark drives Domino only through its public entry points, the
// same calls `domino analyze`, `domino live` and `domino serve` make, and
// times them from outside: the tracer below records a span around each
// call into a layer, never inside one.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- tracing

/// One timed call. `parent` indexes the enclosing span (-1 = none);
/// `session` is the timed session the call belongs to (-1 = set-up).
struct Span {
  const char* layer;  ///< Module name, e.g. "telemetry.io".
  const char* call;   ///< Public function, e.g. "LoadDataset".
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int session = -1;
};

/// In-memory span recorder. Single-threaded: every traced call is made
/// from the benchmark's main thread (the fleet's workers run inside one
/// FleetSupervisor::Run span). Disabled, it records nothing and reads no
/// clock.
class Tracer {
 public:
  bool enabled = false;
  int session = -1;

  int Begin(const char* layer, const char* call);
  void End(int id);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time (span duration minus the part covered by its child spans),
  /// summed per layer, in milliseconds: over set-up spans (session -1) when
  /// `setup`, else over the timed sessions' spans.
  [[nodiscard]] std::map<std::string, double> SelfMsByLayer(bool setup) const;
  /// Writes one JSON object per span; false when the file cannot be made.
  bool Dump(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span around one layer call.
class Scope {
 public:
  Scope(Tracer& t, const char* layer, const char* call)
      : t_(t), id_(t.enabled ? t.Begin(layer, call) : -1) {}
  ~Scope() {
    if (id_ >= 0) t_.End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ------------------------------------------------------------ the inputs

inline constexpr const char* kWorkloads[] = {"analyze-dtb", "live-csv",
                                             "serve-mixed"};
inline constexpr double kSessionSeconds = 60.0;
/// Distinct simulated captures per seed: five of each cell of Table 1,
/// interleaved by cell (capture k is cell k % 4).
inline constexpr int kCells = 4;
inline constexpr int kBaseSessions = 20;

/// One generated input directory, as listed in <root>/inputs/sessions.txt.
struct Input {
  std::string key;  ///< Stable name ("s0", "f2", ...), used by the goldens.
  std::string dir;
};

/// Simulates the seed's captures and writes the workload's inputs under
/// `root`/inputs: `.dtb` images for analyze-dtb, clean CSV for live-csv,
/// CSV with half the captures fault-injected for serve-mixed, and both
/// forms of the first capture for "mirror". Same seed, same bytes.
void Generate(const std::string& workload, std::uint64_t seed,
              const std::string& root);
/// Reads back the list Generate() wrote.
std::vector<Input> ReadInputs(const std::string& root);

// -------------------------------------------------------------- the runs

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root;         ///< Scratch root holding inputs and outputs.
  std::string config_path;  ///< analyze-dtb's config (extended.domino).
  std::string golden_path;  ///< Golden digests; checked at their seed only.
  long corrupt_session = -1;  ///< Test hook: damage this session's output.
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;  ///< One line per failed check.
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> context;  ///< Pre-rendered JSON values.
};

RunResult RunWorkload(const RunOptions& opts);

/// Runs the analyze-dtb session sequence over each dataset in turn, with
/// one set-up, publishing report.json and summary.txt under
/// `out_root`/<index>. The faithful-mirror test compares them with
/// `domino analyze --json-report`.
void MirrorSessions(const std::string& config_path,
                    const std::vector<std::string>& dataset_dirs,
                    const std::string& out_root);

// --------------------------------------------------------------- helpers

std::uint64_t Fnv1a(const std::string& bytes);
std::string Hex64(std::uint64_t v);
/// Whole-file read; false when unreadable.
bool ReadFile(const std::string& path, std::string* out);
/// Digest of a file's bytes ("missing" when unreadable).
std::string FileDigest(const std::string& path);
/// Median and nearest-rank percentile (p in [0,100]); 0 on empty input.
double Percentile(std::vector<double> v, double p);
/// A double with all its significant digits, as JSON.
std::string Num(double v);

}  // namespace e2e
