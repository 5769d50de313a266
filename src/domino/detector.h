// The Domino detector: slides a window over a derived trace, evaluates the
// causal graph's node conditions, extracts the feature vector, and reports
// every complete cause->consequence chain active in each window (§4.2:
// W = 5 s, step 0.5 s).
#pragma once

#include <vector>

#include "domino/features.h"
#include "domino/graph.h"

namespace domino::analysis {

struct DominoConfig {
  Duration window = Seconds(5.0);
  Duration step = Millis(500);
  EventThresholds thresholds;
  bool extract_features = true;  ///< Feature vectors cost ~40 detections per
                                 ///< window; disable for chain-only runs.
  /// Use the incremental sliding-window engine (incremental.h): monotone
  /// series cursors + O(1) amortised window aggregates + a per-window
  /// detection memo. Off = the naive re-slice/re-scan path, kept for parity
  /// testing and benchmarking.
  bool incremental = true;
  /// Window fan-out width for Detector::Analyze (and large streaming
  /// batches): 0 = std::thread::hardware_concurrency(), 1 = sequential.
  /// Results are merged in window order and are identical at any width.
  int threads = 0;
  /// How config files are linted before analysis (domino-lint, lint/lint.h):
  /// kOff = legacy first-error behaviour, kPermissive = report everything
  /// but only errors block, kStrict = warnings block too.
  enum class LintMode { kOff, kPermissive, kStrict };
  LintMode lint = LintMode::kPermissive;
  /// Graceful degradation threshold: a chain whose nodes' required streams
  /// cover less than this fraction of the window (per the sanitizer's
  /// TraceQuality annotations) is marked "insufficient evidence" instead of
  /// being asserted as a root cause. Irrelevant for traces without quality
  /// annotations — every chain then has confidence 1.
  double min_coverage = 0.5;
};

/// One detected causal chain in one window, from one sender perspective.
struct ChainInstance {
  Time window_begin;
  int sender_client = 0;   ///< 0 = UE outbound media, 1 = remote outbound.
  int chain_index = 0;     ///< Index into Detector::chains().
  /// Data-quality confidence: minimum window coverage over the streams the
  /// chain's nodes observe (1.0 when the trace has no quality annotations).
  /// Compare against DominoConfig::min_coverage for sufficiency.
  double confidence = 1.0;
};

struct WindowResult {
  Time begin;
  FeatureVector features{};
  /// Active graph nodes per perspective: node_active[p][node].
  std::array<std::vector<bool>, 2> node_active;
  std::vector<ChainInstance> chains;
};

struct AnalysisResult {
  std::vector<WindowResult> windows;
  Duration trace_duration{0};
  /// Flat list of every chain instance across windows.
  [[nodiscard]] std::vector<ChainInstance> AllChains() const;
};

class WindowStatsCache;  // incremental.h

class Detector {
 public:
  /// Throws std::invalid_argument when cfg.window or cfg.step is under
  /// 1 us (the window loop could never advance).
  Detector(CausalGraph graph, DominoConfig cfg);

  /// Runs the full sliding-window analysis over the trace. A trace shorter
  /// than one window (but non-empty) yields a single truncated window at
  /// trace.begin, so short captures are still analysed.
  [[nodiscard]] AnalysisResult Analyze(
      const telemetry::DerivedTrace& trace) const;

  /// Evaluates one window at `begin` (both perspectives).
  [[nodiscard]] WindowResult AnalyzeWindow(
      const telemetry::DerivedTrace& trace, Time begin) const;

  /// Same, riding an incremental cache (windows must be presented to one
  /// cache in non-decreasing begin order; pass nullptr for the naive path).
  [[nodiscard]] WindowResult AnalyzeWindow(
      const telemetry::DerivedTrace& trace, Time begin,
      WindowStatsCache* cache) const;

  /// Analyses the given window begins (which must be sorted ascending),
  /// honouring cfg().incremental and cfg().threads; results come back in
  /// input order regardless of the fan-out width.
  [[nodiscard]] std::vector<WindowResult> AnalyzeWindows(
      const telemetry::DerivedTrace& trace,
      const std::vector<Time>& begins) const;

  [[nodiscard]] const CausalGraph& graph() const { return graph_; }
  /// Enumerated cause->consequence paths (fixed at construction).
  [[nodiscard]] const std::vector<ChainPath>& chains() const {
    return chains_;
  }
  [[nodiscard]] const DominoConfig& config() const { return cfg_; }

 private:
  CausalGraph graph_;
  DominoConfig cfg_;
  std::vector<ChainPath> chains_;
  /// Nodes whose built-in detection (event + thresholds) matches what the
  /// feature extractor computes — eligible for the shared per-window memo.
  std::vector<char> node_shares_memo_;
};

}  // namespace domino::analysis
