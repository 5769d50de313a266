#include "domino/detector.h"

#include <stdexcept>

#include "domino/incremental.h"

namespace domino::analysis {

std::vector<ChainInstance> AnalysisResult::AllChains() const {
  std::vector<ChainInstance> out;
  for (const auto& w : windows) {
    out.insert(out.end(), w.chains.begin(), w.chains.end());
  }
  return out;
}

Detector::Detector(CausalGraph graph, DominoConfig cfg)
    : graph_(std::move(graph)), cfg_(cfg) {
  // A sub-microsecond step never advances the window loop.
  if (cfg_.window < Micros(1) || cfg_.step < Micros(1)) {
    throw std::invalid_argument("Detector: window and step must be >= 1 us");
  }
  graph_.Validate();
  chains_ = graph_.EnumerateChains();
  node_shares_memo_.resize(graph_.node_count(), 0);
  for (std::size_t n = 0; n < graph_.node_count(); ++n) {
    const Node& node = graph_.node(static_cast<int>(n));
    node_shares_memo_[n] = node.builtin.has_value() &&
                           node.builtin_thresholds.has_value() &&
                           *node.builtin_thresholds == cfg_.thresholds;
  }
}

WindowResult Detector::AnalyzeWindow(const telemetry::DerivedTrace& trace,
                                     Time begin) const {
  return AnalyzeWindow(trace, begin, nullptr);
}

WindowResult Detector::AnalyzeWindow(const telemetry::DerivedTrace& trace,
                                     Time begin,
                                     WindowStatsCache* cache) const {
  WindowResult result;
  result.begin = begin;
  Time end = begin + cfg_.window;

  if (cache != nullptr) {
    cache->BeginWindow(begin, end);
    cache->set_memo_thresholds(&cfg_.thresholds);
  }

  if (cfg_.extract_features) {
    result.features =
        ExtractFeatures(trace, begin, end, cfg_.thresholds, cache);
  }

  for (int p = 0; p < 2; ++p) {
    WindowContext ctx(trace, begin, end, p, cache);
    auto& active = result.node_active[static_cast<std::size_t>(p)];
    active.resize(graph_.node_count());
    for (std::size_t n = 0; n < graph_.node_count(); ++n) {
      const Node& node = graph_.node(static_cast<int>(n));
      // Memo-sharing nodes go through DetectEvent with the detector's own
      // thresholds so their result is computed once per window even when
      // the same event also appears in the feature vector or other nodes.
      active[n] = node_shares_memo_[n]
                      ? DetectEvent(*node.builtin, ctx, cfg_.thresholds)
                      : node.detect(ctx);
    }
    // Per-node data-quality confidence for this window: min coverage over
    // the streams the node's condition reads — RequiredStreams for
    // built-ins, the declared/inferred custom_streams mask for DSL nodes.
    // A zero custom mask means "unknown" and stays at 1 (no downgrade).
    // Pure trace arithmetic — identical on the naive and incremental paths.
    std::vector<double> node_conf;
    if (trace.quality.present) {
      node_conf.resize(graph_.node_count(), 1.0);
      for (std::size_t n = 0; n < graph_.node_count(); ++n) {
        const Node& node = graph_.node(static_cast<int>(n));
        StreamMask mask =
            node.builtin.has_value()
                ? RequiredStreams(*node.builtin, p)
                : node.custom_streams[static_cast<std::size_t>(p)];
        if (mask == 0) continue;
        double conf = 1.0;
        for (std::size_t s = 0; s < telemetry::kStreamCount; ++s) {
          if ((mask & (1u << s)) == 0) continue;
          conf = std::min(
              conf, trace.quality.WindowCoverage(
                        static_cast<telemetry::StreamId>(s), begin, end));
        }
        node_conf[n] = conf;
      }
    }
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      bool all = true;
      for (int node : chains_[c]) {
        if (!active[static_cast<std::size_t>(node)]) {
          all = false;
          break;
        }
      }
      if (all) {
        double conf = 1.0;
        if (!node_conf.empty()) {
          for (int node : chains_[c]) {
            conf = std::min(conf, node_conf[static_cast<std::size_t>(node)]);
          }
        }
        result.chains.push_back(
            ChainInstance{begin, p, static_cast<int>(c), conf});
      }
    }
  }
  return result;
}

std::vector<WindowResult> Detector::AnalyzeWindows(
    const telemetry::DerivedTrace& trace,
    const std::vector<Time>& begins) const {
  std::vector<WindowResult> windows(begins.size());
  int threads = EffectiveThreads(cfg_.threads, begins.size());
  ParallelChunks(begins.size(), threads, [&](std::size_t b, std::size_t e) {
    // One cache per contiguous chunk keeps every cursor monotone; chunks
    // write disjoint slots, so the merged order is deterministic.
    std::unique_ptr<WindowStatsCache> cache;
    if (cfg_.incremental) cache = std::make_unique<WindowStatsCache>(trace);
    for (std::size_t i = b; i < e; ++i) {
      windows[i] = AnalyzeWindow(trace, begins[i], cache.get());
    }
  });
  return windows;
}

AnalysisResult Detector::Analyze(const telemetry::DerivedTrace& trace) const {
  AnalysisResult result;
  result.trace_duration = trace.end - trace.begin;
  if (trace.end <= trace.begin) return result;
  std::vector<Time> begins;
  if (trace.begin + cfg_.window >= trace.end) {
    // Shorter than (or exactly) one window: analyse the single truncated
    // window instead of dropping the capture.
    begins.push_back(trace.begin);
  } else {
    for (Time t = trace.begin; t + cfg_.window <= trace.end;
         t += cfg_.step) {
      begins.push_back(t);
    }
  }
  result.windows = AnalyzeWindows(trace, begins);
  return result;
}

}  // namespace domino::analysis
