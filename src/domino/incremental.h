// Incremental sliding-window aggregation engine.
//
// The Domino window slides by Δt = 0.5 s over W = 5 s of telemetry, so
// consecutive windows share 90% of their samples; per-slot DCI series carry
// ~1000 samples/s. The naive path re-slices (two binary searches) and
// re-scans every series for every window — O(windows · samples). This
// engine replaces that with
//
//   * SeriesCursor — a per-series monotone [lo, hi) index cursor that
//     advances with the window, entering each sample once and leaving it
//     once: O(samples + windows) for the cursor walk itself;
//   * incremental aggregates — running sum/count, monotonic-deque min/max
//     (preserving the naive "first minimal/maximal sample" tie-break), and
//     lazily registered threshold counters, making Min/Max/ArgMin/ArgMax/
//     Sum/Count/CountIf O(1) amortised per window step. A cursor pays only
//     for what it is asked: the min/max deques start on its first extrema
//     query, seeded from the current window (their contents depend on the
//     window alone, so the state is identical to always-on tracking), and a
//     counter starts on the first query for its threshold;
//   * BucketGridCursor — grid-aligned time-bucket means for the 50 ms MCS
//     grouping (Appendix D #16), exact versus TimeBucketMeans whenever the
//     window begin and width stay on the bucket grid;
//   * WindowStatsCache — the per-window façade hung off WindowContext, so
//     an aggregate (or a whole condition's result) queried by several
//     graph nodes and the feature extractor is computed once per window.
//
// All aggregates reproduce the naive path bit-for-bit except the running
// sum, which is maintained by add/subtract and can differ from a fresh
// left-to-right summation in the last ulps for non-integer data (PRB counts
// — the one built-in Sum consumer — are integer-valued, hence exact).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "common/timeseries.h"
#include "domino/events.h"
#include "telemetry/dataset.h"

namespace domino::analysis {

/// Monotone window cursor over one series with O(1) amortised aggregates.
/// Advance() must be called with non-decreasing [begin, end) intervals; a
/// non-monotone call falls back to re-initialising the state (correct, just
/// not amortised O(1)).
class SeriesCursor {
 public:
  explicit SeriesCursor(const TimeSeries<double>& s) : series_(&s) {}

  /// Moves the window to [begin, end), updating every maintained aggregate.
  void Advance(Time begin, Time end);

  [[nodiscard]] WindowView<double> View() const {
    return series_->ViewRange(lo_, hi_);
  }
  [[nodiscard]] std::size_t count() const { return hi_ - lo_; }
  [[nodiscard]] bool empty() const { return hi_ == lo_; }

  /// Aggregates below require a non-empty window (same contract as
  /// WindowView::Min/Max/ArgMin/ArgMax). The first of them on a cursor
  /// starts its min/max deques; until then Advance maintains none.
  [[nodiscard]] double Min() { return Value(MinDeque().front()); }
  [[nodiscard]] double Max() { return Value(MaxDeque().front()); }
  [[nodiscard]] Time ArgMin() { return At(MinDeque().front()).time; }
  [[nodiscard]] Time ArgMax() { return At(MaxDeque().front()).time; }
  [[nodiscard]] double Sum() const { return sum_; }

  /// Count of samples with value < x (kBelow) or > x (kAbove). The first
  /// query for a given (op, x) scans the current window to seed the
  /// counter; subsequent windows maintain it incrementally.
  [[nodiscard]] std::size_t CountCmp(CountOp op, double x);

 private:
  struct Counter {
    CountOp op;
    double x;
    std::size_t n = 0;
  };

  [[nodiscard]] Sample<double> At(std::size_t i) const {
    return (*series_)[i];
  }
  [[nodiscard]] double Value(std::size_t i) const { return At(i).value; }
  static bool Matches(const Counter& c, double v) {
    return c.op == CountOp::kBelow ? v < c.x : v > c.x;
  }

  const std::deque<std::size_t>& MinDeque() {
    if (!track_extrema_) TrackExtrema();
    return min_dq_;
  }
  const std::deque<std::size_t>& MaxDeque() {
    if (!track_extrema_) TrackExtrema();
    return max_dq_;
  }

  void Enter(std::size_t i);  ///< Sample i joins the window at the back.
  void Leave(std::size_t i);  ///< Sample i leaves the window at the front.
  void Reset(Time begin);     ///< Re-seats the cursor via binary search.
  void PushExtrema(std::size_t i);  ///< Appends i to both deques.
  void TrackExtrema();  ///< Starts the deques from the current window.

  const TimeSeries<double>* series_;
  bool init_ = false;
  Time begin_{0};
  Time end_{0};
  std::size_t lo_ = 0;
  std::size_t hi_ = 0;
  bool track_extrema_ = false;      ///< Deques below are maintained.
  std::deque<std::size_t> min_dq_;  ///< Indices, values non-decreasing.
  std::deque<std::size_t> max_dq_;  ///< Indices, values non-increasing.
  double sum_ = 0;
  std::vector<Counter> counters_;
};

/// Grid-aligned time-bucket means: per-bucket (sum, count) on the fixed grid
/// anchor + k * width, appended once as the sample cursor first crosses each
/// bucket. Means(begin, end) reproduces TimeBucketMeans(view, begin, width)
/// exactly (same samples, same summation order) provided begin/end stay on
/// the grid — the caller must check Aligned() and fall back otherwise.
class BucketGridCursor {
 public:
  BucketGridCursor(const TimeSeries<double>& s, Time anchor, Duration width);

  /// True if [begin, end) lies on this cursor's bucket grid.
  [[nodiscard]] bool Aligned(Time begin, Time end) const;

  /// Means of the non-empty buckets covering [begin, end), in time order.
  /// `begin` must be non-decreasing across calls and >= the anchor.
  [[nodiscard]] std::vector<double> Means(Time begin, Time end);

 private:
  void AbsorbUpTo(Time end);  ///< Buckets all samples with time < end.

  const TimeSeries<double>* series_;
  Time anchor_;
  Duration width_;
  std::size_t next_ = 0;  ///< First sample not yet bucketed.
  std::vector<double> bucket_sum_;
  std::vector<std::size_t> bucket_cnt_;
};

/// Per-window aggregate/event cache backed by the incremental cursors. One
/// instance serves a monotone run of windows over one DerivedTrace (both
/// perspectives of each window share it). Not thread-safe: parallel window
/// fan-out gives each worker its own cache.
class WindowStatsCache {
 public:
  explicit WindowStatsCache(const telemetry::DerivedTrace& trace)
      : trace_(&trace), trace_build_id_(trace.build_id) {}

  [[nodiscard]] const telemetry::DerivedTrace& trace() const {
    return *trace_;
  }
  /// build_id of the trace this cache was constructed for, recorded at
  /// construction (safe to read even if the trace object has since died).
  [[nodiscard]] std::uint64_t trace_build_id() const {
    return trace_build_id_;
  }

  /// Starts a new window; invalidates the per-window memo. Windows must be
  /// presented in non-decreasing begin order for O(1) amortised behaviour.
  void BeginWindow(Time begin, Time end);

  [[nodiscard]] Time begin() const { return begin_; }
  [[nodiscard]] Time end() const { return end_; }

  // -- Series aggregates (cursor-backed) -----------------------------------
  [[nodiscard]] WindowView<double> View(const TimeSeries<double>& s);
  [[nodiscard]] std::size_t Count(const TimeSeries<double>& s);
  [[nodiscard]] double Min(const TimeSeries<double>& s);
  [[nodiscard]] double Max(const TimeSeries<double>& s);
  [[nodiscard]] Time ArgMin(const TimeSeries<double>& s);
  [[nodiscard]] Time ArgMax(const TimeSeries<double>& s);
  [[nodiscard]] double Sum(const TimeSeries<double>& s);
  [[nodiscard]] std::size_t CountCmp(const TimeSeries<double>& s, CountOp op,
                                     double x);
  /// TimeBucketMeans(View(s), begin, width), grid-accelerated when aligned.
  [[nodiscard]] std::vector<double> TimeBuckets(const TimeSeries<double>& s,
                                                Duration width);

  // -- Condition memo -----------------------------------------------------
  /// The current window's memo slot for `condition` (a Condition, prelude.h,
  /// or any other stable address naming one compiled condition) seen from
  /// perspective `sender`: -1 until stored, else 0/1. BeginWindow clears
  /// every slot. The reference is valid until the next Memo call.
  [[nodiscard]] std::int8_t& Memo(const void* condition, int sender);

 private:
  SeriesCursor& Cursor(const TimeSeries<double>& s);
  /// Slot index holding `condition`, or the empty slot it would take.
  [[nodiscard]] std::size_t MemoProbe(const void* condition) const;

  const telemetry::DerivedTrace* trace_;
  std::uint64_t trace_build_id_ = 0;
  Time begin_{0};
  Time end_{0};
  std::unordered_map<const TimeSeries<double>*, SeriesCursor> cursors_;
  struct GridKey {
    const TimeSeries<double>* series;
    std::int64_t width_us;
    bool operator==(const GridKey&) const = default;
  };
  struct GridKeyHash {
    std::size_t operator()(const GridKey& k) const {
      return std::hash<const void*>()(k.series) ^
             (std::hash<std::int64_t>()(k.width_us) * 0x9E3779B97F4A7C15ull);
    }
  };
  struct Grid {
    BucketGridCursor cursor;
    std::uint64_t window = 0;    ///< `means` belong to this window.
    std::vector<double> means;
  };
  std::unordered_map<GridKey, Grid, GridKeyHash> grids_;
  struct Recent {
    const TimeSeries<double>* series = nullptr;
    SeriesCursor* cursor = nullptr;
  };
  std::array<Recent, 2> recent_{};  ///< Cursors advanced this window.

  /// Open-addressing table keyed by condition address; a slot's values
  /// belong to the window numbered `window` and read as unset otherwise.
  struct MemoSlot {
    const void* key = nullptr;
    std::uint64_t window = 0;
    std::array<std::int8_t, 2> value{-1, -1};
  };
  std::vector<MemoSlot> memo_ = std::vector<MemoSlot>(64);
  std::size_t memo_used_ = 0;
  std::uint64_t window_ = 1;  ///< Advanced by BeginWindow.
};

/// Runs fn(chunk_begin, chunk_end) over `threads` contiguous, near-equal
/// chunks of [0, n), one chunk inline and the rest on std::threads, joining
/// before returning. The first exception thrown by any chunk is rethrown.
/// With threads <= 1 (or n <= 1) the call is a plain sequential loop.
void ParallelChunks(std::size_t n, int threads,
                    const std::function<void(std::size_t, std::size_t)>& fn);

/// Resolves a DominoConfig thread request: explicit counts pass through,
/// 0 means std::thread::hardware_concurrency(); the result is clamped to
/// [1, max_useful].
int EffectiveThreads(int requested, std::size_t max_useful);

}  // namespace domino::analysis
