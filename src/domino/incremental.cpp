#include "domino/incremental.h"

#include <exception>
#include <mutex>
#include <thread>

namespace domino::analysis {

// ---------------------------------------------------------------------------
// SeriesCursor
// ---------------------------------------------------------------------------

void SeriesCursor::Advance(Time begin, Time end) {
  if (init_ && begin == begin_ && end == end_) return;
  const std::size_t n = series_->size();
  // hi_ > n means the series shrank under us (stale cursor): the indices are
  // meaningless, so re-seat instead of walking out of bounds.
  if (!init_ || begin < begin_ || end < end_ || hi_ > n) Reset(begin);
  begin_ = begin;
  end_ = end;
  while (hi_ < n && At(hi_).time < end) {
    Enter(hi_);
    ++hi_;
  }
  while (lo_ < hi_ && At(lo_).time < begin) {
    Leave(lo_);
    ++lo_;
  }
}

void SeriesCursor::Reset(Time begin) {
  lo_ = hi_ = series_->LowerBound(begin);
  min_dq_.clear();
  max_dq_.clear();
  sum_ = 0;
  for (Counter& c : counters_) c.n = 0;
  init_ = true;
}

void SeriesCursor::PushExtrema(std::size_t i) {
  double v = Value(i);
  // Strict pops keep the earliest of equal extrema at the front, matching
  // std::min_element / std::max_element first-occurrence semantics.
  while (!min_dq_.empty() && Value(min_dq_.back()) > v) min_dq_.pop_back();
  min_dq_.push_back(i);
  while (!max_dq_.empty() && Value(max_dq_.back()) < v) max_dq_.pop_back();
  max_dq_.push_back(i);
}

void SeriesCursor::TrackExtrema() {
  // A deque is index-ordered and pops from the back, so an index below lo_
  // (always in front of the in-window ones) never changes which in-window
  // indices a push removes, and each one was popped from the front when it
  // left. The contents therefore depend on [lo_, hi_) alone: pushing it in
  // order gives exactly the state an always-maintained deque would hold.
  track_extrema_ = true;
  for (std::size_t i = lo_; i < hi_; ++i) PushExtrema(i);
}

void SeriesCursor::Enter(std::size_t i) {
  double v = Value(i);
  if (track_extrema_) PushExtrema(i);
  sum_ += v;
  for (Counter& c : counters_) {
    if (Matches(c, v)) ++c.n;
  }
}

void SeriesCursor::Leave(std::size_t i) {
  double v = Value(i);
  if (track_extrema_) {
    if (!min_dq_.empty() && min_dq_.front() == i) min_dq_.pop_front();
    if (!max_dq_.empty() && max_dq_.front() == i) max_dq_.pop_front();
  }
  sum_ -= v;
  for (Counter& c : counters_) {
    if (Matches(c, v)) --c.n;
  }
}

std::size_t SeriesCursor::CountCmp(CountOp op, double x) {
  for (const Counter& c : counters_) {
    if (c.op == op && c.x == x) return c.n;
  }
  Counter c{op, x, 0};
  for (std::size_t i = lo_; i < hi_; ++i) {
    if (Matches(c, Value(i))) ++c.n;
  }
  counters_.push_back(c);
  return c.n;
}

// ---------------------------------------------------------------------------
// BucketGridCursor
// ---------------------------------------------------------------------------

BucketGridCursor::BucketGridCursor(const TimeSeries<double>& s, Time anchor,
                                   Duration width)
    : series_(&s), anchor_(anchor), width_(width) {
  next_ = series_->LowerBound(anchor);
}

bool BucketGridCursor::Aligned(Time begin, Time end) const {
  if (width_.micros() <= 0 || begin < anchor_) return false;
  return (begin - anchor_).micros() % width_.micros() == 0 &&
         (end - begin).micros() % width_.micros() == 0;
}

void BucketGridCursor::AbsorbUpTo(Time end) {
  const std::size_t n = series_->size();
  const std::int64_t w = width_.micros();
  while (next_ < n && (*series_)[next_].time < end) {
    const auto& s = (*series_)[next_];
    auto m = static_cast<std::size_t>((s.time - anchor_).micros() / w);
    if (m >= bucket_sum_.size()) {
      bucket_sum_.resize(m + 1, 0.0);
      bucket_cnt_.resize(m + 1, 0);
    }
    bucket_sum_[m] += s.value;
    ++bucket_cnt_[m];
    ++next_;
  }
}

std::vector<double> BucketGridCursor::Means(Time begin, Time end) {
  AbsorbUpTo(end);
  const std::int64_t w = width_.micros();
  auto m0 = static_cast<std::size_t>((begin - anchor_).micros() / w);
  auto m1 = static_cast<std::size_t>((end - anchor_).micros() / w);
  std::vector<double> out;
  out.reserve(m1 - m0);
  for (std::size_t m = m0; m < m1 && m < bucket_cnt_.size(); ++m) {
    if (bucket_cnt_[m] > 0) {
      out.push_back(bucket_sum_[m] / static_cast<double>(bucket_cnt_[m]));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// WindowStatsCache
// ---------------------------------------------------------------------------

void WindowStatsCache::BeginWindow(Time begin, Time end) {
  begin_ = begin;
  end_ = end;
  ++window_;
  recent_ = {};
  // Cursors advance lazily on first access per window (Cursor()).
}

SeriesCursor& WindowStatsCache::Cursor(const TimeSeries<double>& s) {
  // A condition usually asks several aggregates of one or two series in a
  // row (count, then min, then max): the last two cursors of this window
  // skip the map lookup.
  if (recent_[0].series == &s) return *recent_[0].cursor;
  if (recent_[1].series == &s) {
    std::swap(recent_[0], recent_[1]);
    return *recent_[0].cursor;
  }
  auto [it, inserted] = cursors_.try_emplace(&s, s);
  it->second.Advance(begin_, end_);
  recent_[1] = recent_[0];
  recent_[0] = {&s, &it->second};  // map nodes never move
  return it->second;
}

WindowView<double> WindowStatsCache::View(const TimeSeries<double>& s) {
  return Cursor(s).View();
}
std::size_t WindowStatsCache::Count(const TimeSeries<double>& s) {
  return Cursor(s).count();
}
double WindowStatsCache::Min(const TimeSeries<double>& s) {
  return Cursor(s).Min();
}
double WindowStatsCache::Max(const TimeSeries<double>& s) {
  return Cursor(s).Max();
}
Time WindowStatsCache::ArgMin(const TimeSeries<double>& s) {
  return Cursor(s).ArgMin();
}
Time WindowStatsCache::ArgMax(const TimeSeries<double>& s) {
  return Cursor(s).ArgMax();
}
double WindowStatsCache::Sum(const TimeSeries<double>& s) {
  return Cursor(s).Sum();
}
std::size_t WindowStatsCache::CountCmp(const TimeSeries<double>& s, CountOp op,
                                       double x) {
  return Cursor(s).CountCmp(op, x);
}

std::vector<double> WindowStatsCache::TimeBuckets(const TimeSeries<double>& s,
                                                  Duration width) {
  GridKey key{&s, width.micros()};
  auto it = grids_.find(key);
  if (it == grids_.end()) {
    // Anchor the grid at the first window that asks; later aligned windows
    // share its bucket edges.
    it = grids_.emplace(key, Grid{BucketGridCursor(s, begin_, width), 0, {}})
             .first;
  }
  Grid& g = it->second;
  // Conditions often ask twice per window (a count, then a percentile).
  if (g.window != window_) {
    g.window = window_;
    g.means = g.cursor.Aligned(begin_, end_)
                  ? g.cursor.Means(begin_, end_)
                  : TimeBucketMeans(Cursor(s).View(), begin_, width);
  }
  return g.means;
}

std::size_t WindowStatsCache::MemoProbe(const void* condition) const {
  const std::size_t mask = memo_.size() - 1;
  // Fibonacci hashing: condition objects are aligned, so the low address
  // bits alone would cluster.
  const std::uint64_t h =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(condition)) *
      0x9E3779B97F4A7C15ull;
  std::size_t i = static_cast<std::size_t>(h >> 32) & mask;
  while (memo_[i].key != nullptr && memo_[i].key != condition) {
    i = (i + 1) & mask;
  }
  return i;
}

std::int8_t& WindowStatsCache::Memo(const void* condition, int sender) {
  std::size_t i = MemoProbe(condition);
  if (memo_[i].key == nullptr) {
    if (2 * (memo_used_ + 1) > memo_.size()) {
      // Keep the load at most one half.
      std::vector<MemoSlot> old(memo_.size() * 2);
      old.swap(memo_);
      for (const MemoSlot& o : old) {
        if (o.key != nullptr) memo_[MemoProbe(o.key)] = o;
      }
      i = MemoProbe(condition);
    }
    memo_[i].key = condition;
    ++memo_used_;
  }
  MemoSlot& slot = memo_[i];
  if (slot.window != window_) {
    slot.window = window_;
    slot.value = {-1, -1};
  }
  return slot.value[static_cast<std::size_t>(sender)];
}

// ---------------------------------------------------------------------------
// Parallel fan-out helpers
// ---------------------------------------------------------------------------

int EffectiveThreads(int requested, std::size_t max_useful) {
  int t = requested;
  if (t <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    t = hw == 0 ? 1 : static_cast<int>(hw);
  }
  if (max_useful < 1) max_useful = 1;
  if (static_cast<std::size_t>(t) > max_useful) {
    t = static_cast<int>(max_useful);
  }
  return t < 1 ? 1 : t;
}

void ParallelChunks(std::size_t n, int threads,
                    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  threads = EffectiveThreads(threads, n);
  if (threads <= 1) {
    fn(0, n);
    return;
  }
  auto k = static_cast<std::size_t>(threads);
  std::vector<std::thread> workers;
  workers.reserve(k - 1);
  std::exception_ptr error;
  std::mutex error_mu;
  auto run = [&](std::size_t b, std::size_t e) {
    try {
      fn(b, e);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  // Chunk i covers [i*n/k, (i+1)*n/k) — contiguous so each worker's cursors
  // stay monotone; the merge order is fixed by the index range itself.
  for (std::size_t i = 1; i < k; ++i) {
    workers.emplace_back(run, i * n / k, (i + 1) * n / k);
  }
  run(0, n / k);
  for (auto& w : workers) w.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace domino::analysis
