#include "domino/events.h"

#include "domino/incremental.h"
#include "domino/prelude.h"

namespace domino::analysis {

// ---------------------------------------------------------------------------
// WindowContext aggregate helpers: cursor-backed when a cache is attached,
// computed from the sliced window otherwise (the naive path).
// ---------------------------------------------------------------------------

WindowView<double> WindowContext::View(const TimeSeries<double>& s) const {
  return cache_ ? cache_->View(s) : s.Window(begin_, end_);
}
std::size_t WindowContext::SeriesCount(const TimeSeries<double>& s) const {
  return cache_ ? cache_->Count(s) : View(s).size();
}
double WindowContext::SeriesMin(const TimeSeries<double>& s) const {
  return cache_ ? cache_->Min(s) : View(s).Min();
}
double WindowContext::SeriesMax(const TimeSeries<double>& s) const {
  return cache_ ? cache_->Max(s) : View(s).Max();
}
Time WindowContext::SeriesArgMin(const TimeSeries<double>& s) const {
  return cache_ ? cache_->ArgMin(s) : View(s).ArgMin();
}
Time WindowContext::SeriesArgMax(const TimeSeries<double>& s) const {
  return cache_ ? cache_->ArgMax(s) : View(s).ArgMax();
}
double WindowContext::SeriesSum(const TimeSeries<double>& s) const {
  return cache_ ? cache_->Sum(s) : View(s).Sum();
}
double WindowContext::SeriesMean(const TimeSeries<double>& s) const {
  if (!cache_) return View(s).Mean();
  return cache_->Sum(s) / static_cast<double>(cache_->Count(s));
}
std::size_t WindowContext::SeriesCountCmp(const TimeSeries<double>& s,
                                          CountOp op, double x) const {
  if (cache_) return cache_->CountCmp(s, op, x);
  return View(s).CountIf(
      [op, x](double v) { return op == CountOp::kBelow ? v < x : v > x; });
}
std::vector<double> WindowContext::SeriesTimeBuckets(
    const TimeSeries<double>& s, Duration width) const {
  if (cache_) return cache_->TimeBuckets(s, width);
  return TimeBucketMeans(View(s), begin_, width);
}

std::string ToString(const EventRef& ref) {
  std::string s = ToString(ref.type);
  if (ref.leg == PathLeg::kRev) s += "@rev";
  return s;
}

bool DetectEvent(const EventRef& ref, const WindowContext& ctx,
                 const EventThresholds& th) {
  return Prelude::For(th).Get(ref).Eval(ctx);
}

StreamMask RequiredStreams(const EventRef& ref, int sender_client) {
  // Masks depend on which series an entry reads, never on thresholds.
  return Prelude::For(EventThresholds{}).Get(ref).streams(sender_client);
}

}  // namespace domino::analysis
