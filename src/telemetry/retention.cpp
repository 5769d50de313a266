#include "telemetry/retention.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace domino::telemetry {

namespace {

constexpr Duration kCutGrid = Seconds(1.0);

/// One stream of GatherAnalysisSpan; `rows` is index scratch.
template <typename Cols>
void GatherStreamSpan(const Cols& src, Time lo, Cols& dst,
                      std::vector<std::uint32_t>& rows) {
  const std::size_t n = src.size();
  std::size_t first = n;
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (src.RowTime(i) >= lo) {
      if (count == 0) first = i;
      ++count;
    }
  }
  if (count == 0 && n > 0) {  // Keep the stream present: its last row.
    first = n - 1;
    count = 1;
  }
  if (first + count == n) {
    dst.BorrowRows(src, first, count);
    return;
  }
  rows.clear();
  for (std::size_t i = first; i < n; ++i) {
    if (src.RowTime(i) >= lo) rows.push_back(static_cast<std::uint32_t>(i));
  }
  dst.GatherRows(src, rows);
}

}  // namespace

Time QuantizeRetentionCut(Time anchor, Time t) {
  if (t <= anchor) return anchor;
  return anchor + kCutGrid * ((t - anchor) / kCutGrid);
}

std::size_t CountRecords(const SessionDataset& ds) {
  return ds.dci.size() + ds.gnb_log.size() + ds.packets.size() +
         ds.stats[0].size() + ds.stats[1].size() + ds.ue_rnti.size();
}

std::size_t ApplyRetention(SessionDataset& ds, Time cut,
                           RetentionStats& stats) {
  if (cut <= ds.begin) return 0;
  // Columnar streams compact in place per column; the cut key is each
  // stream's RowTime (send time for packets, sample time elsewhere).
  std::size_t evicted = 0;
  evicted += ds.dci.RemoveOlderThan(cut);
  evicted += ds.gnb_log.RemoveOlderThan(cut);
  evicted += ds.packets.RemoveOlderThan(cut);
  for (auto& stream : ds.stats) {
    evicted += stream.RemoveOlderThan(cut);
  }
  // The RNTI timeline is a step function read via ValueAt: the value in
  // force at the cut must survive, re-anchored, or retained DCIs would be
  // reclassified as cross traffic.
  if (!ds.ue_rnti.empty() && ds.ue_rnti.front().time < cut) {
    double at_cut = ds.ue_rnti.ValueAt(cut, -1.0);
    TimeSeries<double> trimmed;
    if (at_cut >= 0) trimmed.Push(cut, at_cut);
    for (const auto& s : ds.ue_rnti) {
      if (s.time >= cut) trimmed.Push(s.time, s.value);
    }
    evicted += ds.ue_rnti.size() >= trimmed.size()
                   ? ds.ue_rnti.size() - trimmed.size()
                   : 0;
    ds.ue_rnti = std::move(trimmed);
  }
  ds.begin = cut;
  if (evicted > 0) {
    ++stats.cuts;
    stats.evicted_records += evicted;
  }
  return evicted;
}

void NoteRetained(const SessionDataset& ds, RetentionStats& stats) {
  stats.peak_retained_records =
      std::max(stats.peak_retained_records, CountRecords(ds));
  if (ds.end > ds.begin) {
    stats.peak_retained_span =
        std::max(stats.peak_retained_span, ds.end - ds.begin);
  }
}

void GatherAnalysisSpan(const SessionDataset& ds, Time lo,
                        SessionDataset& span) {
  span.cell_name = ds.cell_name;
  span.is_private_cell = ds.is_private_cell;
  span.begin = lo;
  span.end = ds.end;
  span.ue_rnti = ds.ue_rnti;
  std::vector<std::uint32_t> rows;
  GatherStreamSpan(ds.dci, lo, span.dci, rows);
  GatherStreamSpan(ds.gnb_log, lo, span.gnb_log, rows);
  GatherStreamSpan(ds.packets, lo, span.packets, rows);
  for (std::size_t c = 0; c < ds.stats.size(); ++c) {
    GatherStreamSpan(ds.stats[c], lo, span.stats[c], rows);
  }
}

}  // namespace domino::telemetry
