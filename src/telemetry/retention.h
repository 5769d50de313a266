// Bounded-memory trace retention for long-running (live) analysis.
//
// A live pipeline must not hold a multi-hour session in memory: once the
// sliding window has moved past a sample (plus a safety horizon for
// reordering and re-derivation), the sample can never influence another
// window and is evicted. ApplyRetention drops every raw record older than a
// cut time from a SessionDataset in place and moves the dataset begin
// forward, so the derived trace built from it only spans the retained
// horizon.
//
// Callers must quantise the cut (see QuantizeRetentionCut): the derived
// bitrate series are binned on a fixed 50 ms grid anchored at the dataset
// begin, so an arbitrary cut would shift bin boundaries and make window
// results depend on *when* retention ran. A cut on the 1 s grid keeps every
// derived sample of the retained region bit-identical to the unevicted
// trace — the property the crash-safe runtime's kill-and-resume determinism
// rests on.
#pragma once

#include "telemetry/dataset.h"

namespace domino::telemetry {

/// Running totals the live report exposes so bounded memory is asserted by
/// numbers, not by eyeballing RSS.
struct RetentionStats {
  long cuts = 0;                        ///< Eviction passes that dropped data.
  std::size_t evicted_records = 0;      ///< Raw records dropped so far.
  std::size_t peak_retained_records = 0;
  Duration peak_retained_span{0};       ///< Max ds.end - ds.begin observed.
};

/// Largest 1 s grid point (relative to `anchor`) that is <= `t`; `anchor`
/// itself when `t` is before the first grid point.
Time QuantizeRetentionCut(Time anchor, Time t);

/// Total raw records currently held by the dataset (all five streams plus
/// the RNTI timeline).
std::size_t CountRecords(const SessionDataset& ds);

/// Drops every record with time < `cut` from all streams of `ds` and sets
/// ds.begin = cut. Packets are cut by send time; the RNTI timeline keeps
/// its last pre-cut value (re-anchored at the cut) so RNTI classification
/// of retained DCIs is unchanged. No-op when cut <= ds.begin. Returns the
/// number of records evicted and updates `stats`.
std::size_t ApplyRetention(SessionDataset& ds, Time cut,
                           RetentionStats& stats);

/// Records the current dataset size in the peak trackers (call once per
/// poll, after ingest).
void NoteRetained(const SessionDataset& ds, RetentionStats& stats);

/// Bounded analysis span for live polling: fills `span` with the rows of
/// `ds` whose RowTime is >= `lo`, in storage order, and sets span.begin =
/// `lo`. Metadata, the end time and the RNTI timeline are copied as is. A
/// stream that has rows but none at or after `lo` keeps its last row, so
/// the sanitizer still treats it as present and reports its tail gap.
/// Streams whose selected rows form a suffix of `ds` are borrowed
/// zero-copy, valid until `ds` is next modified; the others are gathered
/// into `span`'s own column storage, which is reused across calls.
///
/// `lo` must be >= ds.begin and on the 1 s retention grid
/// (QuantizeRetentionCut), so the derived 50 ms rate bins keep their edges.
/// Then sanitizing and deriving the span gives every window that begins at
/// or after lo + gap_threshold the same detector result as sanitizing and
/// deriving all of `ds` (DESIGN.md §9 has the argument). Skew correction
/// estimates over the whole span, so it breaks this; callers must not
/// enable it.
void GatherAnalysisSpan(const SessionDataset& ds, Time lo,
                        SessionDataset& span);

}  // namespace domino::telemetry
