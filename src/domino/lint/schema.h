// Declared telemetry schema for the domino-verify pass (DESIGN.md §12).
//
// Every dataset series the config DSL can reference gets one declared row:
// its unit, its physically plausible per-sample value range, the densest
// cadence it can arrive at, and the raw telemetry stream it derives from.
// The abstract evaluator (verify.h) folds conditions over these ranges;
// the parser's unit-sanity pass (DL110) and the did-you-mean candidate
// lists read the same table, so the schema is the single source of truth
// for what a series *is*.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "domino/events.h"
#include "telemetry/dataset.h"

namespace domino::analysis {
class ExprNode;
}  // namespace domino::analysis

namespace domino::analysis::lint {

/// Physical unit of a series (or of a derived scalar). kUnknown means the
/// unit was lost through arithmetic (or never known); kCount covers both
/// the count() aggregates and per-event tick series like harq_retx.
enum class Unit {
  kUnknown, kMs, kBps, kFps, kBytes, kPrb, kMcs, kCount, kResolution, kBool,
  kId,
};

/// Human-readable unit name for diagnostics ("milliseconds", "bits/s", ...).
const char* UnitName(Unit u);

/// Which scope family a series belongs to: 5G direction scopes
/// (fwd/rev/ul/dl) or client scopes (sender/receiver/ue/remote).
enum class SchemaScope { kDirection, kClient };

/// Raw stream a series derives from. Direction-scope series map to a fixed
/// stream; client-scope series come from one of the two stats streams,
/// resolved by scope + perspective (see ResolveSourceStream).
enum class SourceFeed : std::uint8_t { kDci, kGnbLog, kPackets, kClientStats };

struct SeriesSchema {
  const char* name;   ///< DSL series name, e.g. "owd_ms".
  SchemaScope scope;
  Unit unit;
  double min_value;   ///< Physically plausible per-sample range...
  double max_value;   ///< ...values outside can never occur in real data.
  /// Densest plausible inter-sample spacing in milliseconds. Bounds how
  /// many samples one analysis window can hold (DL407).
  double cadence_ms;
  SourceFeed source;
  /// The DerivedTrace member the row names, bound into parsed expressions:
  /// a DirectionSeries member for direction rows, a ClientSeries member
  /// for client rows (the other one is null).
  TimeSeries<double> telemetry::DirectionSeries::*dir_member = nullptr;
  TimeSeries<double> telemetry::ClientSeries::*client_member = nullptr;
};

/// The full declared schema, one row per (scope kind, series name).
const std::vector<SeriesSchema>& TelemetrySchema();

/// Row for a series in a scope family; nullptr when unknown.
const SeriesSchema* FindSeriesSchema(SchemaScope scope,
                                     const std::string& name);
/// Row for a `scope.name` reference using the scope token ("fwd", "sender",
/// ...); nullptr for unknown scopes or series.
const SeriesSchema* FindSeriesSchema(const std::string& scope,
                                     const std::string& name);

bool IsDirScopeName(const std::string& s);
bool IsClientScopeName(const std::string& s);

/// Most samples of `row` a window of `window_ms` can hold.
std::size_t MaxSamplesInWindow(const SeriesSchema& row, double window_ms);

/// The raw stream feeding `scope.name` when analysed from perspective
/// `sender_client` (0 = UE sends, 1 = remote sends).
telemetry::StreamId ResolveSourceStream(const SeriesSchema& row,
                                        const std::string& scope,
                                        int sender_client);

/// Streams a parsed condition reads, for perspective `sender_client` — the
/// inferred use-set DL406 checks declared `requires` clauses against, and
/// the coverage mask the detector degrades DSL-node confidence with.
StreamMask InferStreamUse(const ExprNode& expr, int sender_client);

/// Stream id for a canonical stream name ("dci", "gnb_log", "packets",
/// "stats_ue", "stats_remote"); nullopt for anything else.
std::optional<telemetry::StreamId> StreamIdFromName(const std::string& name);

/// Canonical comma-separated stream list for a mask, e.g. "dci, packets".
std::string StreamMaskNames(StreamMask mask);

}  // namespace domino::analysis::lint
