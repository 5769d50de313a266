// Session records shared by every multi-session runner.
//
// One operator box typically watches several concurrent calls. Each
// session is one LiveRunner (its own dataset and state directory, tail
// reader, detector and watchdog) with no shared mutable state, so one
// poisoned stream (corrupt checkpoint, missing meta, truncated files) ends
// its own session with a recorded error and cannot stall or corrupt the
// others. FleetSupervisor (fleet.h) runs them: `domino live <dirs...>`
// uses one worker per dataset (one at a time with --sequential) and a
// single attempt each; `domino serve` adds retries, deadlines and budgets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "domino/graph.h"
#include "domino/runtime/live.h"

namespace domino::runtime {

struct SessionSpec {
  std::string dataset_dir;
  std::string state_dir;  ///< Empty = DefaultStateDir(dataset_dir).
  std::string tenant;     ///< Budget group for fleet mode ("" = untenanted).
};

struct SessionOutcome {
  std::string dataset_dir;
  std::string tenant;
  bool ok = false;
  std::string error;    ///< Why the session failed (ok == false).
  LiveSummary summary;  ///< Full summary when ok; best-effort partial
                        ///< progress reconstructed from the last good
                        ///< checkpoint when not (see has_partial).

  // Supervision record (FleetSupervisor).
  int attempts = 0;        ///< Attempts consumed, including the final one.
  bool quarantined = false;       ///< Attempt budget exhausted.
  bool deadline_exceeded = false;  ///< Any attempt hit the wall-clock deadline.
  int exit_code = -1;      ///< Process isolation: child exit code (-1 = n/a).
  int term_signal = 0;     ///< Process isolation: signal that killed the child.
  bool has_partial = false;  ///< `summary` carries checkpoint-derived partial
                             ///< progress for a failed session.
  /// Graceful drain stopped this session mid-run (fleet daemon mode). Not
  /// a failure: the checkpoint is intact and a restarted fleet resumes it
  /// to the same final outcome an undisturbed run would have produced.
  bool suspended = false;
  /// Sharded fleet mode: the session's lease was stolen mid-attempt (this
  /// box was presumed dead) and the fencing check stopped every further
  /// write. Terminal here but not a fleet failure — the new owner finishes
  /// the work; no published file was touched by the fenced attempt.
  bool fenced = false;
  /// Trace time the last good checkpoint covers (µs since epoch; 0 = none).
  std::int64_t checkpointed_to_us = 0;
};

/// Best-effort partial progress for a failed session: reconstructs a
/// LiveSummary (windows, chains, shed, checkpoints, ...) from the last good
/// checkpoint in `state_dir`, if any. Returns false (and leaves `out`
/// untouched) when no readable checkpoint exists.
bool LoadProgressFromState(const std::string& state_dir, LiveSummary* out,
                           std::int64_t* checkpointed_to_us);

}  // namespace domino::runtime
