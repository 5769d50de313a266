// Long-lived `domino serve` daemon — watch discovery, drain manifests,
// liveness reporting.
//
// The batch fleet (fleet.h) runs a fixed spec list to completion. An
// operator box, though, runs `domino serve --watch` for days: capture
// sessions appear while the fleet is running, the process is restarted on
// deploys, and the box occasionally runs out of disk mid-write. This
// module adds the daemon lifecycle around the FleetSupervisor:
//
//  * Runtime discovery. Serve roots are re-scanned on an interval; a
//    subdirectory is admitted the moment it becomes *ready* — its
//    meta.csv parses (the same readiness rule live mode's AwaitMeta
//    uses), so a capture directory that is still being rsync'd in is
//    left alone until its session row lands. Admission goes through the
//    normal AddSessions budget path; no fleet restart.
//
//  * Crash-only restart. SIGTERM starts a graceful drain: in-flight
//    attempts checkpoint and stop, everything still open is suspended,
//    and a *fleet manifest* — the checksummed session ledger defined
//    here — is written next to the state dirs. A restarted daemon seeds
//    its supervisor from the manifest: terminal sessions are reported
//    verbatim, suspended ones resume from their checkpoints with their
//    attempt counters intact, and the final report comes out
//    byte-identical to an undisturbed run's. The drain is an
//    optimisation, not a correctness requirement: a SIGKILLed daemon
//    re-runs open sessions from their last periodic checkpoints instead.
//
//  * Environmental fault tolerance. Checkpoint and report writes are
//    guarded by the deterministic disk-fault injector (diskfault.h);
//    an injected — or real — ENOSPC/EIO write failure fails the one
//    *attempt*, which the supervisor retries and eventually quarantines.
//    The daemon itself never exits on a session's write failure, and its
//    own manifest/status writes degrade to warnings.
//
//  * Liveness. fleet_status.json is refreshed on an interval: daemon
//    state, session counts, failed-attempt totals, and the age of the
//    newest open-session checkpoint — enough for an external monitor to
//    tell "draining" from "wedged".
//
// DESIGN.md §14 documents the lifecycle state machine and the manifest
// format in full.
#pragma once

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "domino/graph.h"
#include "domino/runtime/fleet.h"

namespace domino::runtime {

/// One session's line in the fleet manifest: where it lives plus the
/// supervision state a restarted daemon seeds from.
struct ManifestEntry {
  SessionSpec spec;  ///< dataset/state/tenant, state_dir always resolved.
  SessionSeed seed;  ///< Terminal outcome, or the open attempt counter.
};

/// The drain ledger `domino serve` writes at shutdown and seeds from at
/// startup. The config fields are the determinism-relevant knobs: a
/// manifest written under one admission-budget configuration must not be
/// resumed under another (the backlog shares — and therefore shedding —
/// would differ from the undisturbed run the resume is promising to
/// reproduce).
struct FleetManifest {
  int workers = 0;
  int max_attempts = 0;
  long global_backlog_windows = 0;
  IsolationMode isolate = IsolationMode::kThread;
  /// Sharded fleets: the box id that wrote this manifest ("" = unsharded).
  /// Not config — two boxes' manifests over one state root merge in
  /// `domino fleet-status`, and a resume only needs the same box id.
  std::string owner;
  std::vector<ManifestEntry> sessions;  ///< Admission order.
};

/// Serialises the manifest as a sealed record (common/sealed_record.h),
/// the format checkpoints use: torn writes fail the checksum, unknown keys
/// fail the parse.
std::string FormatFleetManifest(const FleetManifest& m);

/// Parses and verifies a manifest document. On failure returns false with
/// a diagnostic in `*error`.
bool ParseFleetManifest(const std::string& text, FleetManifest* out,
                        std::string* error);

/// Durable, fault-injectable manifest write (AtomicWriteFile, fsync'd).
bool SaveFleetManifest(const FleetManifest& m, const std::string& path,
                       DiskFaultInjector* fault = nullptr,
                       std::string* error = nullptr);

/// Loads `path`. Returns false with an *empty* error when the file does
/// not exist (fresh start) and with a diagnostic when it exists but is
/// larger than 64 MiB or does not parse (the caller should refuse to
/// guess).
bool LoadFleetManifest(const std::string& path, FleetManifest* out,
                       std::string* error);

/// Builds the shutdown manifest from a finished (possibly drained) run:
/// ok -> done, quarantined -> quar, suspended -> open with the preserved
/// attempt counter. `specs` is the full admission-ordered spec list,
/// parallel to `report.outcomes`.
FleetManifest BuildFleetManifest(const FleetReport& report,
                                 const std::vector<SessionSpec>& specs);

/// Live-mode readiness, lifted to discovery: a directory is a session the
/// daemon may admit once its meta.csv parses (same PollMeta rule AwaitMeta
/// polls on). A directory still being copied in fails this until the
/// session row lands.
bool SessionDirReady(const std::string& dir);

/// One discovery sweep: the immediate subdirectories of each root that
/// are ready, not yet in `known`, and not under `skip_prefix` (the state
/// root lives inside a watch root in common layouts). Sorted by path, so
/// admission order within a sweep is deterministic.
std::vector<std::string> ScanForSessions(
    const std::vector<std::string>& roots,
    const std::set<std::string>& known, const std::string& skip_prefix);

/// Stable state directory for a runtime-discovered session:
/// <state_root>/<sanitised-basename>_<path-hash>. A restarted daemon maps
/// the same dataset to the same state dir whatever the admission order.
std::string SessionStateDirFor(const std::string& state_root,
                               const std::string& dataset_dir);

/// SIGHUP-reloadable knobs. Zero (or negative) fields mean "keep the
/// current value" — an absent key never resets anything.
struct DaemonTunables {
  int max_attempts = 0;
  long backoff_ms = 0;
  long backoff_cap_ms = 0;
  double session_deadline_s = 0;
  long scan_interval_ms = 0;
  long status_interval_ms = 0;
  long drain_grace_ms = 0;
};

/// Parses a `key value` / '#'-comment tunables file. Unknown keys and
/// malformed values fail the whole reload (half-applied tunables are
/// worse than stale ones).
bool ParseTunablesFile(const std::string& path, DaemonTunables* out,
                       std::string* error);

struct ServeDaemonOptions {
  bool watch = false;          ///< Re-scan roots for new session dirs.
  bool exit_when_idle = false;  ///< Watch mode: exit once all known
                                ///< sessions are terminal and a sweep
                                ///< found nothing new (tests/CI).
  long scan_interval_ms = 500;
  long status_interval_ms = 1'000;
  long drain_grace_ms = 5'000;  ///< SIGTERM -> escalation grace.
  /// Root for runtime-discovered sessions' state dirs ("" = each
  /// dataset's own live_state). Also the default skip prefix for scans.
  std::string state_root;
  std::string manifest_path;  ///< "" = no manifest (no resume).
  std::string status_path;    ///< "" = no liveness file.
  std::string tunables_path;  ///< "" = SIGHUP only rescans the roots.
  /// Sharded fleet (shard.h): this box's id. Non-empty = sessions are
  /// claimed through per-session leases under <state_root>/shard before
  /// they are admitted, heartbeats are renewed while they run, and
  /// sessions claimed by a live box elsewhere are skipped (and re-tried
  /// each sweep, so a crashed box's work is taken over once its
  /// heartbeat goes stale). Requires state_root.
  std::string owner;
  long lease_ttl_ms = 15'000;  ///< Heartbeat staler than this = dead box.
  long heartbeat_ms = 0;       ///< Renew cadence; 0 = lease_ttl_ms / 4.
  std::vector<std::string> watch_roots;
  /// Signal mailboxes, incremented by the CLI's handlers. A second
  /// SIGTERM escalates the drain immediately (skip the grace period).
  std::atomic<int>* term_signals = nullptr;
  std::atomic<int>* hup_signals = nullptr;
};

struct ServeDaemonResult {
  FleetReport report;   ///< report.drained = the run ended in a drain.
  bool resumed = false;  ///< Seeded from an existing manifest.
  bool fatal = false;    ///< Nothing ran; `error` says why.
  std::string error;
};

/// Runs the serve lifecycle: manifest seeding, the supervisor itself, the
/// watch/status/signal loop, and the shutdown manifest. `specs` are the
/// CLI operands (state dirs may be empty = default); watch-discovered
/// sessions are appended behind them in discovery order.
ServeDaemonResult RunServeDaemon(std::vector<SessionSpec> specs,
                                 analysis::CausalGraph graph,
                                 LiveOptions live, FleetOptions fleet,
                                 const ServeDaemonOptions& dopts);

}  // namespace domino::runtime
