// Shared-filesystem lease with fencing tokens — the coordination primitive
// for the cross-box sharded fleet.
//
// N `domino serve` daemons on different boxes share one state root over a
// shared filesystem (NFS or local). Each unit of work (a session) is owned
// by at most one daemon at a time, enforced by a lease directory:
//
//   <lease_dir>/lease        the lease itself — IMMUTABLE once published
//   <lease_dir>/hb-e<N>      heartbeat file for fencing token N
//   <lease_dir>/epochs/e<N>  token allocator (exclusive mkdir per token)
//   <lease_dir>/stale-e<N>   renamed-away stale lease (stealer N's debris)
//
// The only primitives assumed of the filesystem are atomic rename(2),
// atomic link(2) (fails with EEXIST if the target exists), and atomic
// exclusive mkdir(2) — all of which NFSv3+ and every local filesystem
// provide. Notably NOT assumed: O_EXCL open (broken on old NFS), flock,
// or any mtime/clock agreement between boxes beyond coarse wall-clock.
//
// Protocol invariants:
//
//  * Fencing tokens are allocated by exclusive `mkdir epochs/e<N>` (scan
//    max, try max+1, bump on collision), so they are unique and strictly
//    increasing over the life of the lease directory. Every published
//    lease carries the token of its owner.
//  * The lease file is published with temp-write + fsync + link(tmp,
//    lease). link fails if a lease already exists — there is exactly one
//    winner — and the file is never modified afterwards. Renewals go to a
//    SEPARATE file `hb-e<token>` that only that token's owner ever writes,
//    so a zombie's heartbeat can never clobber a stolen lease.
//  * A reader judges staleness by: read lease -> token T -> read hb-e<T>'s
//    renewed_unix_ms (falling back to the lease's own timestamp if no
//    heartbeat exists yet). Stale past the TTL means the owner's box is
//    presumed dead.
//  * Stealing is `rename(lease, stale-e<S>)` where S is the stealer's own
//    fresh token — unique target, so of two concurrent stealers exactly
//    one rename succeeds — followed by the normal publish. The stolen
//    owner discovers the loss on its next Renew (token mismatch) and every
//    fenced writer discovers it via LeaseTokenCurrent() before publishing
//    any state.
//  * A holder garbage-collects debris (epochs/hb/stale files) with tokens
//    strictly below its own; epoch directories of the CURRENT token are
//    never removed, preserving monotonicity.
//
// Known residual windows (by design, documented in DESIGN.md §15): between
// a zombie's last fence check and its rename-publish there is a bounded
// TOCTOU window; every published artifact is temp+rename so the loser's
// write either fully replaces or never lands — it cannot tear — and the
// zombie's next fence check turns it into a recorded `fenced` outcome.
#pragma once

#include <cstdint>
#include <string>

#include "common/diskfault.h"

namespace domino {

/// One parsed lease or heartbeat record. `seq` counts renewals (0 in the
/// lease file itself); `renewed_unix_ms` is the writer's wall clock.
struct LeaseInfo {
  std::string owner;
  std::uint64_t token = 0;
  std::uint64_t seq = 0;
  std::int64_t renewed_unix_ms = 0;
};

/// Serializes a lease record as a sealed record (common/sealed_record.h:
/// "domino-lease v1" ... "checksum <hex64>"). The owner must be a single
/// line; embedded newlines are rejected at parse time.
std::string FormatLease(const LeaseInfo& info);

/// Parses FormatLease output. Checksum is verified first (a torn file is
/// rejected before any field is trusted) and unknown keys are refused.
bool ParseLease(const std::string& text, LeaseInfo* out, std::string* error);

enum class LeaseAcquire {
  kAcquired,  ///< this process now holds the lease
  kHeld,      ///< a live owner holds it (or won a concurrent race)
  kIoError,   ///< filesystem failure (possibly injected); not held
};

enum class LeaseRenew {
  kRenewed,  ///< heartbeat published; still the owner
  kLost,     ///< the lease was stolen (or vanished); no longer the owner
  kIoError,  ///< heartbeat write failed; still nominally the owner
};

/// One lease directory, from one prospective owner's point of view.
/// Thread-compatible, not thread-safe: callers serialize access (the
/// ShardCoordinator holds one LeaseFile per session behind its mutex).
class LeaseFile {
 public:
  LeaseFile(std::string lease_dir, std::string owner);

  /// Tries to take the lease: fresh acquire if absent, steal if the
  /// current holder's heartbeat is older than `stale_ttl_ms`, kHeld if a
  /// live owner exists. `now_ms` is the caller's unix-ms clock (injected
  /// for testability). The publish (temp write + fsync + link) counts as
  /// one guarded write against `fault`, failing at the stage the fault
  /// kind names. Idempotent while held.
  LeaseAcquire TryAcquire(std::int64_t now_ms, std::int64_t stale_ttl_ms,
                          DiskFaultInjector* fault, std::string* error);

  /// Publishes a heartbeat to hb-e<token> after re-reading the lease. A
  /// token mismatch (we were stolen) returns kLost and drops held().
  /// kIoError keeps held(): a transient write failure does not forfeit
  /// ownership — the staleness clock just keeps running.
  LeaseRenew Renew(std::int64_t now_ms, DiskFaultInjector* fault,
                   std::string* error);

  /// Removes the lease + heartbeat if we still own them (token re-checked
  /// first; if stolen this is a no-op). The epoch directory of our token
  /// is deliberately left behind so tokens stay monotonic. Drops held().
  bool Release(std::string* error);

  /// Forgets ownership without touching disk — for a lease known to be
  /// lost (fenced outcome) where the new owner's files must not be
  /// disturbed.
  void Forget() { held_ = false; }

  [[nodiscard]] bool held() const { return held_; }
  [[nodiscard]] const LeaseInfo& info() const { return info_; }
  [[nodiscard]] const std::string& lease_dir() const { return lease_dir_; }

 private:
  std::string lease_dir_;
  std::string owner_;
  bool held_ = false;
  LeaseInfo info_;
};

/// Reads the current lease (if any), merging in the newest matching
/// heartbeat so `renewed_unix_ms` reflects the last renewal, not the
/// acquisition. Returns false if no valid lease is published.
bool InspectLease(const std::string& lease_dir, LeaseInfo* out);

/// Fence check: true iff a valid lease is published and carries exactly
/// `token`. A missing or corrupt lease reads as fenced (false) — writers
/// must prove ownership, not assume it.
bool LeaseTokenCurrent(const std::string& lease_dir, std::uint64_t token);

}  // namespace domino
