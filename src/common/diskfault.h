// Deterministic disk-fault injection for durability-critical writes.
//
// The live runtime and the fleet daemon persist their state — per-session
// checkpoints, the fleet manifest, shard done markers, leases, and JSON
// reports/status files — through one durable writer (AtomicWriteFile
// below; the lease publishes through its staging half). Environmental
// faults (full disk, dying device) hit exactly those writes, and "what
// happens when the checkpoint write fails" must be a tested code path, not
// a hope. This shim makes such faults reproducible: an injector counts the
// guarded writes it sees and fails the Nth one with a chosen errno (ENOSPC,
// EIO) or a short write, deterministically, so a test or chaos gate can
// assert the exact degradation path (retry, backoff, quarantine — never a
// daemon abort).
//
// The injector is plumbed explicitly (a pointer parameter, nullptr = no
// faults) rather than through a global so concurrent sessions in one fleet
// process stay independently deterministic.
#pragma once

#include <cstddef>
#include <string>

namespace domino {

/// What to inject, and when. `at_write` is 1-based: the Nth guarded write
/// observed by the injector fails; all earlier and later writes succeed.
/// Like the process crash/fail/wedge chaos kinds, a spec fires at most
/// once per injector lifetime.
struct DiskFaultSpec {
  enum class Kind {
    kNone,
    kEnospc,      ///< write() fails with ENOSPC (device full).
    kEio,         ///< write() fails with EIO (device error).
    kShortWrite,  ///< write() persists only half the payload, then EIO.
    kRename,      ///< write+fsync succeed; the publishing rename/link fails
                  ///< with EIO, leaving the temp file and an untouched
                  ///< target (the dangerous last step of the atomic
                  ///< protocol).
    kFsync        ///< write succeeds; fsync fails with EIO — data may be in
                  ///< the page cache but durability was refused.
  };
  Kind kind = Kind::kNone;
  long at_write = 0;
};

/// Parses "enospc:N" / "eio:N" / "short:N" / "rename:N" / "fsync:N"
/// (N >= 1). Returns false on any other input.
bool ParseDiskFaultSpec(const std::string& text, DiskFaultSpec* spec);

/// Counts guarded writes and decides which one fails. Thread-compatible,
/// not thread-safe: each session owns its injector.
class DiskFaultInjector {
 public:
  DiskFaultInjector() = default;
  explicit DiskFaultInjector(const DiskFaultSpec& spec) : spec_(spec) {}

  /// Called once per guarded write. Returns 0 to let the write proceed, or
  /// the errno to fail it with. For a short-write fault, `*short_cap` (if
  /// non-null) is set to the number of bytes the caller should actually
  /// persist before failing; the fault still returns a nonzero errno.
  int OnWrite(std::size_t payload_bytes, std::size_t* short_cap);

  [[nodiscard]] bool armed() const {
    return spec_.kind != DiskFaultSpec::Kind::kNone && !fired_;
  }
  [[nodiscard]] long writes_seen() const { return writes_seen_; }
  [[nodiscard]] long faults_injected() const { return faults_injected_; }
  /// Human-readable name of the last injected fault ("ENOSPC", "EIO",
  /// "short write", "rename failure", "fsync failure"); empty if none fired
  /// yet. Deterministic across runs, unlike strerror() text.
  [[nodiscard]] const std::string& last_fault_name() const {
    return last_fault_name_;
  }
  /// Which stage the last injected fault targets. A caller performing a
  /// multi-stage durable write (write, fsync, rename) consults this after a
  /// nonzero OnWrite() to fail at the right stage: kRename faults let the
  /// write and fsync succeed and break only the publishing rename/link.
  [[nodiscard]] DiskFaultSpec::Kind last_fault_kind() const {
    return last_fault_kind_;
  }

 private:
  DiskFaultSpec spec_;
  bool fired_ = false;
  long writes_seen_ = 0;
  long faults_injected_ = 0;
  std::string last_fault_name_;
  DiskFaultSpec::Kind last_fault_kind_ = DiskFaultSpec::Kind::kNone;
};

/// Process-unique staging suffix (".tmp.<hex>") for temp+rename writers.
/// Two processes racing to publish the same path — a fenced zombie and the
/// box that stole its lease, in the sharded fleet's bounded TOCTOU window —
/// must never write the SAME staging file, or an interleaved write could be
/// renamed into place as a torn document. With unique staging names the
/// loser's publish either fully replaces the winner's or never lands.
const std::string& AtomicTempSuffix();

/// The staging half of a durable write, shared by AtomicWriteFile and the
/// lease's exclusive link(2) publish: writes `body` to `staging`, fsyncs it
/// when `fsync_file`, and fails an injected fault at the stage its kind
/// names (`target` is the path the caller will publish, for messages).
/// Returns false with `*error` set when the write or fsync fails; the
/// staging file is removed, except after a short write, which leaves it
/// torn for postmortems. An injected kRename fault returns true with
/// `*publish_fault` set: the complete staging file is in place and the
/// caller must fail its publish step instead of running it.
bool StageFile(const std::string& staging, const std::string& target,
               const std::string& body, bool fsync_file,
               DiskFaultInjector* fault, bool* publish_fault,
               std::string* error);

/// The durable write every state and output file goes through: stage to
/// `path + AtomicTempSuffix()` (StageFile), rename over `path`, and with
/// `fsync_file` also fsync the parent directory (best-effort) so the
/// rename survives a power cut. Checkpoints, the fleet manifest, shard
/// done markers and lease heartbeats use fsync; reports, the status file
/// and `.dtb` captures do not. Returns false on failure — injected or real
/// — with `*error` (if non-null) describing it; the previous file, if any,
/// is left untouched.
bool AtomicWriteFile(const std::string& path, const std::string& body,
                     bool fsync_file, DiskFaultInjector* fault,
                     std::string* error);

}  // namespace domino
