#include "common/lease.h"

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <vector>

#include "common/parse.h"
#include "common/sealed_record.h"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace domino {
namespace {

namespace fs = std::filesystem;

/// A lease record is a handful of short lines; anything bigger at a lease
/// path is garbage and must not be read.
constexpr std::uint64_t kMaxLeaseBytes = 64 << 10;
constexpr const char* kLeaseHeader = "domino-lease v1";

std::string U64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Parses the "e<digits>" name of an epoch/heartbeat/stale entry.
bool ParseTokenSuffix(std::string_view name, std::uint64_t* token) {
  if (name.size() < 2 || name.front() != 'e') return false;
  return ParseUint64(name.substr(1), *token);
}

std::string LeasePath(const std::string& dir) { return dir + "/lease"; }

std::string HeartbeatPath(const std::string& dir, std::uint64_t token) {
  return dir + "/hb-e" + U64(token);
}

/// Allocates the next fencing token by exclusive mkdir under epochs/.
/// mkdir is atomic-exclusive on every assumed filesystem, so of any number
/// of concurrent allocators each gets a distinct token, and scanning the
/// surviving directories first keeps tokens strictly increasing.
bool AllocateToken(const std::string& dir, std::uint64_t* token,
                   std::string* error) {
  const fs::path epochs = fs::path(dir) / "epochs";
  std::error_code ec;
  fs::create_directories(epochs, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "lease: cannot create '" + epochs.string() + "'";
    }
    return false;
  }
  std::uint64_t max_seen = 0;
  for (const auto& entry : fs::directory_iterator(epochs, ec)) {
    std::uint64_t t = 0;
    if (ParseTokenSuffix(entry.path().filename().string(), &t) &&
        t > max_seen) {
      max_seen = t;
    }
  }
  std::uint64_t cand = max_seen + 1;
  for (int tries = 0; tries < 4096; ++tries, ++cand) {
    ec.clear();
    // Appended, not `"e" + U64(cand)`: GCC 12's -O3 inlining of that
    // operator+ raises a false -Wrestrict.
    std::string name = "e";
    name += U64(cand);
    if (fs::create_directory(epochs / name, ec)) {
      *token = cand;
      return true;
    }
    if (ec) {
      if (error != nullptr) {
        *error = "lease: epoch mkdir failed under '" + epochs.string() + "'";
      }
      return false;
    }
    // Exists: a concurrent allocator got there first — take the next one.
  }
  if (error != nullptr) {
    *error = "lease: token allocation livelocked in '" + dir + "'";
  }
  return false;
}

/// Best-effort cleanup of debris strictly below the holder's token:
/// superseded epochs, orphaned heartbeats, renamed-away stale leases, and
/// abandoned publish temp files. Never touches the current token's epoch
/// (monotonicity) and ignores all errors (another box may race the same
/// cleanup).
void GcDebris(const std::string& dir, std::uint64_t own_token) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    std::uint64_t t = 0;
    bool old = false;
    if (name.rfind("hb-", 0) == 0) {
      old = ParseTokenSuffix(std::string_view(name).substr(3), &t) &&
            t < own_token;
    } else if (name.rfind("stale-", 0) == 0) {
      old = ParseTokenSuffix(std::string_view(name).substr(6), &t) &&
            t < own_token;
    } else if (name.rfind("tmp-", 0) == 0) {
      old = ParseTokenSuffix(std::string_view(name).substr(4), &t) &&
            t < own_token;
    }
    if (old) fs::remove(entry.path(), ec);
  }
  const fs::path epochs = fs::path(dir) / "epochs";
  for (const auto& entry : fs::directory_iterator(epochs, ec)) {
    std::uint64_t t = 0;
    if (ParseTokenSuffix(entry.path().filename().string(), &t) &&
        t < own_token) {
      fs::remove(entry.path(), ec);
    }
  }
}

/// Reads and verifies the lease or heartbeat record at `path`.
bool ReadLeaseRecord(const std::string& path, LeaseInfo* out) {
  std::string text, err;
  return ReadFileBounded(path, kMaxLeaseBytes, &text) == FileRead::kOk &&
         ParseLease(text, out, &err);
}

}  // namespace

std::string FormatLease(const LeaseInfo& info) {
  std::ostringstream os;
  os << kLeaseHeader << "\n";
  os << "owner " << info.owner << "\n";
  os << "token " << info.token << "\n";
  os << "seq " << info.seq << "\n";
  os << "renewed_unix_ms " << info.renewed_unix_ms << "\n";
  return Seal(os.str());
}

bool ParseLease(const std::string& text, LeaseInfo* out, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "lease: " + why;
    return false;
  };
  std::string_view body, line;
  std::string why;
  if (!Unseal(text, kLeaseHeader, &body, &why)) return fail(why);

  LeaseInfo rec;
  bool saw_owner = false, saw_token = false;
  while (NextLine(&body, &line)) {
    RecordLine r(line);
    const std::string_view key = r.key();
    const std::string value(r.rest());
    if (key == "owner") {
      if (value.empty()) return fail("empty owner");
      rec.owner = value;
      saw_owner = true;
    } else if (key == "token") {
      if (!ParseUint64(value, rec.token) || rec.token == 0) {
        return fail("bad token '" + value + "'");
      }
      saw_token = true;
    } else if (key == "seq") {
      if (!ParseUint64(value, rec.seq)) {
        return fail("bad seq '" + value + "'");
      }
    } else if (key == "renewed_unix_ms") {
      if (!ParseInt64(value, rec.renewed_unix_ms)) {
        return fail("bad renewed_unix_ms '" + value + "'");
      }
    } else {
      // The checksum already proved these bytes are exactly what a writer
      // produced, so an unknown key is version skew — refuse rather than
      // trust half a record.
      return fail("unknown key '" + std::string(key) + "'");
    }
  }
  if (!saw_owner || !saw_token) return fail("missing owner/token");
  *out = rec;
  return true;
}

LeaseFile::LeaseFile(std::string lease_dir, std::string owner)
    : lease_dir_(std::move(lease_dir)), owner_(std::move(owner)) {}

LeaseAcquire LeaseFile::TryAcquire(std::int64_t now_ms,
                                   std::int64_t stale_ttl_ms,
                                   DiskFaultInjector* fault,
                                   std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return LeaseAcquire::kIoError;
  };
  if (held_) return LeaseAcquire::kAcquired;
  std::error_code ec;
  fs::create_directories(lease_dir_, ec);
  if (ec) return fail("lease: cannot create '" + lease_dir_ + "'");

  const std::string lease_path = LeasePath(lease_dir_);
  bool must_steal = false;
  if (fs::exists(lease_path, ec)) {
    LeaseInfo cur;
    if (InspectLease(lease_dir_, &cur)) {
      if (now_ms - cur.renewed_unix_ms <= stale_ttl_ms) {
        // Live owner (or clock skew in its favour — err toward not
        // stealing).
        return LeaseAcquire::kHeld;
      }
    }
    // Stale heartbeat or an unparseable record: the owner's box is
    // presumed dead; fence it out.
    must_steal = true;
  }

  std::uint64_t token = 0;
  if (!AllocateToken(lease_dir_, &token, error)) {
    return LeaseAcquire::kIoError;
  }
  if (must_steal) {
    // Unique target per stealer: of N concurrent stealers exactly one
    // rename succeeds; the losers fall through and lose the link race.
    const std::string stale = lease_dir_ + "/stale-e" + U64(token);
    if (std::rename(lease_path.c_str(), stale.c_str()) != 0 &&
        errno != ENOENT) {
      return fail("lease: cannot retire stale lease '" + lease_path + "'");
    }
  }

  LeaseInfo mine;
  mine.owner = owner_;
  mine.token = token;
  mine.seq = 0;
  mine.renewed_unix_ms = now_ms;
  const std::string body = FormatLease(mine);
  const std::string tmp = lease_dir_ + "/tmp-e" + U64(token);

  // The publish is one guarded write, staged like every other durable
  // write so the chaos gates can prove acquisition is atomic under every
  // stage's failure; only the publish step differs.
  bool publish_fault = false;
  std::string werr;
  if (!StageFile(tmp, lease_path, body, /*fsync_file=*/true, fault,
                 &publish_fault, &werr)) {
    return fail("lease: " + werr);
  }
  if (publish_fault) {
    return fail("lease: link of '" + lease_path + "' failed (injected " +
                fault->last_fault_name() + ")");
  }
#if defined(_WIN32)
  // Compile-only fallback: Windows has no link(2); exists-check + rename
  // is not atomic, which is acceptable on a non-production platform.
  if (fs::exists(lease_path, ec)) {
    fs::remove(tmp, ec);
    return LeaseAcquire::kHeld;
  }
  if (std::rename(tmp.c_str(), lease_path.c_str()) != 0) {
    fs::remove(tmp, ec);
    return fail("lease: publish rename to '" + lease_path + "' failed");
  }
#else
  // link(2), not rename: it fails with EEXIST when a lease already exists,
  // which is the whole point — exactly one publisher wins, and an existing
  // lease is never silently replaced.
  if (::link(tmp.c_str(), lease_path.c_str()) != 0) {
    const int link_errno = errno;
    ::unlink(tmp.c_str());
    if (link_errno == EEXIST) return LeaseAcquire::kHeld;
    return fail("lease: link of '" + lease_path + "' failed");
  }
  ::unlink(tmp.c_str());
#endif
  info_ = mine;
  held_ = true;
  GcDebris(lease_dir_, token);
  return LeaseAcquire::kAcquired;
}

LeaseRenew LeaseFile::Renew(std::int64_t now_ms, DiskFaultInjector* fault,
                            std::string* error) {
  if (!held_) {
    if (error != nullptr) *error = "lease: not held";
    return LeaseRenew::kLost;
  }
  LeaseInfo cur;
  if (!ReadLeaseRecord(LeasePath(lease_dir_), &cur) ||
      cur.token != info_.token) {
    // Stolen (or retired): the new owner's files must not be touched.
    held_ = false;
    if (error != nullptr) {
      *error = "lease: lost '" + lease_dir_ + "' (fenced by token " +
               U64(cur.token) + ")";
    }
    return LeaseRenew::kLost;
  }
  LeaseInfo hb;
  hb.owner = owner_;
  hb.token = info_.token;
  hb.seq = info_.seq + 1;
  hb.renewed_unix_ms = now_ms;
  std::string werr;
  // Only this token's owner ever writes hb-e<token>, so even a zombie's
  // late heartbeat lands on an orphaned file, never on a stolen lease.
  if (!AtomicWriteFile(HeartbeatPath(lease_dir_, info_.token),
                       FormatLease(hb), /*fsync_file=*/true, fault, &werr)) {
    if (error != nullptr) *error = "lease: heartbeat failed: " + werr;
    return LeaseRenew::kIoError;
  }
  info_.seq = hb.seq;
  info_.renewed_unix_ms = now_ms;
  return LeaseRenew::kRenewed;
}

bool LeaseFile::Release(std::string* error) {
  if (!held_) return true;
  held_ = false;
  LeaseInfo cur;
  if (!ReadLeaseRecord(LeasePath(lease_dir_), &cur) ||
      cur.token != info_.token) {
    // Already stolen — the lease on disk belongs to the new owner.
    return true;
  }
  // Read-check-unlink is a TOCTOU window, accepted by design: a releasing
  // owner has a fresh heartbeat, so no correct stealer targets it inside
  // the window (documented in DESIGN.md §15).
  std::error_code ec;
  fs::remove(LeasePath(lease_dir_), ec);
  if (ec) {
    if (error != nullptr) {
      *error = "lease: cannot remove '" + LeasePath(lease_dir_) + "'";
    }
    return false;
  }
  fs::remove(HeartbeatPath(lease_dir_, info_.token), ec);
  return true;
}

bool InspectLease(const std::string& lease_dir, LeaseInfo* out) {
  LeaseInfo lease;
  if (!ReadLeaseRecord(LeasePath(lease_dir), &lease)) return false;
  LeaseInfo hb;
  if (ReadLeaseRecord(HeartbeatPath(lease_dir, lease.token), &hb) &&
      hb.token == lease.token &&
      hb.renewed_unix_ms > lease.renewed_unix_ms) {
    lease.seq = hb.seq;
    lease.renewed_unix_ms = hb.renewed_unix_ms;
  }
  *out = lease;
  return true;
}

bool LeaseTokenCurrent(const std::string& lease_dir, std::uint64_t token) {
  LeaseInfo cur;
  return ReadLeaseRecord(LeasePath(lease_dir), &cur) && cur.token == token;
}

}  // namespace domino
