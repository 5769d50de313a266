#include "domino/runtime/shard.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "common/parse.h"
#include "common/sealed_record.h"
#include "domino/report.h"
#include "domino/runtime/daemon.h"

namespace domino::runtime {
namespace {

namespace fs = std::filesystem;

constexpr const char* kDoneHeader = "domino-shard-done v1";

/// Done markers are small; anything bigger is garbage.
constexpr std::uint64_t kMaxDoneBytes = 64 << 10;

std::int64_t SystemNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string DonePath(const std::string& lease_dir) {
  return lease_dir + "/done";
}

/// Reads and verifies the done marker under `lease_dir`; false if there is
/// none or it is unreadable, oversized or corrupt.
bool ReadDone(const std::string& lease_dir, ShardDoneRecord* rec) {
  std::string text, err;
  return ReadFileBounded(DonePath(lease_dir), kMaxDoneBytes, &text) ==
             FileRead::kOk &&
         ParseShardDone(text, rec, &err);
}

const char* StatusName(int status) {
  switch (status) {
    case 1:
      return "done";
    case 2:
      return "quarantined";
    case 3:
      return "fenced";
    default:
      return "open";
  }
}

/// Merge precedence for one session seen from several boxes: a done marker
/// beats everything (it survives a SIGKILLed box whose manifest never
/// landed), a terminal manifest entry beats a fenced one (the fenced box
/// explicitly did NOT finish the work), and fenced beats open.
int StatusRank(int status, bool from_done_marker) {
  if (from_done_marker) return 4;
  switch (status) {
    case 1:
    case 2:
      return 3;
    case 3:
      return 1;
    default:
      return 0;
  }
}

}  // namespace

std::string FormatShardDone(const ShardDoneRecord& rec) {
  std::ostringstream os;
  os << kDoneHeader << "\n";
  os << "dataset " << rec.dataset_dir << "\n";
  os << "owner " << rec.owner << "\n";
  os << "token " << rec.token << "\n";
  os << "status " << rec.status << "\n";
  os << "attempts " << rec.attempts << "\n";
  os << "windows " << rec.windows << "\n";
  os << "chains " << rec.chains << "\n";
  return Seal(os.str());
}

bool ParseShardDone(const std::string& text, ShardDoneRecord* out,
                    std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "shard-done: " + why;
    return false;
  };
  std::string_view body, line;
  std::string why;
  if (!Unseal(text, kDoneHeader, &body, &why)) return fail(why);

  ShardDoneRecord rec;
  bool saw_dataset = false, saw_status = false;
  while (NextLine(&body, &line)) {
    RecordLine r(line);
    const std::string_view key = r.key();
    const std::string value(r.rest());
    std::int64_t n = 0;
    std::uint64_t u = 0;
    if (key == "dataset") {
      if (value.empty()) return fail("empty dataset");
      rec.dataset_dir = value;
      saw_dataset = true;
    } else if (key == "owner") {
      rec.owner = value;
    } else if (key == "token") {
      if (!ParseUint64(value, u)) return fail("bad token '" + value + "'");
      rec.token = u;
    } else if (key == "status") {
      if (!ParseInt64In(value, 1, 2, n)) {
        return fail("bad status '" + value + "' (want 1|2)");
      }
      rec.status = static_cast<int>(n);
      saw_status = true;
    } else if (key == "attempts") {
      if (!ParseInt64In(value, 0, 1'000'000, n)) {
        return fail("bad attempts '" + value + "'");
      }
      rec.attempts = static_cast<int>(n);
    } else if (key == "windows") {
      if (!ParseInt64(value, n) || n < 0) {
        return fail("bad windows '" + value + "'");
      }
      rec.windows = static_cast<long>(n);
    } else if (key == "chains") {
      if (!ParseInt64(value, n) || n < 0) {
        return fail("bad chains '" + value + "'");
      }
      rec.chains = static_cast<long>(n);
    } else {
      return fail("unknown key '" + std::string(key) + "'");
    }
  }
  if (!saw_dataset || !saw_status) return fail("missing dataset/status");
  *out = rec;
  return true;
}

ShardCoordinator::ShardCoordinator(ShardOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.state_root.empty()) {
    throw std::invalid_argument("shard: state_root is required");
  }
  if (opts_.owner.empty()) {
    throw std::invalid_argument("shard: owner is required");
  }
  if (opts_.lease_ttl_ms <= 0) {
    throw std::invalid_argument("shard: lease_ttl_ms must be positive");
  }
  if (!opts_.clock) opts_.clock = SystemNowMs;
}

std::string ShardCoordinator::LeaseDirFor(
    const std::string& dataset_dir) const {
  // The session key is the basename of the stable dataset->state mapping,
  // so every box derives the same lease directory independently.
  const std::string state =
      SessionStateDirFor(opts_.state_root, dataset_dir);
  return opts_.state_root + "/shard/" +
         fs::path(state).filename().string();
}

ClaimResult ShardCoordinator::TryClaim(const std::string& dataset_dir,
                                       std::string* error) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::string dir = LeaseDirFor(dataset_dir);
  ShardDoneRecord done;
  if (ReadDone(dir, &done)) return ClaimResult::kDone;
  auto it = leases_.find(dataset_dir);
  if (it == leases_.end()) {
    it = leases_
             .emplace(std::piecewise_construct,
                      std::forward_as_tuple(dataset_dir),
                      std::forward_as_tuple(dir, opts_.owner))
             .first;
  }
  switch (it->second.TryAcquire(opts_.clock(), opts_.lease_ttl_ms,
                                /*fault=*/nullptr, error)) {
    case LeaseAcquire::kAcquired:
      return ClaimResult::kClaimed;
    case LeaseAcquire::kHeld:
      return ClaimResult::kHeldElsewhere;
    case LeaseAcquire::kIoError:
      break;
  }
  return ClaimResult::kError;
}

std::vector<std::string> ShardCoordinator::RenewHeld() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> lost;
  const std::int64_t now = opts_.clock();
  for (auto& [dataset, lease] : leases_) {
    if (!lease.held()) continue;
    std::string err;
    if (lease.Renew(now, /*fault=*/nullptr, &err) == LeaseRenew::kLost) {
      lost.push_back(dataset);
    }
    // kIoError: still the owner; the next tick retries. The TTL gives the
    // box several heartbeat periods of filesystem trouble before anyone
    // may steal.
  }
  return lost;
}

bool ShardCoordinator::MarkDone(const std::string& dataset_dir,
                                const ShardDoneRecord& rec,
                                std::string* error) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = leases_.find(dataset_dir);
  if (it == leases_.end() || !it->second.held()) {
    if (error != nullptr) *error = "shard: lease not held";
    return false;
  }
  LeaseFile& lease = it->second;
  if (!LeaseTokenCurrent(lease.lease_dir(), lease.info().token)) {
    // Fenced: the new owner's done marker (present or future) is the
    // truth; touch nothing.
    lease.Forget();
    if (error != nullptr) *error = "shard: fenced (lease was stolen)";
    return false;
  }
  ShardDoneRecord full = rec;
  full.dataset_dir = dataset_dir;
  full.owner = opts_.owner;
  full.token = lease.info().token;
  // Done marker BEFORE release: a crash between the two leaves a marker
  // behind, and markers win over stale leases — the session is never
  // re-run. The reverse order would allow a re-claim of finished work.
  if (!AtomicWriteFile(DonePath(lease.lease_dir()), FormatShardDone(full),
                       /*fsync_file=*/true, /*fault=*/nullptr, error)) {
    return false;
  }
  std::string rerr;
  lease.Release(&rerr);
  return true;
}

void ShardCoordinator::Release(const std::string& dataset_dir) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = leases_.find(dataset_dir);
  if (it == leases_.end()) return;
  std::string err;
  it->second.Release(&err);
}

void ShardCoordinator::ReleaseAll() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [dataset, lease] : leases_) {
    std::string err;
    lease.Release(&err);
  }
}

void ShardCoordinator::Forget(const std::string& dataset_dir) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = leases_.find(dataset_dir);
  if (it != leases_.end()) it->second.Forget();
}

bool ShardCoordinator::Held(const std::string& dataset_dir) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = leases_.find(dataset_dir);
  return it != leases_.end() && it->second.held();
}

std::uint64_t ShardCoordinator::TokenFor(const std::string& dataset_dir) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = leases_.find(dataset_dir);
  if (it == leases_.end() || !it->second.held()) return 0;
  return it->second.info().token;
}

bool ShardCoordinator::SafeToGc(const std::string& dataset_dir) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = leases_.find(dataset_dir);
  if (it == leases_.end() || !it->second.held()) return false;
  return LeaseTokenCurrent(it->second.lease_dir(),
                           it->second.info().token);
}

long ShardCoordinator::held_count() {
  std::lock_guard<std::mutex> lk(mu_);
  long n = 0;
  for (auto& [dataset, lease] : leases_) {
    if (lease.held()) ++n;
  }
  return n;
}

bool CollectFleetStatus(const std::string& state_root, FleetStatusView* out,
                        std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "fleet-status: " + why;
    return false;
  };
  std::error_code ec;
  if (!fs::is_directory(state_root, ec)) {
    return fail("'" + state_root + "' is not a directory");
  }

  struct Best {
    FleetStatusSession s;
    int rank = -1;
  };
  std::map<std::string, Best> merged;
  auto offer = [&](FleetStatusSession s, int rank) {
    Best& b = merged[s.dataset_dir];
    // Equal-rank ties resolve by owner order so the merge is deterministic
    // whatever directory enumeration produced.
    if (rank > b.rank || (rank == b.rank && s.owner < b.s.owner)) {
      b.rank = rank;
      b.s = std::move(s);
    }
  };

  // Every box's manifest. Corrupt or torn manifests are skipped, not
  // fatal: a crashed box must not block the fleet view (its sessions
  // surface through done markers or other boxes' manifests).
  std::vector<std::string> manifest_paths;
  for (const auto& entry : fs::directory_iterator(state_root, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("fleet", 0) == 0 &&
        name.size() > 9 /* "fleet" + ".manifest" overlap-safe */ &&
        name.compare(name.size() - 9, 9, ".manifest") == 0) {
      manifest_paths.push_back(entry.path().string());
    }
  }
  if (ec) return fail("cannot scan '" + state_root + "'");
  std::sort(manifest_paths.begin(), manifest_paths.end());
  for (const std::string& path : manifest_paths) {
    FleetManifest m;
    std::string perr;
    if (!LoadFleetManifest(path, &m, &perr)) continue;
    for (const ManifestEntry& e : m.sessions) {
      FleetStatusSession s;
      s.dataset_dir = e.spec.dataset_dir;
      s.owner = m.owner;
      s.status = !e.seed.terminal         ? 0
                 : e.seed.outcome.ok      ? 1
                 : e.seed.outcome.fenced  ? 3
                                          : 2;
      s.windows = e.seed.outcome.summary.windows;
      s.chains = e.seed.outcome.summary.chains;
      const int rank = StatusRank(s.status, /*from_done_marker=*/false);
      offer(std::move(s), rank);
    }
  }

  // Done markers: the authoritative terminal records.
  const std::string shard_root = state_root + "/shard";
  if (fs::is_directory(shard_root, ec)) {
    for (const auto& entry : fs::directory_iterator(shard_root, ec)) {
      ShardDoneRecord rec;
      if (!ReadDone(entry.path().string(), &rec)) continue;
      FleetStatusSession s;
      s.dataset_dir = rec.dataset_dir;
      s.owner = rec.owner;
      s.status = rec.status;
      s.windows = rec.windows;
      s.chains = rec.chains;
      const int rank = StatusRank(rec.status, /*from_done_marker=*/true);
      offer(std::move(s), rank);
    }
  }

  FleetStatusView view;
  view.sessions.reserve(merged.size());
  for (auto& [dataset, best] : merged) {
    view.sessions.push_back(std::move(best.s));
  }
  // std::map iteration is already dataset-sorted — the JSON order.
  *out = std::move(view);
  if (error != nullptr) error->clear();
  return true;
}

std::string BuildFleetStatusJson(const FleetStatusView& view,
                                 bool with_owners) {
  using analysis::JsonEscape;
  long done = 0, open = 0, quarantined = 0, fenced = 0;
  long windows = 0, chains = 0;
  std::map<std::string, long> by_owner;
  for (const FleetStatusSession& s : view.sessions) {
    switch (s.status) {
      case 1:
        ++done;
        break;
      case 2:
        ++quarantined;
        break;
      case 3:
        ++fenced;
        break;
      default:
        ++open;
        break;
    }
    windows += s.windows;
    chains += s.chains;
    ++by_owner[s.owner];
  }
  // The default document is owner- and attempt-free on purpose: a takeover
  // changes both (the survivor re-runs a stolen session as its own attempt
  // 1), and this JSON is byte-compared against an undisturbed single-box
  // run. Everything below is resume-invariant.
  std::ostringstream os;
  os << "{\n";
  os << "  \"counts\": {\"sessions\": " << view.sessions.size()
     << ", \"done\": " << done << ", \"open\": " << open
     << ", \"quarantined\": " << quarantined << ", \"fenced\": " << fenced
     << "},\n";
  os << "  \"progress\": {\"windows\": " << windows
     << ", \"chains\": " << chains << "},\n";
  if (with_owners) {
    os << "  \"owners\": {";
    bool first = true;
    for (const auto& [owner, n] : by_owner) {
      os << (first ? "" : ", ") << "\"" << JsonEscape(owner)
         << "\": " << n;
      first = false;
    }
    os << "},\n";
  }
  os << "  \"sessions\": [";
  for (std::size_t i = 0; i < view.sessions.size(); ++i) {
    const FleetStatusSession& s = view.sessions[i];
    os << (i == 0 ? "" : ",") << "\n    {\"dataset\": \""
       << JsonEscape(s.dataset_dir) << "\", \"status\": \""
       << StatusName(s.status) << "\"";
    if (with_owners) os << ", \"owner\": \"" << JsonEscape(s.owner) << "\"";
    os << ", \"windows\": " << s.windows << ", \"chains\": " << s.chains
       << "}";
  }
  os << (view.sessions.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
  return os.str();
}

}  // namespace domino::runtime
