#include "domino/runtime/daemon.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "common/sealed_record.h"
#include "domino/runtime/live.h"
#include "domino/runtime/shard.h"

namespace domino::runtime {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kManifestHeader = "domino-fleet-manifest v1";
/// Manifests are a few hundred bytes per session; anything bigger than
/// this at the manifest path is garbage and must not be read.
constexpr std::uint64_t kMaxManifestBytes = 64ull << 20;

int ManifestStatus(const SessionOutcome& o) {
  if (o.ok) return 1;
  if (o.quarantined) return 2;
  if (o.fenced) return 3;
  return 0;  // Suspended (or never started): open, resume from checkpoint.
}

}  // namespace

std::string FormatFleetManifest(const FleetManifest& m) {
  std::ostringstream os;
  os << kManifestHeader << "\n";
  os << "config " << m.workers << " " << m.max_attempts << " "
     << m.global_backlog_windows << " "
     << (m.isolate == IsolationMode::kProcess ? 1 : 0) << "\n";
  if (!m.owner.empty()) os << "owner " << m.owner << "\n";
  for (const ManifestEntry& e : m.sessions) {
    const SessionOutcome& o = e.seed.outcome;
    const int status = e.seed.terminal ? ManifestStatus(o) : 0;
    const int attempts = e.seed.terminal ? o.attempts : e.seed.attempts;
    os << "session " << status << " " << attempts << "\n";
    // Paths and tenants may contain spaces: each is the rest of its line.
    os << "dataset " << e.spec.dataset_dir << "\n";
    os << "state " << e.spec.state_dir << "\n";
    os << "tenant " << e.spec.tenant << "\n";
    if (e.seed.terminal) {
      const LiveSummary& s = o.summary;
      os << "outcome " << (o.deadline_exceeded ? 1 : 0) << " " << o.exit_code
         << " " << o.term_signal << " " << (o.has_partial ? 1 : 0) << " "
         << o.checkpointed_to_us << "\n";
      os << "summary " << s.polls << " " << s.windows << " " << s.chains
         << " " << s.insufficient_chains << " " << s.resets << " "
         << s.checkpoints << " " << s.shed_windows << " "
         << s.stalled_streams << " " << (s.resumed ? 1 : 0) << "\n";
      if (!o.error.empty()) os << "error " << o.error << "\n";
    }
  }
  return Seal(os.str());
}

bool ParseFleetManifest(const std::string& text, FleetManifest* out,
                        std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "manifest: " + why;
    return false;
  };
  std::string_view body, line;
  std::string why;
  if (!Unseal(text, kManifestHeader, &body, &why)) return fail(why);

  FleetManifest m;
  bool have_config = false;
  ManifestEntry* cur = nullptr;
  bool cur_outcome = false, cur_summary = false;
  auto finish_entry = [&]() -> bool {
    if (cur == nullptr) return true;
    if (cur->spec.dataset_dir.empty()) return false;
    if (cur->spec.state_dir.empty()) return false;
    if (cur->seed.terminal && !(cur_outcome && cur_summary)) return false;
    cur->seed.outcome.dataset_dir = cur->spec.dataset_dir;
    cur->seed.outcome.tenant = cur->spec.tenant;
    cur->seed.outcome.summary.dataset_dir = cur->spec.dataset_dir;
    return true;
  };
  while (NextLine(&body, &line)) {
    if (line.empty()) continue;
    RecordLine r(line);
    const std::string_view key = r.key();
    if (key == "config") {
      m.workers = static_cast<int>(r.I());
      m.max_attempts = static_cast<int>(r.I());
      m.global_backlog_windows = static_cast<long>(r.I());
      const std::int64_t iso = r.I();
      if (!r.ok() || (iso != 0 && iso != 1) || m.workers < 1 ||
          m.max_attempts < 1 || m.global_backlog_windows < 0) {
        return fail("malformed config line");
      }
      m.isolate =
          iso == 1 ? IsolationMode::kProcess : IsolationMode::kThread;
      have_config = true;
    } else if (key == "session") {
      if (!finish_entry()) return fail("incomplete session entry");
      const std::int64_t status = r.I();
      const std::int64_t attempts = r.I();
      if (!r.ok() || status < 0 || status > 3 || attempts < 0 ||
          attempts > 1'000'000) {
        return fail("malformed session line");
      }
      m.sessions.emplace_back();
      cur = &m.sessions.back();
      cur_outcome = cur_summary = false;
      cur->seed.terminal = status != 0;
      cur->seed.attempts = static_cast<int>(attempts);
      cur->seed.outcome.attempts = static_cast<int>(attempts);
      cur->seed.outcome.ok = status == 1;
      cur->seed.outcome.quarantined = status == 2;
      cur->seed.outcome.fenced = status == 3;
    } else if (key == "owner") {
      if (cur != nullptr) return fail("owner line inside a session");
      m.owner = r.rest();
    } else if (key == "dataset") {
      if (cur == nullptr) return fail("dataset line outside a session");
      cur->spec.dataset_dir = r.rest();
    } else if (key == "state") {
      if (cur == nullptr) return fail("state line outside a session");
      cur->spec.state_dir = r.rest();
    } else if (key == "tenant") {
      if (cur == nullptr) return fail("tenant line outside a session");
      cur->spec.tenant = r.rest();
    } else if (key == "outcome") {
      if (cur == nullptr) return fail("outcome line outside a session");
      SessionOutcome& o = cur->seed.outcome;
      o.deadline_exceeded = r.I() != 0;
      o.exit_code = static_cast<int>(r.I());
      o.term_signal = static_cast<int>(r.I());
      o.has_partial = r.I() != 0;
      o.checkpointed_to_us = r.I();
      if (!r.ok()) return fail("malformed outcome line");
      cur_outcome = true;
    } else if (key == "summary") {
      if (cur == nullptr) return fail("summary line outside a session");
      LiveSummary& s = cur->seed.outcome.summary;
      s.polls = static_cast<long>(r.I());
      s.windows = static_cast<long>(r.I());
      s.chains = static_cast<long>(r.I());
      s.insufficient_chains = static_cast<long>(r.I());
      s.resets = static_cast<long>(r.I());
      s.checkpoints = static_cast<long>(r.I());
      s.shed_windows = static_cast<long>(r.I());
      s.stalled_streams = static_cast<long>(r.I());
      s.resumed = r.I() != 0;
      if (!r.ok()) return fail("malformed summary line");
      cur_summary = true;
    } else if (key == "error") {
      if (cur == nullptr) return fail("error line outside a session");
      cur->seed.outcome.error = r.rest();
    } else {
      // The checksum already proved these bytes are exactly what a writer
      // produced, so an unknown key is version skew — refuse rather than
      // resume with half the state.
      return fail("unknown key '" + std::string(key) + "'");
    }
  }
  if (!finish_entry()) return fail("incomplete session entry");
  if (!have_config) return fail("missing config line");
  *out = std::move(m);
  if (error != nullptr) error->clear();
  return true;
}

bool SaveFleetManifest(const FleetManifest& m, const std::string& path,
                       DiskFaultInjector* fault, std::string* error) {
  return AtomicWriteFile(path, FormatFleetManifest(m), /*fsync_file=*/true,
                         fault, error);
}

bool LoadFleetManifest(const std::string& path, FleetManifest* out,
                       std::string* error) {
  std::string text;
  const FileRead read = ReadFileBounded(path, kMaxManifestBytes, &text);
  if (read == FileRead::kOk) return ParseFleetManifest(text, out, error);
  if (error != nullptr) {
    if (read == FileRead::kMissing) {
      error->clear();
    } else {
      *error = (read == FileRead::kTooLarge ? "manifest: implausibly large "
                                            : "manifest: cannot read ") +
               path;
    }
  }
  return false;
}

FleetManifest BuildFleetManifest(const FleetReport& report,
                                 const std::vector<SessionSpec>& specs) {
  FleetManifest m;
  m.workers = report.workers;
  m.max_attempts = report.max_attempts;
  m.global_backlog_windows = report.global_backlog_windows;
  m.isolate = report.isolate;
  const std::size_t n = std::min(specs.size(), report.outcomes.size());
  m.sessions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ManifestEntry e;
    e.spec = specs[i];
    const SessionOutcome& o = report.outcomes[i];
    if (o.ok || o.quarantined || o.fenced) {
      // Fenced is terminal *for this box* — the stealing box owns the
      // session now and its manifest/done marker carries the real outcome.
      e.seed.terminal = true;
      e.seed.outcome = o;
    } else {
      // Suspended (or otherwise open): the restarted daemon re-queues it
      // with the preserved attempt counter and resumes from the session's
      // own checkpoint.
      e.seed.terminal = false;
      e.seed.attempts = o.attempts;
    }
    m.sessions.push_back(std::move(e));
  }
  return m;
}

bool SessionDirReady(const std::string& dir) {
  try {
    telemetry::TailingDatasetReader reader(dir);
    telemetry::SessionDataset ds;
    return reader.PollMeta(ds);
  } catch (...) {
    return false;
  }
}

std::vector<std::string> ScanForSessions(
    const std::vector<std::string>& roots,
    const std::set<std::string>& known, const std::string& skip_prefix) {
  std::vector<std::string> found;
  for (std::string root : roots) {
    while (root.size() > 1 && root.back() == '/') root.pop_back();
    std::error_code ec;
    fs::directory_iterator it(root, ec);
    if (ec) continue;  // A missing/unreadable root this sweep is not fatal.
    for (const fs::directory_entry& entry : it) {
      std::error_code dec;
      if (!entry.is_directory(dec) || dec) continue;
      const std::string path = entry.path().string();
      const std::string name = entry.path().filename().string();
      if (name.empty() || name.front() == '.') continue;
      if (!skip_prefix.empty() &&
          (path == skip_prefix ||
           path.compare(0, skip_prefix.size() + 1, skip_prefix + "/") ==
               0)) {
        continue;
      }
      if (known.count(path) != 0) continue;
      if (!SessionDirReady(path)) continue;
      found.push_back(path);
    }
  }
  std::sort(found.begin(), found.end());
  return found;
}

std::string SessionStateDirFor(const std::string& state_root,
                               const std::string& dataset_dir) {
  std::string base = fs::path(dataset_dir).filename().string();
  if (base.empty()) base = fs::path(dataset_dir).parent_path().filename().string();
  std::string safe;
  for (char c : base) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    safe.push_back(ok ? c : '_');
  }
  if (safe.empty()) safe = "session";
  // The path hash disambiguates same-named sessions under different roots
  // and keeps the mapping stable across daemon restarts.
  return state_root + "/" + safe + "_" + Hex64(Fnv1a64(dataset_dir));
}

bool ParseTunablesFile(const std::string& path, DaemonTunables* out,
                       std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "tunables: " + why;
    return false;
  };
  std::ifstream f(path);
  if (!f) return fail("cannot read " + path);
  DaemonTunables t;
  std::string line;
  int lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;  // Blank / comment-only line.
    const std::string at = " at line " + std::to_string(lineno);
    if (key == "session_deadline_s") {
      double v = 0;
      if (!(ls >> v) || v < 0) return fail("bad value for " + key + at);
      t.session_deadline_s = v;
    } else {
      long v = 0;
      if (!(ls >> v) || v < 0) return fail("bad value for " + key + at);
      if (key == "max_attempts") {
        if (v > 1000) return fail("max_attempts > 1000" + at);
        t.max_attempts = static_cast<int>(v);
      } else if (key == "backoff_ms") {
        t.backoff_ms = v;
      } else if (key == "backoff_cap_ms") {
        t.backoff_cap_ms = v;
      } else if (key == "scan_interval_ms") {
        t.scan_interval_ms = v;
      } else if (key == "status_interval_ms") {
        t.status_interval_ms = v;
      } else if (key == "drain_grace_ms") {
        t.drain_grace_ms = v;
      } else {
        return fail("unknown key '" + key + "'" + at);
      }
    }
    std::string extra;
    if (ls >> extra) return fail("trailing token '" + extra + "'" + at);
  }
  *out = t;
  return true;
}

namespace {

/// Age in seconds of the newest live.ckpt among the open sessions, or -1
/// when none exists yet. Wall-clock, liveness-only — never byte-compared.
double NewestCheckpointAgeS(const std::vector<std::string>& state_dirs) {
  const auto now = fs::file_time_type::clock::now();
  double best = -1;
  for (const std::string& dir : state_dirs) {
    std::error_code ec;
    const auto t = fs::last_write_time(dir + "/live.ckpt", ec);
    if (ec) continue;
    const double age = std::chrono::duration<double>(now - t).count();
    if (best < 0 || age < best) best = age;
  }
  return best;
}

std::string BuildStatusJson(const char* state,
                            const FleetSupervisor::Status& s,
                            double uptime_s, const std::string& shard_owner,
                            long leases_held, std::size_t remote_sessions) {
  std::ostringstream os;
  char buf[64];
  os << "{\n";
  os << "  \"state\": \"" << state << "\",\n";
  std::snprintf(buf, sizeof(buf), "%.3f", uptime_s);
  os << "  \"uptime_s\": " << buf << ",\n";
  os << "  \"sessions\": {\"known\": " << s.known
     << ", \"active\": " << s.active << ", \"pending\": " << s.pending
     << ", \"retrying\": " << s.retrying
     << ", \"completed\": " << s.completed
     << ", \"quarantined\": " << s.quarantined
     << ", \"suspended\": " << s.suspended
     << ", \"fenced\": " << s.fenced << "},\n";
  if (!shard_owner.empty()) {
    // Per-box shard view: what this box holds vs. what it is watching for
    // a takeover. The merged cross-box view is `domino fleet-status`.
    os << "  \"shard\": {\"owner\": \"" << shard_owner
       << "\", \"leases_held\": " << leases_held
       << ", \"claimed_elsewhere\": " << remote_sessions << "},\n";
  }
  os << "  \"failed_attempts\": " << s.failed_attempts << ",\n";
  os << "  \"progress\": {\"windows\": " << s.total_windows
     << ", \"chains\": " << s.total_chains
     << ", \"shed_windows\": " << s.total_shed_windows << "},\n";
  std::snprintf(buf, sizeof(buf), "%.3f",
                NewestCheckpointAgeS(s.open_state_dirs));
  os << "  \"last_checkpoint_age_s\": " << buf << "\n";
  os << "}\n";
  return os.str();
}

void WriteStatusFile(const std::string& path, const char* state,
                     const FleetSupervisor::Status& s, double uptime_s,
                     bool quiet, const std::string& shard_owner = "",
                     long leases_held = 0, std::size_t remote_sessions = 0) {
  std::string err;
  if (!AtomicWriteFile(path,
                       BuildStatusJson(state, s, uptime_s, shard_owner,
                                       leases_held, remote_sessions),
                       /*fsync_file=*/false, nullptr, &err) &&
      !quiet) {
    // Liveness reporting must never take the daemon down; a monitor that
    // sees a stale file draws the right conclusion anyway.
    std::fprintf(stderr, "serve: status write failed: %s\n", err.c_str());
  }
}

}  // namespace

ServeDaemonResult RunServeDaemon(std::vector<SessionSpec> specs,
                                 analysis::CausalGraph graph,
                                 LiveOptions live, FleetOptions fleet,
                                 const ServeDaemonOptions& dopts) {
  ServeDaemonResult res;
  // The manifest records resolved state dirs, so resolve before merging.
  for (SessionSpec& s : specs) {
    if (s.state_dir.empty()) s.state_dir = DefaultStateDir(s.dataset_dir);
  }
  const bool sharded = !dopts.owner.empty();
  std::unique_ptr<ShardCoordinator> shard;
  if (sharded) {
    if (dopts.state_root.empty()) {
      res.fatal = true;
      res.error = "serve: --owner (sharded mode) requires --state-root";
      return res;
    }
    ShardOptions so;
    so.state_root = dopts.state_root;
    so.owner = dopts.owner;
    so.lease_ttl_ms = dopts.lease_ttl_ms;
    so.heartbeat_ms = dopts.heartbeat_ms;
    try {
      shard = std::make_unique<ShardCoordinator>(std::move(so));
    } catch (const std::exception& e) {
      res.fatal = true;
      res.error = std::string("serve: ") + e.what();
      return res;
    }
  }
  // Sharded pools stay dynamic even without --watch: sessions claimed by
  // another box are admitted later, when their owner finishes or dies.
  fleet.dynamic = dopts.watch || sharded;
  fleet.drain_grace_ms = dopts.drain_grace_ms;

  if (!dopts.manifest_path.empty()) {
    FleetManifest m;
    std::string merr;
    if (LoadFleetManifest(dopts.manifest_path, &m, &merr)) {
      // Resuming under a different admission-budget configuration would
      // change the backlog shares — and with them what a resumed session
      // sheds — silently breaking the byte-identity promise. Refuse.
      if (fleet.workers == 0) fleet.workers = m.workers;
      if (fleet.workers != m.workers ||
          fleet.max_attempts != m.max_attempts ||
          fleet.global_backlog_windows != m.global_backlog_windows ||
          fleet.isolate != m.isolate) {
        res.fatal = true;
        res.error =
            "serve: manifest " + dopts.manifest_path +
            " was written under a different fleet configuration "
            "(workers/max-attempts/global-backlog/isolate); rerun with the "
            "original flags or delete the manifest to start over";
        return res;
      }
      res.resumed = true;
      std::set<std::string> have;
      std::vector<SessionSpec> merged;
      std::vector<SessionSeed> seeds;
      merged.reserve(m.sessions.size() + specs.size());
      for (ManifestEntry& e : m.sessions) {
        have.insert(e.spec.dataset_dir);
        merged.push_back(std::move(e.spec));
        seeds.push_back(std::move(e.seed));
      }
      for (SessionSpec& s : specs) {
        if (have.count(s.dataset_dir) != 0) continue;
        merged.push_back(std::move(s));
        seeds.emplace_back();
      }
      specs = std::move(merged);
      fleet.seeds = std::move(seeds);
      // The chaos schedule indexes the *fresh* run's admission order; the
      // resumed run replays faults through the fresh-run-only hooks of the
      // sessions it re-runs, not through a re-indexed schedule.
      fleet.chaos.clear();
    } else if (!merr.empty()) {
      res.fatal = true;
      res.error = "serve: refusing to start over a corrupt manifest: " +
                  merr + " (delete " + dopts.manifest_path +
                  " to discard it)";
      return res;
    }
  }

  // Sessions a live box elsewhere currently holds. Re-tried every sweep:
  // when the owner finishes, the done marker drops them; when the owner
  // dies, the stale heartbeat lets this box steal the lease and finish the
  // work from the shared checkpoint. Only the helper thread touches this
  // after construction.
  std::vector<SessionSpec> remote;
  if (shard != nullptr) {
    std::vector<SessionSpec> mine;
    std::vector<SessionSeed> mine_seeds;
    std::vector<SessionChaos> mine_chaos;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const bool terminal = i < fleet.seeds.size() && fleet.seeds[i].terminal;
      bool keep = terminal;  // Terminal on this box: reported verbatim,
                             // no lease needed.
      if (!terminal) {
        std::string claim_err;
        switch (shard->TryClaim(specs[i].dataset_dir, &claim_err)) {
          case ClaimResult::kClaimed:
            keep = true;
            break;
          case ClaimResult::kDone:
            // Finished somewhere already; the done marker carries the
            // outcome for `domino fleet-status`.
            if (!fleet.quiet) {
              std::fprintf(stderr,
                           "serve: %s already finished elsewhere, skipping\n",
                           specs[i].dataset_dir.c_str());
            }
            break;
          case ClaimResult::kHeldElsewhere:
            remote.push_back(specs[i]);
            break;
          case ClaimResult::kError:
            std::fprintf(stderr, "serve: claim failed (will retry): %s\n",
                         claim_err.c_str());
            remote.push_back(specs[i]);
            break;
        }
      }
      if (keep) {
        mine.push_back(std::move(specs[i]));
        if (i < fleet.seeds.size()) mine_seeds.push_back(fleet.seeds[i]);
        if (i < fleet.chaos.size()) mine_chaos.push_back(fleet.chaos[i]);
      }
    }
    specs = std::move(mine);
    fleet.seeds = std::move(mine_seeds);
    // The chaos schedule follows each session to whichever box claims it
    // first; sessions taken over later resume from their checkpoints, so
    // the fresh-run-only hooks stay spent (same rule as manifest resume).
    fleet.chaos = std::move(mine_chaos);

    ShardCoordinator* sc = shard.get();
    const bool quiet = fleet.quiet;
    // Per-attempt lease binding: LiveRunner proves this token before every
    // checkpoint/report write (live.h fencing).
    fleet.shard_binding = [sc](const std::string& dataset, std::string* dir,
                               std::uint64_t* token) {
      if (!sc->Held(dataset)) return false;
      *dir = sc->LeaseDirFor(dataset);
      *token = sc->TokenFor(dataset);
      return *token != 0;
    };
    // Checkpoint GC on a shared state root additionally requires a current
    // lease — a box whose lease was stolen must not delete the new owner's
    // checkpoint.
    fleet.gc_guard = [sc](const SessionSpec& s) {
      return sc->SafeToGc(s.dataset_dir);
    };
    fleet.on_terminal = [sc, quiet](const SessionSpec& s,
                                    const SessionOutcome& o) {
      if (o.fenced) {
        sc->Forget(s.dataset_dir);  // The thief owns the lease now.
        return;
      }
      if (o.suspended) return;  // Drain releases leases in the shutdown path.
      if (!o.ok && !o.quarantined) return;
      ShardDoneRecord rec;
      rec.status = o.ok ? 1 : 2;
      rec.attempts = o.attempts;
      rec.windows = o.summary.windows;
      rec.chains = o.summary.chains;
      std::string derr;
      if (!sc->MarkDone(s.dataset_dir, rec, &derr) && !quiet) {
        std::fprintf(stderr, "serve: done marker for %s failed: %s\n",
                     s.dataset_dir.c_str(), derr.c_str());
      }
    };
  }

  // Admission-ordered ledger for the shutdown manifest. Only the helper
  // thread appends after construction, and the final read happens after
  // it is joined.
  std::vector<SessionSpec> all_specs = specs;
  FleetSupervisor sup(std::move(specs), std::move(graph), std::move(live),
                      fleet);

  std::atomic<bool> stop{false};
  const auto start = Clock::now();
  std::thread helper([&] {
    std::set<std::string> known;
    for (const SessionSpec& s : all_specs) known.insert(s.dataset_dir);
    // Claimed-elsewhere sessions are known too: a watch root containing
    // them must not re-admit them without a lease (takeover readmits via
    // the reclaim sweep instead).
    for (const SessionSpec& s : remote) known.insert(s.dataset_dir);
    long scan_ms = std::max(1L, dopts.scan_interval_ms);
    long status_ms = std::max(1L, dopts.status_interval_ms);
    long grace_ms = std::max(0L, dopts.drain_grace_ms);
    auto next_scan = start;
    auto next_status = start;
    auto next_hb = start;
    auto next_reclaim = start;
    bool draining = false, escalated = false;
    bool no_more_sent = !dopts.watch && !sharded;
    Clock::time_point escalate_at{};
    while (!stop.load(std::memory_order_acquire)) {
      const auto now = Clock::now();
      if (!draining && dopts.term_signals != nullptr &&
          dopts.term_signals->load(std::memory_order_relaxed) > 0) {
        draining = true;
        escalate_at = now + std::chrono::milliseconds(grace_ms);
        sup.RequestDrain();
        if (!fleet.quiet) {
          std::fprintf(stderr, "serve: drain requested, checkpointing "
                               "in-flight sessions\n");
        }
      }
      if (draining && !escalated &&
          (now >= escalate_at ||
           (dopts.term_signals != nullptr &&
            dopts.term_signals->load(std::memory_order_relaxed) > 1))) {
        sup.CancelInFlight();
        escalated = true;
      }
      if (dopts.hup_signals != nullptr &&
          dopts.hup_signals->exchange(0, std::memory_order_relaxed) > 0) {
        if (!dopts.tunables_path.empty()) {
          DaemonTunables t;
          std::string terr;
          if (ParseTunablesFile(dopts.tunables_path, &t, &terr)) {
            sup.UpdateTunables(t.max_attempts, t.backoff_ms,
                               t.backoff_cap_ms, t.session_deadline_s);
            if (t.scan_interval_ms > 0) scan_ms = t.scan_interval_ms;
            if (t.status_interval_ms > 0) status_ms = t.status_interval_ms;
            if (t.drain_grace_ms > 0) grace_ms = t.drain_grace_ms;
            if (!fleet.quiet) {
              std::fprintf(stderr, "serve: reloaded tunables from %s\n",
                           dopts.tunables_path.c_str());
            }
          } else {
            std::fprintf(stderr, "serve: SIGHUP reload failed: %s\n",
                         terr.c_str());
          }
        }
        next_scan = now;  // SIGHUP always forces an immediate re-scan.
      }
      if (shard != nullptr && now >= next_hb) {
        // Heartbeat every held lease. A lease that comes back stolen needs
        // no action here: ownership is already forgotten, and the running
        // attempt fences itself at its next poll/checkpoint boundary.
        const std::vector<std::string> lost = shard->RenewHeld();
        if (!fleet.quiet) {
          for (const std::string& d : lost) {
            std::fprintf(stderr,
                         "serve: lease for %s was stolen; fencing the "
                         "running attempt\n",
                         d.c_str());
          }
        }
        next_hb = Clock::now() +
                  std::chrono::milliseconds(shard->effective_heartbeat_ms());
      }
      bool reclaimed_none = false;
      if (shard != nullptr && !draining && now >= next_reclaim) {
        reclaimed_none = true;
        if (!remote.empty()) {
          std::vector<SessionSpec> taken;
          std::vector<SessionSpec> still;
          for (SessionSpec& s : remote) {
            std::string claim_err;
            switch (shard->TryClaim(s.dataset_dir, &claim_err)) {
              case ClaimResult::kClaimed:
                taken.push_back(std::move(s));
                break;
              case ClaimResult::kDone:
                break;  // Finished elsewhere; nothing left to do.
              default:
                still.push_back(std::move(s));
                break;
            }
          }
          remote = std::move(still);
          if (!taken.empty()) {
            reclaimed_none = false;
            if (!fleet.quiet) {
              for (const SessionSpec& s : taken) {
                std::fprintf(stderr, "serve: took over %s\n",
                             s.dataset_dir.c_str());
              }
            }
            all_specs.insert(all_specs.end(), taken.begin(), taken.end());
            sup.AddSessions(std::move(taken));
          }
        }
        next_reclaim = Clock::now() + std::chrono::milliseconds(scan_ms);
      }
      bool swept_nothing = false;
      if (dopts.watch && !draining && now >= next_scan) {
        const std::vector<std::string> fresh =
            ScanForSessions(dopts.watch_roots, known, dopts.state_root);
        if (fresh.empty()) {
          swept_nothing = true;
        } else {
          std::vector<SessionSpec> batch;
          batch.reserve(fresh.size());
          for (const std::string& dir : fresh) {
            known.insert(dir);
            SessionSpec s;
            s.dataset_dir = dir;
            s.state_dir = dopts.state_root.empty()
                              ? DefaultStateDir(dir)
                              : SessionStateDirFor(dopts.state_root, dir);
            if (shard != nullptr) {
              // Discovered sessions go through the same claim gate as
              // operands: only the box that wins the lease admits it.
              std::string claim_err;
              switch (shard->TryClaim(dir, &claim_err)) {
                case ClaimResult::kClaimed:
                  break;
                case ClaimResult::kDone:
                  continue;  // Finished elsewhere already.
                default:
                  remote.push_back(std::move(s));
                  continue;
              }
            }
            batch.push_back(s);
          }
          if (!batch.empty()) {
            all_specs.insert(all_specs.end(), batch.begin(), batch.end());
            if (!fleet.quiet) {
              std::fprintf(stderr, "serve: admitted %zu new session%s\n",
                           batch.size(), batch.size() == 1 ? "" : "s");
            }
            sup.AddSessions(std::move(batch));
          }
        }
        next_scan = Clock::now() + std::chrono::milliseconds(scan_ms);
      }
      if (!dopts.status_path.empty() && now >= next_status) {
        WriteStatusFile(dopts.status_path,
                        draining ? "draining" : "running", sup.Snapshot(),
                        std::chrono::duration<double>(now - start).count(),
                        fleet.quiet, dopts.owner,
                        shard != nullptr ? shard->held_count() : 0,
                        remote.size());
        next_status = Clock::now() + std::chrono::milliseconds(status_ms);
      }
      // Idle exit: everything this box knows about is terminal, the last
      // sweep found nothing new, and — sharded — no session is still open
      // on another box (a crash there would hand this box the work).
      const bool watch_idle = !dopts.watch || swept_nothing;
      const bool shard_idle =
          shard == nullptr || (reclaimed_none && remote.empty());
      if (dopts.exit_when_idle && (dopts.watch || sharded) &&
          !no_more_sent && watch_idle && shard_idle) {
        const FleetSupervisor::Status s = sup.Snapshot();
        if (s.active == 0 && s.pending == 0) {
          sup.NoMoreSessions();
          no_more_sent = true;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  res.report = sup.Run();
  stop.store(true, std::memory_order_release);
  helper.join();

  if (!dopts.manifest_path.empty()) {
    // Best-effort: a lost manifest costs resume efficiency (open sessions
    // re-run from their checkpoints, terminal ones re-complete), never
    // correctness — so a full disk here must not turn a clean drain into
    // a crash.
    std::string serr;
    FleetManifest m = BuildFleetManifest(res.report, all_specs);
    m.owner = dopts.owner;
    if (!SaveFleetManifest(m, dopts.manifest_path, nullptr, &serr)) {
      std::fprintf(stderr, "serve: manifest write failed: %s\n",
                   serr.c_str());
    }
  }
  if (shard != nullptr) {
    // Leases still held here belong to suspended (drained) sessions —
    // terminal ones were released by MarkDone, fenced ones forgotten.
    // Releasing them lets a surviving box claim and finish the work
    // immediately instead of waiting out the TTL. After the manifest
    // write, so this box's own resume ledger is already durable.
    shard->ReleaseAll();
  }
  if (!dopts.status_path.empty()) {
    WriteStatusFile(
        dopts.status_path, "stopped", sup.Snapshot(),
        std::chrono::duration<double>(Clock::now() - start).count(),
        fleet.quiet, dopts.owner,
        shard != nullptr ? shard->held_count() : 0, remote.size());
  }
  return res;
}

}  // namespace domino::runtime
