#include "domino/runtime/checkpoint.h"

#include <sstream>

#include "common/sealed_record.h"

namespace domino::runtime {

namespace {

constexpr const char* kHeader = "domino-live-checkpoint v1";

}  // namespace

std::string FormatCheckpoint(const LiveCheckpoint& cp) {
  std::ostringstream os;
  os << kHeader << "\n";
  // The fingerprint may contain spaces: it is the rest of the line.
  os << "fingerprint " << cp.fingerprint << "\n";
  os << "cursor " << cp.next_begin.micros() << " " << cp.ingest_limit.micros()
     << " " << cp.retention_cut.micros() << " " << cp.anchor.micros() << " "
     << cp.poll_count << "\n";
  os << "counters " << cp.windows << " " << cp.chains << " "
     << cp.insufficient << " " << cp.resets << " " << cp.checkpoints_written
     << " " << cp.chainlog_bytes << "\n";
  // Cadence origin for periodic checkpointing; writers always emit it with
  // the real value (>= 0), the -1 default only survives in files written
  // before the field existed.
  os << "cadence "
     << (cp.last_checkpoint_windows < 0 ? cp.windows
                                        : cp.last_checkpoint_windows)
     << "\n";
  os << "retention " << cp.retention_cuts << " " << cp.evicted_records << " "
     << cp.peak_retained_records << " " << cp.peak_retained_span.micros()
     << "\n";
  os << "ranking " << cp.windows_seen << " " << cp.windows_with_chain << " "
     << cp.insufficient_windows << "\n";
  for (const auto& [idx, v] : cp.cause) {
    os << "cause " << idx << " " << v.first << " " << v.second << "\n";
  }
  for (const auto& [idx, v] : cp.chain_tally) {
    os << "chain " << idx << " " << v.first << " " << v.second << "\n";
  }
  for (const auto& s : cp.shed) {
    os << "shed " << s.begin.micros() << " " << s.end.micros() << " "
       << s.windows << "\n";
  }
  for (std::size_t i = 0; i < cp.stalls.size(); ++i) {
    const StallState& s = cp.stalls[i];
    os << "stall " << i << " " << s.stall_events << " " << s.recoveries
       << " " << (s.stalled ? 1 : 0) << "\n";
  }
  for (std::size_t i = 0; i < cp.tails.size(); ++i) {
    const telemetry::TailCursor& t = cp.tails[i];
    os << "tail " << i << " " << t.offset << " " << t.abs_row << " "
       << (t.header_seen ? 1 : 0) << " " << t.watermark.micros() << " "
       << t.rows_total << " " << t.rows_kept << " " << t.rows_dropped
       << "\n";
  }
  return Seal(os.str());
}

bool ParseCheckpoint(const std::string& text,
                     const std::string& expected_fingerprint,
                     LiveCheckpoint* cp, std::string* error,
                     CheckpointFailure* failure, const InputLimits& limits) {
  if (failure != nullptr) *failure = CheckpointFailure::kCorrupt;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "checkpoint: " + why;
    return false;
  };
  if (text.size() > limits.max_checkpoint_bytes) {
    return fail(std::to_string(text.size()) + " bytes exceeds the " +
                std::to_string(limits.max_checkpoint_bytes) +
                "-byte budget");
  }
  std::string_view body, line;
  std::string why;
  if (!Unseal(text, kHeader, &body, &why)) return fail(why);

  LiveCheckpoint out;
  bool ok = true;
  std::size_t entries = 0;
  while (NextLine(&body, &line)) {
    if (line.empty()) continue;
    if (++entries > limits.max_checkpoint_entries) {
      return fail("more than " +
                  std::to_string(limits.max_checkpoint_entries) +
                  " entries");
    }
    RecordLine r(line);
    const std::string_view key = r.key();
    if (key == "fingerprint") {
      out.fingerprint = r.rest();
    } else if (key == "cursor") {
      out.next_begin = Time{r.I()};
      out.ingest_limit = Time{r.I()};
      out.retention_cut = Time{r.I()};
      out.anchor = Time{r.I()};
      out.poll_count = r.I();
    } else if (key == "counters") {
      out.windows = r.I();
      out.chains = r.I();
      out.insufficient = r.I();
      out.resets = r.I();
      out.checkpoints_written = r.I();
      out.chainlog_bytes = r.U();
    } else if (key == "cadence") {
      out.last_checkpoint_windows = r.I();
      ok = ok && out.last_checkpoint_windows >= 0;
    } else if (key == "retention") {
      out.retention_cuts = r.I();
      out.evicted_records = r.U();
      out.peak_retained_records = r.U();
      out.peak_retained_span = Duration{r.I()};
    } else if (key == "ranking") {
      out.windows_seen = r.I();
      out.windows_with_chain = r.I();
      out.insufficient_windows = r.I();
    } else if (key == "cause") {
      int idx = static_cast<int>(r.I());
      long a = r.I(), w = r.I();
      out.cause[idx] = {a, w};
    } else if (key == "chain") {
      int idx = static_cast<int>(r.I());
      long c = r.I(), i = r.I();
      out.chain_tally[idx] = {c, i};
    } else if (key == "shed") {
      ShedRange s;
      s.begin = Time{r.I()};
      s.end = Time{r.I()};
      s.windows = r.I();
      out.shed.push_back(s);
    } else if (key == "stall") {
      std::size_t i = static_cast<std::size_t>(r.I());
      StallState s;
      s.stall_events = r.I();
      s.recoveries = r.I();
      s.stalled = r.I() != 0;
      ok = ok && i < out.stalls.size();
      if (i < out.stalls.size()) out.stalls[i] = s;
    } else if (key == "tail") {
      std::size_t i = static_cast<std::size_t>(r.I());
      telemetry::TailCursor t;
      t.offset = static_cast<std::size_t>(r.U());
      t.abs_row = static_cast<std::size_t>(r.U());
      t.header_seen = r.I() != 0;
      t.watermark = Time{r.I()};
      t.rows_total = static_cast<std::size_t>(r.U());
      t.rows_kept = static_cast<std::size_t>(r.U());
      t.rows_dropped = static_cast<std::size_t>(r.U());
      ok = ok && i < out.tails.size();
      if (i < out.tails.size()) out.tails[i] = t;
    } else {
      // Unknown keys are an error: the checksum already guarantees the
      // bytes are exactly what a writer produced, so this is a version
      // skew we must not silently half-apply.
      return fail("unknown key '" + std::string(key) + "'");
    }
    ok = ok && r.ok();
  }
  if (!ok) return fail("malformed field");
  if (!expected_fingerprint.empty() &&
      out.fingerprint != expected_fingerprint) {
    if (failure != nullptr) *failure = CheckpointFailure::kFingerprintMismatch;
    return fail("fingerprint mismatch (config or engine changed since the "
                "checkpoint was written)");
  }
  *cp = std::move(out);
  if (failure != nullptr) *failure = CheckpointFailure::kNone;
  return true;
}

bool SaveCheckpoint(const LiveCheckpoint& cp, const std::string& path,
                    DiskFaultInjector* fault) {
  return AtomicWriteFile(path, FormatCheckpoint(cp), /*fsync_file=*/true,
                         fault, /*error=*/nullptr);
}

bool LoadCheckpoint(const std::string& path,
                    const std::string& expected_fingerprint,
                    LiveCheckpoint* cp, std::string* error,
                    CheckpointFailure* failure, const InputLimits& limits) {
  std::string text;
  const FileRead read =
      ReadFileBounded(path, limits.max_checkpoint_bytes, &text);
  if (read == FileRead::kOk) {
    return ParseCheckpoint(text, expected_fingerprint, cp, error, failure,
                           limits);
  }
  if (failure != nullptr) {
    *failure = read == FileRead::kMissing ? CheckpointFailure::kMissing
                                          : CheckpointFailure::kCorrupt;
  }
  if (error != nullptr) {
    if (read == FileRead::kMissing) {
      error->clear();
    } else if (read == FileRead::kTooLarge) {
      *error = "checkpoint: file exceeds the " +
               std::to_string(limits.max_checkpoint_bytes) + "-byte budget";
    } else {
      *error = "checkpoint: cannot read '" + path + "'";
    }
  }
  return false;
}

}  // namespace domino::runtime
