// Fuzz target: the tailing dataset reader (telemetry/tail.h).
//
// The input is one stream file: a ~64 KiB valid filler (header plus rows
// of the stream picked by the first byte) followed by the fuzz bytes, so
// they straddle the tail reader's first 64 KiB block edge. It is read
// three ways, and the harness aborts unless they agree:
//
//  * served in two appends: the filler and the first half of the fuzz
//    bytes are visible on poll 1, the full content on poll 2 (partial-tail
//    deferral and byte-offset bookkeeping);
//  * one poll of the whole file by a fresh reader;
//  * a fresh reader replaying to the two-append reader's final cursor at
//    cut 0 (the kill-and-resume path).
//
// The first two must give equal records, ReadStats counts and diagnostics
// and the same cursor; the replay must give equal records.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/parse.h"
#include "telemetry/tail.h"

namespace {

using namespace domino;
using namespace domino::telemetry;

/// Fuzz bytes start this far before the first block edge.
constexpr std::size_t kFillerBytes = LineScanner::kBlockBytes - 32;

const std::string& TempDir() {
  static const std::string dir = [] {
    char tmpl[] = "/tmp/domino_fuzz_tail_XXXXXX";
    const char* d = mkdtemp(tmpl);
    return std::string(d != nullptr ? d : ".");
  }();
  return dir;
}

/// Header plus valid rows of stream `id`, padded with blank lines to
/// exactly kFillerBytes.
std::string Filler(StreamId id) {
  std::string header;
  std::string row;
  switch (id) {
    case StreamId::kDci:
      header = "time_us,rnti,dir,prbs,mcs,tbs_bytes,is_retx,harq_process,"
               "attempt";
      row = "1000,17921,DL,10,20,3000,0,1,0";
      break;
    case StreamId::kGnbLog:
      header = "time_us,rnti,dir,rlc_buffer,rlc_retx,rrc_state";
      row = "1000,17921,DL,500,1,connected";
      break;
    case StreamId::kPackets:
      header = "id,dir,size_bytes,sent_us,recv_us,is_rtcp,is_audio,frame_id";
      row = "7,UL,1200,1000,2500,0,1,42";
      break;
    case StreamId::kStatsUe:
    case StreamId::kStatsRemote:
      header = "time_us,in_fps,out_fps,out_res,jb_ms,target_bps,"
               "pushback_bps,outstanding,cwnd,gcc_state,delay_slope,"
               "concealed,frozen";
      row = "1000,29.5,30,720,40.25,1.5e6,1.4e6,1000,2000,normal,0.5,0.01,0";
      break;
  }
  std::string out = header + "\n";
  while (out.size() + row.size() + 1 <= kFillerBytes) out += row + "\n";
  out.resize(kFillerBytes, '\n');
  return out;
}

void WriteBytes(const std::string& path, const char* data, std::size_t size,
                bool append) {
  std::ofstream f(path, std::ios::binary |
                            (append ? std::ios::app : std::ios::trunc));
  f.write(data, static_cast<std::streamsize>(size));
}

void Check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "fuzz_tail: oracle mismatch: %s\n", what);
  std::abort();
}

bool SameRecords(const SessionDataset& a, const SessionDataset& b) {
  return a.dci == b.dci && a.gnb_log == b.gnb_log && a.packets == b.packets &&
         a.stats[0] == b.stats[0] && a.stats[1] == b.stats[1];
}

bool SameStats(const ReadStats& a, const ReadStats& b) {
  if (a.rows_total != b.rows_total || a.rows_kept != b.rows_kept ||
      a.rows_dropped != b.rows_dropped || a.errors.size() != b.errors.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.errors.size(); ++i) {
    if (a.errors[i].kind != b.errors[i].kind ||
        a.errors[i].row != b.errors[i].row ||
        a.errors[i].message != b.errors[i].message) {
      return false;
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const auto id = static_cast<StreamId>(data[0] % kStreamCount);
  const std::string path = TempDir() + "/" + StreamFileName(id);

  const std::string filler = Filler(id);
  const char* body = reinterpret_cast<const char*>(data + 1);
  const std::size_t body_size = size - 1;
  const std::size_t half = body_size / 2;

  TailLimits lim;
  lim.limit = Time{1'000'000'000'000};  // far future: stop rule inert
  lim.max_jump = Duration{1'000'000'000'000};
  lim.input.max_line_bytes = 4096;
  lim.input.max_fields = 64;

  WriteBytes(path, filler.data(), filler.size(), /*append=*/false);
  WriteBytes(path, body, half, /*append=*/true);
  TailingDatasetReader reader(TempDir());
  SessionDataset ds;
  reader.Poll(id, ds, lim);

  WriteBytes(path, body + half, body_size - half, /*append=*/true);
  reader.Poll(id, ds, lim);

  TailingDatasetReader whole(TempDir());
  SessionDataset whole_ds;
  whole.Poll(id, whole_ds, lim);
  Check(SameRecords(ds, whole_ds), "two-append vs one poll: records");
  Check(SameStats(reader.stats(id), whole.stats(id)),
        "two-append vs one poll: ReadStats");
  const TailCursor cur = reader.cursor(id);
  Check(cur.offset == whole.cursor(id).offset &&
            cur.abs_row == whole.cursor(id).abs_row,
        "two-append vs one poll: cursor");

  TailingDatasetReader resumed(TempDir());
  SessionDataset replay_ds;
  try {
    resumed.ReplayTo(id, replay_ds, cur, Time{0}, lim.input);
  } catch (const std::runtime_error&) {
    Check(false, "replay: file shorter than the cursor");
  }
  Check(SameRecords(ds, replay_ds), "two-append vs replay: records");
  return 0;
}
