// Prefix-trim retention ≡ keep-mask retention. RemoveOlderThan drops an
// evicted prefix with one EraseFront per column and falls back to a keep
// mask otherwise; either way it must leave exactly the columns, and return
// exactly the count, of the keep-mask compaction it replaced (the reference
// below). Streams: time-sorted, BM_Sanitize/5-faulted (non-prefix
// evictions), and zero-copy borrowed views, at cuts that evict nothing,
// everything, and prefixes in between.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "sim/call_session.h"
#include "sim/cell_config.h"
#include "telemetry/fault_inject.h"
#include "telemetry/retention.h"

namespace domino::telemetry {
namespace {

/// RemoveOlderThan as it was before the prefix trim: mark, then compact
/// every column by the mask.
template <typename Cols>
std::size_t KeepMaskRemoveOlderThan(Cols& s, Time cut) {
  std::vector<unsigned char> keep(s.size(), 1);
  std::size_t removed = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.RowTime(i) < cut) {
      keep[i] = 0;
      ++removed;
    }
  }
  if (removed > 0) s.ForEachColumn([&](auto& c) { c.Keep(keep); });
  return removed;
}

SessionDataset Clean() {
  sim::SessionConfig cfg;
  cfg.profile = sim::Amarisoft();
  cfg.duration = Seconds(10);
  cfg.seed = 3;
  return sim::CallSession(cfg).Run();
}

SessionDataset Faulted(const SessionDataset& clean) {
  FaultSpec mix;  // The BM_Sanitize/5 fault mix.
  mix.drop = 0.05;
  mix.duplicate = 0.05;
  mix.reorder = 0.05;
  mix.corrupt_time = 0.01;
  SessionDataset ds = clean;
  InjectFaults(ds, mix, 11);
  return ds;
}

/// Cuts that evict nothing, everything, and several prefixes, including
/// one equal to a row time (rows at the cut are kept).
template <typename Cols>
std::vector<Time> Cuts(const Cols& s) {
  std::vector<Time> times;
  for (std::size_t i = 0; i < s.size(); ++i) times.push_back(s.RowTime(i));
  std::sort(times.begin(), times.end());
  std::vector<Time> cuts = {Time{0}};
  if (times.empty()) return cuts;
  cuts.push_back(times.front());
  cuts.push_back(times.back() + Micros(1));
  for (const std::size_t q : {1u, 3u, 5u, 9u}) {
    cuts.push_back(times[times.size() * q / 10]);
    cuts.push_back(times[times.size() * q / 10] + Micros(1));
  }
  return cuts;
}

/// Owned and borrowed copies of `src` trimmed at every cut match the
/// keep-mask reference; returns how many cuts evicted a non-prefix.
template <typename Cols>
int ExpectTrimMatchesKeepMask(const Cols& src, const std::string& what) {
  int non_prefix = 0;
  for (const Time cut : Cuts(src)) {
    const std::string where = what + " cut=" + std::to_string(cut.micros());
    Cols want = src;
    const std::size_t removed = KeepMaskRemoveOlderThan(want, cut);

    Cols owned = src;
    EXPECT_EQ(owned.RemoveOlderThan(cut), removed) << where;
    EXPECT_TRUE(Cols::Tie(owned) == Cols::Tie(want)) << where;

    Cols view;
    view.BorrowRows(src, 0, src.size());
    EXPECT_EQ(view.RemoveOlderThan(cut), removed) << where;
    EXPECT_TRUE(Cols::Tie(view) == Cols::Tie(want)) << where;

    // A prefix eviction only narrows a borrowed view; anything else
    // materializes it for the keep mask.
    std::size_t head = 0;
    while (head < src.size() && src.RowTime(head) < cut) ++head;
    const bool prefix = head == removed;
    if (!prefix) ++non_prefix;
    EXPECT_EQ(std::get<0>(Cols::Tie(view)).borrowed(), prefix) << where;
  }
  return non_prefix;
}

TEST(RetentionParityTest, SortedStreamsTrimAPrefix) {
  const SessionDataset ds = Clean();
  ASSERT_FALSE(ds.dci.empty());
  EXPECT_EQ(ExpectTrimMatchesKeepMask(ds.dci, "dci"), 0);
  EXPECT_EQ(ExpectTrimMatchesKeepMask(ds.gnb_log, "gnb_log"), 0);
  EXPECT_EQ(ExpectTrimMatchesKeepMask(ds.stats[kUeClient], "stats_ue"), 0);
  EXPECT_EQ(
      ExpectTrimMatchesKeepMask(ds.stats[kRemoteClient], "stats_remote"), 0);
  // Packets are in arrival order; RowTime is the send stamp.
  ExpectTrimMatchesKeepMask(ds.packets, "packets");
  ExpectTrimMatchesKeepMask(DciColumns{}, "empty");
}

TEST(RetentionParityTest, FaultedStreamsFallBackToTheKeepMask) {
  const SessionDataset ds = Faulted(Clean());
  int non_prefix = 0;
  non_prefix += ExpectTrimMatchesKeepMask(ds.dci, "dci");
  non_prefix += ExpectTrimMatchesKeepMask(ds.gnb_log, "gnb_log");
  non_prefix += ExpectTrimMatchesKeepMask(ds.packets, "packets");
  non_prefix += ExpectTrimMatchesKeepMask(ds.stats[kUeClient], "stats_ue");
  non_prefix +=
      ExpectTrimMatchesKeepMask(ds.stats[kRemoteClient], "stats_remote");
  EXPECT_GT(non_prefix, 0);  // the fallback path ran
}

TEST(RetentionParityTest, ApplyRetentionCountsMatchTheKeepMask) {
  for (const bool faulted : {false, true}) {
    const SessionDataset src = faulted ? Faulted(Clean()) : Clean();
    for (const double s : {2.5, 7.0, 60.0}) {
      const Time cut = src.begin + Seconds(s);
      SessionDataset want = src;
      std::size_t removed = KeepMaskRemoveOlderThan(want.dci, cut) +
                            KeepMaskRemoveOlderThan(want.gnb_log, cut) +
                            KeepMaskRemoveOlderThan(want.packets, cut);
      for (auto& stream : want.stats) {
        removed += KeepMaskRemoveOlderThan(stream, cut);
      }
      SessionDataset got = src;
      RetentionStats stats;
      const std::size_t evicted = ApplyRetention(got, cut, stats);
      const std::string where = std::string(faulted ? "faulted" : "clean") +
                                " +" + std::to_string(s) + "s";
      // ApplyRetention also counts the samples it trims off the RNTI
      // timeline when re-anchoring it at the cut.
      const std::size_t rnti_removed =
          src.ue_rnti.size() >= got.ue_rnti.size()
              ? src.ue_rnti.size() - got.ue_rnti.size()
              : 0;
      EXPECT_EQ(evicted, removed + rnti_removed) << where;
      EXPECT_TRUE(got.dci == want.dci) << where;
      EXPECT_TRUE(got.gnb_log == want.gnb_log) << where;
      EXPECT_TRUE(got.packets == want.packets) << where;
      EXPECT_TRUE(got.stats[0] == want.stats[0]) << where;
      EXPECT_TRUE(got.stats[1] == want.stats[1]) << where;
    }
  }
}

}  // namespace
}  // namespace domino::telemetry
