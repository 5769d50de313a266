// Columnar (SoA) storage for the raw telemetry streams.
//
// Each stream of SessionDataset is stored as parallel per-field columns
// instead of a vector of record structs. The hot consumers —
// BuildDerivedTrace's stream sweeps, the clock-offset estimator, the binary
// wire format — iterate over exactly the fields they need as contiguous
// arrays; the record structs in records.h survive as *row views* that are
// materialized on demand, so emitters (`push_back`) and row-oriented
// passes (sanitizer, fault injector) keep their natural shape.
//
// Zero-copy ingest: a Column<T> either owns its storage (a vector) or
// borrows a read-only span from a shared backing buffer — the arena of an
// mmap'd binary trace file (binfmt.h). Borrowed columns materialize on
// first mutation (copy-on-write at column granularity), so a loaded trace
// that is only analysed never copies its bulk data out of the page cache.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <memory>
#include <numeric>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/column.h"
#include "common/time.h"
#include "common/types.h"
#include "telemetry/records.h"

namespace domino::telemetry {

using domino::Column;

/// Random-access iterator over a columnar stream, materializing row records
/// by value (range-for written against the old row vectors keeps working).
template <typename Cols, typename Record>
class RowIterator {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = Record;
  using difference_type = std::ptrdiff_t;
  using pointer = const Record*;
  using reference = Record;

  RowIterator() = default;
  RowIterator(const Cols* c, std::size_t i) : c_(c), i_(i) {}

  Record operator*() const { return c_->Get(i_); }
  Record operator[](difference_type n) const {
    return c_->Get(i_ + static_cast<std::size_t>(n));
  }

  RowIterator& operator++() { ++i_; return *this; }
  RowIterator operator++(int) { auto c = *this; ++i_; return c; }
  RowIterator& operator--() { --i_; return *this; }
  RowIterator operator--(int) { auto c = *this; --i_; return c; }
  RowIterator& operator+=(difference_type n) {
    i_ = static_cast<std::size_t>(static_cast<difference_type>(i_) + n);
    return *this;
  }
  RowIterator& operator-=(difference_type n) { return *this += -n; }
  friend RowIterator operator+(RowIterator it, difference_type n) {
    return it += n;
  }
  friend RowIterator operator-(RowIterator it, difference_type n) {
    return it -= n;
  }
  friend difference_type operator-(RowIterator a, RowIterator b) {
    return static_cast<difference_type>(a.i_) -
           static_cast<difference_type>(b.i_);
  }
  friend bool operator==(RowIterator a, RowIterator b) { return a.i_ == b.i_; }
  friend auto operator<=>(RowIterator a, RowIterator b) {
    return a.i_ <=> b.i_;
  }

 private:
  const Cols* c_ = nullptr;
  std::size_t i_ = 0;
};

/// CRTP mixin supplying the row-compatible API on top of a Derived that
/// implements Get(i), Append(rec), RowTime(i), size(), and a static
/// Tie(self) that ties its columns in schema order: the order the column
/// visitors below and the binary format (binfmt.h) walk them.
template <typename Derived, typename Record>
class RowApi {
 public:
  using value_type = Record;
  using const_iterator = RowIterator<Derived, Record>;

  /// Calls fn(column) for every column, in Tie order.
  template <typename Fn>
  void ForEachColumn(Fn&& fn) {
    std::apply([&](auto&... c) { (fn(c), ...); }, Derived::Tie(d()));
  }
  template <typename Fn>
  void ForEachColumn(Fn&& fn) const {
    std::apply([&](const auto&... c) { (fn(c), ...); }, Derived::Tie(d()));
  }

  /// Makes this stream a zero-copy view of rows [first, first + count) of
  /// `src`. The view borrows `src`'s storage, so it is valid only until
  /// `src` is next modified; a mutation of the view copies first.
  void BorrowRows(const Derived& src, std::size_t first, std::size_t count) {
    ForEachColumnWith(src, [&](auto& mine, const auto& theirs) {
      mine.Adopt(nullptr, theirs.data() + first, count);
    });
  }
  /// Replaces this stream's rows with src's rows `rows[0]`, `rows[1]`, ...,
  /// reusing this stream's own column capacity.
  void GatherRows(const Derived& src, const std::vector<std::uint32_t>& rows) {
    ForEachColumnWith(src, [&](auto& mine, const auto& theirs) {
      mine.GatherFrom(theirs, rows);
    });
  }

  [[nodiscard]] bool empty() const { return d().size() == 0; }
  [[nodiscard]] Record operator[](std::size_t i) const { return d().Get(i); }
  void push_back(const Record& r) { d().Append(r); }

  [[nodiscard]] const_iterator begin() const { return {&d(), 0}; }
  [[nodiscard]] const_iterator end() const { return {&d(), d().size()}; }

  void clear() {
    d().ForEachColumn([](auto& c) { c.clear(); });
  }
  void reserve(std::size_t n) {
    d().ForEachColumn([n](auto& c) { c.reserve(n); });
  }

  /// Materializes the whole stream as row records (for row-oriented passes
  /// like the sanitizer and the fault injector).
  [[nodiscard]] std::vector<Record> ToRows() const {
    std::vector<Record> out;
    out.reserve(d().size());
    for (std::size_t i = 0; i < d().size(); ++i) out.push_back(d().Get(i));
    return out;
  }
  void AssignRows(const std::vector<Record>& rows) {
    clear();
    reserve(rows.size());
    for (const Record& r : rows) d().Append(r);
  }

  /// Drops every row with RowTime(i) < cut; returns how many were removed.
  /// When those rows are exactly a prefix (any time-ordered stream), each
  /// column drops it with one EraseFront; otherwise (packets in arrival
  /// order, faulted input) the columns are compacted by a keep mask.
  std::size_t RemoveOlderThan(Time cut) {
    const std::size_t n = d().size();
    std::size_t head = 0;
    while (head < n && d().RowTime(head) < cut) ++head;
    std::size_t i = head;
    while (i < n && !(d().RowTime(i) < cut)) ++i;
    if (i == n) {
      if (head > 0) d().ForEachColumn([&](auto& c) { c.EraseFront(head); });
      return head;
    }
    return EraseRowsIf([&](std::size_t r) { return d().RowTime(r) < cut; });
  }

  /// Inserts a row at index `idx` (row-materializing; intended for tests
  /// and small fixups, not bulk ingest).
  void InsertAt(std::size_t idx, const Record& r) {
    std::vector<Record> rows = ToRows();
    rows.insert(rows.begin() + static_cast<std::ptrdiff_t>(idx), r);
    AssignRows(rows);
  }

  /// Removes every row matching `pred`; returns how many were removed.
  template <typename Pred>
  std::size_t EraseIf(Pred pred) {
    return EraseRowsIf([&](std::size_t i) { return pred(d().Get(i)); });
  }

  /// Swaps rows i and j (column-wise).
  void SwapRows(std::size_t i, std::size_t j) {
    d().ForEachColumn([&](auto& c) {
      auto tmp = c[i];
      c.Set(i, c[j]);
      c.Set(j, tmp);
    });
  }

  /// Stable sort of the rows by RowTime (argsort + per-column gather).
  void StableSortByTime() {
    const std::size_t n = d().size();
    std::vector<std::uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    std::stable_sort(perm.begin(), perm.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return d().RowTime(a) < d().RowTime(b);
                     });
    bool identity = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (perm[i] != i) {
        identity = false;
        break;
      }
    }
    if (identity) return;
    d().ForEachColumn([&](auto& c) { c.Gather(perm); });
  }

  friend bool operator==(const Derived& a, const Derived& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!(a.Get(i) == b.Get(i))) return false;
    }
    return true;
  }

 private:
  /// Compacts every column by a keep mask, dropping row i iff
  /// row_pred(i); returns how many were removed.
  template <typename RowPred>
  std::size_t EraseRowsIf(RowPred row_pred) {
    const std::size_t n = d().size();
    std::vector<unsigned char> keep(n, 1);
    std::size_t removed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (row_pred(i)) {
        keep[i] = 0;
        ++removed;
      }
    }
    if (removed > 0) {
      d().ForEachColumn([&](auto& c) { c.Keep(keep); });
    }
    return removed;
  }

  /// Calls fn(mine, theirs) for every column of this stream and the
  /// matching column of `other`, in Tie order.
  template <typename Fn>
  void ForEachColumnWith(const Derived& other, Fn&& fn) {
    auto mine = Derived::Tie(d());
    auto theirs = Derived::Tie(other);
    constexpr std::size_t kColumns = std::tuple_size_v<decltype(mine)>;
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (fn(std::get<I>(mine), std::get<I>(theirs)), ...);
    }(std::make_index_sequence<kColumns>{});
  }

  [[nodiscard]] Derived& d() { return static_cast<Derived&>(*this); }
  [[nodiscard]] const Derived& d() const {
    return static_cast<const Derived&>(*this);
  }
};

/// Per-slot PHY/MAC scheduling telemetry (DciRecord), columnar.
class DciColumns : public RowApi<DciColumns, DciRecord> {
 public:
  Column<Time> time;
  Column<std::uint32_t> rnti;
  Column<std::uint8_t> dir;  ///< static_cast<uint8_t>(Direction)
  Column<std::int32_t> prbs;
  Column<std::int32_t> mcs;
  Column<std::int32_t> tbs_bytes;
  Column<std::uint8_t> is_retx;
  Column<std::int32_t> harq_process;
  Column<std::int32_t> attempt;

  [[nodiscard]] std::size_t size() const { return time.size(); }
  [[nodiscard]] Time RowTime(std::size_t i) const { return time[i]; }

  [[nodiscard]] DciRecord Get(std::size_t i) const {
    DciRecord r;
    r.time = time[i];
    r.rnti = rnti[i];
    r.dir = static_cast<Direction>(dir[i]);
    r.prbs = prbs[i];
    r.mcs = mcs[i];
    r.tbs_bytes = tbs_bytes[i];
    r.is_retx = is_retx[i] != 0;
    r.harq_process = harq_process[i];
    r.attempt = attempt[i];
    return r;
  }
  void Append(const DciRecord& r) {
    time.push_back(r.time);
    rnti.push_back(r.rnti);
    dir.push_back(static_cast<std::uint8_t>(r.dir));
    prbs.push_back(r.prbs);
    mcs.push_back(r.mcs);
    tbs_bytes.push_back(r.tbs_bytes);
    is_retx.push_back(r.is_retx ? 1 : 0);
    harq_process.push_back(r.harq_process);
    attempt.push_back(r.attempt);
  }
  template <typename Self>
  static auto Tie(Self& s) {
    return std::tie(s.time, s.rnti, s.dir, s.prbs, s.mcs, s.tbs_bytes,
                    s.is_retx, s.harq_process, s.attempt);
  }
};

/// Periodic gNB-side log samples (GnbLogRecord), columnar.
class GnbLogColumns : public RowApi<GnbLogColumns, GnbLogRecord> {
 public:
  Column<Time> time;
  Column<std::uint32_t> rnti;
  Column<std::uint8_t> dir;
  Column<std::int32_t> rlc_buffer_bytes;
  Column<std::uint8_t> rlc_retx;
  Column<std::uint8_t> rrc_state;  ///< static_cast<uint8_t>(RrcState)

  [[nodiscard]] std::size_t size() const { return time.size(); }
  [[nodiscard]] Time RowTime(std::size_t i) const { return time[i]; }

  [[nodiscard]] GnbLogRecord Get(std::size_t i) const {
    GnbLogRecord r;
    r.time = time[i];
    r.rnti = rnti[i];
    r.dir = static_cast<Direction>(dir[i]);
    r.rlc_buffer_bytes = rlc_buffer_bytes[i];
    r.rlc_retx = rlc_retx[i] != 0;
    r.rrc_state = static_cast<RrcState>(rrc_state[i]);
    return r;
  }
  void Append(const GnbLogRecord& r) {
    time.push_back(r.time);
    rnti.push_back(r.rnti);
    dir.push_back(static_cast<std::uint8_t>(r.dir));
    rlc_buffer_bytes.push_back(r.rlc_buffer_bytes);
    rlc_retx.push_back(r.rlc_retx ? 1 : 0);
    rrc_state.push_back(static_cast<std::uint8_t>(r.rrc_state));
  }
  template <typename Self>
  static auto Tie(Self& s) {
    return std::tie(s.time, s.rnti, s.dir, s.rlc_buffer_bytes, s.rlc_retx,
                    s.rrc_state);
  }
};

/// Reconciled packet traces (PacketRecord), columnar. The canonical row
/// order is *arrival* order; RowTime is the send stamp (what the sanitizer
/// sorts and retention cuts by).
class PacketColumns : public RowApi<PacketColumns, PacketRecord> {
 public:
  Column<std::uint64_t> id;
  Column<std::uint8_t> dir;
  Column<std::int32_t> size_bytes;
  Column<Time> sent;
  Column<Time> received;  ///< Time::max() if lost.
  Column<std::uint8_t> is_rtcp;
  Column<std::uint8_t> is_audio;
  Column<std::uint64_t> frame_id;

  [[nodiscard]] std::size_t size() const { return sent.size(); }
  [[nodiscard]] Time RowTime(std::size_t i) const { return sent[i]; }

  [[nodiscard]] PacketRecord Get(std::size_t i) const {
    PacketRecord r;
    r.id = id[i];
    r.dir = static_cast<Direction>(dir[i]);
    r.size_bytes = size_bytes[i];
    r.sent = sent[i];
    r.received = received[i];
    r.is_rtcp = is_rtcp[i] != 0;
    r.is_audio = is_audio[i] != 0;
    r.frame_id = frame_id[i];
    return r;
  }
  void Append(const PacketRecord& r) {
    id.push_back(r.id);
    dir.push_back(static_cast<std::uint8_t>(r.dir));
    size_bytes.push_back(r.size_bytes);
    sent.push_back(r.sent);
    received.push_back(r.received);
    is_rtcp.push_back(r.is_rtcp ? 1 : 0);
    is_audio.push_back(r.is_audio ? 1 : 0);
    frame_id.push_back(r.frame_id);
  }
  template <typename Self>
  static auto Tie(Self& s) {
    return std::tie(s.id, s.dir, s.size_bytes, s.sent, s.received, s.is_rtcp,
                    s.is_audio, s.frame_id);
  }
};

/// 50 ms application statistics (WebRtcStatsRecord), columnar.
class StatsColumns : public RowApi<StatsColumns, WebRtcStatsRecord> {
 public:
  Column<Time> time;
  Column<double> inbound_fps;
  Column<double> outbound_fps;
  Column<std::int32_t> outbound_resolution;
  Column<double> jitter_buffer_ms;
  Column<double> target_bitrate_bps;
  Column<double> pushback_bitrate_bps;
  Column<double> outstanding_bytes;
  Column<double> cwnd_bytes;
  Column<std::uint8_t> gcc_state;  ///< static_cast<uint8_t>(NetworkState)
  Column<double> delay_slope;
  Column<double> concealed_ratio;
  Column<std::uint8_t> frozen;

  [[nodiscard]] std::size_t size() const { return time.size(); }
  [[nodiscard]] Time RowTime(std::size_t i) const { return time[i]; }

  [[nodiscard]] WebRtcStatsRecord Get(std::size_t i) const {
    WebRtcStatsRecord r;
    r.time = time[i];
    r.inbound_fps = inbound_fps[i];
    r.outbound_fps = outbound_fps[i];
    r.outbound_resolution = outbound_resolution[i];
    r.jitter_buffer_ms = jitter_buffer_ms[i];
    r.target_bitrate_bps = target_bitrate_bps[i];
    r.pushback_bitrate_bps = pushback_bitrate_bps[i];
    r.outstanding_bytes = outstanding_bytes[i];
    r.cwnd_bytes = cwnd_bytes[i];
    r.gcc_state = static_cast<NetworkState>(gcc_state[i]);
    r.delay_slope = delay_slope[i];
    r.concealed_ratio = concealed_ratio[i];
    r.frozen = frozen[i] != 0;
    return r;
  }
  void Append(const WebRtcStatsRecord& r) {
    time.push_back(r.time);
    inbound_fps.push_back(r.inbound_fps);
    outbound_fps.push_back(r.outbound_fps);
    outbound_resolution.push_back(r.outbound_resolution);
    jitter_buffer_ms.push_back(r.jitter_buffer_ms);
    target_bitrate_bps.push_back(r.target_bitrate_bps);
    pushback_bitrate_bps.push_back(r.pushback_bitrate_bps);
    outstanding_bytes.push_back(r.outstanding_bytes);
    cwnd_bytes.push_back(r.cwnd_bytes);
    gcc_state.push_back(static_cast<std::uint8_t>(r.gcc_state));
    delay_slope.push_back(r.delay_slope);
    concealed_ratio.push_back(r.concealed_ratio);
    frozen.push_back(r.frozen ? 1 : 0);
  }
  template <typename Self>
  static auto Tie(Self& s) {
    return std::tie(s.time, s.inbound_fps, s.outbound_fps,
                    s.outbound_resolution, s.jitter_buffer_ms,
                    s.target_bitrate_bps, s.pushback_bitrate_bps,
                    s.outstanding_bytes, s.cwnd_bytes, s.gcc_state,
                    s.delay_slope, s.concealed_ratio, s.frozen);
  }
};

}  // namespace domino::telemetry
