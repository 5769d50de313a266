#include "telemetry/binfmt.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/diskfault.h"
#include "common/time.h"
#include "telemetry/columns.h"
#include "telemetry/dataset.h"

#if defined(__unix__) || defined(__APPLE__)
#define DOMINO_BINFMT_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace domino::telemetry {

namespace {

constexpr char kMagic[8] = {'D', 'O', 'M', 'T', 'E', 'L', 'B', '1'};
constexpr std::uint32_t kVersion = 1;
/// Written on a little-endian host this reads back as itself; a
/// foreign-endian file shows the byte-swapped value and is rejected.
constexpr std::uint32_t kEndianTag = 0x0A0B0C0D;
constexpr std::size_t kAlign = 8;
/// Machine-written names are short; anything longer is corruption.
constexpr std::uint32_t kMaxCellNameBytes = 4096;

enum class ElemType : std::uint32_t {
  kU8 = 1,
  kI32 = 2,
  kU32 = 3,
  kU64 = 4,
  kTime = 5,  ///< int64 microseconds (Time's wire representation).
  kF64 = 6,
};

template <typename T>
struct ElemTypeOf;
template <>
struct ElemTypeOf<std::uint8_t> {
  static constexpr ElemType value = ElemType::kU8;
};
template <>
struct ElemTypeOf<std::int32_t> {
  static constexpr ElemType value = ElemType::kI32;
};
template <>
struct ElemTypeOf<std::uint32_t> {
  static constexpr ElemType value = ElemType::kU32;
};
template <>
struct ElemTypeOf<std::uint64_t> {
  static constexpr ElemType value = ElemType::kU64;
};
template <>
struct ElemTypeOf<Time> {
  static constexpr ElemType value = ElemType::kTime;
};
template <>
struct ElemTypeOf<double> {
  static constexpr ElemType value = ElemType::kF64;
};

static_assert(sizeof(Time) == 8 && std::is_trivially_copyable_v<Time>,
              "Time must be an 8-byte trivially copyable wrapper to be "
              "memcpy'd to and reinterpreted from the wire");

// Every member naturally aligned, so the struct is its own wire image.
struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian_tag;
  std::int64_t begin_us;
  std::int64_t end_us;
  std::uint32_t flags;  ///< bit 0: is_private_cell.
  std::uint32_t cell_len;
  std::uint32_t rnti_count;
  std::uint32_t block_count;
};
static_assert(sizeof(FileHeader) == 48);

struct BlockHeader {
  std::uint32_t stream_id;
  std::uint32_t column_id;
  std::uint32_t elem_type;
  std::uint32_t elem_size;
  std::uint64_t row_count;
  std::uint32_t payload_crc;
  std::uint32_t header_crc;  ///< CRC-32 of the 28 bytes above.
};
static_assert(sizeof(BlockHeader) == 32);
constexpr std::size_t kBlockCrcBytes = offsetof(BlockHeader, header_crc);

constexpr std::size_t RoundUp(std::size_t n) {
  return (n + kAlign - 1) & ~(kAlign - 1);
}

template <typename Cols>
std::uint32_t ColumnCount(const Cols& cols) {
  std::uint32_t n = 0;
  cols.ForEachColumn([&n](const auto&) { ++n; });
  return n;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void AppendBytes(std::string& out, const void* p, std::size_t n) {
  out.append(static_cast<const char*>(p), n);
}

void PadTo8(std::string& out) {
  out.append(RoundUp(out.size()) - out.size(), '\0');
}

template <typename T>
void AppendBlock(std::string& out, std::uint32_t stream_id,
                 std::uint32_t column_id, const Column<T>& c) {
  BlockHeader b{};
  b.stream_id = stream_id;
  b.column_id = column_id;
  b.elem_type = static_cast<std::uint32_t>(ElemTypeOf<T>::value);
  b.elem_size = sizeof(T);
  b.row_count = c.size();
  b.payload_crc = Crc32(c.data(), c.size() * sizeof(T));
  b.header_crc = Crc32(&b, kBlockCrcBytes);
  AppendBytes(out, &b, sizeof(b));
  AppendBytes(out, c.data(), c.size() * sizeof(T));
  PadTo8(out);
}

template <typename Cols>
void AppendStreamBlocks(std::string& out, StreamId id, const Cols& cols) {
  std::uint32_t col = 0;
  cols.ForEachColumn([&](const auto& c) {
    AppendBlock(out, static_cast<std::uint32_t>(id), col++, c);
  });
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

bool Fail(ReadStats& stats, TelemetryErrorKind kind, std::string msg) {
  stats.Add(kind, 0, std::move(msg));
  ++stats.rows_dropped;
  return false;
}

/// Bounded forward cursor over the image; offsets stay 8-aligned because
/// every section is padded to 8 on the wire.
struct Cursor {
  const std::byte* base;
  std::size_t size;
  std::size_t off = 0;

  [[nodiscard]] std::size_t remaining() const { return size - off; }
  /// Claims `n` bytes plus padding to 8; null if they don't fit or the
  /// padding is non-zero (the CRCs don't cover padding, so requiring zero
  /// keeps every byte of the file accountable to some check).
  const std::byte* Take(std::size_t n) {
    if (n > remaining() || RoundUp(n) > remaining()) return nullptr;
    const std::byte* p = base + off;
    for (std::size_t i = n; i < RoundUp(n); ++i) {
      if (p[i] != std::byte{0}) return nullptr;
    }
    off += RoundUp(n);
    return p;
  }
};

template <typename T>
bool AlignedFor(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % alignof(T) == 0;
}

/// Binds `n` wire elements at `p` to the column: zero-copy borrow when a
/// keepalive pins the buffer and the payload is aligned, else a copy.
template <typename T>
void BindColumn(Column<T>& c, const std::byte* p, std::size_t n,
                const std::shared_ptr<const void>& keepalive) {
  if (keepalive != nullptr && AlignedFor<T>(p)) {
    c.Adopt(keepalive, reinterpret_cast<const T*>(p), n);
    return;
  }
  std::vector<T> v(n);
  std::memcpy(v.data(), p, n * sizeof(T));
  c.Assign(std::move(v));
}

template <typename T>
bool ReadBlock(Cursor& cur, std::uint32_t stream_id, std::uint32_t column_id,
               Column<T>& c, std::optional<std::uint64_t>& stream_rows,
               const std::shared_ptr<const void>& keepalive, ReadStats& stats,
               const InputLimits& limits) {
  const std::byte* hp = cur.Take(sizeof(BlockHeader));
  if (hp == nullptr) {
    return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                "truncated block header");
  }
  BlockHeader b;
  std::memcpy(&b, hp, sizeof(b));
  if (b.header_crc != Crc32(&b, kBlockCrcBytes)) {
    return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                "block header CRC mismatch");
  }
  if (b.stream_id != stream_id || b.column_id != column_id ||
      b.elem_type != static_cast<std::uint32_t>(ElemTypeOf<T>::value) ||
      b.elem_size != sizeof(T)) {
    return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                "block does not match the version-1 schema");
  }
  if (b.row_count > limits.max_records) {
    return Fail(stats, TelemetryErrorKind::kLimitExceeded,
                "binary stream exceeds the record budget");
  }
  if (stream_rows.has_value() && b.row_count != *stream_rows) {
    return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                "columns of one stream disagree on the row count");
  }
  const bool first_column = !stream_rows.has_value();
  stream_rows = b.row_count;
  const auto n = static_cast<std::size_t>(b.row_count);
  if (n > cur.remaining() / sizeof(T)) {  // Overflow-safe size check.
    return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                "truncated column payload");
  }
  const std::byte* payload = cur.Take(n * sizeof(T));
  if (payload == nullptr) {
    return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                "truncated column payload");
  }
  if (b.payload_crc != Crc32(payload, n * sizeof(T))) {
    return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                "column payload CRC mismatch");
  }
  BindColumn(c, payload, n, keepalive);
  if (first_column) {
    // Rows are a per-stream figure; all columns carry the same count
    // (checked above), so only the first one accumulates it.
    stats.rows_total += n;
    stats.rows_kept += n;
  }
  return true;
}

template <typename Cols>
bool ReadStreamBlocks(Cursor& cur, StreamId id, Cols& cols,
                      const std::shared_ptr<const void>& keepalive,
                      ReadStats& stats, const InputLimits& limits) {
  bool ok = true;
  std::uint32_t col = 0;
  std::optional<std::uint64_t> stream_rows;
  cols.ForEachColumn([&](auto& c) {
    if (!ok) return;
    ok = ReadBlock(cur, static_cast<std::uint32_t>(id), col++, c, stream_rows,
                   keepalive, stats, limits);
  });
  return ok;
}

}  // namespace

std::string SerializeDatasetBinary(const SessionDataset& ds) {
  // Enforce the reader's bounds at write time: a successful serialization
  // must load back under default InputLimits, so an over-bounds dataset
  // fails the save here instead of producing an unreadable .dtb.
  const std::size_t row_cap = InputLimits{}.max_records;
  if (ds.cell_name.size() > kMaxCellNameBytes || ds.ue_rnti.size() > row_cap ||
      ds.dci.size() > row_cap || ds.gnb_log.size() > row_cap ||
      ds.packets.size() > row_cap || ds.stats[kUeClient].size() > row_cap ||
      ds.stats[kRemoteClient].size() > row_cap) {
    return {};
  }
  std::string out;
  FileHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kVersion;
  h.endian_tag = kEndianTag;
  h.begin_us = ds.begin.micros();
  h.end_us = ds.end.micros();
  h.flags = ds.is_private_cell ? 1u : 0u;
  h.cell_len = static_cast<std::uint32_t>(ds.cell_name.size());
  h.rnti_count = static_cast<std::uint32_t>(ds.ue_rnti.size());
  h.block_count = ColumnCount(ds.dci) + ColumnCount(ds.gnb_log) +
                  ColumnCount(ds.packets) + ColumnCount(ds.stats[kUeClient]) +
                  ColumnCount(ds.stats[kRemoteClient]);
  AppendBytes(out, &h, sizeof(h));
  AppendBytes(out, ds.cell_name.data(), ds.cell_name.size());
  PadTo8(out);
  AppendBytes(out, ds.ue_rnti.times().data(), ds.ue_rnti.size() * 8);
  AppendBytes(out, ds.ue_rnti.values().data(), ds.ue_rnti.size() * 8);
  const std::uint32_t header_crc = Crc32(out.data(), out.size());
  AppendBytes(out, &header_crc, sizeof(header_crc));
  out.append(4, '\0');  // Pad back to 8; must read back as zero.

  AppendStreamBlocks(out, StreamId::kDci, ds.dci);
  AppendStreamBlocks(out, StreamId::kGnbLog, ds.gnb_log);
  AppendStreamBlocks(out, StreamId::kPackets, ds.packets);
  AppendStreamBlocks(out, StreamId::kStatsUe, ds.stats[kUeClient]);
  AppendStreamBlocks(out, StreamId::kStatsRemote, ds.stats[kRemoteClient]);
  return out;
}

bool WriteDatasetBinary(std::ostream& os, const SessionDataset& ds) {
  const std::string image = SerializeDatasetBinary(ds);
  if (image.empty()) return false;  // Dataset exceeds the wire-format bounds.
  os.write(image.data(), static_cast<std::streamsize>(image.size()));
  return os.good();
}

bool SaveDatasetBinary(const SessionDataset& ds, const std::string& dir) {
  // Serialize before touching the destination: after ReadDatasetBinary the
  // dataset's columns may zero-copy borrow the mmap of the very file this
  // save replaces (an in-place re-encode), so truncating it first would
  // SIGBUS mid-write and destroy the original. The staged write plus rename
  // also makes the save atomic: a crash never leaves a half-written
  // telemetry.dtb behind.
  const std::string image = SerializeDatasetBinary(ds);
  if (image.empty()) return false;  // Dataset exceeds the wire-format bounds.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return AtomicWriteFile(
      (std::filesystem::path(dir) / kBinaryDatasetFile).string(), image,
      /*fsync_file=*/false, /*fault=*/nullptr, /*error=*/nullptr);
}

bool ParseDatasetBinary(const std::byte* data, std::size_t size,
                        std::shared_ptr<const void> keepalive,
                        SessionDataset& ds, ReadStats& stats,
                        const InputLimits& limits) {
  ds = SessionDataset{};
  Cursor cur{data, size};

  const std::byte* hp = cur.Take(sizeof(FileHeader));
  if (hp == nullptr) {
    return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                "file too small for a DTB header");
  }
  FileHeader h;
  std::memcpy(&h, hp, sizeof(h));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return Fail(stats, TelemetryErrorKind::kCorruptBinary, "bad magic");
  }
  if (h.endian_tag != kEndianTag) {
    return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                "foreign byte order");
  }
  if (h.version != kVersion) {
    return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                "unsupported DTB version");
  }
  if (h.cell_len > kMaxCellNameBytes) {
    return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                "implausible cell-name length");
  }
  if (h.rnti_count > limits.max_records) {
    return Fail(stats, TelemetryErrorKind::kLimitExceeded,
                "RNTI timeline exceeds the record budget");
  }
  const std::uint32_t expected_blocks =
      ColumnCount(ds.dci) + ColumnCount(ds.gnb_log) + ColumnCount(ds.packets) +
      ColumnCount(ds.stats[kUeClient]) + ColumnCount(ds.stats[kRemoteClient]);
  if (h.block_count != expected_blocks) {
    return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                "block count does not match the version-1 schema");
  }

  const std::size_t rnti_bytes = static_cast<std::size_t>(h.rnti_count) * 8;
  const std::byte* cell = cur.Take(h.cell_len);
  const std::byte* rnti_times = cur.Take(rnti_bytes);
  const std::byte* rnti_values = cur.Take(rnti_bytes);
  const std::byte* crcp = cur.Take(8);
  if (cell == nullptr || rnti_times == nullptr || rnti_values == nullptr ||
      crcp == nullptr) {
    return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                "truncated header sections");
  }
  std::uint32_t stored_crc = 0;
  std::uint32_t stored_pad = 0;
  std::memcpy(&stored_crc, crcp, 4);
  std::memcpy(&stored_pad, crcp + 4, 4);
  const std::size_t crc_off =
      static_cast<std::size_t>(crcp - data);  // Bytes the header CRC covers.
  if (stored_crc != Crc32(data, crc_off) || stored_pad != 0) {
    ds = SessionDataset{};
    return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                "header CRC mismatch");
  }

  ds.cell_name.assign(reinterpret_cast<const char*>(cell), h.cell_len);
  ds.is_private_cell = (h.flags & 1u) != 0;
  ds.begin = Time{h.begin_us};
  ds.end = Time{h.end_us};

  {
    // The RNTI timeline must satisfy the TimeSeries ordering invariant;
    // enforce it here rather than assert on attacker-controlled bytes.
    std::vector<std::int64_t> t_us(h.rnti_count);
    std::memcpy(t_us.data(), rnti_times, rnti_bytes);
    for (std::size_t i = 1; i < t_us.size(); ++i) {
      if (t_us[i] < t_us[i - 1]) {
        ds = SessionDataset{};
        return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                    "RNTI timeline is not time-ordered");
      }
    }
    if (keepalive != nullptr && AlignedFor<Time>(rnti_times) &&
        AlignedFor<double>(rnti_values)) {
      ds.ue_rnti.AdoptColumns(keepalive,
                              reinterpret_cast<const Time*>(rnti_times),
                              reinterpret_cast<const double*>(rnti_values),
                              h.rnti_count);
    } else {
      std::vector<Time> t(h.rnti_count);
      std::vector<double> v(h.rnti_count);
      std::memcpy(t.data(), rnti_times, rnti_bytes);
      std::memcpy(v.data(), rnti_values, rnti_bytes);
      ds.ue_rnti.AssignColumns(std::move(t), std::move(v));
    }
  }

  const bool streams_ok =
      ReadStreamBlocks(cur, StreamId::kDci, ds.dci, keepalive, stats, limits) &&
      ReadStreamBlocks(cur, StreamId::kGnbLog, ds.gnb_log, keepalive, stats,
                       limits) &&
      ReadStreamBlocks(cur, StreamId::kPackets, ds.packets, keepalive, stats,
                       limits) &&
      ReadStreamBlocks(cur, StreamId::kStatsUe, ds.stats[kUeClient], keepalive,
                       stats, limits) &&
      ReadStreamBlocks(cur, StreamId::kStatsRemote, ds.stats[kRemoteClient],
                       keepalive, stats, limits);
  if (!streams_ok) {
    ds = SessionDataset{};
    return false;
  }
  if (cur.remaining() != 0) {
    ds = SessionDataset{};
    return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                "trailing bytes after the last block");
  }
  return true;
}

bool ReadDatasetBinary(const std::string& path, SessionDataset& ds,
                       ReadStats& stats, const InputLimits& limits) {
#if DOMINO_BINFMT_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Fail(stats, TelemetryErrorKind::kMissingFile,
                path + ": cannot open");
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Fail(stats, TelemetryErrorKind::kMissingFile, path + ": stat");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Fail(stats, TelemetryErrorKind::kCorruptBinary,
                path + ": empty file");
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (addr == MAP_FAILED) {
    return Fail(stats, TelemetryErrorKind::kMissingFile, path + ": mmap");
  }
  std::shared_ptr<const void> keepalive(
      addr, [size](const void* p) { ::munmap(const_cast<void*>(p), size); });
  return ParseDatasetBinary(static_cast<const std::byte*>(addr), size,
                            keepalive, ds, stats, limits);
#else
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return Fail(stats, TelemetryErrorKind::kMissingFile,
                path + ": cannot open");
  }
  auto buf = std::make_shared<std::vector<std::byte>>();
  is.seekg(0, std::ios::end);
  const auto len = is.tellg();
  is.seekg(0, std::ios::beg);
  buf->resize(len > 0 ? static_cast<std::size_t>(len) : 0);
  is.read(reinterpret_cast<char*>(buf->data()),
          static_cast<std::streamsize>(buf->size()));
  if (!is) {
    return Fail(stats, TelemetryErrorKind::kMissingFile, path + ": read");
  }
  const std::byte* data = buf->data();
  const std::size_t size = buf->size();
  return ParseDatasetBinary(data, size, std::move(buf), ds, stats, limits);
#endif
}

}  // namespace domino::telemetry
