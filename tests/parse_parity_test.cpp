// Fast-path parity for common/parse.h.
//
//  * LineScanner ≡ BoundedGetline: every call returns the same LineRead
//    (got, hit_eof, truncated, raw_len) and the same buffered bytes as
//    BoundedGetline over a stream holding exactly the scanned range, for
//    files larger than one 64 KiB block: lines and "\r\n" pairs that end
//    on or straddle a block edge, over-long lines spanning three blocks, a
//    final line with no newline, ranges that start mid-line, and the
//    empty range.
//  * ParseInt64's inline digit path ≡ the strtoll implementation it
//    replaced (kept below as the reference): same accept/reject decision,
//    same value, `out` untouched on rejection.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parse.h"
#include "test_scratch.h"

namespace domino {
namespace {

using testing_scratch::FreshDir;

constexpr std::size_t kBlock = LineScanner::kBlockBytes;

struct Step {
  LineRead r;
  std::string line;
};

std::vector<Step> ViaGetline(const std::string& bytes, std::size_t max) {
  std::istringstream is(bytes);
  std::vector<Step> out;
  for (;;) {
    Step s;
    s.r = BoundedGetline(is, s.line, max);
    out.push_back(s);
    if (!s.r.got) return out;
  }
}

/// Scans [begin, end) of `path` to the first call that gets no line.
std::vector<Step> ViaScanner(const std::string& path, std::size_t begin,
                             std::size_t end, std::size_t max) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  EXPECT_GE(fd, 0) << path;
  LineScanner scanner;
  scanner.Reset(fd, begin, end);
  std::vector<Step> out;
  for (;;) {
    Step s;
    s.r = scanner.Next(s.line, max);
    out.push_back(s);
    if (!s.r.got) break;
  }
  ::close(fd);
  return out;
}

void ExpectSameSteps(const std::vector<Step>& got,
                     const std::vector<Step>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].r.got, want[i].r.got) << what << " line " << i;
    EXPECT_EQ(got[i].r.hit_eof, want[i].r.hit_eof) << what << " line " << i;
    EXPECT_EQ(got[i].r.truncated, want[i].r.truncated)
        << what << " line " << i;
    EXPECT_EQ(got[i].r.raw_len, want[i].r.raw_len) << what << " line " << i;
    EXPECT_EQ(got[i].line, want[i].line) << what << " line " << i;
  }
}

std::string WriteFile(const std::string& name, const std::string& bytes) {
  const std::string path = FreshDir("scanner") + "/" + name;
  std::ofstream(path, std::ios::binary) << bytes;
  return path;
}

/// Scanner ≡ BoundedGetline over [begin, end) of `bytes`, for each cap.
void ExpectParity(const std::string& bytes, std::size_t begin,
                  std::size_t end, const std::vector<std::size_t>& maxes,
                  const std::string& what) {
  const std::string path = WriteFile("f.csv", bytes);
  for (const std::size_t max : maxes) {
    ExpectSameSteps(ViaScanner(path, begin, end, max),
                    ViaGetline(bytes.substr(begin, end - begin), max),
                    what + " max=" + std::to_string(max));
  }
}

void ExpectParity(const std::string& bytes, const std::string& what) {
  ExpectParity(bytes, 0, bytes.size(), {0, 1, 80, 4096, 1 << 20}, what);
}

std::string Row(std::size_t len, char fill) { return std::string(len, fill); }

TEST(LineScannerTest, LineEndingOnTheBlockEdge) {
  // The '\n' is the last byte of block 1 (the line ends at byte 65,536).
  ExpectParity(Row(kBlock - 1, 'a') + "\n" + "next\n", "newline at 65535");
  // The line fills block 1; its '\n' is the first byte of block 2.
  ExpectParity(Row(kBlock, 'a') + "\n" + "next\n", "newline at 65536");
  // A short line whose '\n' is block 1's last byte, after earlier lines.
  ExpectParity("h\n" + Row(kBlock - 3, 'b') + "\n" + Row(kBlock, 'c') +
                   "\n",
               "two full blocks");
}

TEST(LineScannerTest, CrLfSplitAcrossTheBlockEdge) {
  // '\r' is byte 65,535 (block 1's last), '\n' byte 65,536 (block 2's
  // first).
  const std::string bytes =
      "hdr\r\n" + Row(kBlock - 6, 'x') + "\r\n" + "tail\r\n";
  ASSERT_EQ(bytes[kBlock - 1], '\r');
  ASSERT_EQ(bytes[kBlock], '\n');
  ExpectParity(bytes, "crlf on the edge");
  const std::vector<Step> steps =
      ViaScanner(WriteFile("crlf.csv", bytes), 0, bytes.size(), 1 << 20);
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(steps[1].line.back(), '\r');  // kept, as std::getline does
  EXPECT_EQ(steps[1].r.raw_len, kBlock - 5);
}

TEST(LineScannerTest, OverlongLineSpanningThreeBlocksIsTruncatedExactly) {
  const std::size_t len = 2 * kBlock + 1000;  // blocks 1, 2 and 3
  const std::string bytes = "a,b\n" + Row(len, '9') + "\n" + "c,d\n";
  ExpectParity(bytes, "three-block line");
  const std::vector<Step> steps =
      ViaScanner(WriteFile("long.csv", bytes), 0, bytes.size(), 4096);
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_TRUE(steps[1].r.truncated);
  EXPECT_EQ(steps[1].r.raw_len, len);
  EXPECT_EQ(steps[1].line.size(), 4096u);
  EXPECT_EQ(steps[2].line, "c,d");
}

TEST(LineScannerTest, LastLineWithoutNewlineEndsAtTheRangeEnd) {
  const std::string bytes = Row(kBlock + 10, 'r') + "\n" + "partial";
  ExpectParity(bytes, "no final newline");
  const std::vector<Step> steps =
      ViaScanner(WriteFile("partial.csv", bytes), 0, bytes.size(), 80);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_TRUE(steps[1].r.got);
  EXPECT_TRUE(steps[1].r.hit_eof);
  EXPECT_EQ(steps[1].line, "partial");
  // A range that ends mid-line treats the range end as EOF.
  ExpectParity(bytes, 0, kBlock + 5, {80, 1 << 20}, "range ends mid-line");
}

TEST(LineScannerTest, EmptyRangeGetsNoLine) {
  const std::string bytes = "abc\ndef\n";
  for (const std::size_t at : {std::size_t{0}, std::size_t{4}, bytes.size()}) {
    const std::vector<Step> steps =
        ViaScanner(WriteFile("empty.csv", bytes), at, at, 80);
    ASSERT_EQ(steps.size(), 1u);
    EXPECT_FALSE(steps[0].r.got);
    EXPECT_TRUE(steps[0].r.hit_eof);
    EXPECT_EQ(steps[0].r.raw_len, 0u);
  }
  ExpectParity("", "empty file");
}

TEST(LineScannerTest, BytesAppendedAfterResetAreNotRead) {
  const std::string path = WriteFile("grow.csv", "one\ntw");
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  LineScanner scanner;
  scanner.Reset(fd, 0, 6);
  std::ofstream(path, std::ios::binary | std::ios::app) << "o\nthree\n";
  std::string line;
  EXPECT_EQ(scanner.Next(line, 80).raw_len, 3u);
  const LineRead r = scanner.Next(line, 80);
  EXPECT_TRUE(r.got);
  EXPECT_TRUE(r.hit_eof);  // the straddling line stops at the range end
  EXPECT_EQ(line, "tw");
  EXPECT_FALSE(scanner.Next(line, 80).got);
  ::close(fd);
}

TEST(LineScannerTest, RandomFilesAndRangesMatchBoundedGetline) {
  std::mt19937_64 rng(17);
  for (int file = 0; file < 6; ++file) {
    std::string bytes;
    const std::size_t target = 3 * kBlock + rng() % kBlock;
    while (bytes.size() < target) {
      // Mostly CSV-sized lines, sometimes long ones, blank ones and CRs.
      const std::size_t pick = rng() % 100;
      const std::size_t len = pick < 80   ? rng() % 64
                              : pick < 95 ? rng() % 5000
                                          : rng() % (2 * kBlock);
      std::string line(len, 'v');
      for (char& c : line) c = static_cast<char>('0' + rng() % 10);
      if (rng() % 4 == 0) line += '\r';
      bytes += line;
      bytes += '\n';
    }
    if (rng() % 2 == 0) bytes += "no newline";
    const std::size_t begin = rng() % bytes.size();
    const std::size_t end = begin + rng() % (bytes.size() - begin + 1);
    const std::string what = "file " + std::to_string(file);
    ExpectParity(bytes, what);
    ExpectParity(bytes, begin, end, {0, 33, 4096, 1 << 20},
                 what + " [" + std::to_string(begin) + ", " +
                     std::to_string(end) + ")");
  }
}

// --- ParseInt64 --------------------------------------------------------------

/// ParseInt64 as it was before the digit fast path: copy to a NUL-terminated
/// buffer and strtoll, rejecting leading whitespace and partial parses.
bool ReferenceParseInt64(std::string_view s, std::int64_t& out) {
  constexpr std::size_t kMaxNumberChars = 64;
  if (s.empty() || s.size() > kMaxNumberChars) return false;
  char buf[kMaxNumberChars + 1];
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  if (buf[0] == ' ' || buf[0] == '\t') return false;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf, &end, 10);
  if (errno != 0 || end != buf + s.size()) return false;
  out = v;
  return true;
}

void ExpectInt64Parity(const std::string& s) {
  constexpr std::int64_t kSentinel = 0x5a5a5a5a;
  std::int64_t want = kSentinel;
  std::int64_t got = kSentinel;
  const bool want_ok = ReferenceParseInt64(s, want);
  EXPECT_EQ(ParseInt64(s, got), want_ok) << "'" << s << "'";
  EXPECT_EQ(got, want) << "'" << s << "'";
}

TEST(ParseInt64ParityTest, EveryShortStringOverDigitsSignsSpaceAndX) {
  const std::string alphabet = "09-+ x";
  std::vector<std::string> level = {""};
  for (int len = 0; len <= 3; ++len) {
    std::vector<std::string> next;
    for (const std::string& s : level) {
      ExpectInt64Parity(s);
      for (const char c : alphabet) next.push_back(s + c);
    }
    level = std::move(next);
  }
}

TEST(ParseInt64ParityTest, LongValuesBoundsLeadingZerosAndNegativeZero) {
  std::vector<std::string> inputs = {
      "9223372036854775807",  "9223372036854775806",
      "9223372036854775808",  "-9223372036854775808",
      "-9223372036854775807", "-9223372036854775809",
      "+9223372036854775807", "-0",
      "+0",                   "0",
      "00",                   "-00",
      "000000000000000000001", "-0000000000000000000042",
      std::string(30, '0'),   "0000000000000000009223372036854775807",
      "999999999999999999",   "-999999999999999999",
      "1000000000000000000",  "-1000000000000000000",
  };
  std::mt19937_64 rng(5);
  for (int len = 17; len <= 20; ++len) {
    inputs.push_back(std::string(len, '9'));
    std::string power(len, '0');
    power[0] = '1';
    inputs.push_back(power);
    for (int k = 0; k < 50; ++k) {
      std::string digits;
      for (int i = 0; i < len; ++i) {
        digits += static_cast<char>('0' + rng() % 10);
      }
      for (const char* sign : {"", "-", "+"}) {
        inputs.push_back(std::string(sign).append(digits));
      }
    }
  }
  for (const std::string& s : inputs) ExpectInt64Parity(s);
}

}  // namespace
}  // namespace domino
