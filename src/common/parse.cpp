#include "common/parse.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <istream>

namespace domino {

namespace {

/// The strto* family needs a NUL-terminated buffer; views into larger
/// buffers are copied at most once, and numeric tokens are short anyway.
/// Over-long tokens cannot be numbers we accept — reject before copying.
constexpr std::size_t kMaxNumberChars = 64;

bool TooLong(std::string_view s) {
  return s.empty() || s.size() > kMaxNumberChars;
}

}  // namespace

bool ParseInt64(std::string_view s, std::int64_t& out) {
  // Fast path: an optional '-' and 1-18 ASCII digits cannot overflow, so
  // the value is computed inline. Everything else (a '+', 19+ digits,
  // garbage) takes the strtoll path below, which decides it as before.
  const bool neg = !s.empty() && s[0] == '-';
  const std::string_view digits = s.substr(neg ? 1 : 0);
  if (!digits.empty() && digits.size() <= 18) {
    std::int64_t v = 0;
    std::size_t i = 0;
    for (; i < digits.size(); ++i) {
      const unsigned d = static_cast<unsigned char>(digits[i]) - '0';
      if (d > 9) break;
      v = v * 10 + static_cast<std::int64_t>(d);
    }
    if (i == digits.size()) {
      out = neg ? -v : v;
      return true;
    }
  }
  if (TooLong(s)) return false;
  char buf[kMaxNumberChars + 1];
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  // strtoll skips leading whitespace; strict parsing must not.
  if (buf[0] == ' ' || buf[0] == '\t') return false;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf, &end, 10);
  if (errno != 0 || end != buf + s.size()) return false;
  out = v;
  return true;
}

bool ParseUint64(std::string_view s, std::uint64_t& out) {
  if (TooLong(s)) return false;
  // strtoull accepts a leading '-' (wrapping modularly); forbid any sign.
  if (s[0] == '-' || s[0] == '+' || s[0] == ' ' || s[0] == '\t') {
    return false;
  }
  char buf[kMaxNumberChars + 1];
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(buf, &end, 10);
  if (errno != 0 || end != buf + s.size()) return false;
  out = v;
  return true;
}

bool ParseFinite(std::string_view s, double& out) {
  if (TooLong(s)) return false;
  char buf[kMaxNumberChars + 1];
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  if (buf[0] == ' ' || buf[0] == '\t') return false;
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(buf, &end);
  if (errno != 0 || end != buf + s.size()) return false;
  if (!std::isfinite(v)) return false;  // rejects "inf"/"nan" spellings too
  out = v;
  return true;
}

bool ParseInt64In(std::string_view s, std::int64_t lo, std::int64_t hi,
                  std::int64_t& out) {
  std::int64_t v = 0;
  if (!ParseInt64(s, v) || v < lo || v > hi) return false;
  out = v;
  return true;
}

bool ParseFiniteIn(std::string_view s, double lo, double hi, double& out) {
  double v = 0;
  if (!ParseFinite(s, v) || v < lo || v > hi) return false;
  out = v;
  return true;
}

LineRead BoundedGetline(std::istream& is, std::string& line,
                        std::size_t max) {
  line.clear();
  LineRead r;
  std::streambuf* sb = is.rdbuf();
  if (sb == nullptr) {
    is.setstate(std::ios::failbit);
    return r;
  }
  for (;;) {
    const int ch = sb->sbumpc();
    if (ch == std::char_traits<char>::eof()) {
      is.setstate(r.raw_len == 0 && !r.got ? (std::ios::eofbit |
                                              std::ios::failbit)
                                           : std::ios::eofbit);
      r.hit_eof = true;
      r.got = r.got || r.raw_len > 0;
      return r;
    }
    r.got = true;
    if (ch == '\n') return r;
    ++r.raw_len;
    if (line.size() < max) {
      line.push_back(static_cast<char>(ch));
    } else {
      r.truncated = true;  // keep consuming to '\n' without buffering
    }
  }
}

void LineScanner::Reset(int fd, std::size_t begin, std::size_t end) {
  fd_ = fd;
  next_ = begin;
  end_ = end;
  pos_ = 0;
  len_ = 0;
}

bool LineScanner::Fill() {
  if (next_ >= end_) return false;
  if (buf_.empty()) buf_.resize(kBlockBytes);
  const std::size_t want = std::min(kBlockBytes, end_ - next_);
  ssize_t n = 0;
  do {
    n = ::pread(fd_, buf_.data(), want, static_cast<off_t>(next_));
  } while (n < 0 && errno == EINTR);
  if (n <= 0) {
    end_ = next_;  // Error or shrunk file: the range ends here.
    return false;
  }
  pos_ = 0;
  len_ = static_cast<std::size_t>(n);
  next_ += len_;
  return true;
}

LineRead LineScanner::Next(std::string& line, std::size_t max) {
  line.clear();
  LineRead r;
  for (;;) {
    if (pos_ == len_ && !Fill()) {
      r.hit_eof = true;
      r.got = r.raw_len > 0;
      return r;
    }
    const char* p = buf_.data() + pos_;
    const std::size_t avail = len_ - pos_;
    const auto* nl = static_cast<const char*>(std::memchr(p, '\n', avail));
    const std::size_t n =
        nl != nullptr ? static_cast<std::size_t>(nl - p) : avail;
    const std::size_t room = max - line.size();
    if (n > room) r.truncated = true;  // Consume the rest unbuffered.
    line.append(p, std::min(n, room));
    r.raw_len += n;
    pos_ += n;
    if (nl != nullptr) {
      ++pos_;
      r.got = true;
      return r;
    }
  }
}

}  // namespace domino
