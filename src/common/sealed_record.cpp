#include "common/sealed_record.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "common/parse.h"

namespace domino {

namespace {

constexpr std::string_view kChecksumKey = "checksum ";

}  // namespace

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Seal(std::string body) {
  const std::string digest = Hex64(Fnv1a64(body));
  body.append(kChecksumKey).append(digest).push_back('\n');
  return body;
}

bool Unseal(std::string_view text, std::string_view header,
            std::string_view* body, std::string* error) {
  auto fail = [&](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const std::size_t mark = text.rfind(kChecksumKey);
  if (mark == std::string_view::npos ||
      (mark != 0 && text[mark - 1] != '\n')) {
    return fail("missing checksum line");
  }
  const std::string_view sealed = text.substr(0, mark);
  const std::string digest = Hex64(Fnv1a64(sealed));
  const std::string_view line = text.substr(mark + kChecksumKey.size());
  if (line.substr(0, digest.size()) != digest) {
    return fail("checksum mismatch (torn or corrupted write)");
  }
  // Bytes after the checksum line are outside the digest and would
  // otherwise go unnoticed.
  if (line.size() != digest.size() + 1 || line.back() != '\n') {
    return fail("trailing bytes after checksum line");
  }
  if (sealed.size() <= header.size() ||
      sealed.substr(0, header.size()) != header ||
      sealed[header.size()] != '\n') {
    if (error != nullptr) {
      *error = "bad or unsupported version header (want '" +
               std::string(header) + "')";
    }
    return false;
  }
  *body = sealed.substr(header.size() + 1);
  return true;
}

bool NextLine(std::string_view* text, std::string_view* line) {
  if (text->empty()) return false;
  const std::size_t nl = text->find('\n');
  *line = text->substr(0, nl);
  text->remove_prefix(nl == std::string_view::npos ? text->size() : nl + 1);
  return true;
}

RecordLine::RecordLine(std::string_view line) {
  const std::size_t sp = line.find(' ');
  key_ = line.substr(0, sp);
  if (sp != std::string_view::npos) rest_ = line.substr(sp + 1);
  fields_ = rest_;
}

std::string_view RecordLine::NextField() {
  const std::size_t begin = fields_.find_first_not_of(' ');
  if (begin == std::string_view::npos) {
    fields_ = {};
    return {};
  }
  fields_.remove_prefix(begin);
  const std::size_t end = fields_.find(' ');
  const std::string_view field = fields_.substr(0, end);
  fields_.remove_prefix(field.size());
  return field;
}

std::int64_t RecordLine::I() {
  std::int64_t v = 0;
  if (!ParseInt64(NextField(), v)) {
    ok_ = false;
    v = 0;
  }
  return v;
}

std::uint64_t RecordLine::U() {
  std::uint64_t v = 0;
  if (!ParseUint64(NextField(), v)) {
    ok_ = false;
    v = 0;
  }
  return v;
}

FileRead ReadFileBounded(const std::string& path, std::uint64_t cap,
                         std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return FileRead::kMissing;
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  if (size < 0) return FileRead::kError;
  if (static_cast<std::uint64_t>(size) > cap) return FileRead::kTooLarge;
  f.seekg(0);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  if (!f.read(bytes.data(), size)) return FileRead::kError;
  *out = std::move(bytes);
  return FileRead::kOk;
}

}  // namespace domino
