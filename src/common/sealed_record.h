// The sealed-record codec shared by every crash-safe state file.
//
// The live checkpoint, the fleet manifest, the shard done marker and the
// lease (with its heartbeats) are all one format: a version header line,
// `key value...` lines, and a trailing `checksum <hex>` line holding the
// FNV-1a 64 digest of every byte above it:
//
//   domino-lease v1
//   owner box-a
//   token 7
//   checksum 0123456789abcdef
//
// Seal() appends the checksum line to a formatted body; Unseal() verifies
// a file's bytes before any field is trusted, in a fixed order (checksum,
// then "the checksum line is the last line", then the header), so a torn
// or hand-edited file is rejected whatever its content. Each record type
// keeps only its own field grammar, read line by line with RecordLine.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace domino {

/// FNV-1a, 64-bit, with offset basis 1469598103934665603 — one digit short
/// of the published 14695981039346656037. Every state file on disk is
/// sealed with this basis, so it stays.
std::uint64_t Fnv1a64(std::string_view bytes);

/// `v` as 16 lowercase hex digits.
std::string Hex64(std::uint64_t v);

/// `body` (header and field lines, each '\n'-terminated) followed by its
/// checksum line.
std::string Seal(std::string body);

/// Verifies a sealed record whose first line must be `header`. On success
/// `*body` views the field lines between the header and the checksum line
/// (inside `text`). On failure returns false with `*error` naming the
/// first problem found, without a record-type prefix.
bool Unseal(std::string_view text, std::string_view header,
            std::string_view* body, std::string* error);

/// Pops the next line (without its '\n') off the front of `*text`; false
/// once `*text` is empty.
bool NextLine(std::string_view* text, std::string_view* line);

/// One `key value...` line of an unsealed body, split at its first space.
/// The typed accessors read the value's space-separated fields in order;
/// a missing or malformed field clears ok() and reads as 0.
class RecordLine {
 public:
  explicit RecordLine(std::string_view line);

  [[nodiscard]] std::string_view key() const { return key_; }
  /// Everything after the key and its separating space (paths, owners and
  /// fingerprints may contain spaces).
  [[nodiscard]] std::string_view rest() const { return rest_; }
  std::int64_t I();
  std::uint64_t U();
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  std::string_view NextField();

  std::string_view key_;
  std::string_view rest_;
  std::string_view fields_;  ///< Not yet read.
  bool ok_ = true;
};

/// Outcome of ReadFileBounded.
enum class FileRead {
  kOk,
  kMissing,   ///< The file cannot be opened.
  kTooLarge,  ///< Larger than the cap; nothing was read.
  kError,     ///< The read failed or came up short.
};

/// Reads the whole of `path` into `*out` unless it is larger than `cap`
/// bytes: a state file far bigger than any writer produces is garbage and
/// must not be read into memory just to fail its checksum.
FileRead ReadFileBounded(const std::string& path, std::uint64_t cap,
                         std::string* out);

}  // namespace domino
