#include "common/diskfault.h"

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string_view>

#include "common/sealed_record.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif
#if defined(_WIN32)
#include <process.h>
#endif

namespace domino {

namespace {

/// Makes a rename into `path`'s directory durable. Best-effort: some
/// filesystems refuse O_DIRECTORY fsync, and by then the target is already
/// valid-or-previous under SIGKILL either way.
void SyncParentDir(const std::string& path) {
#if !defined(_WIN32)
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
#else
  (void)path;
#endif
}

}  // namespace

const std::string& AtomicTempSuffix() {
  // pid alone can collide across boxes on a shared filesystem, so mix in
  // the process start instant. Computed once: one process writes its temp
  // files sequentially, so a single per-process name suffices.
  static const std::string suffix = [] {
#if defined(_WIN32)
    const unsigned long long pid = static_cast<unsigned long long>(_getpid());
#else
    const unsigned long long pid = static_cast<unsigned long long>(::getpid());
#endif
    const unsigned long long words[2] = {
        pid, static_cast<unsigned long long>(
                 std::chrono::steady_clock::now().time_since_epoch().count())};
    const std::uint64_t h = Fnv1a64(
        std::string_view(reinterpret_cast<const char*>(words), sizeof(words)));
    char buf[32];
    std::snprintf(buf, sizeof(buf), ".tmp.%08llx",
                  static_cast<unsigned long long>(h & 0xffffffffULL));
    return std::string(buf);
  }();
  return suffix;
}

bool ParseDiskFaultSpec(const std::string& text, DiskFaultSpec* spec) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos || colon + 1 >= text.size()) return false;
  const std::string kind = text.substr(0, colon);
  const std::string num = text.substr(colon + 1);
  DiskFaultSpec out;
  if (kind == "enospc") {
    out.kind = DiskFaultSpec::Kind::kEnospc;
  } else if (kind == "eio") {
    out.kind = DiskFaultSpec::Kind::kEio;
  } else if (kind == "short") {
    out.kind = DiskFaultSpec::Kind::kShortWrite;
  } else if (kind == "rename") {
    out.kind = DiskFaultSpec::Kind::kRename;
  } else if (kind == "fsync") {
    out.kind = DiskFaultSpec::Kind::kFsync;
  } else {
    return false;
  }
  long n = 0;
  for (char c : num) {
    if (c < '0' || c > '9') return false;
    if (n > 1000000) return false;
    n = n * 10 + (c - '0');
  }
  if (n < 1) return false;
  out.at_write = n;
  *spec = out;
  return true;
}

int DiskFaultInjector::OnWrite(std::size_t payload_bytes,
                               std::size_t* short_cap) {
  ++writes_seen_;
  if (spec_.kind == DiskFaultSpec::Kind::kNone || fired_ ||
      writes_seen_ != spec_.at_write) {
    return 0;
  }
  fired_ = true;
  ++faults_injected_;
  last_fault_kind_ = spec_.kind;
  switch (spec_.kind) {
    case DiskFaultSpec::Kind::kEnospc:
      last_fault_name_ = "ENOSPC";
      return ENOSPC;
    case DiskFaultSpec::Kind::kEio:
      last_fault_name_ = "EIO";
      return EIO;
    case DiskFaultSpec::Kind::kShortWrite:
      last_fault_name_ = "short write";
      if (short_cap != nullptr) *short_cap = payload_bytes / 2;
      return EIO;
    case DiskFaultSpec::Kind::kRename:
      last_fault_name_ = "rename failure";
      return EIO;
    case DiskFaultSpec::Kind::kFsync:
      last_fault_name_ = "fsync failure";
      return EIO;
    case DiskFaultSpec::Kind::kNone:
      break;
  }
  return 0;
}

bool StageFile(const std::string& staging, const std::string& target,
               const std::string& body, bool fsync_file,
               DiskFaultInjector* fault, bool* publish_fault,
               std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  *publish_fault = false;
  std::size_t cap = body.size();
  DiskFaultSpec::Kind inj = DiskFaultSpec::Kind::kNone;
  if (fault != nullptr && fault->OnWrite(body.size(), &cap) != 0) {
    inj = fault->last_fault_kind();
  }
  // A fault is injected at the protocol stage its kind names, so each stage
  // of the durable write (write, fsync, publish) is separately provable:
  // the target never changes on any failure, whatever the stage.
  const std::string injected =
      inj == DiskFaultSpec::Kind::kNone
          ? std::string()
          : " (injected " + fault->last_fault_name() + ")";
  if (inj == DiskFaultSpec::Kind::kEnospc ||
      inj == DiskFaultSpec::Kind::kEio) {
    // Full-write fault: fail before touching the filesystem, like a
    // write() that returned -1 immediately.
    return fail("write '" + target + "' failed" + injected);
  }
#if defined(_WIN32)
  {
    std::ofstream f(staging, std::ios::binary | std::ios::trunc);
    if (!f) return fail("cannot open '" + staging + "' for writing");
    f.write(body.data(), static_cast<std::streamsize>(cap));
    f.flush();
    if (!f) return fail("write to '" + staging + "' failed");
  }
  if (inj == DiskFaultSpec::Kind::kShortWrite ||
      inj == DiskFaultSpec::Kind::kFsync) {
    return fail("write '" + target + "' failed" + injected);
  }
#else
  const int fd = ::open(staging.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail("cannot open '" + staging + "' for writing");
  std::size_t off = 0;
  while (off < cap) {
    const ssize_t n = ::write(fd, body.data() + off, cap - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(staging.c_str());
      return fail("write to '" + staging + "' failed");
    }
    off += static_cast<std::size_t>(n);
  }
  if (inj == DiskFaultSpec::Kind::kShortWrite) {
    // Short write: leave the torn staging file behind for postmortems; the
    // target is untouched because the publish never happens.
    ::close(fd);
    return fail("write '" + target + "' failed" + injected);
  }
  if (inj == DiskFaultSpec::Kind::kFsync ||
      (fsync_file && ::fsync(fd) != 0)) {
    // Durability refused: data may sit in the page cache, but the protocol
    // cannot promise it survives a power cut — the write must fail and the
    // previous target content stays the published truth.
    ::close(fd);
    ::unlink(staging.c_str());
    return fail("fsync of '" + staging + "' failed" + injected);
  }
  if (::close(fd) != 0) {
    ::unlink(staging.c_str());
    return fail("close of '" + staging + "' failed");
  }
#endif
  // An injected rename fault leaves the complete staging file unpublished:
  // the one crash window the durable protocol leaves, now reproducible.
  *publish_fault = inj == DiskFaultSpec::Kind::kRename;
  return true;
}

bool AtomicWriteFile(const std::string& path, const std::string& body,
                     bool fsync_file, DiskFaultInjector* fault,
                     std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const std::string tmp = path + AtomicTempSuffix();
  bool publish_fault = false;
  if (!StageFile(tmp, path, body, fsync_file, fault, &publish_fault,
                 error)) {
    return false;
  }
  if (publish_fault) {
    return fail("rename '" + tmp + "' -> '" + path + "' failed (injected " +
                fault->last_fault_name() + ")");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return fail("rename '" + tmp + "' -> '" + path + "' failed");
  }
  if (fsync_file) SyncParentDir(path);
  return true;
}

}  // namespace domino
