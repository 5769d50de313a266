// Per-process scratch directories for tests that write to disk.
//
// ctest runs every discovered test as its own process, in parallel under
// `-j`, and all of them share ::testing::TempDir(). So scratch paths are
// keyed by process: TempDir()/<pid>-<Suite.Test>/<name>. A test only ever
// clears directories under its own process root, never a sibling's, and
// fixtures shared by the tests of one process are written under a staging
// name and published by rename, so a half-written fixture is never visible
// under its final name. The roots a process created are deleted when it
// exits with every test passed, and kept for inspection otherwise.
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <system_error>

namespace domino::testing_scratch {

namespace fs = std::filesystem;

/// Removes this process's scratch roots after the last test, if all passed.
class ScratchCleanup : public ::testing::Environment {
 public:
  static std::set<fs::path>& Roots() {
    static std::set<fs::path> roots;
    return roots;
  }
  void TearDown() override {
    if (!::testing::UnitTest::GetInstance()->Passed()) return;
    std::error_code ec;
    for (const fs::path& root : Roots()) fs::remove_all(root, ec);
  }
};

inline ::testing::Environment* const kScratchCleanup =
    ::testing::AddGlobalTestEnvironment(new ScratchCleanup);

/// TempDir()/<pid>-<Suite.Test>: the calling test's own root.
inline fs::path ProcessRoot() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string test =
      info != nullptr
          ? std::string(info->test_suite_name()) + "." + info->name()
          : std::string("setup");
  fs::path root = fs::path(::testing::TempDir()) /
                  (std::to_string(::getpid()) + "-" + test);
  fs::create_directories(root);
  ScratchCleanup::Roots().insert(root);
  return root;
}

/// Fresh (emptied) scratch directory `name` under this process's root.
inline std::string FreshDir(const std::string& name) {
  const fs::path dir = ProcessRoot() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Builds a fixture directory once: `fill` writes it under a staging name,
/// which is then renamed to `name` under this process's root.
inline std::string PublishFixture(
    const std::string& name,
    const std::function<void(const std::string&)>& fill) {
  const fs::path final_dir = ProcessRoot() / name;
  const std::string staging = FreshDir(name + ".staging");
  fill(staging);
  fs::remove_all(final_dir);
  fs::rename(staging, final_dir);
  return final_dir.string();
}

}  // namespace domino::testing_scratch
