// Per-process scratch directory for the files a test writes.
//
// scratch_path(name) names a file under ::testing::TempDir()/hbmrd_<pid>/.
// ctest runs each discovered test in its own process, so every test gets a
// directory of its own. When the process finishes and every test in it
// passed, the directory is removed; after a failure it is kept so the
// artifacts can be inspected.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace hbmrd {

/// The calling process's scratch directory (with a trailing '/').
inline std::string scratch_dir() {
  return ::testing::TempDir() + "hbmrd_" + std::to_string(::getpid()) + "/";
}

/// `name` inside the scratch directory, which is created on demand.
inline std::string scratch_path(const std::string& name) {
  const auto dir = scratch_dir();
  std::filesystem::create_directories(dir);
  return dir + name;
}

/// Removes the scratch directory after a run in which every test passed.
class ScratchCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    if (!::testing::UnitTest::GetInstance()->Passed()) return;
    std::error_code ignored;
    std::filesystem::remove_all(scratch_dir(), ignored);
  }
};

inline ::testing::Environment* const kScratchCleanup =
    ::testing::AddGlobalTestEnvironment(new ScratchCleanup);

}  // namespace hbmrd
