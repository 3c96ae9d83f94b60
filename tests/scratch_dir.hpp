// scratch_dir.hpp — a per-process scratch directory for tests that write
// files.  Test processes run concurrently (ctest -j, repeated runs), so a
// fixed path under the shared temp directory would let one process
// delete or overwrite another's files.  The directory is created on
// first use and removed when the process exits.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace dpbyz::testing_support {

/// This process's scratch directory, with a trailing '/'.
inline const std::string& scratch_dir() {
  struct Dir {
    std::string path;
    Dir() {
      const std::filesystem::path p = std::filesystem::path(::testing::TempDir()) /
                                      ("dpbyz_test_" + std::to_string(::getpid()));
      std::filesystem::create_directories(p);
      path = p.string() + "/";
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

}  // namespace dpbyz::testing_support
