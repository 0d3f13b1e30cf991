// Per-test temporary directory for tests that touch the filesystem.
//
// The directory sits under temp_directory_path() and is named after the
// running test plus the process id, so no two tests — nor two copies of one
// test under `ctest -j --repeat` — ever share a path.  It is created empty
// on construction and removed with its contents on destruction.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace dasched {

class ScopedTestDir {
 public:
  ScopedTestDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "dasched_" + std::string(info->test_suite_name()) +
                       "." + info->name() + "." + std::to_string(::getpid());
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTestDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTestDir(const ScopedTestDir&) = delete;
  ScopedTestDir& operator=(const ScopedTestDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  /// `path()/name` as a string, for APIs that take one.
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace dasched
