// Hermetic scratch paths for tests.
//
// ctest runs every TEST as its own process (gtest_discover_tests), and
// `ctest -j` runs those processes concurrently. A fixed name under
// ::testing::TempDir() therefore lets one test overwrite or delete
// another's files. Every test that touches the filesystem takes its
// paths from here instead: they live in a directory named after the
// running test and the process id, created on first use and removed
// when the process exits.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace eio::test {

namespace detail {

/// Removes the scratch directories handed out, at process exit.
struct TempDirRegistry {
  std::vector<std::filesystem::path> dirs;
  ~TempDirRegistry() {
    for (const auto& d : dirs) {
      std::error_code ec;
      std::filesystem::remove_all(d, ec);
    }
  }
};

}  // namespace detail

/// The running test's scratch directory,
/// <TempDir>/eio.<Suite>.<Test>.<pid>, created if absent.
inline std::string temp_dir() {
  static detail::TempDirRegistry registry;
  std::string name = "eio";
  if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += ".";
    name += info->test_suite_name();
    name += ".";
    name += info->name();
  }
  name += ".";
  name += std::to_string(::getpid());
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterized names carry '/'
  }
  std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) / name;
  if (std::filesystem::create_directories(dir)) registry.dirs.push_back(dir);
  return dir.string();
}

/// `name` inside the running test's scratch directory.
inline std::string temp_path(const std::string& name) {
  return (std::filesystem::path(temp_dir()) / name).string();
}

}  // namespace eio::test
